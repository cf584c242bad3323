"""Planar geometry primitives shared by all index structures.

The paper works in the unit square ``[0, 1)^2`` partitioned into a regular
grid of ``G x G`` cells of side ``delta = 1 / G``.  Cells are addressed by
integer column/row coordinates ``(i, j)`` where ``i`` indexes the x axis and
``j`` the y axis, matching the paper's notation ``(i, j)`` with the cell
covering ``[i*delta, (i+1)*delta) x [j*delta, (j+1)*delta)``.

The paper frequently approximates circles by *rectangles of cells*
``R(c0, l)``: the square block of cells whose lower-left cell is
``(i0 - l, j0 - l)`` and upper-right cell is ``(i0 + l, j0 + l)``.  Those
rectangles are represented here by :class:`CellRect`, always clamped to the
grid bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

import numpy as np


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def dist2(ax: float, ay: float, bx: float, by: float) -> float:
    """Squared Euclidean distance between points ``a`` and ``b``.

    Squared distances are used throughout the hot paths; the square root is
    taken only when a true distance is reported to the user or compared
    against a radius expressed in plain units.
    """
    dx = ax - bx
    dy = ay - by
    return dx * dx + dy * dy


def dist(ax: float, ay: float, bx: float, by: float) -> float:
    """Euclidean distance between points ``a`` and ``b``."""
    return math.sqrt(dist2(ax, ay, bx, by))


def cell_of(x: float, y: float, delta: float, ncells: int) -> Tuple[int, int]:
    """Map a point to the coordinates of its enclosing grid cell.

    Points exactly on the upper/right boundary (coordinate 1.0) are clamped
    into the last cell so that the closed unit square is fully covered even
    though the paper's region is half-open.

    ``x * ncells`` (not ``x / delta``) is used deliberately: all vectorised
    bulk loaders compute cells the same way, and the two float expressions
    can disagree by one cell for coordinates just below a boundary.
    """
    i = int(x * ncells)
    j = int(y * ncells)
    if i >= ncells:
        i = ncells - 1
    elif i < 0:
        i = 0
    if j >= ncells:
        j = ncells - 1
    elif j < 0:
        j = 0
    return i, j


@dataclass(frozen=True)
class CellRect:
    """An axis-aligned, inclusive rectangle of grid cells.

    ``ilo <= i <= ihi`` and ``jlo <= j <= jhi`` enumerate the member cells.
    Instances are always expected to be clamped to ``[0, ncells)``; use
    :func:`rect_centered` to construct clamped rectangles.
    """

    ilo: int
    jlo: int
    ihi: int
    jhi: int

    @property
    def ncols(self) -> int:
        return self.ihi - self.ilo + 1

    @property
    def nrows(self) -> int:
        return self.jhi - self.jlo + 1

    @property
    def ncells(self) -> int:
        """Number of grid cells covered by the rectangle."""
        return self.ncols * self.nrows

    def __contains__(self, cell: Tuple[int, int]) -> bool:
        i, j = cell
        return self.ilo <= i <= self.ihi and self.jlo <= j <= self.jhi

    def cells(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the member cells in row-major order."""
        for j in range(self.jlo, self.jhi + 1):
            for i in range(self.ilo, self.ihi + 1):
                yield i, j

    def intersection(self, other: "CellRect") -> "CellRect | None":
        """The rectangle of cells common to ``self`` and ``other``."""
        ilo = max(self.ilo, other.ilo)
        jlo = max(self.jlo, other.jlo)
        ihi = min(self.ihi, other.ihi)
        jhi = min(self.jhi, other.jhi)
        if ilo > ihi or jlo > jhi:
            return None
        return CellRect(ilo, jlo, ihi, jhi)

    def cells_not_in(self, other: "CellRect") -> Iterator[Tuple[int, int]]:
        """Iterate over cells of ``self`` that are not members of ``other``.

        Used by incremental Query-Index maintenance, which must delete a
        query from ``Rcrit(t) - Rcrit(t + dt)`` and insert it into
        ``Rcrit(t + dt) - Rcrit(t)``.
        """
        overlap = self.intersection(other)
        if overlap is None:
            yield from self.cells()
            return
        for j in range(self.jlo, self.jhi + 1):
            inside_rows = overlap.jlo <= j <= overlap.jhi
            for i in range(self.ilo, self.ihi + 1):
                if inside_rows and overlap.ilo <= i <= overlap.ihi:
                    continue
                yield i, j


def rect_centered(ci: int, cj: int, l: int, ncells: int) -> CellRect:
    """The paper's ``R(c0, l)``: cells within Chebyshev distance ``l`` of ``c0``.

    The result is clamped to the grid bounds, so near a border the rectangle
    may be smaller than ``(2l + 1)^2`` cells.
    """
    return CellRect(
        max(0, ci - l),
        max(0, cj - l),
        min(ncells - 1, ci + l),
        min(ncells - 1, cj + l),
    )


def rect_for_radius(
    qx: float, qy: float, radius: float, delta: float, ncells: int
) -> CellRect:
    """The smallest clamped cell rectangle covering the disc ``(q, radius)``.

    This refines the paper's ``R(cq, ceil(lcrit / delta))``: instead of a
    square of cells centred on the query's cell, it covers exactly the cells
    intersecting the bounding box of the disc, which is never larger and
    avoids over-scanning when the query sits near a cell border.
    """
    ilo = int((qx - radius) * ncells)
    jlo = int((qy - radius) * ncells)
    ihi = int((qx + radius) * ncells)
    jhi = int((qy + radius) * ncells)
    # Clamp both corners into the grid so the rectangle can never invert
    # (a query just outside the region must still map to boundary cells).
    return CellRect(
        min(ncells - 1, max(0, ilo)),
        min(ncells - 1, max(0, jlo)),
        min(ncells - 1, max(0, ihi)),
        min(ncells - 1, max(0, jhi)),
    )


def rect_paper_rcrit(
    qx: float, qy: float, radius: float, delta: float, ncells: int
) -> CellRect:
    """The paper's literal ``Rcrit = R(cq, ceil(radius / delta))``."""
    ci, cj = cell_of(qx, qy, delta, ncells)
    return rect_centered(ci, cj, int(math.ceil(radius / delta)), ncells)


def min_dist2_point_box(
    px: float, py: float, xlo: float, ylo: float, xhi: float, yhi: float
) -> float:
    """Squared minimum distance from a point to an axis-aligned box.

    Zero when the point is inside the box.  This is the MINDIST metric of
    Roussopoulos et al., used to order R-tree branch-and-bound search.
    """
    dx = 0.0
    if px < xlo:
        dx = xlo - px
    elif px > xhi:
        dx = px - xhi
    dy = 0.0
    if py < ylo:
        dy = ylo - py
    elif py > yhi:
        dy = py - yhi
    return dx * dx + dy * dy


def min_dist2_point_cell(
    px: float, py: float, i: int, j: int, delta: float,
    open_edges: Optional[int] = None,
) -> float:
    """Squared minimum distance from a point to grid cell ``(i, j)``.

    ``open_edges=ncells`` treats the grid's edge cells as unbounded
    outward: points outside the unit square are clamped into the edge
    cells, so that is where an edge cell's contents may lie.
    """
    xlo, ylo = i * delta, j * delta
    xhi, yhi = (i + 1) * delta, (j + 1) * delta
    if open_edges is not None:
        last = open_edges - 1
        xlo = -math.inf if i == 0 else xlo
        ylo = -math.inf if j == 0 else ylo
        xhi = math.inf if i == last else xhi
        yhi = math.inf if j == last else yhi
    return min_dist2_point_box(px, py, xlo, ylo, xhi, yhi)


def outside_unit_square(positions: np.ndarray) -> bool:
    """Whether any coordinate lies outside ``[0, 1)``."""
    return bool(len(positions)) and bool(
        positions.min() < 0.0 or positions.max() >= 1.0
    )


@lru_cache(maxsize=None)
def _ring_offsets(l: int) -> Tuple[Tuple[int, int], ...]:
    """Relative ``(di, dj)`` offsets of the ring at Chebyshev distance ``l``.

    The offsets depend only on ``l``, yet the overhaul search asks for the
    same rings for every query every cycle; memoizing them leaves only the
    translate-and-clamp work per call.
    """
    if l == 0:
        return ((0, 0),)
    out: List[Tuple[int, int]] = []
    # Top and bottom rows of the ring.
    for dj in (-l, l):
        for di in range(-l, l + 1):
            out.append((di, dj))
    # Left and right columns, excluding the corners already emitted.
    for di in (-l, l):
        for dj in range(-l + 1, l):
            out.append((di, dj))
    return tuple(out)


def cells_ring(ci: int, cj: int, l: int, ncells: int) -> List[Tuple[int, int]]:
    """Cells at exactly Chebyshev distance ``l`` from ``(ci, cj)``, clamped.

    ``l == 0`` yields the centre cell itself.  Used by the overhaul search
    to enlarge ``R0`` one ring at a time without rescanning interior cells.
    """
    out: List[Tuple[int, int]] = []
    for di, dj in _ring_offsets(l):
        i = ci + di
        j = cj + dj
        if 0 <= i < ncells and 0 <= j < ncells:
            out.append((i, j))
    return out
