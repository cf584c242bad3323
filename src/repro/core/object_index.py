"""One-level grid Object-Index (paper §3.1 and §3.2).

The plane is partitioned into a regular grid; each cell ``(i, j)`` keeps the
object list ``PL(i, j)`` of IDs of objects currently inside it.  Two query
algorithms are provided:

* :meth:`ObjectIndex.knn_overhaul` — the paper's Fig. 3 algorithm.  It grows
  the rectangle ``R0`` around the query's cell one ring at a time until at
  least ``k`` objects are enclosed, derives the critical radius ``lcrit``,
  and scans the critical rectangle ``Rcrit``.
* :meth:`ObjectIndex.knn_incremental` — §3.2.  ``Rcrit`` is seeded directly
  from the *previous* answer set: the new positions of the old k-NNs bound
  the new k-th-nearest distance, so the iterative ``R0`` growth is skipped.

Index maintenance likewise comes in the paper's two flavors:
:meth:`build` (overhaul, a single scan of the snapshot) and :meth:`update`
(incremental, moving only objects whose cell changed).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..errors import IndexStateError, NotEnoughObjectsError
from ..grid.geometry import (
    cells_ring,
    min_dist2_point_cell,
    outside_unit_square,
    rect_for_radius,
    rect_paper_rcrit,
)
from ..grid.grid2d import Grid2D, resolve_grid_size
from ..obs.counters import CounterBlock
from ..obs.tracing import NULL_TRACER
from .answers import AnswerList


class ObjectIndexCounters(CounterBlock):
    """Work counters for the §3.1/§3.2 query paths.

    Always counted (plain integer adds, at most one per cell visited);
    the engine layer diffs the block per cycle and publishes the deltas
    as ``oi.answer.*`` metrics when instrumentation is on.
    """

    FIELDS = (
        "cells_visited",
        "cells_pruned",
        "objects_scanned",
        "overhaul_calls",
        "incremental_calls",
        "incremental_fallbacks",
        "r0_rings",
        "r0_objects",
    )
    __slots__ = FIELDS


class ObjectIndex:
    """Grid index over moving-object positions.

    Parameters
    ----------
    ncells, delta, n_objects:
        Grid resolution; give exactly one.  ``n_objects`` selects the
        paper's optimal cell size ``delta* = 1 / sqrt(NP)`` (Theorem 1).
    sorted_cells:
        Keep each object list sorted by ID.  The paper notes incremental
        maintenance "requires the object lists to be implemented with a
        sorted container"; with plain Python lists both variants cost O(L)
        per deletion, so this flag exists for the container ablation bench
        rather than for speed.
    strict_paper_rcrit:
        Use the paper's literal critical rectangle
        ``R(cq, ceil(lcrit / delta))`` centred on the query's *cell*.  By
        default a tighter, still-correct rectangle covering the disc of
        radius ``lcrit`` around the query *point* is used.
    prune_cells:
        Skip cells of ``Rcrit`` that cannot contain a better neighbor than
        the current k-th candidate (exactness-preserving optimisation).
    """

    def __init__(
        self,
        ncells: Optional[int] = None,
        delta: Optional[float] = None,
        n_objects: Optional[int] = None,
        sorted_cells: bool = False,
        strict_paper_rcrit: bool = False,
        prune_cells: bool = True,
    ) -> None:
        self.grid = Grid2D(resolve_grid_size(ncells, delta, n_objects))
        self.sorted_cells = sorted_cells
        self.strict_paper_rcrit = strict_paper_rcrit
        self.prune_cells = prune_cells
        self.counters = ObjectIndexCounters()
        self.tracer = NULL_TRACER
        self._x: List[float] = []
        self._y: List[float] = []
        self._cell_flat: Optional[np.ndarray] = None
        #: ``ncells`` while some object lies outside the unit square (its
        #: edge cell then reaches out to it; see min_dist2_point_cell).
        self._open_edges: Optional[int] = None
        self._built = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def delta(self) -> float:
        return self.grid.delta

    @property
    def ncells(self) -> int:
        return self.grid.ncells

    @property
    def n_objects(self) -> int:
        return len(self._x)

    @property
    def built(self) -> bool:
        return self._built

    def position_of(self, object_id: int) -> "tuple[float, float]":
        """Snapshot position of one object."""
        return self._x[object_id], self._y[object_id]

    # ------------------------------------------------------------------
    # SnapshotIndex protocol (repro.engines.snapshot)
    # ------------------------------------------------------------------
    def locate(self, x: float, y: float) -> "tuple[int, int]":
        """Cell ``(i, j)`` of a point (clamped to the grid)."""
        return self.grid.locate(x, y)

    def count_in_cells(self, ilo: int, jlo: int, ihi: int, jhi: int) -> int:
        """Number of objects inside the inclusive cell rectangle."""
        buckets = self.grid._buckets
        n = self.grid.ncells
        total = 0
        for j in range(jlo, jhi + 1):
            base = j * n
            for i in range(ilo, ihi + 1):
                total += len(buckets[base + i])
        return total

    def gather_cells(
        self, ilo: int, jlo: int, ihi: int, jhi: int
    ) -> "tuple[List[int], List[float], List[float]]":
        """``(ids, xs, ys)`` of every object inside the cell rectangle."""
        buckets = self.grid._buckets
        n = self.grid.ncells
        xs = self._x
        ys = self._y
        out_ids: List[int] = []
        out_xs: List[float] = []
        out_ys: List[float] = []
        for j in range(jlo, jhi + 1):
            base = j * n
            for i in range(ilo, ihi + 1):
                for object_id in buckets[base + i]:
                    out_ids.append(object_id)
                    out_xs.append(xs[object_id])
                    out_ys.append(ys[object_id])
        return out_ids, out_xs, out_ys

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _flat_cells(self, positions: np.ndarray) -> np.ndarray:
        n = self.grid.ncells
        ii = np.clip((positions[:, 0] * n).astype(np.intp), 0, n - 1)
        jj = np.clip((positions[:, 1] * n).astype(np.intp), 0, n - 1)
        return jj * n + ii

    def build(self, positions: np.ndarray) -> None:
        """Overhaul rebuild from a snapshot of positions.

        ``positions`` has shape ``(n, 2)``; object IDs are row indices.
        This is the paper's ``Tindex = a0 * NP`` linear scan.
        """
        positions = np.asarray(positions, dtype=np.float64)
        # Compute the flat cell IDs once and share them between the bucket
        # fill and the stored array that incremental update() diffs against.
        self._cell_flat = self._flat_cells(positions)
        self.grid.bulk_load_flat(self._cell_flat)
        self._x = positions[:, 0].tolist()
        self._y = positions[:, 1].tolist()
        self._track_outside(positions)
        self._built = True

    def update(self, positions: np.ndarray) -> int:
        """Incremental maintenance (§3.2): move only objects that changed cell.

        Returns the number of object moves performed.  The population must
        be the same set of IDs as the previous snapshot; objects entering or
        leaving the region are handled by the monitor layer re-building.
        """
        if not self._built or self._cell_flat is None:
            raise IndexStateError("update() requires a prior build()")
        positions = np.asarray(positions, dtype=np.float64)
        if len(positions) != len(self._x):
            raise IndexStateError(
                f"population changed from {len(self._x)} to {len(positions)}; "
                "rebuild the index instead of updating it"
            )
        new_flat = self._flat_cells(positions)
        movers = np.nonzero(new_flat != self._cell_flat)[0]
        n = self.grid.ncells
        buckets = self.grid._buckets
        old_flat = self._cell_flat
        for object_id in movers.tolist():
            old_bucket = buckets[int(old_flat[object_id])]
            try:
                old_bucket.remove(object_id)
            except ValueError:
                raise IndexStateError(
                    f"object {object_id} missing from its recorded cell"
                ) from None
            new_bucket = buckets[int(new_flat[object_id])]
            if self.sorted_cells:
                from bisect import insort

                insort(new_bucket, object_id)
            else:
                new_bucket.append(object_id)
        self._x = positions[:, 0].tolist()
        self._y = positions[:, 1].tolist()
        self._cell_flat = new_flat
        self._track_outside(positions)
        return int(len(movers))

    def _track_outside(self, positions: np.ndarray) -> None:
        outside = outside_unit_square(positions)
        self._open_edges = self.grid.ncells if outside else None

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def _scan_rect_into(
        self, qx: float, qy: float, rect, answers: AnswerList
    ) -> None:
        """Offer every object in ``rect`` to the answer list.

        With ``prune_cells`` enabled, cells that cannot improve the current
        k-th best distance are skipped entirely.
        """
        grid = self.grid
        buckets = grid._buckets
        n = grid.ncells
        delta = grid.delta
        xs = self._x
        ys = self._y
        prune = self.prune_cells
        open_edges = self._open_edges
        counters = self.counters
        counters.cells_visited += rect.ncells
        for j in range(rect.jlo, rect.jhi + 1):
            base = j * n
            for i in range(rect.ilo, rect.ihi + 1):
                bucket = buckets[base + i]
                if not bucket:
                    continue
                if prune and answers.full:
                    # Strict: a cell whose min distance *equals* the k-th
                    # distance may still hold an equidistant lower-id
                    # candidate that wins the (dist2, id) tie-break.
                    if (
                        min_dist2_point_cell(qx, qy, i, j, delta, open_edges)
                        > answers.worst_dist2
                    ):
                        counters.cells_pruned += 1
                        continue
                counters.objects_scanned += len(bucket)
                for object_id in bucket:
                    dx = xs[object_id] - qx
                    dy = ys[object_id] - qy
                    answers.offer(dx * dx + dy * dy, object_id)

    def _critical_radius_overhaul(self, qx: float, qy: float, k: int) -> float:
        """Grow ``R0`` ring by ring; return a radius covering >= k objects.

        This returns the distance from ``q`` to the k-th nearest object
        found inside ``R0``, which is a tighter valid bound than the
        paper's distance to the *farthest* object in ``R0`` (both radii
        provably enclose the true k-NN; see DESIGN.md).
        """
        if k > self.n_objects:
            raise NotEnoughObjectsError(k, self.n_objects)
        grid = self.grid
        ci, cj = grid.locate(qx, qy)
        ncells = grid.ncells
        seen: List[float] = []  # squared distances of objects inside R0
        xs = self._x
        ys = self._y
        level = 0
        while len(seen) < k:
            ring = cells_ring(ci, cj, level, ncells)
            if not ring and level > 0:
                # An empty ring means every cell at this Chebyshev distance
                # is clamped away, i.e. the whole grid has been scanned.
                raise NotEnoughObjectsError(k, self.n_objects)
            for i, j in ring:
                for object_id in grid.bucket(i, j):
                    dx = xs[object_id] - qx
                    dy = ys[object_id] - qy
                    seen.append(dx * dx + dy * dy)
            level += 1
        counters = self.counters
        counters.r0_rings += level - 1  # rings beyond the home cell
        counters.r0_objects += len(seen)
        seen.sort()
        return math.sqrt(seen[k - 1])

    def _rect_for(self, qx: float, qy: float, radius: float):
        if self.strict_paper_rcrit:
            return rect_paper_rcrit(qx, qy, radius, self.grid.delta, self.grid.ncells)
        return rect_for_radius(qx, qy, radius, self.grid.delta, self.grid.ncells)

    def _incremental_lcrit(
        self, qx: float, qy: float, previous_ids: Sequence[int]
    ) -> float:
        """Distance to the farthest new position of the previous k-NNs."""
        xs = self._x
        ys = self._y
        worst2 = 0.0
        for object_id in previous_ids:
            dx = xs[object_id] - qx
            dy = ys[object_id] - qy
            d2 = dx * dx + dy * dy
            if d2 > worst2:
                worst2 = d2
        return math.sqrt(worst2)

    def knn_overhaul(self, qx: float, qy: float, k: int) -> AnswerList:
        """Exact k-NN from scratch (paper Fig. 3)."""
        if not self._built:
            raise IndexStateError("knn_overhaul() requires a prior build()")
        self.counters.overhaul_calls += 1
        tracer = self.tracer
        # Per-query path: a disabled tracer must cost one attribute check,
        # not a null context manager per stage.
        if tracer.enabled:
            with tracer.span("r0_growth"):
                lcrit = self._critical_radius_overhaul(qx, qy, k)
            rect = self._rect_for(qx, qy, lcrit)
            answers = AnswerList(k)
            with tracer.span("rcrit_scan"):
                self._scan_rect_into(qx, qy, rect, answers)
            return answers
        lcrit = self._critical_radius_overhaul(qx, qy, k)
        rect = self._rect_for(qx, qy, lcrit)
        answers = AnswerList(k)
        self._scan_rect_into(qx, qy, rect, answers)
        return answers

    def knn_incremental(
        self, qx: float, qy: float, k: int, previous_ids: Sequence[int]
    ) -> AnswerList:
        """Exact k-NN seeded by the previous answer set (§3.2).

        ``lcrit`` is the distance from ``q`` to the farthest *new* position
        of the previous k-NNs; the disc of that radius is guaranteed to
        contain the new k-NN because it already contains k objects.
        Falls back to the overhaul algorithm when no usable previous answer
        exists.
        """
        if not self._built:
            raise IndexStateError("knn_incremental() requires a prior build()")
        counters = self.counters
        counters.incremental_calls += 1
        n = self.n_objects
        if len(previous_ids) < k or any(not 0 <= p < n for p in previous_ids):
            counters.incremental_fallbacks += 1
            return self.knn_overhaul(qx, qy, k)
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("lcrit"):
                lcrit = self._incremental_lcrit(qx, qy, previous_ids)
            rect = self._rect_for(qx, qy, lcrit)
            answers = AnswerList(k)
            with tracer.span("rcrit_scan"):
                self._scan_rect_into(qx, qy, rect, answers)
        else:
            lcrit = self._incremental_lcrit(qx, qy, previous_ids)
            rect = self._rect_for(qx, qy, lcrit)
            answers = AnswerList(k)
            self._scan_rect_into(qx, qy, rect, answers)
        if len(answers) < k:  # pragma: no cover - defensive; cannot happen
            counters.incremental_fallbacks += 1
            return self.knn_overhaul(qx, qy, k)
        return answers

    # ------------------------------------------------------------------
    # Statistics (used by cost-model validation and Fig. 16/21 benches)
    # ------------------------------------------------------------------
    def critical_rect_stats(self, qx: float, qy: float, k: int) -> "tuple[int, int]":
        """``(cells, objects)`` covered by the overhaul critical rectangle."""
        lcrit = self._critical_radius_overhaul(qx, qy, k)
        rect = self._rect_for(qx, qy, lcrit)
        return rect.ncells, self.grid.count_in_rect(rect)

    def validate(self) -> None:
        """Check structural invariants; raises IndexStateError on violation.

        Every object must appear exactly once, in the cell its snapshot
        position maps to.  Intended for tests, not the hot path.
        """
        if not self._built:
            raise IndexStateError("validate() requires a prior build()")
        seen = 0
        grid = self.grid
        for j in range(grid.ncells):
            for i in range(grid.ncells):
                for object_id in grid.bucket(i, j):
                    seen += 1
                    ci, cj = grid.locate(self._x[object_id], self._y[object_id])
                    if (ci, cj) != (i, j):
                        raise IndexStateError(
                            f"object {object_id} stored in ({i}, {j}) but "
                            f"positioned in ({ci}, {cj})"
                        )
        if seen != self.n_objects:
            raise IndexStateError(
                f"grid stores {seen} ids for a population of {self.n_objects}"
            )
