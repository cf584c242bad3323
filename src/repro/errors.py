"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An index, workload, or monitor was configured with invalid parameters."""


class NonFiniteCoordinateError(ConfigurationError):
    """Input coordinates hold NaN or infinity.

    No k-NN answer can be exact for such a point, so the session and the
    world store reject the whole call before writing anything.
    """

    def __init__(self, what: str, rows: int) -> None:
        super().__init__(f"{what}: {rows} row(s) hold non-finite coordinates")
        self.rows = rows


class OutOfRegionError(ReproError):
    """A point lies outside the unit-square region of interest ``[0, 1)^2``."""

    def __init__(self, x: float, y: float) -> None:
        super().__init__(f"point ({x!r}, {y!r}) lies outside the unit square [0, 1)^2")
        self.x = x
        self.y = y


class NotEnoughObjectsError(ReproError):
    """A k-NN query was posed against a population with fewer than k objects."""

    def __init__(self, k: int, population: int) -> None:
        super().__init__(
            f"cannot answer a {k}-NN query over a population of {population} objects"
        )
        self.k = k
        self.population = population


class IndexStateError(ReproError):
    """An index operation was attempted in an invalid state.

    Examples: incremental maintenance before an initial build, removing an
    object from a cell that does not contain it.
    """
