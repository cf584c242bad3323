"""R-tree baseline engine (paper §5.4).

Churn: the tree is keyed by dense object ids, so population changes take
the :class:`~repro.engines.base.BaseEngine` rebuild fallback (the
``str_bulk``/``bottom_up`` modes already rebuild on a population-size
change); query deltas are a plain swap + rebuild.
"""

from __future__ import annotations

import numpy as np

from ..core.answers import AnswerBatch
from ..errors import ConfigurationError
from ..rtree.rtree import RTree
from .base import BaseEngine


class RTreeEngine(BaseEngine):
    """R-tree baseline (§5.4).

    Maintenance modes:

    * ``overhaul`` — re-construct the tree entirely each cycle by inserting
      every object into an empty tree (the paper's "R-tree overhaul").
    * ``bottom_up`` — Lee et al. localized updates per object.
    * ``str_bulk`` — rebuild with Sort-Tile-Recursive packing; *stronger*
      than anything the paper ran, included as an extra baseline so the
      comparison is not won by a strawman.
    """

    _MODES = ("overhaul", "bottom_up", "str_bulk")

    def __init__(
        self,
        k: int,
        queries: np.ndarray,
        maintenance: str = "overhaul",
        max_entries: int = 32,
    ) -> None:
        super().__init__(k, queries)
        if maintenance not in self._MODES:
            raise ConfigurationError(
                f"maintenance must be one of {self._MODES}, got {maintenance!r}"
            )
        self.name = f"rtree/{maintenance}"
        self.maintenance = maintenance
        self.max_entries = max_entries
        self.index = RTree(max_entries=max_entries)

    def _rebuild_by_insertion(self, positions: np.ndarray) -> None:
        self.index = RTree(max_entries=self.max_entries)
        xs = positions[:, 0].tolist()
        ys = positions[:, 1].tolist()
        for object_id in range(len(positions)):
            self.index.insert(object_id, xs[object_id], ys[object_id])

    def load(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if self.maintenance == "overhaul":
            self._rebuild_by_insertion(positions)
        else:
            self.index.bulk_load(positions)
        self._positions = positions

    def maintain(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if self.maintenance == "overhaul":
            self._rebuild_by_insertion(positions)
            self.metrics.inc("rtree.maintain.rebuilds")
        elif self.maintenance == "str_bulk" or len(positions) != len(self.index):
            self.index.bulk_load(positions)
            self.metrics.inc("rtree.maintain.rebuilds")
        else:
            xs = positions[:, 0].tolist()
            ys = positions[:, 1].tolist()
            for object_id in range(len(positions)):
                self.index.update_bottom_up(object_id, xs[object_id], ys[object_id])
            self.metrics.inc("rtree.maintain.updates", len(positions))
        self._positions = positions

    def answer(self) -> AnswerBatch:
        metrics = self.metrics
        # Overhaul maintenance replaces the tree (and its counter block)
        # every cycle, so the diff baseline is taken from the *current*
        # index right before answering.
        before = self.index.counters.snapshot() if metrics.enabled else None
        answers = [self.index.knn(qx, qy, self.k) for qx, qy in self.queries]
        if before is not None:
            for name, delta in self.index.counters.diff(before).items():
                metrics.inc(f"rtree.answer.{name}", delta)
        return AnswerBatch.from_lists(answers, self.k)
