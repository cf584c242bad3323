"""TPR-tree monitoring engine — the predictive baseline, driven honestly.

The TPR-tree answers from *recorded trajectories*.  This engine keeps its
answers exact the only way a predictive index can in the paper's
unpredictable-motion setting: every cycle it compares each object's actual
snapshot position against the tree's prediction and re-inserts every
object that deviates (velocity re-estimated from the last two snapshots).

* Piecewise-linear motion with rare velocity changes → few updates per
  cycle: the TPR-tree shines, exactly the regime it was designed for.
* The paper's free motion (velocities change every cycle) → *every*
  object updates *every* cycle, i.e. a full delete+insert pass: the
  degeneration to R-tree behaviour described in §5.4.

Churn: velocity estimates are positional over the dense population, so
both :class:`~repro.engines.base.BaseEngine` delta hooks keep the rebuild
fallback — a churned cycle reloads the tree from the packed survivors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.answers import AnswerBatch
from ..engines.base import BaseEngine
from ..errors import IndexStateError
from .tprtree import TPRTree

# Predictions matching the snapshot to within this distance are "valid";
# anything larger means the recorded velocity is stale and the object must
# be updated for answers to stay exact.
_PREDICTION_TOLERANCE = 1e-12


class TPREngine(BaseEngine):
    """Predictive TPR-tree engine with exactness-preserving maintenance."""

    def __init__(
        self,
        k: int,
        queries: np.ndarray,
        horizon: float = 10.0,
        max_entries: int = 32,
        tau: float = 1.0,
    ) -> None:
        super().__init__(k, queries)
        self.name = "tprtree/predictive"
        self.horizon = horizon
        self.tau = tau
        self.index = TPRTree(horizon=horizon, max_entries=max_entries)
        self._now = 0.0
        self._previous: Optional[np.ndarray] = None
        #: Number of per-object updates issued on the last maintain() —
        #: the degeneration metric (NP updates/cycle = R-tree behaviour).
        self.last_update_count = 0

    def load(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        self.index = TPRTree(horizon=self.horizon, max_entries=self.index.max_entries)
        self._now = 0.0
        # No motion observed yet: zero initial velocities.
        xs = positions[:, 0].tolist()
        ys = positions[:, 1].tolist()
        for object_id in range(len(positions)):
            self.index.insert(object_id, xs[object_id], ys[object_id], 0.0, 0.0, 0.0)
        self._previous = positions.copy()
        self._positions = positions
        self.last_update_count = len(positions)

    def maintain(self, positions: np.ndarray) -> None:
        if self._previous is None:
            raise IndexStateError("load() must run before maintain()")
        positions = np.asarray(positions, dtype=np.float64)
        if len(positions) != len(self._previous):
            self.load(positions)
            return
        self._now += self.tau
        now = self._now
        # Which predictions went stale?  Vectorised check against the
        # recorded trajectories.
        predicted = np.empty_like(positions)
        for object_id in range(len(positions)):
            predicted[object_id] = self.index.position_at(object_id, now)
        deviation = np.max(np.abs(predicted - positions), axis=1)
        stale = np.nonzero(deviation > _PREDICTION_TOLERANCE)[0]
        velocities = (positions - self._previous) / self.tau
        for object_id in stale.tolist():
            self.index.update(
                object_id,
                float(positions[object_id, 0]),
                float(positions[object_id, 1]),
                float(velocities[object_id, 0]),
                float(velocities[object_id, 1]),
                now,
            )
        self.last_update_count = int(len(stale))
        self.metrics.inc("tpr.maintain.updates", self.last_update_count)
        self._previous = positions.copy()
        self._positions = positions

    def answer(self) -> AnswerBatch:
        self.metrics.inc("tpr.answer.queries", self.n_queries)
        return AnswerBatch.from_lists(
            [self.index.knn(qx, qy, self.k, self._now) for qx, qy in self.queries],
            self.k,
        )
