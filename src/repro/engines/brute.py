"""Linear-scan oracle engine (ground truth for the exact methods)."""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.answers import AnswerBatch, AnswerList
from ..core.brute import brute_force_knn
from ..errors import IndexStateError
from .base import BaseEngine


class BruteForceEngine(BaseEngine):
    """Linear-scan oracle, used as ground truth."""

    name = "brute-force"

    def apply_query_delta(self, delta) -> None:
        # Stateless: a query churn batch is just the swap (no index, no
        # per-query state, nothing to rebuild).
        self.queries = np.asarray(delta.queries, dtype=np.float64)

    def apply_object_delta(self, delta) -> None:
        # Stateless over densely packed positions; nothing to invalidate.
        if delta.member_idx is not None:
            super().apply_object_delta(delta)

    def load(self, positions: np.ndarray) -> None:
        self._positions = np.asarray(positions, dtype=np.float64)

    def maintain(self, positions: np.ndarray) -> None:
        self._positions = np.asarray(positions, dtype=np.float64)

    def answer(self) -> AnswerBatch:
        if self._positions is None:
            raise IndexStateError("load() must run before answer()")
        self.metrics.inc(
            "brute.answer.objects_scanned", len(self._positions) * self.n_queries
        )
        answers: List[AnswerList] = []
        for qx, qy in self.queries:
            answer = AnswerList(self.k)
            for object_id, distance in brute_force_knn(
                self._positions, qx, qy, self.k
            ):
                answer.offer(distance * distance, object_id)
            answers.append(answer)
        return AnswerBatch.from_lists(answers, self.k)
