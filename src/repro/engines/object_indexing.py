"""One-level grid Object-Indexing engine (paper §3.1 overhaul, §3.2 incremental)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.answers import AnswerBatch, AnswerList
from ..core.object_index import ObjectIndex
from ..errors import ConfigurationError, IndexStateError
from ..obs.registry import MetricsRegistry
from .base import _ANSWERING_MODES, _MAINTENANCE_MODES, BaseEngine


class ObjectIndexingEngine(BaseEngine):
    """One-level grid Object-Indexing (§3.1 overhaul, §3.2 incremental)."""

    def __init__(
        self,
        k: int,
        queries: np.ndarray,
        maintenance: str = "rebuild",
        answering: str = "overhaul",
        ncells: Optional[int] = None,
        delta: Optional[float] = None,
    ) -> None:
        super().__init__(k, queries)
        if maintenance not in _MAINTENANCE_MODES:
            raise ConfigurationError(
                f"maintenance must be one of {_MAINTENANCE_MODES}, got {maintenance!r}"
            )
        if answering not in _ANSWERING_MODES:
            raise ConfigurationError(
                f"answering must be one of {_ANSWERING_MODES}, got {answering!r}"
            )
        self.name = f"object-indexing/{maintenance}/{answering}"
        self.maintenance = maintenance
        self.answering = answering
        self._ncells = ncells
        self._delta = delta
        self.index: Optional[ObjectIndex] = None
        self._previous_ids: List[List[int]] = [[] for _ in range(self.n_queries)]

    def _make_index(self, n_objects: int) -> ObjectIndex:
        if self._ncells is not None:
            return ObjectIndex(ncells=self._ncells)
        if self._delta is not None:
            return ObjectIndex(delta=self._delta)
        return ObjectIndex(n_objects=max(1, n_objects))

    def bind_observability(self, registry: MetricsRegistry, tracer) -> None:
        super().bind_observability(registry, tracer)
        if self.index is not None:
            self.index.tracer = tracer

    def apply_query_delta(self, delta) -> None:
        """Admit query churn, keeping survivors' incremental-answer state.

        ``_previous_ids`` (the previous answer each query refines in
        ``answering="incremental"`` mode) is positional, so it is
        remapped through ``delta.kept``; registered queries start from
        an empty previous answer, i.e. a one-shot overhaul.  The object
        index itself is untouched — no rebuild needed.
        """
        previous = self._previous_ids
        self.queries = np.asarray(delta.queries, dtype=np.float64)
        self._previous_ids = [
            list(previous[old]) if old >= 0 else []
            for old in np.asarray(delta.kept, dtype=np.intp)
        ]

    def load(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        self.index = self._make_index(len(positions))
        self.index.tracer = self.tracer
        self.index.build(positions)
        self._positions = positions
        self._previous_ids = [[] for _ in range(self.n_queries)]

    def maintain(self, positions: np.ndarray) -> None:
        if self.index is None:
            raise IndexStateError("load() must run before maintain()")
        positions = np.asarray(positions, dtype=np.float64)
        if self.maintenance == "rebuild" or len(positions) != self.index.n_objects:
            self.index.build(positions)
            self.metrics.inc("oi.maintain.rebuilds")
        else:
            moves = self.index.update(positions)
            self.metrics.inc("oi.maintain.moves", moves)
        self._positions = positions

    def answer(self) -> AnswerBatch:
        if self.index is None:
            raise IndexStateError("load() must run before answer()")
        metrics = self.metrics
        before = self.index.counters.snapshot() if metrics.enabled else None
        answers: List[AnswerList] = []
        for query_id, (qx, qy) in enumerate(self.queries):
            if self.answering == "incremental" and self._previous_ids[query_id]:
                answer = self.index.knn_incremental(
                    qx, qy, self.k, self._previous_ids[query_id]
                )
            else:
                answer = self.index.knn_overhaul(qx, qy, self.k)
            self._previous_ids[query_id] = answer.object_ids()
            answers.append(answer)
        if before is not None:
            for name, delta in self.index.counters.diff(before).items():
                metrics.inc(f"oi.answer.{name}", delta)
        return AnswerBatch.from_lists(answers, self.k)
