"""Hierarchical Object-Indexing engine (paper §4).

Churn: the adaptive cell tree is built over the dense object population
and its per-query answer state is positional, so both delta hooks keep
the :class:`~repro.engines.base.BaseEngine` rebuild fallback — the
session layer packs survivors densely and the next cycle reloads.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.answers import AnswerBatch, AnswerList
from ..core.hierarchical import HierarchicalObjectIndex
from ..errors import ConfigurationError
from ..obs.registry import MetricsRegistry
from .base import _ANSWERING_MODES, _MAINTENANCE_MODES, BaseEngine


class HierarchicalEngine(BaseEngine):
    """Hierarchical Object-Indexing (§4)."""

    def __init__(
        self,
        k: int,
        queries: np.ndarray,
        maintenance: str = "incremental",
        answering: str = "incremental",
        delta0: float = 0.1,
        max_cell_load: int = 10,
        split_factor: int = 3,
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
        self.name = f"hierarchical/{maintenance}/{answering}"
        self.maintenance = maintenance
        self.answering = answering
        self.index = HierarchicalObjectIndex(
            delta0=delta0, max_cell_load=max_cell_load, split_factor=split_factor
        )
        self._previous_ids: List[List[int]] = [[] for _ in range(self.n_queries)]

    def bind_observability(self, registry: MetricsRegistry, tracer) -> None:
        super().bind_observability(registry, tracer)
        self.index.tracer = tracer

    def load(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        self.index.build(positions)
        self._positions = positions
        self._previous_ids = [[] for _ in range(self.n_queries)]

    def maintain(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        metrics = self.metrics
        before = self.index.counters.snapshot() if metrics.enabled else None
        if self.maintenance == "rebuild" or len(positions) != self.index.n_objects:
            self.index.build(positions)
            metrics.inc("hier.maintain.rebuilds")
        else:
            moves = self.index.update(positions)
            metrics.inc("hier.maintain.moves", moves)
        if before is not None:
            for name, delta in self.index.counters.diff(before).items():
                metrics.inc(f"hier.maintain.{name}", delta)
        self._positions = positions

    def answer(self) -> AnswerBatch:
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
                metrics.inc(f"hier.answer.{name}", delta)
        return AnswerBatch.from_lists(answers, self.k)
