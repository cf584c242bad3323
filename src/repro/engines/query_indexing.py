"""Grid Query-Indexing engine (paper §3.3).

Churn: the engine indexes the *query* set, so query registrations and
drops invalidate the whole index — it keeps the
:class:`~repro.engines.base.BaseEngine` delta fallback (swap the array,
rebuild next cycle), which is the honest cost of this method under
churn.  Object joins/leaves likewise rebuild (positions arrive densely
packed from the session layer).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.answers import AnswerBatch, AnswerList
from ..core.query_index import QueryIndex
from ..errors import ConfigurationError, IndexStateError
from ..obs.registry import MetricsRegistry
from .base import _MAINTENANCE_MODES, BaseEngine


class QueryIndexingEngine(BaseEngine):
    """Grid Query-Indexing (§3.3)."""

    def __init__(
        self,
        k: int,
        queries: np.ndarray,
        maintenance: str = "incremental",
        ncells: Optional[int] = None,
        delta: Optional[float] = None,
    ) -> None:
        super().__init__(k, queries)
        if maintenance not in _MAINTENANCE_MODES:
            raise ConfigurationError(
                f"maintenance must be one of {_MAINTENANCE_MODES}, got {maintenance!r}"
            )
        self.name = f"query-indexing/{maintenance}"
        self.maintenance = maintenance
        self._ncells = ncells
        self._delta = delta
        self.index: Optional[QueryIndex] = None
        self._pending_answers: Optional[List[AnswerList]] = None

    def bind_observability(self, registry: MetricsRegistry, tracer) -> None:
        super().bind_observability(registry, tracer)
        if self.index is not None:
            self.index.tracer = tracer

    def load(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if self._ncells is not None:
            self.index = QueryIndex(self.queries, self.k, ncells=self._ncells)
        elif self._delta is not None:
            self.index = QueryIndex(self.queries, self.k, delta=self._delta)
        else:
            self.index = QueryIndex(
                self.queries, self.k, n_objects=max(1, len(positions))
            )
        self.index.tracer = self.tracer
        self.metrics.inc("qi.maintain.bootstraps")
        self._pending_answers = self.index.bootstrap(positions)
        self._positions = positions

    def maintain(self, positions: np.ndarray) -> None:
        if self.index is None:
            raise IndexStateError("load() must run before maintain()")
        positions = np.asarray(positions, dtype=np.float64)
        self._pending_answers = None
        metrics = self.metrics
        if self.maintenance == "rebuild":
            self.index.rebuild_index(positions)
            metrics.inc("qi.maintain.rect_rebuilds")
        else:
            ops = self.index.update_index(positions)
            metrics.inc("qi.maintain.rect_ops", ops)
        if metrics.enabled:
            metrics.set_gauge("qi.rect_cells_mean", self.index.mean_rect_cells())
        self._positions = positions

    def _count_offers(self) -> int:
        """Total (object, query) distance offers of one Fig. 5 scan.

        Computed vectorized from the cell occupancies and query-list
        lengths — the hot loop itself stays uninstrumented.
        """
        assert self.index is not None and self._positions is not None
        n = self.index.grid.ncells
        positions = self._positions
        ii = np.clip((positions[:, 0] * n).astype(np.intp), 0, n - 1)
        jj = np.clip((positions[:, 1] * n).astype(np.intp), 0, n - 1)
        ql_len = np.fromiter(
            (len(bucket) for bucket in self.index.grid._buckets),
            dtype=np.int64,
            count=n * n,
        )
        return int(ql_len[jj * n + ii].sum())

    def answer(self) -> AnswerBatch:
        if self.index is None or self._positions is None:
            raise IndexStateError("load() must run before answer()")
        if self._pending_answers is not None:
            # The bootstrap cycle already produced exact answers.
            answers = self._pending_answers
            self._pending_answers = None
            return AnswerBatch.from_lists(answers, self.k)
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("qi.answer.objects_scanned", len(self._positions))
            metrics.inc("qi.answer.offers", self._count_offers())
        return AnswerBatch.from_lists(self.index.answer(self._positions), self.k)

    def set_queries(self, queries: np.ndarray) -> None:
        super().set_queries(queries)
        if self.index is not None:
            # Rectangles are recomputed from the new query positions on the
            # next maintenance pass; only the stored coordinates move here.
            self.index._qx = self.queries[:, 0].tolist()
            self.index._qy = self.queries[:, 1].tolist()
