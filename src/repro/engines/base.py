"""Engine protocol and the unified monitoring-cycle pipeline.

A monitoring *engine* packages one method's index maintenance and query
answering behind the three-call contract of the paper's cycle (§3):
``load`` (initial build), ``maintain`` (per-cycle index maintenance) and
``answer`` (exact k-NNs of every query for the last snapshot).

:class:`CyclePipeline` owns everything that used to be duplicated between
the monitor layer and the benchmark layer: the load/maintain/answer
sequencing, wall-clock timing capture per stage, and observability
binding (metrics registry + tracer propagation into the engine).  Each
executed cycle records one :class:`CycleTiming` in
:attr:`CyclePipeline.history`, a bounded window of the most recent cycles.

:class:`CycleTiming` is the single cycle-timing type of the repository:
a record with ``cycles == 1`` is one cycle's breakdown, and
:meth:`CycleTiming.from_history` folds a history into the steady-state
means the benchmark tables print.

Every engine answers a cycle with one
:class:`~repro.core.answers.AnswerBatch`; the pipeline stamps it with the
cycle's snapshot time and hands it on unchanged.
"""

from __future__ import annotations

import abc
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    ClassVar,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
    Union,
    overload,
)

import numpy as np

from ..errors import ConfigurationError, IndexStateError
from ..obs.export import mean_cycle_counters
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..obs.tracing import NULL_TRACER, Tracer, span_seconds
from ..core.answers import AnswerBatch

# The churn delta records and the snapshot protocol live in the state
# plane now (they are produced by the WorldStore); re-exported here
# because engine code and external callers historically import them
# from this module.
from ..state import (  # noqa: F401  (re-exports)
    ObjectDelta,
    PositionsLike,
    QueryDelta,
    WorldSnapshot,
    as_world_snapshot,
)

_MAINTENANCE_MODES = ("rebuild", "incremental")
_ANSWERING_MODES = ("overhaul", "incremental")


def _as_queries(queries: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != 2:
        raise ConfigurationError("queries must be an (NQ, 2) array")
    return queries


class BaseEngine(abc.ABC):
    """One monitoring method: how to maintain an index and answer queries."""

    name = "base"

    #: Whether the engine can index a row-stable position universe with a
    #: changing live subset (``ObjectDelta.member_idx``).  Engines without
    #: it receive densely packed positions and rebuild on churn.
    supports_member_idx: ClassVar[bool] = False

    def __init__(self, k: int, queries: np.ndarray) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.queries = _as_queries(queries)
        self._positions: Optional[np.ndarray] = None
        self._rebuild_pending = False
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self.tracer = NULL_TRACER

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def bind_observability(self, registry: MetricsRegistry, tracer) -> None:
        """Attach a metrics sink and tracer (no-op instances by default).

        Subclasses propagate the tracer into their index structures so
        algorithm-level spans nest under the cycle-level ones.
        """
        self.metrics = registry
        self.tracer = tracer

    def set_queries(self, queries: np.ndarray) -> None:
        """Replace the query positions (queries may move between cycles).

        The query *set* must stay the same size: per-query state (previous
        answers, critical regions) is tracked positionally.  Correctness is
        unaffected — every incremental bound is recomputed from the new
        query position each cycle (§5.1 expects "comparable performance
        when query points are moving").
        """
        queries = _as_queries(queries)
        if len(queries) != len(self.queries):
            raise ConfigurationError(
                f"query count changed from {len(self.queries)} to "
                f"{len(queries)}; build a new monitoring system instead"
            )
        self.queries = queries

    # ------------------------------------------------------------------
    # Churn deltas (streaming session layer)
    # ------------------------------------------------------------------
    def request_rebuild(self) -> None:
        """Ask the pipeline to run :meth:`load` instead of :meth:`maintain`
        on the next cycle (cross-cycle state is about to be invalid)."""
        self._rebuild_pending = True

    def take_rebuild_request(self) -> bool:
        """Consume a pending rebuild request (pipeline-internal)."""
        pending = self._rebuild_pending
        self._rebuild_pending = False
        return pending

    def apply_query_delta(self, delta: QueryDelta) -> None:
        """Admit one cycle's batched query registrations and drops.

        The default is the cheap, always-correct fallback: swap the
        query array wholesale (unlike :meth:`set_queries`, the count may
        change) and request a rebuild, which resets whatever per-query
        state the engine tracks positionally.  Engines with remappable
        per-query state override this and use ``delta.kept`` instead.
        """
        self.queries = _as_queries(delta.queries)
        self.request_rebuild()

    def apply_object_delta(self, delta: ObjectDelta) -> None:
        """Admit one cycle's batched object joins and leaves.

        Default fallback: any membership change (or a compaction remap)
        invalidates the index, so request a rebuild; pure-move cycles
        (empty delta) cost nothing.  Engines that can patch membership
        incrementally override this.
        """
        if delta.member_idx is not None and not self.supports_member_idx:
            raise ConfigurationError(
                f"engine {self.name!r} does not support member-mode position "
                "universes; pass densely packed positions instead"
            )
        if len(delta.joined) or len(delta.left) or delta.compacted:
            self.request_rebuild()

    @abc.abstractmethod
    def load(self, positions: PositionsLike) -> None:
        """Initial build from the first snapshot.

        ``positions`` is a :class:`~repro.state.WorldSnapshot` when the
        cycle runs through :class:`CyclePipeline` (a raw array handed to
        the pipeline is shim-wrapped first); ``np.asarray(positions,
        dtype=np.float64)`` recovers the read-only view either way.
        """

    @abc.abstractmethod
    def maintain(self, positions: PositionsLike) -> None:
        """Per-cycle index maintenance against a new snapshot."""

    @abc.abstractmethod
    def answer(self) -> AnswerBatch:
        """Exact k-NN answers for the snapshot last passed to maintain().

        The returned batch must stay valid after later cycles: its
        arrays are never written again by the engine.
        """

    def pop_deferred_index_seconds(self) -> float:
        """Index-maintenance seconds that ran inside :meth:`answer`.

        Engines that build or repair index state lazily during the
        answer phase (the sharded engine indexes each stripe when its
        first task of the cycle arrives) report those seconds here;
        :class:`CyclePipeline` moves them from the answer time to the
        index time of the cycle record.  Calling this resets the
        accumulator.  The default is ``0.0``: most engines do all
        maintenance in :meth:`maintain`.
        """
        return 0.0


@dataclass(frozen=True)
class CycleTiming:
    """Timing breakdown of one or more monitoring cycles (seconds).

    With ``cycles == 1`` (the default) this is the record of a single
    cycle at snapshot time ``timestamp``; :meth:`from_history` returns the
    steady-state *means* over a history with ``cycles`` set to the number
    of cycles averaged.  ``counters`` holds the per-cycle metric deltas
    (spans included) when the system runs with a
    :class:`~repro.obs.registry.MetricsRegistry`; it stays ``None`` on
    uninstrumented runs and never takes part in equality.
    """

    timestamp: float
    index_time: float
    answer_time: float
    counters: Optional[Mapping[str, float]] = field(default=None, compare=False)
    cycles: int = 1

    @property
    def total_time(self) -> float:
        return self.index_time + self.answer_time

    @staticmethod
    def mean_of(
        history: Sequence["CycleTiming"], skip_first: bool = True
    ) -> "tuple[float, float, int]":
        """``(mean index_time, mean answer_time, cycles averaged)``.

        The single source of truth for steady-state cycle means.  The
        initial build cycle is excluded by default.
        """
        stats = history[1:] if skip_first and len(history) > 1 else list(history)
        if not stats:
            raise IndexStateError("no cycle has run yet")
        cycles = len(stats)
        return (
            sum(s.index_time for s in stats) / cycles,
            sum(s.answer_time for s in stats) / cycles,
            cycles,
        )

    @classmethod
    def from_history(
        cls, history: Sequence["CycleTiming"], skip_first: bool = True
    ) -> "CycleTiming":
        """Steady-state means of a monitoring history (initial build excluded)."""
        index_time, answer_time, cycles = cls.mean_of(history, skip_first)
        counters = mean_cycle_counters(history, skip_first=skip_first) or None
        return cls(history[-1].timestamp, index_time, answer_time, counters, cycles)

    def span_means(self) -> Dict[str, float]:
        """Mean seconds per span path per cycle (empty if uninstrumented)."""
        return span_seconds(self.counters or {})


#: Records a :class:`BoundedHistory` keeps by default: the first (load)
#: record plus the most recent later ones.
HISTORY_CAPACITY = 1024

_R = TypeVar("_R")


class BoundedHistory(Sequence[_R]):
    """The first record of a run plus a ring of the most recent later ones.

    Per-cycle histories would otherwise grow by one record per cycle for
    as long as a monitor runs.  The first record (the load cycle) is kept
    apart from the ring, so ``history[0]`` stays the initial build and
    "skip the first record" keeps its meaning after the ring wraps.
    Holds at most ``capacity`` records.
    """

    def __init__(self, capacity: int = HISTORY_CAPACITY) -> None:
        if capacity < 2:
            raise ConfigurationError(f"history capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self._first: Optional[_R] = None
        self._ring: Deque[_R] = deque(maxlen=capacity - 1)

    def append(self, record: _R) -> None:
        if self._first is None:
            self._first = record
        else:
            self._ring.append(record)

    def clear(self) -> None:
        self._first = None
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring) + (self._first is not None)

    def __iter__(self) -> Iterator[_R]:
        if self._first is not None:
            yield self._first
        yield from self._ring

    @overload
    def __getitem__(self, index: int) -> _R: ...

    @overload
    def __getitem__(self, index: slice) -> List[_R]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[_R, List[_R]]:
        if isinstance(index, slice):
            return list(self)[index]
        row = range(len(self))[index]
        if row == 0:
            return self._first  # type: ignore[return-value]
        return self._ring[row - 1]


class CyclePipeline:
    """Owns the load/maintain/answer sequencing of a monitoring engine.

    One pipeline wraps one :class:`BaseEngine` and is the only place that
    times the paper's two cycle stages (index maintenance vs query
    answering), captures per-cycle counter deltas, and binds observability
    into the engine.  :class:`~repro.core.monitor.MonitoringSystem` is a
    thin facade over it; the bench layer reads the same
    :attr:`history` records.
    """

    def __init__(
        self,
        engine: BaseEngine,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        #: The load record followed by the most recent later cycles.
        self.history: BoundedHistory[CycleTiming] = BoundedHistory()
        #: Optional per-cycle observer ``(record, batch) -> None`` called
        #: after every executed cycle with the cycle's
        #: :class:`~repro.core.answers.AnswerBatch`, so observers see the
        #: exact squared distances before any sqrt packaging.
        self.cycle_hook: Optional[Callable[[CycleTiming, AnswerBatch], None]] = None
        self.registry: MetricsRegistry = (
            registry if registry is not None else NULL_REGISTRY
        )
        if tracer is None:
            tracer = Tracer(self.registry) if self.registry.enabled else NULL_TRACER
        self.tracer = tracer
        engine.bind_observability(self.registry, self.tracer)

    def bind(
        self, registry: MetricsRegistry, tracer: Optional[Tracer] = None
    ) -> None:
        """Swap the metrics sink (and tracer) and rebind the engine."""
        self.registry = registry
        if tracer is None:
            tracer = Tracer(registry) if registry.enabled else NULL_TRACER
        self.tracer = tracer
        self.engine.bind_observability(self.registry, self.tracer)

    def run_cycle(
        self, positions: PositionsLike, timestamp: float, initial: bool = False
    ) -> AnswerBatch:
        """Run one full cycle; returns its answers stamped with ``timestamp``.

        ``positions`` may be a published
        :class:`~repro.state.WorldSnapshot` (the zero-copy path) or any
        ``(N, 2)`` array-like, which is wrapped into an anonymous
        snapshot here — engines always see the snapshot type.

        ``initial=True`` runs the engine's :meth:`~BaseEngine.load` stage
        (under the ``load`` span) and restarts :attr:`history`; otherwise
        :meth:`~BaseEngine.maintain` runs under the ``maintain`` span.
        An engine-requested rebuild (:meth:`BaseEngine.request_rebuild`,
        the churn-delta fallback) also routes through :meth:`load` — but
        mid-stream, so :attr:`history` keeps accumulating.
        """
        world = as_world_snapshot(positions)
        registry = self.registry
        reload = self.engine.take_rebuild_request() or initial
        before = registry.counter_values() if registry.enabled else None
        if reload and not initial:
            registry.inc("cycle.churn_rebuilds")
        start = time.perf_counter()
        with self.tracer.span("load" if reload else "maintain"):
            if reload:
                self.engine.load(world)
            else:
                self.engine.maintain(world)
        index_time = time.perf_counter() - start
        start = time.perf_counter()
        with self.tracer.span("answer"):
            answers = self.engine.answer().with_timestamp(timestamp)
        answer_time = time.perf_counter() - start
        # Lazy index builds that ran inside answer() belong to the index
        # phase.  Clamp to the measured answer time: parallel engines sum
        # per-worker build seconds, which can exceed wall clock.
        deferred = min(self.engine.pop_deferred_index_seconds(), answer_time)
        if deferred > 0.0:
            index_time += deferred
            answer_time -= deferred
        counters = registry.counters_since(before) if before is not None else None
        record = CycleTiming(timestamp, index_time, answer_time, counters)
        if initial:
            self.history.clear()
        self.history.append(record)
        registry.inc("cycle.count")
        registry.observe("cycle.total_seconds", record.total_time)
        if self.cycle_hook is not None:
            self.cycle_hook(record, answers)
        return answers

    @property
    def last_record(self) -> CycleTiming:
        if not self.history:
            raise IndexStateError("no cycle has run yet")
        return self.history[-1]

    def mean_cycle_time(self, skip_first: bool = True) -> float:
        """Average total cycle time, by default excluding the initial build."""
        index_mean, answer_mean, _ = CycleTiming.mean_of(self.history, skip_first)
        return index_mean + answer_mean
