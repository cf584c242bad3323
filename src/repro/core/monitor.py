"""Continuous-monitoring facade over the engine layer.

:class:`MonitoringSystem` is the user-facing entry point.  It implements
the paper's cycle (§3): a snapshot ``OBJ_snapshot`` of the asynchronously
updated buffer ``OBJ_curr`` is taken every ``tau`` time units, the index is
maintained against the snapshot, and the exact k-NNs of every query are
recomputed.  Each returned answer carries the snapshot timestamp it is
exact for.

The engines themselves live in :mod:`repro.engines` (one module per
method, resolved through the single table in
:mod:`repro.engines.registry`); cycle sequencing and timing capture live
in :class:`repro.engines.base.CyclePipeline`.  This module re-exports
the engine classes and the cycle record type so historic imports
(``from repro.core.monitor import BaseEngine, CycleTiming, ...``) keep
working.

Each cycle's answers come back as one
:class:`~repro.core.answers.AnswerBatch`: the engine's ``(nq, k)``
squared-distance and id arrays, which also read as a
``Sequence[QueryAnswer]`` built row by row on access.

===========================  ==================================================
Factory                      Paper method
===========================  ==================================================
``object_indexing``          one-level Object-Indexing (§3.1, §3.2)
``query_indexing``           Query-Indexing (§3.3)
``hierarchical``             hierarchical Object-Indexing (§4)
``rtree``                    R-tree overhaul / bottom-up baselines (§5.4)
``brute_force``              linear-scan oracle (not in the paper; testing)
``fast_grid``                vectorized CSR + batched answering (production
                             fast path, not a paper method; see fast_index)
``delta_grid``               incremental delta-CSR + dirty-region answer
                             reuse (§3.2 insight, vectorized; delta_index)
``sharded``                  stripe-sharded multiprocess engine (production
                             scale-out path; see :mod:`repro.shard`)
===========================  ==================================================

All factories are thin delegates of the unified entry point
:meth:`MonitoringSystem.create`, which resolves a method name through the
engine registry and its typed :class:`~repro.core.config.MethodConfig`
block — unknown keyword arguments fail with a
:class:`~repro.errors.ConfigurationError` naming the valid fields.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..engines.base import (  # noqa: F401  (re-exported compatibility surface)
    BaseEngine,
    CyclePipeline,
    CycleTiming,
    _as_queries,
)
from ..engines.brute import BruteForceEngine  # noqa: F401
from ..engines.hierarchical import HierarchicalEngine  # noqa: F401
from ..engines.object_indexing import ObjectIndexingEngine  # noqa: F401
from ..engines.query_indexing import QueryIndexingEngine  # noqa: F401
from ..engines.rtree_engine import RTreeEngine  # noqa: F401
from ..errors import ConfigurationError, IndexStateError
from ..obs.registry import MetricsRegistry
from .answers import AnswerBatch


class MonitoringSystem:
    """Continuous k-NN monitor over a population of moving objects.

    Construct with one of the factory methods, :meth:`load` the first
    snapshot, then call :meth:`tick` once per cycle with each new snapshot.
    """

    def __init__(
        self,
        engine: BaseEngine,
        tau: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if tau <= 0.0:
            raise ConfigurationError(f"tau must be > 0, got {tau}")
        self.tau = tau
        self.cycle = 0
        self._loaded = False
        self.pipeline = CyclePipeline(engine, registry)

    # -- engine/pipeline delegation ------------------------------------
    @property
    def engine(self) -> BaseEngine:
        return self.pipeline.engine

    @property
    def history(self) -> List[CycleTiming]:
        return self.pipeline.history

    @property
    def registry(self) -> MetricsRegistry:
        return self.pipeline.registry

    @registry.setter
    def registry(self, value: MetricsRegistry) -> None:
        self.pipeline.registry = value

    @property
    def tracer(self):
        return self.pipeline.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.pipeline.tracer = value

    # -- unified factory + per-method delegates ------------------------
    @classmethod
    def create(
        cls,
        method: str,
        k: int,
        queries: np.ndarray,
        *,
        config=None,
        tau: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
        **overrides,
    ) -> "MonitoringSystem":
        """Build a monitoring system by method name.

        This is the same canonical entry point as
        :func:`repro.engines.registry.build_system` — ``create`` is a
        thin delegate of it, so both accept the same names: any method
        in :data:`~repro.core.config.METHOD_CONFIGS` *or* any benchmark
        preset in :data:`~repro.engines.registry.BENCH_PRESETS`.  Method
        options come from a typed ``config`` block, a plain config dict
        (``{"method": ..., ...}`` — see
        :meth:`~repro.core.config.MethodConfig.from_dict`), or keyword
        ``overrides`` — with overrides applied on top.  Unknown option
        names raise :class:`~repro.errors.ConfigurationError` listing
        the valid fields.
        """
        from ..engines.registry import build_system

        return build_system(
            method, k, queries, config=config, tau=tau, registry=registry,
            **overrides,
        )

    @classmethod
    def object_indexing(cls, k, queries, *, tau=1.0, registry=None, **options):
        return cls.create("object_indexing", k, queries, tau=tau, registry=registry, **options)

    @classmethod
    def query_indexing(cls, k, queries, *, tau=1.0, registry=None, **options):
        return cls.create("query_indexing", k, queries, tau=tau, registry=registry, **options)

    @classmethod
    def hierarchical(cls, k, queries, *, tau=1.0, registry=None, **options):
        return cls.create("hierarchical", k, queries, tau=tau, registry=registry, **options)

    @classmethod
    def rtree(cls, k, queries, *, tau=1.0, registry=None, **options):
        return cls.create("rtree", k, queries, tau=tau, registry=registry, **options)

    @classmethod
    def brute_force(cls, k, queries, *, tau=1.0, registry=None):
        return cls.create("brute_force", k, queries, tau=tau, registry=registry)

    @classmethod
    def fast_grid(cls, k, queries, *, tau=1.0, registry=None, **options):
        """Vectorized CSR-grid engine with batched multi-query answering.

        The production fast path: exact answers (ties broken by object
        ID), same cycle contract as the paper engines.  See
        :mod:`repro.core.fast_index`.
        """
        return cls.create("fast_grid", k, queries, tau=tau, registry=registry, **options)

    @classmethod
    def delta_grid(cls, k, queries, *, tau=1.0, registry=None, **options):
        """Incrementally maintained CSR engine with answer reuse.

        Same exact answers as ``fast_grid`` (bit-identical, ties broken
        by object ID) but the snapshot is patched or counting-sort
        rebuilt in place instead of rebuilt from scratch, and queries
        whose critical rectangle saw no change carry their previous
        answer forward.  See :mod:`repro.core.delta_index`.
        """
        return cls.create("delta_grid", k, queries, tau=tau, registry=registry, **options)

    @classmethod
    def sharded(cls, k, queries, *, tau=1.0, registry=None, **options):
        """Stripe-sharded multiprocess engine (see :mod:`repro.shard`).

        ``workers`` sets the worker-pool size (``0`` = serial in-process
        fallback, identical answers) and ``shards`` the stripe count
        (default: one per worker).  The pool holds OS resources — call
        :meth:`close` (or use the system as a context manager) when done.
        """
        return cls.create("sharded", k, queries, tau=tau, registry=registry, **options)

    # -- monitoring ----------------------------------------------------
    @property
    def k(self) -> int:
        return self.engine.k

    @property
    def n_queries(self) -> int:
        return self.engine.n_queries

    @property
    def timestamp(self) -> float:
        """Snapshot time of the most recent cycle."""
        return self.cycle * self.tau

    def set_queries(self, queries: np.ndarray) -> None:
        """Move the monitored query points (the query count must not change)."""
        self.engine.set_queries(queries)

    def load(self, positions: np.ndarray) -> AnswerBatch:
        """Take the initial snapshot, build the index, answer once."""
        answers = self.pipeline.run_cycle(positions, 0.0, initial=True)
        self.cycle = 0
        self._loaded = True
        return answers

    def tick(self, positions: np.ndarray) -> AnswerBatch:
        """Run one monitoring cycle against a new snapshot.

        The returned batch is stamped with the cycle's snapshot time and
        reads as a ``Sequence[QueryAnswer]``, one answer per query.
        """
        if not self._loaded:
            raise IndexStateError("load() must run before tick()")
        self.cycle += 1
        return self.pipeline.run_cycle(positions, self.cycle * self.tau)

    @property
    def last_stats(self) -> CycleTiming:
        return self.pipeline.last_record

    def mean_cycle_time(self, skip_first: bool = True) -> float:
        """Average total cycle time, by default excluding the initial build."""
        return self.pipeline.mean_cycle_time(skip_first)

    # -- resource management (engines may own worker pools) ------------
    def close(self) -> None:
        """Release engine-held OS resources (idempotent; most engines hold
        none, the sharded engine holds a worker pool and shared memory)."""
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "MonitoringSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
