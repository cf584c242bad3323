"""Session-tick benchmark: workloads, closed-loop driver, correctness gate.

One driver, one :class:`~repro.MonitoringSession`, one tick at a time on
one thread.  Each tick the driver first generates that tick's inputs
(outside the timed region), then makes the tick's lifecycle calls, one
``update_positions`` call and one ``tick()`` — only through the public
API, only with generated arrays.  Answers are digested every tick and,
on sampled ticks, checked bit-for-bit against a numpy scan of
``session.population()``; both happen outside the timed region.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import MetricsRegistry, MonitoringSession, RandomWalkModel, make_dataset, make_queries
from repro.service.session import AdmissionDeferred, SessionAnswer
from repro.verify.trace import canonical_cycle, digest_cycle

from spans import LIFECYCLE, SpanRecorder

SETUP_REPEATS = (3, 7)  #: min/max sessions built per untraced run; setup_s is their median
SETUP_BUDGET_S = 3.0  #: repeats past the minimum stop once setups took this long
WARMUP_TICKS = 3  #: untimed ticks after the load tick
MIN_TIMED_TICKS = 110  #: leaves >= 10 samples above tick_p90_ms
MIN_TRACED_TICKS = 30  #: per phase of a traced run
LOOP_CAP = 4.0  #: a timed loop stops at this multiple of its budget, floor or not
CHECK_EVERY = 10  #: ticks between correctness checks
CHECK_QUERIES = 8  #: queries compared against the reference per check
DIGEST_TICKS = 20  #: ticks (load tick first) hashed into answers_digest


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Fractions are of NP (objects) or NQ (queries)."""

    name: str
    method: str
    n_objects: int
    why: str
    move_fraction: float  #: 1.0 = every object, one dense update_positions call
    query_churn: float = 0.0
    object_churn: float = 0.0
    n_queries: int = 1000
    k: int = 10
    vmax: float = 0.005

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "why"}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "motion_100k", "fast_grid", 100_000, move_fraction=1.0,
            why="the paper's default full-motion setting at the scale fast_grid wins; "
            "answer and delivery dominate the tick",
        ),
        Workload(
            "reports_1m", "delta_grid", 1_000_000, move_fraction=0.01,
            why="1% of 1M objects report by id each tick; index maintenance, "
            "id-addressed ingest and publish carry-forward dominate",
        ),
        Workload(
            "churn_10k", "delta_grid", 10_000, move_fraction=0.005,
            query_churn=0.05, object_churn=0.005,
            why="writes beside reads: query and object churn exercise lifecycle calls, "
            "admission, engine delta hooks and delta_grid's patch regime",
        ),
    )
}

END_TO_END_UNITS = {
    "tick_p50_ms": "ms",
    "tick_p90_ms": "ms",
    "cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "state.ingest_ms": "ms",
    "state.rows_written": "rows/tick",
    "state.publish_ms": "ms",
    "state.synced_rows": "rows/tick",
    "state.structural_copies": "count/tick",
    "state.admit_ms": "ms",
    "service.lifecycle_us": "us",
    "service.deliver_ms": "ms",
    "monitor.package_ms": "ms",
    "engines.maintain_ms": "ms",
    "engines.answer_ms": "ms",
    "engines.delta_hooks_ms": "ms",
    "engines.pipeline_self_ms": "ms",
    "engines.rebuilds": "count/tick",
    "fast.pairs_per_query": "pairs/query",
    "fast.candidate_yield": "ratio",
    "delta.reuse_ratio": "ratio",
    "delta.patch_cycles": "count/tick",
    "delta.rebuild_cycles": "count/tick",
    "delta.compactions": "count/tick",
    "delta.dirty_cells": "cells/tick",
    "driver.gen_ms": "ms",
    "obs.trace_overhead_pct": "%",
}


def platform_block() -> dict:
    try:
        import scipy
    except ImportError:
        scipy_version = None
    else:
        scipy_version = scipy.__version__
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "scipy_present": scipy_version is not None,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Workload generation (the driver's ground truth)
# ----------------------------------------------------------------------
@dataclass
class Step:
    """One tick's generated inputs."""

    drop: list  #: query handles to drop
    register: np.ndarray  #: (m, 2) points to register
    leave: np.ndarray  #: external ids leaving
    join_ids: np.ndarray
    join_points: np.ndarray
    move_ids: Optional[np.ndarray]  #: None = dense update of the whole population
    move_points: np.ndarray
    slots: np.ndarray  #: handle slots the registrations fill


class Driver:
    """Generates a workload's inputs from a seed and keeps its ground truth:
    every object's position by external id, the live ids and every query
    handle's point."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        data, query, motion, plan, check = (
            int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(5)
        )
        self.objects = make_dataset("uniform", wl.n_objects, seed=data)
        self.queries = make_queries(wl.n_queries, seed=query)
        self._seeds = (motion, plan, check)

    def start(self, handles: list, population_ids: np.ndarray) -> None:
        """Reset the ground truth to the freshly set-up session's state."""
        motion, plan, check = self._seeds
        self.motion = RandomWalkModel(vmax=self.wl.vmax, seed=motion)
        self.rng = np.random.default_rng(plan)
        self.check_rng = np.random.default_rng(check)
        self.xy = self.objects.copy()  # by external id
        self.live = population_ids.copy()  # dense updates follow this order
        self.next_id = len(self.xy)
        self.handles = list(handles)
        self.qxy = {h.id: self.queries[i] for i, h in enumerate(handles)}

    def plan(self) -> Step:
        wl, rng = self.wl, self.rng
        nq_churn = round(wl.n_queries * wl.query_churn)
        no_churn = round(wl.n_objects * wl.object_churn)
        slots = rng.choice(len(self.handles), nq_churn, replace=False)
        register = rng.random((nq_churn, 2))
        if wl.move_fraction >= 1.0:
            move_ids = None
            move_points = self.motion.step(self.xy[self.live])
            self.xy[self.live] = move_points
            leave = join_ids = np.empty(0, dtype=np.int64)
            join_points = np.empty((0, 2))
        else:
            n_move = round(wl.n_objects * wl.move_fraction)
            picked = rng.choice(len(self.live), no_churn + n_move, replace=False)
            leave_slots = picked[:no_churn]
            move_ids = self.live[picked[no_churn:]]
            move_points = self.motion.step(self.xy[move_ids])
            leave = self.live[leave_slots]
            join_ids = np.arange(self.next_id, self.next_id + no_churn, dtype=np.int64)
            join_points = rng.random((no_churn, 2))
            self.next_id += no_churn
            if self.next_id > len(self.xy):
                grown = np.full((2 * self.next_id, 2), np.nan)
                grown[: len(self.xy)] = self.xy
                self.xy = grown
            self.live[leave_slots] = join_ids
            self.xy[join_ids] = join_points
            self.xy[move_ids] = move_points
        return Step(
            [self.handles[s] for s in slots], register, leave, join_ids,
            join_points, move_ids, move_points, slots,
        )

    def registered(self, step: Step, handles: list) -> None:
        for slot, handle, point in zip(step.slots, handles, step.register):
            del self.qxy[self.handles[slot].id]
            self.handles[slot] = handle
            self.qxy[handle.id] = point


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def reference_knn(ids: np.ndarray, xy: np.ndarray, q, k: int):
    """Exact k-NN of ``q`` by a numpy scan: ordered by (d², population
    order), distances through ``np.sqrt``."""
    dx = xy[:, 0] - q[0]
    dy = xy[:, 1] - q[1]
    d2 = dx * dx + dy * dy
    if k < len(d2):
        cut = np.partition(d2, k - 1)[k - 1]
        cand = np.flatnonzero(d2 <= cut)
    else:
        cand = np.arange(len(d2))
    top = cand[np.lexsort((cand, d2[cand]))][:k]
    return ids[top].tolist(), np.sqrt(d2[top]).tolist()


def answer_mismatches(
    answers: Dict[object, SessionAnswer], qxy: dict, ids: np.ndarray,
    xy: np.ndarray, k: int, handles: list,
) -> int:
    """Number of ``handles`` whose answer is not bit-identical to the reference."""
    bad = 0
    for handle in handles:
        ans = answers.get(handle)
        want_ids, want_d = reference_knn(ids, xy, qxy[handle.id], k)
        if ans is None or [o for o, _ in ans.neighbors] != want_ids or [
            d for _, d in ans.neighbors
        ] != want_d:
            bad += 1
    return bad


def population_matches(session: MonitoringSession, driver: Driver):
    """``(ids, xy, ok)``: the session's population and whether it holds
    exactly the driver's live objects at the driver's positions."""
    ids, xy = session.population()
    seen = np.zeros(driver.next_id, dtype=bool)
    ok = len(ids) == len(driver.live) and bool((ids >= 0).all() and (ids < driver.next_id).all())
    if ok:
        seen[ids] = True
        ok = int(seen.sum()) == len(ids) and bool(seen[driver.live].all())
        ok = ok and np.array_equal(xy, driver.xy[ids])
    return ids, xy, ok


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Counts:
    """Operations attempted and failed (lifecycle, update, tick, checked answer)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)


class Run:
    """One session driven through setup, warmup and a timed loop."""

    def __init__(self, wl: Workload, seed: int, counts: Counts) -> None:
        self.wl = wl
        self.driver = Driver(wl, seed)
        self.counts = counts
        self.digests: List[str] = []
        self.tick_s: List[float] = []
        self.cycle_s: List[float] = []
        self.gen_s: List[float] = []
        self.timed_ticks: List[int] = []
        self.rows_written = 0
        self.counter_delta: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.n_ticks = 0
        self.session: Optional[MonitoringSession] = None

    def setup(self, registry: Optional[MetricsRegistry] = None) -> float:
        """Build a session, join the population, register the queries and
        run the load tick; returns the seconds that took."""
        if self.session is not None:
            self.session.close()
            self.session = None
            gc.collect()
        wl, drv, counts = self.wl, self.driver, self.counts
        start = time.perf_counter()
        session = MonitoringSession(wl.method, k=wl.k, registry=registry)
        deferred = sum(
            session.join_object(oid, p) is not None for oid, p in enumerate(drv.objects)
        )
        handles = [session.register_query(q) for q in drv.queries]
        answers = session.tick()
        elapsed = time.perf_counter() - start
        counts.attempted += wl.n_objects + wl.n_queries + 1
        deferred += sum(isinstance(h, AdmissionDeferred) for h in handles)
        if deferred:
            counts.fail(deferred, f"{deferred} setup calls deferred")
        self.session = session
        drv.start(handles, session.population()[0])
        self.digests = []
        self.n_ticks = 0
        self._observe(answers, check=True)
        return elapsed

    def _observe(self, answers, check: bool) -> None:
        """Digest a tick's answers; on sampled ticks check them."""
        self.digests.append(digest_cycle(canonical_cycle(answers)))
        self.n_ticks += 1
        if not check:
            return
        drv, counts = self.driver, self.counts
        ids, xy, ok = population_matches(self.session, drv)
        counts.attempted += 1
        if not ok:
            counts.fail(1, f"tick {self.n_ticks - 1}: population differs from the driver's")
            return
        if len(answers) != len(drv.handles):
            counts.fail(1, f"tick {self.n_ticks - 1}: {len(answers)} answers for {len(drv.handles)} queries")
        n = min(CHECK_QUERIES, len(drv.handles))
        sample = [drv.handles[i] for i in drv.check_rng.choice(len(drv.handles), n, replace=False)]
        counts.attempted += n
        bad = answer_mismatches(answers, drv.qxy, ids, xy, self.wl.k, sample)
        if bad:
            counts.fail(bad, f"tick {self.n_ticks - 1}: {bad} answers differ from the reference")

    def cycle(self, recorder: Optional[SpanRecorder] = None) -> bool:
        """Generate and run one tick; False when a call raised."""
        drv, counts, session = self.driver, self.counts, self.session
        t0 = time.perf_counter()
        step = drv.plan()
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.tick = self.n_ticks
        counts.attempted += (
            len(step.drop) + len(step.register) + len(step.leave) + len(step.join_ids) + 2
        )
        try:
            t2 = time.perf_counter()
            deferred = 0
            for handle in step.drop:
                deferred += session.drop_query(handle) is not None
            new = [session.register_query(p) for p in step.register]
            for oid in step.leave.tolist():
                deferred += session.leave_object(oid) is not None
            for oid, p in zip(step.join_ids.tolist(), step.join_points):
                deferred += session.join_object(oid, p) is not None
            if step.move_ids is None:
                session.update_positions(step.move_points)
            else:
                session.update_positions(step.move_points, object_ids=step.move_ids)
            t3 = time.perf_counter()
            answers = session.tick()
            t4 = time.perf_counter()
        except Exception:
            counts.fail(1, traceback.format_exc(limit=3))
            return False
        deferred += sum(isinstance(h, AdmissionDeferred) for h in new)
        if deferred:
            counts.fail(deferred, f"tick {self.n_ticks}: {deferred} calls deferred")
        drv.registered(step, new)
        self.gen_s.append(t1 - t0)
        self.rows_written += len(step.move_points)
        self.tick_s.append(t4 - t3)
        self.cycle_s.append(t4 - t2)
        self.timed_ticks.append(self.n_ticks)
        self._observe(answers, check=self.n_ticks % CHECK_EVERY == 0)
        return True

    def loop(self, seconds: float, min_ticks: int, recorder: Optional[SpanRecorder] = None) -> bool:
        """Warm up, then run timed ticks for ``seconds`` (and at least
        ``min_ticks``, within ``LOOP_CAP`` times the budget)."""
        for _ in range(WARMUP_TICKS):
            if not self.cycle(recorder):
                return False
        for samples in (self.gen_s, self.tick_s, self.cycle_s, self.timed_ticks):
            samples.clear()
        self.rows_written = 0
        registry = self.session.registry
        before = registry.counter_values()
        gc.collect()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= LOOP_CAP * seconds:
                break
            if elapsed >= seconds and len(self.tick_s) >= min_ticks:
                break
            if not self.cycle(recorder):
                return False
        self.counter_delta = registry.counters_since(before)
        self.counters = registry.counter_values()
        return True

    def answers_digest(self, ticks: int = DIGEST_TICKS) -> str:
        """Digest of the first ``ticks`` ticks' answers, load tick first."""
        return hashlib.sha256("".join(self.digests[:ticks]).encode()).hexdigest()[:32]

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


def _p(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


# ----------------------------------------------------------------------
# Untraced and traced runs
# ----------------------------------------------------------------------
def run_untraced(wl: Workload, seed: int, seconds: float) -> dict:
    counts = Counts()
    run = Run(wl, seed, counts)
    setups: List[float] = []
    try:
        while len(setups) < SETUP_REPEATS[1] and (
            len(setups) < SETUP_REPEATS[0] or sum(setups) < SETUP_BUDGET_S
        ):
            setups.append(run.setup())
        ok = run.loop(seconds, MIN_TIMED_TICKS)
    except Exception:
        counts.fail(1, traceback.format_exc(limit=3))
        ok = False
    finally:
        run.close()
    n = len(run.tick_s)
    metrics = {}
    if ok and n:
        metrics = {
            "tick_p50_ms": statistics.median(run.tick_s) * 1e3,
            "tick_p90_ms": _p(run.tick_s, 90) * 1e3,
            "cycles_per_s": n / sum(run.cycle_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "counts": counts,
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "info": {
            "timed_ticks": n,
            "samples_above_p90": sum(t > _p(run.tick_s, 90) for t in run.tick_s) if n else 0,
            "setup_s_samples": setups,
            "driver.gen_ms": _mean(run.gen_s) * 1e3,
            "failed_ratio": counts.failed / max(counts.attempted, 1),
            "answers_digest": run.answers_digest(),
            "all_ticks_digest": run.answers_digest(len(run.digests)),
            "ticks_digested": len(run.digests),
        },
    }


def _counter_rate(run: Run, name: str, ticks: int, missing: list) -> float:
    """Per-tick delta of a registry counter over the timed ticks.  A counter
    whose namespace the session never emitted is reported missing."""
    namespace = name.rsplit(".", 1)[0] + "."
    if not any(key.startswith(namespace) for key in run.counters):
        missing.append(name)
    return run.counter_delta.get(name, 0.0) / ticks


def _ratio(num: float, den: float, name: str, missing: list) -> float:
    if den == 0:
        missing.append(name)
        return 0.0
    return num / den


def run_traced(wl: Workload, seed: int, seconds: float, spans_path=None) -> dict:
    """Half the budget untraced (registry off), half traced (live registry
    and span wrappers) on identical inputs; per-layer metrics come from
    the traced half."""
    counts = Counts()
    half = seconds / 2.0
    plain, traced = Run(wl, seed, counts), Run(wl, seed, counts)
    recorder = SpanRecorder()
    try:
        plain.setup()
        ok = plain.loop(half, MIN_TRACED_TICKS)
        plain.close()
        gc.collect()
        traced.setup(MetricsRegistry())
        recorder.instrument(traced.session)
        ok = ok and traced.loop(half, MIN_TRACED_TICKS, recorder)
    except Exception:
        counts.fail(1, traceback.format_exc(limit=3))
        ok = False
    finally:
        plain.close()
        traced.close()

    ticks = traced.timed_ticks
    info = {
        "timed_ticks": len(ticks),
        "untraced_ticks": len(plain.tick_s),
        "answers_digest": traced.answers_digest(),
        "untraced_answers_digest": plain.answers_digest(),
        "span_count": len(recorder.spans),
    }
    if plain.digests[: len(traced.digests)] != traced.digests[: len(plain.digests)]:
        counts.fail(1, "traced answers differ from untraced answers on the same inputs")
    if not (ok and ticks):
        return {"counts": counts, "metrics": {}, "units": PER_LAYER_UNITS, "info": info}

    per_tick = recorder.per_tick(ticks)
    coverage = recorder.coverage_errors(per_tick)
    counts.attempted += 1
    if coverage:
        counts.fail(1, "span coverage: " + "; ".join(coverage[:5]))
    info["span_coverage_errors"] = len(coverage)
    if spans_path is not None:
        recorder.write_jsonl(spans_path)

    n = len(ticks)

    def dur(key: str) -> float:
        return sum(per_tick[t][key][0] for t in ticks if key in per_tick[t]) / n

    def self_time(key: str) -> float:
        return sum(per_tick[t][key][1] for t in ticks if key in per_tick[t]) / n

    life_s = sum(per_tick[t][k][0] for t in ticks for k in LIFECYCLE if k in per_tick[t])
    life_calls = sum(per_tick[t][k][2] for t in ticks for k in LIFECYCLE if k in per_tick[t])
    delta = traced.counter_delta
    missing: List[str] = []
    pairs = delta.get("fast.answer.pairs", 0.0)
    queries = delta.get("fast.answer.queries", 0.0)
    pairs_per_query = _ratio(pairs, queries, "fast.pairs_per_query", missing)
    reused = delta.get("delta.queries_reused", 0.0)
    reanswered = delta.get("delta.queries_reanswered", 0.0)
    untraced_p50 = statistics.median(plain.tick_s)
    traced_p50 = statistics.median(traced.tick_s)
    metrics = {
        "state.ingest_ms": dur("session.update_positions") * 1e3,
        "state.rows_written": traced.rows_written / n,
        "state.publish_ms": dur("store.publish") * 1e3,
        "state.synced_rows": _counter_rate(traced, "state.synced_rows", n, missing),
        "state.structural_copies": _counter_rate(traced, "state.structural_copies", n, missing),
        "state.admit_ms": dur("store.admit") * 1e3,
        "service.lifecycle_us": _ratio(life_s * 1e6, life_calls, "service.lifecycle_us", missing),
        "service.deliver_ms": self_time("session.tick") * 1e3,
        "monitor.package_ms": self_time("system.tick") * 1e3,
        "engines.maintain_ms": dur("engine.maintain|load") * 1e3,
        "engines.answer_ms": dur("engine.answer") * 1e3,
        "engines.delta_hooks_ms": (dur("engine.apply_query_delta") + dur("engine.apply_object_delta")) * 1e3,
        "engines.pipeline_self_ms": self_time("pipeline.run_cycle") * 1e3,
        "engines.rebuilds": _counter_rate(traced, "cycle.churn_rebuilds", n, missing),
        "fast.pairs_per_query": pairs_per_query,
        "fast.candidate_yield": _ratio(wl.k, pairs_per_query, "fast.candidate_yield", missing),
        "delta.reuse_ratio": _ratio(reused, reused + reanswered, "delta.reuse_ratio", missing),
        "delta.patch_cycles": _counter_rate(traced, "delta.patch_cycles", n, missing),
        "delta.rebuild_cycles": _counter_rate(traced, "delta.rebuild_cycles", n, missing),
        "delta.compactions": _counter_rate(traced, "delta.compactions", n, missing),
        "delta.dirty_cells": _counter_rate(traced, "delta.dirty_cells", n, missing),
        "driver.gen_ms": _mean(traced.gen_s) * 1e3,
        "obs.trace_overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
    }
    info.update(
        missing=missing,
        untraced_tick_p50_ms=untraced_p50 * 1e3,
        traced_tick_p50_ms=traced_p50 * 1e3,
        traced_tick_mean_ms=dur("session.tick") * 1e3,
        failed_ratio=counts.failed / max(counts.attempted, 1),
    )
    return {"counts": counts, "metrics": metrics, "units": PER_LAYER_UNITS, "info": info}
