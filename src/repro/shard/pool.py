"""Persistent shard worker pool: shared-memory snapshots, crash recovery.

The pool owns ``n_workers`` long-lived processes (one duplex pipe each)
and one :class:`~multiprocessing.shared_memory.SharedMemory` segment
holding the current cycle's ``(n, 2)`` float64 snapshot.  Per cycle the
parent memcpys the positions into the segment once
(:meth:`ShardWorkerPool.write_snapshot`) and ships only tiny task
payloads down the pipes — positions are never pickled.

Failure model (the "failure/respawn state machine" of DESIGN.md §9):

* every task is recorded in its worker's ``outstanding`` map *before*
  the send, keyed by a monotonically increasing task id;
* a dead worker is detected three ways — ``BrokenPipeError`` on send,
  ``EOFError``/``OSError`` on receive (the child's pipe end closed), or
  ``Process.is_alive()`` going false while results are pending;
* detection triggers :meth:`_respawn`: the corpse is reaped, a fresh
  process is spawned on a fresh pipe, every outstanding task is re-sent
  verbatim (tasks are stateless, see :mod:`repro.shard.tasks`), the
  ``shard.respawns`` counter increments;
* results de-duplicate by task id: a task leaves ``outstanding`` when
  its result arrives, and a re-dispatched task can never produce two
  results because the old pipe is drained before the respawn and closed
  after it.

A liveness budget (``max_respawns``) turns a crash loop into an
:class:`~repro.errors.IndexStateError` instead of an infinite loop, and
a no-progress deadline (``task_timeout``) catches the hang case where a
worker is alive but wedged.

With a real registry bound the pool also emits health gauges:
``shard.pool.heartbeat_seconds{worker="i"}`` (+ ``..._max``) from each
:meth:`ShardWorkerPool.ping`, ``shard.pool.respawns`` mirroring the
lifetime respawn count, and the dispatch queue wait — result arrival
minus submit minus the worker-reported task wall time — as the
``shard.pool.queue_wait_seconds`` histogram and the
``shard.pool.last_queue_wait_seconds`` gauge.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import shared_memory
from multiprocessing.connection import Connection, wait as connection_wait
from multiprocessing.process import BaseProcess
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError, IndexStateError
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from .worker import worker_main


class _WorkerHandle:
    """One worker process, its pipe, and its in-flight tasks."""

    __slots__ = ("index", "process", "conn", "outstanding")

    # Late-init (always set by the pool's _spawn before any use).
    process: BaseProcess
    conn: Connection

    def __init__(self, index: int) -> None:
        self.index = index
        self.outstanding: Dict[int, dict] = {}


class ShardWorkerPool:
    """Fixed-size pool of shard workers with automatic respawn."""

    def __init__(
        self,
        n_workers: int,
        *,
        task_timeout: float = 60.0,
        max_respawns: int = 16,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"pool needs >= 1 worker, got {n_workers}")
        self.n_workers = int(n_workers)
        self.task_timeout = float(task_timeout)
        self.max_respawns = int(max_respawns)
        self.metrics = metrics
        self.respawns = 0
        self._ctx = multiprocessing.get_context()
        self._workers: List[_WorkerHandle] = []
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._shm_capacity = 0
        self._shm_key: "Optional[tuple[int, Optional[int]]]" = None
        self._shm_rows = -1
        self._task_seq = 0
        self._submit_times: Dict[int, float] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._workers:
            return
        for index in range(self.n_workers):
            handle = _WorkerHandle(index)
            self._spawn(handle)
            self._workers.append(handle)

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.index, child_conn),
            name=f"shard-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        handle.process = process
        handle.conn = parent_conn

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (fault-injection tests kill these)."""
        return [h.process.pid for h in self._workers if h.process.pid is not None]

    def shutdown(self) -> None:
        """Stop workers and release the shared-memory segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.conn.send({"cmd": "stop"})
            except Exception:
                pass
        for handle in self._workers:
            try:
                handle.process.join(timeout=1.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            except Exception:
                pass
            try:
                handle.conn.close()
            except Exception:
                pass
        self._workers = []
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except Exception:
                pass
            self._shm = None
            self._shm_capacity = 0
            self._shm_key = None
            self._shm_rows = -1

    def __del__(self) -> None:  # best-effort; engines call shutdown() explicitly
        try:
            self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Shared-memory snapshot
    # ------------------------------------------------------------------
    def write_snapshot(
        self,
        positions: np.ndarray,
        key: "Optional[tuple[int, Optional[int]]]" = None,
    ) -> "tuple[str, int]":
        """Copy the cycle's positions into shared memory; return (name, n).

        The segment is grown (never shrunk) when the population outgrows
        it; a new segment gets a new name, which is how workers learn to
        re-attach — task payloads always carry the current name.  Under
        churn the rows are a stable object *universe* (vacant rows hold
        the NaN vacancy sentinel); the pool copies them verbatim and
        membership is the workers' concern.

        ``key`` is the snapshot's ``(store token, epoch)`` identity when
        the caller holds an epoch-versioned
        :class:`~repro.state.WorldSnapshot`: equal keys are guaranteed
        bytes-identical, so a repeat write with the same key (and no
        segment growth) skips the memcpy entirely — counted under
        ``state.shm_skips``.  ``None`` (anonymous arrays) always copies.
        """
        if self._closed:
            raise IndexStateError("pool is shut down")
        positions = np.asarray(positions, dtype=np.float64)
        n = len(positions)
        nbytes = max(16, n * 16)
        if self._shm is None or self._shm_capacity < nbytes:
            if self._shm is not None:
                self._shm.close()
                self._shm.unlink()
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._shm_capacity = nbytes
            self._shm_key = None
        if (
            key is not None
            and key == self._shm_key
            and n == self._shm_rows
        ):
            self.metrics.inc("state.shm_skips")
            return self._shm.name, n
        view = np.ndarray((n, 2), dtype=np.float64, buffer=self._shm.buf)
        np.copyto(view, positions.reshape(n, 2))
        self._shm_key = key
        self._shm_rows = n
        return self._shm.name, n

    # ------------------------------------------------------------------
    # Task dispatch / collection
    # ------------------------------------------------------------------
    def submit(self, worker_index: int, payload: dict) -> int:
        """Send one task to a worker; returns the task id."""
        if self._closed:
            raise IndexStateError("pool is shut down")
        self.start()
        handle = self._workers[worker_index % self.n_workers]
        self._task_seq += 1
        task_id = self._task_seq
        payload = dict(payload)
        payload["task"] = task_id
        handle.outstanding[task_id] = payload
        if self.metrics.enabled:
            # Submit time survives a crash/re-dispatch on purpose: the
            # queue wait of a recovered task includes the recovery.
            self._submit_times[task_id] = time.monotonic()
        try:
            handle.conn.send(payload)
        except (BrokenPipeError, OSError):
            self._respawn(handle)  # re-sends everything outstanding
        return task_id

    def collect(self) -> List[dict]:
        """Block until every outstanding task has a result; return them.

        Crash recovery happens inside this loop: dead workers are
        respawned and their outstanding tasks re-dispatched until the
        result set is complete, the respawn budget is exhausted, or no
        progress is made for ``task_timeout`` seconds.
        """
        results: List[dict] = []
        respawn_budget = self.max_respawns
        deadline = time.monotonic() + self.task_timeout
        while any(h.outstanding for h in self._workers):
            progress = False
            for handle in self._workers:
                if not handle.outstanding:
                    continue
                try:
                    while handle.conn.poll(0):
                        msg = handle.conn.recv()
                        if self._absorb(handle, msg, results):
                            progress = True
                except (EOFError, OSError):
                    respawn_budget -= 1
                    if respawn_budget < 0:
                        raise IndexStateError(
                            f"shard worker {handle.index} crash loop: "
                            f"exceeded {self.max_respawns} respawns in one collect"
                        )
                    self._respawn(handle)
                    progress = True
                    continue
                if handle.outstanding and not handle.process.is_alive():
                    # Died without closing the pipe cleanly (SIGKILL while
                    # idle between recv and send); pipe already drained.
                    respawn_budget -= 1
                    if respawn_budget < 0:
                        raise IndexStateError(
                            f"shard worker {handle.index} crash loop: "
                            f"exceeded {self.max_respawns} respawns in one collect"
                        )
                    self._respawn(handle)
                    progress = True
            if progress:
                deadline = time.monotonic() + self.task_timeout
                continue
            if time.monotonic() > deadline:
                pending = {h.index: sorted(h.outstanding) for h in self._workers if h.outstanding}
                raise IndexStateError(
                    f"shard workers made no progress for {self.task_timeout:.0f}s; "
                    f"pending tasks: {pending}"
                )
            connection_wait(
                [h.conn for h in self._workers if h.outstanding], timeout=0.05
            )
        return results

    def _absorb(self, handle: _WorkerHandle, msg: dict, results: List[dict]) -> bool:
        if msg.get("cmd") != "result":
            return False  # stray pong from an earlier heartbeat
        task_id = msg.get("task")
        if handle.outstanding.pop(task_id, None) is None:
            self._submit_times.pop(task_id, None)
            return False  # duplicate (task already re-dispatched and answered)
        results.append(msg)
        submitted = self._submit_times.pop(task_id, None)
        task_seconds = msg.get("task_seconds")
        if submitted is not None and task_seconds is not None:
            wait = max(0.0, time.monotonic() - submitted - float(task_seconds))
            self.metrics.observe("shard.pool.queue_wait_seconds", wait)
            self.metrics.set_gauge("shard.pool.last_queue_wait_seconds", wait)
        return True

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker and re-dispatch its outstanding tasks."""
        process = handle.process
        try:
            if process.is_alive():
                process.terminate()
            process.join(timeout=1.0)
        except Exception:
            pass
        try:
            handle.conn.close()
        except Exception:
            pass
        self._spawn(handle)
        self.respawns += 1
        self.metrics.inc("shard.respawns")
        self.metrics.set_gauge("shard.pool.respawns", self.respawns)
        for payload in list(handle.outstanding.values()):
            try:
                handle.conn.send(payload)
            except (BrokenPipeError, OSError):
                # The replacement died instantly; the next collect()
                # iteration sees the dead pipe and respawns again (the
                # budget bounds this).
                return

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def ping(self, timeout: float = 5.0) -> Dict[int, bool]:
        """Heartbeat every worker; respawn (and report False for) the dead.

        Called between cycles; a False entry means the worker missed the
        deadline and was replaced, so the next cycle starts with a full
        complement either way.
        """
        self.start()
        seq = self._task_seq = self._task_seq + 1
        alive: Dict[int, bool] = {}
        waiting: List[_WorkerHandle] = []
        sent: Dict[int, float] = {}
        obs = self.metrics.enabled
        for handle in self._workers:
            try:
                sent[handle.index] = time.monotonic()
                handle.conn.send({"cmd": "ping", "seq": seq})
                waiting.append(handle)
            except (BrokenPipeError, OSError):
                alive[handle.index] = False
                self._respawn(handle)
        latencies: Dict[int, float] = {}
        deadline = time.monotonic() + timeout
        while waiting and time.monotonic() < deadline:
            for handle in list(waiting):
                try:
                    got_pong = False
                    while handle.conn.poll(0):
                        msg = handle.conn.recv()
                        if msg.get("cmd") == "pong" and msg.get("seq") == seq:
                            got_pong = True
                    if got_pong:
                        alive[handle.index] = True
                        latencies[handle.index] = (
                            time.monotonic() - sent[handle.index]
                        )
                        waiting.remove(handle)
                except (EOFError, OSError):
                    alive[handle.index] = False
                    self._respawn(handle)
                    waiting.remove(handle)
            if waiting:
                connection_wait([h.conn for h in waiting], timeout=0.05)
        for handle in waiting:
            alive[handle.index] = False
            self._respawn(handle)
        if obs and latencies:
            for index, latency in latencies.items():
                self.metrics.set_gauge(
                    "shard.pool.heartbeat_seconds",
                    latency,
                    labels={"worker": index},
                )
            self.metrics.set_gauge(
                "shard.pool.heartbeat_seconds_max", max(latencies.values())
            )
        return alive
