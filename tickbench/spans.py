"""Span recording for the traced run, from outside the program.

The benchmark wraps the public calls into each layer of one
``MonitoringSession`` instance (session, store, monitor, pipeline,
engine) and records one span per call: name, start, end, parent span and
the driver's tick id.  Spans stay in memory and are written out when the
run ends.  Nothing in the program is edited; the wrappers are instance
attributes that shadow the bound methods, so only the traced session is
affected.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

LIFECYCLE = (
    "session.register_query",
    "session.drop_query",
    "session.join_object",
    "session.leave_object",
)

#: Spans every timed tick must carry exactly once (``maintain`` and
#: ``load`` count together, as direct children of ``run_cycle``: an
#: engine-requested rebuild runs ``load`` in place of ``maintain``).
REQUIRED_PER_TICK = (
    "session.tick",
    "store.publish",
    "pipeline.run_cycle",
    "engine.maintain|load",
    "engine.answer",
)


class SpanRecorder:
    """Collects ``(name, start, end, parent, tick)`` spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self._stack: List[int] = []
        #: Tick id stamped on every span opened from now on (set by the driver).
        self.tick = -1

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Shadow ``owner.attr`` with a span-recording wrapper."""
        inner = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.tick)

        setattr(owner, attr, traced)

    def instrument(self, session) -> None:
        """Wrap every layer boundary of one session instance."""
        for name in ("session.update_positions", "session.tick") + LIFECYCLE:
            self.wrap(session, name.split(".")[1], name)
        store, system, engine = session.store, session.system, session.engine
        self.wrap(store, "admit", "store.admit")
        self.wrap(store, "publish", "store.publish")
        self.wrap(system, "tick", "system.tick")
        self.wrap(system.pipeline, "run_cycle", "pipeline.run_cycle")
        for attr in ("apply_query_delta", "apply_object_delta", "load", "maintain", "answer"):
            self.wrap(engine, attr, f"engine.{attr}")

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _closed(self) -> List[Tuple[str, float, float, int, int]]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return self.spans  # type: ignore[return-value]

    def per_tick(self, ticks: Iterable[int]) -> Dict[int, Dict[str, List[float]]]:
        """For each tick: ``{key: [total duration, total self time, calls]}``.

        Keys are span names, plus ``engine.maintain|load`` for the index
        stage that is a direct child of ``run_cycle`` (``load`` calls
        ``maintain`` internally on some engines; only the outer span is
        the stage).  Self time is the span's duration minus the time its
        child spans cover.
        """
        spans = self._closed()
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        wanted = set(ticks)
        out: Dict[int, Dict[str, List[float]]] = {
            t: defaultdict(lambda: [0.0, 0.0, 0]) for t in wanted
        }
        for i, (name, start, end, parent, tick) in enumerate(spans):
            if tick not in wanted:
                continue
            keys = [name]
            if (
                name in ("engine.maintain", "engine.load")
                and parent >= 0
                and spans[parent][0] == "pipeline.run_cycle"
            ):
                keys.append("engine.maintain|load")
            for key in keys:
                acc = out[tick][key]
                acc[0] += end - start
                acc[1] += end - start - child[i]
                acc[2] += 1
        return out

    def coverage_errors(self, per_tick: Dict[int, Dict[str, List[float]]]) -> List[str]:
        """Ticks that miss a required span or carry it more than once."""
        errors = []
        for tick in sorted(per_tick):
            for key in REQUIRED_PER_TICK:
                calls = per_tick[tick][key][2] if key in per_tick[tick] else 0
                if calls != 1:
                    errors.append(f"tick {tick}: {calls} {key} spans, expected 1")
        return errors

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tick) in enumerate(self._closed()):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "tick": tick}
                    )
                    + "\n"
                )
