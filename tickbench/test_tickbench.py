"""Tests of the session-tick benchmark itself, at tiny sizes.

Run from the repository root:  python -m pytest tickbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from spans import SpanRecorder  # noqa: E402

TINY = {
    "motion_100k": dict(n_objects=2_000, n_queries=40),
    "reports_1m": dict(n_objects=5_000, n_queries=40),
    "churn_10k": dict(n_objects=2_000, n_queries=40),
}


def tiny(name: str, **overrides) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], **{**TINY[name], **overrides})


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = harness.run_untraced(tiny(name), seed=5, seconds=0.2)
    assert result["counts"].failed == 0, result["counts"].errors
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(v > 0 for v in result["metrics"].values())
    assert result["info"]["samples_above_p90"] >= 10


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = harness.run_traced(tiny(name), seed=5, seconds=0.4, spans_path=spans)
    assert result["counts"].failed == 0, result["counts"].errors
    assert set(result["metrics"]) == set(harness.PER_LAYER_UNITS)
    assert result["info"]["span_coverage_errors"] == 0
    assert result["info"]["answers_digest"] == result["info"]["untraced_answers_digest"]
    assert spans.read_text().count("\n") == result["info"]["span_count"]


def test_same_seed_gives_same_answers_digest():
    wl = tiny("churn_10k")
    first = harness.run_untraced(wl, seed=9, seconds=0.1)["info"]["answers_digest"]
    again = harness.run_untraced(wl, seed=9, seconds=0.1)["info"]["answers_digest"]
    other = harness.run_untraced(wl, seed=10, seconds=0.1)["info"]["answers_digest"]
    assert first == again != other


def test_gate_fails_when_one_answer_id_is_corrupted(monkeypatch):
    tick = harness.MonitoringSession.tick

    def corrupted(self):
        answers = tick(self)
        handle = min(answers, key=lambda h: h.id)
        ans = answers[handle]
        (oid, dist), *rest = ans.neighbors
        answers[handle] = dataclasses.replace(ans, neighbors=((oid + 1, dist), *rest))
        return answers

    monkeypatch.setattr(harness.MonitoringSession, "tick", corrupted)
    wl = tiny("motion_100k", n_queries=harness.CHECK_QUERIES)
    counts = harness.run_untraced(wl, seed=5, seconds=0.1)["counts"]
    assert counts.failed > 0
    assert any("differ from the reference" in e for e in counts.errors)


def test_reference_matches_a_correct_answer_and_flags_a_corrupted_one():
    run = harness.Run(tiny("churn_10k"), seed=3, counts=harness.Counts())
    run.setup()
    drv = run.driver
    answers = run.session.tick()
    ids, xy = run.session.population()
    assert harness.answer_mismatches(answers, drv.qxy, ids, xy, 10, drv.handles) == 0
    handle = drv.handles[0]
    ans = answers[handle]
    (oid, dist), *rest = ans.neighbors
    answers[handle] = dataclasses.replace(ans, neighbors=((oid + 1, dist), *rest))
    assert harness.answer_mismatches(answers, drv.qxy, ids, xy, 10, drv.handles) == 1
    run.close()


def test_span_coverage_catches_an_unwired_wrapper():
    run = harness.Run(tiny("motion_100k"), seed=3, counts=harness.Counts())
    run.setup()
    recorder = SpanRecorder()
    recorder.instrument(run.session)
    del run.session.store.publish  # unwire one layer: the class method runs untraced
    run.cycle(recorder)
    run.close()
    errors = recorder.coverage_errors(recorder.per_tick([1]))
    assert errors == ["tick 1: 0 store.publish spans, expected 1"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "churn_10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
