"""The columnar answer plane: AnswerBatch from the engines to the session.

Covers the batch contract (padding, read-only arrays, the
``Sequence[QueryAnswer]`` view), the aliasing rule (an answer held from
one cycle never changes afterwards), bit-identity of the vectorized sqrt
packaging with the per-neighbor ``math.sqrt`` it replaced, and the
all-engine differential gate over freshly recorded traces.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import MonitoringSession, MonitoringSystem
from repro.core.answers import AnswerBatch, AnswerList, QueryAnswer
from repro.errors import ConfigurationError
from repro.verify import (
    EXACT_METHODS,
    make_scenario,
    make_specs,
    run_differential,
)
from repro.verify.cli import main as cli_main


def _bits(neighbors):
    return [(int(oid), float(d).hex()) for oid, d in neighbors]


class TestBatchContract:
    def test_from_lists_pads_short_answers(self):
        short = AnswerList(4)
        short.offer(0.25, 7)
        short.offer(0.04, 3)
        full = AnswerList(4)
        for d2, oid in [(0.1, 1), (0.2, 2), (0.3, 3), (0.4, 4)]:
            full.offer(d2, oid)
        batch = AnswerBatch.from_lists([short, AnswerList(4), full], 4)
        assert batch.d2.shape == batch.ids.shape == (3, 4)
        assert batch.ids[0].tolist() == [3, 7, -1, -1]
        assert batch.d2[0, 2:].tolist() == [math.inf, math.inf]
        assert batch.ids[1].tolist() == [-1] * 4
        # Padding is never reported.
        assert batch[0].neighbors == ((3, 0.2), (7, 0.5))
        assert batch[1].neighbors == ()
        assert batch[2].object_ids() == (1, 2, 3, 4)
        assert [qa.k for qa in batch] == [2, 0, 4]
        assert [len(row) for row in batch.neighbor_rows()] == [2, 0, 4]

    def test_from_lists_rejects_overfull_rows(self):
        with pytest.raises(ValueError):
            AnswerBatch.from_lists([[(0.1, 1), (0.2, 2)]], 1)

    def test_arrays_are_read_only(self):
        d2 = np.array([[0.01, 0.04]])
        ids = np.array([[5, 9]])
        batch = AnswerBatch(d2, ids, 2.0)
        with pytest.raises(ValueError):
            batch.d2[0, 0] = 0.0
        with pytest.raises(ValueError):
            batch.ids[0, 0] = 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            AnswerBatch(np.zeros((2, 3)), np.zeros((2, 2), dtype=np.int64))

    def test_sequence_view(self):
        batch = AnswerBatch(
            np.array([[0.0, 0.25], [0.09, 0.16]]), np.array([[4, 2], [8, 1]]), 3.0
        )
        assert len(batch) == 2 and batch.k == 2
        assert batch[-1] == QueryAnswer(1, 3.0, ((8, 0.3), (1, 0.4)))
        assert batch[:1] == [QueryAnswer(0, 3.0, ((4, 0.0), (2, 0.5)))]
        assert list(batch) == [batch[0], batch[1]]
        assert batch == list(batch)
        with pytest.raises(IndexError):
            batch[2]
        stamped = batch.with_timestamp(4.0)
        assert stamped.d2 is batch.d2 and stamped[0].timestamp == 4.0
        assert stamped != batch
        assert AnswerBatch.empty(3) == []

    def test_view_is_bit_identical_to_answer_list_packaging(self):
        """np.sqrt over the batch equals math.sqrt per neighbor, bit for bit."""
        rng = np.random.default_rng(17)
        for trial in range(40):
            k = int(rng.integers(1, 9))
            nq = int(rng.integers(1, 25))
            lists = []
            for _ in range(nq):
                answer = AnswerList(k)
                # A coarse lattice of squared distances forces exact ties,
                # which the (d2, id) ordering must resolve identically.
                for _ in range(int(rng.integers(0, 3 * k))):
                    d2 = float(rng.integers(0, 6)) / 7.0 + float(rng.random()) * (
                        trial % 2
                    )
                    answer.offer(d2, int(rng.integers(0, 50)))
                lists.append(answer)
            batch = AnswerBatch.from_lists(lists, k, timestamp=1.5)
            old = [
                QueryAnswer(q, 1.5, tuple(answer.neighbors()))
                for q, answer in enumerate(lists)
            ]
            for q, (got, want) in enumerate(zip(batch, old)):
                assert _bits(got.neighbors) == _bits(want.neighbors)
                assert _bits(batch[q].neighbors) == _bits(want.neighbors)
                assert got.query_id == want.query_id and got.timestamp == 1.5


class TestAliasing:
    @pytest.mark.parametrize("reuse", [True, False])
    def test_held_answer_survives_the_next_cycle(self, reuse):
        rng = np.random.default_rng(5)
        positions = rng.random((3000, 2))
        queries = rng.random((60, 2))
        system = MonitoringSystem.delta_grid(5, queries, reuse=reuse)
        system.load(positions)
        held = system.tick(positions)
        held_d2, held_ids = held.d2.copy(), held.ids.copy()
        held_rows = [_bits(qa.neighbors) for qa in held]
        # Move a small patch of objects: nearby queries are re-answered,
        # the rest (with reuse on) carry their rows forward.
        moved = positions.copy()
        patch = np.flatnonzero(
            (positions[:, 0] < 0.2) & (positions[:, 1] < 0.2)
        )[:20]
        moved[patch] = 0.2 * rng.random((len(patch), 2))
        after = system.tick(moved)
        assert not np.array_equal(after.ids, held_ids)
        if reuse:
            assert system.engine.last_reuse_mask.any()
        system.tick(moved)
        assert np.array_equal(held.d2, held_d2)
        assert np.array_equal(held.ids, held_ids)
        assert [_bits(qa.neighbors) for qa in held] == held_rows
        assert held.timestamp == 1.0

    def test_cycle_hook_sees_the_stamped_batch(self):
        rng = np.random.default_rng(6)
        system = MonitoringSystem.fast_grid(3, rng.random((5, 2)), tau=0.5)
        seen = []
        system.pipeline.cycle_hook = lambda record, batch: seen.append(
            (record.timestamp, batch)
        )
        positions = rng.random((200, 2))
        first = system.load(positions)
        second = system.tick(positions)
        assert [t for t, _ in seen] == [0.0, 0.5]
        assert seen[0][1] == first and seen[1][1] == second
        assert isinstance(second, AnswerBatch) and second.timestamp == 0.5


class TestSessionDelivery:
    @pytest.mark.parametrize("method", ["fast_grid", "object_indexing"])
    def test_session_answers_are_the_batch_in_external_ids(self, method):
        rng = np.random.default_rng(8)
        session = MonitoringSession(method, k=4)
        points = rng.random((300, 2))
        for i, xy in enumerate(points):
            session.join_object(1000 + 3 * i, xy)
        handles = [session.register_query(xy) for xy in rng.random((6, 2))]
        session.tick()
        for oid in range(1000, 1000 + 3 * 40, 3):
            session.leave_object(oid)
        answers = session.tick()
        ids, live = session.population()
        for handle, qxy in zip(handles, session.query_points()):
            d2 = ((live - qxy) ** 2).sum(axis=1)
            order = np.lexsort((np.arange(len(live)), d2))[:4]
            want = [(int(ids[r]), float(np.sqrt(d2[r]))) for r in order]
            assert _bits(answers[handle].neighbors) == _bits(want)


class TestDifferentialGate:
    def test_all_exact_engines_agree_on_a_fresh_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "fresh.jsonl")
        assert cli_main(["record", "--out", trace, "--seed", "21", "--cycles", "6"]) == 0
        assert cli_main(["replay", trace, "--check"]) == 0
        assert cli_main(["diff", trace, "--methods", "all"]) == 0
        out = capsys.readouterr().out
        assert f"{len(EXACT_METHODS)} engines agree bit-for-bit" in out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_out_of_region_coordinates_stay_exact(self, seed):
        scenario = make_scenario(seed, outside=True, cycles=8)
        coords = np.array(
            [ev["xy"] for cycle in scenario.workload.cycles for ev in cycle
             if ev["t"] in ("join", "reg")]
        )
        assert coords.min() < 0.0 and coords.max() >= 1.0
        specs = make_specs(["all"], overrides=scenario.engine_overrides)
        report = run_differential(scenario.workload, specs)
        assert report.ok, "\n".join(
            [d.describe() for d in report.divergences] + report.errors
        )
