"""Tests for the vectorized CSR fast engine (repro.core.fast_index).

The contract: byte-identical k-NN answer sets to the brute-force oracle
(ties broken deterministically by object ID) under every snapshot shape —
random, clustered, duplicated points, edge-of-domain queries, and k larger
than the query's home-cell population.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answers import answers_equal
from repro.core.brute import brute_force_knn
from repro.core.fast_index import (
    STAGE_NAMES,
    CSRGrid,
    FastGridEngine,
    StageTimings,
)
from repro.core.monitor import MonitoringSystem
from repro.errors import IndexStateError, NotEnoughObjectsError
from repro.motion import RandomWalkModel, make_dataset, make_queries


def lexicographic_knn(positions, qx, qy, k):
    """Reference k-NN with (distance, id) lexicographic tie-breaking."""
    d2 = (positions[:, 0] - qx) ** 2 + (positions[:, 1] - qy) ** 2
    order = np.lexsort((np.arange(len(positions)), d2))[:k]
    return [(int(i), float(np.sqrt(d2[i]))) for i in order]


def fast_answers(positions, queries, k, **kwargs):
    engine = FastGridEngine(k, queries, **kwargs)
    engine.load(positions)
    return engine.answer()


class TestCSRGrid:
    def test_layout_invariants(self):
        rng = np.random.default_rng(3)
        positions = rng.random((500, 2))
        csr = CSRGrid(positions, ncells=7)
        n = csr.ncells
        assert csr.cell_start[0] == 0
        assert csr.cell_start[-1] == len(positions)
        # Every object sits in the slice of its own cell.
        for flat in range(n * n):
            lo, hi = csr.cell_start[flat], csr.cell_start[flat + 1]
            i, j = flat % n, flat // n
            for pos in range(lo, hi):
                assert int(csr.xs[pos] * n) == i
                assert int(csr.ys[pos] * n) == j
        # The permutation covers every object exactly once.
        assert sorted(csr.ids.tolist()) == list(range(len(positions)))

    def test_prefix_counts_match_direct_counts(self):
        rng = np.random.default_rng(4)
        positions = rng.random((300, 2))
        csr = CSRGrid(positions, ncells=5)
        n = csr.ncells
        ii = np.clip((positions[:, 0] * n).astype(int), 0, n - 1)
        jj = np.clip((positions[:, 1] * n).astype(int), 0, n - 1)
        for _ in range(25):
            ilo, ihi = sorted(rng.integers(0, n, 2))
            jlo, jhi = sorted(rng.integers(0, n, 2))
            want = int(
                np.sum((ii >= ilo) & (ii <= ihi) & (jj >= jlo) & (jj <= jhi))
            )
            got = csr.count_in_rects(
                np.array([ilo]), np.array([jlo]), np.array([ihi]), np.array([jhi])
            )
            assert int(got[0]) == want

    def test_row_runs_are_contiguous(self):
        """Cells (ilo..ihi, j) form one contiguous CSR slice."""
        rng = np.random.default_rng(5)
        positions = rng.random((400, 2))
        csr = CSRGrid(positions, ncells=6)
        n = csr.ncells
        j, ilo, ihi = 2, 1, 4
        lo = csr.cell_start[j * n + ilo]
        hi = csr.cell_start[j * n + ihi + 1]
        jj = np.clip((csr.ys[lo:hi] * n).astype(int), 0, n - 1)
        ii = np.clip((csr.xs[lo:hi] * n).astype(int), 0, n - 1)
        assert (jj == j).all()
        assert ((ii >= ilo) & (ii <= ihi)).all()


class TestFastEngineExactness:
    def test_property_random_snapshots_match_brute_force(self):
        """~50 random snapshots: byte-identical answers to the oracle."""
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(5, 800))
            nq = int(rng.integers(1, 40))
            k = int(rng.integers(1, min(25, n) + 1))
            positions = rng.random((n, 2))
            queries = rng.random((nq, 2))
            answers = fast_answers(positions, queries, k)
            for answer, (qx, qy) in zip(answers, queries):
                got = list(answer.neighbors)
                want = lexicographic_knn(positions, qx, qy, k)
                assert got == pytest.approx(want), (trial, qx, qy)
                assert answers_equal(
                    got, brute_force_knn(positions, qx, qy, k)
                ), (trial, qx, qy)

    def test_edge_of_domain_queries(self):
        rng = np.random.default_rng(10)
        positions = rng.random((300, 2))
        queries = np.array(
            [
                [0.0, 0.0],
                [1.0, 1.0],
                [0.0, 1.0],
                [1.0, 0.0],
                [0.5, 0.0],
                [0.0, 0.5],
                [0.999999, 0.5],
            ]
        )
        answers = fast_answers(positions, queries, k=7)
        for answer, (qx, qy) in zip(answers, queries):
            assert list(answer.neighbors) == pytest.approx(
                lexicographic_knn(positions, qx, qy, 7)
            )

    def test_k_exceeds_home_cell_population(self):
        """Ring growth must escape sparsely populated home cells."""
        rng = np.random.default_rng(11)
        # Everything clustered in one corner; query in the opposite corner
        # has an empty home cell (and empty first rings).
        positions = 0.05 * rng.random((200, 2))
        queries = np.array([[0.95, 0.95], [0.5, 0.5], [0.04, 0.03]])
        answers = fast_answers(positions, queries, k=60)
        for answer, (qx, qy) in zip(answers, queries):
            assert list(answer.neighbors) == pytest.approx(
                lexicographic_knn(positions, qx, qy, 60)
            )

    def test_k_equals_population(self):
        rng = np.random.default_rng(12)
        positions = rng.random((30, 2))
        queries = rng.random((5, 2))
        answers = fast_answers(positions, queries, k=30)
        for answer, (qx, qy) in zip(answers, queries):
            assert list(answer.neighbors) == pytest.approx(
                lexicographic_knn(positions, qx, qy, 30)
            )

    def test_duplicate_points_tie_break_by_id(self):
        """Coincident objects: the engine reports the smallest tied IDs."""
        positions = np.array([[0.5, 0.5]] * 6 + [[0.9, 0.9], [0.1, 0.2]])
        queries = np.array([[0.5, 0.5]])
        (answer,) = fast_answers(positions, queries, k=3)
        assert answer.object_ids() == (0, 1, 2)
        assert list(answer.neighbors) == pytest.approx(
            lexicographic_knn(positions, queries[0, 0], queries[0, 1], 3)
        )

    def test_queries_sharing_home_cell_share_gather(self):
        """Co-located queries (one union rect) still get exact answers."""
        rng = np.random.default_rng(13)
        positions = rng.random((500, 2))
        base = np.array([0.437, 0.561])
        queries = base + 1e-4 * rng.random((8, 2))
        answers = fast_answers(positions, queries, k=9)
        for answer, (qx, qy) in zip(answers, queries):
            assert list(answer.neighbors) == pytest.approx(
                lexicographic_knn(positions, qx, qy, 9)
            )

    def test_ragged_fallback_path(self, monkeypatch):
        """The global-lexsort fallback gives the same exact answers."""
        from repro.core import fast_index

        rng = np.random.default_rng(14)
        # One huge cluster makes one query's candidate block much larger
        # than the others', so padding would dominate: with the dense
        # limit forced to 0, the ragged path must run.
        cluster = 0.02 * rng.random((2000, 2)) + 0.5
        sparse = rng.random((50, 2))
        positions = np.vstack([cluster, sparse])
        queries = np.vstack(
            [np.array([[0.51, 0.51]]), rng.random((9, 2)) * 0.2 + 0.75]
        )
        expected = [
            lexicographic_knn(positions, qx, qy, 5) for qx, qy in queries
        ]
        monkeypatch.setattr(fast_index, "DENSE_SELECT_LIMIT", 0)
        answers = fast_answers(positions, queries, k=5)
        for answer, want in zip(answers, expected):
            assert list(answer.neighbors) == pytest.approx(want)

    def test_skewed_dataset_cycles(self):
        """Multi-cycle run over clustered data stays exact."""
        positions = make_dataset("hi_skewed", 2000, seed=21)
        queries = make_queries(50, seed=22)
        motion = RandomWalkModel(vmax=0.01, seed=23)
        system = MonitoringSystem.fast_grid(10, queries)
        system.load(positions)
        for _ in range(3):
            positions = motion.step(positions)
            answers = system.tick(positions)
            for qa, (qx, qy) in zip(answers, queries):
                assert list(qa.neighbors) == pytest.approx(
                    lexicographic_knn(positions, qx, qy, 10)
                )


class TestFastEngineContract:
    def test_answer_before_load_raises(self):
        engine = FastGridEngine(3, np.array([[0.5, 0.5]]))
        with pytest.raises(IndexStateError):
            engine.answer()

    def test_k_larger_than_population_raises(self):
        engine = FastGridEngine(10, np.array([[0.5, 0.5]]))
        engine.load(np.random.default_rng(0).random((4, 2)))
        with pytest.raises(NotEnoughObjectsError):
            engine.answer()

    def test_no_queries(self):
        engine = FastGridEngine(2, np.empty((0, 2)))
        engine.load(np.random.default_rng(0).random((10, 2)))
        assert engine.answer() == []

    def test_set_queries_moves_queries(self):
        rng = np.random.default_rng(30)
        positions = rng.random((200, 2))
        queries = rng.random((6, 2))
        system = MonitoringSystem.fast_grid(4, queries)
        system.load(positions)
        moved = rng.random((6, 2))
        system.set_queries(moved)
        answers = system.tick(positions)
        for qa, (qx, qy) in zip(answers, moved):
            assert list(qa.neighbors) == pytest.approx(
                lexicographic_knn(positions, qx, qy, 4)
            )

    def test_explicit_grid_resolution(self):
        rng = np.random.default_rng(31)
        positions = rng.random((150, 2))
        queries = rng.random((4, 2))
        for kwargs in ({"ncells": 3}, {"delta": 0.25}):
            answers = fast_answers(positions, queries, 5, **kwargs)
            for answer, (qx, qy) in zip(answers, queries):
                assert list(answer.neighbors) == pytest.approx(
                    lexicographic_knn(positions, qx, qy, 5)
                )

    def test_stage_timing_history(self):
        rng = np.random.default_rng(32)
        positions = rng.random((300, 2))
        queries = rng.random((10, 2))
        system = MonitoringSystem.fast_grid(5, queries)
        system.load(positions)
        system.tick(rng.random((300, 2)))
        engine = system.engine
        assert len(engine.stage_history) == 2
        assert isinstance(engine.last_stages, StageTimings)
        means = engine.mean_stage_times()
        assert set(means) == set(STAGE_NAMES)
        assert all(v >= 0.0 for v in means.values())
        assert engine.last_stages.total == pytest.approx(
            sum(engine.last_stages.as_dict().values())
        )

    def test_stage_history_resets_on_load(self):
        rng = np.random.default_rng(33)
        positions = rng.random((100, 2))
        engine = FastGridEngine(3, rng.random((5, 2)))
        engine.load(positions)
        engine.answer()
        engine.load(positions)
        engine.answer()
        assert len(engine.stage_history) == 1

    def test_registered_in_bench_runner(self):
        from repro.engines.registry import build_system

        system = build_system("fast_grid", 3, np.array([[0.5, 0.5]]))
        assert system.engine.name == "fast-grid"
