"""Unit and integration tests for the hierarchical Object-Index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.brute import brute_force_knn
from repro.core.hierarchical import HierarchicalObjectIndex, _SubGrid
from repro.errors import ConfigurationError, IndexStateError, NotEnoughObjectsError
from repro.motion import RandomWalkModel, make_dataset
from tests.conftest import assert_same_distances


def built(points, **kwargs):
    index = HierarchicalObjectIndex(**kwargs)
    index.build(points)
    return index


class TestConstruction:
    def test_bad_delta0(self):
        with pytest.raises(ConfigurationError):
            HierarchicalObjectIndex(delta0=0.0)
        with pytest.raises(ConfigurationError):
            HierarchicalObjectIndex(delta0=1.5)

    def test_bad_load(self):
        with pytest.raises(ConfigurationError):
            HierarchicalObjectIndex(max_cell_load=0)

    def test_bad_split_factor(self):
        with pytest.raises(ConfigurationError):
            HierarchicalObjectIndex(split_factor=1)

    def test_bad_max_depth(self):
        with pytest.raises(ConfigurationError):
            HierarchicalObjectIndex(max_depth=0)

    def test_requires_build(self):
        index = HierarchicalObjectIndex()
        with pytest.raises(IndexStateError):
            index.knn_overhaul(0.5, 0.5, 1)
        with pytest.raises(IndexStateError):
            index.update(np.zeros((1, 2)))
        with pytest.raises(IndexStateError):
            index.validate()


class TestBuild:
    def test_uniform_small_stays_one_level(self):
        points = make_dataset("uniform", 50, seed=1)
        # 100 top cells, 50 objects, load 10: no splits expected.
        index = built(points, delta0=0.1, max_cell_load=10)
        assert index.depth() == 1
        index.validate()

    def test_skewed_splits(self, hi_skewed_1k):
        index = built(hi_skewed_1k, delta0=0.1, max_cell_load=10)
        assert index.depth() > 1
        index.validate()

    def test_no_leaf_overflows(self, hi_skewed_1k):
        index = built(hi_skewed_1k)
        index.validate()  # validate() checks the load invariant

    def test_counts(self, skewed_1k):
        index = built(skewed_1k)
        assert index.n_objects == 1000

    def test_cell_counts_structure(self, skewed_1k):
        index = built(skewed_1k, delta0=0.1, split_factor=3)
        index_cells, leaf_cells = index.cell_counts()
        assert index_cells > 0
        # Each split converts one leaf into an index cell plus m*m leaves.
        assert leaf_cells == 100 + index_cells * (3 * 3 - 1)

    def test_rebuild_resets(self, skewed_1k):
        index = built(skewed_1k)
        index.build(skewed_1k[:50])
        assert index.n_objects == 50
        index.validate()

    def test_coincident_points_respect_max_depth(self):
        points = np.full((100, 2), 0.5)
        index = built(points, max_depth=4)
        assert index.depth() <= 4
        index.validate()
        answer = index.knn_overhaul(0.5, 0.5, 10)
        assert answer.kth_dist() == 0.0


class TestKnn:
    @pytest.mark.parametrize("dataset", ["uniform", "skewed", "hi_skewed"])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_overhaul_matches_brute(self, dataset, k):
        points = make_dataset(dataset, 800, seed=3)
        index = built(points)
        for qx, qy in [(0.5, 0.5), (0.02, 0.98), (0.88, 0.12)]:
            got = index.knn_overhaul(qx, qy, k).neighbors()
            want = brute_force_knn(points, qx, qy, k)
            assert_same_distances(got, want)

    def test_k_too_large(self, uniform_1k):
        index = built(uniform_1k)
        with pytest.raises(NotEnoughObjectsError):
            index.knn_overhaul(0.5, 0.5, 1001)

    def test_k_equals_population(self):
        points = make_dataset("uniform", 30, seed=5)
        index = built(points)
        got = index.knn_overhaul(0.4, 0.4, 30).neighbors()
        want = brute_force_knn(points, 0.4, 0.4, 30)
        assert_same_distances(got, want)

    def test_incremental_matches_brute(self, skewed_1k):
        index = built(skewed_1k)
        previous = index.knn_overhaul(0.3, 0.3, 10).object_ids()
        motion = RandomWalkModel(vmax=0.005, seed=4)
        moved = motion.step(skewed_1k)
        index.update(moved)
        got = index.knn_incremental(0.3, 0.3, 10, previous).neighbors()
        want = brute_force_knn(moved, 0.3, 0.3, 10)
        assert_same_distances(got, want)

    def test_incremental_falls_back(self, uniform_1k):
        index = built(uniform_1k)
        got = index.knn_incremental(0.6, 0.6, 5, []).neighbors()
        want = brute_force_knn(uniform_1k, 0.6, 0.6, 5)
        assert_same_distances(got, want)

    def test_query_far_outside(self, uniform_1k):
        index = built(uniform_1k)
        got = index.knn_overhaul(2.0, 2.0, 5).neighbors()
        want = brute_force_knn(uniform_1k, 2.0, 2.0, 5)
        assert_same_distances(got, want)

    def test_rescan_radius_stays_squared(self):
        # Four objects tie at d2 = 0.203125 and the k-th cut falls inside
        # the tie; rescanning at sqrt(d2)**2 rounds below d2 and pruned
        # the cell of object 3 at (0.5, 0.5), the lowest tied id.
        points = np.array(
            [[0.625, 0.375], [0.625, 0.25], [0.625, 0.375],
             [0.5, 0.5], [0.625, 0.375], [0.875, 0.5]]
        )
        index = built(points)
        assert index.knn_overhaul(0.25, 0.125, 4).object_ids() == [1, 0, 2, 3]

    def test_circle_outside_the_square_reaches_clamped_objects(self):
        # Shrunk fuzz case: under incremental maintenance, a circle lying
        # wholly below the square must still scan row 0, which holds
        # objects clamped from below it (answer: object 3, not 12).
        from repro.verify import Workload, make_specs, run_differential

        oids = [3, 12, 20, 21, 26, 27, 28, 29, 31, 39, 40, 45]

        def move(*xy):
            return {"t": "move", "oids": oids[: len(xy)], "xy": [list(p) for p in xy]}

        joins = [(3, -0.25, -0.25), (12, 1.25, -0.25), (20, 0.0, 0.5), (21, 0.0, 0.75),
                 (26, 0.25, 0.25), (27, -0.25, 0.5), (28, 0.5, 0.0), (29, 0.5, -0.25)]
        workload = Workload(k=1, cycles=[
            [{"t": "join", "oid": o, "xy": [x, y]} for o, x, y in joins]
            + [{"t": "reg", "hid": 5, "xy": [0.25, -0.5]}],
            [{"t": "join", "oid": 31, "xy": [-0.5, 1.25]},
             move((0.0, -0.5), (1.5, -0.5), (0.25, 0.25), (0.25, 0.5), (0.0, 0.0),
                  (0.0, 0.25), (0.75, -0.25), (0.25, -0.25), (-0.25, 1.0))],
            [{"t": "join", "oid": 39, "xy": [0.0, 0.5]},
             {"t": "join", "oid": 40, "xy": [0.5, 1.25]},
             move((0.25, -0.25), (1.25, -0.25), (0.0, 0.0), (0.0, 0.25), (0.25, -0.25),
                  (0.0, 0.0), (0.5, -0.5), (0.0, -0.5), (0.0, 0.75), (0.25, 0.25),
                  (0.25, 1.0))],
            [{"t": "join", "oid": 45, "xy": [0.0, 0.0]},
             move((0.0, -0.25), (0.5, -0.25), (-0.25, -0.25), (0.0, -0.25), (0.0, 0.0),
                  (-0.25, 0.0), (-0.25, -0.25), (0.0, -0.25), (-0.25, 0.0), (0.0, 0.0),
                  (0.0, -0.25), (-0.25, -0.25))],
        ])
        report = run_differential(workload, make_specs(["brute_force", "hierarchical"]))
        assert report.ok, [d.describe() for d in report.divergences] + report.errors


class TestUpdate:
    def test_no_motion_no_moves(self, skewed_1k):
        index = built(skewed_1k)
        assert index.update(skewed_1k.copy()) == 0
        index.validate()

    def test_motion_preserves_invariants(self, skewed_1k):
        index = built(skewed_1k)
        motion = RandomWalkModel(vmax=0.02, seed=6)
        current = skewed_1k
        for _ in range(8):
            current = motion.step(current)
            index.update(current)
            index.validate()

    def test_queries_exact_after_updates(self, hi_skewed_1k):
        index = built(hi_skewed_1k)
        motion = RandomWalkModel(vmax=0.01, seed=6)
        current = hi_skewed_1k
        for _ in range(5):
            current = motion.step(current)
            index.update(current)
        for qx, qy in [(0.5, 0.5), (0.1, 0.9)]:
            got = index.knn_overhaul(qx, qy, 10).neighbors()
            want = brute_force_knn(current, qx, qy, 10)
            assert_same_distances(got, want)

    def test_collapse_happens(self):
        # Start clustered (forces splits), then teleport everything to be
        # uniform: cluster sub-grids must collapse away.
        clustered = make_dataset("hi_skewed", 500, seed=9)
        index = built(clustered, delta0=0.1, max_cell_load=10)
        deep_before = index.depth()
        assert deep_before > 1
        uniform = make_dataset("uniform", 500, seed=10)
        index.update(uniform)
        index.validate()
        index_cells_after, _ = index.cell_counts()
        index_before = built(uniform, delta0=0.1, max_cell_load=10)
        fresh_cells, _ = index_before.cell_counts()
        # The adapted structure approaches the fresh-built one.
        assert index_cells_after <= fresh_cells * 3 + 5

    def test_population_change_rejected(self, skewed_1k):
        index = built(skewed_1k)
        with pytest.raises(IndexStateError):
            index.update(skewed_1k[:10])


class TestAdaptiveMemory:
    def test_more_objects_more_cells(self):
        small = built(make_dataset("skewed", 300, seed=2))
        large = built(make_dataset("skewed", 3000, seed=2))
        assert sum(large.cell_counts()) > sum(small.cell_counts())

    def test_uniform_uses_fewer_cells_than_skewed(self):
        # delta0=0.1 with load 10: uniform 1000 objects spread at ~10 per
        # top cell rarely split; clusters split heavily.
        uniform = built(make_dataset("uniform", 1000, seed=2))
        skewed = built(make_dataset("hi_skewed", 1000, seed=2))
        assert sum(uniform.cell_counts()) < sum(skewed.cell_counts())
