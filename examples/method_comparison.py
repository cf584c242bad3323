"""Compare every monitoring method on one workload (a miniature Fig. 17).

Runs all five of the paper's methods — plus the brute-force oracle and the
STR-bulk R-tree the paper did not have — on the same skewed workload and
prints a ranked table, verifying on the way that all methods return the
same exact answers.

Run with::

    python examples/method_comparison.py
"""

from __future__ import annotations

from repro import RandomWalkModel, answers_equal, make_dataset, make_queries
from repro.bench import format_table, measure_cycles
from repro.engines.registry import build_system

N_OBJECTS = 10_000
N_QUERIES = 500
K = 10
CYCLES = 3

METHODS = [
    "query_indexing",
    "hierarchical",
    "object_overhaul",
    "object_incremental",
    "rtree_str_bulk",
    "rtree_overhaul",
    "rtree_bottom_up",
    "brute_force",
]


def main() -> None:
    positions = make_dataset("skewed", N_OBJECTS, seed=17)
    queries = make_queries(N_QUERIES, seed=18)

    rows = []
    reference_answers = None
    for method in METHODS:
        system = build_system(method, K, queries)
        motion = RandomWalkModel(vmax=0.005, seed=19)
        timing = measure_cycles(system, positions, motion, cycles=CYCLES)
        # Cross-check exactness: every method must agree with the first.
        final = system.engine.answer()
        if reference_answers is None:
            reference_answers = final
        else:
            for got, want in zip(final, reference_answers):
                assert answers_equal(got.neighbors, want.neighbors), method
        rows.append(
            [
                method,
                timing.index_time * 1e3,
                timing.answer_time * 1e3,
                timing.total_time * 1e3,
            ]
        )

    rows.sort(key=lambda row: row[3])
    print(
        f"workload: NP={N_OBJECTS} skewed objects, NQ={N_QUERIES} queries, "
        f"k={K}, vmax=0.005, mean of {CYCLES} cycles\n"
    )
    print(
        format_table(
            ["method", "index_ms", "answer_ms", "total_ms"],
            rows,
        )
    )
    print("\nall methods returned identical exact answers")

    # What would the paper's own analysis have picked for this workload?
    from repro import WorkloadProfile, recommend
    from repro.motion import skewness_statistic

    profile = WorkloadProfile(
        n_objects=N_OBJECTS,
        n_queries=N_QUERIES,
        k=K,
        vmax=0.005,
        skewness=skewness_statistic(positions),
    )
    print("\n" + recommend(profile).summary())


if __name__ == "__main__":
    main()
