"""Long-running robustness: checked ingest and bounded per-tick histories.

A NaN or infinite coordinate can never be answered exactly, so every
ingest path rejects it whole with a typed, counted error and leaves the
world unchanged.  Per-tick histories are rings, so a session that runs
for days keeps bounded memory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MetricsRegistry, MonitoringSession, MonitoringSystem
from repro.engines.base import HISTORY_CAPACITY, BoundedHistory
from repro.errors import ConfigurationError, NonFiniteCoordinateError
from repro.state import WorldStore
from repro.verify import EXACT_METHODS

K = 3
BAD = [np.nan, np.inf, -np.inf]


def _exact(session, handles):
    """Every answer equals a brute-force (distance, id) scan."""
    ids, live = session.population()
    answers = session.tick()
    for handle, qxy in zip(handles, session.query_points()):
        d2 = ((live - qxy) ** 2).sum(axis=1)
        order = np.lexsort((ids, d2))[:K]
        assert [o for o, _ in answers[handle].neighbors] == ids[order].tolist()


@pytest.fixture
def session_factory():
    sessions = []

    def make(method):
        opts = {"workers": 0, "shards": 2} if method == "sharded" else {}
        registry = MetricsRegistry()
        session = MonitoringSession(method, k=K, registry=registry, **opts)
        rng = np.random.default_rng(4)
        for oid, xy in enumerate(rng.random((40, 2))):
            session.join_object(oid, xy)
        handles = [session.register_query(xy) for xy in rng.random((4, 2))]
        session.tick()
        sessions.append(session)
        return session, handles, registry

    yield make
    for session in sessions:
        session.close()


class TestNonFiniteIngest:
    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_rejected_counted_and_harmless(self, method, session_factory):
        session, handles, registry = session_factory(method)
        before_ids, before_xy = session.population()
        rejected = 0
        for bad in BAD:
            full = before_xy.copy()
            full[7, 1] = bad
            calls = [
                lambda: session.update_positions(full),
                lambda: session.update_positions(
                    np.array([[0.5, 0.5], [bad, 0.1]]), object_ids=[1, 2]
                ),
                lambda: session.move_object(3, (bad, 0.2)),
                lambda: session.join_object(99, (0.3, bad)),
                lambda: session.register_query((bad, bad)),
            ]
            for call in calls:
                with pytest.raises(NonFiniteCoordinateError) as info:
                    call()
                assert isinstance(info.value, ConfigurationError)
                assert info.value.rows == 1
                rejected += 1
        assert registry.counter_values()["state.rejected_rows"] == rejected
        assert session.pending_deltas == 0
        ids, xy = session.population()
        assert np.array_equal(ids, before_ids) and np.array_equal(xy, before_xy)
        _exact(session, handles)

    def test_rejected_while_a_join_is_pending(self, session_factory):
        session, handles, _ = session_factory("delta_grid")
        session.join_object(50, (0.5, 0.5))
        with pytest.raises(NonFiniteCoordinateError):
            session.update_positions(
                np.array([[0.1, 0.1], [np.nan, 0.0]]), object_ids=[50, 1]
            )
        # The pending join kept its admission point.
        session.tick()
        ids, xy = session.population()
        assert xy[ids.tolist().index(50)].tolist() == [0.5, 0.5]
        _exact(session, handles)

    def test_world_store_boundary(self):
        registry = MetricsRegistry()
        store = WorldStore(np.zeros((4, 2)), registry=registry)
        with pytest.raises(NonFiniteCoordinateError):
            store.write_rows(np.array([0, 1]), np.array([[0.1, np.inf], [np.nan, 0.0]]))
        with pytest.raises(NonFiniteCoordinateError):
            store.write_row(2, np.nan, 0.5)
        with pytest.raises(NonFiniteCoordinateError):
            store.set_queries(np.array([[0.5, np.nan]]))
        with pytest.raises(NonFiniteCoordinateError):
            WorldStore(np.array([[np.inf, 0.0]]))
        assert registry.counter_values()["state.rejected_rows"] == 4
        store.publish()
        assert np.array_equal(store.read_rows(np.arange(4)), np.zeros((4, 2)))


class TestBoundedHistory:
    def test_ring_keeps_first_record(self):
        history = BoundedHistory(4)
        for record in range(10):
            history.append(record)
        assert list(history) == [0, 7, 8, 9]
        assert history[0] == 0 and history[-1] == 9 and history[1:] == [7, 8, 9]
        history.clear()
        assert len(history) == 0
        with pytest.raises(ConfigurationError):
            BoundedHistory(1)

    @pytest.mark.parametrize("method", ["fast_grid", "delta_grid"])
    def test_five_thousand_ticks_stay_bounded(self, method):
        rng = np.random.default_rng(9)
        system = MonitoringSystem.create(method, 2, rng.random((3, 2)))
        frames = [rng.random((500, 2)) for _ in range(2)]
        system.load(frames[0])
        for tick in range(5000):
            system.tick(frames[tick % 2])
        engine = system.engine
        assert len(system.history) == HISTORY_CAPACITY
        assert len(engine.stage_history) == engine.stage_history.capacity
        # The load record survives wrap-around, so skip_first still
        # skips exactly the initial build.
        assert system.history[0].timestamp == 0.0
        assert system.history[1].timestamp == 5000 - HISTORY_CAPACITY + 2
        steady = system.history[1:]
        want = sum(r.total_time for r in steady) / len(steady)
        assert system.mean_cycle_time() == pytest.approx(want)
        assert engine.mean_stage_times()["snapshot_csr"] >= 0.0
