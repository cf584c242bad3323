"""Tests for the snapshot buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffer import PositionBuffer
from repro.errors import ConfigurationError, OutOfRegionError


class TestPositionBuffer:
    def test_bad_shape(self):
        with pytest.raises(ConfigurationError):
            PositionBuffer(np.zeros((3, 3)))

    def test_initial_out_of_region(self):
        with pytest.raises(OutOfRegionError):
            PositionBuffer(np.asarray([[0.5, 1.5]]))

    def test_snapshot_is_immutable(self):
        # The snapshot is a read-only view of the published store epoch,
        # shared zero-copy with every consumer — writes must raise.
        buffer = PositionBuffer(np.asarray([[0.5, 0.5]]))
        snap = buffer.snapshot()
        with pytest.raises(ValueError):
            snap[0, 0] = 0.9
        assert buffer.snapshot()[0, 0] == 0.5

    def test_clean_snapshot_shares_memory(self):
        # No dirty reports -> the same epoch is republished: same bytes,
        # no copy anywhere on the path.
        buffer = PositionBuffer(np.asarray([[0.5, 0.5], [0.1, 0.2]]))
        first = buffer.snapshot()
        second = buffer.snapshot()
        assert np.shares_memory(first, second)
        buffer.report(1, 0.3, 0.3)
        third = buffer.snapshot()
        assert tuple(third[1]) == (0.3, 0.3)
        # Earlier snapshots stay frozen at their epoch's content.
        assert tuple(first[1]) == (0.1, 0.2)

    def test_publish_returns_versioned_snapshot(self):
        buffer = PositionBuffer(np.asarray([[0.5, 0.5]]))
        snap = buffer.publish()
        again = buffer.publish()
        assert again.epoch == snap.epoch and again.token == snap.token
        buffer.report(0, 0.6, 0.6)
        bumped = buffer.publish()
        assert bumped.epoch > snap.epoch

    def test_report_applies_on_snapshot(self):
        buffer = PositionBuffer(np.asarray([[0.5, 0.5], [0.1, 0.1]]))
        buffer.report(0, 0.7, 0.8)
        assert buffer.pending_reports == 1
        snap = buffer.snapshot()
        assert tuple(snap[0]) == (0.7, 0.8)
        assert tuple(snap[1]) == (0.1, 0.1)
        assert buffer.pending_reports == 0

    def test_last_report_wins(self):
        buffer = PositionBuffer(np.asarray([[0.5, 0.5]]))
        buffer.report(0, 0.2, 0.2)
        buffer.report(0, 0.3, 0.3)
        assert tuple(buffer.snapshot()[0]) == (0.3, 0.3)
        assert buffer.reports_received == 2

    def test_unknown_object(self):
        buffer = PositionBuffer(np.asarray([[0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            buffer.report(5, 0.1, 0.1)

    def test_out_of_region_report(self):
        buffer = PositionBuffer(np.asarray([[0.5, 0.5]]))
        with pytest.raises(OutOfRegionError):
            buffer.report(0, 1.0, 0.5)

    def test_report_batch(self):
        buffer = PositionBuffer(np.asarray([[0.5, 0.5], [0.4, 0.4], [0.3, 0.3]]))
        buffer.report_batch([2, 0], np.asarray([[0.9, 0.9], [0.8, 0.8]]))
        snap = buffer.snapshot()
        assert tuple(snap[2]) == (0.9, 0.9)
        assert tuple(snap[0]) == (0.8, 0.8)

    def test_report_batch_length_mismatch(self):
        buffer = PositionBuffer(np.asarray([[0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            buffer.report_batch([0, 1], np.asarray([[0.1, 0.1]]))

    def test_empty_population(self):
        buffer = PositionBuffer(np.empty((0, 2)))
        assert buffer.snapshot().shape == (0, 2)
