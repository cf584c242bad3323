"""The snapshot buffer of §3: ``OBJ_curr`` and ``OBJ_snapshot``.

The paper's system model: objects report new positions *continuously and
asynchronously* into a current-position buffer; every ``tau`` time units a
consistent snapshot is taken and the monitoring cycle (index maintenance +
query answering) runs against that snapshot only.  Answers are therefore
exact for the snapshot instant — updating the index mid-cycle as reports
arrive would break that guarantee (§3, first paragraph).

:class:`PositionBuffer` is that buffer.  Since the world-state plane
landed it is a thin ingest adapter over a
:class:`~repro.state.WorldStore`: reports coalesce in a dict, fold into
the store's staging epoch in one vectorized write at snapshot time, and
the snapshot itself is the store's published read-only view — zero
copies anywhere on the path.  **Snapshots are immutable now**: writing
through the returned array raises ``ValueError`` where it used to
silently modify a private copy.

Drive a :class:`PositionBuffer` + :class:`~repro.core.monitor.MonitoringSystem`
pair directly (``system.tick(buffer.publish())`` is the whole loop), or
use :class:`repro.service.MonitoringSession` for query/object churn.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, OutOfRegionError
from ..obs.registry import MetricsRegistry
from ..state import WorldSnapshot, WorldStore


class PositionBuffer:
    """Current positions of a fixed population, updated asynchronously.

    Reports may arrive in any order, multiple times per object per cycle;
    only the latest report per object is in effect when a snapshot is
    taken.  Positions must lie in the unit square.
    """

    def __init__(
        self,
        initial_positions: np.ndarray,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        positions = np.asarray(initial_positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError("initial_positions must be an (n, 2) array")
        self._validate_region(positions)
        self.store = WorldStore(positions, registry=registry)
        self._n = len(positions)
        self._dirty: Dict[int, Tuple[float, float]] = {}
        self.reports_received = 0
        #: Reports that overwrote a still-pending report for the same
        #: object (the buffer "hit" its coalescing purpose).
        self.coalesced_reports = 0
        self.snapshots_taken = 0
        self._reports_seen = 0
        self._coalesced_seen = 0

    @staticmethod
    def _validate_region(positions: np.ndarray) -> None:
        if len(positions) == 0:
            return
        bad = np.nonzero(
            (positions[:, 0] < 0.0)
            | (positions[:, 0] >= 1.0)
            | (positions[:, 1] < 0.0)
            | (positions[:, 1] >= 1.0)
        )[0]
        if len(bad):
            x, y = positions[bad[0]]
            raise OutOfRegionError(float(x), float(y))

    @property
    def n_objects(self) -> int:
        return self._n

    @property
    def pending_reports(self) -> int:
        """Objects with reports not yet folded into a snapshot."""
        return len(self._dirty)

    def report(self, object_id: int, x: float, y: float) -> None:
        """One asynchronous position report from an object."""
        if not 0 <= object_id < self._n:
            raise ConfigurationError(
                f"object id {object_id} outside population [0, {self._n})"
            )
        if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
            raise OutOfRegionError(x, y)
        if object_id in self._dirty:
            self.coalesced_reports += 1
        self._dirty[object_id] = (x, y)
        self.reports_received += 1

    def report_batch(self, object_ids: Sequence[int], positions: np.ndarray) -> None:
        """A batch of reports (e.g. one radio frame's worth)."""
        positions = np.asarray(positions, dtype=np.float64)
        if len(object_ids) != len(positions):
            raise ConfigurationError("object_ids and positions length mismatch")
        for object_id, (x, y) in zip(object_ids, positions):
            self.report(int(object_id), float(x), float(y))

    def _fold(self) -> None:
        """Apply the coalesced reports in one vectorized store write."""
        if not self._dirty:
            return
        rows = np.fromiter(self._dirty.keys(), dtype=np.intp, count=len(self._dirty))
        points = np.array(list(self._dirty.values()), dtype=np.float64)
        self.store.write_rows(rows, points)
        self._dirty.clear()

    def publish(self) -> WorldSnapshot:
        """Fold pending reports and publish a consistent store epoch.

        An unchanged world republishes the same epoch — the snapshot
        object (and its memory) is shared, never re-copied.  Emits the
        per-snapshot ``buffer.*`` counters when the store has a live
        metrics registry.
        """
        registry = self.store.registry
        if registry.enabled:
            registry.inc(
                "buffer.reports", self.reports_received - self._reports_seen
            )
            registry.inc(
                "buffer.coalesced_hits",
                self.coalesced_reports - self._coalesced_seen,
            )
            registry.inc("buffer.objects_folded", len(self._dirty))
            self._reports_seen = self.reports_received
            self._coalesced_seen = self.coalesced_reports
        self._fold()
        self.snapshots_taken += 1
        return self.store.packed(self.store.publish())

    def snapshot(self) -> np.ndarray:
        """Fold pending reports in and return a consistent snapshot.

        The array is a **read-only view** of the published store epoch —
        shared zero-copy with every other consumer of the same epoch.
        Callers that used to scribble on the returned copy must copy
        explicitly now (``buffer.snapshot().copy()``).
        """
        return self.publish().positions
