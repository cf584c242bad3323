"""k-NN answer lists and the columnar answer batch.

Each monitored query maintains "an ordered list of k objects sorted from
the nearest neighbor to the furthest" (paper, Fig. 1).  :class:`AnswerList`
is that structure: a bounded, distance-sorted list of ``(object_id,
distance)`` pairs.  For the small ``k`` typical of this workload (the paper
sweeps k up to 20) binary-search insertion into a flat list beats a heap.
The pure-Python reproduction engines build their answers with it.

:class:`AnswerBatch` is the one answer representation between an engine
and the caller: a whole cycle's answers as two ``(nq, k)`` arrays of
squared distances and object ids.  The vectorized engines hand their
kernel output over as-is; the reproduction engines convert their
:class:`AnswerList` objects once with :meth:`AnswerBatch.from_lists`.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from ..errors import ConfigurationError

Neighbor = Tuple[int, float]
"""An ``(object_id, distance)`` pair as reported to users."""


class AnswerList:
    """A bounded list of the k nearest objects seen so far.

    Entries are ``(squared_distance, object_id)`` so plain tuple ordering
    sorts by distance (object id breaks exact ties deterministically).
    """

    __slots__ = ("k", "_entries")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self._entries: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def full(self) -> bool:
        """True once k candidates have been collected."""
        return len(self._entries) >= self.k

    @property
    def worst_dist2(self) -> float:
        """Squared distance of the current k-th nearest candidate.

        ``inf`` while the list still has free slots, so any candidate is
        accepted.
        """
        if len(self._entries) < self.k:
            return math.inf
        return self._entries[-1][0]

    def offer(self, dist2: float, object_id: int) -> bool:
        """Consider a candidate; keep it only if it beats the k-th best.

        Returns True when the candidate entered the list.  The comparison
        is on the full ``(dist2, object_id)`` tuple, so exact distance
        ties at the k-th slot resolve to the lowest ID *regardless of the
        order candidates arrive in* — the final content is a pure
        function of the candidate multiset.  That makes answers identical
        across index backends that enumerate cell contents in different
        orders (see :mod:`repro.engines.snapshot`).
        """
        entries = self._entries
        entry = (dist2, object_id)
        if len(entries) < self.k:
            insort(entries, entry)
            return True
        if entry >= entries[-1]:
            return False
        entries.pop()
        insort(entries, entry)
        return True

    def object_ids(self) -> List[int]:
        """The neighbor IDs, nearest first."""
        return [object_id for _, object_id in self._entries]

    def neighbors(self) -> List[Neighbor]:
        """The answer as ``(object_id, distance)`` pairs, nearest first."""
        return [(object_id, math.sqrt(d2)) for d2, object_id in self._entries]

    def kth_dist(self) -> float:
        """Distance to the k-th (furthest reported) neighbor."""
        if not self._entries:
            return math.inf
        return math.sqrt(self._entries[-1][0])


@dataclass(frozen=True)
class QueryAnswer:
    """An immutable, timestamped k-NN answer for one query.

    ``timestamp`` is the snapshot time the answer is exact for — the paper's
    guarantee is exactness with a reporting delay, so every answer carries
    the instant it refers to.
    """

    query_id: int
    timestamp: float
    neighbors: Tuple[Neighbor, ...] = field(default=())

    @property
    def k(self) -> int:
        return len(self.neighbors)

    def object_ids(self) -> Tuple[int, ...]:
        return tuple(object_id for object_id, _ in self.neighbors)

    def kth_dist(self) -> float:
        if not self.neighbors:
            return math.inf
        return self.neighbors[-1][1]


def _read_only(array: np.ndarray) -> np.ndarray:
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


class AnswerBatch(Sequence[QueryAnswer]):
    """One cycle's exact k-NN answers for every query, column-wise.

    ``d2[i, j]`` / ``ids[i, j]`` are the squared distance and object id of
    query ``i``'s ``j``-th nearest neighbor; each row is sorted by
    ``(distance, id)``.  A query answered with fewer than ``k`` neighbors
    has its row padded with ``inf`` / ``-1``, exactly as
    :func:`~repro.core.fast_index.batch_knn` pads.  ``timestamp`` is the
    snapshot time the answers are exact for.

    Both arrays are read-only, and a batch is a value: an engine that
    rewrites its answer state on later cycles hands over arrays it never
    writes again (or an owned copy), so an answer held from one cycle is
    unchanged after the next.

    The batch is also a read-only ``Sequence[QueryAnswer]``: row ``i`` is
    packaged on access with one ``np.sqrt`` over the row.  IEEE sqrt is
    correctly rounded, so the distances are bit-identical to
    ``math.sqrt`` of each entry.  Padding is not reported.
    """

    __slots__ = ("d2", "ids", "timestamp")

    def __init__(self, d2: np.ndarray, ids: np.ndarray, timestamp: float = 0.0) -> None:
        d2 = np.asarray(d2, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if d2.ndim != 2 or d2.shape != ids.shape:
            raise ConfigurationError(
                f"an answer batch needs two equal (nq, k) arrays, got "
                f"{d2.shape} and {ids.shape}"
            )
        self.d2 = _read_only(d2)
        self.ids = _read_only(ids)
        self.timestamp = float(timestamp)

    @classmethod
    def empty(cls, k: int, timestamp: float = 0.0) -> "AnswerBatch":
        """A batch with no queries."""
        return cls(np.empty((0, k)), np.empty((0, k), dtype=np.int64), timestamp)

    @classmethod
    def from_lists(
        cls, answers: Sequence[Iterable[Tuple[float, int]]], k: int, timestamp: float = 0.0
    ) -> "AnswerBatch":
        """Pack per-query ``(d2, id)`` lists (e.g. :class:`AnswerList`).

        Each list must be sorted and hold at most ``k`` entries; shorter
        rows are padded with ``inf`` / ``-1``.
        """
        rows = [list(answer) for answer in answers]
        lengths = np.fromiter((len(r) for r in rows), dtype=np.intp, count=len(rows))
        d2 = np.full((len(rows), k), np.inf)
        ids = np.full((len(rows), k), -1, dtype=np.int64)
        flat = np.array([entry for row in rows for entry in row], dtype=np.float64)
        if len(flat):
            filled = np.arange(k) < lengths[:, None]
            d2[filled] = flat[:, 0]
            ids[filled] = flat[:, 1]
        return cls(d2, ids, timestamp)

    def with_timestamp(self, timestamp: float) -> "AnswerBatch":
        """The same answers stamped with another snapshot time (no copy)."""
        return AnswerBatch(self.d2, self.ids, timestamp)

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    def neighbor_rows(self, ids: Optional[np.ndarray] = None) -> List[Tuple[Neighbor, ...]]:
        """Every query's ``(object_id, distance)`` pairs, nearest first.

        Distances come from one vectorized ``np.sqrt`` over the batch.
        ``ids`` optionally replaces :attr:`ids` in the output, e.g. the
        same ids translated into a caller's namespace by one gather.
        Padding is dropped.
        """
        id_rows = (self.ids if ids is None else ids).tolist()
        dist_rows = np.sqrt(self.d2).tolist()
        if not len(self.ids) or self.ids[:, -1].min() >= 0:
            return [tuple(zip(i, d)) for i, d in zip(id_rows, dist_rows)]
        lengths = (self.ids >= 0).sum(axis=1).tolist()
        return [
            tuple(zip(i[:n], d[:n])) for i, d, n in zip(id_rows, dist_rows, lengths)
        ]

    def __len__(self) -> int:
        return len(self.ids)

    @overload
    def __getitem__(self, index: int) -> QueryAnswer: ...

    @overload
    def __getitem__(self, index: slice) -> List[QueryAnswer]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[QueryAnswer, List[QueryAnswer]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = range(len(self))[index]
        n = int((self.ids[row] >= 0).sum())
        neighbors = zip(
            self.ids[row, :n].tolist(), np.sqrt(self.d2[row, :n]).tolist()
        )
        return QueryAnswer(row, self.timestamp, tuple(neighbors))

    def __iter__(self) -> Iterator[QueryAnswer]:
        timestamp = self.timestamp
        for row, neighbors in enumerate(self.neighbor_rows()):
            yield QueryAnswer(row, timestamp, neighbors)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AnswerBatch):
            return (
                self.timestamp == other.timestamp
                and np.array_equal(self.ids, other.ids)
                and np.array_equal(self.d2, other.d2)
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        nq, k = self.ids.shape
        return f"AnswerBatch(nq={nq}, k={k}, timestamp={self.timestamp})"


def answers_equal(
    left: Sequence[Neighbor], right: Sequence[Neighbor], tol: float = 1e-12
) -> bool:
    """Whether two answers agree, allowing reordering of exact distance ties.

    Two valid exact answers may order equidistant objects differently; this
    comparison treats them as equal when the sorted distance profiles match
    and IDs only differ inside groups of equal distance.  The final group is
    special: when several objects tie at the k-th distance, any size-k
    truncation is a correct answer, so for that group only the size is
    compared.
    """
    if len(left) != len(right):
        return False
    for (_, dl), (_, dr) in zip(left, right):
        if abs(dl - dr) > tol:
            return False

    def _groups(ans: Sequence[Neighbor]) -> List[frozenset]:
        groups: List[frozenset] = []
        group: List[int] = []
        group_dist = None
        for object_id, d in ans:
            if group_dist is None or abs(d - group_dist) <= tol:
                group.append(object_id)
                group_dist = d if group_dist is None else group_dist
            else:
                groups.append(frozenset(group))
                group = [object_id]
                group_dist = d
        if group:
            groups.append(frozenset(group))
        return groups

    left_groups = _groups(left)
    right_groups = _groups(right)
    if len(left_groups) != len(right_groups):
        return False
    # All interior groups must hold the same IDs; the group cut by the k-th
    # position may legitimately hold different (equidistant) IDs.
    return all(
        gl == gr for gl, gr in zip(left_groups[:-1], right_groups[:-1])
    ) and len(left_groups[-1]) == len(right_groups[-1])
