"""The Training Table: a PC/page-indexed CAM of per-stream state.

Paper §3.2–3.3: the Training Table "keeps track of recent accesses by a
given PC to a specific page".  Each row remembers the stream's last
page offset (to compute the next delta), the recent delta history fed
to the SNN, and which output neuron fired for that input — the neuron
that will be labelled (or confidence-updated) once the *actual* next
delta is observed.

Modelled as the paper's 1K-row CAM with LRU replacement, held in flat
arrays: row ``r`` of every array belongs to one stream, and rows
``[0, rows)`` are in use.  :meth:`PathfinderPrefetcher.process
<repro.core.pathfinder.PathfinderPrefetcher.process>` and the compiled
PATHFINDER loop (:mod:`repro.snn.ckernel`) read and write the same
arrays, so either can pick up where the other stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

#: ``fired`` value of a row with no neuron awaiting its next delta.
NO_NEURON = -1


@dataclass(frozen=True)
class TrainingEntry:
    """A snapshot of one stream's row (see :meth:`TrainingTable.entries`).

    Attributes:
        pc, page: The stream's CAM key.
        last_offset: Page offset of the stream's most recent access.
        deltas: Recent in-range deltas, oldest first (at most H).
        fired_neuron: SNN neuron that fired for the last query, awaiting
            the next delta so it can be labelled / confidence-checked.
        predicted: Deltas that were prefetched off the last query.
    """

    pc: int
    page: int
    last_offset: int
    deltas: Tuple[int, ...]
    fired_neuron: Optional[int]
    predicted: Tuple[int, ...]


class TrainingTable:
    """LRU-bounded CAM from (pc, page) to a stream's row.

    Args:
        capacity: Rows (paper: 1K).
        history: Delta-history length H.
        degree: Most deltas one query can predict (the prefetch degree).
    """

    def __init__(self, capacity: int = 1024, history: int = 3,
                 degree: int = 2):
        if capacity < 1:
            raise ConfigError("TrainingTable capacity must be >= 1")
        if history < 1:
            raise ConfigError("history must be >= 1")
        if degree < 1:
            raise ConfigError("degree must be >= 1")
        self.capacity = capacity
        self.history = history
        self.pc = np.zeros(capacity, dtype=np.int64)
        self.page = np.zeros(capacity, dtype=np.int64)
        self.last_offset = np.zeros(capacity, dtype=np.int64)
        # Right-aligned delta histories: a row's last n_deltas columns
        # hold its deltas, oldest first, and the columns before them
        # are zero, which is already the cold-page padding {0, D1, D2}.
        self.deltas = np.zeros((capacity, history), dtype=np.int64)
        self.n_deltas = np.zeros(capacity, dtype=np.int64)
        self.fired = np.full(capacity, NO_NEURON, dtype=np.int64)
        self.predicted = np.zeros((capacity, degree), dtype=np.int64)
        self.n_predicted = np.zeros(capacity, dtype=np.int64)
        # LRU stamps: a row's stamp is the clock value of its last use.
        self.stamp = np.zeros(capacity, dtype=np.int64)
        self.rows = 0
        self.clock = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self.rows

    def _touch(self, row: int) -> None:
        self.clock += 1
        self.stamp[row] = self.clock

    def lookup(self, pc: int, page: int) -> int:
        """Return the stream's row (refreshing its LRU stamp), or -1."""
        used = self.rows
        hits = np.flatnonzero((self.pc[:used] == pc)
                              & (self.page[:used] == page))
        if not hits.size:
            return -1
        row = int(hits[0])
        self._touch(row)
        return row

    def insert(self, pc: int, page: int, offset: int) -> int:
        """Allocate a row for a stream's first access to a page (after a
        :meth:`lookup` miss), evicting the least recently used row when
        the table is full."""
        if self.rows < self.capacity:
            row = self.rows
            self.rows += 1
        else:
            row = int(np.argmin(self.stamp))
            self.evictions += 1
        self.pc[row] = pc
        self.page[row] = page
        self.last_offset[row] = offset
        self.deltas[row] = 0
        self.n_deltas[row] = 0
        self.fired[row] = NO_NEURON
        self.n_predicted[row] = 0
        self._touch(row)
        return row

    def record_delta(self, row: int, delta: int, in_range: bool) -> None:
        """Advance a stream by one observed delta.

        Out-of-range deltas break the pattern: the history is cleared
        (the stream effectively restarts), mirroring how a reduced
        delta range loses coverage in the paper's Figure 5.
        """
        history = self.deltas[row]
        if in_range:
            history[:-1] = history[1:]
            history[-1] = delta
            self.n_deltas[row] = min(self.n_deltas[row] + 1, self.history)
        else:
            history[:] = 0
            self.n_deltas[row] = 0
            self.fired[row] = NO_NEURON

    def row_deltas(self, row: int) -> List[int]:
        """The stream's recent deltas, oldest first."""
        n = int(self.n_deltas[row])
        return self.deltas[row, self.history - n:].tolist()

    def row_predicted(self, row: int) -> Tuple[int, ...]:
        """The deltas prefetched off the stream's last query."""
        return tuple(self.predicted[row, :self.n_predicted[row]].tolist())

    def set_predicted(self, row: int, deltas: Sequence[int]) -> None:
        self.predicted[row, :len(deltas)] = deltas
        self.n_predicted[row] = len(deltas)

    def entries(self) -> List[TrainingEntry]:
        """Snapshots of every row, least recently used first."""
        order = np.argsort(self.stamp[:self.rows], kind="stable")
        return [TrainingEntry(
            pc=int(self.pc[row]), page=int(self.page[row]),
            last_offset=int(self.last_offset[row]),
            deltas=tuple(self.row_deltas(row)),
            fired_neuron=(None if self.fired[row] == NO_NEURON
                          else int(self.fired[row])),
            predicted=self.row_predicted(row)) for row in order.tolist()]
