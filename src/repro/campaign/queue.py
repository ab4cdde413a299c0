"""Durable campaign work queue: an append-only JSONL lease event log.

The queue never rewrites state in place.  ``campaign.json`` (written
once, atomically) holds the expanded cell list; ``queue.jsonl`` holds
one JSON event per line describing every transition a cell has made::

    {"kind": "lease",      "key": K, "worker": W, "expires": T, ...}
    {"kind": "heartbeat",  "key": K, "worker": W, "expires": T}
    {"kind": "done",       "key": K, "worker": W}
    {"kind": "fail",       "key": K, "attempts": N, "not_before": T, ...}
    {"kind": "release",    "key": K}
    {"kind": "quarantine", "key": K, "attempts": N, ...}

Replaying the log over the cell list reconstructs the exact queue
state, so a supervisor killed at any instant resumes where it stopped.
Appends are fsynced (write durability) and the reader tolerates torn
lines *anywhere*: every event is safe to lose — a dropped ``lease``
leaves the cell pending, a dropped ``done`` re-runs a cell whose
metrics are deterministic anyway — so recovery conservatively re-does
work rather than corrupting state.  The ``campaign.queue_torn_write``
fault point truncates an append mid-record (possibly mid-UTF-8) to
chaos-test exactly this path.

Cell lifecycle::

    pending ──lease──▶ leased ──done──▶ done
       ▲                  │
       │   fail/expire    │ (attempts < max_attempts: backoff retry)
       └──────────────────┤
                          │ (attempts >= max_attempts)
                          └──────────▶ quarantined
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigError
from ..resilience import faults
from ..resilience.atomic import append_line, tolerant_read_text

#: Bump when the queue event layout changes incompatibly.
QUEUE_SCHEMA = 1

PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"


def retry_delay(key: str, attempt: int, backoff_s: float,
                backoff_factor: float) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    The jitter derives from a hash of ``(key, attempt)`` — spread like
    randomness (retries of different cells don't stampede together) but
    reproducible across supervisor restarts, keeping chaos tests exact.
    Returns a delay in ``[base, 1.5 * base]``.
    """
    base = backoff_s * (backoff_factor ** max(0, attempt - 1))
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).hexdigest()
    frac = int(digest[:8], 16) / float(0xFFFFFFFF)
    return base * (1.0 + 0.5 * frac)


@dataclass
class CellState:
    """The live state of one campaign cell, rebuilt from the log."""

    index: int
    key: str
    workload: str
    prefetcher: str
    seed: int
    state: str = PENDING
    #: Failed attempts so far (a cell on its first try has 0).
    attempts: int = 0
    worker: Optional[str] = None
    lease_expires: Optional[float] = None
    #: Earliest wall-clock time the next attempt may start (backoff).
    not_before: float = 0.0
    error: Optional[str] = None

    @property
    def pair(self) -> Tuple[str, int]:
        """The ``(workload, seed)`` whose trace and baseline it runs on."""
        return self.workload, self.seed


class WorkQueue:
    """The durable lease queue over ``queue.jsonl``.

    Every mutator applies the event to in-memory state *and* appends it
    to the log in one call, so disk is always a replayable prefix of
    memory.  Construct via :meth:`create` (new campaign) or
    :meth:`open` (resume/status).
    """

    def __init__(self, path: Union[str, Path],
                 cells: Iterable[Dict[str, object]]):
        self.path = Path(path)
        self.cells: Dict[str, CellState] = {}
        for cell in cells:
            state = CellState(index=int(cell["index"]),
                              key=str(cell["key"]),
                              workload=str(cell["workload"]),
                              prefetcher=str(cell["prefetcher"]),
                              seed=int(cell["seed"]))
            self.cells[state.key] = state
        #: Events dropped during replay (torn/corrupt lines).
        self.torn_events = 0
        #: Whether the on-disk log currently ends with a newline; a
        #: torn append leaves it False and the next append repairs the
        #: framing by starting a fresh line.
        self._clean_tail = True

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, path: Union[str, Path],
               cells: Iterable[Dict[str, object]]) -> "WorkQueue":
        queue = cls(path, cells)
        if queue.path.exists():
            raise ConfigError(f"queue already exists: {queue.path}")
        queue._append({"kind": "init", "schema": QUEUE_SCHEMA,
                       "cells": len(queue.cells)})
        return queue

    @classmethod
    def open(cls, path: Union[str, Path],
             cells: Iterable[Dict[str, object]]) -> "WorkQueue":
        queue = cls(path, cells)
        queue._replay()
        return queue

    # -- event log -----------------------------------------------------------

    def _append(self, record: Dict[str, object]) -> None:
        record.setdefault("t", time.time())
        line = json.dumps(record, separators=(",", ":"))
        data = (line + "\n").encode("utf-8")
        site = faults.fires("campaign.queue_torn_write")
        if site is not None:
            # Simulate a crash mid-append: persist only a prefix of the
            # record — cut inside the line (and likely inside a UTF-8
            # sequence when one is present) — and no newline.
            data = data[:max(1, (len(data) - 1) * 2 // 3)]
        append_line(self.path, data, reframe=not self._clean_tail)
        self._clean_tail = data.endswith(b"\n")

    def _replay(self) -> None:
        if not self.path.exists():
            raise ConfigError(f"queue log not found: {self.path}")
        raw = self.path.read_bytes()
        self._clean_tail = (not raw) or raw.endswith(b"\n")
        for line in tolerant_read_text(self.path).splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.torn_events += 1
                continue
            if isinstance(record, dict):
                self._apply(record)

    def _apply(self, record: Dict[str, object]) -> None:
        kind = record.get("kind")
        if kind == "init":
            return
        cell = self.cells.get(str(record.get("key")))
        if cell is None:
            return  # event for a cell this campaign.json doesn't know
        if kind == "lease":
            cell.state = LEASED
            cell.worker = str(record.get("worker"))
            cell.lease_expires = float(record.get("expires", 0.0))
        elif kind == "heartbeat":
            if cell.state == LEASED \
                    and cell.worker == str(record.get("worker")):
                cell.lease_expires = float(record.get("expires", 0.0))
        elif kind == "done":
            # ``error`` keeps the last failure: why a cell was retried.
            cell.state = DONE
            cell.worker = str(record.get("worker", "")) or cell.worker
            cell.lease_expires = None
        elif kind == "fail":
            cell.state = PENDING
            cell.worker = None
            cell.lease_expires = None
            cell.attempts = int(record.get("attempts", cell.attempts + 1))
            cell.not_before = float(record.get("not_before", 0.0))
            cell.error = str(record.get("error", "")) or None
        elif kind == "release":
            if cell.state == LEASED:
                cell.state = PENDING
                cell.worker = None
                cell.lease_expires = None
        elif kind == "quarantine":
            cell.state = QUARANTINED
            cell.worker = None
            cell.lease_expires = None
            cell.attempts = int(record.get("attempts", cell.attempts))
            cell.error = str(record.get("error", "")) or None
        # Unknown kinds are skipped: newer writers may add event types.

    def _event(self, record: Dict[str, object]) -> None:
        self._apply(record)
        self._append(record)

    # -- transitions ---------------------------------------------------------

    def claim(self, now: Optional[float] = None,
              held: AbstractSet[Tuple[str, int]] = frozenset(),
              others: AbstractSet[Tuple[str, int]] = frozenset()
              ) -> Optional[CellState]:
        """The next pending cell whose backoff has elapsed, or ``None``.

        A worker builds a ``(workload, seed)`` pair's trace and
        no-prefetch baseline once and reuses them for every cell of the
        pair it runs, so claims are trace-affine.  ``held`` is the
        pairs the claiming worker has already built and ``others`` the
        pairs any other live worker holds.  The claim is the
        lowest-index ready cell of a held pair; failing that, of a pair
        no other worker holds; failing that, the lowest-index ready
        cell, so no worker idles while work is left.  With neither set
        given (the serial path) it is simply the lowest-index ready
        cell.
        """
        now = time.time() if now is None else now
        ready = [cell for cell in self.cells.values()
                 if cell.state == PENDING and cell.not_before <= now]
        if not ready:
            return None

        def rank(cell: CellState) -> Tuple[int, int]:
            pair = cell.pair
            tier = 0 if pair in held else 2 if pair in others else 1
            return tier, cell.index

        return min(ready, key=rank)

    def next_not_before(self) -> Optional[float]:
        """Earliest backoff deadline among pending cells, if any wait."""
        waiting = [cell.not_before for cell in self.cells.values()
                   if cell.state == PENDING and cell.not_before > 0]
        return min(waiting) if waiting else None

    def lease(self, key: str, worker: str, ttl_s: float,
              now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        self._event({"kind": "lease", "key": key, "worker": worker,
                     "attempt": self.cells[key].attempts,
                     "expires": now + ttl_s, "t": now})

    def heartbeat(self, key: str, worker: str, ttl_s: float,
                  now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        cell = self.cells.get(key)
        if cell is None or cell.state != LEASED or cell.worker != worker:
            return  # stale heartbeat from a reclaimed lease
        self._event({"kind": "heartbeat", "key": key, "worker": worker,
                     "expires": now + ttl_s, "t": now})

    def complete(self, key: str, worker: str) -> None:
        self._event({"kind": "done", "key": key, "worker": worker})

    def fail(self, key: str, error: str, not_before: float) -> None:
        cell = self.cells[key]
        self._event({"kind": "fail", "key": key,
                     "attempts": cell.attempts + 1,
                     "not_before": not_before, "error": error})

    def release(self, key: str) -> None:
        """Return a leased cell to pending without charging an attempt
        (graceful shutdown / supervisor restart)."""
        self._event({"kind": "release", "key": key})

    def quarantine(self, key: str, error: str) -> None:
        cell = self.cells[key]
        self._event({"kind": "quarantine", "key": key,
                     "attempts": cell.attempts, "error": error})

    # -- queries -------------------------------------------------------------

    def expired(self, now: Optional[float] = None) -> List[CellState]:
        """Leased cells whose workers have missed their TTL."""
        now = time.time() if now is None else now
        return [cell for cell in self.cells.values()
                if cell.state == LEASED
                and cell.lease_expires is not None
                and cell.lease_expires < now]

    def leased(self) -> List[CellState]:
        return [cell for cell in self.cells.values()
                if cell.state == LEASED]

    def counts(self) -> Dict[str, int]:
        counts = {PENDING: 0, LEASED: 0, DONE: 0, QUARANTINED: 0}
        for cell in self.cells.values():
            counts[cell.state] = counts.get(cell.state, 0) + 1
        return counts

    def finished(self) -> bool:
        """True once every cell is done or quarantined."""
        return all(cell.state in (DONE, QUARANTINED)
                   for cell in self.cells.values())

    def quarantined(self) -> List[CellState]:
        """The poison-cell list, in cell order."""
        return sorted((cell for cell in self.cells.values()
                       if cell.state == QUARANTINED),
                      key=lambda cell: cell.index)


def read_queue_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """All parseable queue events in file order (for status/dashboard).

    Torn or corrupt lines are skipped — the dashboard and ``campaign
    status`` must render mid-campaign, over a file a supervisor is
    actively appending to.
    """
    path = Path(path)
    events: List[Dict[str, object]] = []
    for line in tolerant_read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            events.append(record)
    return events
