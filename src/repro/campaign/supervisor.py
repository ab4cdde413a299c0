"""The campaign supervisor: lease, reclaim, retry, quarantine, resume.

One :class:`Campaign` owns a directory::

    <dir>/campaign.json   the expanded spec + cell list (written once)
    <dir>/queue.jsonl     append-only lease/retry/quarantine event log
    <dir>/ledger.jsonl    the shared RunLedger — source of truth for
                          completed cells (one record per cell, plus
                          manifest / resume / finish records)

The supervisor is the **single writer** of both JSONL files: workers
never touch disk, they stream rows back over a queue.  That keeps the
ledger single-writer and makes the whole campaign resumable from any
crash point — on resume, the ledger reconciles the queue (a cell
recorded complete is *never* re-executed) and stale leases from the
dead supervisor are released without charging an attempt.

Failed cells retry with exponential backoff + deterministic jitter
(:func:`~repro.campaign.queue.retry_delay`), cells failing
``max_attempts`` times are quarantined (poison-cell records in queue
*and* ledger — the campaign keeps going), expired leases — and, with a
cell timeout, cells that have run too long — are reclaimed by killing
and respawning the worker, and when worker processes cannot be spawned
at all the campaign degrades to serial in-process execution.
SIGINT/SIGTERM flush and release cleanly, so interruption at any point
resumes bit-identically — every cell is an independent seeded run.

``Evaluation.run_cells`` runs every parallel or supervised grid as an
ephemeral campaign (:meth:`Campaign.for_grid`) in a temporary
directory: the finished rows come back through :attr:`Campaign.results`
and the caller's run ledger records them.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_mod
import signal
import time
from dataclasses import dataclass, fields
from itertools import count
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..errors import ConfigError
from ..obs.ledger import RunLedger, git_state, new_run_id
from ..resilience import faults
from ..resilience.atomic import atomic_write_json
from .queue import (
    DONE,
    LEASED,
    PENDING,
    QUARANTINED,
    CellState,
    WorkQueue,
    read_queue_events,
    retry_delay,
)
from .spec import CAMPAIGN_SCHEMA, CampaignCell, CampaignSpec
from .worker import execute_cell, worker_main

CAMPAIGN_FILE = "campaign.json"
QUEUE_FILE = "queue.jsonl"
LEDGER_FILE = "ledger.jsonl"

#: Zeroed metrics recorded for quarantined (poison) cells.
_ZERO_METRICS = {key: 0 for key in ("ipc", "speedup", "accuracy",
                                    "coverage", "issued", "useful",
                                    "late", "dropped")}


@dataclass
class CampaignStats:
    """Resilience accounting for one supervisor run, or several added up.

    The one stats schema: campaign and experiment ledgers record
    :meth:`to_dict` as ``finish.resilience``, the dashboard renders it,
    and ``repro experiment`` prints :meth:`summary` as its
    ``[resilience]`` line.
    """

    leases: int = 0
    completed: int = 0
    reconciled: int = 0
    retries: int = 0
    expirations: int = 0
    worker_crashes: int = 0
    quarantined: int = 0
    serial_fallback: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "leases": self.leases,
            "completed": self.completed,
            "reconciled": self.reconciled,
            "retries": self.retries,
            "expirations": self.expirations,
            "worker_crashes": self.worker_crashes,
            "quarantined": self.quarantined,
            "serial_fallback": self.serial_fallback,
        }

    def add(self, other: "CampaignStats") -> None:
        """Accumulate another run's counts (one experiment, many grids)."""
        for fld in fields(self):
            mine, theirs = getattr(self, fld.name), getattr(other, fld.name)
            setattr(self, fld.name, (mine or theirs)
                    if isinstance(mine, bool) else mine + theirs)

    def summary(self) -> str:
        parts = [f"cells: {self.completed} completed"]
        if self.reconciled:
            parts.append(f"{self.reconciled} reconciled")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.expirations:
            parts.append(f"{self.expirations} lease(s) expired")
        if self.worker_crashes:
            parts.append(f"{self.worker_crashes} worker crash(es)")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.serial_fallback:
            parts.append("serial fallback")
        return ", ".join(parts)


class _WorkerHandle:
    """Supervisor-side bookkeeping for one worker process."""

    def __init__(self, worker_id: str, process, task_q):
        self.worker_id = worker_id
        self.process = process
        self.task_q = task_q
        #: Key of the cell this worker is currently leasing, if any.
        self.busy: Optional[str] = None
        #: ``(workload, seed)`` pairs this process has leased a cell of:
        #: it has built, or is building, their traces and baselines.
        self.pairs: Set[Tuple[str, int]] = set()


class Campaign:
    """One campaign directory: spec + queue + ledger + supervisor loop."""

    def __init__(self, directory: Union[str, Path], spec: CampaignSpec,
                 queue: WorkQueue, ledger: RunLedger,
                 fault_spec: Optional[str] = None,
                 specs: Optional[Dict[str, object]] = None):
        self.directory = Path(directory)
        self.spec = spec
        self.queue = queue
        self.ledger = ledger
        self.fault_spec = fault_spec
        self.stats = CampaignStats()
        #: What a worker runs per cell key when it is not the cell's
        #: registry name: a grid's ``PathfinderConfig`` cells.
        self.specs = dict(specs or {})
        #: ``(row, registry, events, series)`` per finished cell key.
        self.results: Dict[str, tuple] = {}
        self._deadlines: Dict[str, float] = {}
        self._cell_timeout_s: Optional[float] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, directory: Union[str, Path], spec: CampaignSpec,
               argv: Optional[List[str]] = None,
               fault_spec: Optional[str] = None) -> "Campaign":
        """Initialise a campaign directory from an expanded spec."""
        directory = Path(directory)
        if (directory / CAMPAIGN_FILE).exists():
            raise ConfigError(
                f"campaign already exists: {directory / CAMPAIGN_FILE} "
                "(use 'repro campaign resume' to continue it)")
        directory.mkdir(parents=True, exist_ok=True)
        cells = spec.expand()
        run_id = new_run_id()
        atomic_write_json(directory / CAMPAIGN_FILE, {
            "schema": CAMPAIGN_SCHEMA,
            "run_id": run_id,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime()),
            "git": git_state(),
            "fault_spec": fault_spec,
            "spec": spec.to_dict(),
            "cells": [cell.to_dict() for cell in cells],
        })
        ledger = RunLedger(directory / LEDGER_FILE, run_id)
        ledger.write_manifest("campaign", list(argv or []), spec.to_dict(),
                              seeds=list(spec.seeds))
        queue = WorkQueue.create(directory / QUEUE_FILE,
                                 [cell.to_dict() for cell in cells])
        return cls(directory, spec, queue, ledger, fault_spec=fault_spec)

    @classmethod
    def for_grid(cls, directory: Union[str, Path], spec: CampaignSpec,
                 cells: Sequence[CampaignCell],
                 specs: Dict[str, object]) -> "Campaign":
        """A throwaway campaign over a grid's own cells.

        ``Evaluation.run_cells`` builds one per parallel or supervised
        grid in a temporary directory.  ``cells`` replace
        ``spec.expand()``, and ``specs`` maps each cell key to what its
        worker runs: a registry name or a ``PathfinderConfig``.
        Nothing reopens the directory, so it holds only the queue and
        the ledger: no ``campaign.json`` and no manifest.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        queue = WorkQueue.create(directory / QUEUE_FILE,
                                 [cell.to_dict() for cell in cells])
        ledger = RunLedger(directory / LEDGER_FILE, new_run_id())
        return cls(directory, spec, queue, ledger, specs=specs)

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "Campaign":
        """Reopen an existing campaign directory (resume/status)."""
        directory = Path(directory)
        meta = cls.read_meta(directory)
        spec = CampaignSpec.from_dict(meta["spec"])
        queue = WorkQueue.open(directory / QUEUE_FILE, meta["cells"])
        ledger = RunLedger.load(directory / LEDGER_FILE)
        return cls(directory, spec, queue, ledger,
                   fault_spec=meta.get("fault_spec"))

    @staticmethod
    def read_meta(directory: Union[str, Path]) -> Dict[str, object]:
        path = Path(directory) / CAMPAIGN_FILE
        try:
            meta = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"not a campaign directory: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"corrupt {path}: {exc}") from None
        if meta.get("schema") != CAMPAIGN_SCHEMA:
            raise ConfigError(
                f"{path}: campaign schema {meta.get('schema')!r} "
                f"(this build reads {CAMPAIGN_SCHEMA})")
        return meta

    # -- resume --------------------------------------------------------------

    def reconcile(self) -> None:
        """Align the queue with the ledger after a supervisor death.

        The ledger is the source of truth for completed work: any cell
        it records as ok/retried is marked done in the queue (it will
        never be re-executed), quarantined records re-quarantine, and
        leases held by the dead supervisor's workers are released back
        to pending without charging an attempt.
        """
        recorded: Dict[str, Dict[str, object]] = {}
        for record in self.ledger._records:
            if record.get("kind") == "cell" and record.get("key"):
                recorded[str(record["key"])] = record  # last write wins
        for key, record in recorded.items():
            cell = self.queue.cells.get(key)
            if cell is None:
                continue
            outcome = str(record.get("outcome", "ok"))
            if outcome in ("ok", "retried") and cell.state != DONE:
                self.queue.complete(key, worker="reconcile")
                self.stats.reconciled += 1
            elif outcome == "quarantined" and cell.state != QUARANTINED:
                self.queue.quarantine(key, str(record.get("error") or
                                               "quarantined"))
        for cell in self.queue.leased():
            self.queue.release(cell.key)

    # -- the supervisor loop -------------------------------------------------

    def run(self, workers: Optional[int] = None,
            stop_after: Optional[int] = None,
            echo: Callable[[str], None] = print,
            cell_timeout_s: Optional[float] = None,
            context: Optional[Dict[str, object]] = None
            ) -> Dict[str, object]:
        """Drive the campaign until finished, stopped, or interrupted.

        Returns a summary dict (``finished``, ``interrupted``,
        ``counts``, ``stats``).  Installs SIGINT/SIGTERM handlers for
        the duration: the first signal stops leasing, flushes the
        queue/ledger, and releases outstanding leases so ``repro
        campaign resume`` continues bit-identically.  With
        ``cell_timeout_s``, a cell that has run that long is reclaimed
        like an expired lease and charged an attempt.  ``context`` adds
        to what every worker receives: a grid's ``evaluation`` and what
        its parent observes.

        The armed faults are the stored ``fault_spec``, or else the
        plan armed in this process; each cell gets a fresh copy.
        """
        n_workers = self.spec.workers if workers is None else workers
        plan = (faults.FaultPlan.parse(self.fault_spec)
                if self.fault_spec else faults.active())
        self._cell_timeout_s = cell_timeout_s
        context = dict(context or {}, loads=self.spec.loads,
                       budget=self.spec.budget,
                       lease_ttl_s=self.spec.lease_ttl_s,
                       heartbeat_s=self.spec.heartbeat_s)
        start = time.perf_counter()
        stop_flag = {"stop": False}

        def _on_signal(signum, frame):  # noqa: ARG001
            stop_flag["stop"] = True

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, _on_signal)
            except ValueError:
                pass  # not the main thread (tests drive us directly)
        interrupted = False
        try:
            with faults.injected(plan):
                if n_workers <= 0:
                    interrupted = self._run_serial(context, stop_flag,
                                                   stop_after, echo)
                else:
                    interrupted = self._run_pool(n_workers, plan, context,
                                                 stop_flag, stop_after,
                                                 echo)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        finished = self.queue.finished()
        wall_s = time.perf_counter() - start
        self.ledger.finish(wall_s, status="ok" if finished
                           else "interrupted",
                           resilience=self.stats.to_dict())
        return {
            "finished": finished,
            "interrupted": interrupted and not finished,
            "counts": self.queue.counts(),
            "quarantined": [cell.key for cell in self.queue.quarantined()],
            "stats": self.stats.to_dict(),
            "wall_s": wall_s,
        }

    def _lease_ttl(self, key: str, now: float) -> float:
        """Lease time from ``now``: the TTL, cut at the cell's deadline."""
        deadline = self._deadlines.get(key)
        if deadline is None:
            return self.spec.lease_ttl_s
        return min(self.spec.lease_ttl_s, deadline - now)

    def _run_pool(self, n_workers: int, plan, context: Dict[str, object],
                  stop_flag: Dict[str, bool], stop_after: Optional[int],
                  echo: Callable[[str], None]) -> bool:
        ctx = multiprocessing.get_context()
        result_q = ctx.Queue()
        handles: Dict[str, _WorkerHandle] = {}
        worker_ids = count(1)

        def spawn() -> _WorkerHandle:
            worker_id = f"w{next(worker_ids)}"
            task_q = ctx.Queue()
            process = ctx.Process(
                target=worker_main,
                args=(worker_id, task_q, result_q, context),
                daemon=True)
            process.start()
            handle = _WorkerHandle(worker_id, process, task_q)
            handles[worker_id] = handle
            return handle

        try:
            for _ in range(n_workers):
                spawn()
        except OSError as exc:
            echo(f"[campaign] worker spawn failed ({exc}); "
                 "degrading to serial in-process execution")
            self.stats.serial_fallback = True
            self._shutdown(handles, result_q, echo)
            return self._run_serial(context, stop_flag, stop_after, echo)

        completed_this_run = 0
        interrupted = False
        while True:
            if stop_flag["stop"]:
                echo("[campaign] interrupt: flushing queue and ledger")
                interrupted = True
                break
            if stop_after is not None and completed_this_run >= stop_after:
                echo(f"[campaign] stopping after {completed_this_run} "
                     "cell(s) as requested")
                interrupted = True
                break
            if self.queue.finished():
                break
            now = time.time()
            for cell in self.queue.expired(now):
                self.stats.expirations += 1
                deadline = self._deadlines.get(cell.key)
                error = ("lease expired" if deadline is None or deadline > now
                         else f"cell timed out after "
                              f"{self._cell_timeout_s:g}s")
                echo(f"[campaign] {error}: cell {cell.index} "
                     f"({cell.workload}/{cell.prefetcher}) "
                     f"on {cell.worker}")
                handle = handles.pop(cell.worker or "", None)
                if handle is not None:
                    self._kill(handle)
                self._fail_cell(cell, error, now, echo)
            for handle in list(handles.values()):
                if handle.process.is_alive():
                    continue
                handles.pop(handle.worker_id, None)
                self.stats.worker_crashes += 1
                exitcode = handle.process.exitcode
                echo(f"[campaign] worker {handle.worker_id} died "
                     f"(exit {exitcode})")
                if handle.busy is not None:
                    cell = self.queue.cells[handle.busy]
                    if cell.state == LEASED \
                            and cell.worker == handle.worker_id:
                        self._fail_cell(
                            cell, f"worker crashed (exit {exitcode})",
                            now, echo)
            while len(handles) < n_workers:
                try:
                    spawn()
                except OSError as exc:
                    echo(f"[campaign] worker respawn failed ({exc}); "
                         "degrading to serial in-process execution")
                    self.stats.serial_fallback = True
                    self._shutdown(handles, result_q, echo)
                    return self._run_serial(context, stop_flag,
                                            stop_after, echo)
            # Stamp leases after this pass's failures, so the queue
            # log's times never run backwards.
            now = time.time()
            for handle in handles.values():
                if handle.busy is not None:
                    continue
                others = set().union(*(other.pairs
                                       for other in handles.values()
                                       if other is not handle))
                cell = self.queue.claim(now, held=handle.pairs,
                                        others=others)
                if cell is None:
                    break
                handle.pairs.add(cell.pair)
                if self._cell_timeout_s is not None:
                    self._deadlines[cell.key] = now + self._cell_timeout_s
                self.queue.lease(cell.key, handle.worker_id,
                                 self._lease_ttl(cell.key, now), now)
                self.stats.leases += 1
                handle.busy = cell.key
                handle.task_q.put((cell.key, cell.index, cell.workload,
                                   self.specs.get(cell.key, cell.prefetcher),
                                   cell.seed, cell.attempts, plan))
            drained_one = False
            while True:
                try:
                    message = result_q.get(
                        timeout=0.0 if drained_one else 0.05)
                except queue_mod.Empty:
                    break
                drained_one = True
                if self._handle_message(message, handles, echo):
                    completed_this_run += 1
        self._shutdown(handles, result_q, echo)
        return interrupted

    def _handle_message(self, message, handles: Dict[str, _WorkerHandle],
                        echo: Callable[[str], None]) -> bool:
        """Apply one worker message; True when it completed a cell."""
        kind, worker_id, key = message[0], message[1], message[2]
        cell = self.queue.cells.get(key)
        if cell is None:
            return False
        stale = cell.state != LEASED or cell.worker != worker_id
        if kind == "heartbeat":
            if not stale:
                now = time.time()
                self.queue.heartbeat(key, worker_id,
                                     self._lease_ttl(key, now), now)
            return False
        handle = handles.get(worker_id)
        if handle is not None and handle.busy == key:
            handle.busy = None
        if stale:
            return False  # lease was reclaimed; a retry owns this cell now
        if kind == "done":
            self._record_row(cell, message[3], worker_id)
            self.queue.complete(key, worker_id)
            self.stats.completed += 1
            echo(f"[campaign] cell {cell.index} done "
                 f"({cell.workload}/{cell.prefetcher} seed {cell.seed}) "
                 f"on {worker_id}")
            return True
        if kind == "fail":
            self._fail_cell(cell, str(message[3]), time.time(), echo)
        return False

    def _fail_cell(self, cell: CellState, error: str, now: float,
                   echo: Callable[[str], None]) -> None:
        from ..harness.runner import cell_label

        worker = cell.worker
        attempts = cell.attempts + 1
        if attempts >= self.spec.max_attempts:
            self.queue.fail(cell.key, error, not_before=now)
            self.queue.quarantine(cell.key, error)
            self.ledger.record_cell(
                cell=cell_label(cell.index, cell.workload, cell.prefetcher),
                key=cell.key, seed=cell.seed, workload=cell.workload,
                prefetcher=cell.prefetcher, metrics=dict(_ZERO_METRICS),
                outcome="quarantined", attempts=attempts,
                error=error, worker=worker)
            self.stats.quarantined += 1
            echo(f"[campaign] cell {cell.index} quarantined after "
                 f"{attempts} attempt(s): {error}")
        else:
            delay = retry_delay(cell.key, attempts, self.spec.backoff_s,
                                self.spec.backoff_factor)
            self.queue.fail(cell.key, error, not_before=now + delay)
            self.stats.retries += 1
            echo(f"[campaign] cell {cell.index} failed ({error}); "
                 f"retry {attempts}/{self.spec.max_attempts - 1} "
                 f"in {delay:.2f}s")

    def _record_row(self, cell: CellState, payload: tuple,
                    worker_id: str) -> None:
        from ..harness.runner import cell_label, eval_row_metrics, row_to_dict

        self.results[cell.key] = payload
        row = payload[0]
        self.ledger.record_cell(
            cell=cell_label(cell.index, cell.workload, cell.prefetcher),
            key=cell.key, seed=cell.seed, workload=cell.workload,
            prefetcher=cell.prefetcher,
            metrics=eval_row_metrics(row), timings=row.timings,
            outcome="ok" if cell.attempts == 0 else "retried",
            attempts=cell.attempts + 1, error=cell.error,
            engine_used=row.extras.get("engine_used"),
            worker=worker_id, row=row_to_dict(row))

    def _kill(self, handle: _WorkerHandle) -> None:
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)

    def _shutdown(self, handles: Dict[str, _WorkerHandle], result_q,
                  echo: Callable[[str], None]) -> None:
        for handle in handles.values():
            try:
                handle.task_q.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.time() + 1.0
        for handle in handles.values():
            handle.process.join(timeout=max(0.0, deadline - time.time()))
            self._kill(handle)
        # Rows completed before the stop still count: drain what the
        # workers managed to send, then release whatever is left.  The
        # workers have exited, so everything they sent is in the pipe.
        while True:
            try:
                message = result_q.get(timeout=0)
            except queue_mod.Empty:
                break
            self._handle_message(message, handles, echo)
        handles.clear()
        for cell in self.queue.leased():
            self.queue.release(cell.key)

    def _run_serial(self, context: Dict[str, object],
                    stop_flag: Dict[str, bool],
                    stop_after: Optional[int],
                    echo: Callable[[str], None]) -> bool:
        """In-process execution through the same queue transitions.

        Used for ``workers: 0`` specs and as the degradation path when
        worker processes cannot be spawned.  Worker faults (crash, hang,
        lease expiry) are inert here — they only fire in child
        processes — but cell-level faults still apply.
        """
        evaluations: Dict[int, object] = {}
        grid = context.get("evaluation")
        if grid is not None:
            evaluations[grid.seed] = grid
        completed_this_run = 0
        while True:
            if stop_flag["stop"]:
                echo("[campaign] interrupt: flushing queue and ledger")
                return True
            if stop_after is not None and completed_this_run >= stop_after:
                echo(f"[campaign] stopping after {completed_this_run} "
                     "cell(s) as requested")
                return True
            if self.queue.finished():
                return False
            now = time.time()
            cell = self.queue.claim(now)
            if cell is None:
                wake = self.queue.next_not_before()
                time.sleep(min(0.05, max(0.0, (wake or now) - now)) or 0.01)
                continue
            self.queue.lease(cell.key, "serial",
                             max(self.spec.lease_ttl_s, 3600.0), now)
            self.stats.leases += 1
            try:
                payload = execute_cell(
                    evaluations, context, cell.index, cell.workload,
                    self.specs.get(cell.key, cell.prefetcher), cell.seed)
            except Exception as exc:  # noqa: BLE001 - quarantine path
                self._fail_cell(cell, f"{type(exc).__name__}: {exc}",
                                time.time(), echo)
                continue
            self._record_row(cell, payload, "serial")
            self.queue.complete(cell.key, "serial")
            self.stats.completed += 1
            completed_this_run += 1
            echo(f"[campaign] cell {cell.index} done "
                 f"({cell.workload}/{cell.prefetcher} seed {cell.seed}) "
                 f"serially")


#: Queue events that change a cell's state: one timeline point each.
_TIMELINE_KINDS = ("lease", "done", "fail", "release", "quarantine")


def campaign_summary(directory: Union[str, Path]) -> Dict[str, object]:
    """A read-only snapshot of a campaign directory for status/report.

    Safe to call mid-campaign: both JSONL readers tolerate in-flight
    appends, and nothing here writes.  ``timeline`` replays
    ``queue.jsonl`` through the queue's own state machine and holds one
    point per state change (lease, done, fail, release, quarantine):
    ``t`` (seconds since the log's first record), ``queue_depth``
    (pending plus leased cells), ``done``, ``retries`` (fail events so
    far) and ``quarantined``.  Queue times are wall-clock times, so the
    timeline runs on across every resume.
    """
    directory = Path(directory)
    meta = Campaign.read_meta(directory)
    queue = WorkQueue.open(directory / QUEUE_FILE, meta["cells"])
    events = read_queue_events(directory / QUEUE_FILE)
    replay = WorkQueue(directory / QUEUE_FILE, meta["cells"])
    t0 = float(events[0].get("t", 0.0)) if events else 0.0
    timeline: List[Dict[str, object]] = []
    per_worker: Dict[str, int] = {}
    retries = 0
    expirations = 0
    for event in events:
        kind = event.get("kind")
        if kind == "done":
            worker = str(event.get("worker", "?"))
            if worker != "reconcile":
                per_worker[worker] = per_worker.get(worker, 0) + 1
        elif kind == "fail":
            retries += 1
            if "lease expired" in str(event.get("error", "")):
                expirations += 1
        replay._apply(event)
        if kind in _TIMELINE_KINDS:
            counts = replay.counts()
            timeline.append({
                "t": round(float(event.get("t", t0)) - t0, 3),
                "queue_depth": counts[PENDING] + counts[LEASED],
                "done": counts[DONE],
                "retries": retries,
                "quarantined": counts[QUARANTINED],
            })
    ledger_cells = 0
    finish = None
    ledger_path = directory / LEDGER_FILE
    if ledger_path.exists():
        from ..obs.ledger import read_ledger

        parsed = read_ledger(ledger_path)
        ledger_cells = len({str(record.get("key"))
                            for record in parsed["cells"]})
        finish = parsed["finish"]
    return {
        "name": meta["spec"].get("name", "?"),
        "run_id": meta.get("run_id"),
        "created_utc": meta.get("created_utc"),
        "fault_spec": meta.get("fault_spec"),
        "cells": len(meta["cells"]),
        "counts": queue.counts(),
        "finished": queue.finished(),
        "quarantined": [
            {"index": cell.index, "workload": cell.workload,
             "prefetcher": cell.prefetcher, "seed": cell.seed,
             "attempts": cell.attempts, "error": cell.error}
            for cell in queue.quarantined()],
        "per_worker": dict(sorted(per_worker.items())),
        "retries": retries,
        "expirations": expirations,
        "torn_events": queue.torn_events,
        "ledger_cells": ledger_cells,
        "finish": finish,
        "timeline": timeline,
    }
