"""Run ledger: append-only provenance records for every invocation.

Every ``repro run`` / ``repro experiment`` invocation opens a
:class:`RunLedger` under a results directory (or at ``--resume PATH``)
and writes:

- one **manifest** record — run id, UTC timestamp, git SHA + dirty
  flag, the resolved configuration and its fingerprint, seeds, CLI
  argv, python/platform — so any number in a report can be traced back
  to the exact code state and inputs that produced it;
- one **cell** record per completed grid cell — canonical cell key,
  seed, resilience outcome/attempts, key metrics, phase timings, and
  the full serialised row, which is what ``--resume`` restores;
- optional **experiment** records (experiment id + summary metrics);
- a **resume** record each time a run is reopened (``--resume``,
  ``repro campaign resume``);
- one **finish** record with total wall time and resilience stats.
  A ledger *without* a finish record is a crashed/interrupted run —
  readers should treat it as incomplete rather than silently trust it.

Records are one JSON object per line (``schema`` versioned).  Each
append is one fsynced line (:func:`repro.resilience.atomic.append_line`,
the writer the campaign queue uses too), so a crash tears at most the
final line: :func:`read_ledger` drops such a torn tail, and
:meth:`RunLedger.load` truncates it before appending again, so it never
becomes an interior line.

The *active* ledger is ambient so grid internals can record per-cell
provenance without any signature changes: the CLI installs it via
:func:`start_run` / :func:`resume_run` and ``Evaluation.run_cells``
picks it up through :func:`active_ledger` / :func:`current_run_id`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import ConfigError

#: Bump when the record layout changes incompatibly.
LEDGER_SCHEMA = 1

_ACTIVE: Optional["RunLedger"] = None


def set_active_ledger(ledger: Optional["RunLedger"]) -> None:
    """Install the ambient run ledger (``None`` clears it)."""
    global _ACTIVE
    _ACTIVE = ledger


def active_ledger() -> Optional["RunLedger"]:
    """The ambient ledger installed by the CLI, or ``None``."""
    return _ACTIVE


def current_run_id() -> Optional[str]:
    """The active run's id, or ``None`` outside a ledgered invocation."""
    return _ACTIVE.run_id if _ACTIVE is not None else None


def new_run_id() -> str:
    """A sortable, collision-safe run id (UTC timestamp + random tail)."""
    return (time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
            + "-" + uuid.uuid4().hex[:6])


def git_state(cwd: Optional[Union[str, Path]] = None) -> Dict[str, object]:
    """Best-effort ``{"sha": ..., "dirty": ...}`` of the working tree.

    Both fields are ``None`` when git is unavailable or the directory
    is not a repository — provenance should degrade, not crash a run.
    """
    def _git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ("git",) + args, capture_output=True, text=True,
                timeout=5, cwd=str(cwd) if cwd else None)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout if proc.returncode == 0 else None

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "sha": sha.strip() if sha else None,
        "dirty": bool(status.strip()) if status is not None else None,
    }


def config_fingerprint(config: Dict[str, object]) -> str:
    """A short stable hash of a resolved-config dict (sorted-key JSON)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _coerce(value):
    """JSON fallback for numpy scalars hiding in metrics/extras."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class RunLedger:
    """Append-only JSONL provenance ledger for one invocation.

    Args:
        path: The ledger file (conventionally
            ``<results_dir>/<run_id>.jsonl``).
        run_id: This run's id, stamped onto every record.
    """

    def __init__(self, path: Union[str, Path], run_id: str):
        self.path = Path(path)
        self.run_id = run_id
        self._records: List[Dict[str, object]] = []

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: Dict[str, object]) -> None:
        """Append one record (run id injected) as one fsynced line."""
        from ..resilience.atomic import append_line

        record = dict(record)
        record.setdefault("run_id", self.run_id)
        self._records.append(record)
        line = json.dumps(record, separators=(",", ":"), default=_coerce)
        append_line(self.path, (line + "\n").encode("utf-8"))

    def write_manifest(self, command: str, argv: List[str],
                       config: Dict[str, object],
                       seeds: Optional[List[int]] = None) -> None:
        """Record the run manifest (call once, before any cells)."""
        self.append({
            "kind": "manifest",
            "schema": LEDGER_SCHEMA,
            "command": command,
            "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime()),
            "git": git_state(),
            "argv": list(argv),
            "config": config,
            "config_fingerprint": config_fingerprint(config),
            "seeds": list(seeds) if seeds is not None else None,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "pid": os.getpid(),
        })

    def record_cell(self, *, cell: str, key: str, seed: int,
                    workload: str, prefetcher: str,
                    metrics: Dict[str, object],
                    timings: Optional[Dict[str, float]] = None,
                    outcome: str = "ok", attempts: int = 1,
                    error: Optional[str] = None,
                    engine_used: Optional[str] = None,
                    worker: Optional[str] = None,
                    row: Optional[Dict[str, object]] = None) -> None:
        """Record provenance for one finished grid cell.

        ``row`` is the cell's serialised ``EvalRow``
        (:func:`repro.harness.runner.row_to_dict`), which ``--resume``
        restores instead of re-running the cell.
        """
        record: Dict[str, object] = {
            "kind": "cell",
            "cell": cell,
            "key": key,
            "seed": seed,
            "workload": workload,
            "prefetcher": prefetcher,
            "outcome": outcome,
            "attempts": attempts,
            "metrics": dict(metrics),
            "timings": dict(timings or {}),
        }
        if engine_used is not None:
            record["engine_used"] = engine_used
        if worker is not None:
            record["worker"] = worker
        if error is not None:
            record["error"] = error
        if row is not None:
            record["row"] = row
        self.append(record)

    def record_resume(self, argv: List[str]) -> None:
        """Mark where a reopened run picks up again."""
        self.append({
            "kind": "resume",
            "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime()),
            "argv": list(argv),
        })

    def restorable_rows(self) -> Dict[str, Dict[str, object]]:
        """The serialised row of every ok/retried cell, by cell key.

        What a grid restores instead of re-running a cell; failed cells
        record no row, so they run again.
        """
        return {str(record["key"]): record["row"]
                for record in self._records
                if record.get("kind") == "cell" and "row" in record
                and record.get("outcome") in ("ok", "retried")}

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunLedger":
        """Reopen an existing run ledger so new records append after old ones.

        Campaign resume and ``--resume`` reopen the interrupted run's
        ledger: previously recorded cells stay in place (and are never
        re-executed), new records append behind them under the original
        ``run_id``.  A torn final line is truncated first.  Raises
        :class:`~repro.errors.ConfigError`, leaving the file untouched,
        when ``path`` is not a run ledger: unreadable, corrupt before
        its last line, or without a manifest of this schema.
        """
        path = Path(path)
        try:
            records = _read_records(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: not a run ledger ({exc})") from None
        manifest = next((record for record in records
                         if record.get("kind") == "manifest"), None)
        if manifest is None or manifest.get("schema") != LEDGER_SCHEMA:
            raise ConfigError(f"{path}: not a run ledger (no schema "
                              f"{LEDGER_SCHEMA} manifest)")
        _drop_torn_tail(path)
        ledger = cls(path, str(manifest.get("run_id") or new_run_id()))
        ledger._records = records
        return ledger

    def finish(self, wall_s: float, status: str = "ok",
               resilience: Optional[Dict[str, object]] = None) -> None:
        """Record the closing wall time (absence marks a crashed run)."""
        record: Dict[str, object] = {
            "kind": "finish",
            "status": status,
            "wall_s": wall_s,
        }
        if resilience:
            record["resilience"] = resilience
        self.append(record)


def start_run(results_dir: Union[str, Path], command: str,
              argv: List[str], config: Dict[str, object],
              seeds: Optional[List[int]] = None) -> RunLedger:
    """Open a new ledger under ``results_dir`` and make it ambient."""
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    run_id = new_run_id()
    ledger = RunLedger(results_dir / f"{run_id}.jsonl", run_id)
    ledger.write_manifest(command, argv, config, seeds=seeds)
    set_active_ledger(ledger)
    return ledger


def resume_run(path: Union[str, Path], command: str, argv: List[str],
               config: Dict[str, object],
               seeds: Optional[List[int]] = None) -> RunLedger:
    """Open ``path`` as a ``--resume`` run's ledger and make it ambient.

    An absent path starts a new ledger there (manifest first, as
    :func:`start_run`); a run ledger is reopened with a ``resume``
    record, and grids restore the cells it records as finished
    (:meth:`RunLedger.restorable_rows`).  Anything else raises
    :class:`~repro.errors.ConfigError` and is left byte-identical.
    """
    path = Path(path)
    if path.exists():
        ledger = RunLedger.load(path)
        ledger.record_resume(argv)
    else:
        ledger = RunLedger(path, new_run_id())
        ledger.write_manifest(command, argv, config, seeds=seeds)
    set_active_ledger(ledger)
    return ledger


def finish_run(ledger: RunLedger, wall_s: float, status: str = "ok",
               resilience: Optional[Dict[str, object]] = None) -> None:
    """Close out a ledger opened by :func:`start_run`."""
    ledger.finish(wall_s, status=status, resilience=resilience)
    if active_ledger() is ledger:
        set_active_ledger(None)


def _drop_torn_tail(path: Path) -> None:
    """Make ``path`` end on a complete line before appending to it.

    A final line without its newline is either a torn record, which is
    truncated away, or a whole one, which gets its newline.
    """
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        with open(path, "r+b") as fh:
            fh.truncate(start)
    else:
        with open(path, "ab") as fh:
            fh.write(b"\n")


def _read_records(path: Path) -> List[Dict[str, object]]:
    """Parse a ledger file into raw records, in file order.

    Tolerates one torn trailing line (crash mid-append), including a
    tail truncated mid-UTF-8-sequence; corruption anywhere else raises
    ``ValueError``.
    """
    from ..resilience.atomic import tolerant_read_text

    lines = tolerant_read_text(path).splitlines()
    last_payload_lineno = max(
        (i for i, line in enumerate(lines, start=1) if line.strip()),
        default=0)
    records: List[Dict[str, object]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == last_payload_lineno:
                break  # torn tail: drop it, keep the parsed prefix
            raise ValueError(
                f"{path}:{lineno}: corrupt ledger line ({exc})") from None
        if isinstance(record, dict):
            records.append(record)
    return records


def read_ledger(path: Union[str, Path]) -> Dict[str, object]:
    """Parse a ledger back into ``{"manifest", "cells", "experiments",
    "finish"}``.

    Tolerates one torn trailing line (crash mid-append), even one that
    ends mid-UTF-8 sequence; corruption anywhere else raises
    ``ValueError``.  ``finish`` is ``None`` for a run that never
    completed.
    """
    path = Path(path)
    manifest: Optional[Dict[str, object]] = None
    cells: List[Dict[str, object]] = []
    experiments: List[Dict[str, object]] = []
    finish: Optional[Dict[str, object]] = None
    for record in _read_records(path):
        kind = record.get("kind")
        if kind == "manifest":
            manifest = record
        elif kind == "cell":
            cells.append(record)
        elif kind == "experiment":
            experiments.append(record)
        elif kind == "finish":
            finish = record
        # Unknown kinds are skipped, not fatal: newer writers may add
        # record types this reader predates.
    return {"manifest": manifest, "cells": cells,
            "experiments": experiments, "finish": finish}
