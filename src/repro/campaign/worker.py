"""Campaign worker processes: lease cells, heartbeat, stream rows back.

A worker is a long-lived ``multiprocessing.Process`` fed one task at a
time through its private inbox queue; it answers on the shared result
queue with::

    ("heartbeat", worker_id, key)
    ("done",      worker_id, key, EvalRow)
    ("fail",      worker_id, key, "ExcType: message")

While a cell runs, a daemon thread heartbeats every
``heartbeat_s`` so the supervisor keeps extending the lease; a worker
that dies (or is silenced by the ``campaign.lease_expire`` fault)
stops heartbeating and the supervisor reclaims the cell at TTL expiry.

Cell execution reuses :class:`~repro.harness.runner.Evaluation` — one
cached instance per seed, so a worker that runs several cells of the
same (workload, seed) generates the trace and baseline once, exactly
like the in-process grid.  The parent's
:class:`~repro.resilience.faults.FaultPlan` is re-armed on entry, so
armed faults behave identically in a leased cell and an in-process
run — both replay on the same engine, recorded as ``engine_used``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Dict, Optional

from ..resilience import faults


def _campaign_faults(attempt: int, index: int,
                     lease_ttl_s: float) -> Optional[float]:
    """Fire the campaign worker fault points, if armed.

    Returns a sleep duration when ``campaign.lease_expire`` fires (the
    caller must suppress heartbeats and sleep past the TTL), ``None``
    otherwise.  Like the grid's ``worker.crash``, these points only
    fire inside a child process: the supervisor's serial fallback runs
    the same body in-parent, where crashing would defeat the
    degradation under test.
    """
    if multiprocessing.parent_process() is None:
        return None
    if faults.fires("campaign.worker_crash", attempt=attempt, index=index):
        os._exit(13)
    site = faults.fires("campaign.lease_expire", attempt=attempt,
                        index=index)
    if site is None:
        return None
    return (site.seconds if "seconds" in site.params
            else lease_ttl_s * 1.5)


def execute_cell(evaluations: Dict[int, object], context: Dict[str, object],
                 workload: str, prefetcher: str, seed: int):
    """Run one campaign cell, reusing per-seed Evaluation caches."""
    from ..harness.runner import Evaluation

    evaluation = evaluations.get(seed)
    if evaluation is None:
        evaluation = Evaluation(
            n_accesses=int(context["loads"]), seed=seed,
            budget=int(context["budget"]), engine=str(context["engine"]))
        evaluations[seed] = evaluation
    return evaluation.run(workload, prefetcher)


def _heartbeat_loop(result_q, worker_id: str, key: str, interval_s: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            result_q.put(("heartbeat", worker_id, key))
        except (OSError, ValueError):
            return  # supervisor gone; the process is about to be reaped


def worker_main(worker_id: str, task_q, result_q,
                plan: Optional[faults.FaultPlan],
                context: Dict[str, object]) -> None:
    """Entry point of one campaign worker process."""
    if plan is not None:
        faults.arm(plan)
    lease_ttl_s = float(context["lease_ttl_s"])
    heartbeat_s = float(context["heartbeat_s"])
    evaluations: Dict[int, object] = {}
    while True:
        task = task_q.get()
        if task is None:
            return
        key, index, workload, prefetcher, seed, attempt = task
        stop = threading.Event()
        beat: Optional[threading.Thread] = None
        try:
            oversleep = _campaign_faults(attempt, index, lease_ttl_s)
            if oversleep is not None:
                # Hung worker: no heartbeats, outlive the lease.  The
                # supervisor reclaims the cell and kills this process;
                # the sleep just keeps us convincingly unresponsive.
                time.sleep(oversleep)
            else:
                beat = threading.Thread(
                    target=_heartbeat_loop,
                    args=(result_q, worker_id, key, heartbeat_s, stop),
                    daemon=True)
                beat.start()
            row = execute_cell(evaluations, context,
                               workload, prefetcher, seed)
            stop.set()
            result_q.put(("done", worker_id, key, row))
        except Exception as exc:  # noqa: BLE001 - report, don't die
            stop.set()
            result_q.put(("fail", worker_id, key,
                          f"{type(exc).__name__}: {exc}"))
        finally:
            stop.set()
            if beat is not None:
                beat.join(timeout=1.0)
