"""Campaign worker processes: lease cells, heartbeat, stream rows back.

A worker is a long-lived ``multiprocessing.Process`` fed one task at a
time through its private inbox queue; it answers on the shared result
queue with::

    ("heartbeat", worker_id, key)
    ("done",      worker_id, key, (EvalRow, registry, events, series))
    ("fail",      worker_id, key, "ExcType: message")

While a cell runs, a daemon thread heartbeats every
``heartbeat_s`` so the supervisor keeps extending the lease; a worker
that dies (or is silenced by the ``campaign.lease_expire`` fault)
stops heartbeating and the supervisor reclaims the cell at TTL expiry.

Cell execution reuses :class:`~repro.harness.runner.Evaluation` — one
cached instance per seed, so a worker that runs several cells of the
same (workload, seed) generates the trace and baseline once, exactly
like the in-process grid.  A grid (``Evaluation.run_cells``) hands its
own Evaluation over instead, traces and baselines already generated,
plus what its parent observes; each cell then records into a private
:class:`~repro.obs.Observability` whose registry, events and series
ride back in the ``done`` message for the parent to fold in cell order.
Every task carries the parent's
:class:`~repro.resilience.faults.FaultPlan`, armed afresh for that cell,
so armed faults behave identically in a leased cell and an in-process
run — both replay on the same engine, recorded as ``engine_used``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from ..resilience import faults


def _worker_faults(attempt: int, index: int,
                   lease_ttl_s: float) -> Optional[float]:
    """Fire the ``worker.crash`` and ``campaign.lease_expire`` points.

    Returns a sleep duration when ``campaign.lease_expire`` fires (the
    caller must suppress heartbeats and sleep past the TTL), ``None``
    otherwise.  Only worker processes fire these: the supervisor's
    serial fallback runs :func:`execute_cell` in-parent, where crashing
    would defeat the degradation under test.
    """
    if faults.fires("worker.crash", attempt=attempt, index=index):
        os._exit(13)
    site = faults.fires("campaign.lease_expire", attempt=attempt,
                        index=index)
    if site is None:
        return None
    return (site.seconds if "seconds" in site.params
            else lease_ttl_s * 1.5)


def _cell_observability(context: Dict[str, object], label: str):
    """The private bundle a grid cell records into, or ``None``.

    Events carry the run id and cell label and the series the cell
    label, the same tags the serial loop binds, so a parallel merge is
    bit-identical to a serial run.
    """
    from ..obs import MemorySink, Observability, SeriesCollector, Tracer

    observe = bool(context.get("observe"))
    window = int(context.get("series_window") or 0)
    if not (observe or window):
        return None
    capture = bool(context.get("capture"))
    series = SeriesCollector(window=window) if window else None
    if series is not None:
        series.bind(cell=label)
    obs = Observability(tracer=Tracer(MemorySink()) if capture else None,
                        series=series, enabled=observe)
    if capture:
        tags = {"cell": label}
        if context.get("run_id") is not None:
            tags["run_id"] = context["run_id"]
        obs.tracer.bind(**tags)
    return obs


def execute_cell(evaluations: Dict[int, object], context: Dict[str, object],
                 index: int, workload: str, spec, seed: int):
    """Run one cell; returns ``(row, registry, events, series)``.

    ``spec`` is a registry name or a ``PathfinderConfig``.  Evaluations
    are cached per seed; the observability parts are ``None`` unless
    the campaign runs a grid whose parent observes.
    """
    from ..harness import runner

    evaluation = evaluations.get(seed)
    if evaluation is None:
        evaluation = runner.Evaluation(
            n_accesses=int(context["loads"]), seed=seed,
            budget=int(context["budget"]), engine=str(context["engine"]))
        evaluations[seed] = evaluation
    obs = _cell_observability(context,
                              runner.cell_label(index, workload, spec))
    row = runner.run_prefetcher(
        evaluation.trace(workload), runner.make_prefetcher(spec),
        evaluation.baseline(workload), hierarchy=evaluation.hierarchy,
        budget=evaluation.budget, obs=obs, engine=evaluation.engine)
    if obs is None:
        return row, None, None, None
    return (row, obs.registry if obs.enabled else None,
            obs.tracer.sink.events if context.get("capture") else None,
            obs.series.snapshot() if obs.series is not None else None)


def _heartbeat_loop(result_q, worker_id: str, key: str, interval_s: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            result_q.put(("heartbeat", worker_id, key))
        except (OSError, ValueError):
            return  # supervisor gone; the process is about to be reaped


def worker_main(worker_id: str, task_q, result_q,
                context: Dict[str, object]) -> None:
    """Entry point of one campaign worker process."""
    lease_ttl_s = float(context["lease_ttl_s"])
    heartbeat_s = float(context["heartbeat_s"])
    evaluations: Dict[int, object] = {}
    grid = context.get("evaluation")
    if grid is not None:
        evaluations[grid.seed] = grid
    while True:
        task = task_q.get()
        if task is None:
            return
        key, index, workload, spec, seed, attempt, plan = task
        stop = threading.Event()
        beat: Optional[threading.Thread] = None
        try:
            with faults.injected(plan):
                oversleep = _worker_faults(attempt, index, lease_ttl_s)
                if oversleep is not None:
                    # Hung worker: no heartbeats, outlive the lease.
                    # The supervisor reclaims the cell and kills this
                    # process; the sleep keeps us unresponsive.
                    time.sleep(oversleep)
                else:
                    beat = threading.Thread(
                        target=_heartbeat_loop,
                        args=(result_q, worker_id, key, heartbeat_s, stop),
                        daemon=True)
                    beat.start()
                hang = faults.fires("worker.hang", attempt=attempt,
                                    index=index)
                if hang is not None:
                    # Hung cell: heartbeats continue, so only the
                    # campaign's cell timeout reclaims it.
                    time.sleep(hang.seconds)
                payload = execute_cell(evaluations, context, index,
                                       workload, spec, seed)
            stop.set()
            result_q.put(("done", worker_id, key, payload))
        except Exception as exc:  # noqa: BLE001 - report, don't die
            stop.set()
            result_q.put(("fail", worker_id, key,
                          f"{type(exc).__name__}: {exc}"))
        finally:
            stop.set()
            if beat is not None:
                beat.join(timeout=1.0)
