"""Command-line interface for the PATHFINDER reproduction.

Six subcommands, installed as the ``repro`` console script::

    repro trace <workload> --out trace.txt [--loads N] [--seed S]
        Generate a calibrated synthetic workload trace (or --profile an
        existing/new trace instead of saving it).

    repro run <workload> <prefetcher> [--loads N] [--seed S]
              [--budget B] [--hierarchy {scaled,full}]
              [--events-out e.jsonl] [--metrics-out m.json]
              [--series [--series-window N]]
        Run one prefetcher on one workload and print IPC / accuracy /
        coverage against the no-prefetch baseline, optionally streaming
        structured lifecycle events and a metrics snapshot to files.
        ``--series`` additionally collects windowed time-series
        telemetry (replay hit/miss rates, prefetch lifecycle counts,
        PATHFINDER learning dynamics) into a ``*.series.jsonl``
        snapshot next to the run ledger; results are bit-identical
        with or without it.

    repro experiment <id> [--loads N] [--workloads a,b,...] [--jobs J]
              [--retries R] [--cell-timeout S] [--resume PATH]
              [--inject-faults SPEC]
              [--events-out e.jsonl] [--metrics-out m.json]
        Regenerate one of the paper's tables/figures (see
        ``repro.harness.EXPERIMENTS`` for ids).  Grid-shaped
        experiments run their cells as an ephemeral campaign on
        ``--jobs`` worker processes; the resulting tables are identical
        either way.  ``--retries R`` gives each cell R + 1 attempts
        (with backoff; a cell that kills its worker on every attempt
        becomes a zeroed ``failed`` row), ``--cell-timeout`` reclaims a
        cell that runs too long; without ``--retries`` a failed cell
        ends the run with one ``error:`` line naming it (exit 1).
        ``--resume PATH`` makes PATH this run's ledger: created when
        absent, reopened when it is a run ledger (its finished cells are
        restored bit-identically, not re-run), refused with exit 2
        otherwise.  ``--inject-faults`` arms deterministic chaos
        (``help`` lists the fault points).

    repro report [events.jsonl] [--ledger RUN.jsonl] [--metrics m.json]
              [--series FILE] [--campaign DIR] [--html OUT.html]
        Aggregate a ``--events-out`` file into human-readable tables
        (run summaries, prefetch lifecycle funnel, SNN telemetry), and/or
        render a self-contained HTML dashboard from any combination of
        events, run ledger, metrics snapshot, series and campaign
        (ranking table with bootstrap-CI whiskers and significance
        groups).

    repro compare RUN_A RUN_B [--max-regress 0.25] [--alpha A]
        Diff two run ledgers: per-cell metric deltas plus regression
        flags.  Cells that differ by seed alone, with enough seeds on
        both sides for the test to reach ``--alpha``, take a
        significance-tested gate (one-sided Mann-Whitney U with Holm
        correction, seeded bootstrap CIs) that flags a slowdown only
        when it is both statistically significant and larger than
        ``--max-regress``; any other timing takes the fixed
        ``--max-regress`` threshold.
        Exits 1 on a regression, 2 on usage errors.

    repro campaign run SPEC [--dir DIR] [--workers N] [--stop-after K]
              [--inject-faults SPEC]
    repro campaign resume DIR [--workers N] [--stop-after K]
    repro campaign status DIR [--watch [--interval S]]
        Durable experiment campaigns: ``run`` expands a YAML/JSON spec
        into a campaign directory (``campaign.json`` + append-only
        ``queue.jsonl`` lease log + shared ``ledger.jsonl``) and drives
        it with leased worker processes — expired leases are reclaimed,
        failed cells retry with backoff, poison cells are quarantined,
        and SIGINT/SIGTERM flush so ``resume`` continues bit-identically
        (completed cells are never re-executed).  ``status`` prints a
        read-only snapshot, safe mid-campaign, with a queue-depth
        sparkline and throughput derived from ``queue.jsonl``.  Exits
        0 when the campaign completed or paused cleanly, 1 when any
        cell is quarantined, 2 on configuration errors.

Every ``run``/``experiment`` invocation also appends a run
ledger — manifest (git SHA, config fingerprint, seeds, argv) plus
per-cell provenance — under ``--results-dir`` (default ``results/``,
overridable via the ``REPRO_RESULTS_DIR`` environment variable), or at
``--resume PATH``; ``--no-ledger`` disables the results-dir one.

Exit codes, for every subcommand: 0 on success; 1 on a regression
(``compare``), a failed grid cell (``experiment``) or a quarantined
cell (``campaign``); 2 on usage and configuration errors; 141
(128 + SIGPIPE), with no traceback, when the reader of stdout closes
the pipe early (``repro report events.jsonl | head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

# The dashboard, compare, campaign and series code is imported inside
# the handlers that use it, so each command loads only what it runs.
from .errors import ConfigError, WorkerCrashError
from .harness import (
    DEFAULT_MAX_REGRESS,
    Evaluation,
    PREFETCHER_FACTORIES,
    ResiliencePolicy,
    ambient_policy,
    format_table,
    summarize_events,
)
from .obs import (
    DEFAULT_WINDOW,
    JsonlSink,
    Observability,
    Profiler,
    RunLedger,
    Tracer,
    finish_run,
    read_events,
    read_ledger,
    resume_run,
    set_default_observability,
    start_run,
)
from .resilience import FAULT_POINTS, FaultPlan, atomic_write_json, injected
from .sim.simulator import HierarchyConfig
from .traces import WORKLOAD_NAMES, make_trace
from .traces.trace import save_trace


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = make_trace(args.workload, args.loads, seed=args.seed)
    if args.profile:
        from .analysis import profile_trace

        profile = profile_trace(trace)
        rows = [
            ["loads", profile.loads],
            ["instructions", profile.instructions],
            ["instructions/load", f"{profile.instructions_per_load:.1f}"],
            ["unique blocks", profile.unique_blocks],
            ["unique pages", profile.unique_pages],
            ["block reuse fraction", f"{profile.reuse_fraction:.3f}"],
            ["in-page deltas", profile.deltas_total],
            ["deltas in (-31,31)", profile.deltas_in_31],
            ["deltas in (-15,15)", profile.deltas_in_15],
            ["avg deltas / 1K", f"{profile.delta_stats.avg_deltas:.0f}"],
            ["avg distinct / 1K", f"{profile.delta_stats.avg_distinct:.0f}"],
            ["avg top-5 occurrences / 1K",
             f"{profile.delta_stats.avg_top5:.0f}"],
        ]
        print(format_table(["statistic", "value"], rows,
                           title=f"profile of {trace.name}"))
    if args.out:
        save_trace(trace, args.out)
        print(f"wrote {len(trace)} loads to {args.out}")
    elif not args.profile:
        print("nothing to do: pass --out and/or --profile")
        return 2
    return 0


def _series_requested(args: argparse.Namespace) -> bool:
    """``--series`` explicitly, or implied by a series tuning flag."""
    return bool(getattr(args, "series", False)
                or getattr(args, "series_window", None) is not None
                or getattr(args, "series_out", None))


def _make_obs(args: argparse.Namespace) -> Optional[Observability]:
    """Build an Observability bundle when any output flag asks for one."""
    peak_memory = getattr(args, "peak_memory", False)
    series_on = _series_requested(args)
    if not (args.events_out or args.metrics_out or peak_memory
            or series_on):
        return None
    sink = JsonlSink(args.events_out) if args.events_out else None
    series = None
    if series_on:
        from .obs.timeseries import SeriesCollector

        window = getattr(args, "series_window", None)
        if window is None:
            window = DEFAULT_WINDOW
        series = SeriesCollector(window=window)
    return Observability(tracer=Tracer(sink),
                         profiler=Profiler(capture_memory=peak_memory),
                         series=series)


def _series_path(args: argparse.Namespace,
                 ledger: Optional[RunLedger]) -> str:
    """Resolve where the series snapshot lands.

    Default is a sibling of the run-ledger file —
    ``<results-dir>/<run id>.series.jsonl`` — so ``repro report
    --ledger`` can pick it up automatically; ``--series-out``
    overrides, and ``--no-ledger`` falls back to ``series.jsonl`` in
    the working directory.
    """
    out = getattr(args, "series_out", None)
    if out:
        return out
    if ledger is not None:
        base = str(ledger.path)
        if base.endswith(".jsonl"):
            base = base[: -len(".jsonl")]
        return base + ".series.jsonl"
    return "series.jsonl"


def _write_series(obs: Optional[Observability],
                  args: argparse.Namespace,
                  ledger: Optional[RunLedger]) -> None:
    if obs is None or obs.series is None:
        return
    path = _series_path(args, ledger)
    obs.series.write_jsonl(path)
    print(f"\n[series written to {path}]")


def _write_metrics(obs: Observability, path: str,
                   run_id: Optional[str] = None) -> None:
    payload = obs.snapshot()
    if run_id is not None:
        payload["run_id"] = run_id
    atomic_write_json(path, payload, indent=2, default=float)
    print(f"\n[metrics snapshot written to {path}]")


def _start_ledger(args: argparse.Namespace, command: str, config: dict,
                  seeds: Optional[List[int]] = None
                  ) -> Optional[RunLedger]:
    """Open this invocation's run ledger.

    ``--resume PATH`` makes PATH the ledger (a
    :class:`~repro.errors.ConfigError` when it is not one); otherwise
    it goes under ``--results-dir`` best-effort, never fatal.
    """
    argv = getattr(args, "_argv", None) or []
    resume = getattr(args, "resume", None)
    if resume:
        return resume_run(resume, command, argv, config, seeds=seeds)
    if getattr(args, "no_ledger", False):
        return None
    try:
        ledger = start_run(args.results_dir, command, argv, config,
                           seeds=seeds)
    except OSError as exc:
        print(f"[ledger disabled: {exc}]")
        return None
    return ledger


def _print_fault_points() -> None:
    rows = [[name, description]
            for name, description in sorted(FAULT_POINTS.items())]
    print(format_table(["fault point", "description"], rows,
                       title="--inject-faults points "
                             "(SPEC: point[:k=v,...][;point...])"))


def _fault_plan(args: argparse.Namespace, seed: int = 0
                ) -> Optional[FaultPlan]:
    """Parse ``--inject-faults`` (``None`` when the flag is absent)."""
    spec = getattr(args, "inject_faults", None)
    if not spec:
        return None
    return FaultPlan.parse(spec, seed=seed)


def _select_hierarchy(name: str) -> HierarchyConfig:
    return HierarchyConfig() if name == "full" else HierarchyConfig.scaled()


def _cmd_run(args: argparse.Namespace) -> int:
    if args.inject_faults in ("help", "list"):
        _print_fault_points()
        return 0
    plan = _fault_plan(args, seed=args.seed)
    obs = _make_obs(args)
    config = {"workload": args.workload, "prefetcher": args.prefetcher,
              "loads": args.loads, "seed": args.seed,
              "budget": args.budget, "hierarchy": args.hierarchy}
    ledger = _start_ledger(args, "run", config, seeds=[args.seed])
    if obs is not None and ledger is not None:
        obs.tracer.bind(run_id=ledger.run_id)
    evaluation = Evaluation(n_accesses=args.loads, seed=args.seed,
                            hierarchy=_select_hierarchy(args.hierarchy),
                            budget=args.budget, obs=obs)
    # Routed through run_cells so the cell lands in the run ledger and
    # events carry the run-id/cell tags; the single-cell serial path is
    # bit-identical to Evaluation.run.
    cell = [(args.workload, args.prefetcher)]
    start = time.perf_counter()
    status = "ok"
    try:
        with injected(plan):
            if obs is not None and obs.profiler.capture_memory:
                with obs.profiler.memory():
                    row = evaluation.run_cells(cell)[0]
            else:
                row = evaluation.run_cells(cell)[0]
            baseline = evaluation.baseline(args.workload)
    except BaseException:
        status = "error"
        raise
    finally:
        if obs is not None:
            obs.close()
        if ledger is not None:
            finish_run(ledger, time.perf_counter() - start, status=status)
    dropped = int(row.result.extra.get("pf_dropped", 0))
    rows = [
        ["baseline IPC", f"{baseline.ipc:.3f}"],
        ["prefetch IPC", f"{row.ipc:.3f}"],
        ["speedup", f"{row.speedup:.3f}"],
        ["accuracy", f"{row.accuracy:.3f}"],
        ["coverage", f"{row.coverage:.3f}"],
        ["issued", row.issued],
        ["useful", row.useful],
        ["late", row.result.pf_late],
        ["dropped", dropped],
        ["baseline LLC misses", row.baseline_misses],
        ["prefetch-gen time", f"{row.timings.get('prefetch_file_s', 0.0):.3f}s"],
        ["replay time", f"{row.timings.get('replay_s', 0.0):.3f}s"],
    ]
    if obs is not None and obs.profiler.peak_memory_bytes is not None:
        rows.append(["peak memory",
                     f"{obs.profiler.peak_memory_bytes / 1e6:.1f} MB"])
    if row.extras.get("prefetcher_errors"):
        rows.append(["prefetcher errors (guarded)",
                     row.extras["prefetcher_errors"]])
        rows.append(["quarantined", row.extras.get("quarantined", False)])
    print(format_table(["metric", "value"], rows,
                       title=f"{args.prefetcher} on {args.workload} "
                             f"({args.loads} loads, seed {args.seed}, "
                             f"budget {args.budget}, "
                             f"{args.hierarchy} hierarchy)"))
    if ledger is not None:
        print(f"\n[run ledger: {ledger.path}]")
    if args.events_out:
        print(f"\n[events written to {args.events_out}]")
    if obs is not None and args.metrics_out:
        _write_metrics(obs, args.metrics_out,
                       run_id=ledger.run_id if ledger else None)
    _write_series(obs, args, ledger)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .harness.experiments import EXPERIMENTS, run_experiment

    if args.inject_faults in ("help", "list"):
        _print_fault_points()
        return 0
    plan = _fault_plan(args)
    kwargs = {}
    if args.loads is not None:
        kwargs["n_accesses"] = args.loads
    if args.workloads:
        kwargs["workloads"] = args.workloads.split(",")
    if args.experiment in ("table9", "table2_fig3"):
        kwargs.pop("n_accesses", None)
        kwargs.pop("workloads", None)
    if args.jobs > 1:
        import inspect

        fn = EXPERIMENTS[args.experiment]
        if "jobs" in inspect.signature(fn).parameters:
            kwargs["jobs"] = args.jobs
        else:
            print(f"[note: {args.experiment} is not grid-shaped; "
                  f"--jobs ignored]")

    # The policy is installed as an ambient default (picked up by every
    # Evaluation.run_cells the experiment makes), so experiment
    # signatures stay unchanged.
    policy = None
    if args.retries or args.cell_timeout is not None:
        policy = ResiliencePolicy(retries=args.retries,
                                  cell_timeout_s=args.cell_timeout)

    obs = _make_obs(args)
    config = {"experiment": args.experiment}
    config.update({k: v for k, v in kwargs.items() if k != "jobs"})
    config["jobs"] = args.jobs
    try:
        ledger = _start_ledger(args, "experiment", config)
    except OSError as exc:
        print(f"error: {exc}")
        return 2
    restorable = ledger.restorable_rows() if ledger is not None else {}
    if restorable:
        print(f"[resilience] resuming from {args.resume}: "
              f"{len(restorable)} cell(s) recorded")
    if obs is not None and ledger is not None:
        obs.tracer.bind(run_id=ledger.run_id)
    start = time.perf_counter()
    status = "ok"
    stats = None
    try:
        # Ambient bundle: experiments build their own Evaluation
        # objects, which fall back to this installed one, so their grid
        # cells record into this invocation's registry/tracer/ledger.
        set_default_observability(obs)
        with ambient_policy(policy) as stats, injected(plan):
            if obs is not None:
                try:
                    with obs.profiler.phase("experiment"):
                        result = run_experiment(args.experiment, **kwargs)
                    for key, value in result.metrics.items():
                        obs.tracer.emit("experiment.metric",
                                        experiment=args.experiment,
                                        key=key, value=value)
                        obs.registry.gauge("experiment.metric",
                                           experiment=args.experiment,
                                           key=key).set(value)
                finally:
                    obs.close()
            else:
                result = run_experiment(args.experiment, **kwargs)
    except WorkerCrashError as exc:
        status = "error"
        print(f"error: {exc}")
        return 1
    except BaseException:
        status = "error"
        raise
    finally:
        set_default_observability(None)
        if policy is None or stats is None or not stats.leases:
            stats = None  # no grid ran a cell under a policy
        if ledger is not None:
            finish_run(ledger, time.perf_counter() - start, status=status,
                       resilience=stats.to_dict() if stats else None)
    print(result.format())
    if stats is not None:
        print(f"\n[resilience] {stats.summary()}")
    if args.json:
        result.save_json(args.json)
        print(f"\n[metrics written to {args.json}]")
    if ledger is not None:
        print(f"\n[run ledger: {ledger.path}]")
    if args.events_out:
        print(f"\n[events written to {args.events_out}]")
    if obs is not None and args.metrics_out:
        _write_metrics(obs, args.metrics_out,
                       run_id=ledger.run_id if ledger else None)
    _write_series(obs, args, ledger)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.timeseries import read_series

    events = ledger = metrics = campaign = series = None
    try:
        if args.events:
            events = read_events(args.events)
            if not events:
                print(f"{args.events}: no events")
                return 2
        if args.ledger:
            ledger = read_ledger(args.ledger)
        if args.series:
            series = read_series(args.series)
        elif args.series is None and args.ledger:
            # A run with --series leaves its snapshot next to the
            # ledger file; pick it up automatically (opt out with
            # --series "").
            base = args.ledger
            if base.endswith(".jsonl"):
                base = base[: -len(".jsonl")]
            sibling = base + ".series.jsonl"
            if os.path.exists(sibling):
                series = read_series(sibling)
        if args.metrics:
            metrics = json.loads(open(args.metrics, encoding="utf-8").read())
        if args.campaign:
            from .campaign import LEDGER_FILE, campaign_summary

            campaign = campaign_summary(args.campaign)
            if ledger is None:
                # The campaign's shared ledger doubles as the run
                # ledger: cells/ranking render without a second flag.
                ledger_path = os.path.join(args.campaign, LEDGER_FILE)
                if os.path.exists(ledger_path):
                    ledger = read_ledger(ledger_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    if events is None and ledger is None and metrics is None \
            and campaign is None and series is None:
        print("error: nothing to report "
              "(pass an events file and/or "
              "--ledger/--metrics/--campaign/--series)")
        return 2
    if args.html:
        from .harness.dashboard import write_dashboard

        run_id = (ledger.get("manifest") or {}).get("run_id") if ledger \
            else None
        title = (f"repro campaign {campaign['name']}" if campaign
                 else f"repro run {run_id}" if run_id
                 else "repro run dashboard")
        write_dashboard(args.html, ledger=ledger, events=events,
                        metrics=metrics, campaign=campaign,
                        series=series, title=title)
        print(f"[dashboard written to {args.html}]")
    if events is not None:
        blocks = [format_table(headers, rows, title=title)
                  for title, headers, rows in summarize_events(events)]
        print("\n\n".join(blocks))
    return 0


def _print_campaign_result(result: dict) -> int:
    counts = result["counts"]
    state = "finished" if result["finished"] else "paused"
    print(f"\n[campaign] {state}: "
          f"{counts.get('done', 0)} done, "
          f"{counts.get('pending', 0)} pending, "
          f"{counts.get('leased', 0)} leased, "
          f"{counts.get('quarantined', 0)} quarantined "
          f"({result['wall_s']:.1f}s)")
    stats = result["stats"]
    extras = []
    if stats.get("retries"):
        extras.append(f"{stats['retries']} retried")
    if stats.get("expirations"):
        extras.append(f"{stats['expirations']} lease(s) expired")
    if stats.get("worker_crashes"):
        extras.append(f"{stats['worker_crashes']} worker crash(es)")
    if stats.get("serial_fallback"):
        extras.append("serial fallback")
    if extras:
        print(f"[campaign] resilience: {', '.join(extras)}")
    if result["quarantined"]:
        print("[campaign] quarantined (poison) cells:")
        for key in result["quarantined"]:
            print(f"  - {key}")
        return 1
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import Campaign, load_spec

    if args.inject_faults in ("help", "list"):
        _print_fault_points()
        return 0
    spec = load_spec(args.spec)
    directory = args.dir or os.path.join("campaigns", spec.name)
    campaign = Campaign.create(
        directory, spec, argv=getattr(args, "_argv", None),
        fault_spec=args.inject_faults or None)
    print(f"[campaign] {spec.name}: {len(campaign.queue.cells)} cell(s) "
          f"-> {directory}")
    result = campaign.run(workers=args.workers, stop_after=args.stop_after)
    if not result["finished"]:
        print(f"[campaign] resume with: repro campaign resume {directory}")
    return _print_campaign_result(result)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from .campaign import Campaign

    campaign = Campaign.open(args.dir)
    campaign.reconcile()
    if campaign.stats.reconciled:
        print(f"[campaign] reconciled {campaign.stats.reconciled} "
              "ledger-recorded cell(s); they will not be re-executed")
    if campaign.fault_spec:
        print(f"[campaign] re-arming stored faults: {campaign.fault_spec}")
    campaign.ledger.record_resume(list(getattr(args, "_argv", None) or []))
    result = campaign.run(workers=args.workers, stop_after=args.stop_after)
    if not result["finished"]:
        print(f"[campaign] resume with: repro campaign resume {args.dir}")
    return _print_campaign_result(result)


#: Unicode eighth-block ramp for terminal sparklines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _spark(values: List[float]) -> str:
    """Render ``values`` as a one-line unicode sparkline."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    return "".join(
        _SPARK_BLOCKS[min(len(_SPARK_BLOCKS) - 1,
                          int((value - lo) / span * len(_SPARK_BLOCKS)))]
        for value in values)


def _print_campaign_status(directory: str) -> "tuple[int, bool]":
    """Print one status snapshot; returns (exit code, finished)."""
    from .campaign import campaign_summary

    summary = campaign_summary(directory)
    counts = summary["counts"]
    rows = [
        ["name", summary["name"]],
        ["run id", summary["run_id"]],
        ["created (UTC)", summary["created_utc"]],
        ["fault spec", summary["fault_spec"] or "-"],
        ["cells", summary["cells"]],
        ["done", counts.get("done", 0)],
        ["leased", counts.get("leased", 0)],
        ["pending", counts.get("pending", 0)],
        ["quarantined", counts.get("quarantined", 0)],
        ["retries", summary["retries"]],
        ["lease expirations", summary["expirations"]],
        ["torn queue events", summary["torn_events"]],
        ["ledger cells", summary["ledger_cells"]],
        ["state", "finished" if summary["finished"] else "running/paused"],
    ]
    timeline = summary["timeline"]
    if timeline:
        last = timeline[-1]
        depths = [float(point["queue_depth"]) for point in timeline[-48:]]
        rows.append(["queue depth",
                     f"{_spark(depths)} now {last['queue_depth']}"])
        if last["t"] > 0:
            rows.append(["throughput",
                         f"{last['done'] / last['t']:.2f} cells/s "
                         f"({last['done']} in {last['t']:.1f}s)"])
    print(format_table(["field", "value"], rows,
                       title=f"campaign status: {directory}"))
    if summary["per_worker"]:
        print()
        print(format_table(
            ["worker", "cells completed"],
            [[worker, done]
             for worker, done in summary["per_worker"].items()],
            title="per-worker throughput"))
    if summary["quarantined"]:
        print()
        print(format_table(
            ["cell", "workload", "prefetcher", "seed", "attempts", "error"],
            [[cell["index"], cell["workload"], cell["prefetcher"],
              cell["seed"], cell["attempts"], cell["error"] or "-"]
             for cell in summary["quarantined"]],
            title="quarantined (poison) cells"))
        return 1, bool(summary["finished"])
    return 0, bool(summary["finished"])


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    if not getattr(args, "watch", False):
        code, _ = _print_campaign_status(args.dir)
        return code
    interval = max(0.1, args.interval)
    try:
        while True:
            # Clear screen + home: a cheap full-redraw live view.
            print("\x1b[2J\x1b[H", end="")
            code, finished = _print_campaign_status(args.dir)
            if finished:
                print("\n[watch] campaign finished")
                return code
            print(f"\n[watch] refreshing every {interval:.1f}s "
                  "(Ctrl-C to stop)")
            time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .harness import compare_artifacts

    result = compare_artifacts(args.run_a, args.run_b,
                               max_regress=args.max_regress,
                               alpha=args.alpha)
    print(result.format())
    return 0 if result.ok else 1


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--events-out", metavar="FILE",
                        help="stream structured JSONL events to FILE")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write a JSON metrics/profile snapshot to FILE")


def _add_series_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--series", action="store_true",
        help="collect windowed time-series telemetry (per-window "
             "hit/miss rates, prefetch counts, learning dynamics); "
             "results stay bit-identical")
    parser.add_argument(
        "--series-window", type=int, default=None, metavar="N",
        help="accesses per series window "
             f"(default {DEFAULT_WINDOW}; implies --series)")
    parser.add_argument(
        "--series-out", metavar="FILE",
        help="where to write the series JSONL (default: next to the "
             "run-ledger file as <run id>.series.jsonl; implies "
             "--series)")


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--results-dir", metavar="DIR",
        default=os.environ.get("REPRO_RESULTS_DIR", "results"),
        help="directory for run-ledger JSONL files (default 'results', "
             "or the REPRO_RESULTS_DIR environment variable)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip writing the run ledger")


def _add_fault_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-faults", metavar="SPEC",
        help="arm deterministic fault injection, e.g. "
             "'worker.crash:cells=0;prefetcher.access:rate=0.1' "
             "(pass 'help' to list fault points)")


class _ExperimentIds:
    """The experiment registry's ids, sorted, read from it on first use:
    when ``repro experiment`` checks its argument or prints its help or
    an ``invalid choice`` error.  Other commands never load the
    registry."""

    def __iter__(self):
        from .harness.experiments import EXPERIMENTS

        return iter(sorted(EXPERIMENTS))

    def __contains__(self, experiment) -> bool:
        from .harness.experiments import EXPERIMENTS

        return experiment in EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PATHFINDER (ASPLOS 2024) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="generate/profile a workload trace")
    p_trace.add_argument("workload", choices=WORKLOAD_NAMES)
    p_trace.add_argument("--out", help="file to write the trace to")
    p_trace.add_argument("--profile", action="store_true",
                         help="print trace statistics (Tables 5/7/8 style)")
    p_trace.add_argument("--loads", type=int, default=20_000)
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.set_defaults(func=_cmd_trace)

    p_run = sub.add_parser("run", help="run a prefetcher on a workload")
    p_run.add_argument("workload", choices=WORKLOAD_NAMES)
    p_run.add_argument("prefetcher", choices=sorted(PREFETCHER_FACTORIES))
    p_run.add_argument("--loads", type=int, default=20_000)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--budget", type=int, default=2,
                       help="prefetches kept per triggering access")
    p_run.add_argument("--hierarchy", choices=("scaled", "full"),
                       default="scaled",
                       help="scaled (default) or full paper Table-3 caches")
    p_run.add_argument("--peak-memory", action="store_true",
                       help="capture tracemalloc peak memory for the run")
    _add_obs_flags(p_run)
    _add_series_flags(p_run)
    _add_ledger_flags(p_run)
    _add_fault_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    # The metavar spares add_argument's format check from reading the
    # ids; cleared, the help lists them as it lists any choices.
    p_exp.add_argument("experiment", choices=_ExperimentIds(),
                       metavar="ID").metavar = None
    p_exp.add_argument("--loads", type=int, default=None)
    p_exp.add_argument("--workloads",
                       help="comma-separated workload subset")
    p_exp.add_argument("--json", help="also write results to a JSON file")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for grid-shaped experiments "
                            "(1 = serial; results are identical either way)")
    p_exp.add_argument("--retries", type=int, default=0,
                       help="retries per failed grid cell (with backoff); "
                            "exhausted cells degrade to zeroed rows")
    p_exp.add_argument("--cell-timeout", type=float, default=None,
                       metavar="S",
                       help="wall-clock budget per grid cell; hung cells "
                            "are reclaimed and charged a retry")
    p_exp.add_argument("--resume", metavar="PATH",
                       help="run ledger to resume: created when absent; "
                            "cells it records as finished are restored "
                            "bit-identically, new ones appended")
    _add_obs_flags(p_exp)
    _add_series_flags(p_exp)
    _add_ledger_flags(p_exp)
    _add_fault_flag(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_rep = sub.add_parser(
        "report", help="summarize run artifacts (tables and/or HTML)")
    p_rep.add_argument("events", nargs="?", default=None,
                       help="path to an --events-out JSONL file")
    p_rep.add_argument("--ledger", metavar="RUN.jsonl",
                       help="run-ledger file to include in the report")
    p_rep.add_argument("--metrics", metavar="FILE",
                       help="--metrics-out snapshot to include")
    p_rep.add_argument(
        "--series", metavar="FILE", nargs="?", default=None, const="",
        help="series JSONL from a --series run for the dashboard's "
             "learning-curve / phase sections (default: the ledger's "
             "<run id>.series.jsonl sibling when present; bare "
             "--series disables the automatic pickup)")
    p_rep.add_argument("--campaign", metavar="DIR",
                       help="campaign directory: adds a live campaign "
                            "section (queue depth, per-worker "
                            "throughput, quarantine) to the dashboard "
                            "and defaults --ledger to its shared "
                            "ledger; regenerable mid-campaign")
    p_rep.add_argument("--html", metavar="OUT.html",
                       help="write a self-contained HTML dashboard")
    p_rep.set_defaults(func=_cmd_report)

    p_camp = sub.add_parser(
        "campaign", help="durable multi-process experiment campaigns")
    camp_sub = p_camp.add_subparsers(dest="verb", required=True)
    p_crun = camp_sub.add_parser(
        "run", help="expand a campaign spec and drive it to completion")
    p_crun.add_argument("spec", help="campaign spec file (JSON or YAML)")
    p_crun.add_argument("--dir", metavar="DIR",
                        help="campaign directory "
                             "(default campaigns/<spec name>)")
    p_crun.add_argument("--workers", type=int, default=None,
                        help="worker processes (overrides the spec; "
                             "0 = serial in-process)")
    p_crun.add_argument("--stop-after", type=int, default=None, metavar="K",
                        help="pause after K completed cells (for chaos "
                             "tests and smoke runs; resume continues)")
    _add_fault_flag(p_crun)
    p_crun.set_defaults(func=_cmd_campaign_run)
    p_cres = camp_sub.add_parser(
        "resume", help="continue an interrupted campaign bit-identically")
    p_cres.add_argument("dir", help="campaign directory")
    p_cres.add_argument("--workers", type=int, default=None,
                        help="worker processes (overrides the spec; "
                             "0 = serial in-process)")
    p_cres.add_argument("--stop-after", type=int, default=None, metavar="K",
                        help="pause again after K completed cells")
    p_cres.set_defaults(func=_cmd_campaign_resume)
    p_cstat = camp_sub.add_parser(
        "status", help="read-only campaign snapshot (safe mid-campaign)")
    p_cstat.add_argument("dir", help="campaign directory")
    p_cstat.add_argument("--watch", action="store_true",
                         help="live view: redraw the status every "
                              "--interval seconds until the campaign "
                              "finishes (Ctrl-C to stop watching)")
    p_cstat.add_argument("--interval", type=float, default=2.0,
                         metavar="S",
                         help="refresh period for --watch "
                              "(default 2.0s)")
    p_cstat.set_defaults(func=_cmd_campaign_status)

    p_cmp = sub.add_parser(
        "compare", help="diff two run ledgers")
    p_cmp.add_argument("run_a", help="baseline run ledger (A)")
    p_cmp.add_argument("run_b", help="candidate run ledger (B)")
    p_cmp.add_argument("--max-regress", type=float,
                       default=DEFAULT_MAX_REGRESS,
                       help="fractional timing-regression threshold "
                            f"(default {DEFAULT_MAX_REGRESS} = "
                            f"+{round(DEFAULT_MAX_REGRESS * 100)}%%)")
    p_cmp.add_argument("--alpha", type=float, default=0.05,
                       help="family-wise significance level of the "
                            "significance gate, which seed replicates "
                            "take where their samples can reach it "
                            "(default 0.05)")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The raw argv lands in the run-ledger manifest for provenance.
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        code = args.func(args)
        # Flushed here, so a closed pipe fails inside this try and not
        # in the interpreter's flush at exit.
        sys.stdout.flush()
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    except BrokenPipeError:
        # Whoever read stdout has gone (``repro report ... | head``).
        # Point stdout at devnull so the exit-time flush stays quiet,
        # and exit as a shell reports a process killed by SIGPIPE
        # (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
