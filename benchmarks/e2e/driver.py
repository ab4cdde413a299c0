"""Child-process entry point for the end-to-end benchmark.

Two modes, each optionally traced with ``--spans FILE``::

    driver.py experiment fig4 --seed S --loads N --workloads a,b \\
        --jobs J --results-dir DIR
    driver.py cli campaign run SPEC --dir DIR --workers 0

``experiment`` does what ``repro experiment`` does (open a run ledger,
run the experiment, close the ledger); it exists because the CLI has no
``--seed``.  ``cli`` hands its arguments to ``repro.cli.main``.  The
last line on stdout is ``{"wall_s": ...}``: the in-process wall time of
the run, which the traced and untraced serial runs are compared on.

With ``--spans``, :func:`install` wraps the program's public entry
points before the run and the spans land in FILE when it ends.  Traced
runs must be serial (``--jobs 1`` / ``--workers 0``): spans recorded in
worker processes would be lost.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder  # noqa: E402


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer boundaries the bench attributes time to."""
    from repro.campaign.queue import WorkQueue
    from repro.core.pathfinder import PathfinderPrefetcher
    from repro.harness import runner
    from repro.ml.lstm import LSTM
    from repro.obs.ledger import RunLedger
    from repro.prefetchers import DeltaLSTMPrefetcher, VoyagerPrefetcher
    from repro.sim.fast_engine import batch
    from repro.sim.fast_engine.ckernel import ReplayKernel
    from repro.sim.simulator import Simulator
    from repro.snn.network import DiehlCookNetwork

    wrap = recorder.wrap
    wrap(runner, "run_prefetcher", "cell", cell=True)
    wrap(runner, "make_trace", "traces.make_trace")
    wrap(runner, "simulate", "sim.baseline")
    wrap(runner, "generate_prefetches",
         lambda prefetcher, *args, **kwargs: "gen." + prefetcher.name)
    for cls in (VoyagerPrefetcher, DeltaLSTMPrefetcher):
        wrap(cls, "train", f"ml.{cls.name}.train")
    wrap(Simulator, "run", "sim.replay")
    wrap(batch, "plan_replay", "sim.plan")
    wrap(ReplayKernel, "replay", "sim.kernel")
    wrap(DiehlCookNetwork, "present_one_tick_window", "snn.window")
    wrap(RunLedger, "append", "obs.ledger_append")
    for verb in ("lease", "complete", "heartbeat"):
        wrap(WorkQueue, verb, "campaign.queue")
    recorder.tally(LSTM, "forward", {
        "ml.lstm_forward_calls": lambda *args, **kwargs: 1,
        "ml.lstm_forward_rows": lambda lstm, x, *args, **kwargs: x.shape[0],
    })
    recorder.tally(PathfinderPrefetcher, "process", {
        "snn.scalar_process_calls": lambda *args, **kwargs: 1,
    })


def run_experiment(args: argparse.Namespace, argv: List[str]) -> int:
    from repro.harness.experiments import experiment_fig4, experiment_table6
    from repro.obs.ledger import finish_run, start_run

    experiment = {"fig4": experiment_fig4,
                  "table6": experiment_table6}[args.name]
    workloads = args.workloads.split(",")
    config = {"experiment": args.name, "n_accesses": args.loads,
              "workloads": workloads, "seed": args.seed, "jobs": args.jobs}
    ledger = start_run(args.results_dir, "experiment", argv, config,
                       seeds=[args.seed])
    start = time.perf_counter()
    status = "error"
    try:
        experiment(n_accesses=args.loads, seed=args.seed,
                   workloads=workloads, jobs=args.jobs)
        status = "ok"
    finally:
        finish_run(ledger, time.perf_counter() - start, status=status)
    return 0


def run_cli(args: argparse.Namespace, argv: List[str]) -> int:
    from repro.cli import main as cli_main

    return cli_main(args.cli_args)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", metavar="FILE",
                        help="trace the run and write its spans here")
    modes = parser.add_subparsers(dest="mode", required=True)
    exp = modes.add_parser("experiment")
    exp.add_argument("name", choices=("fig4", "table6"))
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--loads", type=int, required=True)
    exp.add_argument("--workloads", required=True)
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument("--results-dir", required=True)
    exp.set_defaults(func=run_experiment)
    cli = modes.add_parser("cli")
    cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    cli.set_defaults(func=run_cli)
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        recorder = SpanRecorder()
        install(recorder)
    start = time.perf_counter()
    try:
        code = args.func(args, argv)
    finally:
        end = time.perf_counter()
        if recorder is not None:
            recorder.uninstall()
            recorder.start, recorder.end = start, end
            recorder.write(args.spans)
    print(json.dumps({"wall_s": end - start}))
    return code


if __name__ == "__main__":
    sys.exit(main())
