#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with per-layer attribution.

Usage::

    python3 benchmarks/e2e/bench.py --seed S [--workload W] [--trace [0|1]]
                                    [--seconds N] [--out FILE] [--write-golden]

Every workload runs as a closed loop with one client: one invocation of
the program at a time, each spawned after the previous one exited.  A
round is two set-up invocations and one repeat of the workload; rounds
continue while the next should end inside ``--seconds``.  The seed is
the only input; the program receives nothing else.  Cell outputs are
checked against ``golden/<workload>.seed<S>.json`` where one exists,
across repeats always, and (when both run) between the grid and the
campaign paths.

Untraced runs print the end-to-end metrics of ``BENCHMARK.json``.
Their times are host-normalized (see :class:`HostSpeed`); the measured
wall times are printed beside them and kept in ``--out``.
``--trace`` runs the workload once as usual (for its ledger and queue
artifacts), then serially in one process, alternating untraced and
traced, and prints the per-layer metrics plus a "where the time went"
table.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
if any cell failed, 2 if the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import read_spans, residual, self_times  # noqa: E402

ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
GOLDEN_DIR = HERE / "golden"
WORK_DIR = ROOT / ".bench_build" / "e2e"
DRIVER = HERE / "driver.py"

#: One BLAS thread per process.  Two pool workers with two BLAS threads
#: each oversubscribe a two-core host: unpinned, fig4-neural burns ~40%
#: more CPU time and takes ~35% longer.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

#: Timed set-up invocations before each repeat (after one untimed
#: warm-up per run).
SETUP_PER_REPEAT = 2
#: Iterations of one host-speed probe (about 0.5 ms), and how often each
#: CPU a child runs on is probed while it runs (about 2.5% of the CPU).
PROBE_ITERS = 1_500
PROBE_PERIOD_S = 0.02
#: The probe's time on the reference host (a 2-vCPU Xeon VM at a quiet
#: moment).  Reported times are in that host's seconds.
REFERENCE_PROBE_S = 0.0005
#: Every run makes at least this many repeats, so repeats can disagree.
MIN_REPEATS = 2
#: A child still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 170.0

#: Ledger metrics compared against the golden files.
CELL_METRICS = ("ipc", "speedup", "accuracy", "coverage", "issued",
                "useful", "late", "dropped")
#: Offline-trained neural prefetchers: golden match within 1% relative
#: (their inference runs through BLAS); everything else must be exact.
NEURAL = ("voyager", "delta-lstm")
NEURAL_RTOL = 0.01

ALL_TRACES = ("cc-5", "bfs-10", "471-omnetpp-s1", "473-astar-s1",
              "450-soplex-s0", "482-sphinx-s0", "605-mcf-s1",
              "623-xalan-s1", "cassandra-phase0-core0",
              "cloud9-phase0-core0", "nutch-phase0-core0")
#: The paper's Fig. 4 lineup (``repro.harness.experiments.FIG4_PREFETCHERS``).
FIG4_LINEUP = ("bo", "sisb", "voyager", "delta-lstm", "spp", "pythia",
               "pathfinder", "pathfinder+nl+sisb")
#: ``gen.<metric name>_s`` per-layer metric → the prefetcher's own name.
GEN_PREFETCHERS = {"pythia": "pythia", "spp": "spp", "bo": "bo",
                   "sisb": "sisb", "nextline": "nextline",
                   "pathfinder": "pathfinder",
                   "pathfinder-nl-sisb": "pathfinder+nextline+sisb",
                   "voyager": "voyager", "delta-lstm": "delta-lstm"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the grid it runs and how.

    Grid workloads (``experiment`` set) run through ``driver.py``;
    the campaign workload runs the real ``repro campaign run``.
    """

    name: str
    traces: Tuple[str, ...]
    prefetchers: Tuple[str, ...]
    loads: int
    #: Worker processes of the end-to-end run (1 = serial grid).
    workers: int
    experiment: Optional[str] = None
    #: Campaign seeds are S .. S + seeds - 1.
    seeds: int = 1

    def seed_list(self, seed: int) -> List[int]:
        return [seed + k for k in range(self.seeds)]

    def cell_keys(self, seed: int) -> List[str]:
        return [cell_key(trace, prefetcher, s)
                for s in self.seed_list(seed) for trace in self.traces
                for prefetcher in self.prefetchers]


#: Load counts keep each repeat to a few seconds, so that a run's median
#: is taken over many repeats.
WORKLOADS: Dict[str, Workload] = {
    # Neural baselines dominate: LSTM training and per-access inference
    # are ~90% of cell time; the only workload on the process-pool path.
    "fig4-neural": Workload("fig4-neural", ("cc-5", "623-xalan-s1"),
                            FIG4_LINEUP, loads=4_000, workers=2,
                            experiment="fig4"),
    # Online learners only (SPP, Pythia, PATHFINDER): no repro.ml, no
    # pool; the bypass workload for every neural or pool change.
    "table6-online": Workload("table6-online", ALL_TRACES,
                              ("spp", "pythia", "pathfinder"),
                              loads=5_000, workers=1, experiment="table6"),
    # The campaign stack (spawned workers, fsync'd lease queue, ledger
    # rewrite per cell) over short cells; largest replay share.  Same
    # load count as table6-online, so their shared cells cross-check.
    "campaign-table": Workload("campaign-table", ALL_TRACES,
                               ("nextline", "bo", "spp", "sisb",
                                "pathfinder"),
                               loads=5_000, workers=2, seeds=2),
}


def cell_key(trace: str, prefetcher: str, seed: int) -> str:
    return f"{trace}/{prefetcher}/seed={seed}"


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class ChildRun:
    """One spawned invocation, measured from spawn to exit."""

    wall_s: float
    code: int
    maxrss_kb: int
    cpu_s: float
    log: Path
    #: ``wall_s`` in reference-host seconds (see :class:`HostSpeed`).
    ref_wall_s: float

    def last_line(self) -> str:
        """The child's last line of output."""
        lines = self.log.read_text(encoding="utf-8",
                                   errors="replace").splitlines()
        return lines[-1] if lines else ""

    def last_json(self) -> Dict[str, object]:
        """The JSON object on the child's last output line, or ``{}``."""
        try:
            return json.loads(self.last_line())
        except json.JSONDecodeError:
            return {}


def child_env(work: Path) -> Dict[str, str]:
    """The environment every child runs in.

    The program's own ``REPRO_*`` switches are cleared so the default
    code paths run; compiled kernels are cached inside the work dir.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CKERNEL_CACHE"] = str(work / "kcache")
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def child_cpus(workers: int) -> List[int]:
    """The CPUs a child that keeps ``workers`` processes busy runs on."""
    return sorted(os.sched_getaffinity(0))[-workers:]


def probe(iterations: int = PROBE_ITERS) -> None:
    """A fixed interpreter-bound task: dict probes and integer arithmetic.

    The same kind of work as the program's own Python loops, but the
    bench's own code, so no change to the program moves it.
    """
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 4095
        acc = (acc + table.get(key, i)) & 0xFFFFF
        table[key] = acc ^ i


class HostSpeed:
    """Samples how fast some CPUs run, while a child runs on them.

    On a shared host the same code runs up to 1.8 times slower for
    seconds to minutes at a time, on one CPU and not the other, and the
    program slows with it.  One thread per CPU, pinned to it, times
    :func:`probe` every ``PROBE_PERIOD_S``.  It reads thread CPU time,
    which grows with whatever slows the CPU down but not with waiting
    for it.  :meth:`factor` turns the child's wall time into seconds of
    a host that runs the probe in ``REFERENCE_PROBE_S``: what the host
    does cancels, what the program does stays.
    """

    def __init__(self, cpus: Sequence[int]):
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,),
                                          daemon=True) for cpu in cpus]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while True:
            start = time.thread_time()
            probe()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "HostSpeed":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def factor(self) -> float:
        """Reference-host seconds per second measured here."""
        return REFERENCE_PROBE_S / statistics.mean(self.samples)


def spawn(cmd: Sequence[str], log: Path, env: Dict[str, str],
          workers: int = 1) -> ChildRun:
    """Run ``cmd`` to completion; wall, exit code and rusage via wait4.

    The child is pinned to ``child_cpus(workers)``, which are probed
    while it runs.  ``wait4`` reports the child together with every
    descendant it waited for, so ``maxrss_kb`` is the largest process in
    the tree.  The child gets its own process group, killed whole on
    timeout.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    cpus = child_cpus(workers)
    with open(log, "wb") as out, HostSpeed(cpus) as speed:
        start = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out,
                                stderr=subprocess.STDOUT, cwd=ROOT, env=env,
                                start_new_session=True)
        try:
            os.sched_setaffinity(proc.pid, cpus)  # inherited by its workers
        except ProcessLookupError:
            pass  # already exited
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stragglers the child left behind
    return ChildRun(wall, proc.returncode, usage.ru_maxrss,
                    usage.ru_utime + usage.ru_stime, log,
                    wall * speed.factor())


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def setup_command(seed: int, work: Path) -> List[str]:
    """The fixed cost of one invocation: a 1,000-load nextline cell."""
    return [sys.executable, "-m", "repro.cli", "run", "cc-5", "nextline",
            "--loads", "1000", "--seed", str(seed),
            "--results-dir", str(work / "setup")]


def workload_command(workload: Workload, seed: int, run_dir: Path,
                     serial: bool = False,
                     spans: Optional[Path] = None) -> List[str]:
    """The invocation for one repeat; artifacts land in ``run_dir``."""
    traced = ["--spans", str(spans)] if spans is not None else []
    if workload.experiment is not None:
        return [sys.executable, str(DRIVER), *traced, "experiment",
                workload.experiment, "--seed", str(seed),
                "--loads", str(workload.loads),
                "--workloads", ",".join(workload.traces),
                "--jobs", "1" if serial else str(workload.workers),
                "--results-dir", str(run_dir / "results")]
    spec = run_dir.parent / "spec.json"
    campaign = ["campaign", "run", str(spec),
                "--dir", str(run_dir / "campaign")]
    if serial:
        return [sys.executable, str(DRIVER), *traced, "cli", *campaign,
                "--workers", "0"]
    return [sys.executable, "-m", "repro.cli", *campaign]


def write_campaign_spec(workload: Workload, seed: int, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "name": workload.name, "workloads": list(workload.traces),
        "prefetchers": list(workload.prefetchers),
        "seeds": workload.seed_list(seed), "loads": workload.loads,
        "workers": workload.workers}, indent=2))


#: Compiles both C kernels into an empty cache; prints seconds (-1 when
#: a kernel is unavailable, e.g. no C compiler).
COMPILE_PROBE = """\
import time
from repro.snn.ckernel import load_kernel as snn_kernel
from repro.sim.fast_engine.ckernel import load_kernel as replay_kernel
start = time.perf_counter()
ok = snn_kernel() is not None and replay_kernel() is not None
print(time.perf_counter() - start if ok else -1)
"""


# ---------------------------------------------------------------------------
# Artifacts: ledgers and queues
# ---------------------------------------------------------------------------

def _jsonl(path: Path) -> Tuple[List[Dict[str, object]], List[int]]:
    """Records of a JSONL file and each line's size in bytes."""
    records, sizes = [], []
    for line in path.read_bytes().splitlines():
        if line.strip():
            records.append(json.loads(line))
            sizes.append(len(line) + 1)
    return records, sizes


def ledger_path(workload: Workload, run_dir: Path) -> Path:
    if workload.experiment is None:
        return run_dir / "campaign" / "ledger.jsonl"
    found = [path for path in (run_dir / "results").glob("*.jsonl")
             if not path.name.endswith(".series.jsonl")]
    if len(found) != 1:
        raise ValueError(f"expected one run ledger in {run_dir / 'results'}, "
                         f"found {len(found)}")
    return found[0]


@dataclass
class Artifacts:
    """What one repeat left behind."""

    cells: Dict[str, Dict[str, object]]
    ledger_bytes: int = 0
    queue_events: List[Dict[str, object]] = field(default_factory=list)


def read_artifacts(workload: Workload, run_dir: Path) -> Artifacts:
    """Cell records by key, plus the bytes the ledger rewrites cost.

    Every ledger append rewrites the whole file, so the bytes written
    are the sum, over appends, of the file's size after that append.
    """
    records, sizes = _jsonl(ledger_path(workload, run_dir))
    n = len(sizes)
    rewritten = sum(size * (n - i) for i, size in enumerate(sizes))
    # The cell label ("007:cc-5:pathfinder+nl+sisb") carries the registry
    # name; the record's "prefetcher" field is the model's own name.
    cells = {cell_key(str(r["workload"]), str(r["cell"]).split(":", 2)[2],
                      int(r["seed"])): r
             for r in records if r.get("kind") == "cell"}
    queue = run_dir / "campaign" / "queue.jsonl"
    events = _jsonl(queue)[0] if queue.exists() else []
    return Artifacts(cells, rewritten, events)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def golden_path(golden_dir: Path, workload: str, seed: int) -> Path:
    return golden_dir / f"{workload}.seed{seed}.json"


def load_golden(golden_dir: Path, workload: Workload,
                seed: int) -> Optional[Dict[str, Dict[str, float]]]:
    """Golden cell metrics for this workload and seed, if recorded.

    A golden file made at another load count describes another input
    and is ignored.
    """
    path = golden_path(golden_dir, workload.name, seed)
    if not path.exists():
        return None
    golden = json.loads(path.read_text())
    if golden.get("loads") != workload.loads:
        return None
    return golden["cells"]


def metrics_match(prefetcher: str, got: Dict[str, float],
                  want: Dict[str, float]) -> bool:
    for key in CELL_METRICS:
        a, b = got.get(key), want.get(key)
        if a is None or b is None:
            return False
        if prefetcher in NEURAL:
            if abs(a - b) > NEURAL_RTOL * abs(b):
                return False
        elif a != b:
            return False
    return True


def cell_problem(prefetcher: str, record: Optional[Dict[str, object]],
                 reference: Optional[Dict[str, float]],
                 golden: Optional[Dict[str, float]]) -> Optional[str]:
    """Why a cell failed, or ``None`` when it passed."""
    if record is None:
        return "missing from the ledger"
    if record.get("outcome") != "ok":
        return f"outcome {record.get('outcome')!r}: {record.get('error')}"
    metrics = record.get("metrics") or {}
    if not (metrics.get("ipc", 0) > 0 and metrics.get("speedup", 0) > 0
            and 0 <= metrics.get("accuracy", -1) <= 1
            and 0 <= metrics.get("useful", -1) <= metrics.get("issued", -1)):
        return f"implausible metrics {metrics}"
    if reference is not None and any(metrics.get(k) != reference.get(k)
                                     for k in CELL_METRICS):
        return "differs from the first repeat"
    if golden is not None and not metrics_match(prefetcher, metrics, golden):
        return "differs from the golden file"
    return None


def cell_metrics(record: Dict[str, object]) -> Dict[str, float]:
    return {key: record["metrics"][key] for key in CELL_METRICS}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (inclusive method; p=0 is the minimum)."""
    if len(values) == 1 or p <= 0:
        return min(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten of ``n`` samples beyond."""
    return max(0, math.floor(100 * (n - 10) / n))


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Everything one workload's run measured and checked."""

    workload: str
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: The wall times as measured, before host normalization.
    raw: Dict[str, List[float]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Cell metrics of the first ledgered run, by cell key.
    cells: Dict[str, Dict[str, float]] = field(default_factory=dict)
    breakdown: List[Tuple[str, int, float]] = field(default_factory=list)


class Runner:
    """Runs one workload for one seed and checks what it produced."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 env: Dict[str, str], golden_dir: Path,
                 use_golden: bool = True):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.dir = work / "runs" / workload.name
        self.golden = (load_golden(golden_dir, workload, seed)
                       if use_golden else None)
        self.outcome = Outcome(workload.name)
        self._runs = 0
        shutil.rmtree(self.dir, ignore_errors=True)
        if workload.experiment is None:
            write_campaign_spec(workload, seed, self.dir / "spec.json")

    # -- checked invocations ---------------------------------------------

    def invoke(self, serial: bool = False,
               spans: Optional[Path] = None) -> Tuple[ChildRun, Artifacts]:
        """One checked invocation of the workload."""
        self._runs += 1
        run_dir = self.dir / f"run{self._runs}"
        cmd = workload_command(self.workload, self.seed, run_dir,
                               serial=serial, spans=spans)
        child = spawn(cmd, run_dir / "output.log", self.env,
                      workers=1 if serial else self.workload.workers)
        artifacts = Artifacts({})
        if child.code == 0:
            try:
                artifacts = read_artifacts(self.workload, run_dir)
            except (OSError, ValueError, KeyError) as exc:
                self._fail_run(f"run {self._runs}: unreadable artifacts: "
                               f"{exc}")
        else:
            self._fail_run(f"run {self._runs}: exit code {child.code} "
                           f"(see {child.log})")
        self._check(artifacts.cells)
        return child, artifacts

    def _fail_run(self, message: str) -> None:
        self.outcome.failures.append(message)

    def _check(self, cells: Dict[str, Dict[str, object]]) -> None:
        out = self.outcome
        first = not out.cells
        for key in self.workload.cell_keys(self.seed):
            record = cells.get(key)
            problem = cell_problem(
                key.split("/")[1], record,
                None if first else out.cells.get(key),
                self.golden.get(key) if self.golden is not None else None)
            out.attempted += 1
            if problem is not None:
                out.failed += 1
                out.failures.append(f"run {self._runs}: {key}: {problem}")
        if first and cells:
            out.cells = {key: cell_metrics(record)
                         for key, record in cells.items()}

    # -- end-to-end run ---------------------------------------------------

    def warm_up(self) -> None:
        """One untimed invocation: fills the kernel and bytecode caches."""
        child = spawn(setup_command(self.seed, self.dir), self.dir /
                      "warmup.log", self.env)
        if child.code != 0:
            self._fail_run(f"warm-up: exit code {child.code} "
                           f"(see {child.log})")

    def end_to_end(self, seconds: float) -> None:
        out = self.outcome
        setups: List[float] = []
        walls: List[float] = []
        rss: List[float] = []
        raw: Dict[str, List[float]] = {"wall_s": [], "setup_s": []}
        start = time.perf_counter()
        last = 0.0
        # Each round is SETUP_PER_REPEAT set-up runs, then one repeat.
        # Set-up runs are spread over the window so that they meet the
        # same host conditions as the repeats.  Another round starts
        # only while it should end inside the window.
        while len(walls) < MIN_REPEATS or (
                time.perf_counter() - start + last <= seconds):
            round_start = time.perf_counter()
            for _ in range(SETUP_PER_REPEAT):
                child = spawn(setup_command(self.seed, self.dir),
                              self.dir / f"setup{len(setups)}.log", self.env)
                if child.code != 0:
                    self._fail_run(f"set-up run {len(setups)}: exit code "
                                   f"{child.code} (see {child.log})")
                setups.append(child.ref_wall_s)
                raw["setup_s"].append(child.wall_s)
            child, _ = self.invoke()
            walls.append(child.ref_wall_s)
            raw["wall_s"].append(child.wall_s)
            rss.append(child.maxrss_kb * 1024 / 1e6)
            last = time.perf_counter() - round_start
        out.samples = {"wall_s": walls, "setup_s": setups,
                       "peak_rss_mb": rss}
        out.raw = raw
        out.metrics = {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": max(rss)}
        out.notes = {
            name: f"median, n={len(samples)}, host-normalized "
                  f"(measured {statistics.median(raw[name]):.4g} s)"
            for name, samples in (("wall_s", walls), ("setup_s", setups))}
        out.notes["peak_rss_mb"] = f"max over {len(rss)} repeats"

    # -- traced run -------------------------------------------------------

    def traced(self, seconds: float) -> None:
        out = self.outcome
        metrics: Dict[str, float] = {}
        metrics["kernel.compile_s"] = self._compile_time()
        child, artifacts = self.invoke()
        metrics.update(artifact_metrics(self.workload, child, artifacts,
                                        out.notes))
        # Serial runs in one process, untraced (U) and traced (T), in
        # the order U T T U ...: tracing overhead is T/U - 1.
        untraced: List[float] = []
        per_run: List[Dict[str, float]] = []
        start = time.perf_counter()
        while (len(per_run) < MIN_REPEATS
               or time.perf_counter() - start < seconds):
            order = (False, True) if len(per_run) % 2 == 0 else (True, False)
            for trace in order:
                spans_file = (self.dir / f"spans{len(per_run)}.jsonl"
                              if trace else None)
                child, _ = self.invoke(serial=True, spans=spans_file)
                if not trace:
                    untraced.append(float(child.last_json().get("wall_s",
                                                                 math.nan)))
                    continue
                if child.code != 0:
                    per_run.append({})
                    continue
                span_metrics, breakdown, closure = span_layer_metrics(
                    *read_spans(spans_file))
                if closure > 0.01:
                    self._fail_run(f"traced run: self times plus residual "
                                   f"miss the wall by {closure:.2%}")
                per_run.append(span_metrics)
                out.breakdown = out.breakdown or breakdown
        for key in sorted({k for run in per_run for k in run}):
            values = [run.get(key, math.nan) for run in per_run]
            # Counts repeat exactly; keep them whole numbers.
            metrics[key] = (values[0] if len(set(values)) == 1
                            else statistics.median(values))
        traced_walls = [run.get("trace.wall_s", math.nan) for run in per_run]
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(untraced) - 1)
        out.notes["trace.overhead_frac"] = (
            f"{len(traced_walls)} traced vs {len(untraced)} untraced")
        metrics.pop("trace.wall_s", None)
        out.metrics = metrics

    def _compile_time(self) -> float:
        cold = self.dir / "kcache-cold"
        shutil.rmtree(cold, ignore_errors=True)
        env = dict(self.env, REPRO_CKERNEL_CACHE=str(cold))
        child = spawn([sys.executable, "-c", COMPILE_PROBE],
                      self.dir / "compile.log", env)
        shutil.rmtree(cold, ignore_errors=True)
        try:
            seconds = float(child.last_line())
        except ValueError:
            seconds = -1.0
        if child.code != 0 or seconds < 0:
            self.outcome.notes["kernel.compile_s"] = "kernels unavailable"
            return 0.0
        return seconds


def artifact_metrics(workload: Workload, child: ChildRun,
                     artifacts: Artifacts,
                     notes: Dict[str, str]) -> Dict[str, float]:
    """Per-layer metrics read off an untraced run's own artifacts."""
    cells = list(artifacts.cells.values())
    cell_s = [float(c["timings"].get("prefetch_file_s", 0.0))
              + float(c["timings"].get("replay_s", 0.0)) for c in cells]
    metrics: Dict[str, float] = {"proc.cpu_s": child.cpu_s,
                                 "obs.ledger_bytes": artifacts.ledger_bytes}
    metrics["sim.fallback_cells"] = sum(
        1 for c in cells if c.get("engine_used") != "batch")
    if cell_s:
        p = tail_percentile(len(cell_s))
        metrics["harness.cell_p50_s"] = statistics.median(cell_s)
        metrics["harness.cell_tail_s"] = percentile(cell_s, p)
        notes["harness.cell_tail_s"] = f"p{p}, n={len(cell_s)}"
        metrics["harness.parallel_eff"] = (
            sum(cell_s) / (workload.workers * child.wall_s))
    leased: Dict[str, float] = {}
    lease_to_done: List[float] = []
    retries = 0
    for event in artifacts.queue_events:
        kind = event.get("kind")
        if kind == "lease":
            leased[str(event["key"])] = float(event["t"])
        elif kind == "done" and str(event["key"]) in leased:
            lease_to_done.append(float(event["t"])
                                 - leased.pop(str(event["key"])))
        elif kind == "fail":
            retries += 1
    metrics["campaign.retries"] = retries
    metrics["campaign.lease_to_done_p50_s"] = 0.0
    metrics["campaign.lease_to_done_tail_s"] = 0.0
    if lease_to_done:
        p = tail_percentile(len(lease_to_done))
        metrics["campaign.lease_to_done_p50_s"] = statistics.median(
            lease_to_done)
        metrics["campaign.lease_to_done_tail_s"] = percentile(lease_to_done, p)
        notes["campaign.lease_to_done_tail_s"] = (
            f"p{p}, n={len(lease_to_done)}")
    return metrics


def span_layer_metrics(spans: List[Dict[str, object]],
                       run: Dict[str, object]
                       ) -> Tuple[Dict[str, float],
                                  List[Tuple[str, int, float]], float]:
    """Per-layer metrics of one traced run.

    Returns the metrics, the self-time breakdown by span name
    (``(name, calls, self seconds)``, largest first, residual last) and
    how far self times plus residual miss the traced wall (a fraction).
    """
    own = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    replay_s = 0.0
    for span, s in zip(spans, own):
        name = str(span["name"])
        duration = span["end"] - span["start"]
        self_s[name] += s
        total_s[name] += duration
        calls[name] += 1
        parent = span["parent"]
        if name == "sim.replay" and (
                parent is None or spans[parent]["name"] != "sim.baseline"):
            replay_s += duration
    wall = run["end"] - run["start"]
    rest = residual(spans, run["start"], run["end"])
    counts = run.get("counts", {})
    metrics: Dict[str, float] = {
        "trace.wall_s": wall,
        "harness.residual_s": rest,
        "traces.make_trace_s": self_s["traces.make_trace"],
        "traces.make_trace_calls": calls["traces.make_trace"],
        "ml.lstm_forward_calls": counts.get("ml.lstm_forward_calls", 0),
        "ml.lstm_forward_rows": counts.get("ml.lstm_forward_rows", 0),
        "snn.window_s": self_s["snn.window"],
        "snn.window_calls": calls["snn.window"],
        "snn.host_s": self_s["gen.pathfinder"],
        "snn.scalar_process_calls": counts.get("snn.scalar_process_calls", 0),
        "sim.baseline_s": total_s["sim.baseline"],
        "sim.replay_s": replay_s,
        "sim.plan_s": self_s["sim.plan"],
        "sim.kernel_s": self_s["sim.kernel"],
        "sim.replay_other_s": self_s["sim.replay"],
        "sim.replay_calls": calls["sim.replay"],
        "obs.ledger_append_s": self_s["obs.ledger_append"],
        "obs.ledger_append_calls": calls["obs.ledger_append"],
        "campaign.queue_s": self_s["campaign.queue"],
        "campaign.queue_calls": calls["campaign.queue"],
    }
    for name in NEURAL:
        metrics[f"ml.{name}.train_s"] = self_s[f"ml.{name}.train"]
        metrics[f"ml.{name}.infer_s"] = self_s[f"gen.{name}"]
    for metric, name in GEN_PREFETCHERS.items():
        metrics[f"gen.{metric}_s"] = total_s[f"gen.{name}"]
    breakdown = sorted(((name, calls[name], s) for name, s in self_s.items()
                        if calls[name]), key=lambda row: -row[2])
    breakdown.append(("(residual)", 0, rest))
    closure = abs(sum(own) + rest - wall) / wall if wall > 0 else 0.0
    return metrics, breakdown, closure


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def load_benchmark() -> Dict[str, object]:
    return json.loads(BENCHMARK_FILE.read_text())


def declared_metrics(benchmark: Dict[str, object],
                     trace: bool) -> Dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them."""
    section = benchmark["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> Dict[str, object]:
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "loadavg_before": os.getloadavg(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": git_sha(), "blas_env": dict(BLAS_PINS),
            "platform": platform.platform()}


def print_outcome(outcome: Outcome, units: Dict[str, str], seed: int,
                  trace: bool) -> None:
    print(f"\n== {outcome.workload} (seed {seed}, "
          f"{'traced' if trace else 'end to end'}): "
          f"{outcome.attempted} cells attempted, {outcome.failed} failed ==")
    width = max(len(name) for name in units)
    for name, unit in units.items():
        value = outcome.metrics[name]
        note = outcome.notes.get(name, "")
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} {note}")
    if outcome.breakdown:
        wall = sum(row[2] for row in outcome.breakdown)
        print(f"\n  where the time went (first traced run, "
              f"self time, {wall:.3f} s):")
        for name, calls, seconds in outcome.breakdown:
            share = seconds / wall if wall > 0 else 0.0
            print(f"    {name:<28} {calls:>7} calls {seconds:>9.3f} s "
                  f"{share:>7.1%}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED {failure}")
    if len(outcome.failures) > 20:
        print(f"  ... and {len(outcome.failures) - 20} more failures")


def cross_check(outcomes: Dict[str, Outcome], workloads: Dict[str, Workload],
                seed: int) -> None:
    """Grid path vs campaign path on the cells both run."""
    grid = outcomes.get("table6-online")
    campaign = outcomes.get("campaign-table")
    if grid is None or campaign is None or not grid.cells \
            or not campaign.cells:
        return
    shared = (set(workloads["table6-online"].prefetchers)
              & set(workloads["campaign-table"].prefetchers))
    for key, metrics in grid.cells.items():
        if key.split("/")[1] in shared and campaign.cells.get(key) != metrics:
            campaign.failed += 1
            campaign.failures.append(
                f"{key}: campaign path differs from the grid path")


def write_golden(outcome: Outcome, workload: Workload, seed: int,
                 golden_dir: Path) -> None:
    golden_dir.mkdir(parents=True, exist_ok=True)
    path = golden_path(golden_dir, workload.name, seed)
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "loads": workload.loads,
        "cells": dict(sorted(outcome.cells.items()))}, indent=1) + "\n")
    print(f"[golden written to {path}]")


def run(names: Sequence[str], seed: int, seconds: float, trace: bool,
        workloads: Dict[str, Workload] = WORKLOADS,
        golden_dir: Path = GOLDEN_DIR, work: Path = WORK_DIR,
        out: Optional[Path] = None,
        make_golden: bool = False) -> Tuple[Dict[str, object], int]:
    """Run, check and report the named workloads.

    Returns the final report (the last line printed) and the exit code.
    """
    units = declared_metrics(load_benchmark(), trace)
    env = child_env(work)
    info = environment()
    outcomes: Dict[str, Outcome] = {}
    for name in names:
        runner = Runner(workloads[name], seed, work, env, golden_dir,
                        use_golden=not make_golden)
        runner.warm_up()
        if trace:
            runner.traced(seconds)
        else:
            runner.end_to_end(seconds)
        outcomes[name] = runner.outcome
    cross_check(outcomes, workloads, seed)
    info["loadavg_after"] = os.getloadavg()

    for outcome in outcomes.values():
        # A failed run can leave a metric unmeasured; report 0 and fail.
        for name in units:
            value = outcome.metrics.get(name)
            if value is None or not math.isfinite(value):
                outcome.failures.append(f"no value measured for {name}")
                outcome.metrics[name] = 0.0
        print_outcome(outcome, units, seed, trace)
    print(f"\nenvironment: {json.dumps(info)}")

    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    correct = all(not o.failures for o in outcomes.values())
    if make_golden and correct:
        for name, outcome in outcomes.items():
            write_golden(outcome, workloads[name], seed, golden_dir)

    def metric_block(outcome: Outcome) -> Dict[str, object]:
        return {name: {"value": outcome.metrics[name], "unit": unit}
                for name, unit in units.items()}

    if len(outcomes) == 1:
        metrics = metric_block(next(iter(outcomes.values())))
    else:
        metrics = {name: metric_block(o) for name, o in outcomes.items()}
    report = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "schema": 1, "seed": seed, "trace": trace, "seconds": seconds,
            "environment": info,
            "workloads": {
                name: {"metrics": {m: {"value": o.metrics[m], "unit": u,
                                       "samples": o.samples.get(m, [])}
                                   for m, u in units.items()},
                       "raw": o.raw,
                       "attempted": o.attempted, "failed": o.failed,
                       "failures": o.failures, "breakdown": o.breakdown}
                for name, o in outcomes.items()}}, indent=1) + "\n")
        print(f"[results written to {out}]")
    return report, 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload "
                             "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path,
                        help="write metrics with per-repeat samples here")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this seed's cell metrics as golden")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else float(load_benchmark()["run_seconds"]))
    names = [args.workload] if args.workload else list(WORKLOADS)
    report, code = run(names, args.seed, seconds, bool(args.trace),
                       out=args.out, make_golden=args.write_golden)
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
