"""Drivers that turn (workload, prefetcher) pairs into metrics.

The flow mirrors the paper's methodology exactly (§4.1): generate the
trace, run the prefetcher offline to produce a prefetch file, replay
trace + prefetch file through the simulator, and derive accuracy and
coverage against a no-prefetch baseline run of the same trace.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from .. import core, prefetchers
from ..errors import ConfigError, WorkerCrashError
from ..obs import Observability, default_observability
from ..obs.ledger import active_ledger, current_run_id
from ..resilience import faults
from ..resilience.guard import GuardedPrefetcher
from ..prefetchers.base import Prefetcher, generate_prefetches
from ..sim import SimResult, simulate
from ..sim.simulator import HierarchyConfig, Simulator
from ..traces import make_trace
from ..types import Trace

if TYPE_CHECKING:
    from ..core import PathfinderConfig


def default_hierarchy() -> HierarchyConfig:
    """The hierarchy used throughout the reproduction's evaluation.

    Scaled down 16× from the paper's Table 3 so the default 16–20K-load
    traces exert the same working-set pressure the paper's 1M-load
    traces exert on a 2MB LLC (see ``HierarchyConfig.scaled``).
    """
    return HierarchyConfig.scaled()


def _pathfinder_nl_sisb() -> Prefetcher:
    return prefetchers.EnsemblePrefetcher(
        [core.PathfinderPrefetcher(),
         prefetchers.NextLinePrefetcher(degree=1),
         prefetchers.SISBPrefetcher()])


def _pathfinder_nl() -> Prefetcher:
    return prefetchers.EnsemblePrefetcher(
        [core.PathfinderPrefetcher(),
         prefetchers.NextLinePrefetcher(degree=1)])


def _adaptive_pf_nl_sisb() -> Prefetcher:
    return prefetchers.AdaptiveEnsemblePrefetcher(
        [core.PathfinderPrefetcher(),
         prefetchers.NextLinePrefetcher(degree=1),
         prefetchers.SISBPrefetcher()])


def _pathfinder_coldpage() -> Prefetcher:
    return prefetchers.EnsemblePrefetcher(
        [core.PathfinderPrefetcher(), prefetchers.ColdPagePredictor()])


#: Factory per prefetcher name, matching the paper's Figure 4 lineup.
#: Each factory reaches its class through the lazy ``prefetchers`` and
#: ``core`` packages, so a prefetcher's module (and, for the neural
#: baselines, :mod:`repro.ml`) is imported only when it is built.
PREFETCHER_FACTORIES: Dict[str, Callable[[], Prefetcher]] = {
    "nextline": lambda: prefetchers.NextLinePrefetcher(degree=2),
    "bo": lambda: prefetchers.BestOffsetPrefetcher(),
    "spp": lambda: prefetchers.SPPPrefetcher(),
    "sisb": lambda: prefetchers.SISBPrefetcher(),
    "pythia": lambda: prefetchers.PythiaPrefetcher(),
    "delta-lstm": lambda: prefetchers.DeltaLSTMPrefetcher(),
    "voyager": lambda: prefetchers.VoyagerPrefetcher(),
    "pathfinder": lambda: core.PathfinderPrefetcher(),
    "pathfinder+nl": _pathfinder_nl,
    "pathfinder+nl+sisb": _pathfinder_nl_sisb,
    # Future-work extensions (paper §3.4 / §5):
    "adaptive-ensemble": _adaptive_pf_nl_sisb,
    "pathfinder+coldpage": _pathfinder_coldpage,
}


#: A grid cell's prefetcher: a registry name or an explicit PATHFINDER
#: configuration (the sensitivity experiments sweep configs directly).
CellSpec = Union[str, "PathfinderConfig"]


def make_prefetcher(spec: CellSpec) -> Prefetcher:
    """Instantiate a fresh prefetcher by registry name or from a config."""
    if not isinstance(spec, str):
        return core.PathfinderPrefetcher(spec)
    try:
        return PREFETCHER_FACTORIES[spec]()
    except KeyError:
        known = ", ".join(sorted(PREFETCHER_FACTORIES))
        raise ConfigError(f"unknown prefetcher {spec!r}; known: {known}") from None


def _spec_name(spec: CellSpec) -> str:
    return spec if isinstance(spec, str) else "pathfinder"


def cell_label(index: int, workload: str, spec: CellSpec) -> str:
    """Short human-readable cell tag for event records and the ledger.

    The index disambiguates config-sweep cells that share a prefetcher
    name; the canonical (long) key from :func:`cell_key` is what the
    ledger stores alongside it for exact identity.
    """
    return f"{index:03d}:{workload}:{_spec_name(spec)}"


def cell_key(workload: str, spec: CellSpec, *, seed: int, n_accesses: int,
             budget: int, hierarchy) -> str:
    """Canonical, self-describing key for one grid cell.

    ``spec`` is a registry prefetcher name or a ``PathfinderConfig``;
    the hierarchy is fingerprinted field-by-field so a ledger written
    against different cache geometry can never be resumed silently.
    """
    if isinstance(spec, str):
        spec_desc: object = spec
    elif dataclasses.is_dataclass(spec):
        spec_desc = {"pathfinder_config": dataclasses.asdict(spec)}
    else:
        raise ConfigError(f"unsupported cell spec {spec!r}")
    payload = {
        "workload": workload,
        "spec": spec_desc,
        "seed": seed,
        "n_accesses": n_accesses,
        "budget": budget,
        "hierarchy": dataclasses.asdict(hierarchy),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard a grid fights for each cell (``--retries``/``--cell-timeout``).

    Attributes:
        retries: Extra attempts per failed cell.  With retries, a cell
            that exhausts them degrades to a zeroed ``outcome: failed``
            row; without, a failed cell raises
            :class:`~repro.errors.WorkerCrashError`.
        cell_timeout_s: Wall-clock budget per attempt; a cell that runs
            longer is reclaimed and charged an attempt.  ``None``
            disables hang detection.
    """

    retries: int = 0
    cell_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigError("cell_timeout_s must be positive")


#: The ambient policy and the campaign stats of every grid run under
#: it (see :func:`ambient_policy`); ``None`` outside such a block.
_AMBIENT: Optional[Tuple[Optional[ResiliencePolicy], object]] = None


@contextmanager
def ambient_policy(policy: Optional[ResiliencePolicy]) -> Iterator[object]:
    """Make ``policy`` the default of every grid run in the block.

    The CLI's ``--retries``/``--cell-timeout`` reach the experiments
    this way, so their signatures stay unchanged; an explicit argument
    or ``Evaluation.policy`` still wins.  Yields a
    :class:`~repro.campaign.CampaignStats` that adds up every grid
    campaign the block runs (the ``[resilience]`` line and the ledger's
    ``finish.resilience``).
    """
    from ..campaign import CampaignStats

    global _AMBIENT
    previous, stats = _AMBIENT, CampaignStats()
    _AMBIENT = (policy, stats)
    try:
        yield stats
    finally:
        _AMBIENT = previous


@dataclass
class EvalRow:
    """One (workload, prefetcher) measurement.

    ``speedup`` and ``coverage`` are relative to the same workload's
    no-prefetch baseline run.
    """

    workload: str
    prefetcher: str
    ipc: float
    speedup: float
    accuracy: float
    coverage: float
    issued: int
    useful: int
    baseline_misses: int
    result: SimResult
    #: Wall-clock breakdown of this row's phases (seconds), e.g.
    #: ``{"prefetch_file_s": ..., "replay_s": ...}``.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Resilience accounting: ``engine_used`` (the replay engine that
    #: actually ran, after any fallback) on every simulated row, plus —
    #: when resilience machinery engaged — keys like ``outcome``
    #: ("ok"/"retried"/"failed"), ``attempts``, ``error``,
    #: ``prefetcher_errors``, ``quarantined`` (see docs/architecture.md).
    extras: Dict[str, object] = field(default_factory=dict)


def run_prefetcher(trace: Trace, prefetcher: Prefetcher,
                   baseline: SimResult,
                   hierarchy: Optional[HierarchyConfig] = None,
                   budget: int = 2,
                   obs: Optional[Observability] = None) -> EvalRow:
    """Generate this prefetcher's prefetch file and replay it.

    With an enabled ``obs`` bundle, the two phases are profiled
    (``prefetch_file`` / ``replay``), the prefetcher's internal
    telemetry is published, and the simulator emits lifecycle events;
    the per-phase wall times land in :attr:`EvalRow.timings` either way.

    The prefetcher runs behind a
    :class:`~repro.resilience.guard.GuardedPrefetcher`: a healthy model
    passes through bit-identically (the parity suites assert this), a
    throwing one is quarantined to no-prefetch with the degradation
    recorded in :attr:`EvalRow.extras` instead of aborting the run.
    """
    obs = obs if obs is not None else Observability.disabled()
    hierarchy = hierarchy or default_hierarchy()
    if not isinstance(prefetcher, GuardedPrefetcher):
        prefetcher = GuardedPrefetcher(prefetcher)
    gen_recorder = None
    if obs.series is not None:
        gen_recorder = obs.series.recorder(
            component="generation", prefetcher=prefetcher.name,
            trace=trace.name)
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    with obs.profiler.phase("prefetch_file"):
        requests = generate_prefetches(prefetcher, trace, budget=budget,
                                       recorder=gen_recorder)
    timings["prefetch_file_s"] = time.perf_counter() - start
    if obs.enabled:
        prefetcher.publish_telemetry(obs)
    start = time.perf_counter()
    with obs.profiler.phase("replay"):
        sim = Simulator(hierarchy, obs=obs)
        result = sim.run(trace, requests, prefetcher.name)
    timings["replay_s"] = time.perf_counter() - start
    extras: Dict[str, object] = {"engine_used": sim.engine_used}
    if prefetcher.errors:
        extras["prefetcher_errors"] = prefetcher.errors
        extras["quarantined"] = prefetcher.quarantined
        extras["error"] = prefetcher.last_error
    return EvalRow(
        workload=trace.name,
        prefetcher=prefetcher.name,
        ipc=result.ipc,
        speedup=result.ipc / baseline.ipc if baseline.ipc else 0.0,
        accuracy=result.accuracy(),
        coverage=result.coverage(baseline.llc_misses),
        issued=result.pf_issued,
        useful=result.pf_useful,
        baseline_misses=baseline.llc_misses,
        result=result,
        timings=timings,
        extras=extras)


def eval_row_metrics(row: EvalRow) -> Dict[str, object]:
    """The canonical ledger metrics dict for one row.

    Shared by the grid's ledger recording and the campaign supervisor
    so every cell record — however it was executed — carries the same
    comparable metric keys.
    """
    return {
        "ipc": row.ipc,
        "speedup": row.speedup,
        "accuracy": row.accuracy,
        "coverage": row.coverage,
        "issued": row.issued,
        "useful": row.useful,
        "late": row.result.pf_late,
        "dropped": row.result.extra.get("pf_dropped", 0),
    }


def row_to_dict(row: EvalRow) -> Dict[str, object]:
    """Serialise an ``EvalRow`` (with its ``SimResult``) to plain data.

    JSON round-trips ints exactly and floats via ``repr``, so
    :func:`row_from_dict` restores a dataclass-equal row: what makes a
    ``--resume`` restore indistinguishable from re-running the cell.
    """
    return dataclasses.asdict(row)


def row_from_dict(payload: Dict[str, object]) -> EvalRow:
    """Rebuild an ``EvalRow`` from :func:`row_to_dict` output."""
    try:
        data = dict(payload)
        data["result"] = SimResult(**data["result"])
        return EvalRow(**data)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"unreadable ledger row: {exc}") from exc


@dataclass
class Evaluation:
    """A (workloads × prefetchers) grid runner with caching.

    Traces and their no-prefetch baselines are generated once and
    reused across prefetchers, so every prefetcher sees the identical
    access stream — the paper's fairness requirement (§4.5).

    Grid entry points accept ``jobs``: with ``jobs > 1`` the cells run
    as an ephemeral campaign (:mod:`repro.campaign`) on that many
    worker processes, and rows come back in the same deterministic
    order the serial path produces (each cell is an independent, seeded
    run, so the values are identical too — only wall-clock timings
    differ).
    """

    n_accesses: int = 20_000
    seed: int = 1
    hierarchy: HierarchyConfig = field(default_factory=default_hierarchy)
    budget: int = 2
    #: Optional observability bundle threaded through trace generation,
    #: baseline replay, and every prefetcher run.
    obs: Optional[Observability] = None
    #: Retry/timeout policy for ``run_cells``.  ``None`` falls back to
    #: the ambient default (the CLI's ``--retries`` / ``--cell-timeout``,
    #: see :func:`ambient_policy`); with neither, a serial grid runs on
    #: the in-process parity path.
    policy: Optional[ResiliencePolicy] = None
    _traces: Dict[str, Trace] = field(default_factory=dict)
    _baselines: Dict[str, SimResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_accesses < 1:
            raise ConfigError(
                f"load count must be >= 1 (got {self.n_accesses})")

    def _active_obs(self) -> Observability:
        if self.obs is None:
            # Fall back to the CLI-installed ambient bundle so code that
            # builds its own Evaluation (the experiment registry) still
            # records into the invocation's registry and tracer.
            self.obs = default_observability() or Observability.disabled()
        return self.obs

    def trace(self, workload: str) -> Trace:
        """The cached trace for a workload (generated on first use)."""
        if workload not in self._traces:
            with self._active_obs().profiler.phase("trace_gen"):
                trace = make_trace(workload, self.n_accesses,
                                   seed=self.seed)
            # Inert unless the trace.corrupt fault point is armed.
            self._traces[workload] = faults.corrupt_trace(trace)
        return self._traces[workload]

    def baseline(self, workload: str) -> SimResult:
        """The cached no-prefetch run for a workload."""
        if workload not in self._baselines:
            obs = self._active_obs()
            with obs.profiler.phase("baseline_replay"):
                self._baselines[workload] = simulate(
                    self.trace(workload), config=self.hierarchy,
                    prefetcher_name="none", obs=obs)
        return self._baselines[workload]

    def run(self, workload: str, spec: CellSpec) -> EvalRow:
        """Evaluate one cell: a registry prefetcher or a PATHFINDER config."""
        return run_prefetcher(self.trace(workload), make_prefetcher(spec),
                              self.baseline(workload),
                              hierarchy=self.hierarchy, budget=self.budget,
                              obs=self._active_obs())

    def _cell_key(self, workload: str, spec: CellSpec) -> str:
        return cell_key(workload, spec, seed=self.seed,
                        n_accesses=self.n_accesses, budget=self.budget,
                        hierarchy=self.hierarchy)

    def _failed_row(self, workload: str, spec: CellSpec, attempts: int,
                    error: str) -> EvalRow:
        """A zeroed placeholder for a cell that exhausted its retries."""
        name = _spec_name(spec)
        result = SimResult(trace_name=workload, prefetcher_name=name)
        return EvalRow(workload=workload, prefetcher=name, ipc=0.0,
                       speedup=0.0, accuracy=0.0, coverage=0.0, issued=0,
                       useful=0, baseline_misses=0, result=result,
                       extras={"outcome": "failed", "attempts": attempts,
                               "error": error})

    def _ledger_cell(self, index: int, cell: Tuple[str, CellSpec],
                     row: EvalRow, key: str) -> None:
        """Record one cell's provenance, and its row, in the run ledger."""
        ledger = active_ledger()
        if ledger is None:
            return
        workload, spec = cell
        error = row.extras.get("error")
        outcome = str(row.extras.get("outcome", "ok"))
        ledger.record_cell(
            cell=cell_label(index, workload, spec),
            key=key,
            seed=self.seed,
            workload=workload,
            prefetcher=row.prefetcher,
            metrics=eval_row_metrics(row),
            timings=row.timings,
            outcome=outcome,
            attempts=int(row.extras.get("attempts", 1)),
            error=str(error) if error is not None else None,
            engine_used=row.extras.get("engine_used"),
            row=row_to_dict(row) if outcome != "failed" else None)

    def run_cells(self, cells: Sequence[Tuple[str, CellSpec]],
                  jobs: int = 1,
                  policy: Optional[ResiliencePolicy] = None
                  ) -> List[EvalRow]:
        """Evaluate arbitrary (workload, spec) cells, optionally in parallel.

        Cells the active run ledger records as finished — the cells a
        ``--resume`` ledger holds — are restored from it,
        dataclass-equal, instead of re-run.  With
        no policy in force and ``jobs <= 1`` (or one cell left), the
        rest run serially in-process: the parity anchor.  Otherwise
        they run as an ephemeral campaign on ``max(jobs, 1)`` worker
        processes, in a temporary directory removed on return.

        Args:
            cells: ``(workload, spec)`` pairs where ``spec`` is a
                registry prefetcher name or a ``PathfinderConfig``.
            jobs: Worker processes; ``<= 1`` runs serially in-process
                unless a policy is in force.
            policy: Retry/timeout policy; overrides the ``Evaluation``
                field and the ambient CLI default.  With a policy,
                every row's ``extras`` records its outcome.

        Returns:
            One ``EvalRow`` per cell, in the order given.

        Raises:
            WorkerCrashError: A cell failed and the policy allows no
                retries.  The exception carries ``partial_rows`` and
                per-cell ``failures`` — finished work is never
                discarded.
        """
        cells = list(cells)
        if policy is None:
            policy = self.policy
        if policy is None and _AMBIENT is not None:
            policy = _AMBIENT[0]
        keys = [self._cell_key(workload, spec) for workload, spec in cells]
        ledger = active_ledger()
        finished = ledger.restorable_rows() if ledger is not None else {}
        rows: List[Optional[EvalRow]] = [
            row_from_dict(finished[key]) if key in finished else None
            for key in keys]
        pending = [i for i, row in enumerate(rows) if row is None]
        if policy is None and (jobs <= 1 or len(pending) <= 1):
            # The serial parity anchor.  Each cell runs under tracer
            # context carrying the same run-id + cell tags the campaign
            # workers stamp, so serial and parallel event logs line up
            # record-for-record.
            obs = self._active_obs()
            run_id = current_run_id()
            for i in pending:
                workload, spec = cells[i]
                label = cell_label(i, workload, spec)
                if obs.series is not None:
                    # Fill the trace/baseline caches outside the cell's
                    # series context, as the campaign path does, so
                    # baseline series carry the same (cell-free) labels
                    # in both modes.
                    self.baseline(workload)
                context = {"cell": label}
                if run_id is not None:
                    context["run_id"] = run_id
                series_context = (obs.series.context(cell=label)
                                  if obs.series is not None
                                  else nullcontext())
                with obs.tracer.context(**context), series_context:
                    rows[i] = self.run(workload, spec)
                self._ledger_cell(i, cells[i], rows[i], keys[i])
            return rows
        if pending:
            self._run_campaign(cells, keys, rows, pending, max(jobs, 1),
                               policy)
        return rows

    def _run_campaign(self, cells: List[Tuple[str, CellSpec]],
                      keys: List[str], rows: List[Optional[EvalRow]],
                      pending: List[int], workers: int,
                      policy: Optional[ResiliencePolicy]) -> None:
        """Run the pending cells as an ephemeral campaign; fill ``rows``.

        Traces and baselines are generated here, in the parent, so every
        worker replays the identical access stream and baseline series
        are recorded once, without a cell label, as in the serial loop.
        Each cell's registry, events and series come back with its row
        and are folded in cell order, so merged observability matches
        the serial loop.
        """
        from ..campaign import Campaign, CampaignCell, CampaignSpec
        from ..campaign.queue import QUARANTINED

        obs = self._active_obs()
        for i in pending:
            self.baseline(cells[i][0])
        # A cell listed twice runs once; both positions get its row.
        unique = {keys[i]: i for i in reversed(pending)}
        grid_cells = [CampaignCell(index=i, workload=cells[i][0],
                                   prefetcher=_spec_name(cells[i][1]),
                                   seed=self.seed, key=keys[i])
                      for i in sorted(unique.values())]
        # The spec is the envelope; the cells are the grid's own.  An
        # unregistered name is left out of it, so that cell fails in its
        # worker like any other cell error, not the whole grid up front.
        envelope = CampaignSpec(
            name="grid", seeds=(self.seed,), loads=self.n_accesses,
            budget=self.budget, workers=min(workers, len(grid_cells)),
            workloads=tuple(dict.fromkeys(c.workload for c in grid_cells)),
            prefetchers=tuple(dict.fromkeys(
                c.prefetcher for c in grid_cells
                if c.prefetcher in PREFETCHER_FACTORIES)) or ("nextline",),
            max_attempts=(policy.retries if policy is not None else 0) + 1)
        context = {
            "evaluation": dataclasses.replace(
                self, obs=Observability.disabled(), policy=None),
            "observe": obs.enabled,
            "capture": obs.enabled and obs.tracer.enabled,
            "series_window": (obs.series.window if obs.series is not None
                              else 0),
            "run_id": current_run_id(),
        }
        with tempfile.TemporaryDirectory(prefix="repro-grid-") as tmp:
            campaign = Campaign.for_grid(
                tmp, envelope, grid_cells,
                specs={key: cells[i][1] for key, i in unique.items()})
            result = campaign.run(
                echo=lambda _line: None, context=context,
                cell_timeout_s=policy.cell_timeout_s if policy else None)
        if _AMBIENT is not None:
            _AMBIENT[1].add(campaign.stats)

        failures: Dict[int, str] = {}
        for i in pending:
            workload, spec = cells[i]
            state = campaign.queue.cells[keys[i]]
            payload = campaign.results.get(keys[i])
            if payload is not None:
                row, registry, events, series_records = payload
                if registry is not None:
                    obs.registry.merge(registry)
                if events:
                    obs.tracer.ingest(events)
                if series_records and obs.series is not None:
                    obs.series.ingest(series_records)
                if policy is not None:
                    row.extras["outcome"] = ("ok" if state.attempts == 0
                                             else "retried")
                    row.extras["attempts"] = state.attempts + 1
                    if state.error is not None:
                        row.extras["error"] = state.error
                rows[i] = row
            elif state.state != QUARANTINED:
                continue  # interrupted before this cell finished
            elif policy is not None and policy.retries:
                rows[i] = self._failed_row(workload, spec, state.attempts,
                                           state.error or "cell failed")
            else:
                failures[i] = state.error or "cell failed"
                continue
            self._ledger_cell(i, cells[i], rows[i], keys[i])
        if result["interrupted"]:
            # SIGINT/SIGTERM stopped the campaign; the cells it finished
            # are in the ledger above, for a --resume.
            raise KeyboardInterrupt
        if failures:
            detail = "; ".join(f"{cell_label(i, *cells[i])} ({error})"
                               for i, error in failures.items())
            raise WorkerCrashError(
                f"{len(failures)} of {len(cells)} grid cell(s) failed: "
                f"{detail}", partial_rows=list(rows), failures=failures)

    def run_grid(self, workloads: Sequence[str],
                 prefetchers: Sequence[str],
                 jobs: int = 1,
                 policy: Optional[ResiliencePolicy] = None) -> List[EvalRow]:
        """Evaluate the full grid, row-major by workload."""
        return self.run_cells([(workload, name) for workload in workloads
                               for name in prefetchers], jobs=jobs,
                              policy=policy)


@dataclass(frozen=True)
class SeedAggregate:
    """Across-seed statistics for one (workload, prefetcher) cell.

    ``speedups`` retains the raw per-seed values (in seed order) so
    downstream consumers — significance tests, bootstrap CIs, the
    dashboard's ranking whiskers — can work from samples instead of
    the lossy mean/stdev summary.
    """

    workload: str
    prefetcher: str
    mean_speedup: float
    std_speedup: float
    mean_accuracy: float
    mean_coverage: float
    seeds: int
    speedups: Tuple[float, ...] = ()


def multi_seed_grid(workloads: Sequence[str],
                    prefetchers: Sequence[str],
                    seeds: Sequence[int] = (1, 2, 3),
                    n_accesses: int = 16_000,
                    hierarchy: Optional[HierarchyConfig] = None,
                    budget: int = 2,
                    obs: Optional[Observability] = None,
                    jobs: int = 1,
                    policy: Optional[ResiliencePolicy] = None
                    ) -> List[SeedAggregate]:
    """Run a grid across several trace seeds and aggregate.

    Synthetic traces make seed sensitivity a real validity question;
    this helper reports mean and standard deviation of the speedup per
    (workload, prefetcher) so conclusions can be checked for stability.

    Args:
        budget: Prefetches kept per triggering access (default matches
            ``Evaluation``'s).
        obs: Optional observability bundle shared by every per-seed
            evaluation (phases and metrics all land in one registry).
        jobs: Worker processes per seed grid; ``<= 1`` stays serial.
        policy: Optional retry/timeout policy for every per-seed grid.

    Cell keys embed the seed, so one ``--resume`` ledger resumes the
    whole multi-seed sweep.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    evaluations = [Evaluation(n_accesses=n_accesses, seed=seed,
                              hierarchy=hierarchy or default_hierarchy(),
                              budget=budget, obs=obs, policy=policy)
                   for seed in seeds]
    cells = [(workload, name) for workload in workloads
             for name in prefetchers]
    per_seed = [evaluation.run_cells(cells, jobs=jobs)
                for evaluation in evaluations]
    aggregates: List[SeedAggregate] = []
    for index, (workload, name) in enumerate(cells):
        rows = [seed_rows[index] for seed_rows in per_seed]
        speedups = [r.speedup for r in rows]
        aggregates.append(SeedAggregate(
            workload=workload,
            prefetcher=name,
            mean_speedup=statistics.fmean(speedups),
            std_speedup=(statistics.stdev(speedups)
                         if len(speedups) > 1 else 0.0),
            mean_accuracy=statistics.fmean(r.accuracy for r in rows),
            mean_coverage=statistics.fmean(r.coverage for r in rows),
            seeds=len(seeds),
            speedups=tuple(speedups)))
    return aggregates
