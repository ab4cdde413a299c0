"""Wall-clock perf-regression benchmark for the prefetcher pipeline.

The evaluation pipeline has three timed phases per (workload,
prefetcher) cell — trace generation, prefetch-file generation, and
simulator replay — and the SNN fast path (see docs/architecture.md,
"Performance") lives or dies by the middle one.  This module measures
all three at fixed seeds and writes a schema-versioned JSON report
(``BENCH_perf.json`` at the repo root) so a slowdown shows up as a
reviewable diff rather than an anecdote.

Replay is timed under both engines (see docs/architecture.md, "Replay
engines"): ``replay_s`` is the batch kernel that ``repro run`` uses by
default (``replay_batch_s`` is the same measurement under its explicit
name — the key the ``--stats`` significance gate matches across
reports), ``replay_reference_s`` is the readable reference loop, and
``replay_speedup`` is reference over headline.  Because each prefetch
file is replayed under both, every bench run doubles as a parity check
— the engines' :class:`~repro.sim.metrics.SimResult` values must be
bit-identical or the bench aborts.

Timings use the min over ``repeats`` runs (the least-noisy estimator
for wall-clock benchmarks); everything else in the report — speedup,
accuracy, issued counts — is deterministic at a fixed seed and doubles
as a correctness fingerprint for the timed code path.

``repro bench`` is the CLI entry point; ``benchmarks/perf/validate.py``
checks a report against :func:`validate_bench` in CI and can gate on
regressions against a committed baseline report.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigError, SimulationError
from ..prefetchers.base import generate_prefetches
from ..sim import simulate
from ..traces import make_trace
from .runner import default_hierarchy, make_prefetcher

#: Bump when the report layout changes incompatibly.
#: v2 added dual-engine replay timings (``replay_reference_s``,
#: ``replay_speedup``, ``baseline_replay_reference_s``,
#: ``replay_engine``); v3 added per-repeat timing ``samples`` (top
#: level and per prefetcher) so the compare layer can run
#: significance tests instead of the blind threshold gate.
SCHEMA_VERSION = 3

#: Versions :func:`validate_bench` accepts.  v2 reports (no samples)
#: still load and compare under the threshold gate — committed
#: baselines must not be invalidated by a schema bump.
SUPPORTED_SCHEMA_VERSIONS = (2, 3)

#: The single fractional timing-regression threshold (+25%) shared by
#: ``repro compare``, ``repro bench --baseline`` / ``validate.py``,
#: and the CI gate.  Used only when per-repeat/per-seed samples are
#: unavailable; with samples, the significance gate in
#: :mod:`repro.harness.stats` replaces it.
DEFAULT_MAX_REGRESS = 0.25

#: The default lineup: the cheap table prefetchers bracket PATHFINDER
#: so a regression report localises the slowdown to one pipeline.
DEFAULT_PREFETCHERS = ("nextline", "bo", "spp", "sisb", "pathfinder")

#: ``--small`` preset: enough accesses for every phase to be non-trivial
#: but quick enough for a CI smoke step.
SMALL_PREFETCHERS = ("nextline", "spp", "pathfinder")
SMALL_N_ACCESSES = 1500

_PHASE_KEYS = ("prefetch_file_s", "replay_s", "replay_reference_s")
#: Keys newer reports carry that committed v2/v3 baselines predate;
#: validated only when present so old baselines keep loading.
_OPTIONAL_PHASE_KEYS = ("replay_batch_s",)
_OPTIONAL_TOP_KEYS = ("baseline_replay_batch_s",)
#: Headline engines a report may name; pre-batch reports used "fast",
#: an engine since removed, and still load.
_REPORT_ENGINES = ("batch", "fast", "reference")
_REQUIRED_TOP = ("schema_version", "workload", "n_accesses", "seed",
                 "budget", "repeats", "environment", "replay_engine",
                 "trace_gen_s", "baseline_replay_s",
                 "baseline_replay_reference_s", "prefetchers")
_REQUIRED_CELL = ("replay_speedup", "speedup", "accuracy", "coverage",
                  "issued")


def _timed_replay(trace, requests, hierarchy, name, engine):
    start = time.perf_counter()
    result = simulate(trace, requests, config=hierarchy,
                      prefetcher_name=name, engine=engine)
    return time.perf_counter() - start, result


def run_bench(prefetchers: Sequence[str] = DEFAULT_PREFETCHERS,
              workload: str = "cc-5",
              n_accesses: int = 20_000,
              seed: int = 1,
              budget: int = 2,
              repeats: int = 1) -> Dict:
    """Time every pipeline phase for each prefetcher at a fixed seed.

    Returns the report dict (see module docstring); it always passes
    :func:`validate_bench`.

    Raises :class:`~repro.errors.SimulationError` if the batch and
    reference engines ever disagree on a replay result.
    """
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if not prefetchers:
        raise ConfigError("need at least one prefetcher")
    for name in prefetchers:
        make_prefetcher(name)  # fail fast on unknown names

    # Keep the cyclic collector out of the timed regions: a collection
    # scheduled by *earlier* allocations (another bench cell, the test
    # suite) otherwise lands inside one arbitrary repeat as a
    # multi-millisecond outlier that swamps sub-millisecond phases.
    # CPython frees this pipeline's objects by refcount regardless;
    # only cycle detection is deferred, and it is restored on exit.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return _run_bench_timed(prefetchers, workload, n_accesses, seed,
                                budget, repeats)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_bench_timed(prefetchers: Sequence[str], workload: str,
                     n_accesses: int, seed: int, budget: int,
                     repeats: int) -> Dict:
    hierarchy = default_hierarchy()

    trace_gen_s = []
    for _ in range(repeats):
        start = time.perf_counter()
        trace = make_trace(workload, n_accesses, seed=seed)
        trace_gen_s.append(time.perf_counter() - start)

    baseline_batch_s, baseline_ref_s = [], []
    baseline = None
    for _ in range(repeats):
        batch_s, baseline = _timed_replay(trace, (), hierarchy, "none",
                                          "batch")
        ref_s, ref_baseline = _timed_replay(trace, (), hierarchy, "none",
                                            "reference")
        if baseline != ref_baseline:
            raise SimulationError(
                "engine parity violation on the no-prefetch baseline")
        baseline_batch_s.append(batch_s)
        baseline_ref_s.append(ref_s)
    assert baseline is not None

    cell_keys = _PHASE_KEYS + _OPTIONAL_PHASE_KEYS
    per_prefetcher: Dict[str, Dict] = {}
    for name in prefetchers:
        samples: Dict[str, list] = {key: [] for key in cell_keys}
        result = None
        for _ in range(repeats):
            # A fresh prefetcher per repeat: learning state must not
            # leak between runs or the later repeats time a different
            # (warmer) workload than the first.
            start = time.perf_counter()
            requests = generate_prefetches(make_prefetcher(name), trace,
                                           budget=budget)
            timings = {"prefetch_file_s": time.perf_counter() - start}
            timings["replay_s"], result = _timed_replay(
                trace, requests, hierarchy, name, "batch")
            # ``replay_batch_s`` re-states the headline under the
            # engine-explicit key the significance gate matches on.
            timings["replay_batch_s"] = timings["replay_s"]
            timings["replay_reference_s"], ref_result = _timed_replay(
                trace, requests, hierarchy, name, "reference")
            if result != ref_result:
                raise SimulationError(
                    f"engine parity violation replaying {name!r}")
            for key in cell_keys:
                samples[key].append(timings[key])
        assert result is not None
        best = {key: min(samples[key]) for key in cell_keys}
        per_prefetcher[name] = {
            "prefetch_file_s": best["prefetch_file_s"],
            "replay_s": best["replay_s"],
            "replay_batch_s": best["replay_batch_s"],
            "replay_reference_s": best["replay_reference_s"],
            "replay_speedup": (best["replay_reference_s"] / best["replay_s"]
                               if best["replay_s"] > 0 else 0.0),
            "speedup": (result.ipc / baseline.ipc if baseline.ipc else 0.0),
            "accuracy": result.accuracy(),
            "coverage": result.coverage(baseline.llc_misses),
            "issued": result.pf_issued,
            #: v3: raw per-repeat wall times behind every headline min,
            #: the inputs to the compare layer's significance gate.
            "samples": samples,
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "n_accesses": n_accesses,
        "seed": seed,
        "budget": budget,
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        #: ``replay_s`` / ``baseline_replay_s`` are measured under this
        #: engine (the simulator default).
        "replay_engine": "batch",
        "trace_gen_s": min(trace_gen_s),
        "baseline_replay_s": min(baseline_batch_s),
        "baseline_replay_batch_s": min(baseline_batch_s),
        "baseline_replay_reference_s": min(baseline_ref_s),
        #: v3: per-repeat samples behind the top-level minima.
        "samples": {
            "trace_gen_s": trace_gen_s,
            "baseline_replay_s": baseline_batch_s,
            "baseline_replay_batch_s": baseline_batch_s,
            "baseline_replay_reference_s": baseline_ref_s,
        },
        "prefetchers": per_prefetcher,
    }


def _validate_samples(samples: object, keys: Sequence[str],
                      repeats: int, where: str) -> None:
    if not isinstance(samples, dict):
        raise ConfigError(f"perf report {where} 'samples' must be an object")
    for key in keys:
        values = samples.get(key)
        if (not isinstance(values, list) or len(values) != repeats
                or any(not isinstance(v, (int, float)) or v < 0
                       for v in values)):
            raise ConfigError(
                f"perf report {where} samples[{key!r}] must be "
                f"{repeats} non-negative number(s)")


def validate_bench(report: Dict) -> None:
    """Raise :class:`ConfigError` unless ``report`` is a well-formed
    perf report this code can compare against (schema v2 or v3; v3
    additionally requires per-repeat timing samples)."""
    if not isinstance(report, dict):
        raise ConfigError("perf report must be a JSON object")
    missing = [key for key in _REQUIRED_TOP if key not in report]
    if missing:
        raise ConfigError(f"perf report missing keys: {missing}")
    if report["schema_version"] not in SUPPORTED_SCHEMA_VERSIONS:
        raise ConfigError(
            f"perf report schema_version {report['schema_version']!r} not in "
            f"supported {SUPPORTED_SCHEMA_VERSIONS}")
    if report["replay_engine"] not in _REPORT_ENGINES:
        raise ConfigError(
            f"perf report replay_engine {report['replay_engine']!r} unknown")
    top_timings = ["trace_gen_s", "baseline_replay_s",
                   "baseline_replay_reference_s"]
    # Batch-era keys: required only of reports that claim them.
    top_timings += [key for key in _OPTIONAL_TOP_KEYS if key in report]
    for key in top_timings:
        value = report[key]
        if not isinstance(value, (int, float)) or value < 0:
            raise ConfigError(f"perf report {key} must be non-negative")
    has_samples = report["schema_version"] >= 3
    repeats = report.get("repeats")
    if has_samples:
        if not isinstance(repeats, int) or repeats < 1:
            raise ConfigError("perf report repeats must be a positive int")
        top_samples = report.get("samples")
        _validate_samples(top_samples,
                          ("trace_gen_s", "baseline_replay_s",
                           "baseline_replay_reference_s"),
                          repeats, "top-level")
        optional_top = [key for key in _OPTIONAL_TOP_KEYS
                        if isinstance(top_samples, dict)
                        and key in top_samples]
        _validate_samples(top_samples, optional_top, repeats, "top-level")
    cells = report["prefetchers"]
    if not isinstance(cells, dict) or not cells:
        raise ConfigError("perf report needs a non-empty 'prefetchers' map")
    for name, cell in cells.items():
        if not isinstance(cell, dict):
            raise ConfigError(f"perf report entry {name!r} must be an object")
        optional_present = tuple(key for key in _OPTIONAL_PHASE_KEYS
                                 if key in cell)
        for key in _PHASE_KEYS + optional_present:
            value = cell.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigError(
                    f"perf report entry {name!r} needs non-negative {key!r}")
        for key in _REQUIRED_CELL:
            if key not in cell:
                raise ConfigError(
                    f"perf report entry {name!r} missing {key!r}")
        if has_samples:
            cell_samples = cell.get("samples")
            _validate_samples(cell_samples, _PHASE_KEYS, repeats,
                              f"entry {name!r}")
            optional_sampled = tuple(
                key for key in _OPTIONAL_PHASE_KEYS
                if isinstance(cell_samples, dict) and key in cell_samples)
            _validate_samples(cell_samples, optional_sampled, repeats,
                              f"entry {name!r}")


def bench_samples(report: Dict, timing: str,
                  prefetcher: Optional[str] = None) -> Optional[list]:
    """The per-repeat sample list behind a headline timing, or ``None``
    for schema-v2 reports that never recorded samples.

    ``prefetcher=None`` selects a top-level timing (``trace_gen_s`` /
    ``baseline_replay_s`` / ``baseline_replay_reference_s``).
    """
    if report.get("schema_version", 0) < 3:
        return None
    if prefetcher is None:
        return (report.get("samples") or {}).get(timing)
    cell = (report.get("prefetchers") or {}).get(prefetcher) or {}
    return (cell.get("samples") or {}).get(timing)


def timing_regression(label: str, new: float, old: float,
                      max_regress: float = DEFAULT_MAX_REGRESS
                      ) -> Optional[str]:
    """The single timing-regression rule shared by the bench gate and
    ``repro compare``: flag when ``new`` exceeds ``old`` by more than
    ``max_regress`` (fractional, e.g. ``0.25`` = +25%).

    Returns the human-readable regression message, or ``None`` on pass
    (a non-positive baseline timing can never regress — there is
    nothing meaningful to compare against).
    """
    if old > 0 and new > old * (1.0 + max_regress):
        return (f"{label}: {new:.4f}s vs baseline {old:.4f}s "
                f"(+{(new / old - 1.0) * 100:.0f}%, limit "
                f"+{max_regress * 100:.0f}%)")
    return None


def compare_bench(report: Dict, baseline: Dict,
                  max_regress: float = DEFAULT_MAX_REGRESS
                  ) -> Sequence[str]:
    """Compare a fresh report's headline replay times to a baseline.

    ``replay_s`` is compared under each report's own headline engine
    (batch for new reports, the since-removed fast loop for committed
    pre-batch baselines) —
    the gate asks "did the default path get slower", not "did one
    engine change".

    Returns a list of human-readable regression messages (empty =
    pass).  A timing regresses per :func:`timing_regression`.  Reports
    must describe the same experiment — workload, n_accesses, seed and
    budget — otherwise a :class:`ConfigError` is raised so CI can skip
    rather than compare apples to oranges.
    """
    validate_bench(report)
    validate_bench(baseline)
    for key in ("workload", "n_accesses", "seed", "budget"):
        if report[key] != baseline[key]:
            raise ConfigError(
                f"perf reports are not comparable: {key} differs "
                f"({report[key]!r} vs baseline {baseline[key]!r})")
    regressions = []

    def check(label, new, old):
        message = timing_regression(label, new, old, max_regress)
        if message is not None:
            regressions.append(message)

    check("baseline_replay_s", report["baseline_replay_s"],
          baseline["baseline_replay_s"])
    for name, cell in report["prefetchers"].items():
        old_cell = baseline["prefetchers"].get(name)
        if old_cell is not None:
            check(f"{name}.replay_s", cell["replay_s"], old_cell["replay_s"])
    return regressions


def save_bench(report: Dict, path) -> None:
    """Validate and write a report as pretty-printed JSON (atomically —
    a crash mid-write must never leave a torn baseline for the CI
    regression gate to diff against)."""
    from ..resilience.atomic import atomic_write_json

    validate_bench(report)
    atomic_write_json(path, report, indent=2, sort_keys=False)


def load_bench(path) -> Dict:
    """Read and validate a report written by :func:`save_bench`."""
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read perf report {path}: {exc}") from exc
    validate_bench(report)
    return report
