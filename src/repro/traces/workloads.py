"""The 11 evaluation workloads, as calibrated synthetic generators.

The paper evaluates on ML-DPC traces (GAP ``cc-5``/``bfs-10``, SPEC06
``omnetpp/astar/soplex/sphinx``, SPEC17 ``mcf/xalan``, CloudSuite
``cassandra/cloud9/nutch``).  Those traces are proprietary, so each is
replaced here by a synthetic mixture whose pattern classes reproduce the
behaviour the paper reports for that benchmark:

- *temporal-replay heavy* (xalan, soplex, omnetpp, sphinx): SISB's
  record/replay wins; per-page delta learners see less structure.
- *fresh-page delta patterns* (astar, bfs, cc): the delta structure
  recurs but addresses never repeat, so neural delta learners win and
  temporal prefetchers cannot.
- *irregular* (mcf): thin noisy signal; PATHFINDER's confidence filter
  keeps it quiet while aggressive learners (Pythia) prefetch more.
- *mixed/noisy* (CloudSuite): combinations with higher noise.

Mixture weights were tuned so the per-1K delta statistics land near the
paper's Tables 7 and 8 (density, distinct count, top-5 concentration);
the benches report the measured values next to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..types import Trace
from .synthetic import (
    AccessStream,
    DeltaPatternStream,
    InterleavedPatternStream,
    PointerChaseStream,
    SequentialStream,
    StreamMixer,
    TemporalReplayStream,
    trace_from_columns,
)


@dataclass(frozen=True)
class Component:
    """One weighted stream in a workload mixture.

    Attributes:
        kind: ``"delta"``, ``"replay"``, ``"chase"``, ``"seq"`` or
            ``"interleaved"``.
        weight: Relative interleaving weight.
        params: Keyword arguments for the stream class (pc / regions are
            assigned automatically when the mixture is built).
    """

    kind: str
    weight: float
    params: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one synthetic benchmark.

    Attributes:
        name: Trace name used in the paper (e.g. ``"605-mcf-s1"``).
        suite: Benchmark suite (GAP / SPEC06 / SPEC17 / CloudSuite).
        mean_instr_gap: Mean instructions per load (paper Table 5:
            total instructions / 1M loads).
        components: The weighted stream mixture.
    """

    name: str
    suite: str
    mean_instr_gap: float
    components: Tuple[Component, ...]


def _delta(weight: float, pattern: Sequence[int], noise: float = 0.0,
           start_offset: int = 0, accesses_per_page: int = 0) -> Component:
    params: Dict = {"pattern": tuple(pattern), "noise": noise,
                    "start_offset": start_offset}
    if accesses_per_page:
        params["accesses_per_page"] = accesses_per_page
    return Component("delta", weight, params)


def _replay(weight: float, length: int, region_pages: int = 512,
            run_length: int = 1, offset_grid: int = 1) -> Component:
    return Component("replay", weight,
                     {"length": length, "region_pages": region_pages,
                      "run_length": run_length, "offset_grid": offset_grid})


def _chase(weight: float, locality: float = 0.2,
           region_pages: int = 1 << 15,
           local_jump_max: int = 8) -> Component:
    return Component("chase", weight,
                     {"locality": locality, "region_pages": region_pages,
                      "local_jump_max": local_jump_max})


def _seq(weight: float, stride: int = 1, region_pages: int = 2048) -> Component:
    return Component("seq", weight,
                     {"stride": stride, "region_pages": region_pages})


def _inter(weight: float, pattern_a, pattern_b, noise: float = 0.0) -> Component:
    return Component("interleaved", weight,
                     {"pattern_a": tuple(pattern_a),
                      "pattern_b": tuple(pattern_b), "noise": noise})


# ---------------------------------------------------------------------------
# Workload catalogue.  Page regions are auto-assigned disjointly at build
# time; only the pattern shape is declared here.
# ---------------------------------------------------------------------------

_SPECS: Dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> None:
    _SPECS[spec.name] = spec


# GAP cc-5: graph connected-components.  Rich, diverse delta patterns on
# fresh pages (CSR edge scans at varying strides) with some irregular
# vertex lookups.  Neural delta learners do well; temporal replay absent.
_register(WorkloadSpec(
    name="cc-5", suite="GAP", mean_instr_gap=31.0,
    components=(
        _inter(0.16, (1, 2, 1, 3), (2, 5, 2), noise=0.04),
        _inter(0.14, (3, 1, 4, 1), (6, 2, 3), noise=0.05),
        _delta(0.10, (4, 7), noise=0.06),
        _delta(0.08, (2, 2, 9), noise=0.06),
        _delta(0.08, (5, 3, 1, 2), noise=0.06),
        _delta(0.08, (7, 1, 5), noise=0.06),
        _seq(0.10, stride=1),
        _chase(0.30, locality=0.7, local_jump_max=64),
    )))

# GAP bfs-10: frontier scans (dense sequential) plus diverse neighbour
# patterns; deltas dense and top-heavy.
_register(WorkloadSpec(
    name="bfs-10", suite="GAP", mean_instr_gap=71.0,
    components=(
        _seq(0.26, stride=1),
        _inter(0.12, (1, 1, 2), (2, 3), noise=0.04),
        _delta(0.08, (1, 4, 2), noise=0.05),
        _delta(0.06, (3, 3, 5), noise=0.06),
        _inter(0.10, (3, 2, 4), (1, 5), noise=0.05),
        _chase(0.38, locality=0.85, local_jump_max=64),
    )))

# SPEC06 471-omnetpp: discrete-event simulation.  Heap/event-queue
# behaviour repeats temporally; very few distinct within-page deltas.
_register(WorkloadSpec(
    name="471-omnetpp-s1", suite="SPEC06", mean_instr_gap=65.0,
    components=(
        _replay(0.66, length=2200, region_pages=8800, offset_grid=16),
        _delta(0.06, (1, 3), noise=0.02),
        _delta(0.05, (2, 2), noise=0.02),
        _chase(0.23, locality=0.04),
    )))

# SPEC06 473-astar: path-finding over grids.  Sparse but highly
# structured per-page patterns on fresh pages; neural wins over SISB.
_register(WorkloadSpec(
    name="473-astar-s1", suite="SPEC06", mean_instr_gap=99.0,
    components=(
        _inter(0.30, (1, 8, 1, 8), (8, 1, 8), noise=0.03),
        _inter(0.22, (7, 2, 7), (2, 9, 2), noise=0.03),
        _delta(0.16, (1, 8, 2, 7), noise=0.04),
        _chase(0.32, locality=0.25),
    )))

# SPEC06 450-soplex: sparse LP solves.  Long strided sweeps that repeat
# across iterations — strong temporal component plus varied strides.
_register(WorkloadSpec(
    name="450-soplex-s0", suite="SPEC06", mean_instr_gap=39.0,
    components=(
        _replay(0.62, length=2400, region_pages=1200, run_length=2, offset_grid=4),
        _seq(0.04, stride=1),
        _seq(0.03, stride=3),
        _delta(0.08, (2, 1, 2), noise=0.05),
        _delta(0.09, (4, 4, 1), noise=0.06),
        _chase(0.14, locality=0.3),
    )))

# SPEC06 482-sphinx3: speech decoding over dense model arrays.  Very few
# distinct deltas, massive repetition, and temporally repeating sweeps.
_register(WorkloadSpec(
    name="482-sphinx-s0", suite="SPEC06", mean_instr_gap=95.0,
    components=(
        _replay(0.62, length=2400, region_pages=1200, run_length=1, offset_grid=8),
        _seq(0.06, stride=1),
        _delta(0.14, (1, 1, 2), noise=0.02),
        _delta(0.12, (2, 1), noise=0.02),
        _chase(0.06, locality=0.2),
    )))

# SPEC17 605-mcf: network-simplex pointer chasing.  Mostly irregular with
# a thin, noisy near-sequential residue that only aggressive prefetchers
# (Pythia) exploit; PATHFINDER stays selective and quiet here.
_register(WorkloadSpec(
    name="605-mcf-s1", suite="SPEC17", mean_instr_gap=48.0,
    components=(
        _chase(0.60, locality=0.03, region_pages=1 << 16, local_jump_max=64),
        _replay(0.30, length=1800, region_pages=7200),
        _delta(0.05, (1, 2), noise=0.35),
        _delta(0.05, (3, 5, 2), noise=0.35),
    )))

# SPEC17 623-xalancbmk: XML transformation.  Dominated by delta 1 (the
# local minimum Pythia settles on) but with better longer patterns, plus
# heavy temporal repetition that favours SISB overall.
_register(WorkloadSpec(
    name="623-xalan-s1", suite="SPEC17", mean_instr_gap=63.0,
    components=(
        _replay(0.62, length=2400, region_pages=1200, run_length=1, offset_grid=16),
        _seq(0.10, stride=1),
        _delta(0.12, (1, 1, 6), noise=0.03),
        _delta(0.08, (2, 9, 2), noise=0.03),
        _chase(0.08, locality=0.2),
    )))

# CloudSuite cassandra: wide mixture with noticeable noise and moderate
# temporal reuse (storage engine scans + request irregularity).
_register(WorkloadSpec(
    name="cassandra-phase0-core0", suite="CloudSuite", mean_instr_gap=207.0,
    components=(
        _replay(0.24, length=2000, region_pages=1000, run_length=2),
        _inter(0.14, (1, 3, 2), (4, 2), noise=0.08),
        _delta(0.10, (2, 7, 1), noise=0.10),
        _seq(0.12, stride=1),
        _chase(0.40, locality=0.3),
    )))

# CloudSuite cloud9: JavaScript server — highly diverse deltas, modest
# concentration, plenty of irregularity.
_register(WorkloadSpec(
    name="cloud9-phase0-core0", suite="CloudSuite", mean_instr_gap=208.0,
    components=(
        _replay(0.18, length=2000, region_pages=1000, run_length=2),
        _inter(0.12, (1, 5), (3, 2, 6), noise=0.10),
        _delta(0.08, (2, 8, 3), noise=0.10),
        _delta(0.08, (5, 1, 4), noise=0.10),
        _seq(0.10, stride=2),
        _chase(0.44, locality=0.4, local_jump_max=32),
    )))

# CloudSuite nutch: crawler/indexer — a few very strong patterns carry
# most of the deltas (top-5 covers ~85%), the rest is noise.
_register(WorkloadSpec(
    name="nutch-phase0-core0", suite="CloudSuite", mean_instr_gap=154.0,
    components=(
        _replay(0.20, length=1800, region_pages=900, run_length=3),
        _delta(0.26, (1, 2), noise=0.04),
        _delta(0.20, (2, 2, 1), noise=0.04),
        _seq(0.12, stride=1),
        _chase(0.22, locality=0.25),
    )))


#: Names of all eleven evaluation workloads, in the paper's table order.
WORKLOAD_NAMES: Tuple[str, ...] = (
    "cc-5",
    "bfs-10",
    "471-omnetpp-s1",
    "473-astar-s1",
    "450-soplex-s0",
    "482-sphinx-s0",
    "605-mcf-s1",
    "623-xalan-s1",
    "cassandra-phase0-core0",
    "cloud9-phase0-core0",
    "nutch-phase0-core0",
)


def get_workload_spec(name: str) -> WorkloadSpec:
    """Look up a workload spec by its paper trace name."""
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(sorted(_SPECS))
        raise ConfigError(f"unknown workload {name!r}; known: {known}") from None


def _mutate_pattern(pattern: Tuple[int, ...], phase: int) -> Tuple[int, ...]:
    """Shift a delta pattern's values for a later program phase.

    Adding to every delta changes the pattern's *delta vocabulary*
    wholesale, which is what defeats offline-trained models
    (Delta-LSTM's unseen-delta problem, paper §5) while online learners
    simply re-learn within a few hundred accesses (PATHFINDER's
    confidence counters "adapt to new patterns as the program moves
    between phases", §3.4).
    """
    if phase == 0:
        return pattern
    return tuple(min(50, d + 2 * phase) for d in pattern)


def _build_stream(component: Component, pc: int, region_page: int,
                  seed: int, phase: int = 0) -> AccessStream:
    params = dict(component.params)
    if phase:
        if "pattern" in params:
            params["pattern"] = _mutate_pattern(params["pattern"], phase)
        if "pattern_a" in params:
            params["pattern_a"] = _mutate_pattern(params["pattern_a"], phase)
            params["pattern_b"] = _mutate_pattern(params["pattern_b"], phase)
    if component.kind == "delta":
        return DeltaPatternStream(pc=pc, first_page=region_page,
                                  seed=seed, **params)
    if component.kind == "replay":
        return TemporalReplayStream(pc=pc, region_page=region_page,
                                    seed=seed, **params)
    if component.kind == "chase":
        return PointerChaseStream(pc=pc, region_page=region_page,
                                  seed=seed, **params)
    if component.kind == "seq":
        return SequentialStream(pc=pc, start_page=region_page, **params)
    if component.kind == "interleaved":
        return InterleavedPatternStream(pc_a=pc, pc_b=pc + 0x20,
                                        first_page=region_page,
                                        seed=seed, **params)
    raise ConfigError(f"unknown component kind {component.kind!r}")


def make_trace(name: str, n_accesses: int = 20_000, seed: int = 0,
               phases: int = 2) -> Trace:
    """Generate a synthetic trace for the named workload.

    Args:
        name: One of :data:`WORKLOAD_NAMES`.
        n_accesses: Number of loads to generate (the paper uses 1M; see
            the scale note in ``DESIGN.md``).
        seed: RNG seed; identical (name, n, seed, phases) reproduces the
            trace.
        phases: Program phases.  At each phase boundary the delta
            patterns shift their vocabulary and temporal sequences are
            re-recorded — the non-stationarity real programs exhibit,
            which the paper's online-vs-offline learning comparison
            hinges on.  1 = stationary.

    Returns:
        A :class:`~repro.types.Trace` in program order.

    Raises:
        ConfigError: an unknown workload, or a negative load count or
            seed, or fewer than one phase.
    """
    if n_accesses < 0:
        raise ConfigError(f"load count must be >= 0 (got {n_accesses})")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0 (got {seed})")
    if phases < 1:
        raise ConfigError("phases must be >= 1")
    spec = get_workload_spec(name)
    # Assign each component a disjoint page region and a distinct PC so
    # streams never alias in tables keyed by pc/page.
    region_stride = 1 << 17  # 128K pages = 512 MB per component region
    segments: List[Tuple] = []
    instr_base = 0
    per_phase = n_accesses // phases
    for phase in range(phases):
        streams: List[Tuple[AccessStream, float]] = []
        for i, component in enumerate(spec.components):
            pc = 0x400000 + 0x40 * i
            # Replay (temporal) streams persist across phases — real
            # programs' recurring traversals outlive delta-phase shifts,
            # and SISB's record/replay strength depends on it.  Pattern
            # streams restart on fresh pages with a mutated vocabulary.
            if component.kind == "replay":
                region_page = (1 + i) * region_stride
                component_seed = seed * 1009 + i
            else:
                region_page = ((1 + i) * region_stride
                               + phase * (region_stride // 4))
                component_seed = seed * 1009 + i + phase * 7919
            streams.append((_build_stream(
                component, pc, region_page, seed=component_seed,
                phase=phase), component.weight))
        mixer = StreamMixer(streams, mean_instr_gap=spec.mean_instr_gap,
                            seed=seed + phase * 7919)
        length = per_phase if phase < phases - 1 else (
            n_accesses - per_phase * (phases - 1))
        # Phase segments come out already stamped above instr_base, so
        # chaining them is a plain column concatenation.
        instr_ids, pcs, addresses = mixer.columns(length,
                                                  instr_base=instr_base)
        segments.append((instr_ids, pcs, addresses))
        if len(instr_ids):
            instr_base = int(instr_ids[-1])
    if len(segments) == 1:
        instr_ids, pcs, addresses = segments[0]
    else:
        instr_ids = np.concatenate([s[0] for s in segments])
        pcs = np.concatenate([s[1] for s in segments])
        addresses = np.concatenate([s[2] for s in segments])
    return trace_from_columns(name, instr_ids, pcs, addresses)
