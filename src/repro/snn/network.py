"""The Diehl & Cook two-layer SNN with lateral inhibition.

Topology (paper §3.1, Figure 1):

- an input layer of ``n_input`` Poisson units (the pixel matrix),
- an excitatory layer of ``n_neurons`` adaptive-threshold LIF neurons,
  fully connected from the input with STDP-plastic weights,
- an inhibitory layer of ``n_neurons`` LIF neurons; each excitatory
  neuron drives exactly one inhibitory partner (weight ``exc``), and
  each inhibitory neuron suppresses *all other* excitatory neurons
  (weight ``-inh``) — the winner-take-(almost-)all mechanism.

The ``inhibition_scale`` knob weakens lateral inhibition so 2–5 neurons
can fire per interval, which the paper uses for multi-degree
prefetching (§3.4).  :meth:`DiehlCookNetwork.present_one_tick`
implements the 1-tick approximation of §3.4 ("Lowering Time
Interval"); the compiled PATHFINDER loop (:mod:`repro.snn.ckernel`)
runs the same step op for op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from .ckernel import NetArgs, pointer
from .encoding import poisson_spike_train
from .neurons import INHIBITORY_LIF, AdaptiveLIFGroup, LIFConfig, LIFGroup
from .stdp import STDPConfig
from .synapses import Connection

#: Healthy-run cadence of the weight-health scan (intervals).  Under an
#: armed fault plan the scan runs every interval instead, so an injected
#: NaN is repaired within the interval that produced it.
HEALTH_CHECK_INTERVAL = 64

_FAULTS = None


def _resilience_faults():
    """Late-bound ``repro.resilience.faults`` (breaks an import cycle:
    resilience's guard wraps prefetchers, which build this network)."""
    global _FAULTS
    if _FAULTS is None:
        from ..resilience import faults
        _FAULTS = faults
    return _FAULTS


@dataclass(frozen=True)
class NetworkConfig:
    """Network hyper-parameters (defaults from paper Table 4).

    Attributes:
        n_input: Input layer size (D × H pixels).
        n_neurons: Excitatory (= inhibitory) layer size.
        exc: Excitatory→inhibitory one-to-one weight (Table 4: 20.5).
        inh: Inhibitory→excitatory lateral weight magnitude (17.5).
        timesteps: Ticks per input interval (Table 4: 32).
        max_probability: Per-tick spike probability of a full pixel.
        inhibition_scale: Multiplier on lateral inhibition; < 1 lets
            several excitatory neurons fire per interval.
        intensity_boost: Rate multiplier applied when an interval
            produces no excitatory spike (Diehl & Cook re-presentation).
        max_boosts: Maximum number of boosted re-presentations.
        init_density: Fraction of input→excitatory synapses with a
            non-zero initial weight (see
            :class:`~repro.snn.synapses.Connection`).
        seed: Seed for weight init and Poisson sampling.
    """

    n_input: int
    n_neurons: int = 50
    exc: float = 20.5
    inh: float = 17.5
    timesteps: int = 32
    max_probability: float = 0.5
    inhibition_scale: float = 1.0
    intensity_boost: float = 2.0
    max_boosts: int = 2
    init_density: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_input <= 0 or self.n_neurons <= 0:
            raise ConfigError("layer sizes must be positive")
        if self.timesteps <= 0:
            raise ConfigError("timesteps must be positive")
        if self.inhibition_scale < 0:
            raise ConfigError("inhibition_scale must be non-negative")


@dataclass
class RunRecord:
    """Everything observed during one input interval.

    Attributes:
        spike_counts: Per-excitatory-neuron spike totals.
        winner: Most-firing neuron index, or ``None`` if nothing fired.
        first_spike_tick: Tick of the first excitatory spike (``None``
            if silent); boosted re-presentations continue the count.
        boosts_used: How many intensity boosts were needed.
        potentials_first_tick: Excitatory membrane potentials after the
            first tick (used by the 1-tick approximation analysis).
        next_best_potential: Final potential of the best non-winning
            neuron (the paper's Table 2 column).
        voltage_trace: Optional per-tick potentials, ``(ticks, n)``.
        ranked_winners: Precomputed :meth:`winners` ranking, most
            spikes first, when the producer already knows it
            (:meth:`DiehlCookNetwork.present_one_tick` has exactly one
            firing neuron); ``None`` falls back to ranking
            ``spike_counts``.
    """

    spike_counts: np.ndarray
    winner: Optional[int]
    first_spike_tick: Optional[int]
    boosts_used: int
    potentials_first_tick: np.ndarray
    next_best_potential: float
    voltage_trace: Optional[np.ndarray] = None
    ranked_winners: Optional[Tuple[int, ...]] = None

    def winners(self, k: int) -> List[int]:
        """Indices of up to ``k`` firing neurons, most spikes first."""
        if self.ranked_winners is not None:
            return list(self.ranked_winners[:k])
        firing = np.flatnonzero(self.spike_counts > 0)
        ranked = firing[np.argsort(-self.spike_counts[firing], kind="stable")]
        return [int(i) for i in ranked[:k]]


class DiehlCookNetwork:
    """Runnable Diehl & Cook SNN with continuous STDP learning.

    Args:
        config: Network hyper-parameters.
        stdp: Learning-rule configuration (defaults to
            :class:`~repro.snn.stdp.STDPConfig`).
        exc_lif: Excitatory-layer membrane parameters.
    """

    def __init__(self, config: NetworkConfig,
                 stdp: Optional[STDPConfig] = None,
                 exc_lif: Optional[LIFConfig] = None):
        self.config = config
        self.stdp = stdp if stdp is not None else STDPConfig()
        self.rng = np.random.default_rng(config.seed)
        self.exc = AdaptiveLIFGroup(config.n_neurons,
                                    exc_lif or LIFConfig())
        self.inh = LIFGroup(config.n_neurons, INHIBITORY_LIF)
        self.input_to_exc = Connection(config.n_input, config.n_neurons,
                                       stdp=self.stdp, rng=self.rng,
                                       init_density=config.init_density)
        self.learning_enabled = True
        self.intervals_presented = 0
        # Weight-health bookkeeping: repaired neuron indices accumulate
        # until the owner drains them (and resets dependent state, e.g.
        # the prefetcher's inference-table labels for those neurons).
        self.weight_repairs = 0
        self._repaired_neurons: List[int] = []
        # Per-tick scratch for present(): excitatory→inhibitory drive
        # and the lateral-inhibition current (hoisted out of the loop).
        self._exc_drive_buf = np.empty(config.n_neurons, dtype=float)
        self._inh_current_buf = np.zeros(config.n_neurons, dtype=float)
        self._neg_inh = -config.inh * config.inhibition_scale
        # 1-tick scratch: active-row gather, drive/gap/score vectors,
        # and the winner-column STDP workspace.  All are overwritten
        # before use; anything a RunRecord keeps is freshly allocated.
        self._rows_buf = np.empty((config.n_input, config.n_neurons),
                                  dtype=float)
        self._drive_buf = np.empty(config.n_neurons, dtype=float)
        self._gap_buf = np.empty(config.n_neurons, dtype=float)
        self._score_buf = np.empty(config.n_neurons, dtype=float)
        self._neg_score_buf = np.empty(config.n_neurons, dtype=float)
        self._column_buf = np.empty(config.n_input, dtype=float)
        # theta decays by decay**timesteps per presented interval.
        self._theta_interval_decay = self.exc._theta_decay ** config.timesteps
        self._threshold_gap = self.exc.config.threshold_gap
        # theta never goes negative while theta_plus >= 0, so when the
        # base gap already clears the 1e-9 floor the per-query clamp is
        # a guaranteed no-op and can be skipped bit-identically.
        self._gap_needs_clamp = not (self._threshold_gap > 1e-9
                                     and self.exc.config.theta_plus >= 0.0)
        # Rank-1 STDP constants: depression applied to every pixel of
        # the winner column, potentiation for full-intensity pixels.
        self._stdp_d0 = self.stdp.nu_post * (0.0 - self.stdp.x_target)
        self._stdp_d1 = self.stdp.nu_post * (1.0 - self.stdp.x_target)

    # -- full multi-tick simulation ----------------------------------------

    def present(self, rates: np.ndarray, learn: Optional[bool] = None,
                record_voltage: bool = False) -> RunRecord:
        """Present one pixel-intensity vector for a full input interval.

        Args:
            rates: Intensities in [0, 1], shape ``(n_input,)``.
            learn: Override the network-level learning switch for this
                interval (``None`` = use :attr:`learning_enabled`).
            record_voltage: Capture the per-tick excitatory potentials.

        Returns:
            A :class:`RunRecord` for the interval.
        """
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (self.config.n_input,):
            raise ConfigError(
                f"rates shape {rates.shape} != ({self.config.n_input},)")
        self._inject_weight_fault()
        do_learn = self.learning_enabled if learn is None else learn
        self.exc.adaptation_enabled = do_learn

        cfg = self.config
        spike_counts = np.zeros(cfg.n_neurons, dtype=int)
        first_tick: Optional[int] = None
        potentials_first_tick: Optional[np.ndarray] = None
        voltage_rows: List[np.ndarray] = []
        boosts = 0
        scale = 1.0
        tick_base = 0

        inh_current = self._inh_current_buf
        while True:
            self.exc.reset_state()
            self.inh.reset_state()
            self.input_to_exc.reset_traces()
            scaled = np.clip(rates * scale, 0.0, 1.0)
            spikes_in = poisson_spike_train(scaled, cfg.timesteps, self.rng,
                                            cfg.max_probability)
            inh_current.fill(0.0)
            for tick in range(cfg.timesteps):
                pre = spikes_in[tick]
                current = self.input_to_exc.currents(pre) + inh_current
                exc_spikes = self.exc.step(current)
                inh_spikes = self.inh.step(
                    np.multiply(exc_spikes, cfg.exc, out=self._exc_drive_buf))
                # Each firing inhibitory neuron suppresses every *other*
                # excitatory neuron.
                n_fired = int(inh_spikes.sum())
                np.subtract(float(n_fired), inh_spikes, out=inh_current)
                np.multiply(inh_current, self._neg_inh, out=inh_current)
                if do_learn:
                    self.input_to_exc.learn(pre, exc_spikes)
                spike_counts += exc_spikes
                if first_tick is None and exc_spikes.any():
                    first_tick = tick_base + tick
                if potentials_first_tick is None:
                    potentials_first_tick = self.exc.v.copy()
                if record_voltage:
                    voltage_rows.append(self.exc.v.copy())
            if spike_counts.any() or boosts >= cfg.max_boosts:
                break
            boosts += 1
            scale *= cfg.intensity_boost
            tick_base += cfg.timesteps

        if do_learn:
            self.input_to_exc.normalize()
        self.intervals_presented += 1
        self._health_check()

        winner: Optional[int] = None
        next_best = float(np.max(self.exc.v)) if cfg.n_neurons else 0.0
        if spike_counts.any():
            winner = int(np.argmax(spike_counts))
            others = np.delete(self.exc.v, winner)
            next_best = float(others.max()) if others.size else next_best
        assert potentials_first_tick is not None
        return RunRecord(
            spike_counts=spike_counts,
            winner=winner,
            first_spike_tick=first_tick,
            boosts_used=boosts,
            potentials_first_tick=potentials_first_tick,
            next_best_potential=next_best,
            voltage_trace=np.array(voltage_rows) if record_voltage else None,
        )

    # -- 1-tick approximation (paper §3.4) ----------------------------------

    def present_one_tick(self, active: np.ndarray,
                         learn: Optional[bool] = None) -> RunRecord:
        """Process one input entirely in 1-tick mode (paper Fig 9 variant).

        ``active`` is the sorted support of a binary pixel vector: the
        pixel-matrix encoder's only output
        (:class:`~repro.core.pixel.SparseEncoding`'s ``active``).

        The paper's low-cost variant assumes the neuron with the highest
        potential after one tick would have been the first to fire over
        the full interval.  Each neuron's score is its *expected*
        one-tick drive (``max_probability`` times the sum of its weights
        from the active pixels) divided by its effective threshold
        distance (``threshold_gap + theta``) — i.e. rank by inverse
        time-to-fire, which makes the approximation deterministic while
        honouring threshold adaptation.  The winner is the first
        maximal score.

        STDP and threshold adaptation are applied as if the winner had
        fired once with the input pixels as its pre-synaptic trace: its
        weight column gains ``nu_post * (1 - x_target)`` on the active
        pixels and ``nu_post * (0 - x_target)`` on the quiet ones, is
        clipped, and is renormalised.  Only that column changes; every
        other column keeps the sum it was last normalised to, so its
        re-scale would be a no-op.  This is the low-latency, low-energy
        operating mode the paper's best design point uses — orders of
        magnitude cheaper than the full multi-tick simulation while
        tracking its behaviour (paper Table 1 / Figure 7).
        """
        self._inject_weight_fault()
        do_learn = self.learning_enabled if learn is None else learn
        exc = self.exc
        w = self.input_to_exc.w

        gap = np.add(exc.theta, self._threshold_gap, out=self._gap_buf)
        if self._gap_needs_clamp:
            np.maximum(gap, 1e-9, out=gap)
        rows = w.take(active, axis=0, out=self._rows_buf[:active.size])
        drive = np.add.reduce(rows, axis=0, out=self._drive_buf)
        np.multiply(drive, self.config.max_probability, out=drive)
        scores = np.divide(drive, gap, out=self._score_buf)
        # Stable, so the winner is the first maximal score (the rule of
        # the compiled loop) and the runner-up the next one in index
        # order on an exact tie.
        order = np.negative(scores, out=self._neg_score_buf).argsort(
            kind="stable")
        winner = int(order[0])
        runner_up = int(order[1]) if scores.size > 1 else winner

        if do_learn:
            stdp = self.input_to_exc.stdp
            if stdp is not None:
                # Winner-column STDP: quiet pixels all receive the same
                # depression, active ones the potentiation; rows holds
                # the w[active] gather, whose winner column is
                # w[active, winner].
                column = np.add(w[:, winner], self._stdp_d0,
                                out=self._column_buf)
                column[active] = rows[:, winner] + self._stdp_d1
                np.maximum(column, stdp.w_min, out=column)
                np.minimum(column, stdp.w_max, out=column)
                if stdp.norm is not None:
                    # add.reduce is ndarray.sum without the wrapper hop
                    # (same pairwise 1-D reduction, bit-identical).
                    total = np.add.reduce(column)
                    if total == 0.0:
                        total = 1.0
                    column *= stdp.norm / total
                w[:, winner] = column
            # One emulated spike of threshold adaptation, applied to
            # the winner alone (same arithmetic as AdaptiveLIFGroup.
            # _on_spike with a one-hot spike vector).
            exc.adaptation_enabled = True
            lif = exc.config
            if lif.theta_plus:
                if lif.theta_max is not None:
                    room = max(0.0, 1.0 - exc.theta[winner] / lif.theta_max)
                    exc.theta[winner] += lif.theta_plus * room
                else:
                    exc.theta[winner] += lif.theta_plus
            np.multiply(exc.theta, self._theta_interval_decay, out=exc.theta)

        self.intervals_presented += 1
        self._health_check()
        counts = np.zeros(self.config.n_neurons, dtype=int)
        counts[winner] = 1
        potentials = exc.config.rest + scores
        return RunRecord(
            spike_counts=counts,
            winner=winner,
            first_spike_tick=0,
            boosts_used=0,
            potentials_first_tick=potentials,
            next_best_potential=float(potentials[runner_up]),
            ranked_winners=(winner,),
        )

    def present_one_tick_window(self, actives: List[np.ndarray],
                                learns: List[bool]) -> List[int]:
        """:meth:`present_one_tick` per query; return the winners.

        Nothing in the program calls this: PATHFINDER's batched path
        runs its queries inside the compiled loop.  It stays only
        because the end-to-end bench's traced runs wrap it by name (the
        ``snn.window`` span); it goes when that wrapper does.
        """
        return [self.present_one_tick(active, learn=bool(learn)).winner
                for active, learn in zip(actives, learns)]

    def kernel_args(self) -> NetArgs:
        """This network's weights, theta, membranes and one-tick
        constants, as the compiled PATHFINDER loop takes them (read per
        call, so the loop always sees the live arrays)."""
        stdp = self.input_to_exc.stdp
        lif = self.exc.config
        norm = None if stdp is None else stdp.norm
        return NetArgs(
            w=pointer(self.input_to_exc.w), theta=pointer(self.exc.theta),
            v=pointer(self.exc.v), drive_buf=pointer(self._drive_buf),
            column_buf=pointer(self._column_buf),
            n_input=self.config.n_input, n_neurons=self.config.n_neurons,
            health_interval=HEALTH_CHECK_INTERVAL,
            threshold_gap=self._threshold_gap,
            max_probability=self.config.max_probability,
            stdp_d0=self._stdp_d0, stdp_d1=self._stdp_d1,
            w_min=0.0 if stdp is None else stdp.w_min,
            w_max=1.0 if stdp is None else stdp.w_max,
            norm=0.0 if norm is None else norm,
            theta_plus=lif.theta_plus,
            theta_max=0.0 if lif.theta_max is None else lif.theta_max,
            theta_decay=self._theta_interval_decay,
            clamp_gap=int(self._gap_needs_clamp),
            do_stdp=int(stdp is not None), has_norm=int(norm is not None),
            has_theta_max=int(lif.theta_max is not None))

    # -- maintenance ---------------------------------------------------------

    @property
    def weights(self) -> np.ndarray:
        """The plastic input→excitatory weight matrix (n_input, n_neurons)."""
        return self.input_to_exc.w

    # -- weight health (resilience) ------------------------------------------

    def _inject_weight_fault(self) -> None:
        """Fire the ``snn.weight_nan`` fault point, if armed: poison one
        weight column with NaN at the start of an interval so the NaN
        flows through a real query before the health check repairs it."""
        faults = _resilience_faults()
        if faults.ACTIVE is None:
            return
        site = faults.fires("snn.weight_nan")
        if site is not None:
            column = site._rng.randrange(self.config.n_neurons)
            self.input_to_exc.w[:, column] = np.nan

    def _health_check(self) -> None:
        """Run :meth:`check_weight_health` on its due cadence."""
        if (_resilience_faults().ACTIVE is not None
                or self.intervals_presented % HEALTH_CHECK_INTERVAL == 0):
            self.check_weight_health()

    def check_weight_health(self) -> List[int]:
        """Detect and repair neurons with non-finite weights or state.

        A NaN/inf weight column can only lose every winner-take-all
        comparison (IEEE comparisons with NaN are false; ``argsort``
        ranks NaN scores last), so a poisoned neuron silently stops
        contributing rather than corrupting predictions — but it would
        stay dead forever and its STDP/normalisation updates would keep
        producing NaN.  This check reinitialises such neurons from a
        dedicated seeded RNG (never :attr:`rng` — the main stream must
        stay bit-identical for healthy runs) and reports them so the
        owner can reset dependent state (inference-table labels).

        Returns:
            Indices of the neurons repaired by this call.
        """
        finite = np.isfinite(self.input_to_exc.w).all(axis=0)
        np.logical_and(finite, np.isfinite(self.exc.theta), out=finite)
        np.logical_and(finite, np.isfinite(self.exc.v), out=finite)
        if finite.all():
            return []
        repaired = [int(c) for c in np.flatnonzero(~finite)]
        for column in repaired:
            self._repair_neuron(column)
        return repaired

    def _repair_neuron(self, column: int) -> None:
        cfg = self.config
        # Keyed off (seed, column, repair count): deterministic across
        # runs, distinct across successive repairs of the same neuron.
        rng = np.random.default_rng(
            (cfg.seed & 0x7FFFFFFF, 0x5EED, column, self.weight_repairs))
        fresh = rng.random(cfg.n_input) * 0.3  # Connection's init_scale
        if cfg.init_density < 1.0:
            fresh *= rng.random(cfg.n_input) < cfg.init_density
        stdp = self.input_to_exc.stdp
        if stdp is not None and stdp.norm is not None:
            total = float(fresh.sum()) or 1.0
            fresh *= stdp.norm / total
        self.input_to_exc.w[:, column] = fresh
        self.exc.theta[column] = 0.0
        self.exc.v[column] = self.exc.config.rest
        self.weight_repairs += 1
        self._repaired_neurons.append(column)

    def drain_repaired_neurons(self) -> Tuple[int, ...]:
        """Repairs since the last drain (empty almost always)."""
        if not self._repaired_neurons:
            return ()
        repaired = tuple(self._repaired_neurons)
        self._repaired_neurons.clear()
        return repaired
