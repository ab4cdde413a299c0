"""Configuration for the PATHFINDER prefetcher.

Defaults correspond to the paper's headline configuration (Figure 4
caption): 50 neurons, 2 labels per neuron, delta range -63..63,
32-tick input interval, prefetch degree 2, enlarged pixels with the
anti-aliasing middle-delta shift.

Where our numpy SNN needed parameter values different from the paper's
Table 4 to reproduce the *behaviour* the paper demonstrates (stable
per-pattern winners within tens of presentations), the deviation is
noted on the field and in ``DESIGN.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError


@dataclass(frozen=True)
class PathfinderConfig:
    """All PATHFINDER knobs.

    Attributes:
        delta_range: Width D of the pixel matrix; must be odd so deltas
            span ``-(D-1)/2 .. +(D-1)/2``.  Paper default 127.
        history: Delta-history length H (paper: 3).
        n_neurons: Excitatory/inhibitory neuron count (paper: 50).
        labels_per_neuron: Label/confidence slots per neuron (1 or 2).
        degree: Maximum prefetches issued per access (paper: 2).
        confidence_threshold: Minimum confidence for a label to issue a
            prefetch (paper: > 0, i.e. 1).
        confidence_max: Saturation value of the confidence counter
            (paper: 3-bit → 7).
        confidence_init: Confidence granted to a freshly assigned label.
        require_confirmation: Only assign a label after the same
            (neuron, next-delta) pair is seen twice (§3.3 protocol;
            the source of PATHFINDER's selectivity on noise).
        enlarge_pixels: Expand each pixel into its neighbours (§3.4).
        enlarge_radius: How far the enlargement spreads along the row
            (>= 0; a negative radius would light no pixel at all).
        middle_shift: Constant added to the middle delta's column to
            reduce aliasing between enlarged pixels (§3.4).
        reorder_pixels: Apply the fixed column permutation *before*
            enlargement, spreading adjacent delta values apart (§3.4's
            "reordered" variant; see ``PixelMatrixEncoder``).
        cold_page_encoding: Feed the first accesses to a page as the
            special {OF1,0,0} / {0,0,D1} / {0,D1,D2} encodings instead
            of waiting for H deltas (§3.4 "Initial Accesses to a Page").
        one_tick: Run the SNN in the 1-tick approximation (§3.4
            "Lowering Time Interval") instead of the full interval.
        timesteps: Ticks per input interval in full mode (paper: 32).
        training_table_size: CAM rows in the Training Table (paper: 1K).
        stdp_epoch: Size of the periodic-STDP epoch, in accesses
            (paper Figure 8 uses 5000); ``None`` keeps STDP always on.
        stdp_on_accesses: With ``stdp_epoch`` set, STDP is enabled only
            for this many accesses at the start of each epoch.
        nu_post: STDP potentiation rate.  [deviation: paper/BindsNet use
            1e-2 with thousands of presentations; our trace lengths are
            shorter, so learning is proportionally faster.]
        x_target: Target pre-trace for the Diehl & Cook depression term.
        w_max: Weight clamp.
        norm: Per-neuron incoming-weight normalisation (Table 4: 38.4).
        theta_plus: Adaptive-threshold increment.  [deviation: Table 4
            says 0.05, which only produces homeostasis over tens of
            thousands of presentations; 4.0 reproduces the paper's
            observed within-hundreds-of-accesses specialisation.]
        theta_max: Soft cap on the adaptive threshold.
        tc_theta_decay: Adaptive-threshold decay constant, in ticks.
        init_density: Fraction of non-zero initial SNN weights.
        inhibition_scale: Lateral-inhibition multiplier (< 1 lets
            multiple neurons fire; used by the multi-winner degree
            variant).
        seed: RNG seed for the SNN.

    Every float field must be finite (``theta_max`` may be ``None``): a
    NaN learning constant poisons the winner's weight column on every
    update.
    """

    delta_range: int = 127
    history: int = 3
    n_neurons: int = 50
    labels_per_neuron: int = 2
    degree: int = 2
    confidence_threshold: int = 1
    confidence_max: int = 7
    confidence_init: int = 1
    require_confirmation: bool = True
    enlarge_pixels: bool = True
    enlarge_radius: int = 2
    middle_shift: int = 7
    reorder_pixels: bool = True
    cold_page_encoding: bool = True
    one_tick: bool = True
    timesteps: int = 32
    training_table_size: int = 1024
    stdp_epoch: Optional[int] = None
    stdp_on_accesses: int = 50
    nu_post: float = 0.3
    x_target: float = 0.4
    w_max: float = 1.0
    norm: float = 38.4
    theta_plus: float = 4.0
    theta_max: Optional[float] = 40.0
    tc_theta_decay: float = 1e5
    init_density: float = 0.25
    inhibition_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delta_range < 3 or self.delta_range % 2 == 0:
            raise ConfigError("delta_range must be odd and >= 3")
        if self.history < 1:
            raise ConfigError("history must be >= 1")
        if self.labels_per_neuron < 1:
            raise ConfigError("labels_per_neuron must be >= 1")
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")
        if not 0 <= self.confidence_threshold <= self.confidence_max:
            raise ConfigError("confidence_threshold outside counter range")
        if self.confidence_init < 1 or self.confidence_init > self.confidence_max:
            raise ConfigError("confidence_init outside counter range")
        if self.training_table_size < 1:
            raise ConfigError("training_table_size must be >= 1")
        if self.stdp_epoch is not None and self.stdp_epoch < 1:
            raise ConfigError("stdp_epoch must be >= 1 (or None)")
        if self.stdp_on_accesses < 0:
            raise ConfigError("stdp_on_accesses must be >= 0")
        if self.enlarge_radius < 0:
            raise ConfigError("enlarge_radius must be >= 0")
        for name in ("nu_post", "x_target", "w_max", "norm", "theta_plus",
                     "theta_max", "tc_theta_decay", "init_density",
                     "inhibition_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite (got {value})")

    @property
    def max_delta(self) -> int:
        """Largest representable delta magnitude, (D-1)/2."""
        return (self.delta_range - 1) // 2

    @property
    def n_input(self) -> int:
        """SNN input layer size, D × H."""
        return self.delta_range * self.history
