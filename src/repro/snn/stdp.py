"""Post-pre trace STDP (the learning rule PATHFINDER trains with).

Spike-timing-dependent plasticity, trace formulation (as in BindsNet's
``PostPre`` rule): each pre- and post-synaptic neuron keeps an
exponentially decaying eligibility trace that is set to 1 when it
spikes.  When a *post* neuron spikes, every synapse from a recently
active *pre* neuron is strengthened (the input "caused" the output);
when a *pre* neuron spikes, synapses to recently active post neurons
are weakened (the input arrived too late to matter).

Training is local — each weight update only reads the traces of its own
two endpoints — which is exactly the property the paper leans on for
real-time, nanosecond-scale learning (§1, §2.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, require_finite


@dataclass(frozen=True)
class STDPConfig:
    """STDP hyper-parameters.

    Attributes:
        nu_pre: Learning rate of the depressive (pre-fires-after-post)
            update.
        nu_post: Learning rate of the potentiating (pre-before-post)
            update.
        tc_pre: Pre-synaptic trace decay constant, in ticks.
        tc_post: Post-synaptic trace decay constant, in ticks.
        w_min: Lower weight clamp.
        w_max: Upper weight clamp.
        norm: Target sum of incoming weights per post neuron (paper
            Table 4: 38.4); ``None`` disables normalisation.
        x_target: Target pre-trace used by the Diehl & Cook variant of
            the potentiation step: on a post spike, the update is
            ``nu_post * (x_pre - x_target)``, so synapses from inputs
            that were *not* active are depressed whenever the neuron
            fires.  This is what makes each neuron converge onto the
            single input pattern it sees most, instead of accreting the
            union of everything it ever fired for.  0 recovers plain
            post-pre STDP.
    """

    nu_pre: float = 1e-4
    nu_post: float = 1e-2
    tc_pre: float = 20.0
    tc_post: float = 20.0
    w_min: float = 0.0
    w_max: float = 1.0
    norm: float = 38.4
    x_target: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self, "nu_pre", "nu_post", "tc_pre", "tc_post",
                       "w_min", "w_max", "norm", "x_target")
        if self.tc_pre <= 0 or self.tc_post <= 0:
            raise ConfigError("trace time constants must be positive")
        if self.w_min >= self.w_max:
            raise ConfigError("w_min must be below w_max")
        if self.norm is not None and self.norm <= 0:
            raise ConfigError("norm must be positive (or None)")
