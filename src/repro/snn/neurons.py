"""Leaky integrate-and-fire neuron groups.

Two variants, matching the Diehl & Cook architecture the paper adopts:

- :class:`AdaptiveLIFGroup` — excitatory neurons with an adaptive
  threshold increment ``theta`` that grows by ``theta_plus`` on every
  spike and decays very slowly, encouraging different neurons to win
  for different inputs (homeostasis).
- :class:`LIFGroup` — plain LIF, used for the inhibitory layer.

All state updates are vectorised numpy; one call to :meth:`step`
advances the whole group by one tick (``dt = 1``, paper Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError, require_finite


@dataclass(frozen=True)
class LIFConfig:
    """Membrane parameters of one LIF group.

    Defaults are the Diehl & Cook excitatory-layer values.

    Attributes:
        rest: Resting potential the membrane decays toward.
        reset: Potential after a spike.
        threshold: Base firing threshold.
        tc_decay: Membrane decay time constant, in ticks.
        refractory: Ticks a neuron ignores input after spiking.
        theta_plus: Adaptive-threshold increment per spike
            (0 disables adaptation; paper Table 4 uses 0.05).
        tc_theta_decay: Adaptive-threshold decay time constant.
        theta_max: Soft saturation level for the adaptive threshold;
            increments shrink as theta approaches it (``None`` = no
            cap, the plain Diehl & Cook rule).  PATHFINDER's short
            per-pattern training horizon needs homeostasis strong
            enough to matter within tens of presentations but bounded
            so a specialised neuron can still fire for its own pattern.
    """

    rest: float = -65.0
    reset: float = -60.0
    threshold: float = -52.0
    tc_decay: float = 100.0
    refractory: int = 5
    theta_plus: float = 0.05
    tc_theta_decay: float = 1e7
    theta_max: Optional[float] = None

    def __post_init__(self) -> None:
        require_finite(self, "rest", "reset", "threshold", "tc_decay",
                       "theta_plus", "tc_theta_decay", "theta_max")
        if self.tc_decay <= 0 or self.tc_theta_decay <= 0:
            raise ConfigError("time constants must be positive")
        if self.refractory < 0:
            raise ConfigError("refractory period must be non-negative")
        if self.reset > self.threshold:
            raise ConfigError("reset potential must not exceed threshold")
        if self.theta_max is not None and self.theta_max <= 0:
            raise ConfigError("theta_max must be positive (or None)")

    @property
    def threshold_gap(self) -> float:
        """Potential distance from rest to the base threshold."""
        return self.threshold - self.rest


#: Inhibitory-layer parameters from Diehl & Cook (faster, no adaptation).
INHIBITORY_LIF = LIFConfig(rest=-60.0, reset=-45.0, threshold=-40.0,
                           tc_decay=10.0, refractory=2, theta_plus=0.0)


class LIFGroup:
    """A vectorised group of plain LIF neurons."""

    def __init__(self, size: int, config: LIFConfig = LIFConfig()):
        if size <= 0:
            raise ConfigError("neuron group size must be positive")
        self.size = size
        self.config = config
        self.v = np.full(size, config.rest, dtype=float)
        self.refractory_left = np.zeros(size, dtype=int)
        self._decay = float(np.exp(-1.0 / config.tc_decay))
        # Per-tick scratch reused across steps: the constant threshold
        # vector and the refractory mask (allocating these every tick
        # dominated the step cost at these tiny group sizes).
        self._threshold_vec = np.full(size, config.threshold, dtype=float)
        self._active_buf = np.empty(size, dtype=bool)

    def step(self, current: np.ndarray) -> np.ndarray:
        """Advance one tick with the given input ``current`` per neuron.

        Returns:
            Boolean spike vector for this tick.
        """
        cfg = self.config
        # Leak toward rest, then integrate (refractory neurons hold).
        # In-place form of ``rest + decay * (v - rest)`` followed by a
        # masked integrate; bit-identical to the allocating version.
        v = self.v
        np.subtract(v, cfg.rest, out=v)
        np.multiply(v, self._decay, out=v)
        np.add(v, cfg.rest, out=v)
        active = np.equal(self.refractory_left, 0, out=self._active_buf)
        np.add(v, current, out=v, where=active)
        np.subtract(self.refractory_left, 1, out=self.refractory_left)
        np.maximum(self.refractory_left, 0, out=self.refractory_left)
        spikes = active & (v >= self._effective_threshold())
        if spikes.any():
            v[spikes] = cfg.reset
            self.refractory_left[spikes] = cfg.refractory
            self._on_spike(spikes)
        return spikes

    def _effective_threshold(self) -> np.ndarray:
        return self._threshold_vec

    def _on_spike(self, spikes: np.ndarray) -> None:
        """Hook for subclasses (threshold adaptation)."""

    def reset_state(self) -> None:
        """Return membranes to rest (does not touch learned state)."""
        self.v.fill(self.config.rest)
        self.refractory_left.fill(0)


class AdaptiveLIFGroup(LIFGroup):
    """Excitatory LIF group with Diehl & Cook adaptive thresholds.

    Set :attr:`adaptation_enabled` to False to freeze theta during
    pure-inference intervals (as Diehl & Cook do at test time).
    """

    def __init__(self, size: int, config: LIFConfig = LIFConfig()):
        super().__init__(size, config)
        self.theta = np.zeros(size, dtype=float)
        self._theta_decay = float(np.exp(-1.0 / config.tc_theta_decay))
        self.adaptation_enabled = True
        self._threshold_buf = np.empty(size, dtype=float)

    def step(self, current: np.ndarray) -> np.ndarray:
        if self.adaptation_enabled:
            self.theta *= self._theta_decay
        return super().step(current)

    def _effective_threshold(self) -> np.ndarray:
        return np.add(self.theta, self.config.threshold,
                      out=self._threshold_buf)

    def _on_spike(self, spikes: np.ndarray) -> None:
        if not self.adaptation_enabled:
            return
        increment = self.config.theta_plus
        if self.config.theta_max is not None:
            # Soft saturation: increments shrink as theta approaches the cap.
            room = np.maximum(0.0, 1.0 - self.theta[spikes] / self.config.theta_max)
            self.theta[spikes] += increment * room
        else:
            self.theta[spikes] += increment
