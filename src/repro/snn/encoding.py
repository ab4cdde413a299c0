"""Input encodings for the SNN.

The paper feeds the Memory Access Pixel Matrix to the SNN with Poisson
*rate coding* (§3.2, step 2): each active pixel becomes an independent
Bernoulli spike process over the T-tick input interval, with spike
probability proportional to pixel intensity.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def poisson_spike_train(rates: np.ndarray, timesteps: int,
                        rng: np.random.Generator,
                        max_probability: float = 0.5) -> np.ndarray:
    """Sample a Bernoulli (discretised Poisson) spike train.

    Args:
        rates: Pixel intensities in [0, 1], shape ``(n_inputs,)``.
        timesteps: Number of ticks T in the input interval.
        rng: Random generator (callers own seeding for determinism).
        max_probability: Per-tick spike probability of a full-intensity
            pixel; intensities scale linearly below it.

    Returns:
        Boolean array of shape ``(timesteps, n_inputs)``.

    Raises:
        ConfigError: on invalid intensities or parameters.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1:
        raise ConfigError("rates must be a 1-D intensity vector")
    if timesteps <= 0:
        raise ConfigError("timesteps must be positive")
    if not 0.0 < max_probability <= 1.0:
        raise ConfigError("max_probability must be in (0, 1]")
    if rates.size and (rates.min() < 0.0 or rates.max() > 1.0):
        raise ConfigError("pixel intensities must lie in [0, 1]")
    return rng.random((timesteps, rates.size)) < rates * max_probability
