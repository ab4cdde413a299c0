"""Spiking-neural-network substrate (the BindsNet substitute).

A from-scratch numpy implementation of the Diehl & Cook (2015)
unsupervised-STDP architecture the paper builds PATHFINDER on:

- :mod:`repro.snn.encoding` — Poisson rate coding of pixel inputs.
- :mod:`repro.snn.neurons` — leaky integrate-and-fire groups, including
  the adaptive-threshold excitatory variant.
- :mod:`repro.snn.stdp` — post-pre trace STDP with weight normalisation.
- :mod:`repro.snn.synapses` — dense connections carrying currents and
  applying STDP.
- :mod:`repro.snn.network` — the excitatory/inhibitory two-layer
  network with lateral inhibition, multi-tick simulation, and the
  paper's 1-tick approximation (§3.4 "Lowering Time Interval").

Network parameters default to the paper's Table 4 (``exc=20.5``,
``inh=17.5``, ``norm=38.4``, ``theta_plus=0.05``, 32 ticks).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".encoding": ["poisson_spike_train"],
    ".neurons": ["AdaptiveLIFGroup", "LIFConfig", "LIFGroup"],
    ".stdp": ["STDPConfig"],
    ".synapses": ["Connection"],
    ".network": ["DiehlCookNetwork", "NetworkConfig", "RunRecord"],
})

__all__ = [
    "poisson_spike_train",
    "AdaptiveLIFGroup",
    "LIFConfig",
    "LIFGroup",
    "STDPConfig",
    "Connection",
    "DiehlCookNetwork",
    "NetworkConfig",
    "RunRecord",
]
