"""The simulator's compiled replay loop.

The reference loop in :class:`repro.sim.simulator.Simulator` is the
readable specification; this package runs the same replay faster, in
three layers:

- :mod:`.planner` — the columnar replay plan both loops (and the
  multicore simulator) read: the invalid-record drop, the per-trigger
  budget trim and the CSR trigger schedule.
- :mod:`.ckernel` — the on-demand compiled C replay kernel (built by
  :mod:`repro._cbuild`, as :mod:`repro.snn.ckernel` is), a
  transcription of the reference loop with identical IEEE-754
  operation order.
- :mod:`.batch` — the ``replay_batch`` driver tying the two together;
  it alone decides whether the kernel may run, and falls back to the
  reference loop whenever it cannot.
"""

from .batch import replay_batch

__all__ = ["replay_batch"]
