"""The simulator's compiled replay loop.

The reference loop in :class:`repro.sim.simulator.Simulator` is the
readable specification; this package runs the same replay faster, in
three layers:

- :mod:`.planner` — the columnar replay plan both loops (and the
  multicore simulator) read: the invalid-record drop, the per-trigger
  budget trim, the CSR trigger schedule, and the eligibility checks
  that decide whether the compiled kernel may run.
- :mod:`.ckernel` — the on-demand compiled C replay kernel (same
  build machinery as :mod:`repro.snn.ckernel`), a transcription of the
  reference loop with identical IEEE-754 operation order.
- :mod:`.batch` — the ``replay_batch`` driver tying the two together
  and falling back to the reference loop whenever the kernel cannot
  run.
"""

from .batch import replay_batch

__all__ = ["replay_batch"]
