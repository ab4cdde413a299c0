"""Cold builds of the two C kernels, racing in separate processes."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.snn.ckernel import _find_compiler
from tests.helpers import child_env

#: Loads both kernels and calls into each, the one-tick library's
#: Pythia and SPP loops included; prints "ok".
PROBE = """\
import numpy as np
from repro.prefetchers import PythiaPrefetcher, SPPPrefetcher
from repro.sim.fast_engine.ckernel import load_kernel as replay_kernel
from repro.snn.ckernel import load_kernel as tick_kernel
tick, replay = tick_kernel(), replay_kernel()
assert tick is not None and replay is not None
assert tick.pairwise_sum(np.arange(10.0)) == 45.0
pythia = PythiaPrefetcher()
pythia.process = None  # the compiled loop must run, not process()
blocks = np.arange(64, dtype=np.int64)
lists = pythia.process_batch(blocks << 6, np.full(64, 0x400), blocks)
assert len(lists) == 64 and pythia.rewards_assigned > 0
spp = SPPPrefetcher()
spp.process = None
lists = spp.process_batch(blocks << 6, np.full(64, 0x400), blocks)
assert len(lists) == 64 and any(lists)
print("ok")
"""


@pytest.mark.skipif(_find_compiler() is None, reason="no C compiler")
def test_concurrent_cold_compiles_all_get_working_kernels(tmp_path):
    """Processes compiling into one empty cache at once each build from
    a private copy of the source, so none installs a truncated object."""
    cache = tmp_path / "cache"
    env = child_env(REPRO_CKERNEL_CACHE=str(cache))
    env.pop("REPRO_NO_CKERNEL", None)
    workers = [subprocess.Popen([sys.executable, "-c", PROBE], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
               for _ in range(4)]
    for worker in workers:
        out, err = worker.communicate(timeout=300)
        assert worker.returncode == 0, err
        assert out.strip() == "ok"
    built = sorted(path.suffix for path in cache.iterdir())
    assert built == [".so", ".so"], sorted(os.listdir(cache))
