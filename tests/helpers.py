"""Shared helpers for building small traces and reading state in tests."""

import contextlib
import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

import repro
from repro.errors import EngineFallbackWarning
from repro.sim.fast_engine import batch
from repro.types import Trace


@contextlib.contextmanager
def reference_loop():
    """Replay on the simulator's reference loop inside the block.

    The compiled replay kernel reads as unavailable, so every
    :meth:`~repro.sim.simulator.Simulator.run` takes the reference
    loop, and the :class:`EngineFallbackWarning` that says so is
    absorbed.
    """
    with mock.patch.object(batch, "load_kernel", lambda: None), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineFallbackWarning)
        yield


def child_env(**overrides):
    """The environment of a child Python that imports this checkout's
    ``repro``: ``os.environ`` with ``overrides`` applied and the
    package's source directory first on ``PYTHONPATH``."""
    env = dict(os.environ, **overrides)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return env


def build_trace(addresses, pc=0x400, gap=10, name="t"):
    """Build a trace from raw byte addresses with uniform instr gaps."""
    return build_accesses(addresses, [pc] * len(addresses), gap=gap,
                          name=name)


def build_accesses(addresses, pcs, gap=10, name="t"):
    """Build a trace from aligned byte-address and PC columns."""
    n = len(addresses)
    return Trace(name, gap * np.arange(1, n + 1), pcs, addresses,
                 total_instructions=n * gap + 1)


def seq_addresses(n, start_block=1 << 20):
    """Byte addresses of n consecutive blocks."""
    return [(start_block + i) << 6 for i in range(n)]


def pathfinder_state(prefetcher):
    """Everything :meth:`PathfinderPrefetcher.process` reads back on
    the next access, plus the counters it publishes."""
    tt = prefetcher.training_table
    it = prefetcher.inference_table
    net = prefetcher.network
    return dict(
        training_rows=tt.entries(), evictions=tt.evictions,
        slots=[it.slots(n) for n in range(it.n_neurons)],
        pending=it.pending.tolist(),
        label_counters=(it.labels_assigned, it.labels_erased,
                        it.correct_observations, it.wrong_observations),
        weights=net.input_to_exc.w.tobytes(),
        theta=net.exc.theta.tobytes(),
        intervals=net.intervals_presented,
        adaptation=net.exc.adaptation_enabled,
        counters=(prefetcher.accesses_seen, prefetcher.snn_queries,
                  prefetcher.stdp_updates, prefetcher.prefetches_emitted,
                  prefetcher.pred_checked, prefetcher.pred_correct,
                  prefetcher.neuron_repairs))


def pythia_state(prefetcher):
    """Everything :meth:`PythiaPrefetcher.process` reads back on the
    next access: each vault's Q rows by feature (values as
    ``float.hex``, so a -0.0 would not compare equal), the evaluation
    queue oldest first with each entry's pending flag, the per-page
    history, the reward count and the RNG state."""
    p = prefetcher
    size = len(p._eq_action)
    # The ring from the tail slot round: oldest first; empty slots
    # have action -1.
    ring = [(p._eq_tail + k) % size for k in range(size)]
    return dict(
        vaults=[{feature: [q.hex() for q in row]
                 for feature, row in vault.items()}
                for vault in p._vaults],
        queue=[(tuple(p._eq_features[slot].tolist()),
                int(p._eq_action[slot]), int(p._eq_block[slot]),
                int(p._eq_pending[slot]))
               for slot in ring if p._eq_action[slot] >= 0],
        pages={page: tuple(history.tolist())
               for page, history in p._pages.items()},
        rewards=p.rewards_assigned,
        rng=p._rng.bit_generator.state)


def spp_state(prefetcher):
    """Everything :meth:`SPPPrefetcher.process` reads back on the next
    access: both tables' rows in use with their stamps, each pattern
    row's (delta, count) slots in order, the signature → row map and
    both clocks."""
    p = prefetcher
    st, pt = p._st_rows, p._pt_rows
    return dict(
        signature_table=np.stack([p._st_page, p._st_signature, p._st_offset,
                                  p._st_stamp])[:, :st].T.tolist(),
        pattern_table=[
            (int(p._pt_signature[row]), int(p._pt_stamp[row]),
             int(p._pt_total[row]),
             list(zip(p._pt_delta[row, :slots].tolist(),
                      p._pt_count[row, :slots].tolist())))
            for row, slots in enumerate(p._pt_slots[:pt].tolist())],
        pattern_rows=p._pt_row.tolist(),
        clocks=(st, p._st_clock, pt, p._pt_clock))
