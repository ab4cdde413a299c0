"""Adversarial differential tests: the compiled Pythia loop vs
:meth:`PythiaPrefetcher.process`.

``tests/test_fastpath_parity.py`` pins bit-identity on realistic
workloads; this suite generates what they rarely reach: action lists of
2 to 300 deltas (longer than any fixed-size buffer), many of them a
page or more, so their Q-values tie at zero; degrees up to the whole
list; exploration that is off, rare, frequent or constant; evaluation
queues of 1 to 300 entries; one vault or two; and traces that revisit
a few hot blocks (many pending prefetches rewarded by one access),
scatter over far-apart pages under many PCs (so the page table and the
row stores grow mid-chunk), and step by negative and wrapping deltas.
Every example runs both paths over the same chunks and compares the
prefetch rows and the whole state.  Without a compiled kernel both
sides run :meth:`process`.  The compiled exploration draws are held to
the Python draw loop they replaced, kept here as the reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.prefetchers import PythiaConfig, PythiaPrefetcher
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.pythia import MAX_ACTIONS
from repro.snn.ckernel import load_kernel
from tests.helpers import drive_rows, pythia_state

_KERNEL = load_kernel() is not None

#: Deltas that land in a page from some offset, and ones that never do.
NEAR = tuple(d for d in range(-63, 64) if d)
FAR = tuple(d for sign in (1, -1) for d in range(64 * sign, 300 * sign, sign))


@st.composite
def configs(draw):
    n_actions = draw(st.integers(2, 300))
    n_near = draw(st.integers(min(1, n_actions - 1), min(40, n_actions - 1)))
    near = draw(st.lists(st.sampled_from(NEAR), min_size=n_near,
                         max_size=n_near, unique=True))
    deltas = draw(st.permutations(near + list(FAR[:n_actions - 1 - n_near])))
    zero_at = draw(st.integers(0, n_actions - 1))
    return PythiaConfig(
        actions=tuple(deltas[:zero_at] + [0] + deltas[zero_at:]),
        degree=draw(st.integers(1, n_actions)),
        epsilon=draw(st.sampled_from((0.0, 0.05, 0.5, 1.0))),
        eq_size=draw(st.integers(1, 300)),
        use_delta_sequence_vault=draw(st.booleans()),
        alpha=draw(st.sampled_from((0.15, 1.0))),
        gamma=draw(st.sampled_from((0.0, 0.55, 0.99))),
        reward_accurate=draw(st.sampled_from((20.0, 0.0))),
        reward_inaccurate=draw(st.sampled_from((-8.0, 3.5))),
        reward_no_prefetch=draw(st.sampled_from((2.0, -1.0))),
        seed=draw(st.integers(0, 3)))


#: Per-access offset steps: repeats, short walks both ways, and jumps.
STEPS = (0, 0, 1, -1, 2, -3, 5, -17, 40)


@st.composite
def traces(draw):
    """Address and PC columns.  Offsets walk by ``STEPS`` modulo the
    page, or, for a hot trace, stay within four blocks; pages are drawn
    from 1, 3 or 600 pages spaced far apart; PCs from three values, or
    from 4096 so features rarely repeat."""
    n = draw(st.integers(1, 300))
    n_pages = draw(st.sampled_from((1, 3, 600)))
    hot = draw(st.booleans())
    many_pcs = draw(st.booleans())
    rows = draw(st.lists(st.tuples(st.integers(0, n_pages - 1),
                                   st.sampled_from(STEPS),
                                   st.integers(0, 4095)),
                         min_size=n, max_size=n))
    offsets = {}
    addresses, pcs = [], []
    for page, step, pc in rows:
        offset = (offsets.get(page, 0) + step) % (4 if hot else 64)
        offsets[page] = offset
        addresses.append(((0x100 + 7919 * page) << 12) | (offset << 6) | 0x15)
        pcs.append(pc if many_pcs else (0x400, 0x404, 0x7F0)[pc % 3])
    return (np.asarray(addresses, dtype=np.int64),
            np.asarray(pcs, dtype=np.int64))


def _drive(prefetcher, batched, columns, chunk):
    """Feed ``columns`` in chunks; the rows, joined (``drive_rows``)."""
    addresses, pcs = columns
    n = len(addresses)
    process_batch = (prefetcher.process_batch if batched
                     else lambda *c: Prefetcher.process_batch(prefetcher, *c))
    return drive_rows(process_batch, addresses, pcs,
                      [*range(0, n, chunk), n])


def _growing_chunk():
    """One chunk over 2,000 far-apart pages under 4096 PCs: more pages
    and features than the stores start with."""
    rng = np.random.default_rng(1)
    pages = 0x100 + 7919 * rng.integers(0, 2000, size=2000)
    addresses = (pages << 12) | (rng.integers(0, 64, size=2000) << 6)
    return {"config": PythiaConfig(eq_size=8),
            "columns": (addresses, rng.integers(0, 4096, size=2000)),
            "chunk": 4096}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=configs(), columns=traces(),
       chunk=st.sampled_from((1, 7, 63, 4096)))
@example(**_growing_chunk())
def test_compiled_loop_matches_process(config, columns, chunk):
    scalar = PythiaPrefetcher(config)
    expected = _drive(scalar, False, columns, chunk)

    batched = PythiaPrefetcher(config)
    scalar_calls = []
    process = batched.process
    batched.process = lambda access: scalar_calls.append(1) or process(access)
    assert _drive(batched, True, columns, chunk) == expected
    assert pythia_state(batched) == pythia_state(scalar)
    if _KERNEL:
        assert not scalar_calls, "the compiled loop did not run"


def _explore_reference(rng, n, epsilon, n_actions, degree):
    """The Python draw loop the compiled draws replaced: per access, one
    ``random()``, and ``choice`` when it falls under epsilon; row ``i``
    holds access ``i``'s explored actions, or -1s for a greedy pick."""
    explored = np.full((n, degree), -1, dtype=np.int64)
    for i in range(n):
        if rng.random() < epsilon:
            explored[i] = rng.choice(n_actions, size=degree, replace=False)
    return explored


@pytest.mark.skipif(not _KERNEL, reason="no compiled kernel")
@pytest.mark.parametrize("n_actions", (16, MAX_ACTIONS))
@pytest.mark.parametrize("epsilon", (0.0, 0.05, 0.5, 1.0))
def test_compiled_draws_match_numpy(epsilon, n_actions):
    """The compiled draws fill the table the Python loop draws and leave
    the bit generator in the same state, for every degree and chunking:
    a NumPy release that changes ``random`` or ``choice`` fails here."""
    kernel = load_kernel()
    n = 200
    for seed in range(4):
        for degree in range(1, 17):
            for chunk in (1, 7, n):
                compiled = np.random.default_rng(seed)
                reference = np.random.default_rng(seed)
                for start in range(0, n, chunk):
                    size = min(chunk, n - start)
                    explored = np.empty((size, degree), dtype=np.int64)
                    kernel.pythia_explore(compiled, epsilon, n_actions,
                                          explored)
                    assert explored.tolist() == _explore_reference(
                        reference, size, epsilon, n_actions, degree).tolist()
                assert compiled.bit_generator.state \
                    == reference.bit_generator.state
