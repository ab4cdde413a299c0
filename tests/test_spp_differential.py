"""Adversarial differential tests: the compiled SPP loop vs
:meth:`SPPPrefetcher.process`.

``tests/test_fastpath_parity.py`` pins bit-identity on realistic
workloads; this suite generates what they rarely reach: Signature
Tables of one row facing hundreds of pages (an eviction on most
accesses), Pattern Tables of one row facing many signatures, counters
that saturate at 1 to 15 so hot signatures halve and then tie, deltas
of ±63, walks that step off either page edge, repeated offsets, and
thresholds that a path's confidence can equal exactly.  Every example
runs both paths over the same chunks, or hands over between them chunk
by chunk, and compares the prefetch rows and both tables: rows,
stamps, clocks and slot order.  Without a compiled kernel both sides
run :meth:`process`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.prefetchers import SPPConfig, SPPPrefetcher
from repro.prefetchers.base import Prefetcher
from repro.snn.ckernel import load_kernel
from tests.helpers import drive_rows, spp_state

_KERNEL = load_kernel() is not None


@st.composite
def configs(draw):
    return SPPConfig(
        signature_table_size=draw(st.one_of(st.integers(1, 4),
                                            st.integers(1, 256))),
        pattern_table_size=draw(st.one_of(st.integers(1, 4),
                                          st.integers(1, 512))),
        max_counter=draw(st.integers(1, 15)),
        # Exact ratios a path's confidence can equal, and any other.
        prefetch_threshold=draw(st.one_of(
            st.sampled_from((1.0, 0.5, 0.25, 1 / 3, 0.125)),
            st.floats(0.0, 1.0, exclude_min=True))),
        lookahead_depth=draw(st.integers(1, 8)),
        max_degree=draw(st.integers(1, 8)))


#: Per-access offset steps (modulo the page): repeats, short walks both
#: ways, and the largest in-page deltas.
STEPS = (0, 0, 1, -1, 2, 3, -5, 17, 63, -63)


@st.composite
def traces(draw):
    """An address column over 1 to 600 pages spaced far apart.  Each
    page's offset mostly repeats one short step pattern (so a few
    signatures get hot) and sometimes takes a random step."""
    n = draw(st.integers(1, 400))
    n_pages = draw(st.sampled_from((1, 2, 40, 600)))
    pages = draw(st.lists(st.integers(0, n_pages - 1), min_size=n,
                          max_size=n))
    pattern = draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=4))
    noise = draw(st.lists(st.one_of(st.none(), st.sampled_from(STEPS)),
                          min_size=n, max_size=n))
    offsets, seen = {}, {}
    addresses = []
    for page, step in zip(pages, noise):
        if step is None:
            step = pattern[seen.get(page, 0) % len(pattern)]
        seen[page] = seen.get(page, 0) + 1
        offset = offsets[page] = (offsets.get(page, 0) + step) % 64
        addresses.append(((0x100 + 7919 * page) << 12) | (offset << 6) | 0x15)
    return np.asarray(addresses, dtype=np.int64)


def _drive(prefetcher, paths, addresses, chunk):
    """Feed ``addresses`` in chunks, chunk ``k`` through
    ``paths[k % len(paths)]`` ("batched" or "scalar"); the rows, joined
    (``drive_rows``)."""
    n = len(addresses)
    chunks = []

    def process_batch(*columns):
        path = paths[len(chunks) % len(paths)]
        chunks.append(path)
        if path == "batched":
            return prefetcher.process_batch(*columns)
        return Prefetcher.process_batch(prefetcher, *columns)

    return drive_rows(process_batch, addresses,
                      np.full(n, 0x400, dtype=np.int64),
                      [*range(0, n, chunk), n])


def _run(config, addresses, chunk, paths):
    """Both sides over the same chunks; asserts equal rows and state."""
    scalar = SPPPrefetcher(config)
    expected = _drive(scalar, ["scalar"], addresses, chunk)

    batched = SPPPrefetcher(config)
    scalar_calls = []
    process = batched.process
    batched.process = lambda access: scalar_calls.append(1) or process(access)
    assert _drive(batched, paths, addresses, chunk) == expected
    assert spp_state(batched) == spp_state(scalar)
    if _KERNEL and "scalar" not in paths:
        assert not scalar_calls, "the compiled loop did not run"
    return expected, spp_state(scalar)


def _walk(offsets, page=0x4321):
    return np.asarray([(page << 12) | (offset << 6) for offset in offsets],
                      dtype=np.int64)


#: One page stepping +1 or +2 in a fixed irregular order: a few hot
#: signatures see both deltas, saturate at 2, halve and then tie.
HOT = _walk(np.cumsum([0] + [1 + (k * k % 7 < 3) for k in range(300)]) % 64)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=configs(), addresses=traces(),
       chunk=st.sampled_from((1, 7, 63, 4096)),
       paths=st.sampled_from((["batched"], ["batched", "scalar"],
                              ["scalar", "batched"])))
@example(config=SPPConfig(signature_table_size=1, pattern_table_size=1),
         addresses=_walk([3, 9] * 50, page=0)
         | (np.arange(100) // 3 % 7 << 12),
         chunk=7, paths=["batched"])
@example(config=SPPConfig(max_counter=2, lookahead_depth=8, max_degree=8),
         addresses=HOT, chunk=63, paths=["batched"])
@example(config=SPPConfig(max_counter=2 ** 64 + 1), addresses=HOT,
         chunk=4096, paths=["batched"])
@example(config=SPPConfig(lookahead_depth=8, max_degree=8,
                          prefetch_threshold=1.0),
         addresses=_walk([0, 63, 0, 63, 63, 0, 0, 62, 1, 63] * 20),
         chunk=4096, paths=["batched", "scalar"])
def test_compiled_loop_matches_process(config, addresses, chunk, paths):
    _run(config, addresses, chunk, paths)


def test_hot_signature_saturates_halves_and_ties():
    """The hot walk reaches the saturation branch, leaves a count of 1
    that the floor kept, and ties two deltas of one row."""
    _, state = _run(SPPConfig(max_counter=2, lookahead_depth=8,
                              max_degree=8), HOT, 4096, ["batched"])
    slot_counts = [[count for _, count in slots]
                   for *_, slots in state["pattern_table"]]
    assert any(len(counts) > 1 and counts.count(max(counts)) > 1
               for counts in slot_counts)
    assert any(len(counts) > 1 and min(counts) == 1 for counts in slot_counts)


def test_walks_leave_the_page_at_both_edges():
    """Walks that learn +5 near the top of a page and -5 near its
    bottom stop at the edge; the tables still match."""
    up = list(range(3, 64, 5)) * 4
    down = list(range(60, -1, -5)) * 4
    (_, addresses), _ = _run(
        SPPConfig(lookahead_depth=8, max_degree=8),
        np.concatenate([_walk(up), _walk(down, page=0x999)]), 7,
        ["batched"])
    offsets = [(address >> 6) & 63 for address in addresses]
    assert max(offsets) == 63 and min(offsets) == 0
