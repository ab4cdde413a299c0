"""Adversarial differential tests: the compiled PATHFINDER loop vs
:meth:`PathfinderPrefetcher.process`.

``tests/test_fastpath_parity.py`` pins bit-identity on realistic
workloads; this suite generates what they rarely reach: Training Tables
of one to sixteen rows facing up to 144 streams, delta ranges narrow
enough that most deltas fall out of range, repeat-block accesses,
networks of two to fifty neurons whose weights take a few values (so
one-tick scores tie, exactly or to the last bit), periodic STDP that
mixes learning and frozen queries, chunks that cross the
``HEALTH_CHECK_INTERVAL`` scan, a weight set to NaN between chunks so
a later scan stops the loop for the repair hand-off, and weights that
the loop's own STDP step turns NaN.  Every example runs both paths
over the same chunks, with the series bookkeeping off and on, and
compares the prefetch rows, the tables, the SNN state and every
counter.  Without a compiled kernel both sides run :meth:`process`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PathfinderConfig, PathfinderPrefetcher
from repro.prefetchers.base import Prefetcher
from repro.snn.ckernel import load_kernel
from repro.snn.network import HEALTH_CHECK_INTERVAL
from tests.helpers import drive_rows, pathfinder_state

_KERNEL = load_kernel() is not None


@st.composite
def configs(draw):
    return PathfinderConfig(
        delta_range=draw(st.sampled_from((3, 7, 15, 127))),
        history=draw(st.integers(1, 3)),
        n_neurons=draw(st.sampled_from((2, 5, 50))),
        labels_per_neuron=draw(st.integers(1, 3)),
        degree=draw(st.integers(1, 3)),
        confidence_threshold=draw(st.integers(0, 2)),
        confidence_max=draw(st.sampled_from((2, 7))),
        confidence_init=draw(st.integers(1, 2)),
        require_confirmation=draw(st.booleans()),
        enlarge_pixels=draw(st.booleans()),
        cold_page_encoding=draw(st.booleans()),
        training_table_size=draw(st.sampled_from((1, 2, 4, 16))),
        stdp_epoch=draw(st.sampled_from((None, 3, 7))),
        stdp_on_accesses=draw(st.integers(0, 4)),
        theta_plus=draw(st.sampled_from((0.0, 4.0))),
        theta_max=draw(st.sampled_from((None, 40.0))),
        seed=draw(st.integers(0, 3)))


#: Per-access offset steps: repeats of the block, short walks, and
#: jumps past a narrow delta range.
STEPS = (0, 1, 2, -1, 3, 5, -7, 31)


@st.composite
def traces(draw):
    """Address and PC columns over 3 to 144 (pc, page) streams; each
    stream's offset mostly repeats one short step pattern (so labels get
    confirmed) and sometimes takes a random step."""
    n = draw(st.integers(1, 200))
    n_pages = draw(st.sampled_from((1, 4, 48)))
    streams = draw(st.lists(st.tuples(st.sampled_from((0x400, 0x404, 0x7F0)),
                                      st.integers(0, n_pages - 1)),
                            min_size=n, max_size=n))
    pattern = draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=3))
    noise = draw(st.lists(st.one_of(st.none(), st.sampled_from(STEPS)),
                          min_size=n, max_size=n))
    offsets, seen = {}, {}
    addresses = []
    for (pc, page), step in zip(streams, noise):
        if step is None:
            step = pattern[seen.get((pc, page), 0) % len(pattern)]
        seen[pc, page] = seen.get((pc, page), 0) + 1
        offset = offsets[pc, page] = (offsets.get((pc, page), 0) + step) % 64
        addresses.append(((0x100 + page) << 12) | (offset << 6) | 0x2A)
    return (np.asarray(addresses, dtype=np.int64),
            np.asarray([pc for pc, _ in streams], dtype=np.int64))


#: Weight value sets: a few levels (exact ties), and levels one ulp or
#: 2^-40 apart (near ties).
WEIGHT_LEVELS = (None, (0.25, 0.5), (0.0, 0.125, 0.25),
                 (0.3, np.nextafter(0.3, 1.0)), (0.5, 0.5 + 2.0 ** -40, 1.0))


def _build(config, levels, weight_seed):
    prefetcher = PathfinderPrefetcher(config)
    if levels is not None:
        weights = prefetcher.network.weights
        rng = np.random.default_rng(weight_seed)
        weights[:] = rng.choice(np.asarray(levels), size=weights.shape)
    return prefetcher


def _drive(prefetcher, batched, columns, chunk, poison, series):
    """Feed ``columns`` in chunks (split at ``poison``'s access, where a
    weight turns NaN); the rows, joined (``drive_rows``), and the
    series after each chunk."""
    addresses, pcs = columns
    n = len(addresses)
    bounds = set(range(0, n, chunk)) | {n}
    if poison is not None:
        bounds.add(min(poison[0], n))
    bounds = sorted(bounds)
    if series:
        prefetcher.series_arm()
    starts, samples = iter(bounds), []

    def process_batch(*chunk_columns):
        if poison is not None and next(starts) == poison[0]:
            row, column = poison[1:]
            weights = prefetcher.network.weights
            weights[row % weights.shape[0], column % weights.shape[1]] = np.nan
        rows = (prefetcher.process_batch(*chunk_columns) if batched
                else Prefetcher.process_batch(prefetcher, *chunk_columns))
        if series:
            cumulative, gauges = {}, {}
            prefetcher.series_sample(cumulative, gauges)
            # repr, so a NaN drift (a poisoned weight) compares equal.
            samples.append((cumulative,
                            {name: repr(v) for name, v in gauges.items()},
                            list(prefetcher._series_winner_counts.items())))
        return rows

    return drive_rows(process_batch, addresses, pcs, bounds), samples


def _poisoned_queries():
    """150 first touches, each a query: scans at 64 and 128 follow a
    weight poisoned at access 10."""
    addresses = np.asarray([(0x100 + page) << 12 for page in range(150)],
                           dtype=np.int64)
    return {"config": PathfinderConfig(n_neurons=5),
            "columns": (addresses, np.full(150, 0x400, dtype=np.int64)),
            "levels": None, "weight_seed": 0, "chunk": 4096,
            "poison": (10, 0, 0)}


def _self_poisoned_queries():
    """The same 150 queries, unpoisoned, with weights of 0 and 5e-324:
    a column's renormalisation overflows (``norm / total`` is inf), so
    the loop's own STDP writes NaN and inf columns, which only the
    counts it keeps while writing can show the scans at 64 and 128.
    ``nu_post = 0`` makes d0 = -0.0 and d1 = 0.0, so the clip meets
    its signed-zero tie too."""
    case = _poisoned_queries()
    case.update(config=PathfinderConfig(n_neurons=5, nu_post=0.0),
                levels=(0.0, 5e-324), poison=None)
    return case


@pytest.mark.parametrize("series", (False, True))
# The self-poisoning example overflows on the NumPy path by design.
@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=configs(), columns=traces(),
       levels=st.sampled_from(WEIGHT_LEVELS), weight_seed=st.integers(0, 9),
       chunk=st.sampled_from((1, 7, HEALTH_CHECK_INTERVAL - 1, 4096)),
       poison=st.one_of(st.none(), st.tuples(st.integers(0, 200),
                                             st.integers(0, 10 ** 6),
                                             st.integers(0, 49))))
@example(**_poisoned_queries())
@example(**_self_poisoned_queries())
def test_compiled_loop_matches_process(series, config, columns, levels,
                                       weight_seed, chunk, poison):
    scalar = _build(config, levels, weight_seed)
    expected, expected_series = _drive(scalar, False, columns, chunk,
                                       poison, series)

    batched = _build(config, levels, weight_seed)
    scalar_calls = []
    process = batched.process
    batched.process = lambda access: scalar_calls.append(1) or process(access)
    rows, samples = _drive(batched, True, columns, chunk, poison, series)

    assert rows == expected
    assert pathfinder_state(batched) == pathfinder_state(scalar)
    assert samples == expected_series
    if _KERNEL:
        assert not scalar_calls, "the compiled loop did not run"


def test_health_scan_hand_off_repairs_mid_chunk():
    """A weight poisoned before the chunk is found by the scan at
    interval 64, mid-chunk: the loop stops, the neuron is repaired and
    its labels erased, and the rest of the chunk matches process()."""
    case = _poisoned_queries()
    poison = case["poison"]
    scalar = _build(case["config"], None, 0)
    expected, _ = _drive(scalar, False, case["columns"], 4096, poison, False)
    batched = _build(case["config"], None, 0)
    assert _drive(batched, True, case["columns"], 4096, poison,
                  False)[0] == expected
    assert pathfinder_state(batched) == pathfinder_state(scalar)
    assert batched.neuron_repairs >= 1
    assert np.isfinite(batched.network.weights).all()
