"""Deeper behavioural tests for paths not exercised elsewhere."""

import numpy as np
import pytest

from repro.core import PathfinderConfig, PathfinderPrefetcher
from repro.prefetchers import SPPConfig, SPPPrefetcher, generate_prefetches
from repro.types import MemoryAccess, compose_address

from tests.helpers import build_trace


# -- SPP counter saturation/ageing -------------------------------------------

def test_spp_counter_ageing_on_saturation():
    pf = SPPPrefetcher(SPPConfig(max_counter=4))
    for _ in range(10):
        pf._record(7, delta=2)
    row = pf._pt_row[7]
    slots = pf._pt_slots[row]
    assert pf._pt_delta[row, :slots].tolist() == [2]
    # Counter must have aged rather than grown unboundedly.
    assert pf._pt_count[row, 0] <= 5
    assert pf._pt_total[row] == pf._pt_count[row, :slots].sum()


def test_spp_pattern_table_lru_bound():
    pf = SPPPrefetcher(SPPConfig(pattern_table_size=4))
    for signature in range(10):
        pf._record(signature, delta=1)
    # The four most recent signatures hold the table's four rows.
    assert sorted(np.flatnonzero(pf._pt_row >= 0)) == [6, 7, 8, 9]
    assert sorted(pf._pt_signature[:pf._pt_rows]) == [6, 7, 8, 9]


def test_spp_signature_table_lru_bound():
    pf = SPPPrefetcher(SPPConfig(signature_table_size=4))
    instr = 0
    for page in range(20):
        instr += 10
        pf.process(MemoryAccess(instr, 0x4, compose_address(page, 0)))
    assert pf._st_rows <= 4
    assert sorted(pf._st_page[:pf._st_rows]) == [16, 17, 18, 19]


# -- PATHFINDER edge configurations -------------------------------------------

def pattern_addresses(pattern, pages):
    addresses = []
    for page in pages:
        offset, position = 0, 0
        while 0 <= offset < 64:
            addresses.append(compose_address(page, offset))
            offset += pattern[position % len(pattern)]
            position += 1
    return addresses


def test_pathfinder_degree_three():
    config = PathfinderConfig(one_tick=True, degree=3,
                              labels_per_neuron=3)
    trace = build_trace(pattern_addresses((2,), range(100, 140)))
    requests = generate_prefetches(PathfinderPrefetcher(config), trace,
                                   budget=3)
    from collections import Counter

    per_trigger = Counter(r.trigger_instr_id for r in requests)
    assert max(per_trigger.values()) <= 3


def test_pathfinder_history_length_two():
    config = PathfinderConfig(one_tick=True, history=2)
    prefetcher = PathfinderPrefetcher(config)
    assert prefetcher.encoder.n_input == 127 * 2
    trace = build_trace(pattern_addresses((3,), range(100, 130)))
    requests = generate_prefetches(prefetcher, trace)
    assert requests  # shorter history still learns a constant delta


def test_pathfinder_small_network_still_works():
    config = PathfinderConfig(one_tick=True, n_neurons=4, delta_range=31)
    trace = build_trace(pattern_addresses((2,), range(100, 140)))
    requests = generate_prefetches(PathfinderPrefetcher(config), trace)
    assert requests


def test_pathfinder_predicted_bookkeeping():
    config = PathfinderConfig(one_tick=True)
    prefetcher = PathfinderPrefetcher(config)
    trace = build_trace(pattern_addresses((2,), range(100, 140)))
    generate_prefetches(prefetcher, trace)
    predicted = [entry.predicted
                 for entry in prefetcher.training_table.entries()]
    assert any(p for p in predicted)  # predictions recorded per stream


def test_pathfinder_stats_counters_consistent():
    prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=True))
    trace = build_trace(pattern_addresses((2, 5), range(100, 130)))
    requests = generate_prefetches(prefetcher, trace)
    assert prefetcher.accesses_seen == len(trace)
    assert prefetcher.snn_queries <= len(trace)
    assert prefetcher.prefetches_emitted >= len(requests)


# -- SNN one-tick vs full agreement, statistically ------------------------------

def test_one_tick_agreement_on_trained_patterns():
    """After training, the 1-tick winner matches the full-interval
    winner on a clear majority of trained-pattern presentations."""
    from repro.core.pixel import PixelMatrixEncoder

    config = PathfinderConfig(one_tick=False, seed=3)
    prefetcher = PathfinderPrefetcher(config)
    encoder = prefetcher.encoder
    network = prefetcher.network
    patterns = [(2, 2, 2), (5, 9, 5), (1, 12, 1)]
    for _ in range(8):
        for pattern in patterns:
            network.present(encoder.encode(list(pattern)))
    matches = 0
    trials = 0
    for _ in range(5):
        for pattern in patterns:
            rates = encoder.encode(list(pattern))
            predicted = network.present_one_tick(np.flatnonzero(rates),
                                                 learn=False).winner
            record = network.present(rates, learn=False)
            if record.winner is None:
                continue
            trials += 1
            best = record.spike_counts.max()
            matches += int(record.spike_counts[predicted] == best)
    assert trials >= 10
    assert matches / trials > 0.6


# -- DRAM queue drain ----------------------------------------------------------

def test_dram_queue_drains_over_time():
    from repro.sim.dram import DramConfig, DramModel

    dram = DramModel(DramConfig(read_queue_size=2, base_latency=100,
                                bank_occupancy=1))
    dram.access(0, 0)
    dram.access(1, 0)
    # Far in the future the queue is empty again: no extra waiting.
    completion = dram.access(2, 10_000)
    assert completion == 10_100
