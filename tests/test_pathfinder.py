"""Tests for the PATHFINDER prefetcher end to end."""

import math

import pytest

from repro.core import PathfinderConfig, PathfinderPrefetcher
from repro.core import pathfinder as pathfinder_module
from repro.errors import ConfigError
from repro.prefetchers import generate_prefetches
from repro.sim import simulate
from repro.traces import make_trace
from repro.types import MemoryAccess, compose_address

from tests.helpers import build_trace


def pattern_addresses(pattern, pages, start_offset=0):
    """Addresses walking `pattern` within each of `pages` fresh pages."""
    addresses = []
    for page in pages:
        offset = start_offset
        position = 0
        while 0 <= offset < 64:
            addresses.append(compose_address(page, offset))
            offset += pattern[position % len(pattern)]
            position += 1
    return addresses


def test_config_validation():
    with pytest.raises(ConfigError):
        PathfinderConfig(delta_range=10)       # even
    with pytest.raises(ConfigError):
        PathfinderConfig(history=0)
    with pytest.raises(ConfigError):
        PathfinderConfig(degree=0)
    with pytest.raises(ConfigError):
        PathfinderConfig(confidence_init=0)
    with pytest.raises(ConfigError):
        PathfinderConfig(stdp_epoch=0)
    # A negative radius lights no pixel, so neuron 0 would always win.
    with pytest.raises(ConfigError):
        PathfinderConfig(enlarge_radius=-1)
    # A non-finite constant poisons the winner's column on every update.
    for name in ("nu_post", "x_target", "w_max", "norm", "theta_plus",
                 "theta_max", "tc_theta_decay", "init_density",
                 "inhibition_scale"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=name):
                PathfinderConfig(**{name: value})
    assert PathfinderConfig(theta_max=None).theta_max is None


def test_config_derived_properties():
    cfg = PathfinderConfig(delta_range=31, history=3)
    assert cfg.max_delta == 15
    assert cfg.n_input == 93


def test_learns_repeating_pattern():
    trace = build_trace(pattern_addresses((2,), range(100, 160)))
    prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=True))
    requests = generate_prefetches(prefetcher, trace)
    base = simulate(trace)
    result = simulate(trace, requests)
    assert result.accuracy() > 0.8
    assert result.coverage(base.llc_misses) > 0.5


def test_selective_on_random_stream():
    import numpy as np

    rng = np.random.default_rng(0)
    addresses = [compose_address(int(p), int(o))
                 for p, o in zip(rng.integers(0, 1 << 16, 2000),
                                 rng.integers(0, 64, 2000))]
    trace = build_trace(addresses)
    prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=True))
    requests = generate_prefetches(prefetcher, trace)
    # On pure noise PATHFINDER must stay quiet (high selectivity).
    assert len(requests) < len(trace) * 0.2


def test_prefetches_stay_within_page():
    trace = build_trace(pattern_addresses((9,), range(100, 140),
                                          start_offset=0))
    prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=True))
    requests = generate_prefetches(prefetcher, trace)
    trigger_pages = {a.instr_id: a.page for a in trace}
    for req in requests:
        assert (req.address >> 12) == trigger_pages[req.trigger_instr_id]


def test_degree_limits_prefetches_per_access():
    trace = build_trace(pattern_addresses((1, 2), range(100, 150)))
    prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=True,
                                                       degree=1))
    requests = generate_prefetches(prefetcher, trace, budget=2)
    from collections import Counter

    per_trigger = Counter(r.trigger_instr_id for r in requests)
    assert max(per_trigger.values()) == 1


def test_zero_delta_accesses_ignored():
    address = compose_address(100, 5)
    trace = build_trace([address] * 50)
    prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=True))
    requests = generate_prefetches(prefetcher, trace)
    assert requests == []
    assert prefetcher.snn_queries <= 1  # only the first (cold) access


def test_out_of_range_delta_breaks_stream():
    # Alternating huge jumps within a page are out of range for D=31.
    addresses = []
    for page in range(100, 120):
        addresses += [compose_address(page, 0), compose_address(page, 40),
                      compose_address(page, 2)]
    trace = build_trace(addresses)
    cfg = PathfinderConfig(delta_range=31, one_tick=True,
                           cold_page_encoding=False)
    prefetcher = PathfinderPrefetcher(cfg)
    generate_prefetches(prefetcher, trace)  # must not raise


def test_periodic_stdp_gates_learning():
    cfg = PathfinderConfig(one_tick=True, stdp_epoch=100,
                           stdp_on_accesses=10)
    prefetcher = PathfinderPrefetcher(cfg)
    gates = []
    for i in range(250):
        prefetcher.accesses_seen = i
        gates.append(prefetcher._learning_enabled())
    assert gates[5] and not gates[50] and gates[105] and not gates[199]


def test_cold_page_encoding_queries_on_first_touch():
    trace = build_trace([compose_address(100 + i, 0) for i in range(20)])
    with_cold = PathfinderPrefetcher(PathfinderConfig(
        one_tick=True, cold_page_encoding=True))
    without = PathfinderPrefetcher(PathfinderConfig(
        one_tick=True, cold_page_encoding=False))
    generate_prefetches(with_cold, trace)
    generate_prefetches(without, trace)
    assert with_cold.snn_queries > without.snn_queries


def test_reset_restores_initial_state():
    trace = build_trace(pattern_addresses((2,), range(100, 120)))
    prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=True))
    first = [r.address for r in generate_prefetches(prefetcher, trace)]
    prefetcher.reset()
    assert prefetcher.accesses_seen == 0
    second = [r.address for r in generate_prefetches(prefetcher, trace)]
    assert first == second  # fully deterministic after reset


def test_prediction_counters_kept_without_a_series(monkeypatch):
    """Both loops count prediction checks and hits on every run, not
    only under ``--series``, and agree on them."""
    trace = make_trace("cc-5", 3000, seed=1)
    compiled = PathfinderPrefetcher()
    generate_prefetches(compiled, trace)
    monkeypatch.setattr(pathfinder_module, "load_kernel", lambda: None)
    scalar = PathfinderPrefetcher()
    generate_prefetches(scalar, trace)
    assert compiled.pred_checked > 0
    assert (compiled.pred_checked, compiled.pred_correct) \
        == (scalar.pred_checked, scalar.pred_correct)


def test_full_interval_mode_runs():
    trace = build_trace(pattern_addresses((3,), range(100, 110)))
    prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=False))
    generate_prefetches(prefetcher, trace)
    assert prefetcher.first_tick_total > 0


def test_training_table_capacity_respected():
    trace = build_trace([compose_address(100 + i, 0) for i in range(64)])
    cfg = PathfinderConfig(one_tick=True, training_table_size=16)
    prefetcher = PathfinderPrefetcher(cfg)
    generate_prefetches(prefetcher, trace)
    assert len(prefetcher.training_table) <= 16
