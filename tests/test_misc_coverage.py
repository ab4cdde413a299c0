"""Grab-bag tests for small helpers not covered elsewhere."""

import pytest

from repro import __version__
from repro.sim.metrics import SimResult, speedup


def test_version_string():
    assert __version__.count(".") == 2


def test_speedup_helper():
    base = SimResult(trace_name="t", prefetcher_name="none",
                     instructions=100, cycles=100.0)
    fast = SimResult(trace_name="t", prefetcher_name="pf",
                     instructions=100, cycles=50.0)
    assert speedup(fast, base) == pytest.approx(2.0)
    zero = SimResult(trace_name="t", prefetcher_name="none",
                     instructions=0, cycles=0.0)
    assert speedup(fast, zero) == 0.0


def test_public_api_surface():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_sim_public_api_surface():
    import repro.sim as sim

    for name in sim.__all__:
        assert getattr(sim, name) is not None


def test_prefetchers_public_api_surface():
    import repro.prefetchers as prefetchers

    for name in prefetchers.__all__:
        assert getattr(prefetchers, name) is not None


def test_make_trace_single_phase():
    from repro.traces import make_trace

    stationary = make_trace("cc-5", 1000, seed=1, phases=1)
    phased = make_trace("cc-5", 1000, seed=1, phases=2)
    assert len(stationary) == len(phased) == 1000
    assert ([a.address for a in stationary]
            != [a.address for a in phased])


def test_make_trace_rejects_zero_phases():
    from repro.errors import ConfigError
    from repro.traces import make_trace

    with pytest.raises(ConfigError):
        make_trace("cc-5", 100, phases=0)


def test_phase_mutation_changes_delta_vocabulary():
    from repro.traces import make_trace

    trace = make_trace("473-astar-s1", 4000, seed=1, phases=2)
    first = set(trace.head(2000).deltas_within_page())
    second_half = type(trace).from_accesses("h2", list(trace)[2000:])
    second = set(second_half.deltas_within_page())
    # The phase shift introduces delta values absent from phase 1.
    assert second - first
