"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferenceTable, PathfinderConfig, PixelMatrixEncoder
from repro.ml.cluster import assign_1d, kmeans_1d
from repro.sim.cache import CacheConfig, SetAssociativeCache
from repro.snn.encoding import poisson_spike_train
from repro.snn.synapses import Connection
from repro.snn.stdp import STDPConfig
from repro.types import (
    BLOCKS_PER_PAGE,
    compose_address,
    page_of,
    page_offset,
)

# -- address arithmetic ---------------------------------------------------------


@given(page=st.integers(min_value=0, max_value=1 << 40),
       offset=st.integers(min_value=0, max_value=63))
def test_compose_decompose_roundtrip(page, offset):
    address = compose_address(page, offset)
    assert page_of(address) == page
    assert page_offset(address) == offset
    assert address % 64 == 0


# -- cache invariants ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=255),
                       min_size=1, max_size=200))
def test_cache_never_exceeds_capacity_and_lookup_consistent(blocks):
    cache = SetAssociativeCache(CacheConfig(name="T", sets=4, ways=2,
                                            latency=1))
    resident = set()
    for block in blocks:
        victim = cache.insert(block)
        resident.add(block)
        if victim is not None:
            resident.discard(victim)
        assert cache.occupancy <= 8
        # Everything the model says is resident must be found.
        assert cache.contains(block)
    for block in resident:
        assert cache.contains(block)


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=63),
                       min_size=1, max_size=100))
def test_cache_hits_plus_misses_equals_lookups(blocks):
    cache = SetAssociativeCache(CacheConfig(name="T", sets=2, ways=2,
                                            latency=1))
    for block in blocks:
        if not cache.lookup(block):
            cache.insert(block)
    assert cache.hits + cache.misses == len(blocks)


# -- pixel encoder ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(deltas=st.lists(st.integers(min_value=-63, max_value=63),
                       min_size=3, max_size=3),
       enlarge=st.booleans(), reorder=st.booleans(),
       shift=st.integers(min_value=0, max_value=20))
def test_pixel_encoding_invariants(deltas, enlarge, reorder, shift):
    encoder = PixelMatrixEncoder(PathfinderConfig(
        enlarge_pixels=enlarge, reorder_pixels=reorder, middle_shift=shift))
    rates = encoder.encode(deltas)
    assert rates.shape == (127 * 3,)
    assert rates.min() >= 0.0 and rates.max() <= 1.0
    # Each row lights at least one and at most 2*radius+1 pixels.
    max_pixels = 5 if enlarge else 1
    for row in range(3):
        lit = int(rates[row * 127:(row + 1) * 127].sum())
        assert 1 <= lit <= max_pixels


@settings(max_examples=50, deadline=None)
@given(deltas=st.lists(st.integers(min_value=-63, max_value=63),
                       min_size=3, max_size=3))
def test_pixel_encoding_deterministic(deltas):
    encoder = PixelMatrixEncoder(PathfinderConfig())
    assert np.array_equal(encoder.encode(deltas), encoder.encode(deltas))


# -- inference table --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(observations=st.lists(st.integers(min_value=-63, max_value=63),
                             min_size=1, max_size=60),
       labels_per_neuron=st.integers(min_value=1, max_value=3),
       confirm=st.booleans())
def test_inference_table_invariants(observations, labels_per_neuron, confirm):
    table = InferenceTable(n_neurons=1, labels_per_neuron=labels_per_neuron,
                           require_confirmation=confirm)
    for delta in observations:
        table.observe(0, delta)
        labels = table.labels(0, min_confidence=0)
        # Slot count bounded, labels unique, confidences within range.
        assert len(labels) <= labels_per_neuron
        assert len(set(labels)) == len(labels)
        for _, confidence in table.slots(0):
            assert 1 <= confidence <= table.confidence_max


@settings(max_examples=40, deadline=None)
@given(delta=st.integers(min_value=-63, max_value=63),
       repeats=st.integers(min_value=3, max_value=20))
def test_inference_table_consistent_delta_survives(delta, repeats):
    table = InferenceTable(n_neurons=1)
    for _ in range(repeats):
        table.observe(0, delta)
    assert table.labels(0) == [delta]


# -- STDP / weights ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000),
       steps=st.integers(min_value=1, max_value=30))
def test_weights_always_within_clamps(seed, steps):
    rng = np.random.default_rng(seed)
    stdp = STDPConfig(nu_post=0.5, nu_pre=0.3, x_target=0.4, norm=None)
    conn = Connection(10, 5, stdp=stdp, rng=rng)
    for _ in range(steps):
        pre = rng.random(10) < 0.4
        post = rng.random(5) < 0.3
        conn.learn(pre, post)
        assert conn.w.min() >= stdp.w_min - 1e-12
        assert conn.w.max() <= stdp.w_max + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_normalization_preserves_norm(seed):
    stdp = STDPConfig(norm=12.5)
    conn = Connection(20, 6, stdp=stdp, rng=np.random.default_rng(seed))
    conn.normalize()
    assert np.allclose(conn.w.sum(axis=0), 12.5)


# -- Poisson encoding --------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       timesteps=st.integers(min_value=1, max_value=64))
def test_poisson_spikes_only_at_active_pixels(seed, timesteps):
    rng = np.random.default_rng(seed)
    rates = np.zeros(20)
    rates[::3] = 1.0
    spikes = poisson_spike_train(rates, timesteps, rng, max_probability=1.0)
    inactive = np.ones(20, dtype=bool)
    inactive[::3] = False
    assert not spikes[:, inactive].any()
    assert spikes[:, ~inactive].all()  # probability 1.0 always spikes


# -- k-means -----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=80),
       k=st.integers(min_value=1, max_value=6))
def test_kmeans_labels_are_nearest_centroid(values, k):
    arr = np.asarray(values)
    centroids, labels = kmeans_1d(arr, k, seed=0)
    assert len(labels) == len(arr)
    assert np.array_equal(labels, assign_1d(arr, centroids))
    assert np.array_equal(centroids, np.sort(centroids))
