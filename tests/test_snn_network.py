"""Tests for STDP connections and the Diehl & Cook network."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.snn import (
    Connection,
    DiehlCookNetwork,
    NetworkConfig,
    SpikeMonitor,
    STDPConfig,
    VoltageMonitor,
)
from repro.snn.neurons import LIFConfig


# -- connections / STDP -------------------------------------------------------

def test_connection_validation():
    with pytest.raises(ConfigError):
        Connection(0, 5)
    with pytest.raises(ConfigError):
        Connection(5, 5, init_density=0.0)


def test_connection_currents():
    rng = np.random.default_rng(0)
    conn = Connection(4, 3, rng=rng)
    spikes = np.array([True, False, True, False])
    currents = conn.currents(spikes)
    assert np.allclose(currents, conn.w[0] + conn.w[2])
    assert np.allclose(conn.currents(np.zeros(4, dtype=bool)), 0.0)


def test_stdp_potentiation_on_post_spike():
    stdp = STDPConfig(nu_post=0.5, x_target=0.0, norm=None)
    conn = Connection(2, 1, stdp=stdp, rng=np.random.default_rng(0))
    pre = np.array([True, False])
    post = np.array([False])
    conn.learn(pre, post)          # builds the pre trace
    before = conn.w.copy()
    conn.learn(np.zeros(2, bool), np.array([True]))  # post fires
    assert conn.w[0, 0] > before[0, 0]       # active pre strengthened
    assert conn.w[1, 0] == before[1, 0]      # quiet pre unchanged (x_target=0)


def test_stdp_target_trace_depresses_quiet_inputs():
    stdp = STDPConfig(nu_post=0.5, x_target=0.4, norm=None)
    conn = Connection(2, 1, stdp=stdp, rng=np.random.default_rng(0))
    conn.learn(np.array([True, False]), np.array([False]))
    before = conn.w.copy()
    conn.learn(np.zeros(2, bool), np.array([True]))
    assert conn.w[1, 0] < before[1, 0]


def test_stdp_depression_on_late_pre():
    stdp = STDPConfig(nu_pre=0.5, norm=None)
    conn = Connection(1, 1, stdp=stdp, rng=np.random.default_rng(0))
    conn.learn(np.array([False]), np.array([True]))   # post spikes first
    before = conn.w.copy()
    conn.learn(np.array([True]), np.array([False]))   # pre arrives late
    assert conn.w[0, 0] < before[0, 0]


def test_weights_stay_clamped():
    stdp = STDPConfig(nu_post=10.0, nu_pre=10.0, w_max=1.0, norm=None)
    conn = Connection(2, 2, stdp=stdp, rng=np.random.default_rng(0))
    for _ in range(20):
        conn.learn(np.array([True, True]), np.array([True, True]))
    assert conn.w.max() <= 1.0
    assert conn.w.min() >= 0.0


def test_normalization_fixes_column_sums():
    stdp = STDPConfig(norm=10.0)
    conn = Connection(8, 3, stdp=stdp, rng=np.random.default_rng(0))
    conn.normalize()
    assert np.allclose(conn.w.sum(axis=0), 10.0)


def test_static_connection_learn_is_noop():
    conn = Connection(2, 2, stdp=None, rng=np.random.default_rng(0))
    before = conn.w.copy()
    conn.learn(np.array([True, True]), np.array([True, True]))
    assert np.array_equal(conn.w, before)


def test_stdp_config_validation():
    with pytest.raises(ConfigError):
        STDPConfig(tc_pre=0)
    with pytest.raises(ConfigError):
        STDPConfig(w_min=1.0, w_max=0.5)
    with pytest.raises(ConfigError):
        STDPConfig(norm=-1.0)


# -- network -----------------------------------------------------------------

def _small_network(seed=0, **overrides):
    cfg = NetworkConfig(n_input=30, n_neurons=8, timesteps=16,
                        init_density=0.5, seed=seed, **overrides)
    stdp = STDPConfig(nu_post=0.3, x_target=0.4, norm=10.0)
    lif = LIFConfig(theta_plus=2.0, theta_max=20.0)
    return DiehlCookNetwork(cfg, stdp=stdp, exc_lif=lif)


def _pattern(indices, n=30):
    rates = np.zeros(n)
    rates[list(indices)] = 1.0
    return rates


def test_network_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(n_input=0)
    with pytest.raises(ConfigError):
        NetworkConfig(n_input=4, timesteps=0)


def test_present_rejects_bad_shape():
    net = _small_network()
    with pytest.raises(ConfigError):
        net.present(np.zeros(7))


def test_repeated_pattern_stabilises_winner():
    net = _small_network()
    pattern = _pattern([1, 2, 3, 4, 5])
    winners = [net.present(pattern).winner for _ in range(8)]
    assert winners[-1] is not None
    assert len(set(winners[-4:])) == 1


def test_distinct_patterns_get_distinct_neurons():
    net = _small_network(seed=1)
    a = _pattern([0, 1, 2, 3, 4])
    b = _pattern([20, 21, 22, 23, 24])
    for _ in range(6):
        net.present(a)
        net.present(b)
    winner_a = net.present(a, learn=False).winner
    winner_b = net.present(b, learn=False).winner
    assert winner_a is not None and winner_b is not None
    assert winner_a != winner_b


def test_intensity_boost_on_silent_interval():
    cfg = NetworkConfig(n_input=30, n_neurons=8, timesteps=4,
                        max_probability=0.05, seed=0, max_boosts=2)
    net = DiehlCookNetwork(cfg)
    record = net.present(_pattern([0]))
    assert record.boosts_used >= 1 or record.spike_counts.any()


def test_learning_disabled_freezes_weights():
    net = _small_network()
    pattern = _pattern([1, 2, 3])
    net.present(pattern)
    before = net.weights.copy()
    net.present(pattern, learn=False)
    assert np.array_equal(net.weights, before)


def test_run_record_winners_ranked():
    net = _small_network()
    record = net.present(_pattern([1, 2, 3, 4, 5]))
    top2 = record.winners(2)
    assert len(top2) <= 2
    if len(top2) == 2:
        assert record.spike_counts[top2[0]] >= record.spike_counts[top2[1]]


def test_one_tick_mode_prediction_and_learning():
    net = _small_network()
    pattern = np.array([5, 6, 7, 8])
    first = net.present_one_tick(pattern)
    assert first.winner is not None
    before = net.weights[:, first.winner].copy()
    net.present_one_tick(pattern)
    after = net.weights[:, first.winner]
    assert not np.array_equal(before, after)  # learning happened


def test_one_tick_mode_is_deterministic():
    net_a = _small_network(seed=5)
    net_b = _small_network(seed=5)
    pattern = np.array([5, 6, 7])
    for _ in range(4):
        wa = net_a.present_one_tick(pattern).winner
        wb = net_b.present_one_tick(pattern).winner
        assert wa == wb


def test_one_tick_agrees_with_rank():
    """The one-tick winner is the argmax of expected drive over each
    neuron's threshold distance, with theta already adapted."""
    net = _small_network()
    for indices in ([1, 2, 3], [10, 11], [20, 21, 22, 23]):
        net.present_one_tick(np.array(indices))
    pattern = _pattern([3, 4, 5])
    exc = net.exc
    drive = (pattern * net.config.max_probability) @ net.weights
    scores = drive / (exc.config.threshold_gap + exc.theta)
    assert net.present_one_tick(np.flatnonzero(pattern), learn=False).winner \
        == int(np.argmax(scores))


def test_voltage_recording():
    net = _small_network()
    record = net.present(_pattern([1, 2, 3]), record_voltage=True)
    assert record.voltage_trace is not None
    assert record.voltage_trace.shape[1] == 8


# -- monitors ----------------------------------------------------------------

def test_spike_monitor_accumulates():
    net = _small_network()
    monitor = SpikeMonitor()
    for _ in range(3):
        monitor.record(net.present(_pattern([1, 2, 3])))
    assert monitor.intervals == 3
    assert monitor.total_spikes().shape == (8,)


def test_voltage_monitor_concatenates():
    net = _small_network()
    monitor = VoltageMonitor()
    for _ in range(2):
        monitor.record(net.present(_pattern([1, 2]), record_voltage=True))
    trace = monitor.trace()
    assert trace.shape[0] >= 32  # two 16-tick intervals
    assert monitor.trace().shape[1] == 8


def test_voltage_monitor_empty():
    monitor = VoltageMonitor()
    assert monitor.trace().shape == (0, 0)
