"""Tests for the Training Table and Inference Table."""

import pytest

from repro.core import InferenceTable, TrainingTable
from repro.errors import ConfigError


# -- Training Table -----------------------------------------------------------

def test_training_table_insert_and_lookup():
    table = TrainingTable(capacity=4, history=3)
    assert table.lookup(0x4, 10) == -1
    row = table.insert(0x4, 10, offset=5)
    assert table.lookup(0x4, 10) == row
    assert table.last_offset[row] == 5


def test_training_table_lru_eviction():
    table = TrainingTable(capacity=2, history=3)
    table.insert(0x4, 1, 0)
    table.insert(0x4, 2, 0)
    table.lookup(0x4, 1)        # refresh page 1
    table.insert(0x4, 3, 0)     # evicts page 2
    assert table.lookup(0x4, 2) == -1
    assert table.lookup(0x4, 1) >= 0
    assert table.evictions == 1
    assert [e.page for e in table.entries()] == [3, 1]   # LRU first


def test_training_table_distinct_pcs_do_not_alias():
    table = TrainingTable(capacity=8, history=3)
    a = table.insert(0xA, 1, 0)
    b = table.insert(0xB, 1, 0)
    assert a != b
    assert table.lookup(0xA, 1) == a


def test_record_delta_bounded_history():
    table = TrainingTable(capacity=2, history=3)
    row = table.insert(0x4, 1, 0)
    table.record_delta(row, 1, in_range=True)
    assert table.row_deltas(row) == [1]
    assert table.deltas[row].tolist() == [0, 0, 1]   # cold-page padding
    for delta in (2, 3, 4):
        table.record_delta(row, delta, in_range=True)
    assert table.row_deltas(row) == [2, 3, 4]


def test_record_delta_out_of_range_clears_stream():
    table = TrainingTable(capacity=2, history=3)
    row = table.insert(0x4, 1, 0)
    table.record_delta(row, 1, in_range=True)
    table.fired[row] = 7
    table.record_delta(row, 99, in_range=False)
    assert table.row_deltas(row) == []
    assert table.entries()[0].fired_neuron is None


def test_training_table_validation():
    with pytest.raises(ConfigError):
        TrainingTable(capacity=0)
    with pytest.raises(ConfigError):
        TrainingTable(capacity=4, history=0)


# -- Inference Table ----------------------------------------------------------

def test_label_assignment_on_first_observation_without_confirmation():
    table = InferenceTable(n_neurons=4, labels_per_neuron=2,
                           require_confirmation=False)
    table.observe(1, actual_delta=6)
    assert table.labels(1) == [6]
    assert table.labels_assigned == 1


def test_label_assignment_requires_recurrence_by_default():
    table = InferenceTable(n_neurons=4, labels_per_neuron=2)
    table.observe(1, actual_delta=6)
    assert table.labels(1) == []        # pending, not yet assigned
    table.observe(1, actual_delta=6)
    assert table.labels(1) == [6]       # confirmed on recurrence


def test_confirmation_rejects_unstable_deltas():
    table = InferenceTable(n_neurons=2, labels_per_neuron=2)
    for delta in (3, 9, 4, 11, 5, 8):   # never the same twice in a row
        table.observe(0, delta)
    assert table.labels(0) == []
    assert table.labels_assigned == 0


def test_confidence_increments_and_saturates():
    table = InferenceTable(n_neurons=2, require_confirmation=False, confidence_max=3)
    for _ in range(10):
        table.observe(0, 5)
    assert table.labels(0, min_confidence=3) == [5]


def test_wrong_prediction_decrements_and_erases():
    table = InferenceTable(n_neurons=2, require_confirmation=False, labels_per_neuron=1)
    table.observe(0, 5)             # label 5 @ conf 1
    table.observe(0, 9)             # mismatch: 5 erased, 9 assigned
    assert table.labels(0) == [9]
    assert table.labels_erased == 1


def test_two_label_slots_hold_two_patterns():
    table = InferenceTable(n_neurons=2, require_confirmation=False, labels_per_neuron=2,
                           confidence_init=2)
    table.observe(0, 6)
    table.observe(0, 12)
    assert sorted(table.labels(0)) == [6, 12]


def test_one_label_variant_thrashes_between_patterns():
    table = InferenceTable(n_neurons=2, require_confirmation=False, labels_per_neuron=1)
    table.observe(0, 6)
    table.observe(0, 12)
    assert len(table.labels(0)) == 1


def test_predict_orders_by_confidence():
    table = InferenceTable(n_neurons=2, require_confirmation=False, labels_per_neuron=2)
    table.observe(0, 6)
    table.observe(0, 12)
    for _ in range(3):
        table.observe(0, 12)
    assert table.predict(0)[0] == 12
    assert table.predict(0, max_labels=1) == [12]


def test_predict_respects_min_confidence():
    table = InferenceTable(n_neurons=2, require_confirmation=False)
    table.observe(0, 6)
    assert table.predict(0, min_confidence=2) == []
    table.observe(0, 6)
    assert table.predict(0, min_confidence=2) == [6]


def test_matching_also_decrements_others():
    table = InferenceTable(n_neurons=1, require_confirmation=False, labels_per_neuron=2,
                           confidence_init=1)
    table.observe(0, 6)
    table.observe(0, 12)   # 6 decremented to 0 and erased, 12 assigned
    assert table.labels(0) == [12]


def test_occupancy():
    table = InferenceTable(n_neurons=4, labels_per_neuron=2, require_confirmation=False)
    table.observe(0, 1)
    table.observe(1, 2)
    assert table.occupancy() == 2


def test_neuron_index_validation():
    table = InferenceTable(n_neurons=2)
    with pytest.raises(ConfigError):
        table.observe(5, 1)
    with pytest.raises(ConfigError):
        table.labels(-1)


def test_inference_table_validation():
    with pytest.raises(ConfigError):
        InferenceTable(n_neurons=0)
    with pytest.raises(ConfigError):
        InferenceTable(n_neurons=1, labels_per_neuron=0)
    with pytest.raises(ConfigError):
        InferenceTable(n_neurons=1, confidence_init=9, confidence_max=7)
