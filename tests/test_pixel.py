"""Tests for the Memory Access Pixel Matrix encoder."""

import numpy as np
import pytest

from repro.core import PathfinderConfig, PixelMatrixEncoder
from repro.errors import ConfigError


def make_encoder(**overrides):
    defaults = dict(enlarge_pixels=False, reorder_pixels=False,
                    middle_shift=0)
    defaults.update(overrides)
    return PixelMatrixEncoder(PathfinderConfig(**defaults))


def test_basic_encoding_one_pixel_per_row():
    enc = make_encoder()
    rates = enc.encode([1, 2, 3])
    assert rates.shape == (127 * 3,)
    assert rates.sum() == 3.0
    # Row r, column delta+63.
    assert rates[0 * 127 + 64] == 1.0
    assert rates[1 * 127 + 65] == 1.0
    assert rates[2 * 127 + 66] == 1.0


def test_negative_delta_columns():
    enc = make_encoder()
    rates = enc.encode([-5, -1, -63])
    assert rates[0 * 127 + 58] == 1.0
    assert rates[1 * 127 + 62] == 1.0
    assert rates[2 * 127 + 0] == 1.0


def test_wrong_history_length_rejected():
    enc = make_encoder()
    with pytest.raises(ConfigError):
        enc.encode([1, 2])


def test_out_of_range_delta_rejected():
    enc = make_encoder()
    with pytest.raises(ConfigError):
        enc.encode([64, 0, 0])
    assert enc.in_range(63) and not enc.in_range(64)


def test_enlarged_pixels_light_neighbours():
    enc = make_encoder(enlarge_pixels=True, enlarge_radius=2)
    rates = enc.encode([0, 0, 0])
    # Row 0, column 63 ± 2 all lit.
    for col in range(61, 66):
        assert rates[col] == 1.0
    assert rates.sum() == 15.0


def test_enlargement_clips_at_matrix_edge():
    enc = make_encoder(enlarge_pixels=True, enlarge_radius=2)
    rates = enc.encode([-63, 0, 0])
    row0 = rates[:127]
    assert row0[0] == 1.0 and row0[1] == 1.0 and row0[2] == 1.0
    assert row0.sum() == 3.0  # clipped left side


def test_middle_shift_moves_middle_row_only():
    plain = make_encoder(middle_shift=0).encode([1, 1, 1])
    shifted = make_encoder(middle_shift=7).encode([1, 1, 1])
    assert np.array_equal(plain[:127], shifted[:127])
    assert np.array_equal(plain[2 * 127:], shifted[2 * 127:])
    assert not np.array_equal(plain[127:254], shifted[127:254])
    assert shifted[127 + 64 + 7] == 1.0


def test_reorder_is_a_permutation():
    enc = make_encoder(reorder_pixels=True)
    seen = set()
    for delta in range(-63, 64):
        rates = enc.encode([delta, 0, 0])
        column = int(np.flatnonzero(rates[:127])[0])
        seen.add(column)
    assert len(seen) == 127


def test_reorder_separates_adjacent_deltas():
    enc = make_encoder(reorder_pixels=True, enlarge_pixels=True,
                       enlarge_radius=2)
    a = enc.encode([1, 0, 0])[:127]
    b = enc.encode([2, 0, 0])[:127]
    # Adjacent deltas must not share enlarged pixels after reordering.
    assert not np.logical_and(a > 0, b > 0).any()


def test_adjacent_deltas_alias_without_reorder():
    enc = make_encoder(reorder_pixels=False, enlarge_pixels=True,
                       enlarge_radius=2)
    a = enc.encode([1, 0, 0])[:127]
    b = enc.encode([2, 0, 0])[:127]
    assert np.logical_and(a > 0, b > 0).any()


def _rates(encoding):
    """An encoding's rates, after checking its support is exactly
    their nonzero pixels."""
    assert np.array_equal(encoding.active, np.flatnonzero(encoding.rates))
    return encoding.rates


def test_cold_page_encoding_first_touch():
    enc = make_encoder(cold_page_encoding=True)
    rates = _rates(enc.encode_history([], first_offset=16))
    # {OF1, 0, 0}: offset leads, zeroes trail.
    assert rates[0 * 127 + 63 + 16] == 1.0
    assert rates[1 * 127 + 63] == 1.0
    assert rates[2 * 127 + 63] == 1.0


def test_cold_page_encoding_one_delta_leading_zeroes():
    enc = make_encoder(cold_page_encoding=True)
    rates = _rates(enc.encode_history([5]))
    # {0, 0, D1}: zeroes lead so offset and delta patterns differ.
    assert rates[0 * 127 + 63] == 1.0
    assert rates[1 * 127 + 63] == 1.0
    assert rates[2 * 127 + 63 + 5] == 1.0


def test_cold_page_encoding_two_deltas():
    enc = make_encoder(cold_page_encoding=True)
    rates = _rates(enc.encode_history([3, 4]))
    assert rates[0 * 127 + 63] == 1.0
    assert rates[1 * 127 + 63 + 3] == 1.0
    assert rates[2 * 127 + 63 + 4] == 1.0


def test_cold_page_disabled_returns_none():
    enc = make_encoder(cold_page_encoding=False)
    assert enc.encode_history([5]) is None
    assert enc.encode_history([], first_offset=3) is None


def test_encode_history_full_history_uses_last_h():
    enc = make_encoder()
    full = enc.encode_history([9, 1, 2, 3])
    direct = enc.encode([1, 2, 3])
    assert np.array_equal(full.rates, direct)
    assert np.array_equal(full.active, np.flatnonzero(direct))


def test_encode_history_clips_large_offset_for_reduced_range():
    enc = PixelMatrixEncoder(PathfinderConfig(
        delta_range=31, enlarge_pixels=False, reorder_pixels=False,
        middle_shift=0))
    rates = _rates(enc.encode_history([], first_offset=60))  # > max_delta 15
    assert rates[15 + 15] == 1.0  # clipped to +15 at center 15


def test_offset_and_delta_patterns_distinguishable():
    enc = make_encoder(cold_page_encoding=True)
    offset_pattern = enc.encode_history([], first_offset=5)
    delta_pattern = enc.encode_history([5])
    assert not np.array_equal(offset_pattern.active, delta_pattern.active)
