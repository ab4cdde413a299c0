"""Golden-value tests for the statistics toolbox.

The Mann-Whitney cases pin against published critical-value tables
(and hand-computable small cases), not against another library —
scipy is deliberately not a dependency.  Bootstrap CIs are pinned for
determinism at the default seed, since reproducible reports are the
whole point of seeding them.
"""

import math

import pytest

from repro.errors import ConfigError
from repro.harness.stats import (
    DEFAULT_ALPHA,
    EXACT_MAX_COMBINED_N,
    MIN_SAMPLES_FOR_STATS,
    a12,
    bootstrap_ci,
    bootstrap_diff_ci,
    bootstrap_ratio_ci,
    cliffs_delta,
    holm_bonferroni,
    mann_whitney_u,
    min_p_value,
    rank_groups,
    significant_slowdowns,
)


# ---------------------------------------------------------------- MWU

@pytest.mark.parametrize("n, floor", [(3, 1 / 20), (4, 1 / 70),
                                      (5, 1 / 252)])
def test_min_p_value_is_one_over_the_arrangements(n, floor):
    assert min_p_value(n, n) == pytest.approx(floor, rel=1e-12)


def test_mwu_full_separation_3v3_matches_table():
    # U=0 at n=m=3: exact one-sided p = 1/C(6,3) = 1/20.
    a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
    res = mann_whitney_u(a, b, alternative="less")
    assert res.method == "exact"
    assert res.p_value == pytest.approx(0.05)
    assert mann_whitney_u(a, b).p_value == pytest.approx(0.10)  # two-sided


def test_mwu_full_separation_5v5_matches_table():
    # U=0 at n=m=5: one-sided p = 1/C(10,5) = 1/252 ≈ 0.00397; the
    # published critical value at alpha=0.05 is U<=2 (p(U<=2)=4/252).
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [6.0, 7.0, 8.0, 9.0, 10.0]
    res = mann_whitney_u(a, b, alternative="less")
    assert res.method == "exact"
    assert res.p_value == pytest.approx(1 / 252)
    assert res.u == 0.0


def test_mwu_hand_computed_interleaved_case():
    # a = {1,3}, b = {2,4}: U(a)=1 (only 3>2).  P(U<=1) over C(4,2)=6
    # arrangements: counts for U=0..4 are 1,1,2,1,1 → p = 2/6.
    res = mann_whitney_u([1.0, 3.0], [2.0, 4.0], alternative="less")
    assert res.method == "exact"
    assert res.u == 1.0
    assert res.p_value == pytest.approx(2 / 6)


def test_mwu_symmetry_and_alternatives():
    a, b = [1.0, 5.0, 3.0, 8.0], [2.0, 9.0, 7.0, 6.0]
    two = mann_whitney_u(a, b).p_value
    assert mann_whitney_u(b, a).p_value == pytest.approx(two)
    less = mann_whitney_u(a, b, alternative="less").p_value
    greater = mann_whitney_u(b, a, alternative="greater").p_value
    assert less == pytest.approx(greater)


def test_mwu_ties_route_to_normal_approximation():
    res = mann_whitney_u([1.0, 2.0, 2.0], [2.0, 3.0, 4.0])
    assert res.method == "normal"
    assert 0.0 < res.p_value <= 1.0


def test_mwu_large_samples_route_to_normal():
    a = [float(i) for i in range(20)]
    b = [float(i) + 0.5 for i in range(20)]
    res = mann_whitney_u(a, b)
    assert len(a) + len(b) > EXACT_MAX_COMBINED_N
    assert res.method == "normal"


def test_mwu_identical_constant_samples_are_not_significant():
    res = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert res.p_value == pytest.approx(1.0)


def test_mwu_normal_approx_tracks_exact_on_tie_free_data():
    # The tie-corrected normal approximation should land close to the
    # exact p on a moderate tie-free sample (sanity that the two code
    # paths describe the same test).
    a = [1.0, 4.0, 6.0, 7.0, 11.0, 13.0, 15.0]
    b = [2.0, 3.0, 5.0, 8.0, 9.0, 10.0, 12.0]
    exact = mann_whitney_u(a, b)
    assert exact.method == "exact"
    big_a = a + [100.0 + i for i in range(12)]
    big_b = b + [200.0 + i for i in range(12)]
    assert mann_whitney_u(big_a, big_b).method == "normal"
    # direct numeric sanity on the exact one
    assert 0.0 < exact.p_value <= 1.0


def test_mwu_rejects_bad_input():
    with pytest.raises(ConfigError):
        mann_whitney_u([], [1.0])
    with pytest.raises(ConfigError):
        mann_whitney_u([1.0], [2.0], alternative="sideways")
    with pytest.raises(ConfigError):
        mann_whitney_u([1.0, float("nan")], [2.0])


# ---------------------------------------------------------- bootstrap

def test_bootstrap_ci_is_deterministic_at_fixed_seed():
    samples = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95]
    first = bootstrap_ci(samples)
    second = bootstrap_ci(samples)
    assert first == second
    assert bootstrap_ci(samples, seed=99) != first


def test_bootstrap_ci_brackets_the_mean():
    samples = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8]
    lo, hi = bootstrap_ci(samples)
    mean = sum(samples) / len(samples)
    assert lo <= mean <= hi
    assert hi - lo < 2.0  # tight data, tight interval


def test_bootstrap_ci_of_constant_data_is_a_point():
    lo, hi = bootstrap_ci([3.0] * 8)
    assert lo == pytest.approx(3.0)
    assert hi == pytest.approx(3.0)


def test_bootstrap_ratio_ci_brackets_the_ratio():
    num = [2.0, 2.2, 1.9, 2.1]
    den = [1.0, 1.05, 0.95, 1.0]
    lo, hi = bootstrap_ratio_ci(num, den)
    ratio = (sum(num) / len(num)) / (sum(den) / len(den))
    assert lo <= ratio <= hi
    assert bootstrap_ratio_ci(num, den) == (lo, hi)  # deterministic


def test_bootstrap_diff_ci_sign_tracks_the_gap():
    slow = [2.0, 2.1, 1.9, 2.05]
    fast = [1.0, 1.1, 0.9, 1.05]
    lo, hi = bootstrap_diff_ci(slow, fast)
    assert lo > 0.0  # mean(slow) - mean(fast) clearly positive
    lo2, hi2 = bootstrap_diff_ci(fast, slow)
    assert hi2 < 0.0


# --------------------------------------------------------- effect size

def test_cliffs_delta_extremes_and_antisymmetry():
    low, high = [1.0, 2.0], [3.0, 4.0]
    assert cliffs_delta(high, low) == pytest.approx(1.0)
    assert cliffs_delta(low, high) == pytest.approx(-1.0)
    a, b = [1.0, 3.0, 5.0], [2.0, 4.0, 6.0]
    assert cliffs_delta(a, b) == pytest.approx(-cliffs_delta(b, a))
    assert -1.0 <= cliffs_delta(a, b) <= 1.0
    assert cliffs_delta([2.0, 2.0], [2.0, 2.0]) == pytest.approx(0.0)


def test_a12_relates_to_cliffs_delta():
    a, b = [1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0]
    assert a12(a, b) == pytest.approx((cliffs_delta(a, b) + 1.0) / 2.0)
    assert a12([5.0], [1.0]) == pytest.approx(1.0)


# ---------------------------------------------------------------- Holm

def test_holm_adjustment_matches_worked_example():
    # Classic example: raw [0.01, 0.04, 0.03] → sorted (0.01,0.03,0.04)
    # multipliers (3,2,1) → adjusted (0.03, 0.06, max(0.06,0.04)=0.06).
    adjusted = holm_bonferroni([0.01, 0.04, 0.03])
    assert [round(p, 10) for p, _ in adjusted] == [0.03, 0.06, 0.06]
    assert [rej for _, rej in adjusted] == [True, False, False]


def test_holm_is_monotone_and_capped_at_one():
    adjusted = holm_bonferroni([0.5, 0.9, 0.2, 0.8])
    values = [p for p, _ in adjusted]
    assert all(0.0 <= p <= 1.0 for p in values)
    ranked = sorted(range(4), key=lambda i: [0.5, 0.9, 0.2, 0.8][i])
    assert values[ranked[0]] <= values[ranked[1]] <= values[ranked[2]]


def test_holm_rejects_at_the_boundary():
    # p == alpha counts (the exact 3v3 one-sided test lands on exactly
    # 0.05; the gate must be able to fire there).
    [(p, reject)] = holm_bonferroni([0.05], alpha=0.05)
    assert p == pytest.approx(0.05)
    assert reject


def test_holm_empty_input():
    assert holm_bonferroni([]) == []


# ------------------------------------------------------------- ranking

def test_rank_groups_orders_and_letters():
    samples = {
        "fast": [1.40, 1.42, 1.41, 1.39, 1.43],
        "mid": [1.20, 1.21, 1.19, 1.22, 1.18],
        "mid2": [1.21, 1.20, 1.22, 1.19, 1.23],
        "slow": [1.05, 1.04, 1.06, 1.03, 1.05],
    }
    entries = rank_groups(samples, higher_is_better=True)
    assert [e.name for e in entries] == ["fast", "mid2", "mid", "slow"]
    assert [e.rank for e in entries] == [1, 2, 3, 4]
    # fast is distinguishable from everything; the two mids share a
    # letter; slow is alone again.
    assert entries[0].group != entries[1].group
    assert entries[1].group == entries[2].group
    assert entries[3].group not in (entries[0].group, entries[1].group)
    for e in entries:
        assert e.ci_low <= e.mean <= e.ci_high
        assert e.n == 5


def test_rank_groups_lower_is_better_flips_order():
    samples = {"a": [2.0, 2.1, 1.9], "b": [1.0, 1.1, 0.9]}
    entries = rank_groups(samples, higher_is_better=False)
    assert entries[0].name == "b"


# ------------------------------------------------- regression verdicts

def test_significant_slowdowns_passes_identical_distributions():
    baseline = [1.00, 1.02, 0.98, 1.01, 0.99]
    verdicts = significant_slowdowns([("cell", baseline, list(baseline))])
    assert len(verdicts) == 1
    assert not verdicts[0].significant


def test_significant_slowdowns_flags_a_clear_slowdown():
    baseline = [1.00, 1.02, 0.98, 1.01, 0.99]
    slow = [2.00, 2.04, 1.96, 2.02, 1.98]
    speedup = [0.50, 0.51, 0.49, 0.50, 0.52]
    verdicts = significant_slowdowns([
        ("slower", baseline, slow),
        ("faster", baseline, speedup),
    ])
    by_label = {v.label: v for v in verdicts}
    assert by_label["slower"].significant
    assert by_label["slower"].ratio == pytest.approx(2.0, rel=0.05)
    assert by_label["slower"].p_adjusted <= DEFAULT_ALPHA
    assert not by_label["faster"].significant
    message = by_label["slower"].message()
    assert "slower" in message and "p=" in message


def test_significant_slowdowns_min_ratio_floor_ignores_small_drift():
    # A consistent +10% ambient shift separates the samples perfectly
    # (significant by MWU alone) but stays under the magnitude floor.
    baseline = [1.00, 1.02, 0.98, 1.01, 0.99]
    drifted = [x * 1.10 for x in baseline]
    floored = significant_slowdowns(
        [("drift", baseline, drifted)], min_ratio=1.25)
    assert len(floored) == 1
    assert floored[0].p_adjusted <= DEFAULT_ALPHA  # stats say "slower"...
    assert not floored[0].significant              # ...floor says "not enough"

    unfloored = significant_slowdowns([("drift", baseline, drifted)])
    assert unfloored[0].significant  # default min_ratio=1.0 keeps old behavior

    doubled = [x * 2.0 for x in baseline]
    big = significant_slowdowns([("2x", baseline, doubled)], min_ratio=1.25)
    assert big[0].significant  # genuine regressions still clear the floor


def test_significant_slowdowns_needs_min_samples():
    with pytest.raises(ConfigError):
        significant_slowdowns([
            ("tiny", [1.0] * (MIN_SAMPLES_FOR_STATS - 1),
             [2.0] * MIN_SAMPLES_FOR_STATS)])
