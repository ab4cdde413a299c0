"""Statistical machinery for the compare/report layer.

PATHFINDER's headline claim is comparative — a ranking of prefetchers —
and as grids, seeds, and workloads scale, raw per-cell deltas stop
being evidence: synthetic traces are seeded draws, wall-clock timings
are noisy, and a fixed ±25% threshold cannot tell signal from noise.
This module supplies the machinery every observability surface uses to
make claims defensible (the approach FuzzBench applies to fuzzer
rankings, adapted to seeds-per-cell samples):

- :func:`mann_whitney_u` — the non-parametric two-sample test, exact
  for small tie-free samples (the regime multi-seed grids live in) and
  tie-corrected normal approximation otherwise;
- :func:`bootstrap_ci` / :func:`bootstrap_ratio_ci` — seeded
  percentile-bootstrap confidence intervals for means and ratios
  (deterministic at a fixed seed, so reports are reproducible);
- :func:`cliffs_delta` / :func:`a12` — ordinal effect sizes, because a
  tiny-but-significant difference should not gate CI;
- :func:`holm_bonferroni` — family-wise error control when one compare
  run performs dozens of per-cell tests;
- :func:`rank_groups` — critical-difference-style grouping: rank
  contenders and letter-group the ones whose samples are statistically
  indistinguishable (rendered by the HTML dashboard);
- :func:`significant_slowdowns` — the noise-aware regression gate:
  flag only slowdowns that survive a Holm-corrected Mann-Whitney test,
  replacing the blind threshold whenever per-repeat/per-seed samples
  are available.

Everything here is pure stdlib + NumPy; no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError

import numpy as np

#: Family-wise significance level for every gate in the repo.
DEFAULT_ALPHA = 0.05
#: Bootstrap resamples: enough for stable 95% percentile endpoints.
DEFAULT_RESAMPLES = 2_000
#: Seed for bootstrap RNG — fixed so two renders of the same report
#: produce bit-identical intervals.
DEFAULT_BOOTSTRAP_SEED = 1_234
#: Minimum per-side sample count before the significance gate engages;
#: below this the caller should fall back to the threshold gate.
MIN_SAMPLES_FOR_STATS = 3
#: Largest combined sample size for the exact Mann-Whitney null
#: distribution; beyond it the normal approximation is already tight.
EXACT_MAX_COMBINED_N = 30


def _as_array(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigError(f"{name}: need at least one sample")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name}: samples must be finite")
    return arr


def _normal_sf(z: float) -> float:
    """P(Z >= z) for a standard normal (stdlib erfc, no SciPy)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@lru_cache(maxsize=None)
def _exact_u_counts(n1: int, n2: int) -> Tuple[int, ...]:
    """``counts[u]`` = number of rank arrangements with U statistic
    ``u`` for tie-free samples of sizes ``n1``/``n2``.

    Classic Mann-Whitney recurrence
    ``c(u; m, n) = c(u - n; m - 1, n) + c(u; m, n - 1)``, built
    bottom-up: each step either spends one of the ``m`` first-group
    items (contributing ``n`` to U) or one of the ``n`` second-group
    items.  ``sum(counts) == C(n1 + n2, n1)``.
    """
    max_u = n1 * n2
    # table[n][u] = c(u; m, n) for the current m, starting at m = 0
    # where U is necessarily 0 whatever n is.
    table = [[0] * (max_u + 1) for _ in range(n2 + 1)]
    for n in range(n2 + 1):
        table[n][0] = 1
    for m in range(1, n1 + 1):
        new = [[0] * (max_u + 1) for _ in range(n2 + 1)]
        new[0][0] = 1
        for n in range(1, n2 + 1):
            for u in range(max_u + 1):
                total = new[n - 1][u]  # spend a second-group item
                if u >= n:
                    total += table[n][u - n]  # spend a first-group item
                new[n][u] = total
        table = new
    return tuple(table[n2])


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of a two-sample Mann-Whitney U test."""

    #: U statistic of the first sample (large = first sample larger).
    u: float
    p_value: float
    #: "exact" (tie-free small-n null distribution) or "normal"
    #: (tie-corrected approximation with continuity correction).
    method: str
    n_a: int
    n_b: int


def mann_whitney_u(a: Sequence[float], b: Sequence[float],
                   alternative: str = "two-sided") -> MannWhitneyResult:
    """Mann-Whitney U test between two independent samples.

    Args:
        a, b: The two sample vectors (any nonzero lengths).
        alternative: ``"two-sided"`` (default), ``"greater"`` (is *a*
            stochastically greater than *b*?) or ``"less"``.

    The exact null distribution is used when the combined sample is
    tie-free and no larger than :data:`EXACT_MAX_COMBINED_N` — the
    regime seed grids (3–10 seeds per cell) live in, where the normal
    approximation is least trustworthy.  Ties or larger samples use
    the tie-corrected normal approximation with continuity correction.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ConfigError(f"unknown alternative {alternative!r}")
    xs = _as_array(a, "a")
    ys = _as_array(b, "b")
    n1, n2 = xs.size, ys.size
    combined = np.concatenate([xs, ys])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size, dtype=float)
    # Average ranks for ties.
    sorted_vals = combined[order]
    ranks[order] = np.arange(1, combined.size + 1, dtype=float)
    _, inverse, counts = np.unique(sorted_vals, return_inverse=True,
                                   return_counts=True)
    if np.any(counts > 1):
        # Replace each tie run's ranks by the run's average rank.
        cum = np.cumsum(counts)
        avg = (cum - (counts - 1) / 2.0)  # average rank per value
        ranks[order] = avg[inverse]
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0

    has_ties = bool(np.any(counts > 1))
    if not has_ties and (n1 + n2) <= EXACT_MAX_COMBINED_N:
        counts_u = _exact_u_counts(n1, n2)
        total = float(sum(counts_u))
        u_int = int(round(u1))
        p_le = sum(counts_u[: u_int + 1]) / total
        p_ge = sum(counts_u[u_int:]) / total
        if alternative == "greater":
            p = p_ge
        elif alternative == "less":
            p = p_le
        else:
            p = min(1.0, 2.0 * min(p_le, p_ge))
        return MannWhitneyResult(u=u1, p_value=p, method="exact",
                                 n_a=n1, n_b=n2)

    # Normal approximation with tie correction.
    n = n1 + n2
    mean_u = n1 * n2 / 2.0
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    var_u = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0.0:
        # Every observation identical: no evidence either way.
        return MannWhitneyResult(u=u1, p_value=1.0, method="normal",
                                 n_a=n1, n_b=n2)
    sd = math.sqrt(var_u)

    def _sf(u_stat: float) -> float:
        # Continuity-corrected upper tail P(U >= u_stat).
        return _normal_sf((u_stat - mean_u - 0.5) / sd)

    def _cdf(u_stat: float) -> float:
        return 1.0 - _normal_sf((u_stat - mean_u + 0.5) / sd)

    if alternative == "greater":
        p = _sf(u1)
    elif alternative == "less":
        p = _cdf(u1)
    else:
        p = min(1.0, 2.0 * min(_sf(u1), _cdf(u1)))
    return MannWhitneyResult(u=u1, p_value=max(0.0, min(1.0, p)),
                             method="normal", n_a=n1, n_b=n2)


def min_p_value(n_a: int, n_b: int) -> float:
    """The smallest one-sided p-value :func:`mann_whitney_u` returns for
    tie-free samples of sizes ``n_a`` and ``n_b``: that of perfectly
    separated samples (``1 / C(n_a + n_b, n_a)`` in the exact regime,
    e.g. 1/20 for 3 vs 3)."""
    return mann_whitney_u(range(n_a, n_a + n_b), range(n_a),
                          alternative="greater").p_value


def bootstrap_ci(samples: Sequence[float],
                 confidence: float = 0.95,
                 resamples: int = DEFAULT_RESAMPLES,
                 seed: int = DEFAULT_BOOTSTRAP_SEED) -> Tuple[float, float]:
    """Seeded percentile-bootstrap CI for the mean of one sample.

    Deterministic at a fixed ``seed`` (reports must be reproducible).
    A single-observation sample degenerates to ``(x, x)``.
    """
    xs = _as_array(samples, "samples")
    if not 0.0 < confidence < 1.0:
        raise ConfigError("confidence must be in (0, 1)")
    if xs.size == 1:
        return float(xs[0]), float(xs[0])
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, xs.size, size=(resamples, xs.size))
    means = xs[idx].mean(axis=1)
    lo = (1.0 - confidence) / 2.0
    return (float(np.quantile(means, lo)),
            float(np.quantile(means, 1.0 - lo)))


def bootstrap_ratio_ci(numerator: Sequence[float],
                       denominator: Sequence[float],
                       confidence: float = 0.95,
                       resamples: int = DEFAULT_RESAMPLES,
                       seed: int = DEFAULT_BOOTSTRAP_SEED
                       ) -> Tuple[float, float]:
    """Seeded bootstrap CI for ``mean(numerator) / mean(denominator)``.

    The two samples are resampled independently (they come from
    independent runs).  Resamples whose denominator mean is zero are
    discarded; if every one is, the interval is ``(0, inf)``.
    """
    num = _as_array(numerator, "numerator")
    den = _as_array(denominator, "denominator")
    rng = np.random.default_rng(seed)
    num_means = num[rng.integers(0, num.size,
                                 size=(resamples, num.size))].mean(axis=1)
    den_means = den[rng.integers(0, den.size,
                                 size=(resamples, den.size))].mean(axis=1)
    valid = den_means != 0.0
    if not valid.any():
        return 0.0, math.inf
    ratios = num_means[valid] / den_means[valid]
    lo = (1.0 - confidence) / 2.0
    return (float(np.quantile(ratios, lo)),
            float(np.quantile(ratios, 1.0 - lo)))


def bootstrap_diff_ci(a: Sequence[float], b: Sequence[float],
                      confidence: float = 0.95,
                      resamples: int = DEFAULT_RESAMPLES,
                      seed: int = DEFAULT_BOOTSTRAP_SEED
                      ) -> Tuple[float, float]:
    """Seeded bootstrap CI for ``mean(a) - mean(b)`` (independent
    resampling; an interval excluding 0 corroborates a real shift)."""
    xs = _as_array(a, "a")
    ys = _as_array(b, "b")
    rng = np.random.default_rng(seed)
    x_means = xs[rng.integers(0, xs.size,
                              size=(resamples, xs.size))].mean(axis=1)
    y_means = ys[rng.integers(0, ys.size,
                              size=(resamples, ys.size))].mean(axis=1)
    diffs = x_means - y_means
    lo = (1.0 - confidence) / 2.0
    return (float(np.quantile(diffs, lo)),
            float(np.quantile(diffs, 1.0 - lo)))


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta: ``P(a > b) - P(a < b)`` over all pairs.

    Ranges over [-1, 1]; 0 = stochastically indistinguishable, +1 =
    every *a* exceeds every *b*.  Antisymmetric:
    ``cliffs_delta(a, b) == -cliffs_delta(b, a)``.
    """
    xs = _as_array(a, "a")
    ys = _as_array(b, "b")
    diff = xs[:, None] - ys[None, :]
    return float((np.sign(diff)).mean())


def a12(a: Sequence[float], b: Sequence[float]) -> float:
    """Vargha-Delaney A12: ``P(a > b) + P(a == b)/2`` (in [0, 1])."""
    return (cliffs_delta(a, b) + 1.0) / 2.0


def holm_bonferroni(p_values: Sequence[float],
                    alpha: float = DEFAULT_ALPHA
                    ) -> List[Tuple[float, bool]]:
    """Holm-Bonferroni step-down correction.

    Returns ``[(adjusted_p, reject), ...]`` in the *input* order,
    rejecting at ``adjusted_p <= alpha`` (the boundary counts: a
    perfectly separated 3-vs-3 exact test yields exactly 0.05).
    Adjusted p-values are monotone (a smaller raw p never ends up with
    a larger adjusted p than a bigger raw p) and capped at 1.
    """
    ps = list(map(float, p_values))
    if any(not 0.0 <= p <= 1.0 for p in ps):
        raise ConfigError("p-values must lie in [0, 1]")
    m = len(ps)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: ps[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, i in enumerate(order):
        running = max(running, (m - rank) * ps[i])
        adjusted[i] = min(1.0, running)
    return [(adjusted[i], adjusted[i] <= alpha) for i in range(m)]


@dataclass(frozen=True)
class RankEntry:
    """One contender's row in a critical-difference-style ranking."""

    name: str
    mean: float
    ci_low: float
    ci_high: float
    #: 1-based rank by mean (1 = best under the chosen direction).
    rank: int
    #: Significance-group letters ("a", "ab", ...): contenders sharing
    #: a letter are statistically indistinguishable at ``alpha``.
    group: str
    n: int


def rank_groups(samples_by_name: Dict[str, Sequence[float]],
                alpha: float = DEFAULT_ALPHA,
                higher_is_better: bool = True,
                confidence: float = 0.95,
                seed: int = DEFAULT_BOOTSTRAP_SEED) -> List[RankEntry]:
    """Rank contenders and letter-group statistical ties.

    The critical-difference-diagram recipe adapted to per-cell samples:
    sort by sample mean, Holm-correct all pairwise Mann-Whitney tests,
    then assign group letters to maximal runs of adjacent contenders
    whose extremes are not significantly different — two entries
    sharing any letter cannot be distinguished at ``alpha``.

    Entries with a single sample still rank (mean + degenerate CI) but
    are grouped only by the pairwise tests that remain meaningful.
    """
    if not samples_by_name:
        return []
    names = sorted(samples_by_name,
                   key=lambda n: float(np.mean(
                       _as_array(samples_by_name[n], n))),
                   reverse=higher_is_better)
    arrays = {name: _as_array(samples_by_name[name], name)
              for name in names}
    # All pairwise tests, Holm-corrected as one family.
    pairs = [(i, j) for i in range(len(names))
             for j in range(i + 1, len(names))]
    raw = [mann_whitney_u(arrays[names[i]], arrays[names[j]]).p_value
           for i, j in pairs]
    corrected = holm_bonferroni(raw, alpha=alpha)
    distinct = {pair: reject for pair, (_, reject) in zip(pairs, corrected)}

    # Maximal not-significantly-different runs over the sorted order.
    intervals: List[Tuple[int, int]] = []
    for i in range(len(names)):
        j = i
        while j + 1 < len(names) and not distinct[(i, j + 1)]:
            j += 1
        intervals.append((i, j))
    # Drop intervals contained in an earlier (wider) one.
    kept: List[Tuple[int, int]] = []
    for lo, hi in intervals:
        if not any(k_lo <= lo and hi <= k_hi for k_lo, k_hi in kept):
            kept.append((lo, hi))
    letters = "abcdefghijklmnopqrstuvwxyz"
    groups = ["" for _ in names]
    for index, (lo, hi) in enumerate(kept):
        letter = letters[index % len(letters)] * (index // len(letters) + 1)
        for pos in range(lo, hi + 1):
            groups[pos] += letter

    entries = []
    for pos, name in enumerate(names):
        xs = arrays[name]
        ci_lo, ci_hi = bootstrap_ci(xs, confidence=confidence, seed=seed)
        entries.append(RankEntry(name=name, mean=float(xs.mean()),
                                 ci_low=ci_lo, ci_high=ci_hi,
                                 rank=pos + 1, group=groups[pos],
                                 n=int(xs.size)))
    return entries


@dataclass(frozen=True)
class SlowdownVerdict:
    """One timing's verdict under the significance gate."""

    label: str
    mean_a: float
    mean_b: float
    p_value: float
    p_adjusted: float
    ci_low: float
    ci_high: float
    effect: float  # Cliff's delta of b over a (positive = b slower)
    significant: bool
    n_a: int
    n_b: int

    @property
    def ratio(self) -> float:
        return self.mean_b / self.mean_a if self.mean_a else 0.0

    def message(self) -> str:
        return (f"{self.label}: mean {self.mean_b:.4f}s vs baseline "
                f"{self.mean_a:.4f}s ({(self.ratio - 1.0) * 100:+.0f}%, "
                f"p={self.p_value:.4f}, holm p={self.p_adjusted:.4f}, "
                f"delta={self.effect:+.2f}, n={self.n_a}/{self.n_b})")


def significant_slowdowns(pairs: Sequence[Tuple[str, Sequence[float],
                                                Sequence[float]]],
                          alpha: float = DEFAULT_ALPHA,
                          seed: int = DEFAULT_BOOTSTRAP_SEED,
                          min_ratio: float = 1.0
                          ) -> List[SlowdownVerdict]:
    """The noise-aware regression gate over a family of timings.

    Args:
        pairs: ``(label, baseline_samples, candidate_samples)`` per
            timing under test.  All tests are Holm-corrected as one
            family, so a 50-cell compare does not manufacture
            significance by volume.
        alpha: Family-wise significance level.
        min_ratio: Magnitude floor: besides statistical significance,
            the candidate/baseline mean ratio must exceed this for a
            verdict to gate.  The default (1.0) gates on significance
            alone; callers comparing *separate benchmark invocations*
            should pass a real floor (the compare layer passes
            ``1 + max_regress``), because run-to-run ambient drift —
            thermal throttling, co-tenant load — is often perfectly
            consistent across repeats and therefore statistically
            significant without being a code regression.

    A timing is a *significant slowdown* when its Holm-corrected
    one-sided Mann-Whitney p-value (candidate stochastically greater,
    i.e. slower) clears ``alpha`` AND its mean ratio clears
    ``min_ratio``.  Returns one verdict per input pair with means, CI
    of the candidate/baseline mean ratio, and Cliff's delta so reports
    can show magnitude alongside significance.
    """
    tests = []
    for label, a_samples, b_samples in pairs:
        xs = _as_array(a_samples, f"{label} baseline")
        ys = _as_array(b_samples, f"{label} candidate")
        if min(xs.size, ys.size) < MIN_SAMPLES_FOR_STATS:
            raise ConfigError(
                f"{label}: significance gate needs >= "
                f"{MIN_SAMPLES_FOR_STATS} samples per side "
                f"(got {xs.size}/{ys.size}); use the threshold gate")
        result = mann_whitney_u(ys, xs, alternative="greater")
        tests.append((label, xs, ys, result))
    corrected = holm_bonferroni([t[3].p_value for t in tests], alpha=alpha)
    verdicts = []
    for (label, xs, ys, result), (adj, reject) in zip(tests, corrected):
        ci_lo, ci_hi = bootstrap_ratio_ci(ys, xs, seed=seed)
        mean_a, mean_b = float(xs.mean()), float(ys.mean())
        big_enough = mean_a > 0 and mean_b > mean_a * min_ratio
        verdicts.append(SlowdownVerdict(
            label=label, mean_a=mean_a, mean_b=mean_b,
            p_value=result.p_value, p_adjusted=adj,
            ci_low=ci_lo, ci_high=ci_hi,
            effect=cliffs_delta(ys, xs),
            significant=reject and big_enough,
            n_a=int(xs.size), n_b=int(ys.size)))
    return verdicts
