"""Wilcoxon signed-rank tests (paper §V-C-1).

The paper reports the significance of RT-GCN's wins with two variants:

- the *paired* test on 15 pairs of (RT-GCN, strongest-baseline) results
  (Table IV), and
- the *one-sample* test of 15 RT-GCN results against a fixed published
  number (Table V).

Both reduce to the signed-rank statistic of a difference sample.  For small
``n`` (≤ 25) the exact null distribution of ``W⁺`` is enumerated by dynamic
programming; larger samples use the normal approximation with tie and
continuity corrections.  The implementation is validated against
``scipy.stats.wilcoxon`` in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_EXACT_LIMIT = 25


@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of a signed-rank test."""

    statistic: float       # W+ = sum of ranks of positive differences
    p_value: float
    n_used: int            # sample size after dropping zero differences
    alternative: str

    def significant(self, level: float = 0.05) -> bool:
        """The paper's rule-of-thumb significance check."""
        return self.p_value < level


def _signed_ranks(differences: np.ndarray) -> tuple:
    """Drop zeros, rank |d| with mid-ranks for ties; return (ranks, signs)."""
    nonzero = differences[differences != 0.0]
    if nonzero.size == 0:
        raise ValueError("all differences are zero; the test is undefined")
    magnitudes = np.abs(nonzero)
    order = np.argsort(magnitudes, kind="stable")
    ranks = np.empty_like(magnitudes)
    sorted_mag = magnitudes[order]
    # Mid-rank assignment for tied magnitudes.
    position = 0
    while position < sorted_mag.size:
        tie_end = position
        while (tie_end + 1 < sorted_mag.size
               and sorted_mag[tie_end + 1] == sorted_mag[position]):
            tie_end += 1
        mid = (position + tie_end) / 2.0 + 1.0
        ranks[order[position:tie_end + 1]] = mid
        position = tie_end + 1
    return ranks, np.sign(nonzero)


def _exact_distribution(n: int) -> np.ndarray:
    """Null pmf of W+ for sample size ``n`` (no ties), by convolution."""
    max_sum = n * (n + 1) // 2
    counts = np.zeros(max_sum + 1)
    counts[0] = 1.0
    for rank in range(1, n + 1):
        shifted = np.zeros_like(counts)
        shifted[rank:] = counts[:max_sum + 1 - rank]
        counts = counts + shifted
    return counts / counts.sum()


def _exact_p(w_plus: float, n: int, alternative: str) -> float:
    pmf = _exact_distribution(n)
    values = np.arange(pmf.size)
    if alternative == "greater":
        return float(pmf[values >= w_plus].sum())
    if alternative == "less":
        return float(pmf[values <= w_plus].sum())
    # two-sided: double the smaller tail, capped at 1
    tail = min(pmf[values >= w_plus].sum(), pmf[values <= w_plus].sum())
    return float(min(1.0, 2.0 * tail))


def _normal_p(w_plus: float, ranks: np.ndarray, alternative: str) -> float:
    from scipy.stats import norm

    from ..tensor.blas import pin_blas_threads

    pin_blas_threads()          # scipy.stats maps scipy's own OpenBLAS
    n = ranks.size
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction (mid-ranks reduce the variance).
    _, counts = np.unique(ranks, return_counts=True)
    variance -= (counts ** 3 - counts).sum() / 48.0
    sd = float(np.sqrt(variance))
    if sd == 0:
        raise ValueError("zero variance in signed ranks (all ties)")
    if alternative == "greater":
        z = (w_plus - mean - 0.5) / sd
        return float(norm.sf(z))
    if alternative == "less":
        z = (w_plus - mean + 0.5) / sd
        return float(norm.cdf(z))
    z = (w_plus - mean - np.sign(w_plus - mean) * 0.5) / sd
    return float(2.0 * norm.sf(abs(z)))


def wilcoxon_signed_rank(differences: Sequence[float],
                         alternative: str = "two-sided") -> WilcoxonResult:
    """Signed-rank test on a sample of differences.

    ``alternative="greater"`` tests whether the differences are shifted
    above zero (the paper's directional claim "our model outperforms the
    baseline").
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    diffs = np.asarray(list(differences), dtype=np.float64)
    if diffs.ndim != 1 or diffs.size < 2:
        raise ValueError("need a 1-D sample of at least 2 differences")
    ranks, signs = _signed_ranks(diffs)
    w_plus = float(ranks[signs > 0].sum())
    n = ranks.size
    has_ties = np.unique(ranks).size != n
    if n <= _EXACT_LIMIT and not has_ties:
        p = _exact_p(w_plus, n, alternative)
    else:
        p = _normal_p(w_plus, ranks, alternative)
    return WilcoxonResult(statistic=w_plus, p_value=p, n_used=n,
                          alternative=alternative)


def paired_wilcoxon(sample_a: Sequence[float], sample_b: Sequence[float],
                    alternative: str = "greater") -> WilcoxonResult:
    """Paired test of ``a_i − b_i`` (Table IV: RT-GCN run i vs baseline run i)."""
    a = np.asarray(list(sample_a), dtype=np.float64)
    b = np.asarray(list(sample_b), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"paired samples must match: {a.shape} vs {b.shape}")
    return wilcoxon_signed_rank(a - b, alternative=alternative)


def one_sample_wilcoxon(sample: Sequence[float], reference: float,
                        alternative: str = "greater") -> WilcoxonResult:
    """Test a sample against a fixed reference (Table V: published value)."""
    values = np.asarray(list(sample), dtype=np.float64)
    return wilcoxon_signed_rank(values - reference, alternative=alternative)
