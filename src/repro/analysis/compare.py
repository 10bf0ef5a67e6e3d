"""Comparing measured RTT distributions.

The paper's Figures 8 and 9 argue visually ("the difference ... is very
small", "outperforms ... significantly"); these helpers put numbers on
such statements:

* :func:`ks_statistic` / :func:`ks_test` — the two-sample
  Kolmogorov-Smirnov distance (and p-value, via scipy when available),
* :func:`median_shift` — the horizontal gap at the median,
* :func:`dominates` — stochastic dominance check (one CDF entirely left
  of another).
"""

from repro.analysis.stats import percentile, scipy_stats


def ks_statistic(sample_a, sample_b):
    """Two-sample KS distance: sup |F_a(x) - F_b(x)|, in [0, 1]."""
    a = sorted(sample_a)
    b = sorted(sample_b)
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    i = j = 0
    distance = 0.0
    while i < n_a and j < n_b:
        # Consume every element equal to the current value from both
        # sides before comparing the CDFs (tie handling).
        value = min(a[i], b[j])
        while i < n_a and a[i] == value:
            i += 1
        while j < n_b and b[j] == value:
            j += 1
        distance = max(distance, abs(i / n_a - j / n_b))
    return distance


def ks_test(sample_a, sample_b):
    """(statistic, p_value).  p_value needs scipy; ``None`` without it."""
    statistic = ks_statistic(sample_a, sample_b)
    stats = scipy_stats()
    if stats is None:
        return statistic, None
    result = stats.ks_2samp(sample_a, sample_b)
    return float(result.statistic), float(result.pvalue)


def median_shift(sample_a, sample_b):
    """median(a) - median(b): positive when a is slower."""
    return percentile(sample_a, 50) - percentile(sample_b, 50)


def dominates(fast, slow, margin=0.0):
    """True when ``fast``'s CDF sits entirely left of ``slow``'s.

    Checked at every decile; ``margin`` requires a minimum gap.  This is
    the strong version of "tool A outperforms tool B" — AcuteMon vs the
    1-second tools in Figure 8 passes it.
    """
    from repro.analysis.cdf import Cdf

    cdf_fast = Cdf(fast)
    cdf_slow = Cdf(slow)
    for decile in range(1, 10):
        p = decile / 10
        if cdf_fast.quantile(p) + margin > cdf_slow.quantile(p):
            return False
    return True
