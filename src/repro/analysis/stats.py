"""Summary statistics: mean, spread, confidence intervals.

The paper reports "mean with 95% confidence interval" for its RTT tables
(Tables 2 and 5) and min/mean/max for the driver delays (Table 3).
"""

import functools
import math

# Two-sided 95% z quantile (fallback when scipy is unavailable or n is large).
_Z95 = 1.959963984540054


@functools.cache
def scipy_stats():
    """``scipy.stats``, imported on the first call; ``None`` without scipy.

    Importing ``scipy.stats`` costs about a second and most of a fresh
    process's memory, while cells, campaigns, reports and the CLI never
    need it: only the t quantile and the KS p-value do.  Loading it
    here, once, keeps ``import repro`` light.
    """
    try:
        from scipy import stats
    except ImportError:
        return None
    return stats


def _t_quantile(df):
    """Two-sided 95% Student-t quantile for ``df`` degrees of freedom."""
    stats = scipy_stats()
    if stats is not None:
        return float(stats.t.ppf(0.975, df))
    # Cornish-Fisher style approximation, adequate for df >= 2.
    z = _Z95
    g1 = (z ** 3 + z) / 4.0
    g2 = (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96.0
    return z + g1 / df + g2 / df ** 2


def mean_ci(values, confidence=0.95):
    """Mean and half-width of the (default 95%) confidence interval.

    Uses the Student-t quantile, matching how measurement papers report
    small-sample CIs.  Returns ``(mean, half_width)``; the half-width is
    0.0 for fewer than two samples.
    """
    values = list(values)
    if not values:
        raise ValueError("mean_ci requires at least one sample")
    if confidence != 0.95 and scipy_stats() is None:
        raise ValueError("non-default confidence levels require scipy")
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    if confidence != 0.95:
        quantile = float(scipy_stats().t.ppf(0.5 + confidence / 2.0, n - 1))
    else:
        quantile = _t_quantile(n - 1)
    return mean, quantile * sem


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100])."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q!r}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile requires at least one sample")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    # Interpolation can underflow outside its bracket for subnormal
    # inputs; clamp so percentile() always returns an attainable value.
    return min(max(value, ordered[low]), ordered[high])


class SummaryStats:
    """min / mean / max / median / stdev / CI for one sample set."""

    def __init__(self, values):
        self.values = sorted(values)
        if not self.values:
            raise ValueError("SummaryStats requires at least one sample")
        self.n = len(self.values)
        self.minimum = self.values[0]
        self.maximum = self.values[-1]
        self.mean, self.ci95 = mean_ci(self.values)
        self.median = percentile(self.values, 50)
        if self.n > 1:
            variance = sum((v - self.mean) ** 2 for v in self.values) / (self.n - 1)
            self.stdev = math.sqrt(variance)
        else:
            self.stdev = 0.0

    def scaled(self, factor):
        """SummaryStats over values multiplied by ``factor`` (unit change)."""
        return SummaryStats([v * factor for v in self.values])

    def __repr__(self):
        return (
            f"<SummaryStats n={self.n} mean={self.mean:.4g}"
            f"±{self.ci95:.4g} median={self.median:.4g} "
            f"range=[{self.minimum:.4g}, {self.maximum:.4g}]>"
        )
