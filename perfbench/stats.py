"""Order statistics used by the benchmark's reports.

A timing is reported as its median plus the highest percentile that still has
at least ten samples beyond it, together with the sample count, so a tail
figure is never read off a handful of points.
"""

import statistics

TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples above it."""
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return None


def timing_summary(values) -> dict:
    """Median, tail percentile (0 when too few samples) and sample count."""
    values = list(values)
    n = len(values)
    pct = tail_percentile(n)
    return {
        "p50": median(values) if n else 0.0,
        "tail": percentile(values, pct) if pct is not None else 0.0,
        "tail_pct": pct if pct is not None else 0.0,
        "n": n,
    }


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
