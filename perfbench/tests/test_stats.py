import statistics

import numpy as np
import pytest

import stats


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0),
     (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_timing_summary_reports_count_and_drops_unsupported_tail():
    summary = stats.timing_summary([3.0, 1.0, 2.0])
    assert summary == {"p50": 2.0, "tail": 0.0, "tail_pct": 0.0, "n": 3}

    values = list(range(1, 251))
    summary = stats.timing_summary(float(v) for v in values)
    assert summary["n"] == 250
    assert summary["tail_pct"] == 95.0
    assert summary["tail"] == pytest.approx(np.percentile(values, 95))
    assert summary["p50"] == pytest.approx(np.median(values))


def test_percentile_matches_numpy_and_spread_matches_statistics():
    values = [0.3, 1.7, 0.9, 4.2, 2.5, 2.5, 3.1]
    for pct in (0, 10, 50, 75, 90, 100):
        assert stats.percentile(values, pct) == pytest.approx(np.percentile(values, pct))
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
