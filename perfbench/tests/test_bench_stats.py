import pytest

import stats


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 301)]  # 300 samples
    pct, value, beyond = stats.tail(values)
    # p99 leaves 3 beyond, p95 leaves 15: p95 is the highest with ten
    assert (pct, value, beyond) == (95.0, 285.0, 15)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail([float(i) for i in range(19)]) is None
    pct, value, beyond = stats.tail([float(i) for i in range(20)])
    assert (pct, beyond) == (50.0, 10)


def test_tail_counts_only_samples_strictly_beyond():
    # ties at the percentile value are not beyond it
    values = [1.0] * 195 + [2.0] * 5 + [3.0] * 9
    assert stats.tail(values) == (90.0, 1.0, 14)


def test_quartiles_match_statistics_quantiles():
    q1, q2, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert stats.relative_spread([4.0, 4.0, 4.0]) == 0.0


def _pairs(parent, deltas):
    return parent, [p + d for p, d in zip(parent, deltas)]


def test_gain_needs_nine_of_ten_wins():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    nine = [-1.0] * 9 + [0.5]
    parent, change = _pairs(parent, nine)
    result = stats.compare_metric(parent, change, "lower", 0.1)
    assert result["wins"] == 9 and result["verdict"] == "gain"

    eight = [-1.0] * 8 + [0.5, 0.5]
    parent, change = _pairs(parent, eight)
    result = stats.compare_metric(parent, change, "lower", 0.1)
    assert result["wins"] == 8 and result["verdict"] != "gain"


def test_ties_count_for_neither_side():
    parent = [10.0] * 10
    change = [9.0] * 8 + [10.0, 10.0]
    assert stats.compare_metric(parent, change, "lower", 0.1)["verdict"] != "gain"


def test_gain_needs_ten_pairs_and_median_beyond_parent_iqr():
    few = stats.compare_metric([10.0] * 9, [5.0] * 9, "lower", 0.1)
    assert few["pairs"] == 9 and few["verdict"] != "gain"
    # every pair wins, but by less than the parent's interquartile distance
    parent = [8.0, 12.0] * 5
    change = [p - 0.1 for p in parent]
    assert stats.compare_metric(parent, change, "lower", 0.5)["verdict"] != "gain"


def test_higher_is_better_metrics():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [p * 1.5 for p in parent]
    assert stats.compare_metric(parent, change, "higher", 0.1)["verdict"] == "gain"
    assert stats.compare_metric(change, parent, "higher", 0.1)["verdict"] == "regression"


def test_regression_beyond_bound_and_unresolved_spread():
    steady = [10.0 + 0.01 * i for i in range(10)]
    assert stats.compare_metric(steady, [x * 1.3 for x in steady], "lower", 0.2)["verdict"] == "regression"
    assert stats.compare_metric(steady, [x * 1.1 for x in steady], "lower", 0.2)["verdict"] == "no regression"
    noisy = [5.0, 15.0] * 5
    assert stats.compare_metric(noisy, [x * 1.1 for x in noisy], "lower", 0.2)["verdict"] == "unresolved"


def test_worsening_direction():
    assert stats.worsening(10.0, 12.0, "lower") == pytest.approx(0.2)
    assert stats.worsening(10.0, 12.0, "higher") == pytest.approx(-0.2)
