"""Percentile, spread and host-correction arithmetic against hand-computed cases."""

import pytest

from hypbench import measure, pykernel, run


def test_timing_metrics_match_hand_computation():
    # per-item seconds 0.004, 0.001, 0.003, 0.002: sorted 1..4 ms, p50 at
    # rank 1.5 -> 2.5 ms, p90 at rank (4 - 1) * 0.9 = 2.7 -> 3 + 0.7 = 3.7 ms
    m = run._timing_metrics([0.004, 0.001, 0.003, 0.002])
    assert m["items_per_s"] == pytest.approx(4 / 0.010)
    assert m["p50_ms"] == pytest.approx(2.5)
    assert m["p90_ms"] == pytest.approx(3.7)
    # 101 items of 0..100 ms: the 90th percentile is exactly 90 ms
    assert run._timing_metrics([k / 1e3 for k in range(101)])["p90_ms"] == \
        pytest.approx(90.0)


def test_per_item_median_takes_each_item_across_rounds():
    rounds = [[1.0, 10.0], [3.0, 2.0], [2.0, 4.0], [9.0, 8.0]]
    # item 0: median of 1, 3, 2, 9 = 2.5; item 1: of 10, 2, 4, 8 = 6
    assert run._per_item_median(rounds) == pytest.approx([2.5, 6.0])
    assert run._per_item_median([[0.5, 0.7]]) == pytest.approx([0.5, 0.7])


def test_corrected_scales_by_nominal_over_mean_kernel():
    nominal = measure.NOMINAL_KERNEL_S
    # host twice as slow as nominal: halve the raw time
    assert measure.corrected(0.010, 2 * nominal, 2 * nominal) == pytest.approx(0.005)
    # kernel mean equals nominal: unchanged
    assert measure.corrected(0.010, 0.5 * nominal, 1.5 * nominal) == pytest.approx(0.010)
    # host 25% faster than nominal: stretch by 4/3
    assert measure.corrected(0.003, 0.75 * nominal, 0.75 * nominal) == pytest.approx(0.004)
    with pytest.raises(ValueError):
        measure.corrected(1.0, 0.0, 0.0)


def test_quartile_spread_matches_hand_computation():
    # statistics.quantiles(n=4), exclusive: Q1 = 1.5, median 3, Q3 = 4.5
    assert measure.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)
    assert measure.quartile_spread([10, 10, 10, 10]) == 0.0


def test_kernel_takes_positive_time():
    assert measure.kernel_seconds() > 0.0


def test_corrected_uses_the_nominal_of_the_kernel_timed():
    # the interpreter part alone, measured at twice its nominal: halve
    nominal = measure.NOMINAL_PYTHON_KERNEL_S
    assert measure.corrected(0.2, 2 * nominal, 2 * nominal,
                             nominal=nominal) == pytest.approx(0.1)
    assert pykernel.python_kernel_seconds(3) > 0.0
