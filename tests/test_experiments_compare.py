"""Shape-agreement metrics for paper-vs-measured series."""

import math

import pytest

from repro.experiments.compare import (
    log_ratio_spread,
    rank_agreement,
    score,
    shape_report,
    spearman,
)
from repro.experiments.report import ExperimentResult


def make_result(rows, paper):
    result = ExperimentResult(experiment="Fig T", title="t", paper=paper)
    for label, value in rows:
        result.add(label, value)
    return result


def test_perfect_ordering_gives_rho_one():
    result = make_result(
        [("a", 10.0), ("b", 20.0), ("c", 30.0)],
        {"a": 1.0, "b": 2.0, "c": 3.0},
    )
    assert rank_agreement(result) == pytest.approx(1.0)


def test_inverted_ordering_gives_rho_minus_one():
    result = make_result(
        [("a", 30.0), ("b", 20.0), ("c", 10.0)],
        {"a": 1.0, "b": 2.0, "c": 3.0},
    )
    assert rank_agreement(result) == pytest.approx(-1.0)


def test_too_few_points_returns_none():
    result = make_result([("a", 1.0), ("b", 2.0)], {"a": 1.0, "b": 2.0})
    assert rank_agreement(result) is None


@pytest.mark.parametrize(
    "xs, ys, rho",
    [
        # Reference values from scipy.stats.spearmanr.
        ([0.5, 1.7, 0.9, 3.2, 2.4, 1.1], [1.0, 2.5, 2.0, 2.9, 3.5, 0.4],
         0.7714285714285715),
        # Ties in both series take average ranks.
        ([1.0, 2.0, 2.0, 4.0, 5.0], [3.0, 1.0, 4.0, 1.0, 5.0],
         0.2894736842105264),
    ],
)
def test_spearman_matches_scipy_reference(xs, ys, rho):
    assert spearman(xs, ys) == pytest.approx(rho, abs=1e-12)


def test_spearman_of_constant_series_is_nan():
    assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def test_constant_scaling_gives_zero_spread():
    result = make_result(
        [("a", 30.0), ("b", 60.0), ("c", 90.0)],
        {"a": 10.0, "b": 20.0, "c": 30.0},
    )
    assert log_ratio_spread(result) == pytest.approx(0.0, abs=1e-12)


def test_spread_measures_factor_dispersion():
    result = make_result(
        [("a", 10.0), ("b", 40.0)],
        {"a": 10.0, "b": 10.0},
    )
    spread = log_ratio_spread(result)
    assert spread == pytest.approx(math.log(4.0) / 2)


def test_negative_values_excluded_from_spread():
    result = make_result(
        [("a", -5.0), ("b", 10.0), ("c", 20.0)],
        {"a": 5.0, "b": 10.0, "c": 20.0},
    )
    assert log_ratio_spread(result) == pytest.approx(0.0, abs=1e-12)


def test_rows_without_paper_values_ignored():
    result = make_result(
        [("a", 10.0), ("extra", 99.0), ("b", 20.0), ("c", 30.0)],
        {"a": 1.0, "b": 2.0, "c": 3.0},
    )
    assert score(result).points == 3


def test_shape_report_renders_table():
    result = make_result(
        [("a", 10.0), ("b", 20.0), ("c", 30.0)],
        {"a": 1.0, "b": 2.0, "c": 3.0},
    )
    text = shape_report([result])
    assert "Fig T" in text
    assert "+1.00" in text


def test_shape_of_actual_fig8_is_strong():
    """The repo's own Figure 8 must order like the paper's."""
    from repro.experiments.astar_sweeps import fig8

    result = fig8(window=10_000)
    rho = rank_agreement(result)
    assert rho is not None and rho > 0.7
