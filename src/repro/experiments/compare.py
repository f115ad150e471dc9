"""Quantify reproduction quality: shape agreement with the paper.

The reproduction's claim is that *shapes* hold — who wins, orderings,
rough factors — even where absolute magnitudes differ (DESIGN.md §5).
This module turns that into numbers:

* :func:`rank_agreement` — Spearman rank correlation between the paper's
  reported series and the measured series (ordering preservation).
* :func:`log_ratio_spread` — dispersion of log(measured/paper) across a
  series (a constant factor gives zero spread: same shape, scaled).
* :func:`shape_report` — both metrics for every experiment that embeds
  paper values, rendered as a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from repro.experiments.report import ExperimentResult


@dataclass(frozen=True)
class ShapeScore:
    experiment: str
    points: int
    spearman: float | None  # None when fewer than 3 comparable points
    log_ratio_spread: float | None

    def row(self) -> str:
        rho = f"{self.spearman:+.2f}" if self.spearman is not None else "  — "
        spread = (
            f"{self.log_ratio_spread:.2f}"
            if self.log_ratio_spread is not None
            else " — "
        )
        return f"{self.experiment:<12} {self.points:>6} {rho:>9} {spread:>12}"


def _paired(result: ExperimentResult) -> tuple[list[float], list[float]]:
    measured, paper = [], []
    for label, value in result.rows:
        if label in result.paper:
            measured.append(value)
            paper.append(result.paper[label])
    return measured, paper


def _ranks(values: list[float]) -> list[float]:
    """1-based ranks; tied values share the average of their ranks."""
    ranks = [0.0] * len(values)
    done = 0
    order = sorted(range(len(values)), key=values.__getitem__)
    for _, group in groupby(order, key=values.__getitem__):
        tied = list(group)
        for i in tied:
            ranks[i] = done + (len(tied) + 1) / 2
        done += len(tied)
    return ranks


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman's rho: Pearson correlation of the average ranks (NaN when
    either series is constant)."""
    rx, ry = _ranks(xs), _ranks(ys)
    mean = (len(xs) + 1) / 2  # average ranks keep the mean rank
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    norm = math.sqrt(
        sum((a - mean) ** 2 for a in rx) * sum((b - mean) ** 2 for b in ry)
    )
    return cov / norm if norm else math.nan


def rank_agreement(result: ExperimentResult) -> float | None:
    """Spearman rank correlation of measured vs paper (None if < 3 points)."""
    measured, paper = _paired(result)
    if len(measured) < 3:
        return None
    return spearman(measured, paper)


def log_ratio_spread(result: ExperimentResult) -> float | None:
    """Std-dev of log(measured/paper) over strictly positive pairs.

    0 means the measured series is the paper's series times a constant
    (perfect shape); values around 0.5 mean point-to-point factors vary
    by ~1.6x around the central scaling.
    """
    measured, paper = _paired(result)
    ratios = [
        math.log(m / p)
        for m, p in zip(measured, paper)
        if m > 0 and p > 0
    ]
    if len(ratios) < 2:
        return None
    mean = sum(ratios) / len(ratios)
    variance = sum((r - mean) ** 2 for r in ratios) / len(ratios)
    return math.sqrt(variance)


def score(result: ExperimentResult) -> ShapeScore:
    measured, _ = _paired(result)
    return ShapeScore(
        experiment=result.experiment,
        points=len(measured),
        spearman=rank_agreement(result),
        log_ratio_spread=log_ratio_spread(result),
    )


def shape_report(results: list[ExperimentResult]) -> str:
    """Render shape scores for every experiment with embedded paper values."""
    lines = [
        f"{'experiment':<12} {'points':>6} {'spearman':>9} {'log-spread':>12}"
    ]
    for result in results:
        if result.paper:
            lines.append(score(result).row())
    return "\n".join(lines)
