"""Aggregation of repeated experiments.

The paper repeats every condition several times (five repetitions for the
static sweeps, four for disruptions, three for competition) and reports the
median or mean together with a 90 % confidence interval band.  This module
provides those aggregations.

A :class:`RunSummary` keeps the observed values and computes each statistic
on first access, at most once, with the same numpy expression an eager
computation would use: campaign tabulators that read only ``.mean`` never
pay for the median or the quantile band.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["RunSummary", "confidence_interval", "aggregate_runs", "summarize_series"]


class RunSummary:
    """Summary statistics of one metric across repeated runs.

    Built by :func:`aggregate_runs`.  ``n`` is known up front; ``mean``
    (``np.mean``), ``median`` (``np.median``) and the ``(ci_low, ci_high)``
    band (:func:`confidence_interval`, both quantiles together) are each
    computed on first access and cached, so a second read calls no numpy.
    With no observations every statistic is ``0.0``.  An out-of-range
    ``confidence`` raises on first access of the band.
    """

    __slots__ = ("n", "_data", "_confidence", "_mean", "_median", "_band")

    def __init__(self, data: np.ndarray, confidence: float) -> None:
        self.n = int(data.size)
        self._data = data
        self._confidence = confidence
        self._mean: Optional[float] = None if self.n else 0.0
        self._median: Optional[float] = None if self.n else 0.0
        self._band: Optional[tuple[float, float]] = None

    @property
    def mean(self) -> float:
        if self._mean is None:
            self._mean = float(np.mean(self._data))
        return self._mean

    @property
    def median(self) -> float:
        if self._median is None:
            self._median = float(np.median(self._data))
        return self._median

    @property
    def ci_low(self) -> float:
        return self._ci()[0]

    @property
    def ci_high(self) -> float:
        return self._ci()[1]

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def _ci(self) -> tuple[float, float]:
        if self._band is None:
            self._band = _quantile_band(self._data, self._confidence)
        return self._band

    def __repr__(self) -> str:
        return (
            f"RunSummary(mean={self.mean!r}, median={self.median!r}, "
            f"ci_low={self.ci_low!r}, ci_high={self.ci_high!r}, n={self.n!r})"
        )


def _quantile_band(data: np.ndarray, confidence: float) -> tuple[float, float]:
    if data.size == 0:
        return (0.0, 0.0)
    alpha = (1.0 - confidence) / 2.0
    low = float(np.quantile(data, alpha))
    high = float(np.quantile(data, 1.0 - alpha))
    return (low, high)


def confidence_interval(values: Sequence[float], confidence: float = 0.90) -> tuple[float, float]:
    """Percentile-based confidence interval (the paper plots 90 % bands).

    With the small sample sizes the paper uses (3-5 repetitions) a
    percentile interval of the observed values is the honest choice.  For
    n=1 it is the single observed value if that value is finite; an
    infinite value gives ``nan`` (numpy interpolates ``inf - inf`` and
    emits a ``RuntimeWarning``), as does any ``nan`` in the input.  No
    observations give ``(0.0, 0.0)``.
    """
    return _quantile_band(np.asarray(list(values), dtype=float), confidence)


def aggregate_runs(values: Iterable[float], confidence: float = 0.90) -> RunSummary:
    """Aggregate one metric measured across repeated runs.

    The values are copied into a float64 array now; the statistics are
    computed lazily (see :class:`RunSummary`).
    """
    return RunSummary(np.asarray(list(values), dtype=float), confidence)


def summarize_series(
    runs: Sequence[tuple[np.ndarray, np.ndarray]],
    bin_width_s: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Average several (times, values) traces onto a common time grid.

    Used for the time-series figures (4a, 5a, 9, 11, 13, 14a) where the paper
    plots the average trace over repetitions.
    """
    if not runs:
        return np.array([]), np.array([])
    end = max(times[-1] if len(times) else 0.0 for times, _ in runs)
    grid = np.arange(0.0, end + bin_width_s, bin_width_s)
    stacked = []
    for times, values in runs:
        if len(times) == 0:
            continue
        stacked.append(np.interp(grid, times, values, left=0.0, right=0.0))
    if not stacked:
        return grid, np.zeros_like(grid)
    return grid, np.mean(np.vstack(stacked), axis=0)
