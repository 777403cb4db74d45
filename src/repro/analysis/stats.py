"""Small statistics toolbox: bootstrap CIs and empirical tail probabilities.

The paper's guarantees are "with high probability" statements; the
reproduction turns them into empirical success rates with confidence
intervals, and latency/energy distributions summarised with bootstrap CIs
(repetition counts are modest, so normal-theory intervals would be shaky).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "bootstrap_ci",
    "proportion_ci",
    "Summary",
    "summarize",
    "geometric_sweep",
]


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    statistic=np.mean,
    seed: int | None = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for a statistic of a sample."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return (float("nan"), float("nan"))
    if data.size == 1:
        return (float(data[0]), float(data[0]))
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, data.size, size=(resamples, data.size))
    stats = statistic(data[indices], axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(stats, alpha)), float(np.quantile(stats, 1.0 - alpha)))


def proportion_ci(
    successes: int, trials: int, *, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    >>> lo, hi = proportion_ci(95, 100)
    >>> 0.88 < lo < hi < 0.99
    True
    """
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    # z for the two-sided confidence level (inverse normal CDF).
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = max(0.0, centre - half)
    high = min(1.0, centre + half)
    # Exact endpoints at the degenerate extremes (float noise otherwise
    # leaves ~1e-17 residue).
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (low, high)


@dataclass(frozen=True, slots=True)
class Summary:
    """Distribution summary of a metric sample."""

    n: int
    mean: float
    std: float
    p50: float
    p95: float
    maximum: float
    ci_low: float
    ci_high: float


def summarize(values: Sequence[float], *, confidence: float = 0.95) -> Summary:
    """Summarise a sample (mean bootstrap CI, quantiles)."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    low, high = bootstrap_ci(data, confidence=confidence)
    return Summary(
        n=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        p50=float(np.quantile(data, 0.5)),
        p95=float(np.quantile(data, 0.95)),
        maximum=float(data.max()),
        ci_low=low,
        ci_high=high,
    )


def geometric_sweep(start: int, stop: int, *, factor: int = 2) -> list[int]:
    """Geometric grid of contention sizes: start, start*factor, ... <= stop.

    >>> geometric_sweep(16, 128)
    [16, 32, 64, 128]
    """
    if start < 1 or stop < start:
        raise ValueError(f"need 1 <= start <= stop, got {start}, {stop}")
    if factor < 2:
        raise ValueError(f"factor must be >= 2, got {factor}")
    values = []
    k = start
    while k <= stop:
        values.append(k)
        k *= factor
    return values
