"""Probability-sum traces: the paper's ``sigma[t]`` and ``sigma_hat[t]``.

For a non-adaptive schedule ``p`` and wake times ``t_v``:

* ``sigma_hat[t] = sum over all woken v of p(t - t_v)`` — counts stations
  whether or not they already switched off (the quantity the lower-bound
  lemmas control);
* ``sigma[t]   = sum over still-active v of p(t - t_v)`` — the live sum the
  upper-bound lemmas keep below 1.

``sigma_hat`` only depends on the wake histogram, so it is a convolution of
the per-round wake counts with the probability table — computed via FFT in
O(T log T) regardless of ``k``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.core.protocol import ProbabilitySchedule

__all__ = ["sigma_hat_trace", "sigma_trace", "success_probability_bound"]


def _wake_histogram(wake_rounds: Sequence[int], horizon: int) -> np.ndarray:
    wake = np.asarray(wake_rounds, dtype=np.int64)
    if wake.size and wake.min() < 0:
        raise ValueError("wake rounds must be >= 0")
    histogram = np.zeros(horizon + 1, dtype=float)
    inside = wake[wake <= horizon]
    np.add.at(histogram, inside, 1.0)
    return histogram


def _linear_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real sequences via the real FFT,
    zero-padded past ``len(a) + len(b) - 1`` so nothing wraps around."""
    size = a.size + b.size - 1
    n_fft = 1 << (size - 1).bit_length()
    spectrum = np.fft.rfft(a, n_fft) * np.fft.rfft(b, n_fft)
    return np.fft.irfft(spectrum, n_fft)[:size]


def sigma_hat_trace(
    wake_rounds: Sequence[int],
    schedule: ProbabilitySchedule,
    horizon: int,
) -> np.ndarray:
    """``sigma_hat[t]`` for ``t = 1 .. horizon`` (index 0 <-> round 1).

    A station woken at ``w`` contributes ``p(t - w)`` for ``t > w``;
    summing over stations is exactly ``(wake histogram) * (p table)``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    histogram = _wake_histogram(wake_rounds, horizon)
    p = np.asarray(schedule.probabilities(horizon), dtype=float)
    # Full convolution with p[0] = p(1): a station woken at w contributes
    # p(t - w) = p[t - w - 1] to round t, which is exactly conv[t - 1].
    trace = _linear_convolution(histogram, p)[:horizon]
    # FFT round-off can produce tiny negatives.
    np.clip(trace, 0.0, None, out=trace)
    return trace


def sigma_trace(
    wake_rounds: Sequence[int],
    schedule: ProbabilitySchedule,
    horizon: int,
    switch_off_rounds: Optional[Sequence[Optional[int]]] = None,
) -> np.ndarray:
    """``sigma[t]`` for ``t = 1 .. horizon``: only still-active stations.

    ``switch_off_rounds[i]`` is the round station ``i`` switched off in
    (it no longer contributes from the *next* round on), or None if it
    never did.  With no switch-offs this equals :func:`sigma_hat_trace`.

    O(k + T) by subtracting, for each switched-off station, its residual
    probability tail — implemented as a second convolution of the
    "off histogram" shifted per-station, which requires per-station handling;
    for the figure-scale ``k`` used here a direct O(k T) loop is fine and
    keeps the code auditable.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if switch_off_rounds is None:
        return sigma_hat_trace(wake_rounds, schedule, horizon)
    if len(switch_off_rounds) != len(wake_rounds):
        raise ValueError("switch_off_rounds must align with wake_rounds")
    p = np.asarray(schedule.probabilities(horizon), dtype=float)
    trace = np.zeros(horizon, dtype=float)
    for wake, off in zip(wake_rounds, switch_off_rounds):
        start_t = wake + 1  # first round with a defined local probability
        end_t = horizon if off is None else min(horizon, off)
        if end_t < start_t:
            continue
        local_lo = start_t - wake  # == 1
        local_hi = end_t - wake
        segment = p[local_lo - 1 : local_hi]
        trace[start_t - 1 : start_t - 1 + len(segment)] += segment
    return trace


def success_probability_bound(sigma_hat: float) -> float:
    """Lemma ``l:lower-gen-2``'s per-round ceiling on success probability.

    The probability any single station succeeds in a round is at most
    ``sigma_hat * e^(1 - sigma_hat)`` — vanishing once
    ``sigma_hat >> log k``.
    """
    if sigma_hat < 0:
        raise ValueError(f"sigma_hat must be >= 0, got {sigma_hat}")
    return float(sigma_hat * np.exp(1.0 - sigma_hat))
