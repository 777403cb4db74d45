"""``SawtoothSchedule`` — the sawtooth back-off as a non-adaptive schedule.

:class:`~repro.core.protocols.suniform.SUniform` implements the sawtooth as
a stateful protocol on the object engine.  But the sawtooth is in fact a
*non-adaptive* algorithm in the paper's general sense: each station commits
in advance to a random set of transmission rounds — one uniform slot per
window — and only the switch-off reacts to the channel.  Its per-round
transmissions are **dependent** (exactly one per window), which is exactly
the generality the paper's Section 2.1 footnote grants ("we do not assume
independence of these probabilities across rounds") and its lower bound
covers.

This class expresses that view: marginal probabilities ``p(i) = 1/W(i)``
(``W(i)`` = size of the window containing local round ``i``) for the
sigma-trace machinery, plus a direct :meth:`sample_rounds` sampler that
draws a whole repetition — every station's slot in every window — with a
single ``rng.random((k, W))`` call, so the vectorised engine runs sawtooth
sweeps at scales the object engine cannot touch without paying per
station.  ``tests/test_sawtooth_schedule.py`` cross-validates it against
``SUniform``.
"""

from __future__ import annotations

import numpy as np

from repro.core.protocol import ProbabilitySchedule

__all__ = ["SawtoothSchedule"]


def _window_sizes(max_total: int) -> list[int]:
    """The sawtooth window sequence (1; 2,1; 4,2,1; ...) covering at least
    ``max_total`` rounds."""
    sizes: list[int] = []
    covered = 0
    outer = 1
    while covered < max_total:
        w = outer
        while w >= 1:
            sizes.append(w)
            covered += w
            if covered >= max_total:
                break
            w //= 2
        outer *= 2
    return sizes


class SawtoothSchedule(ProbabilitySchedule):
    """Non-adaptive sawtooth: one uniform transmission slot per window."""

    def __init__(self) -> None:
        self.name = "SawtoothSchedule"
        self._sizes: list[int] = []
        self._starts = np.empty(0, dtype=np.int64)  # 1-based window starts
        self._ends = np.empty(0, dtype=np.int64)  # inclusive 1-based ends

    def _extend(self, max_total: int) -> None:
        if self._ends.size and self._ends[-1] >= max_total:
            return
        self._sizes = _window_sizes(max_total)
        ends = np.cumsum(np.asarray(self._sizes, dtype=np.int64))
        starts = ends - np.asarray(self._sizes, dtype=np.int64) + 1
        self._starts, self._ends = starts, ends

    def _window_index(self, local_round: int) -> int:
        self._extend(local_round)
        return int(np.searchsorted(self._ends, local_round, side="left"))

    def probability(self, local_round: int) -> float:
        """Marginal transmission probability: ``1 / window size``."""
        if local_round < 1:
            raise ValueError(f"local_round must be >= 1, got {local_round}")
        index = self._window_index(local_round)  # may rebind self._sizes
        return 1.0 / self._sizes[index]

    def probabilities(self, up_to: int) -> np.ndarray:
        if up_to < 0:
            raise ValueError(f"up_to must be non-negative, got {up_to}")
        if up_to == 0:
            return np.empty(0, dtype=float)
        self._extend(up_to)
        return np.repeat(
            1.0 / np.asarray(self._sizes, dtype=float),
            np.asarray(self._sizes, dtype=np.int64),
        )[:up_to]

    def horizon(self) -> None:
        return None

    def sample_rounds(
        self, rng: np.random.Generator, k: int, max_local: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One uniform slot per window intersecting ``[1, max_local]``, for
        each of ``k`` stations (station-major: row ``s`` of the draw is
        station ``s``, read from the stream as ``k`` per-station draws)."""
        self._extend(max_local)
        n = int(np.searchsorted(self._starts, max_local, side="right"))
        starts = self._starts[:n]
        widths = self._ends[:n] - starts + 1
        # Draw within the *full* window (preserving the exact 1/W marginal)
        # and drop draws landing past the horizon.
        draws = rng.random((k, n))
        draws *= widths
        rounds = draws.astype(np.int64)
        np.minimum(rounds, widths - 1, out=rounds)
        rounds += starts
        keep = rounds <= max_local
        return np.nonzero(keep)[0], rounds[keep]
