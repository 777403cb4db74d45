"""Tile planner: (RunSpec, repetitions, memory budget) -> a :class:`TilePlan`.

``run_batch`` materialises the whole (rep, round, station) event space at
once, so memory — not CPU — caps how many repetitions one kernel call can
fuse: the Table-1-style sweeps need ~10⁶ repetitions at k≈1024, which the
monolithic kernel cannot hold.  This module turns a spec and a byte
budget into a deterministic streaming plan:

* **rep tiles** — the batch's repetitions are split into contiguous
  groups of ``tile_reps``; each group runs the full kernel on its own,
  bounding the event arrays (the dominant allocation) to one tile.
  Per-repetition RNG draws are independent (each repetition owns its
  ``SeedSequence(seed)``), so rep tiling is byte-identical by
  construction.
* **round windows** — inside one rep tile, collision resolution can
  additionally sweep the sorted event stream in windows of
  ``tile_rounds`` global rounds, carrying the ack-switch-off fixpoint
  frontier (the ``win`` array) from window to window.  Wins only remove
  a station's *later* events, so a window that has converged can never be
  reopened by a later one — the windowed fixpoint lands on exactly the
  monolithic result (fuzz-verified in ``tests/test_plan.py``).

Cost model
----------

The planner sizes tiles from a bytes-per-(rep·round·station) model: a
schedule run draws ``k × Σp(t)`` expected transmission events per
repetition (the cumulative hazard over the resolved horizon), and each
event costs :data:`EVENT_BYTES` across the key/sort/decompose arrays; on
top ride ``k × :data:`STATION_BYTES``` of per-(rep, station) state
(wake/win/attempt/materialisation arrays).  The whole estimate is scaled
by :data:`SAFETY_FACTOR`, measured against the kernel's actual peak
working set (the ``tile.working_set_bytes.peak`` gauge) on the
benchmark acceptance configurations — the estimate must err high so a
budgeted run never overshoots.

``--memory-budget`` (or :func:`set_default_memory_budget`) supplies the
budget; explicit ``--tile-reps`` / ``--tile-rounds`` override the derived
sizes.  With none of the three set, the plan is the monolithic batch and
the kernels behave exactly as before.  A budget too small to admit even a
single-repetition tile fails fast with :class:`BatchMemoryError`, naming
the spec field driving the working set and the smallest admitting budget.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.spec import RunSpec
from repro.telemetry import registry as telemetry

__all__ = [
    "EVENT_BYTES",
    "STATION_BYTES",
    "COMPILED_STATION_BYTES",
    "ADAPTIVE_LANE_BYTES",
    "SAFETY_FACTOR",
    "BatchMemoryError",
    "TilePlan",
    "build_plan",
    "estimate_rep_bytes",
    "tile_rep_cap",
    "parse_memory_budget",
    "format_bytes",
    "set_default_memory_budget",
    "get_default_memory_budget",
    "resolve_memory_budget",
    "set_default_tile_reps",
    "get_default_tile_reps",
    "resolve_tile_reps",
    "set_default_tile_rounds",
    "get_default_tile_rounds",
    "resolve_tile_rounds",
    "use_tiling",
]

#: Bytes one transmission event costs across the batched kernel's arrays:
#: the composite sort key (≤8), the uniform hazard point and its mapped
#: local round (8 + 8), and the post-sort decomposition (``g``/``gk``/
#: ``ev_rep``/``s`` int64 views plus the jam mask, 33).
EVENT_BYTES = 64

#: Bytes of per-(rep, station) state alive across one rep tile: wake and
#: Poisson-count draws, the ``win`` frontier, the stop/attempt arrays and
#: the object-array materialisation (~15 int64/pointer arrays).
STATION_BYTES = 160

#: Bytes per (rep, station) lane of the compiled stepper — the flat lane
#: arrays plus each lane's ``SeedSequence``/``PCG64`` generator pair,
#: which dominate (the compiled path has no event stream).
COMPILED_STATION_BYTES = 1024

#: Extra bytes per (rep, station) lane when the adversary is adaptive:
#: the compiled stepper's dynamic-wake bookkeeping (per-repetition Mealy
#: state and previous-outcome arrays broadcast over lanes, pending-start
#: index buffers, the per-round outcome scratch).
ADAPTIVE_LANE_BYTES = 64

#: Measured safety factor between the model's estimate and the kernel's
#: actual peak working set (sort scratch, the ack fixpoint's per-round
#: counts and station-major keys, materialisation temporaries).
#: Calibrated against the ``tile.working_set_bytes.peak`` gauge on the
#: k=64 and k=1024 acceptance configurations; the estimate stays above
#: the measurement.
SAFETY_FACTOR = 2.0

#: Process-wide tiling defaults, set by the CLI's ``--memory-budget`` /
#: ``--tile-reps`` / ``--tile-rounds`` flags.  ``None`` = no constraint:
#: kernels run monolithically, exactly the pre-streaming behaviour.
_default_memory_budget: Optional[int] = None
_default_tile_reps: Optional[int] = None
_default_tile_rounds: Optional[int] = None

_BUDGET_PATTERN = re.compile(
    r"^\s*(?P<number>\d+(?:\.\d+)?)\s*(?P<unit>[kKmMgGtT])?(?:i?[bB])?\s*$"
)

_UNIT_BYTES = {
    None: 1,
    "k": 1024,
    "m": 1024**2,
    "g": 1024**3,
    "t": 1024**4,
}


class BatchMemoryError(MemoryError):
    """A batch cannot run (or failed) within the available memory.

    Raised *before* numpy aborts on an oversized allocation: either the
    configured ``--memory-budget`` cannot admit even a one-repetition
    tile, or a kernel allocation actually failed.  The message names the
    spec field driving the working set and the budget that would admit
    the spec (streamed in single-repetition tiles).
    """


def parse_memory_budget(value: Union[int, float, str]) -> int:
    """``"4G"`` / ``"512M"`` / ``"64KiB"`` / ``1073741824`` -> bytes.

    Unit suffixes are binary (K=2¹⁰, M=2²⁰, G=2³⁰, T=2⁴⁰), case-
    insensitive, with an optional ``iB``/``B`` tail.  A bare number is
    bytes.  Raises ``ValueError`` on anything else or a non-positive
    budget.
    """
    if isinstance(value, bool):
        raise ValueError(f"memory budget must be a size, got {value!r}")
    if isinstance(value, (int, float)):
        budget = int(value)
    else:
        match = _BUDGET_PATTERN.match(str(value))
        if match is None:
            raise ValueError(
                f"cannot parse memory budget {value!r}; expected bytes or a "
                "size like 4G, 512M, 64K"
            )
        unit = match.group("unit")
        budget = int(
            float(match.group("number"))
            * _UNIT_BYTES[unit.lower() if unit else None]
        )
    if budget <= 0:
        raise ValueError(f"memory budget must be positive, got {value!r}")
    return budget


def format_bytes(n: int) -> str:
    """Human-readable binary size (``1363148`` -> ``"1.3 MiB"``)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")  # pragma: no cover


def set_default_memory_budget(budget: Union[int, str, None]) -> None:
    """Set the process-wide memory budget (None = unconstrained)."""
    global _default_memory_budget
    _default_memory_budget = (
        None if budget is None else parse_memory_budget(budget)
    )


def get_default_memory_budget() -> Optional[int]:
    """The process-wide memory budget in bytes (None = unconstrained)."""
    return _default_memory_budget


def resolve_memory_budget(
    budget: Union[int, str, None]
) -> Optional[int]:
    """Resolve an explicit/None budget against the process default."""
    if budget is None:
        return _default_memory_budget
    return parse_memory_budget(budget)


def _validate_tile_count(value: int, name: str) -> int:
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def set_default_tile_reps(tile_reps: Optional[int]) -> None:
    """Set the process-wide rep-tile size (None = derive from the budget)."""
    global _default_tile_reps
    _default_tile_reps = (
        None if tile_reps is None else _validate_tile_count(tile_reps, "tile_reps")
    )


def get_default_tile_reps() -> Optional[int]:
    """The process-wide rep-tile size override."""
    return _default_tile_reps


def resolve_tile_reps(tile_reps: Optional[int]) -> Optional[int]:
    """Resolve an explicit/None rep-tile size against the process default."""
    if tile_reps is None:
        return _default_tile_reps
    return _validate_tile_count(tile_reps, "tile_reps")


def set_default_tile_rounds(tile_rounds: Optional[int]) -> None:
    """Set the process-wide round-window size (None = whole horizon)."""
    global _default_tile_rounds
    _default_tile_rounds = (
        None
        if tile_rounds is None
        else _validate_tile_count(tile_rounds, "tile_rounds")
    )


def get_default_tile_rounds() -> Optional[int]:
    """The process-wide round-window size override."""
    return _default_tile_rounds


def resolve_tile_rounds(tile_rounds: Optional[int]) -> Optional[int]:
    """Resolve an explicit/None round-window size against the default."""
    if tile_rounds is None:
        return _default_tile_rounds
    return _validate_tile_count(tile_rounds, "tile_rounds")


@contextmanager
def use_tiling(
    memory_budget: Union[int, str, None] = None,
    tile_reps: Optional[int] = None,
    tile_rounds: Optional[int] = None,
):
    """Scope the process tiling defaults (None = leave that knob alone).

    The CLI wraps each experiment in this, the same way ``--jobs`` and
    ``--batch-size`` scope their process defaults.
    """
    global _default_memory_budget, _default_tile_reps, _default_tile_rounds
    previous = (_default_memory_budget, _default_tile_reps, _default_tile_rounds)
    if memory_budget is not None:
        set_default_memory_budget(memory_budget)
    if tile_reps is not None:
        set_default_tile_reps(tile_reps)
    if tile_rounds is not None:
        set_default_tile_rounds(tile_rounds)
    try:
        yield
    finally:
        (
            _default_memory_budget,
            _default_tile_reps,
            _default_tile_rounds,
        ) = previous


def _hazard_total(spec: RunSpec, horizon: int) -> float:
    """Expected transmission events per station over the horizon."""
    from repro.engine.cache import schedule_tables

    return schedule_tables(spec.schedule, horizon).hazard_total


def _cost_parts(spec: RunSpec) -> tuple[int, int, float, int]:
    """(event_bytes, station_bytes, hazard_total, horizon) for one rep.

    Both byte counts already carry :data:`SAFETY_FACTOR`; their sum is
    :func:`estimate_rep_bytes`.
    """
    if spec.is_traffic_run:
        from repro.channel.traffic import traffic_reduction

        spec = traffic_reduction(spec)
    from repro.adversary.base import AdaptiveAdversary

    horizon = spec.resolve_horizon()
    k = spec.k
    # Adaptive adversaries run on the compiled stepper with extra
    # per-lane dynamic-wake state; oblivious runs pay nothing.
    per_station_extra = (
        ADAPTIVE_LANE_BYTES
        if isinstance(spec.adversary, AdaptiveAdversary)
        else 0
    )
    if spec.is_schedule_run:
        hazard = _hazard_total(spec, horizon)
        events = k * max(hazard, 1.0)
        event_bytes = int(SAFETY_FACTOR * events * EVENT_BYTES)
        station_bytes = int(
            SAFETY_FACTOR * k * (STATION_BYTES + per_station_extra)
        )
    else:
        # Compiled/object batches have no event stream; lanes dominate.
        hazard = 0.0
        event_bytes = 0
        station_bytes = int(
            SAFETY_FACTOR * k * (COMPILED_STATION_BYTES + per_station_extra)
        )
    return event_bytes, station_bytes, hazard, horizon


def estimate_rep_bytes(spec: RunSpec) -> int:
    """The cost model: estimated peak bytes one repetition contributes.

    Deliberately conservative (see :data:`SAFETY_FACTOR`): the planner
    must never derive a tile that overshoots the budget.
    """
    event_bytes, station_bytes, _, _ = _cost_parts(spec)
    return max(1, event_bytes + station_bytes)


def _inadmissible_message(
    spec: RunSpec, budget: int, per_rep: int
) -> str:
    event_bytes, station_bytes, hazard, horizon = _cost_parts(spec)
    if event_bytes > station_bytes:
        driver = (
            f"max_rounds={horizon} (k={spec.k} stations x ~{hazard:.1f} "
            "expected transmission events each over the horizon)"
        )
    else:
        driver = f"k={spec.k} (per-station state dominates)"
    return (
        f"memory budget {format_bytes(budget)} cannot admit even a "
        f"single-repetition tile of {spec.display_label!r}: one repetition's "
        f"working set is ~{format_bytes(per_rep)}, driven by {driver}; the "
        f"smallest admitting budget is --memory-budget {per_rep}"
    )


def oversized_batch_message(spec: RunSpec, n_reps: int) -> str:
    """Message for a kernel allocation that actually failed (satellite:
    ``run_batch`` wraps numpy's bare ``MemoryError`` in this)."""
    event_bytes, station_bytes, hazard, horizon = _cost_parts(spec)
    per_rep = max(1, event_bytes + station_bytes)
    if event_bytes > station_bytes:
        driver = (
            f"max_rounds={horizon} (~{hazard:.1f} expected events per "
            f"station x k={spec.k})"
        )
    else:
        driver = f"k={spec.k}"
    admit = per_rep * max(1, min(n_reps, 64))
    return (
        f"batch allocation failed for {n_reps} repetitions of "
        f"{spec.display_label!r}: the working set (~"
        f"{format_bytes(per_rep * n_reps)}, driven by {driver}) exceeds "
        f"available memory; stream it with --memory-budget {admit} "
        f"(~{format_bytes(admit)}, tiles of <= {max(1, min(n_reps, 64))} "
        "repetitions)"
    )


@dataclass(frozen=True)
class TilePlan:
    """A deterministic streaming decomposition of one batch.

    Pure function of its inputs: the same (spec, n_reps, budget,
    overrides) always produce the same plan, on any worker, so tile
    boundaries never depend on runtime state and results stay
    reproducible.
    """

    #: Total repetitions the plan covers.
    n_reps: int
    #: Repetitions per tile (the fused-kernel unit).
    tile_reps: int
    #: Rounds per resolution window inside a tile (None = whole horizon).
    tile_rounds: Optional[int]
    #: The spec's resolved horizon the windows partition.
    horizon: int
    #: Cost-model estimate for one repetition, bytes (safety included).
    est_rep_bytes: int
    #: The budget the plan was derived under (None = unconstrained).
    memory_budget: Optional[int]

    @property
    def n_rep_tiles(self) -> int:
        """How many rep tiles the plan schedules."""
        if self.n_reps == 0:
            return 0
        return -(-self.n_reps // self.tile_reps)

    @property
    def n_round_windows(self) -> int:
        """Resolution windows per rep tile (1 = monolithic resolve)."""
        if self.tile_rounds is None or self.horizon <= 0:
            return 1
        return (self.horizon - 1) // self.tile_rounds + 1

    @property
    def n_tiles(self) -> int:
        """Total (rep tile × round window) work units."""
        return self.n_rep_tiles * self.n_round_windows

    @property
    def est_tile_bytes(self) -> int:
        """Estimated peak working set of one rep tile."""
        return self.tile_reps * self.est_rep_bytes

    @property
    def monolithic(self) -> bool:
        """True when the plan is exactly the pre-streaming batch."""
        return self.tile_reps >= self.n_reps and self.tile_rounds is None

    def rep_slices(self) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` repetition ranges, one per rep tile."""
        return [
            (lo, min(lo + self.tile_reps, self.n_reps))
            for lo in range(0, self.n_reps, self.tile_reps)
        ]


def build_plan(
    spec: RunSpec,
    n_reps: int,
    *,
    memory_budget: Union[int, str, None] = None,
    tile_reps: Optional[int] = None,
    tile_rounds: Optional[int] = None,
) -> TilePlan:
    """Derive the deterministic :class:`TilePlan` for one batch.

    Explicit ``tile_reps`` / ``tile_rounds`` (or their process defaults)
    win; otherwise ``tile_reps`` is the largest count whose estimated
    working set fits ``memory_budget`` (or its process default).  With no
    constraint at all the plan is monolithic.

    Raises:
        BatchMemoryError: the budget cannot admit a one-repetition tile.
    """
    with telemetry.span("plan.build"):
        n_reps = int(n_reps)
        if n_reps < 0:
            raise ValueError(f"n_reps must be >= 0, got {n_reps}")
        budget = resolve_memory_budget(memory_budget)
        reps_cap = resolve_tile_reps(tile_reps)
        rounds_cap = resolve_tile_rounds(tile_rounds)
        per_rep = estimate_rep_bytes(spec)
        horizon = spec.resolve_horizon()
        if reps_cap is None:
            if budget is None:
                reps_cap = max(n_reps, 1)
            else:
                if per_rep > budget:
                    raise BatchMemoryError(
                        _inadmissible_message(spec, budget, per_rep)
                    )
                reps_cap = max(1, budget // per_rep)
        reps_cap = max(1, min(reps_cap, n_reps) if n_reps else reps_cap)
        if rounds_cap is not None and rounds_cap >= horizon:
            rounds_cap = None  # one window: the monolithic resolve
        plan = TilePlan(
            n_reps=n_reps,
            tile_reps=reps_cap,
            tile_rounds=rounds_cap,
            horizon=horizon,
            est_rep_bytes=per_rep,
            memory_budget=budget,
        )
        if telemetry.enabled():
            telemetry.count("plan.builds")
            telemetry.count("plan.rep_tiles", plan.n_rep_tiles)
        return plan


def tile_rep_cap(spec: RunSpec) -> Optional[int]:
    """Max repetitions per fused kernel call under the *active* tiling
    configuration (process defaults), or None when unconstrained.

    The harness consults this when chunking a run bag so the fork-pool
    scheduling unit *is* the tile: chunks never exceed what one tile may
    hold, and a big single-configuration sweep cell therefore fans out
    across workers instead of serialising inside one monolithic call.

    Raises:
        BatchMemoryError: the active budget admits no tile at all.
    """
    reps_cap = get_default_tile_reps()
    if reps_cap is not None:
        return reps_cap
    budget = get_default_memory_budget()
    if budget is None:
        return None
    per_rep = estimate_rep_bytes(spec)
    if per_rep > budget:
        raise BatchMemoryError(_inadmissible_message(spec, budget, per_rep))
    return max(1, budget // per_rep)
