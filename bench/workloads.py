"""The six workloads: their fixed cells and seeded op lists.

A *cell* is an unseeded :class:`~repro.core.spec.RunSpec` base (engine
workloads) or an experiment id (suite workloads).  An *op* is one call of a
public entry point, issued by a single closed-loop caller:

* ``execute_batch(spec, seeds)`` for the two sweep workloads;
* ``execute(spec.with_seed(s))`` for ``object_fallback`` and ``single_run``;
* ``run_experiment(id, resume_dir=..., seed=..., **SCALES["quick"][id])``
  for the two suite workloads.

A *pass* is the workload's op list run once, in order.  Every run seed is
a pure function of ``(--seed, pass, cell, rep)``, so the same ``--seed``
always yields the same executions and no two passes repeat one (except
``suite_resume``, whose point is to replay one journal).  Nothing here
touches the clock or the filesystem; the child process does both.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Optional, Union

from repro.adversary.adaptive import BurstOnQuietAdversary, DripFeedAdversary
from repro.adversary.oblivious import (
    BatchSchedule,
    PoissonArrivals,
    StaggeredSchedule,
    StaticSchedule,
    UniformRandomSchedule,
)
from repro.baselines.backoff import BinaryExponentialBackoff
from repro.baselines.cd_adaptive import CdAimdProtocol
from repro.channel.feedback import FeedbackModel
from repro.channel.jamming import RandomJammer
from repro.channel.results import StopCondition
from repro.core.protocols import (
    AdaptiveNoK,
    DecreaseSlowly,
    NonAdaptiveWithK,
    SawtoothSchedule,
    SublinearDecrease,
    SUniform,
)
from repro.core.spec import RunSpec
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.suite import SCALES
from repro.faults import fault_model

SUITE_WORKLOADS = ("suite_fresh", "suite_resume")

#: Experiments a suite pass runs.  ``estimate_robustness`` crashes at quick
#: scale (a driver bug), so timing it would time a traceback.
SUITE_EXPERIMENTS = tuple(
    sorted(e for e in EXPERIMENTS if e != "estimate_robustness")
)

#: The pass index the untimed warm-up uses; timed passes never reach it.
WARMUP_PASS = 2**16 - 1


def run_seed(seed: int, pass_index: int, cell: int, rep: int) -> int:
    """The seed of repetition ``rep`` of cell ``cell`` in pass ``pass_index``:
    ``(seed mod 2**22) * 2**40 + pass * 2**24 + cell * 2**12 + rep``, which
    stays below 2**62 for any ``--seed``."""
    return (((seed % 2**22) << 16 | pass_index) << 12 | cell) << 12 | rep


@dataclass(frozen=True)
class Cell:
    """One workload cell: what to run and how many repetitions per pass."""

    name: str
    target: Union[RunSpec, str]
    reps: int = 1
    #: Repetitions fused into one ``execute_batch`` op; 0 = one ``execute``
    #: per repetition; unused by suite cells.
    batch: int = 0


def _uniform(k: int) -> UniformRandomSchedule:
    return UniformRandomSchedule(2 * k)


def _fused_cells() -> list[Cell]:
    cells = []
    for k in (64, 128, 256):
        for schedule in (NonAdaptiveWithK(k, 6), SublinearDecrease(4)):
            for adversary in (_uniform(k), BatchSchedule(8, 16)):
                spec = RunSpec(k, schedule, adversary, max_rounds=30 * k)
                cells.append(Cell(f"{schedule.name}/{adversary.name}/k={k}", spec))
    for k in (128, 256):
        base = RunSpec(k, NonAdaptiveWithK(k, 6), _uniform(k), max_rounds=30 * k)
        cells.append(Cell(
            f"faults/k={k}",
            base.replace(faults=fault_model(noise=0.05, ack_loss=0.05)),
        ))
        cells.append(Cell(
            f"jam7/k={k}",
            base.replace(jam_rounds=tuple(range(7, 30 * k + 1, 7))),
        ))
    return [Cell(c.name, c.target, reps=64, batch=64) for c in cells]


def _compiled_cells() -> list[Cell]:
    cells = []
    for k in (16, 32, 64):
        cells += [
            Cell(f"AdaptiveNoK/burst-on-quiet/k={k}",
                 RunSpec(k, AdaptiveNoK, BurstOnQuietAdversary(8, 16))),
            Cell(f"AdaptiveNoK/uniform-random/k={k}",
                 RunSpec(k, AdaptiveNoK, _uniform(k))),
            Cell(f"SUniform/static/k={k}", RunSpec(k, SUniform, StaticSchedule())),
            Cell(f"CdAimd/drip/k={k}",
                 RunSpec(k, CdAimdProtocol, DripFeedAdversary(4),
                         feedback=FeedbackModel.COLLISION_DETECTION)),
        ]
    return [Cell(c.name, c.target, reps=32, batch=32) for c in cells]


def _object_cells() -> list[Cell]:
    cells = []
    for k in (16, 32):
        cells += [
            Cell(f"AdaptiveNoK+noise/k={k}",
                 RunSpec(k, AdaptiveNoK, _uniform(k),
                         faults=fault_model(noise=0.05))),
            Cell(f"NonAdaptiveWithK+energy/k={k}",
                 RunSpec(k, NonAdaptiveWithK(k, 6), _uniform(k),
                         faults=fault_model(energy_budget=4 * k))),
            Cell(f"BEB/k={k}", RunSpec(k, BinaryExponentialBackoff, _uniform(k))),
            Cell(f"NonAdaptiveWithK+jammer/k={k}",
                 RunSpec(k, NonAdaptiveWithK(k, 6), _uniform(k),
                         jammer=RandomJammer(0.05))),
            Cell(f"SublinearDecrease/fifo/k={k}",
                 RunSpec(k, SublinearDecrease(4), arrivals=PoissonArrivals(0.05),
                         queue_discipline="fifo", max_rounds=2_000)),
        ]
    return [Cell(c.name, c.target, reps=4) for c in cells]


def _single_cells() -> list[Cell]:
    cells = [
        Cell(f"Sawtooth/static/k={k}", RunSpec(k, SawtoothSchedule(), StaticSchedule()))
        for k in (256, 512, 1024)
    ]
    cells += [
        Cell(f"NonAdaptiveWithK/uniform-random/k={k}",
             RunSpec(k, NonAdaptiveWithK(k, 6), _uniform(k)))
        for k in (64, 128, 256)
    ]
    cells += [
        Cell(f"DecreaseSlowly/staggered/k={k}",
             RunSpec(k, DecreaseSlowly(), StaggeredSchedule(1),
                     stop=StopCondition.FIRST_SUCCESS))
        for k in (64, 128, 256)
    ]
    return [Cell(c.name, c.target, reps=4) for c in cells]


def _suite_cells() -> list[Cell]:
    return [Cell(e, e) for e in SUITE_EXPERIMENTS]


_BUILDERS = {
    "fused_sweep": _fused_cells,
    "compiled_sweep": _compiled_cells,
    "object_fallback": _object_cells,
    "single_run": _single_cells,
    "suite_fresh": _suite_cells,
    "suite_resume": _suite_cells,
}

def build_cells(workload: str) -> list[Cell]:
    """The fixed cells of ``workload`` (independent of the seed)."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(_BUILDERS)}")
    return _BUILDERS[workload]()


@dataclass(frozen=True)
class Op:
    """One closed-loop call: a cell and the run seeds it executes."""

    cell: int
    seeds: tuple[int, ...]


def pass_ops(workload: str, cells: list[Cell], seed: int, pass_index: int) -> list[Op]:
    """The op list of one pass, in issue order."""
    if workload == "suite_resume":
        # Every pass replays the journal the set-up pass filled.
        pass_index = 0
    ops = []
    for index, cell in enumerate(cells):
        seeds = [run_seed(seed, pass_index, index, r) for r in range(cell.reps)]
        if cell.batch:
            ops += [
                Op(index, tuple(seeds[i:i + cell.batch]))
                for i in range(0, len(seeds), cell.batch)
            ]
        else:
            ops += [Op(index, (s,)) for s in seeds]
    return ops


def warmup_ops(cells: list[Cell], seed: int) -> list[Op]:
    """Each distinct cell once with one repetition, on a seed no timed pass
    uses."""
    return [Op(i, (run_seed(seed, WARMUP_PASS, i, 0),)) for i in range(len(cells))]


def suite_kwargs(experiment_id: str, run_seed_value: Optional[int]) -> dict:
    """``run_experiment`` keyword arguments of one suite op (jobs=1: all
    load comes from one process)."""
    kwargs = dict(SCALES["quick"].get(experiment_id, {}))
    if "seed" in inspect.signature(EXPERIMENTS[experiment_id]).parameters:
        kwargs["seed"] = run_seed_value
    return kwargs
