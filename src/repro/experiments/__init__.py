"""Experiment drivers regenerating every table and figure (see DESIGN.md)."""

from repro.experiments.executor import (
    RunExecutor,
    get_default_batch_size,
    get_default_jobs,
    set_default_batch_size,
    set_default_jobs,
)
from repro.experiments.harness import (
    SEED_STRIDE,
    ExperimentReport,
    config_seed,
    repeat_protocol_runs,
    repeat_schedule_runs,
    run_grid,
    run_pool,
    run_seed,
    worst_sample,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "SEED_STRIDE",
    "config_seed",
    "run_seed",
    "ExperimentReport",
    "RunExecutor",
    "get_default_batch_size",
    "get_default_jobs",
    "set_default_batch_size",
    "set_default_jobs",
    "repeat_protocol_runs",
    "repeat_schedule_runs",
    "run_grid",
    "run_pool",
    "worst_sample",
    "EXPERIMENTS",
    "run_experiment",
]
