"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro run thm51_wakeup
    python -m repro run table1_latency --reps 3 --seed 7 --csv out/
    python -m repro run fig3_lower_bound_instance --k 2048
    python -m repro run table1_latency --jobs 4      # 4 worker processes
    python -m repro suite --scale paper --jobs 0     # all cores
    python -m repro run thm51_wakeup --telemetry out/telemetry
    python -m repro stats out/telemetry              # render the artefacts

Arbitrary driver keyword overrides are passed as ``--key value`` pairs;
integers, floats and comma-separated integer tuples are auto-coerced
(``--ks 32,64,128``).
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.dispatch import ENGINE_NAMES
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.export import write_report_csv

__all__ = ["main"]


def _coerce(value: str):
    """Best-effort string -> python value for driver overrides."""
    if "," in value:
        parts = [p for p in value.split(",") if p]
        return tuple(_coerce(p) for p in parts)
    for converter in (int, float):
        try:
            return converter(value)
        except ValueError:
            continue
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


def _parse_overrides(pairs: list[str]) -> dict[str, object]:
    if len(pairs) % 2 != 0:
        raise SystemExit("overrides must come in --key value pairs")
    overrides = {}
    for key, value in zip(pairs[::2], pairs[1::2]):
        if not key.startswith("--"):
            raise SystemExit(f"expected an option starting with --, got {key!r}")
        overrides[key[2:].replace("-", "_")] = _coerce(value)
    return overrides


def _export_telemetry(directory: str | None) -> None:
    """Flush the run's telemetry artefacts and say where they landed."""
    if directory is None:
        return
    from repro import telemetry

    jsonl_path, prom_path = telemetry.export_to_dir(directory)
    print(f"\n[telemetry written to {jsonl_path} and {prom_path}; "
          f"render with `repro stats {directory}`]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contention resolution on asynchronous shared channels "
        "(paper reproduction experiments)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiment ids")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (see `list`)")
    run_parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write the raw rows as CSV into DIR",
    )
    run_parser.add_argument(
        "--jobs", metavar="N", type=int, default=None,
        help="worker processes for the run (0 = all cores; default serial); "
        "results are bit-identical for any worker count",
    )
    run_parser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="journal completed runs to DIR and skip runs already journaled "
        "there; an interrupted run rerun with the same configuration "
        "produces a byte-identical report",
    )
    run_parser.add_argument(
        "--task-timeout", metavar="SECONDS", type=float, default=None,
        help="declare one run attempt hung (or its worker dead) after "
        "SECONDS and re-submit it; default no timeout",
    )
    run_parser.add_argument(
        "--max-retries", metavar="N", type=int, default=None,
        help="re-submissions allowed per crashed/hung run before giving up "
        "(default 0 = fail fast); retried runs reuse their seed, so "
        "recovery never changes results",
    )
    run_parser.add_argument(
        "--engine", choices=ENGINE_NAMES,
        default=None,
        help="engine dispatch override: auto (default) picks the fastest "
        "admissible engine (vectorised, then compiled, then object); "
        "cross-check shadows each run with the reference engine and "
        "asserts agreement",
    )
    run_parser.add_argument(
        "--batch-size", metavar="N", type=int, default=None,
        help="fuse up to N same-configuration repetitions into one batched "
        "kernel call (default 64; 1 = per-run execution); results are "
        "byte-identical for every batch size",
    )
    run_parser.add_argument(
        "--memory-budget", metavar="SIZE", default=None,
        help="cap each batched kernel call's estimated working set "
        "(e.g. 4G, 512M, 1073741824); repetitions stream through "
        "memory-bounded tiles that shard across --jobs workers; results "
        "are byte-identical for every budget",
    )
    run_parser.add_argument(
        "--tile-reps", metavar="N", type=int, default=None,
        help="explicit repetitions per streaming tile (overrides the "
        "--memory-budget-derived cap)",
    )
    run_parser.add_argument(
        "--tile-rounds", metavar="N", type=int, default=None,
        help="rounds per ack-resolution window inside a tile (bounds the "
        "fixpoint's transient working set)",
    )
    run_parser.add_argument(
        "--noise", metavar="P", type=float, default=None,
        help="inject channel noise: each round is corrupted (success -> "
        "collision) independently with probability P; see docs/faults.md",
    )
    run_parser.add_argument(
        "--ack-loss", metavar="P", type=float, default=None,
        help="drop the winner's acknowledgement with probability P per "
        "successful round; the sender keeps contending",
    )
    run_parser.add_argument(
        "--energy-budget", metavar="E", type=int, default=None,
        help="give each station E transmit/listen charges; an exhausted "
        "station switches off (forces the object engine)",
    )
    run_parser.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="enable the telemetry registry for the run and export a JSONL "
        "span/event log plus an OpenMetrics snapshot into DIR "
        "(render them with `repro stats DIR`)",
    )
    run_parser.add_argument(
        "--trace-sample", metavar="N", type=int, default=0,
        help="with --telemetry: record one object-engine round-trace event "
        "every N simulated rounds (default 0 = off)",
    )

    suite_parser = subparsers.add_parser(
        "suite", help="run every experiment at a chosen scale"
    )
    suite_parser.add_argument(
        "--scale", choices=("quick", "paper"), default="quick",
        help="quick = minutes, paper = the benchmark configurations",
    )
    suite_parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="write each report (txt + csv) into DIR",
    )
    suite_parser.add_argument(
        "--only", metavar="IDS", default=None,
        help="comma-separated subset of experiment ids",
    )
    suite_parser.add_argument(
        "--jobs", metavar="N", type=int, default=None,
        help="worker processes per experiment (0 = all cores; default serial)",
    )
    suite_parser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="journal completed runs to DIR (one JSONL per experiment) and "
        "skip runs already journaled; rerunning an interrupted suite "
        "re-executes only the missing runs",
    )
    suite_parser.add_argument(
        "--task-timeout", metavar="SECONDS", type=float, default=None,
        help="per-run hang/kill detector for worker processes (seconds)",
    )
    suite_parser.add_argument(
        "--max-retries", metavar="N", type=int, default=None,
        help="re-submissions allowed per crashed/hung run (default 0)",
    )
    suite_parser.add_argument(
        "--engine", choices=ENGINE_NAMES,
        default=None,
        help="engine dispatch override for every run in the suite",
    )
    suite_parser.add_argument(
        "--batch-size", metavar="N", type=int, default=None,
        help="batched-kernel chunk size for every experiment in the suite "
        "(default 64; 1 = per-run execution)",
    )
    suite_parser.add_argument(
        "--memory-budget", metavar="SIZE", default=None,
        help="working-set cap per batched kernel call for every experiment "
        "(e.g. 4G, 512M); see `repro run --help`",
    )
    suite_parser.add_argument(
        "--tile-reps", metavar="N", type=int, default=None,
        help="explicit repetitions per streaming tile",
    )
    suite_parser.add_argument(
        "--tile-rounds", metavar="N", type=int, default=None,
        help="rounds per ack-resolution window inside a tile",
    )
    suite_parser.add_argument(
        "--noise", metavar="P", type=float, default=None,
        help="inject channel noise into every run of the suite "
        "(success -> collision with probability P per round)",
    )
    suite_parser.add_argument(
        "--ack-loss", metavar="P", type=float, default=None,
        help="drop acknowledgements with probability P in every run",
    )
    suite_parser.add_argument(
        "--energy-budget", metavar="E", type=int, default=None,
        help="per-station charge budget for every run (object engine)",
    )
    suite_parser.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="enable the telemetry registry for the whole suite and export "
        "JSONL + OpenMetrics artefacts into DIR",
    )
    suite_parser.add_argument(
        "--trace-sample", metavar="N", type=int, default=0,
        help="with --telemetry: record one object-engine round-trace event "
        "every N simulated rounds (default 0 = off)",
    )

    stats_parser = subparsers.add_parser(
        "stats", help="render a telemetry directory's metrics and top spans"
    )
    stats_parser.add_argument(
        "directory", help="directory previously passed to --telemetry"
    )
    stats_parser.add_argument(
        "--top", metavar="N", type=int, default=15,
        help="how many spans to show, ranked by total time (default 15)",
    )

    args, extra = parser.parse_known_args(argv)

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    if args.command == "stats":
        from repro.telemetry.stats import render_stats

        try:
            print(render_stats(args.directory, top=args.top))
        except FileNotFoundError as error:
            print(error, file=sys.stderr)
            return 2
        return 0

    telemetry_dir = args.telemetry
    if telemetry_dir is not None:
        from repro import telemetry

        telemetry.enable(trace_sample=max(0, int(args.trace_sample)))

    if args.command == "suite":
        from repro.experiments.suite import run_suite

        only = args.only.split(",") if args.only else None
        try:
            run_suite(
                args.scale,
                out_dir=args.out,
                only=only,
                jobs=args.jobs,
                resume_dir=args.resume,
                task_timeout=args.task_timeout,
                max_retries=args.max_retries,
                engine=args.engine,
                batch_size=args.batch_size,
                memory_budget=args.memory_budget,
                tile_reps=args.tile_reps,
                tile_rounds=args.tile_rounds,
                noise=args.noise,
                ack_loss=args.ack_loss,
                energy_budget=args.energy_budget,
            )
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        _export_telemetry(telemetry_dir)
        return 0

    overrides = _parse_overrides(extra)
    csv_dir = args.csv
    try:
        report = run_experiment(
            args.experiment,
            jobs=args.jobs,
            resume_dir=args.resume,
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            engine=args.engine,
            batch_size=args.batch_size,
            memory_budget=args.memory_budget,
            tile_reps=args.tile_reps,
            tile_rounds=args.tile_rounds,
            noise=args.noise,
            ack_loss=args.ack_loss,
            energy_budget=args.energy_budget,
            **overrides,
        )
    except (KeyError, ValueError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(report.text)
    wall = report.timings.get("wall_s")
    if wall is not None:
        extras = ""
        resumed = int(report.timings.get("runs_resumed", 0))
        if resumed:
            extras += f", resumed={resumed}"
        retries = int(report.timings.get("task_retries", 0))
        if retries:
            extras += f", retries={retries}"
        print(
            f"\n[{args.experiment}: {wall:.1f}s, "
            f"jobs={int(report.timings['jobs'])}{extras}]"
        )
    if csv_dir is not None:
        path = write_report_csv(report, csv_dir)
        print(f"\n[rows written to {path}]")
    _export_telemetry(telemetry_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
