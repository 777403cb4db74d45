#!/usr/bin/env python3
"""Run the engine benchmarks and append the medians to BENCH_engines.json.

The perf trajectory: every invocation runs the pytest-benchmark suites
under ``benchmarks/`` (engine micro-benchmarks + the batched-kernel
benchmark), normalises each case to its *median* ns per operation, and
records the result in ``BENCH_engines.json`` at the repository root,
keyed by the current git SHA.  Re-running on the same commit overwrites
that commit's entry; entries for other commits are preserved, so the file
accumulates a commit-by-commit throughput history.

Usage::

    python scripts/bench_trajectory.py                 # full (1000 reps)
    python scripts/bench_trajectory.py --reps 200      # CI-sized batch
    python scripts/bench_trajectory.py --min-speedup 1.6  # gate: batched
                                                          # must beat the
                                                          # per-run loop

Exit status is non-zero when the benchmarks fail or the measured batched
speedup falls below ``--min-speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_engines.json"
BENCH_SUITES = [
    "benchmarks/test_bench_engines.py",
    "benchmarks/test_bench_batched.py",
    "benchmarks/test_bench_compiled.py",
    "benchmarks/test_bench_streaming.py",
    "benchmarks/test_bench_adaptive.py",
    "benchmarks/test_bench_faults.py",
]
#: The two cases whose median ratio is the batching speedup.
BASELINE_CASE = "test_bench_per_run_vectorized_loop"
BATCHED_CASE = "test_bench_batched_kernel"
#: The two cases whose median ratio is the compiled-engine speedup
#: (ISSUE acceptance config: k=64 AdaptiveNoK repetitions).
OBJECT_ADAPTIVE_CASE = "test_bench_object_adaptive_loop"
COMPILED_CASE = "test_bench_compiled_adaptive_batch"
#: The tiled kernel (same config as BATCHED_CASE, budget forcing ~8
#: tiles): its ratio over the per-run loop is the streaming speedup, and
#: its ``extra_info`` carries the measured peak RSS.
STREAMING_CASE = "test_bench_streaming_kernel"
#: One config's tiles sharded across the fork pool: the jobs1/jobs4
#: median ratio is the intra-config sharding speedup (meaningful only on
#: multi-core hosts — see ``host.cpu_count``).
SHARDING_JOBS1_CASE = "test_bench_tile_sharding_jobs1"
SHARDING_JOBS4_CASE = "test_bench_tile_sharding_jobs4"
#: PR 9: adaptive adversaries + CD feedback on the compiled stepper.  The
#: burst pair is the ISSUE acceptance config (1000-rep k=64
#: BurstOnQuietAdversary -> ``adaptive_speedup``); the cd pair is a
#: CdAimd collision-detection baseline row (-> ``cd_speedup``).
OBJECT_BURST_CASE = "test_bench_object_burst_loop"
COMPILED_BURST_CASE = "test_bench_compiled_burst_batch"
OBJECT_CD_CASE = "test_bench_object_cd_loop"
COMPILED_CD_CASE = "test_bench_compiled_cd_batch"
#: PR 10: the fault subsystem.  faulted/clean kernel ratio is the cost of
#: the fault path itself (``fault_overhead``, should hover near 1.0x);
#: the per-run-loop/faulted-kernel ratio is the batching win the fault
#: lowering preserves (``fault_path_speedup``).
FAULT_NONE_CASE = "test_bench_fault_none_kernel"
FAULT_BATCHED_CASE = "test_bench_fault_batched_kernel"
FAULT_PER_RUN_CASE = "test_bench_fault_per_run_loop"


def git_sha() -> str:
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def run_benchmarks(reps: int | None, extra_args: list[str]) -> dict:
    """Run the benchmark suites; return pytest-benchmark's JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if reps is not None:
        env["REPRO_BENCH_REPS"] = str(reps)
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "benchmark.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *BENCH_SUITES,
            "-q",
            "-p",
            "no:cacheprovider",
            "--benchmark-json",
            str(report_path),
            *extra_args,
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        return json.loads(report_path.read_text())


def host_metadata() -> dict:
    """The execution environment a trajectory entry was measured on.

    Median ns/op numbers are only comparable within one environment; the
    metadata lets the history distinguish a real regression from a
    machine or interpreter change.
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count() or 0,
    }


def normalise(report: dict, reps: int | None) -> dict:
    """pytest-benchmark report -> {case: median ns/op} plus metadata."""
    cases = {}
    for bench in report.get("benchmarks", []):
        case = {
            "median_ns": round(bench["stats"]["median"] * 1e9, 1),
            "rounds": bench["stats"]["rounds"],
        }
        if bench.get("extra_info"):
            case["extra_info"] = bench["extra_info"]
        cases[bench["name"]] = case
    entry = {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "reps": reps if reps is not None else int(
            os.environ.get("REPRO_BENCH_REPS", "1000")
        ),
        "host": host_metadata(),
        "cases": cases,
    }
    baseline = cases.get(BASELINE_CASE)
    batched = cases.get(BATCHED_CASE)
    if baseline and batched and batched["median_ns"] > 0:
        entry["batched_speedup"] = round(
            baseline["median_ns"] / batched["median_ns"], 2
        )
    obj_adaptive = cases.get(OBJECT_ADAPTIVE_CASE)
    compiled = cases.get(COMPILED_CASE)
    if obj_adaptive and compiled and compiled["median_ns"] > 0:
        entry["compiled_speedup"] = round(
            obj_adaptive["median_ns"] / compiled["median_ns"], 2
        )
    streaming = cases.get(STREAMING_CASE)
    if baseline and streaming and streaming["median_ns"] > 0:
        entry["streaming_speedup"] = round(
            baseline["median_ns"] / streaming["median_ns"], 2
        )
        peak = streaming.get("extra_info", {}).get("peak_rss_kb")
        if peak is not None:
            entry["streaming_peak_rss_kb"] = int(peak)
    jobs1 = cases.get(SHARDING_JOBS1_CASE)
    jobs4 = cases.get(SHARDING_JOBS4_CASE)
    if jobs1 and jobs4 and jobs4["median_ns"] > 0:
        entry["tile_sharding_speedup"] = round(
            jobs1["median_ns"] / jobs4["median_ns"], 2
        )
    obj_burst = cases.get(OBJECT_BURST_CASE)
    comp_burst = cases.get(COMPILED_BURST_CASE)
    if obj_burst and comp_burst and comp_burst["median_ns"] > 0:
        entry["adaptive_speedup"] = round(
            obj_burst["median_ns"] / comp_burst["median_ns"], 2
        )
    obj_cd = cases.get(OBJECT_CD_CASE)
    comp_cd = cases.get(COMPILED_CD_CASE)
    if obj_cd and comp_cd and comp_cd["median_ns"] > 0:
        entry["cd_speedup"] = round(
            obj_cd["median_ns"] / comp_cd["median_ns"], 2
        )
    fault_none = cases.get(FAULT_NONE_CASE)
    fault_batched = cases.get(FAULT_BATCHED_CASE)
    fault_per_run = cases.get(FAULT_PER_RUN_CASE)
    if fault_none and fault_batched and fault_none["median_ns"] > 0:
        entry["fault_overhead"] = round(
            fault_batched["median_ns"] / fault_none["median_ns"], 2
        )
    if fault_per_run and fault_batched and fault_batched["median_ns"] > 0:
        entry["fault_path_speedup"] = round(
            fault_per_run["median_ns"] / fault_batched["median_ns"], 2
        )
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reps", type=int, default=None,
        help="repetition count for the batched suite "
        "(sets REPRO_BENCH_REPS; default 1000)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless batched median throughput beats the per-run "
        "vectorized loop by this factor",
    )
    parser.add_argument(
        "--min-compiled-speedup", type=float, default=None,
        help="fail unless the compiled AdaptiveNoK batch beats the "
        "per-run object loop by this factor",
    )
    parser.add_argument(
        "--min-adaptive-speedup", type=float, default=None,
        help="fail unless the compiled BurstOnQuiet adaptive-adversary "
        "batch beats the per-run object loop by this factor",
    )
    parser.add_argument(
        "--out", type=Path, default=BENCH_FILE,
        help="trajectory file to update (default BENCH_engines.json at "
        "the repo root)",
    )
    args, extra = parser.parse_known_args(argv)

    report = run_benchmarks(args.reps, extra)
    entry = normalise(report, args.reps)
    sha = git_sha()

    trajectory: dict = {"schema": 1, "runs": {}}
    if args.out.exists():
        existing = json.loads(args.out.read_text())
        if isinstance(existing.get("runs"), dict):
            trajectory = existing
    trajectory["runs"][sha] = entry
    args.out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")

    for name, case in sorted(entry["cases"].items()):
        print(f"{name}: median {case['median_ns'] / 1e6:.2f} ms")
    speedup = entry.get("batched_speedup")
    if speedup is not None:
        print(f"batched speedup over per-run loop: {speedup:.2f}x")
    compiled_speedup = entry.get("compiled_speedup")
    if compiled_speedup is not None:
        print(
            "compiled speedup over per-run object loop: "
            f"{compiled_speedup:.2f}x"
        )
    streaming_speedup = entry.get("streaming_speedup")
    if streaming_speedup is not None:
        peak = entry.get("streaming_peak_rss_kb")
        rss = f" (peak RSS {peak / 1024:.0f} MiB)" if peak else ""
        print(
            "streaming (tiled) speedup over per-run loop: "
            f"{streaming_speedup:.2f}x{rss}"
        )
    sharding = entry.get("tile_sharding_speedup")
    if sharding is not None:
        print(
            f"intra-config tile sharding jobs=4 vs jobs=1: {sharding:.2f}x "
            f"on {entry['host']['cpu_count']} cores"
        )
    adaptive_speedup = entry.get("adaptive_speedup")
    if adaptive_speedup is not None:
        print(
            "compiled adaptive-adversary speedup over per-run object "
            f"loop: {adaptive_speedup:.2f}x"
        )
    cd_speedup = entry.get("cd_speedup")
    if cd_speedup is not None:
        print(
            "compiled CD-feedback speedup over per-run object loop: "
            f"{cd_speedup:.2f}x"
        )
    fault_overhead = entry.get("fault_overhead")
    if fault_overhead is not None:
        print(
            "faulted kernel cost over the clean kernel: "
            f"{fault_overhead:.2f}x"
        )
    fault_path_speedup = entry.get("fault_path_speedup")
    if fault_path_speedup is not None:
        print(
            "faulted batched speedup over faulted per-run loop: "
            f"{fault_path_speedup:.2f}x"
        )
    print(f"trajectory updated: {args.out} @ {sha[:12]}")

    if args.min_speedup is not None:
        if speedup is None:
            print("error: speedup cases missing from the benchmark report",
                  file=sys.stderr)
            return 1
        if speedup < args.min_speedup:
            print(
                f"error: batched speedup {speedup:.2f}x is below the "
                f"--min-speedup gate {args.min_speedup:g}x",
                file=sys.stderr,
            )
            return 1
    if args.min_compiled_speedup is not None:
        if compiled_speedup is None:
            print(
                "error: compiled speedup cases missing from the benchmark "
                "report",
                file=sys.stderr,
            )
            return 1
        if compiled_speedup < args.min_compiled_speedup:
            print(
                f"error: compiled speedup {compiled_speedup:.2f}x is below "
                f"the --min-compiled-speedup gate "
                f"{args.min_compiled_speedup:g}x",
                file=sys.stderr,
            )
            return 1
    if args.min_adaptive_speedup is not None:
        if adaptive_speedup is None:
            print(
                "error: adaptive speedup cases missing from the benchmark "
                "report",
                file=sys.stderr,
            )
            return 1
        if adaptive_speedup < args.min_adaptive_speedup:
            print(
                f"error: adaptive speedup {adaptive_speedup:.2f}x is below "
                f"the --min-adaptive-speedup gate "
                f"{args.min_adaptive_speedup:g}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
