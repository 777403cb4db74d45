"""Benchmark of record: seeded workloads, end-to-end metrics, traced layers.

Usage (from the repository root)::

    python3 bench/run.py                                # every workload
    python3 bench/run.py --workload fused_sweep --seed 3 --seconds 10
    python3 bench/run.py --workload suite_fresh --trace 1
    python3 bench/run.py --json out.json                # full result file

Each workload runs in its own child interpreter (``PYTHONPATH=src``) so no
cache or RSS leaks between workloads.  Set-up time is the median of five
fresh interpreters, process start to "CLI imported and inputs built".  The
child then issues ops in a closed loop for ``--seconds`` and checks its
outputs.  With ``--trace 1`` the child spends the first half of the time
untraced and the second half under the span tracer, and the set-up is also
profiled with ``python -X importtime``.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or
its ``per_layer`` metrics (``--trace 1``).  Exit status is 0 only when every
output checked out.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Fresh interpreters timed for set-up: this many set-up-only children plus
#: the workload child's own start-up.
SETUP_CHILDREN = 4
IMPORTTIME_CHILDREN = 3
#: Hard wall-clock cap on one invocation of one workload, seconds.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A child failed in a way that leaves no result to report."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # One process, one thread: all load comes from the closed-loop caller.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(mode: str, workload: str, opts, work: Path, *, deadline: float,
           importtime: bool = False, extra: tuple[str, ...] = ()) -> tuple[float, Path]:
    """Run one child to completion.  Returns (seconds from process start to
    its ``ready`` line, its stderr file)."""
    stderr_path = work / f"{mode}-{time.monotonic_ns()}.stderr"
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "child.py"), "--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--mode", mode, "--work", str(work), *extra]
    with open(stderr_path, "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        tail = stderr_path.read_text()[-3000:]
        raise BenchError(f"{mode} child for {workload} exited {proc.returncode}:\n{tail}")
    return ready, stderr_path


def _importtime(stderr_path: Path) -> dict[str, float]:
    """Sum self import time, overall and for scipy / numpy modules."""
    total = scipy = numpy = 0.0
    for line in stderr_path.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own = float(fields[0]) * 1e-6
        except ValueError:  # the header line
            continue
        module = fields[2].strip()
        total += own
        if module == "scipy" or module.startswith("scipy."):
            scipy += own
        if module == "numpy" or module.startswith("numpy."):
            numpy += own
    return {"setup.import_s": total, "setup.import_scipy_s": scipy,
            "setup.import_numpy_s": numpy}


def run_workload(workload: str, opts) -> dict:
    """Set-up samples, the workload child, and (traced) layer numbers."""
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [_spawn("setup", workload, opts, work, deadline=deadline)[0]
                 for _ in range(SETUP_CHILDREN)]
        imports = []
        if opts.trace:
            for _ in range(IMPORTTIME_CHILDREN):
                _, stderr = _spawn("setup", workload, opts, work, deadline=deadline,
                                      importtime=True)
                imports.append(_importtime(stderr))
        result_path = work / "result.json"
        extra = ("--result", str(result_path))
        if opts.trace:
            extra += ("--trace-out", str(WORK / f"trace-{workload}.jsonl"))
        ready, _ = _spawn("traced" if opts.trace else "timed", workload, opts, work,
                             deadline=deadline, extra=extra)
        setup.append(ready)
        child = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Latency percentiles are taken over cells, of each cell's median op:
    # pooled over ops, a quantile that falls between two cells' costs would
    # jump from one to the other on noise.
    by_cell: dict[int, list[float]] = {}
    for cell, seconds in zip(child["op_cell"], child["op_s"]):
        by_cell.setdefault(cell, []).append(seconds)
    cell_ms = sorted(1e3 * statistics.median(v) for v in by_cell.values())
    metrics = {
        "setup_s": statistics.median(setup),
        "runs_per_s": statistics.median(
            runs / wall for runs, wall in zip(child["runs"], child["pass_s"])),
        "pass_s": statistics.median(child["pass_s"]),
        "op_ms_p50": statistics.median(cell_ms),
        "op_ms_p90": statistics.quantiles(cell_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    if opts.trace:
        traced = child["traced"]
        metrics.update(traced["metrics"])
        for name in imports[0]:
            metrics[name] = statistics.median(sample[name] for sample in imports)
        metrics["trace.overhead"] = (
            statistics.median(child["pass_s"]) / statistics.median(traced["pass_s"]))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    declared = SPEC["end_to_end"] + (SPEC["per_layer"] if opts.trace else [])
    return {
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
                    for m in declared},
        "attempted": child["attempted"],
        "failed": child["failed"],
        "correct": child["failed"] == 0,
        "checks": child["checks"],
        "errors": child["errors"],
        "digest": child["digest"],
        "passes": len(child["pass_s"]),
        "pass_walls_s": child["pass_s"],
        "ops": len(child["op_s"]),
        "cells": len(cell_ms),
        "warmup_s": child["warmup_s"],
        "missing_targets": child.get("traced", {}).get("missing_targets", []),
    }


def _print_workload(name: str, out: dict) -> None:
    print(f"[bench] {name}: {out['passes']} passes, {out['ops']} ops over {out['cells']} cells, "
          f"{out['failed']} failed of {out['attempted']} attempted "
          f"(error_rate {out['failed'] / out['attempted']:.4f}), {out['checks']} checks, "
          f"result_digest {out['digest']}")
    for error in out["errors"]:
        print(f"[bench]   error: {error.strip().splitlines()[-1]}")
    if out["missing_targets"]:
        print(f"[bench]   trace targets not found: {', '.join(out['missing_targets'])}")
    for metric, entry in out["metrics"].items():
        print(f"  {metric:<48} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="write the full result here")
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workloads = opts.workload or WORKLOADS
    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_start": os.getloadavg()[0],
    }
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, opts)
        except BenchError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        _print_workload(workload, results[workload])

    declared = [m["name"] for m in SPEC["per_layer" if opts.trace else "end_to_end"]]
    if len(workloads) == 1:
        metrics = {m: results[workloads[0]]["metrics"][m] for m in declared}
    else:
        metrics = {f"{w}/{m}": results[w]["metrics"][m] for w in workloads for m in declared}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    if opts.json is not None:
        opts.json.write_text(json.dumps({
            "seed": opts.seed, "seconds": opts.seconds, "trace": opts.trace,
            "host": host, "workloads": results,
        }, indent=1))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
