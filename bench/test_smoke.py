"""Smoke test of the benchmark: every workload, one traced pass.

    PYTHONPATH=src python -m pytest bench -q

The tier-1 suite does not collect it (``testpaths = ["tests"]``).  It checks
that the benchmark runs and emits what ``BENCHMARK.json`` declares; the
numbers it sees are not measurements.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = SPEC["end_to_end"] + SPEC["per_layer"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Two streams of workloads, one per core, keep the test well under 90 s.
STREAMS = (
    ("suite_fresh", "fused_sweep", "compiled_sweep"),
    ("suite_resume", "object_fallback", "single_run"),
)


def _run(stream: tuple[str, ...]) -> tuple[subprocess.CompletedProcess, Path]:
    path = OUT / f"smoke-{stream[0]}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--trace", "--seconds", "0",
           "--json", str(path)]
    for workload in stream:
        cmd += ["--workload", workload]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170), path


@pytest.fixture(scope="module")
def runs():
    OUT.mkdir(exist_ok=True)
    with ThreadPoolExecutor(len(STREAMS)) as pool:
        done = list(pool.map(_run, STREAMS))
    for proc, _ in done:
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-3000:]
    return done


@pytest.fixture(scope="module")
def results(runs):
    merged = {}
    for _, path in runs:
        merged.update(json.loads(path.read_text())["workloads"])
    return merged


def test_every_workload_ran(results):
    assert set(results) == {w["name"] for w in SPEC["workloads"]}


def test_every_declared_metric_is_emitted(results):
    for workload, out in results.items():
        for metric in DECLARED:
            entry = out["metrics"][metric["name"]]
            assert math.isfinite(entry["value"]), (workload, metric["name"])
            assert entry["unit"] == metric["unit"], (workload, metric["name"])


def test_names_are_well_formed(results):
    names = [m["name"] for m in DECLARED] + [w["name"] for w in SPEC["workloads"]]
    names += [name for out in results.values() for name in out["metrics"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len({m["name"] for m in DECLARED}) == len(DECLARED)


def test_no_op_fails(results):
    for workload, out in results.items():
        assert out["attempted"] > 0, workload
        assert out["failed"] == 0, (workload, out["errors"])


def test_layer_spans_cover_each_op(results):
    for workload, out in results.items():
        assert 0.95 <= out["metrics"]["trace.closure"]["value"] <= 1.05, workload


def test_last_line_is_the_result(runs):
    for proc, _ in runs:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True


def test_refuses_without_sources():
    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "single_run"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
