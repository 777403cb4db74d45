#!/usr/bin/env bash
# Contributor smoke check: install, tests, a quick suite pass, one example.
# Usage: bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== install (editable) =="
# PEP 517 editable install where the toolchain supports it; minimal /
# offline images without wheel fall back to the legacy path.
if ! python3 -m pip install -e . --quiet 2>/dev/null; then
    echo "(pip editable install unavailable; falling back to setup.py develop)"
    python3 setup.py develop >/dev/null
fi

echo "== engine-dispatch lint =="
# Experiment drivers must go through execute(RunSpec(...)) — constructing
# an engine directly bypasses dispatch, the table cache and the
# checkpoint fingerprint derivation.
if grep -rnE "(SlotSimulator|VectorizedSimulator)\(" src/repro/experiments/; then
    echo "error: direct engine construction under src/repro/experiments/;"
    echo "build a RunSpec and call repro.engine.execute instead."
    exit 1
fi

echo "== one-execution-path lint =="
# Only the harness may run simulations: every driver hands (spec, seeds)
# cells to run_grid, which journals, batches and fans them out.  A driver
# importing execute/execute_batch would silently bypass --resume, --jobs
# and batching.  AST-based, so prose mentioning execute() is fine.
python3 - <<'PYEOF'
import ast, pathlib, sys

BANNED = {"execute", "execute_batch"}
bad = []
for path in sorted(pathlib.Path("src/repro/experiments").rglob("*.py")):
    if path.name == "harness.py":
        continue
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and node.attr in BANNED:
            names = {node.attr}
        else:
            continue
        for name in sorted(names & BANNED):
            bad.append(f"{path.as_posix()}:{node.lineno}: {name}")
if bad:
    print("error: experiment drivers must run simulations through")
    print("repro.experiments.harness.run_grid, not the engine directly:")
    for loc in bad:
        print(f"  {loc}")
    sys.exit(1)
PYEOF

echo "== bare-print lint =="
# Library code reports through telemetry, logging or return values; bare
# print() belongs only to the CLI and the report renderer.  AST-based so
# docstring examples don't false-positive.
python3 - <<'PYEOF'
import ast, pathlib, sys

ALLOWED = {"src/repro/cli.py", "src/repro/analysis/reporting.py"}
bad = []
for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
    rel = path.as_posix()
    if rel in ALLOWED:
        continue
    tree = ast.parse(path.read_text(), filename=rel)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            bad.append(f"{rel}:{node.lineno}")
if bad:
    print("error: bare print() in library code (use telemetry or return")
    print("values; printing belongs to cli.py / analysis/reporting.py):")
    for loc in bad:
        print(f"  {loc}")
    sys.exit(1)
PYEOF

echo "== channel np.unique lint =="
# Engine kernels dedup by sorting and masking equal neighbours: on numpy
# 2.x np.unique of an integer key is a hash unique, 403 ms against 7 ms
# for sort plus mask on a 392k-event key.  AST-based, so prose is fine.
python3 - <<'PYEOF'
import ast, pathlib, sys

bad = []
for path in sorted(pathlib.Path("src/repro/channel").rglob("*.py")):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "unique":
            bad.append(f"{path.as_posix()}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "unique" for alias in node.names
        ):
            bad.append(f"{path.as_posix()}:{node.lineno}")
if bad:
    print("error: np.unique under src/repro/channel/ (sort the key and")
    print("mask equal neighbours instead):")
    for loc in bad:
        print(f"  {loc}")
    sys.exit(1)
PYEOF

echo "== unit/integration/property tests =="
# The coverage floor (fail_under) is checked into pyproject.toml under
# [tool.coverage.report]; the gate runs wherever pytest-cov is installed
# (always in CI via the dev extras) and degrades to a plain test run on
# minimal images.
if python3 -c "import pytest_cov" >/dev/null 2>&1; then
    python3 -m pytest tests/ -q --cov=repro --cov-report=term
else
    echo "(pytest-cov unavailable; running without the coverage gate)"
    python3 -m pytest tests/ -q
fi

echo "== quick suite: jobs and resume byte identity =="
# Every registered experiment at quick scale, three ways: serial into a
# fresh journal, two workers into another, and a serial replay of the
# first journal.  All three must write byte-identical CSVs.
rm -rf /tmp/repro-check
python3 -m repro suite --scale quick --out /tmp/repro-check/serial \
    --resume /tmp/repro-check/journal >/dev/null
python3 -m repro suite --scale quick --jobs 2 --out /tmp/repro-check/jobs2 \
    --resume /tmp/repro-check/journal-jobs2 >/dev/null
python3 -m repro suite --scale quick --out /tmp/repro-check/replay \
    --resume /tmp/repro-check/journal >/dev/null
test "$(ls /tmp/repro-check/serial/*.txt | wc -l)" -eq 27
diff -r -x SUMMARY.md /tmp/repro-check/serial /tmp/repro-check/jobs2
diff -r -x SUMMARY.md /tmp/repro-check/serial /tmp/repro-check/replay

echo "== faulted quick suite: resume byte identity =="
# The default fault flags reach every experiment (fifo traffic included):
# a noisy, ack-lossy quick suite into a fresh journal, then its replay,
# must write byte-identical reports.  Energy budgets are left out: they
# force the object engine and make the quick suite run for minutes.
python3 -m repro suite --scale quick --noise 0.05 --ack-loss 0.05 \
    --out /tmp/repro-check/faulted --resume /tmp/repro-check/journal-faulted \
    >/dev/null
python3 -m repro suite --scale quick --noise 0.05 --ack-loss 0.05 \
    --out /tmp/repro-check/faulted-replay \
    --resume /tmp/repro-check/journal-faulted >/dev/null
test "$(ls /tmp/repro-check/faulted/*.txt | wc -l)" -eq 27
diff -r -x SUMMARY.md /tmp/repro-check/faulted /tmp/repro-check/faulted-replay

echo "== crash-safe resume check =="
python3 -m repro run thm51_wakeup --jobs 2 --task-timeout 300 --max-retries 2 \
    --resume /tmp/repro-check/resume --ks 16,32 --reps 2 >/dev/null
python3 -m repro run thm51_wakeup --jobs 2 --task-timeout 300 --max-retries 2 \
    --resume /tmp/repro-check/resume --ks 16,32 --reps 2 | grep -q "resumed="

echo "== quickstart example =="
python3 examples/quickstart.py

echo "All checks passed."
