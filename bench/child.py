"""One workload in a fresh interpreter: set-up, warm-up, timed passes, checks.

``bench/run.py`` starts this script with ``PYTHONPATH=src``; it is not a
user entry point.  The script prints ``ready`` once the CLI is imported and
the workload's inputs are built (the parent times process start -> that
line as set-up), then:

* ``--mode setup``: exits;
* ``--mode timed``: warms up, runs closed-loop passes for ``--seconds``,
  verifies outputs, and writes a JSON result to ``--result``;
* ``--mode traced``: the same, but spends the first half of ``--seconds``
  untraced and the second half with the span tracer and the
  ``repro.telemetry`` registry on, and adds per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace-out", type=Path)
    return parser.parse_args(argv)


args = _parse(sys.argv[1:])

# ---------------------------------------------------------------- set-up
import repro.cli  # noqa: E402,F401  (the user's cold start: `repro run ...`)
from repro import engine  # noqa: E402
from repro.channel.validate import validate_run  # noqa: E402
from repro.experiments import checkpoint, registry  # noqa: E402
from repro.experiments.export import rows_to_csv  # noqa: E402

import workloads as W  # noqa: E402

CELLS = W.build_cells(args.workload)
SUITE = args.workload in W.SUITE_WORKLOADS
print("ready", flush=True)


def _payload_bytes(result) -> bytes:
    return json.dumps(checkpoint.result_to_payload(result), separators=(",", ":")).encode()


def _report_bytes(report) -> bytes:
    """The rendered report: text and CSV, never row dicts (a NaN cell makes
    two identical row lists compare unequal)."""
    return report.text.encode() + b"\0" + rows_to_csv(report.rows).encode()


class Workload:
    """Runs ops of one workload and keeps what verification needs."""

    def __init__(self, work: Path):
        self.work = work
        self.failed: set[tuple[int, int]] = set()
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        #: (pass, op index, op, results) kept from pass 0 for verification.
        self.samples: list[tuple[int, int, W.Op, list]] = []
        #: suite op index -> sha256 of the pass-0 (or journal-fill) report.
        self.reference: dict[int, str] = {}

    def resume_dir(self, pass_index: int) -> Path:
        name = "fill" if args.workload == "suite_resume" else f"pass-{pass_index}"
        return self.work / name

    def call(self, op: W.Op, pass_index: int):
        """One op through the public entry point; returns what it produced
        and how many simulation runs it completed."""
        cell = CELLS[op.cell]
        if SUITE:
            report = registry.run_experiment(
                cell.target,
                jobs=1,
                resume_dir=str(self.resume_dir(pass_index)),
                **W.suite_kwargs(cell.target, op.seeds[0]),
            )
            runs = report.timings.get("runs_journaled", 0) + report.timings.get("runs_resumed", 0)
            return report, int(runs)
        if cell.batch:
            return engine.execute_batch(cell.target, list(op.seeds)), len(op.seeds)
        return [engine.execute(cell.target.with_seed(op.seeds[0]))], 1

    def fail(self, key: tuple[int, int], message: str) -> None:
        self.failed.add(key)
        if len(self.errors) < 20:
            self.errors.append(message)

    def keep(self, pass_index: int, index: int, op: W.Op, out) -> None:
        """Fold op output into the digest / samples / reference, untimed."""
        if SUITE:
            if args.workload == "suite_fresh" and pass_index != 0:
                return
            digest = hashlib.sha256(_report_bytes(out)).hexdigest()
            if pass_index == 0 and index not in self.reference:
                self.reference[index] = digest
                self.digest.update(digest.encode())
            elif self.reference.get(index) != digest:
                self.fail((pass_index, index),
                          f"{CELLS[op.cell].name}: report differs from the journal-fill pass")
            return
        if pass_index != 0:
            return
        for result in out:
            self.digest.update(_payload_bytes(result))
        self.samples.append((pass_index, index, op, out[:2]))


def run_passes(wl: Workload, seconds: float, first_pass: int, trace=None) -> dict:
    """Closed loop: whole passes until ``seconds`` of wall time have gone."""
    walls, runs, op_s, op_cell = [], [], [], []
    journal_bytes = 0
    start = time.perf_counter()
    pass_index = first_pass
    while not walls or time.perf_counter() - start < seconds:
        ops = W.pass_ops(args.workload, CELLS, args.seed, pass_index)
        bytes_before = _journal_bytes(wl.work)
        wall = 0.0
        done = 0
        for index, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if trace is not None:
                    out, n = trace.op(len(op_s), wl.call, op, pass_index)
                else:
                    out, n = wl.call(op, pass_index)
            except Exception:
                dt = time.perf_counter() - t0
                wl.fail((pass_index, index), traceback.format_exc(limit=4))
                out, n = None, 0
            else:
                dt = time.perf_counter() - t0
            wall += dt
            done += n
            op_s.append(dt)
            op_cell.append(op.cell)
            if out is not None:
                wl.keep(pass_index, index, op, out)
        walls.append(wall)
        runs.append(done)
        journal_bytes += _journal_bytes(wl.work) - bytes_before
        if args.workload == "suite_fresh" and pass_index > 0:
            shutil.rmtree(wl.resume_dir(pass_index), ignore_errors=True)
        pass_index += 1
    return {"pass_s": walls, "runs": runs, "op_s": op_s, "op_cell": op_cell,
            "next_pass": pass_index,
            "attempted": len(op_s), "journal_bytes": journal_bytes}


def verify(wl: Workload) -> int:
    """Check outputs against a reference engine, untimed.  Returns checks
    made; every mismatch marks its op failed."""
    checks = 0
    if SUITE:
        if args.workload == "suite_fresh":
            # Replay pass 0 against its own journal: fresh and resumed (or,
            # for drivers that bypass the journal, repeated) reports must
            # be byte-identical.
            for index, op in enumerate(W.pass_ops(args.workload, CELLS, args.seed, 0)):
                if (0, index) in wl.failed:
                    continue
                checks += 1
                try:
                    report, _ = wl.call(op, 0)
                except Exception:
                    wl.fail((0, index), traceback.format_exc(limit=4))
                    continue
                if hashlib.sha256(_report_bytes(report)).hexdigest() != wl.reference[index]:
                    wl.fail((0, index), f"{CELLS[op.cell].name}: resumed report differs")
        index_of = {cell.target: i for i, cell in enumerate(CELLS)}
        for journal in sorted(wl.resume_dir(0).glob("*.runs.jsonl")):
            experiment = journal.name.split(".runs.jsonl")[0]
            with open(journal, encoding="utf-8") as handle:
                lines = [next(handle, "") for _ in range(2)]
            for line in filter(None, lines):
                checks += 1
                try:
                    validate_run(checkpoint.payload_to_result(json.loads(line)["r"]))
                except Exception as error:
                    wl.fail((0, index_of.get(experiment, -1)),
                            f"{experiment}: journaled run invalid: {error}")
        return checks

    for pass_index, index, op, results in wl.samples:
        cell = CELLS[op.cell]
        seeds = op.seeds[:len(results)]
        try:
            for result in results:
                checks += 1
                validate_run(result)
            if args.workload == "fused_sweep":
                refs = [engine.execute(cell.target.with_seed(s), engine="vectorized")
                        for s in seeds]
            elif args.workload == "single_run":
                refs = engine.execute_batch(cell.target, list(seeds), engine="vectorized")
            elif args.workload == "compiled_sweep":
                results, seeds = results[:1], seeds[:1]
                refs = [engine.execute(cell.target.with_seed(seeds[0]), engine="object")]
            else:  # object_fallback: a determinism re-run
                refs = [engine.execute(cell.target.with_seed(s)) for s in seeds]
        except Exception:
            wl.fail((pass_index, index), traceback.format_exc(limit=4))
            continue
        for seed, result, ref in zip(seeds, results, refs):
            checks += 1
            if _payload_bytes(result) != _payload_bytes(ref):
                wl.fail((pass_index, index), f"{cell.name} seed {seed}: engines disagree")
    return checks


def layer_metrics(tracer, tel: dict, passes: int) -> dict[str, float]:
    """Per-layer numbers of the traced half, per pass."""
    summary = tracer.summary()
    layer = summary["layers"]
    target = summary["targets"]
    calls = summary["calls"]
    counters = tel["counters"]
    spans = tel["spans"]

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def span_total(name: str) -> float:
        return spans.get(name, [0, 0.0])[1]

    def count(name: str) -> float:
        return counters.get(name, 0)

    journal = "repro.experiments.checkpoint.CheckpointJournal."
    runs = (count("engine.select.vectorized") + count("engine.select.compiled")
            + count("engine.select.object") + count("engine.batch_fused_runs"))
    out = {
        "core.spec.fingerprint_s": per_pass(layer.get("core.spec", 0.0)),
        "core.spec.fingerprint_calls": per_pass(calls.get("repro.core.spec.RunSpec.fingerprint", 0)),
        "engine.dispatch.self_s": per_pass(layer.get("engine.dispatch", 0.0)),
        "engine.dispatch.object_share": ratio(count("engine.select.object"), runs),
        "engine.cache.self_s": per_pass(layer.get("engine.cache", 0.0)),
        "engine.cache.hit_ratio": ratio(count("engine.cache.hit"),
                                        count("engine.cache.hit") + count("engine.cache.miss")),
        "engine.plan.self_s": per_pass(layer.get("engine.plan", 0.0)),
        "engine.plan.calls": per_pass(calls.get("repro.engine.plan.build_plan", 0)),
        "engine.compile.self_s": per_pass(layer.get("engine.compile", 0.0)),
        "engine.compile.calls": per_pass(calls.get("repro.engine.compile.compile_spec", 0)),
        "channel.batched.self_s": per_pass(layer.get("channel.batched", 0.0)),
        "channel.batched.ns_per_event": 1e9 * ratio(layer.get("channel.batched", 0.0),
                                                    count("batched.events")),
        "channel.batched.fixpoint_passes_per_batch": ratio(count("batched.fixpoint_passes"),
                                                           count("batched.batches")),
    }
    for phase in ("draws", "key_build", "sort", "resolve", "materialize"):
        out[f"channel.batched.phase.{phase}_s"] = per_pass(span_total(f"batched.{phase}"))
    out.update({
        "channel.vectorized.self_s": per_pass(layer.get("channel.vectorized", 0.0)),
        "channel.vectorized.ns_per_event": 1e9 * ratio(layer.get("channel.vectorized", 0.0),
                                                       count("vectorized.events")),
        "channel.compiled.self_s": per_pass(layer.get("channel.compiled", 0.0)),
        "channel.compiled.ns_per_round": 1e9 * ratio(layer.get("channel.compiled", 0.0),
                                                     count("compiled.rounds")),
        "channel.simulator.self_s": per_pass(layer.get("channel.simulator", 0.0)),
        "channel.simulator.us_per_round": 1e6 * ratio(layer.get("channel.simulator", 0.0),
                                                      count("simulator.rounds")),
        "channel.traffic.self_s": per_pass(layer.get("channel.traffic", 0.0)),
        "faults.plan_s": per_pass(span_total("fault.plan")),
        "analysis.metrics.fold_s": per_pass(layer.get("analysis.metrics", 0.0)),
        "experiments.harness.self_s": per_pass(layer.get("experiments.harness", 0.0)),
        "experiments.executor.self_s": per_pass(layer.get("experiments.executor", 0.0)),
        "experiments.checkpoint.record_s": per_pass(target.get(journal + "record", 0.0)),
        "experiments.checkpoint.record_calls": per_pass(calls.get(journal + "record", 0)),
        "experiments.checkpoint.load_s": per_pass(target.get(journal + "load", 0.0)),
        "experiments.checkpoint.get_s": per_pass(target.get(journal + "get", 0.0)),
        "experiments.checkpoint.resume_hit_ratio": ratio(
            count("checkpoint.runs_resumed"),
            count("checkpoint.runs_resumed") + count("checkpoint.runs_journaled")),
        "experiments.drivers.self_s": per_pass(layer.get("experiments.drivers", 0.0)),
        "trace.closure": ratio(summary["covered_s"], summary["op_wall_s"]),
    })
    return out


def _journal_bytes(work: Path) -> int:
    return sum(p.stat().st_size for p in work.rglob("*.runs.jsonl"))


def main() -> int:
    wl = Workload(args.work)
    args.work.mkdir(parents=True, exist_ok=True)
    result: dict = {}

    t0 = time.perf_counter()
    if args.workload == "suite_resume":
        # Fill the journal the timed passes replay; its reports are the
        # reference every replay must match.
        for index, op in enumerate(W.pass_ops(args.workload, CELLS, args.seed, 0)):
            try:
                report, _ = wl.call(op, 0)
            except Exception:
                wl.fail((0, index), traceback.format_exc(limit=4))
                continue
            wl.keep(0, index, op, report)
    else:
        for op in W.warmup_ops(CELLS, args.seed):
            wl.call(op, W.WARMUP_PASS)
        shutil.rmtree(wl.resume_dir(W.WARMUP_PASS), ignore_errors=True)
    result["warmup_s"] = time.perf_counter() - t0

    untraced_seconds = args.seconds / 2 if args.mode == "traced" else args.seconds
    timed = run_passes(wl, untraced_seconds, first_pass=0)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(timed)

    if args.mode == "traced":
        from repro.telemetry import registry as telemetry

        import tracer as T

        tracer = T.Tracer()
        tracer.install()
        telemetry.reset()
        telemetry.enable()
        tracer.active = True
        try:
            traced = run_passes(wl, args.seconds / 2, timed["next_pass"], trace=tracer)
        finally:
            tracer.active = False
            telemetry.disable()
        passes = len(traced["pass_s"])
        metrics = layer_metrics(tracer, telemetry.snapshot(), passes)
        metrics["experiments.checkpoint.bytes_written"] = traced["journal_bytes"] / passes
        tracer.uninstall()
        if args.trace_out is not None:
            tracer.write_jsonl(args.trace_out)
        result["traced"] = {
            "pass_s": traced["pass_s"],
            "missing_targets": tracer.missing,
            "metrics": metrics,
        }
        result["attempted"] += traced["attempted"]

    result["checks"] = verify(wl)
    result["failed"] = len(wl.failed)
    result["errors"] = wl.errors
    result["digest"] = wl.digest.hexdigest()[:16]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__" and args.mode != "setup":
    sys.exit(main())
