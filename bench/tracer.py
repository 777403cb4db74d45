"""Span tracer that wraps each layer's public entry points from outside.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` looks every
target up by qualified name and replaces *every* reference to the original
object: the attribute on its class, and each entry of each loaded
``repro.*`` module dict that holds it, so call sites written as
``from x import f`` are traced too.  A target that no longer exists is
listed in :attr:`Tracer.missing` and reports zero calls instead of failing,
so a change that deletes a function does not break the benchmark.

Each call records one span ``[layer, target, start, end, parent, op]``.
Spans stay in memory until :meth:`Tracer.write_jsonl`.  A span's self time
is its duration minus the union of its child spans, so the self times of
one op partition the part of its wall time that traced code covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Optional

#: Layer -> the entry points whose spans make up the layer.  Names follow
#: the modules under ``src/repro``.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.spec": ("repro.core.spec.RunSpec.fingerprint",),
    "engine.dispatch": (
        "repro.engine.dispatch.execute",
        "repro.engine.dispatch.execute_batch",
        "repro.engine.dispatch.build_simulator",
        "repro.engine.dispatch.select_engine",
        "repro.engine.dispatch.vectorized_inadmissibility",
        "repro.engine.dispatch.compiled_inadmissibility",
    ),
    "engine.cache": (
        "repro.engine.cache.probability_table",
        "repro.engine.cache.cumulative_hazard",
        "repro.engine.cache.schedule_fingerprint",
    ),
    "engine.plan": (
        "repro.engine.plan.build_plan",
        "repro.engine.plan.tile_rep_cap",
        "repro.engine.plan.estimate_rep_bytes",
    ),
    "engine.compile": (
        "repro.engine.compile.compile_spec",
        "repro.engine.compile.compile_adversary",
        "repro.engine.compile.lowering_reason",
        "repro.engine.compile.adversary_lowering_reason",
    ),
    "channel.batched": ("repro.channel.batched.run_batch",),
    "channel.vectorized": ("repro.channel.vectorized.VectorizedSimulator.run",),
    "channel.compiled": (
        "repro.channel.compiled.run_compiled_batch",
        "repro.channel.compiled.CompiledSimulator.run",
    ),
    "channel.simulator": ("repro.channel.simulator.SlotSimulator.run",),
    "channel.traffic": (
        "repro.channel.traffic.QueueSimulator.run",
        "repro.channel.traffic.traffic_reduction",
        "repro.channel.traffic.draw_packets",
    ),
    "analysis.metrics": (
        "repro.analysis.metrics.MetricSample.add",
        "repro.analysis.metrics.MetricSample.row",
        "repro.analysis.metrics.collect",
    ),
    "experiments.harness": tuple(
        f"repro.experiments.harness.{name}"
        for name in (
            "repeat_schedule_runs",
            "repeat_protocol_runs",
            "repeat_spec_runs",
            "sweep_schedule",
            "sweep_protocol",
            "run_pool",
            "worst_sample",
        )
    ),
    "experiments.executor": ("repro.experiments.executor.RunExecutor.map",),
    "experiments.checkpoint": (
        "repro.experiments.checkpoint.CheckpointJournal.record",
        "repro.experiments.checkpoint.CheckpointJournal.load",
        "repro.experiments.checkpoint.CheckpointJournal.get",
    ),
    # run_experiment's self time is the driver code: analysis and report
    # rendering, plus any simulation a driver runs without a traced layer.
    "experiments.drivers": ("repro.experiments.registry.run_experiment",),
}

#: Layer of the benchmark's own root span around each op.
OP_LAYER = "bench.op"


def _resolve(qualname: str) -> tuple[Optional[object], Optional[str]]:
    """``(owner, attribute)`` for a dotted name, or ``(None, None)``."""
    parts = qualname.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, None
        if parts[-1] in vars(owner):
            return owner, parts[-1]
        return None, None
    return None, None


class Tracer:
    """Records nested spans of wrapped calls while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                self._wrap(layer, target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, qualname: str) -> None:
        owner, attr = _resolve(qualname)
        if owner is None:
            self.missing.append(qualname)
            return
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if not callable(func):
            self.missing.append(qualname)
            return
        wrapper = self._span_wrapper(layer, qualname, func)
        replacement = type(raw)(wrapper) if func is not raw else wrapper
        self._set(owner, attr, raw, replacement)
        for name, module in list(sys.modules.items()):
            if module is owner or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    self._set(module, key, func, wrapper)

    def _set(self, owner: object, attr: str, original: object, new: object) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, new)

    def _span_wrapper(self, layer: str, name: str, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            record = [layer, name, clock(), 0.0, stack[-1] if stack else -1, tracer._op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return wrapper

    def op(self, op_id: int, func, *args):
        """Run one benchmark op under a root span; returns its result."""
        self._op = op_id
        return self._span_wrapper(OP_LAYER, "op", func)(*args)

    # ----------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[4] >= 0:
                children[span[4]].append((span[2], span[3]))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = float("-inf")
            for start, end in sorted(children.get(index, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span[3] - span[2] - covered)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """``{"layers": {layer: self_s}, "targets": {target: self_s},
        "calls": {target: n}, "op_wall_s": ..., "covered_s": ...}``."""
        layers: dict[str, float] = defaultdict(float)
        targets: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        op_wall = 0.0
        for span, own in zip(self.spans, self.self_times()):
            if span[0] == OP_LAYER:
                op_wall += span[3] - span[2]
                continue
            layers[span[0]] += own
            targets[span[1]] += own
            calls[span[1]] += 1
        return {
            "layers": dict(layers),
            "targets": dict(targets),
            "calls": dict(calls),
            "op_wall_s": op_wall,
            "covered_s": sum(layers.values()),
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "layer": layer, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                }, separators=(",", ":")) + "\n")
