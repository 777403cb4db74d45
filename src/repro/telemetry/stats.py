"""``repro stats <dir>``: render a telemetry directory as readable tables.

Reads the two artefacts a ``--telemetry`` run writes (see
:mod:`repro.telemetry.export`) and renders, via the repository's ASCII
table helper:

* a metrics summary — every counter and gauge from ``metrics.prom``;
* histogram summaries (count / mean / min / max);
* the top spans by total time, aggregated from ``telemetry.jsonl`` —
  the per-event log, so the table reflects every recorded span even
  across multiple exports into the same directory.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from repro.telemetry.export import JSONL_NAME, OPENMETRICS_NAME
from repro.util.ascii_chart import render_table

__all__ = ["read_openmetrics", "read_spans", "render_stats"]

_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>[^\s]+)$'
)
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def read_openmetrics(path: str | Path) -> dict:
    """Parse an exported textfile back into plain dicts.

    Only the subset this repository writes is understood; unknown lines
    are skipped rather than fatal.  Returns ``{"counters": {...},
    "gauges": {...}, "histograms": {name: {"count", "sum"}},
    "spans": {name: {"count", "sum", "min", "max"}}}``.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, float]] = {}
    spans: dict[str, dict[str, float]] = {}
    types: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError:
            continue
        labels = dict(_LABEL.findall(match.group("labels") or ""))
        if name.startswith("repro_span_seconds_"):
            span = labels.get("span", "")
            field = name.removeprefix("repro_span_seconds_")
            spans.setdefault(span, {})[field] = value
            continue
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                if types.get(base) == "histogram":
                    if suffix != "_bucket":
                        histograms.setdefault(base, {})[suffix[1:]] = value
                    break
        else:
            if name.endswith("_total") and types.get(name[:-6]) == "counter":
                counters[name[:-6]] = value
            elif types.get(name) == "gauge":
                gauges[name] = value
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "spans": spans,
    }


def read_spans(path: str | Path) -> dict[str, dict[str, float]]:
    """Aggregate the JSONL event log's spans by name.

    Returns ``{name: {"count", "total_s", "min_s", "max_s"}}``; malformed
    lines (a crash can truncate the last one) are skipped.
    """
    spans: dict[str, dict[str, float]] = {}
    path = Path(path)
    if not path.exists():
        return spans
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict) or record.get("kind") != "span":
                continue
            name = str(record.get("name", ""))
            try:
                dur = float(record["dur_s"])
            except (KeyError, TypeError, ValueError):
                continue
            agg = spans.get(name)
            if agg is None:
                spans[name] = {
                    "count": 1,
                    "total_s": dur,
                    "min_s": dur,
                    "max_s": dur,
                }
            else:
                agg["count"] += 1
                agg["total_s"] += dur
                agg["min_s"] = min(agg["min_s"], dur)
                agg["max_s"] = max(agg["max_s"], dur)
    return spans


def _ms(seconds: float) -> float:
    return seconds * 1e3


def render_stats(directory: str | Path, *, top: int = 15) -> str:
    """The full ``repro stats`` report for one telemetry directory."""
    directory = Path(directory)
    prom_path = directory / OPENMETRICS_NAME
    jsonl_path = directory / JSONL_NAME
    if not prom_path.exists() and not jsonl_path.exists():
        raise FileNotFoundError(
            f"no telemetry artefacts in {directory} (expected "
            f"{OPENMETRICS_NAME} and/or {JSONL_NAME}; produce them with "
            f"`repro run <id> --telemetry {directory}`)"
        )
    sections: list[str] = [f"Telemetry summary: {directory}"]

    metrics = (
        read_openmetrics(prom_path)
        if prom_path.exists()
        else {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}
    )
    rows = [
        [name.removeprefix("repro_").replace("_", "."), "counter", value]
        for name, value in sorted(metrics["counters"].items())
    ] + [
        [name.removeprefix("repro_").replace("_", "."), "gauge", value]
        for name, value in sorted(metrics["gauges"].items())
    ]
    if rows:
        sections.append(
            "## Metrics\n" + render_table(["metric", "type", "value"], rows)
        )

    counters = metrics["counters"]
    batches = counters.get("repro_batched_batches", 0.0)
    if batches and "repro_batched_fixpoint_events" in counters:
        events = counters.get("repro_batched_events", 0.0)
        reexamined = counters["repro_batched_fixpoint_events"]
        sections.append(
            "## Batched ack fixpoint\n"
            + render_table(
                ["passes/batch", "re-examined events/batch", "share of events"],
                [[
                    counters.get("repro_batched_fixpoint_passes", 0.0) / batches,
                    reexamined / batches,
                    reexamined / events if events else math.nan,
                ]],
            )
        )

    hist_rows = []
    for name, agg in sorted(metrics["histograms"].items()):
        hist_count = agg.get("count", 0.0)
        total = agg.get("sum", 0.0)
        mean = total / hist_count if hist_count else math.nan
        hist_rows.append(
            [name.removeprefix("repro_").replace("_", "."), hist_count, total, mean]
        )
    if hist_rows:
        sections.append(
            "## Histograms\n"
            + render_table(["histogram", "count", "sum", "mean"], hist_rows)
        )

    spans = read_spans(jsonl_path)
    if not spans:
        # No JSONL (or no spans in it): fall back to the textfile's
        # aggregates so `stats` still shows where time went.
        spans = {
            name: {
                "count": agg.get("count", 0.0),
                "total_s": agg.get("sum", 0.0),
                "min_s": agg.get("min", math.nan),
                "max_s": agg.get("max", math.nan),
            }
            for name, agg in metrics["spans"].items()
        }
    if spans:
        ranked = sorted(
            spans.items(), key=lambda item: item[1]["total_s"], reverse=True
        )
        span_rows = [
            [
                name,
                int(agg["count"]),
                _ms(agg["total_s"]),
                _ms(agg["total_s"] / agg["count"]) if agg["count"] else math.nan,
                _ms(agg["max_s"]),
            ]
            for name, agg in ranked[:top]
        ]
        sections.append(
            f"## Top spans by total time (top {min(top, len(ranked))} of "
            f"{len(ranked)})\n"
            + render_table(
                ["span", "count", "total_ms", "mean_ms", "max_ms"], span_rows
            )
        )
    return "\n\n".join(sections)
