"""Compare result files of two commits, or summarise the spread of one.

Usage (from the repository root)::

    python3 bench/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...
    python3 bench/compare.py --parent p*.json --calibration bench/CALIBRATION.json

Each file is the ``--json`` output of ``bench/run.py``.  Files pair up by
position (run them alternately: parent, change, parent, ...).  For every
workload and metric it prints each side's median and quartiles and the
fraction of pairs the change won (ties count for neither side).  A bounded
metric gets a verdict:

* ``unresolved`` - the parent's quartile spread exceeds the metric's bound
  and not every change run beats every parent run;
* ``improved`` - the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile distance;
* ``regressed`` - the change's median is worse by more than the bound;
* ``unchanged`` - otherwise.

With ``--parent`` alone it prints the spread of each metric against its
bound, and ``--calibration`` records that summary with the host.  The exit
status is 1 when a metric regressed, or (parent side alone) when a spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text()) for path in paths]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as ``statistics.quantiles``
    gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent: list[float], change: list[float], bound: float, higher: bool) -> tuple[float, str]:
    """(fraction of pairs the change won, verdict) for one bounded metric."""
    sign = 1.0 if higher else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    p_med, p_q1, p_q3 = summary(parent)
    c_med = statistics.median(change)
    all_beat = min(change) > max(parent) if higher else max(change) < min(parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_beat:
        return wins, "unresolved"
    if wins >= 0.9 and sign * (c_med - p_med) > p_q3 - p_q1:
        return wins, "improved"
    if p_med and sign * (p_med - c_med) / abs(p_med) > bound:
        return wins, "regressed"
    return wins, "unchanged"


def _series(results: list[dict], workload: str, metric: str) -> list[float]:
    return [r["workloads"][workload]["metrics"][metric]["value"] for r in results
            if metric in r["workloads"].get(workload, {}).get("metrics", {})]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+")
    parser.add_argument("--calibration", type=Path,
                        help="write the parent-side spread summary here")
    opts = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent = _load(opts.parent)
    change = _load(opts.change) if opts.change else None
    if change is not None and len(change) != len(parent):
        print("compare: give as many --change files as --parent files", file=sys.stderr)
        return 2

    workloads = list(dict.fromkeys(w for r in parent for w in r["workloads"]))
    calibration: dict = {}
    worst = 0
    for workload in workloads:
        print(f"== {workload}")
        for metric in units:
            p_values = _series(parent, workload, metric)
            if not p_values:
                continue
            p_med, p_q1, p_q3 = summary(p_values)
            spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
            line = (f"  {metric:<44} {units[metric]:>9}  parent {p_med:12.6g} "
                    f"[{p_q1:.6g}, {p_q3:.6g}] spread {spread:6.2%}")
            bound = bounded.get(metric, {}).get("bound")
            calibration.setdefault(workload, {})[metric] = {
                "median": p_med, "q1": p_q1, "q3": p_q3, "spread": spread, "bound": bound,
            }
            if change is None:
                if bound is not None:
                    line += f"  bound {bound:.0%}" + ("  SPREAD>BOUND" if spread > bound else "")
                    worst = max(worst, int(spread > bound))
                print(line)
                continue
            c_values = _series(change, workload, metric)
            c_med, c_q1, c_q3 = summary(c_values)
            line += f"  change {c_med:12.6g} [{c_q1:.6g}, {c_q3:.6g}]"
            if bound is None:
                print(line)
                continue
            wins, outcome = verdict(p_values, c_values, bound,
                                    bounded[metric]["better"] == "higher")
            worst = max(worst, int(outcome == "regressed"))
            print(f"{line}  won {wins:4.0%}  {outcome}")
    if opts.calibration is not None:
        opts.calibration.write_text(json.dumps({
            "runs": len(parent),
            "seeds": sorted({r["seed"] for r in parent}),
            "seconds": parent[0]["seconds"],
            "host": parent[0]["host"],
            "workloads": calibration,
        }, indent=1) + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
