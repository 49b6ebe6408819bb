"""Summarise and compare sets of benchmark runs.

Usage, from the repository root::

    python3 perfbench/compare.py RUNS_A [RUNS_B]

Each argument is a file, or a directory of files, holding the standard
output of ``perfbench/run.py`` runs. For every workload and metric it
prints the median over the set's runs and the spread (the distance
between the first and third quartile as a share of the median), marking
end-to-end metrics whose spread exceeds a third of their bound (``~``)
or the bound itself (``!``). With two sets it also prints each median's
change from A to B, signed so that positive is worse, and marks changes
beyond the bound (``REGRESSED``). Runs whose input digests differ (the
graph of a workload, or the stream of a workload and seed) are refused:
they did not measure the same thing, and the exit status is 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.startswith('{"perfbench_record"'):
                records.append(json.loads(line)["perfbench_record"])
    return records


def digests(records: list[dict]) -> dict:
    """``{(workload, seed): (graph digest, stream digest)}``; raises on
    runs of one workload and seed that disagree."""
    seen: dict = {}
    for r in records:
        key = (r["workload"], r["seed"])
        value = (r["meta"]["graph"]["edges_sha256"], r["meta"]["stream"]["sha256"])
        if seen.setdefault(key, value) != value:
            raise ValueError(f"runs of {key} saw different inputs: {seen[key]} vs {value}")
    graphs: dict = {}
    for (workload, _), (graph, _) in seen.items():
        if graphs.setdefault(workload, graph) != graph:
            raise ValueError(f"runs of {workload} used different graphs")
    return seen


def summary(records: list[dict]) -> dict:
    """``{(workload, trace): {metric: (median, spread, n)}}``."""
    values: dict = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, value in r["metrics"].items():
            values[(r["workload"], r["trace"])][name].append(value)
    out = {}
    for key, metrics in values.items():
        out[key] = {}
        for name, vals in metrics.items():
            mid = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / mid if mid else 0.0
            else:
                spread = float("nan")
            out[key][name] = (mid, spread, len(vals))
    return out


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    specs = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    sets = [load(arg) for arg in argv]
    try:
        seen = [digests(records) for records in sets]
        if len(sets) == 2:
            for key in seen[0].keys() & seen[1].keys():
                if seen[0][key] != seen[1][key]:
                    raise ValueError(f"runs of {key} differ between the sets")
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    summaries = [summary(records) for records in sets]
    status = 0
    for key in sorted(summaries[0]):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'end-to-end'})")
        for name, (mid, spread, n) in summaries[0][key].items():
            spec = specs.get(name, {})
            bound = spec.get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "!" if spread > bound else "~" if spread > bound / 3 else ""
            line = f"  {name:34s} {mid:14.6g} {spec.get('unit', ''):10s} spread {spread:7.2%} n={n} {flag}"
            if len(summaries) == 2 and name in summaries[1].get(key, {}):
                other = summaries[1][key][name][0]
                sign = -1.0 if spec.get("better") == "higher" else 1.0
                change = sign * (other - mid) / mid if mid else 0.0
                line += f"  B {other:14.6g} change {change:+7.2%}"
                if bound is not None and change > bound:
                    line += " REGRESSED"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
