"""Median and spread of each end-to-end metric over the runs in perfbench/out/.

    python3 perfbench/summarize.py [workload ...]

Reads every ``<workload>-seed<n>-trace0.json`` result and prints, per
workload and metric, the median over seeds and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(workloads=None) -> dict:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    values = defaultdict(lambda: defaultdict(list))
    for path in sorted((HERE / "out").glob("*-trace0.json")):
        result = json.loads(path.read_text())
        if workloads and result["workload"] not in workloads:
            continue
        for name, entry in result["end_to_end"].items():
            values[result["workload"]][name].append(entry["value"])
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            spread = None
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(median)
            summary[workload][name] = {"runs": len(vals), "median": median,
                                       "spread": spread, "bound": bounds.get(name)}
    return summary


def main() -> int:
    for workload, metrics in summarize(set(sys.argv[1:])).items():
        print(workload)
        for name, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            bound = "-" if s["bound"] is None else f"{s['bound']:.2f}"
            print(f"  {name:<22} median {s['median']:<12.6g} spread {spread:>6} "
                  f"bound {bound:>5}  ({s['runs']} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
