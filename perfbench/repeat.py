#!/usr/bin/env python3
"""Repeat workloads over several seeds and summarize each metric.

    python3 perfbench/repeat.py [--workload NAME ...] [--seeds 0-9] [--trace 0] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  ``--out``
writes the summaries, every run's values and the environment as JSON.
The exit code is 1 when any run was incorrect or had failed items.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=list(run.WORKLOADS), choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="0-9", help="comma-separated seeds or ranges, e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    doc, ok = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}, True
    for workload in args.workload:
        runs, units = {}, {}
        for seed in parse_seeds(args.seeds):
            result, doc["env"] = run.run_workload(workload, seed, seconds, args.trace)
            ok = ok and result["correct"] and result["failed"] == 0
            runs[seed] = {name: m["value"] for name, m in result["metrics"].items()}
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            print(f"# {workload} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        summary = {name: summarize([r[name] for r in runs.values()]) for name in units}
        for name, s in summary.items():
            print(
                f"{workload:<16} {name:<40} median {s['median']:>12.6g} {units[name]:<10} "
                f"q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} spread {s['spread']:.4f}",
                flush=True,
            )
        doc["workloads"][workload] = {"units": units, "summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
