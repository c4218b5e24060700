#!/usr/bin/env python3
"""Alternating parent-vs-change pairs of one benchmark workload.

    python3 scripts/bench_pairs.py --parent ../outerinv-parent --workload campaign_small --seeds 300-309 --out BENCH.json

The change is the checkout this script lives in; ``--parent`` is a second
checkout (a ``git clone`` of the parent commit).  Each tree's ``git
describe`` is recorded, and then both are copied, without ``.git`` and
``perfbench/out``, to ``<tmp>/parent`` and ``<tmp>/change``: paths of
equal length, so the two sides differ in their code and nothing else
(``peak_rss_mb`` moves by about 1 MB with the checkout path alone).  For
every seed the script runs each copy's own ``perfbench/run.py --workload
W --seed S --seconds <run_seconds of BENCHMARK.json> --trace 0`` with
this script's interpreter, one run at a time, and alternates which tree
goes first: the parent on the first pair, the change on the second, and
so on.  A slow phase of a shared host then lands on both sides instead
of on one block of runs.

``--out`` gets every run's end-to-end metrics and, per metric, each
side's median and quartiles, the wins per pair (the better value by
the metric's ``better`` in BENCHMARK.json; ties count for neither) and
a verdict (:func:`verdict`) against the metric's ``bound``.  A pair in
which either run produced no metrics is kept in the record and left out
of the summary.  The exit code is 1 when any run was incorrect, had
failed items or produced no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"3-5,9"`` -> ``[3, 4, 5, 9]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result object, or why there is none."""
    cmd = [
        sys.executable, str(tree / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError):
        return {"ok": False, "returncode": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), None)
    return {
        "ok": proc.returncode == 0 and result["correct"] and result["failed"] == 0,
        "returncode": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "env": env,
    }


def commit(tree: Path) -> str | None:
    """``git describe --always --dirty`` of ``tree``, or None outside git."""
    proc = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return proc.stdout.strip() or None


def _uncopied(directory: str, names: list[str]) -> set[str]:
    # shutil.copytree's ignore: the git store and perfbench's run outputs.
    path = Path(directory)
    return {
        name for name in names
        if name == ".git" or (name == "out" and path.name == "perfbench")
    }


def copy_trees(trees: dict[str, Path], into: Path) -> dict[str, Path]:
    """Copy each tree to ``into/<side>``; the side names are equally long."""
    return {side: Path(shutil.copytree(tree, into / side, ignore=_uncopied)) for side, tree in trees.items()}


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4); one value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], wins: int, better: str, bound: float) -> str:
    """The review rule for one metric, given each side's runs over the same pairs.

    ``gain``: the change wins at least 9 of every 10 pairs and its median
    beats the parent's by more than the parent's quartile spread.
    ``regression``: the change's median is worse than the parent's by more
    than ``bound``, relative to the parent's median.  ``unresolved``:
    either side's quartile spread, relative to its median, is wider than
    ``bound``, unless every change run beats every parent run.  Otherwise
    ``no_regression``.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    ahead = sign * (c["median"] - p["median"])
    if wins >= 0.9 * len(parent) and ahead > p["q3"] - p["q1"]:
        return "gain"
    if -ahead > bound * abs(p["median"]):
        return "regression"
    separated = min(sign * v for v in change) > max(sign * v for v in parent)
    if any(q["q3"] - q["q1"] > bound * abs(q["median"]) for q in (p, c)) and not separated:
        return "unresolved"
    return "no_regression"


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric: each side's quartiles, the wins per pair and the verdict, over pairs where both runs have it."""
    summary = {}
    for name, direction in better.items():
        complete = [
            p for p in pairs if all(name in p[side].get("metrics", {}) for side in SIDES)
        ]
        if not complete:
            continue
        wins = {"change": 0, "parent": 0}
        for p in complete:
            parent, change = (p[side]["metrics"][name] for side in SIDES)
            if change != parent:
                change_better = change > parent if direction == "higher" else change < parent
                wins["change" if change_better else "parent"] += 1
        values = {side: [p[side]["metrics"][name] for p in complete] for side in SIDES}
        summary[name] = {
            "better": direction,
            "pairs": len(complete),
            "wins": wins,
            **{side: quartiles(values[side]) for side in SIDES},
            "verdict": verdict(values["parent"], values["change"], wins["change"], direction, bounds[name]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds or ranges, e.g. 300-309")
    parser.add_argument("--out", required=True, help="JSON file for every run and the summary")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    commits = {side: commit(path) for side, path in trees.items()}

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        copies = copy_trees(trees, Path(tmp))
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                started = time.time()
                pair[side] = run_once(copies[side], args.workload, seed, seconds)
                pair[side]["started_unix"] = round(started, 1)
                value = pair[side].get("metrics", {}).get("items_per_s")
                print(f"# seed {seed} {side:<6} ok={pair[side]['ok']} items_per_s={value}", flush=True)
            pairs.append(pair)

    summary = summarize(pairs, better, bounds)
    for name, s in summary.items():
        print(
            f"{name:<14} parent {s['parent']['median']:.6g} [{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]"
            f"  change {s['change']['median']:.6g} [{s['change']['q1']:.6g}, {s['change']['q3']:.6g}]"
            f"  wins change {s['wins']['change']}/{s['pairs']}, parent {s['wins']['parent']}/{s['pairs']}"
            f"  {s['verdict']}"
        )
    doc = {
        "workload": args.workload,
        "run_seconds": seconds,
        "commits": commits,
        "summary": summary,
        "pairs": pairs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0 if all(p[side]["ok"] for p in pairs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
