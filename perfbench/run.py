#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, each in a fresh process.

    python3 perfbench/run.py --workload campaign_small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of the repository.  Each run starts
``perfbench/workloads.py`` in a child process with OMP, OpenBLAS and MKL
pinned to one thread (set before numpy is imported), ``src`` first on the
import path and ``OIL_SEED`` removed.  Set-up is measured in
``SETUP_RUNS`` separate processes and ``setup_s`` is their median.

For one workload, the last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
The line before it records the environment.  ``--workload all`` prints
every metric of every workload as a table instead.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
WORKLOADS = ("campaign_small", "campaign_large", "compute_oneshot")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("OIL_SEED", "PYTHONPATH")}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str], deadline: float) -> dict:
    """Run the worker with ``args`` and return the JSON object on its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Result object and environment of one run of one workload."""
    if not (ROOT / "src" / "outerinv" / "__init__.py").is_file():
        raise BenchmarkError(f"no outerinv sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [
        _child([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    out = _child([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    result = out["result"]
    if "setup_s" in result["metrics"]:
        result["metrics"]["setup_s"]["value"] = statistics.median([*setups, out["setup_s"]])
    return result, out["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="outerinv benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            result, env = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print("# env " + json.dumps(env, sort_keys=True))
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, env = run_workload(workload, args.seed, args.seconds, trace)
                ok = ok and result["correct"]
                print(
                    f"# {workload} trace={trace} correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']} "
                    f"failed_frac={result['failed'] / result['attempted']:.4g}"
                )
                for name, metric in result["metrics"].items():
                    print(f"{workload:<16} {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        print("# env " + json.dumps(env, sort_keys=True))
        return 0 if ok else 1
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
