"""The benchmark's workloads, measured in the current process.

Run it through ``run.py``, which starts this file in a fresh process with
BLAS pinned to one thread and ``src`` on the import path::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The last line of standard output is one JSON object: the result, the
set-up time and the environment.  The untraced run (``--trace 0``) repeats
whole passes over the workload's inputs until ``--seconds`` have passed
and reports the end-to-end metrics.  The traced run (``--trace 1``)
alternates an untraced and a traced pass for as long and reports
per-layer metrics per item; the spans of its last traced pass go to
``perfbench/out/spans-<workload>.jsonl.gz``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # taken before numpy is imported: setup_s includes the imports

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import gates
import outerinv
import tracer
from outerinv import harness_cli, instance_gen, outer_inverse
from outerinv.numlin import NumericalError

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

CAMPAIGN_SEED = 20260801  # CampaignConfig.default(); --seed N runs campaigns with seed CAMPAIGN_SEED + N

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_CALLS_MS = (
    "lapack.svd",
    "lapack.solve",
    "lapack.qr",
    "subspace.Subspace",
    "subspace.from_spanning_set",
    "subspace.orthogonal_complement",
    "subspace.gap_hat",
    "subspace.intersection_trivial",
    "subspace.direct_sum_is_whole",
    "numlin.op_norm",
    "numlin.pinv",
    "numlin.solve_square",
    "numlin.as_matrix",
)
_CALLS_MS_SELF = tuple(
    f"outer_inverse.{name}" for name in ("existence", "compute", "oracle_compute", "kernel", "image_of")
)
_MS_SELF = ("instance_gen.generate", tracer.EVALUATE)
_MS = ("harness_cli.run_trial", "harness_cli.render_table")
_LAYER_SELF = tracer.LAYERS + ("lapack",)

UNITS = {"calls": "calls/item", "ms": "ms/item", "self_ms": "ms/item"}
PER_LAYER = {
    **{f"{n}.{s}": UNITS[s] for n in _CALLS_MS for s in ("calls", "ms")},
    "lapack.svd.work_mnk": "mnk/item",
    **{f"{n}.{s}": UNITS[s] for n in _CALLS_MS_SELF for s in ("calls", "ms", "self_ms")},
    **{f"{n}.{s}": UNITS[s] for n in _MS_SELF for s in ("ms", "self_ms")},
    "instance_gen.accept_ratio": "frac",
    **{f"{n}.ms": "ms/item" for n in _MS},
    **{f"{layer}.self_ms": "ms/item" for layer in _LAYER_SELF},
    "trace.overhead_frac": "frac",
}


@dataclass
class Pass:
    """One pass over a workload's inputs.

    ``output`` is what ``check`` inspects: the exit code of a campaign, or
    the results of a compute pass (dropped once checked).
    """

    wall_s: float
    attempted: int
    output: object = None
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@contextlib.contextmanager
def timed_trials(sink: list[float]):
    """Time each ``harness_cli.run_trial`` call, in ms, into ``sink``."""
    original = harness_cli.run_trial

    def run_trial(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((time.perf_counter() - start) * 1e3)

    harness_cli.run_trial = run_trial
    try:
        yield
    finally:
        harness_cli.run_trial = original


def _verify(config_path: Path) -> int:
    """`oil verify` in-process, its summary discarded; a NumericalError is an exit code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return harness_cli.main(["verify", str(config_path)])
    except NumericalError as exc:
        print(f"campaign aborted: {exc!r}", file=sys.stderr)
        return harness_cli.EXIT_OPERATIONAL


def _write_config(path: Path, obj: dict, report: Path) -> Path:
    path.write_text(json.dumps({**obj, "output_path": str(report), "format": "csv"}), encoding="utf-8")
    return path


@dataclass(frozen=True)
class Campaign:
    """`oil verify` over every theorem, run in-process with ``jobs=1``."""

    name: str
    trials: int
    shape: dict = field(default_factory=dict)

    def config(self, seed: int) -> harness_cli.CampaignConfig:
        base = harness_cli.CampaignConfig.default(seed=(CAMPAIGN_SEED + seed) % 2**64)
        return replace(base, gen=replace(base.gen, **self.shape), trials=self.trials)

    def setup(self, seed: int, work: Path) -> "CampaignRun":
        return CampaignRun(self, self.config(seed), work)


class CampaignRun:
    def __init__(self, spec: Campaign, config, work: Path):
        self.spec, self.config, self.work = spec, config, work
        self.report = work / "report.csv"
        obj = harness_cli.campaign_config_to_obj(config)
        self.config_path = _write_config(work / "campaign.json", obj, self.report)
        self.first_report: str | None = None

    def warm_up(self):
        harness_cli.run_trial(self.config, "thm32", 0)

    def run_pass(self, item_ms: list[float], trace=None) -> Pass:
        timer = timed_trials(item_ms) if trace is None else contextlib.nullcontext()
        start = time.perf_counter()
        with timer:
            code = _verify(self.config_path)
        return Pass(time.perf_counter() - start, len(self.config.theorems) * self.config.trials, code)

    def check(self, done: Pass):
        if done.output != harness_cli.EXIT_PASS or not self.report.exists():
            done.failed = done.attempted
            done.problems.append(f"oil verify exited with code {done.output}")
            return
        text = self.report.read_text(encoding="utf-8")
        self.report.unlink()
        done.failed, done.problems = gates.check_campaign_rows(
            text, self.config.theorems, self.config.trials, harness_cli.RELERR_GATE
        )
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            done.problems.append("the report differs between passes of one run")

    def check_reference(self) -> list[str]:
        """Run the reference campaign and match it against the rows captured from the seed code."""
        report = self.work / "reference.csv"
        obj = json.loads((REFERENCE / f"{self.spec.name}.json").read_text(encoding="utf-8"))
        code = _verify(_write_config(self.work / "reference.json", obj, report))
        if code != harness_cli.EXIT_PASS or not report.exists():
            return [f"reference campaign exited with code {code}"]
        expected = (REFERENCE / f"{self.spec.name}.csv").read_text(encoding="utf-8")
        return gates.compare_to_reference(report.read_text(encoding="utf-8"), expected)


@dataclass(frozen=True)
class Compute:
    """The library path of `oil compute`: load, compute, cross-check with the oracle, serialize."""

    name: str
    problems: int
    m: int
    n: int
    rank: int
    dim_T: int

    def setup(self, seed: int, work: Path) -> "ComputeRun":
        rng = np.random.default_rng(seed)
        objs = []
        for _ in range(2 * self.problems):
            a = instance_gen.random_matrix_with_rank(self.m, self.n, self.rank, rng)
            t = instance_gen.random_subspace(self.n, self.dim_T, rng)
            s = instance_gen.random_subspace(self.m, self.m - self.dim_T, rng)
            problem = outer_inverse.OuterInverseProblem(a, t, s)
            if outer_inverse.existence(problem).exists:
                objs.append(outer_inverse.problem_to_obj(problem))
                if len(objs) == self.problems:
                    return ComputeRun(objs)
        raise RuntimeError(f"only {len(objs)} of {self.problems} random problems were feasible")


class ComputeRun:
    def __init__(self, objs: list[dict]):
        self.objs = objs

    def warm_up(self):
        self._item(self.objs[0])

    @staticmethod
    def _item(obj: dict):
        problem = outer_inverse.problem_from_obj(obj)
        result = outer_inverse.compute(problem)
        oracle = outer_inverse.oracle_compute(problem)
        return result.G, oracle, outer_inverse.result_to_obj(result)

    def run_pass(self, item_ms: list[float], trace=None) -> Pass:
        outputs, failures = [], []
        start = time.perf_counter()
        for index, obj in enumerate(self.objs):
            if trace is not None:
                trace.item = index
            item_start = time.perf_counter()
            try:
                outputs.append(self._item(obj))
            except (ValueError, NumericalError) as exc:
                failures.append(f"problem {index}: {exc!r}")
            item_ms.append((time.perf_counter() - item_start) * 1e3)
        done = Pass(time.perf_counter() - start, len(self.objs), outputs)
        done.failed = len(failures)
        done.problems.extend(failures[:3])
        return done

    def check(self, done: Pass):
        for index, (g, oracle, obj) in enumerate(done.output):
            relerr = np.linalg.norm(g - oracle, 2) / np.linalg.norm(oracle, 2)
            if not relerr <= harness_cli.RELERR_GATE:
                done.problems.append(f"item {index}: formula vs oracle relerr {relerr:.3e}")
            if not all(math.isfinite(v) for v in obj["residuals"].values()):
                done.problems.append(f"item {index}: non-finite residuals {obj['residuals']}")
        done.output = None

    def check_reference(self) -> list[str]:
        return []


WORKLOADS = {
    w.name: w
    for w in (
        Campaign("campaign_small", trials=200),
        Campaign("campaign_large", trials=15, shape={"m": 120, "n": 100, "rank_A": 80, "dim_T": 50}),
        Compute("compute_oneshot", problems=300, m=40, n=30, rank=24, dim_T=16),
    )
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def item_latencies(pass_ms: list[list[float]]) -> list[float]:
    """Each item's mean latency, in ms, over the passes that timed every item.

    Every pass visits the same items in the same order, so position k is
    one trial or problem in each pass.  The host alternates between fast
    and slow phases; pooled single timings then form two clusters, and a
    percentile that falls between them jumps from run to run.  An item's
    mean over passes moves smoothly with the share of slow time instead.
    """
    full = max(map(len, pass_ms))
    return [statistics.fmean(item) for item in zip(*(ms for ms in pass_ms if len(ms) == full))]


def end_to_end(passes: list[Pass], pass_ms: list[list[float]], setup_s: float) -> dict[str, float]:
    busy = sum(p.wall_s for p in passes)
    completed = sum(p.attempted - p.failed for p in passes)
    deciles = statistics.quantiles(item_latencies(pass_ms), n=10, method="inclusive")
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "items_per_s": completed / busy,
        "item_ms_p50": deciles[4],
        "item_ms_p90": deciles[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(totals: dict, svd_work_mnk: int, items: int, overhead: float) -> dict[str, float]:
    scale = {"calls": 1.0, "ms": 1e-6, "self_ms": 1e-6}
    source = {"calls": "calls", "ms": "ns", "self_ms": "self_ns"}
    metrics = {}
    for name in PER_LAYER:
        key, _, kind = name.rpartition(".")
        if kind in source:
            metrics[name] = totals.get(key, {}).get(source[kind], 0) * scale[kind] / items
    draws = totals.get("instance_gen.random_matrix_with_rank", {}).get("calls", 0)
    accepted = totals.get("instance_gen.generate", {}).get("calls", 0)
    metrics["lapack.svd.work_mnk"] = svd_work_mnk / items
    metrics["instance_gen.accept_ratio"] = accepted / draws if draws else 0.0
    metrics["trace.overhead_frac"] = overhead
    return {name: metrics[name] for name in PER_LAYER}


def traced_passes(run, workload: str, seconds: float) -> tuple[list[Pass], dict[str, float]]:
    """Pairs of an untraced and a traced pass until ``seconds`` have passed.

    Per-layer metrics sum over the traced passes; the overhead compares the
    median pass times, because one short pair is dominated by machine noise.
    The spans of the last traced pass are written out.
    """
    plain, traced, totals, work = [], [], defaultdict(Counter), 0
    start = time.perf_counter()
    while True:
        plain.append(run.run_pass([]))
        run.check(plain[-1])
        with tracer.Tracer() as recorder:
            traced.append(run.run_pass([], recorder))
        run.check(traced[-1])
        for key, entry in tracer.layer_totals(recorder.spans).items():
            totals[key].update(entry)
        work += recorder.svd_work_mnk
        if time.perf_counter() - start >= seconds:
            break
        del recorder  # live spans would slow the garbage collector in the next untraced pass
    recorder.write(OUT / f"spans-{workload}.jsonl.gz")
    overhead = statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain) - 1.0
    return plain + traced, per_layer(totals, work, sum(p.attempted for p in traced), overhead)


def measure(run, workload: str, seconds: float, trace: bool, setup_s: float) -> dict:
    """Timed passes, their checks and the reference check; returns the result object."""
    if trace:
        passes, metrics = traced_passes(run, workload, seconds)
        units = PER_LAYER
    else:
        passes, pass_ms = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            pass_ms.append([])
            passes.append(run.run_pass(pass_ms[-1]))
            run.check(passes[-1])
        metrics = end_to_end(passes, pass_ms, setup_s)
        units = END_TO_END
    problems = [p for done in passes for p in done.problems] + run.check_reference()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def environment() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, warm up and exit")
    args = parser.parse_args(argv)
    if not Path(outerinv.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"outerinv was imported from {outerinv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = WORKLOADS[args.workload].setup(args.seed, work)
        run.warm_up()
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(run, args.workload, args.seconds, bool(args.trace), setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"result": result, "setup_s": setup_s, "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
