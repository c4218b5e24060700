"""Command-line front end: verification campaigns and one-off computes.

Three subcommands on the ``oil`` entry point:

* ``oil compute <problem.json> [--tol X] [--out F]`` computes one outer
  inverse from a problem file.
* ``oil verify <campaign.json> [--jobs N]`` runs a campaign: for each
  configured theorem and trial it generates a fresh instance, evaluates
  the corresponding perturbation operation, and appends one table row.
* ``oil sweep <campaign.json> --axis gap_T --points 20`` varies one
  perturbation ratio over a grid and emits per-point aggregate rows.

Exit codes are a stable contract: 0 pass, 1 operational error, 2
infeasible input, 3 bound violation (a checked inequality failed
numerically under satisfied hypotheses; this should never happen and is
the highest-severity signal).

Output files are deterministic given the seed: metadata embeds the
config hash, seed, RNG identifier, tolerance profile and library
version, but never wall-clock times (those go to stdout only).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import __version__
from .instance_gen import (
    RNG_IDENTIFIER,
    THEOREMS,
    GenConfig,
    GenerationError,
    derive_trial_seed,
    generate,
)
from .numlin import NumericalError, ToleranceProfile
from .outer_inverse import (
    ExistenceError,
    compute,
    problem_from_obj,
    result_to_obj,
)
from .perturbation import (
    _bounds_ok,
    gap_propagation,
    perturb_A,
    perturb_S,
    perturb_T,
    perturb_TS,
    perturb_all,
    stable_bounds,
)

__all__ = [
    "CampaignConfig",
    "TheoremSummary",
    "CampaignSummary",
    "CSV_COLUMNS",
    "SWEEP_COLUMNS",
    "RELERR_GATE",
    "run_campaign",
    "run_sweep",
    "campaign_exit_code",
    "render_table",
    "main",
]

EXIT_PASS = 0
EXIT_OPERATIONAL = 1
EXIT_INFEASIBLE = 2
EXIT_BOUND_VIOLATION = 3

RELERR_GATE = 1e-6
MAX_SKIP_FRACTION = 0.05

CSV_COLUMNS = (
    "trial_id",
    "theorem",
    "gap_T",
    "gap_S",
    "norm_E",
    "hyp_ok",
    "relerr",
    "norm_bound",
    "norm_actual",
    "diff_bound",
    "diff_actual",
    "margin_norm",
    "margin_diff",
)

SWEEP_COLUMNS = (
    "axis",
    "point",
    "ratio",
    "trials",
    "mean_diff_actual",
    "max_diff_actual",
    "mean_diff_bound",
    "max_diff_bound",
    "mean_norm_actual",
    "max_norm_actual",
    "mean_norm_bound",
    "max_norm_bound",
)

_SWEEP_AXES = {
    "gap_T": ("target_gap_T", {"lemma31", "prop31", "thm31", "thm32"}),
    "gap_S": ("target_gap_S", {"prop32", "thm31", "thm32"}),
    "norm_E": ("target_norm_E_ratio", {"lemma21", "lemma32", "thm32"}),
}


@dataclass(frozen=True)
class CampaignConfig:
    gen: GenConfig
    theorems: tuple[str, ...]
    trials: int
    tolerances: ToleranceProfile
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.theorems:
            raise ValueError("theorem set must be nonempty")
        unknown = set(self.theorems) - set(THEOREMS)
        if unknown:
            raise ValueError(f"unknown theorem identifiers: {sorted(unknown)}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @classmethod
    def default(cls, seed: int = 20260801) -> "CampaignConfig":
        return cls(
            gen=GenConfig(seed=seed),
            theorems=THEOREMS,
            trials=200,
            tolerances=ToleranceProfile(),
        )


@dataclass
class TheoremSummary:
    trials_requested: int = 0
    trials_run: int = 0
    skips: int = 0
    hypotheses_met: int = 0
    bounds_violations: int = 0
    max_relerr: float = math.nan
    worst_margin_norm: float = math.inf
    worst_margin_diff: float = math.inf


@dataclass
class CampaignSummary:
    per_theorem: dict[str, TheoremSummary]
    wall_time: float

    @property
    def total_violations(self) -> int:
        return sum(t.bounds_violations for t in self.per_theorem.values())

    @property
    def max_relerr(self) -> float:
        vals = [t.max_relerr for t in self.per_theorem.values() if not math.isnan(t.max_relerr)]
        return max(vals) if vals else math.nan

    @property
    def skip_fraction(self) -> float:
        requested = sum(t.trials_requested for t in self.per_theorem.values())
        skipped = sum(t.skips for t in self.per_theorem.values())
        return skipped / requested if requested else 0.0


# ---------------------------------------------------------------------------
# Config wire format
# ---------------------------------------------------------------------------


def gen_config_from_obj(obj: dict) -> GenConfig:
    known = {
        "seed",
        "m",
        "n",
        "rank_A",
        "dim_T",
        "target_gap_T",
        "target_gap_S",
        "target_norm_E_ratio",
        "max_retries",
    }
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown gen config keys: {sorted(unknown)}")
    if "seed" not in obj:
        raise ValueError("gen config requires a seed")
    return GenConfig(**obj)


def tolerances_from_obj(obj: dict) -> ToleranceProfile:
    known = {"rank_rtol", "verify_atol", "cond_cap"}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
    return ToleranceProfile(**obj)


def campaign_config_from_obj(obj: dict) -> CampaignConfig:
    try:
        gen = gen_config_from_obj(obj["gen"])
    except KeyError:
        raise ValueError("campaign config requires a 'gen' block") from None
    theorems = tuple(obj.get("theorems", THEOREMS))
    trials = int(obj.get("trials", 1))
    tolerances = tolerances_from_obj(obj.get("tolerances", {}))
    return CampaignConfig(
        gen=gen,
        theorems=theorems,
        trials=trials,
        tolerances=tolerances,
        output_path=obj.get("output_path"),
        format=obj.get("format", "csv"),
    )


def campaign_config_to_obj(config: CampaignConfig) -> dict:
    return {
        "gen": {
            "seed": config.gen.seed,
            "m": config.gen.m,
            "n": config.gen.n,
            "rank_A": config.gen.rank_A,
            "dim_T": config.gen.dim_T,
            "target_gap_T": config.gen.target_gap_T,
            "target_gap_S": config.gen.target_gap_S,
            "target_norm_E_ratio": config.gen.target_norm_E_ratio,
            "max_retries": config.gen.max_retries,
        },
        "theorems": list(config.theorems),
        "trials": config.trials,
        "tolerances": {
            "rank_rtol": config.tolerances.rank_rtol,
            "verify_atol": config.tolerances.verify_atol,
            "cond_cap": config.tolerances.cond_cap,
        },
        "output_path": config.output_path,
        "format": config.format,
    }


def config_hash(config: CampaignConfig) -> str:
    """Hash of everything that determines the rows (not where they go)."""
    obj = campaign_config_to_obj(config)
    obj.pop("output_path")
    obj.pop("format")
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def _nan_to_none(x: float | None) -> float | None:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return x


def _row_from_bound_report(trial_id: int, theorem: str, scenario, report) -> dict:
    return {
        "trial_id": trial_id,
        "theorem": theorem,
        "gap_T": scenario.measured_gap_T,
        "gap_S": scenario.measured_gap_S,
        "norm_E": scenario.norm_E,
        "hyp_ok": report.hypotheses_met,
        "relerr": _nan_to_none(report.formula_vs_oracle_relerr),
        "norm_bound": _nan_to_none(report.norm_bound),
        "norm_actual": _nan_to_none(report.norm_actual),
        "diff_bound": _nan_to_none(report.diff_bound),
        "diff_actual": _nan_to_none(report.diff_actual),
        "margin_norm": _nan_to_none(report.margin_norm),
        "margin_diff": _nan_to_none(report.margin_diff),
    }


def run_trial(config: CampaignConfig, theorem: str, trial_id: int) -> dict | None:
    """One campaign trial: generate, evaluate, reduce to a table row.

    Returns None when instance generation exhausted its retries (the
    trial is counted as a skip).  The row carries a private
    ``_violation`` flag: hypotheses held but a bound inequality failed.
    """
    tol = config.tolerances
    seed = derive_trial_seed(config.gen.seed, theorem, trial_id)
    gen_cfg = replace(config.gen, seed=seed)
    try:
        instance = generate(gen_cfg, theorem, tol)
    except GenerationError:
        return None
    scenario = instance.scenario
    prepared = instance.prepared

    if theorem == "lemma31":
        gp = gap_propagation(prepared, scenario.T_prime, tol)
        hyp_ok = gp.hypothesis.satisfied
        violated = hyp_ok and not _bounds_ok(gp.actual, gp.bound, 1.0 + prepared.norm_G)
        row = {
            "trial_id": trial_id,
            "theorem": theorem,
            "gap_T": scenario.measured_gap_T,
            "gap_S": scenario.measured_gap_S,
            "norm_E": scenario.norm_E,
            "hyp_ok": hyp_ok,
            "relerr": None,
            "norm_bound": None,
            "norm_actual": None,
            "diff_bound": gp.bound,
            "diff_actual": gp.actual,
            "margin_norm": None,
            "margin_diff": gp.bound - gp.actual if math.isfinite(gp.bound) else None,
        }
        row["_violation"] = violated
        return row

    if theorem == "lemma21":
        report = stable_bounds(prepared, scenario.E, tol)
    elif theorem == "prop31":
        report = perturb_T(prepared, scenario.T_prime, tol)
    elif theorem == "prop32":
        report = perturb_S(prepared, scenario.S_prime, tol)
    elif theorem == "thm31":
        report = perturb_TS(prepared, scenario.T_prime, scenario.S_prime, tol)
    elif theorem == "lemma32":
        report = perturb_A(prepared, scenario.E, tol)
    elif theorem == "thm32":
        report = perturb_all(prepared, scenario, tol)
    else:
        raise ValueError(f"unknown theorem identifier {theorem!r}")

    row = _row_from_bound_report(trial_id, theorem, scenario, report)
    row["_violation"] = report.hypotheses_met and not report.all_satisfied
    return row


def _trial_worker(args) -> dict | None:
    config, theorem, trial_id = args
    return run_trial(config, theorem, trial_id)


def run_campaign(config: CampaignConfig, jobs: int = 1):
    """All trials for all configured theorems, in deterministic order.

    Returns ``(rows, summary)``; rows are emitted in (theorem, trial)
    order regardless of how many worker processes computed them.
    """
    start = time.monotonic()
    tasks = [
        (config, theorem, trial_id)
        for theorem in config.theorems
        for trial_id in range(config.trials)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_trial_worker, tasks, chunksize=8))
    else:
        results = [_trial_worker(t) for t in tasks]

    rows = []
    per_theorem = {t: TheoremSummary(trials_requested=config.trials) for t in config.theorems}
    for (_, theorem, _), row in zip(tasks, results):
        summary = per_theorem[theorem]
        if row is None:
            summary.skips += 1
            continue
        summary.trials_run += 1
        if row["hyp_ok"]:
            summary.hypotheses_met += 1
        if row.pop("_violation"):
            summary.bounds_violations += 1
        if row["relerr"] is not None:
            if math.isnan(summary.max_relerr) or row["relerr"] > summary.max_relerr:
                summary.max_relerr = row["relerr"]
        if row["margin_norm"] is not None:
            summary.worst_margin_norm = min(summary.worst_margin_norm, row["margin_norm"])
        if row["margin_diff"] is not None:
            summary.worst_margin_diff = min(summary.worst_margin_diff, row["margin_diff"])
        rows.append(row)
    return rows, CampaignSummary(per_theorem=per_theorem, wall_time=time.monotonic() - start)


def campaign_exit_code(summary: CampaignSummary) -> int:
    """Map a campaign outcome onto the exit-code contract."""
    if summary.total_violations > 0:
        return EXIT_BOUND_VIOLATION
    if summary.skip_fraction > MAX_SKIP_FRACTION:
        return EXIT_OPERATIONAL
    max_relerr = summary.max_relerr
    if not math.isnan(max_relerr) and max_relerr > RELERR_GATE:
        return EXIT_OPERATIONAL
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_ratios(points: int) -> list[float]:
    """Ratio grid: 0 first, then log-spaced up to 0.95 of the threshold."""
    if points < 2:
        raise ValueError("a sweep needs at least 2 points")
    top = 0.95
    if points == 2:
        return [0.0, top]
    lo = top * 1e-2
    grid = [lo * (top / lo) ** (i / (points - 2)) for i in range(points - 1)]
    return [0.0] + grid


def run_sweep(config: CampaignConfig, axis: str, points: int, jobs: int = 1):
    """Bound-vs-actual curves along one perturbation axis."""
    if axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {sorted(_SWEEP_AXES)}")
    if len(config.theorems) != 1:
        raise ValueError("a sweep needs exactly one theorem in the config")
    theorem = config.theorems[0]
    field_name, applicable = _SWEEP_AXES[axis]
    if theorem not in applicable:
        raise ValueError(f"axis {axis} does not apply to {theorem}")

    out_rows = []
    for point, ratio in enumerate(sweep_ratios(points)):
        gen = replace(config.gen, **{field_name: ratio})
        point_config = replace(config, gen=gen)
        rows, _ = run_campaign(point_config, jobs=jobs)
        diff_actuals = [r["diff_actual"] for r in rows if r["diff_actual"] is not None]
        diff_bounds = [r["diff_bound"] for r in rows if r["diff_bound"] is not None]
        norm_actuals = [r["norm_actual"] for r in rows if r["norm_actual"] is not None]
        norm_bounds = [r["norm_bound"] for r in rows if r["norm_bound"] is not None]

        def _mean(vals):
            return sum(vals) / len(vals) if vals else None

        def _max(vals):
            return max(vals) if vals else None

        out_rows.append(
            {
                "axis": axis,
                "point": point,
                "ratio": ratio,
                "trials": len(rows),
                "mean_diff_actual": _mean(diff_actuals),
                "max_diff_actual": _max(diff_actuals),
                "mean_diff_bound": _mean(diff_bounds),
                "max_diff_bound": _max(diff_bounds),
                "mean_norm_actual": _mean(norm_actuals),
                "max_norm_actual": _max(norm_actuals),
                "mean_norm_bound": _mean(norm_bounds),
                "max_norm_bound": _max(norm_bounds),
            }
        )
    return out_rows


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _meta_lines(config: CampaignConfig) -> list[str]:
    tol = config.tolerances
    return [
        f"config_hash={config_hash(config)}",
        f"seed={config.gen.seed}",
        f"rng={RNG_IDENTIFIER}",
        f"tolerances=rank_rtol:{tol.rank_rtol},verify_atol:{tol.verify_atol!r},cond_cap:{tol.cond_cap!r}",
        f"version={__version__}",
    ]


def render_table(rows, config: CampaignConfig, columns) -> str:
    """Deterministic CSV text: '#' metadata lines, header, data rows."""
    buf = io.StringIO()
    for line in _meta_lines(config):
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_cell(row[c]) for c in columns) + "\n")
    return buf.getvalue()


def render_json_report(rows, config: CampaignConfig, columns) -> str:
    tol = config.tolerances
    doc = {
        "meta": {
            "config_hash": config_hash(config),
            "seed": config.gen.seed,
            "rng": RNG_IDENTIFIER,
            "tolerances": {
                "rank_rtol": tol.rank_rtol,
                "verify_atol": tol.verify_atol,
                "cond_cap": tol.cond_cap,
            },
            "version": __version__,
            "columns": list(columns),
        },
        "rows": [{c: row[c] for c in columns} for row in rows],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _write_report(rows, config: CampaignConfig, columns, default_name: str) -> str:
    path = config.output_path or default_name
    if config.format == "json":
        text = render_json_report(rows, config, columns)
    else:
        text = render_table(rows, config, columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _print_summary(summary: CampaignSummary, path: str):
    print(f"report written to {path}")
    header = (
        f"{'theorem':<10} {'run':>5} {'skips':>5} {'hyp_met':>7} "
        f"{'violations':>10} {'max_relerr':>12} {'margin_norm':>12} {'margin_diff':>12}"
    )
    print(header)
    for theorem, t in summary.per_theorem.items():
        relerr = "-" if math.isnan(t.max_relerr) else f"{t.max_relerr:.2e}"
        mn = "-" if math.isinf(t.worst_margin_norm) else f"{t.worst_margin_norm:.3e}"
        md = "-" if math.isinf(t.worst_margin_diff) else f"{t.worst_margin_diff:.3e}"
        print(
            f"{theorem:<10} {t.trials_run:>5} {t.skips:>5} {t.hypotheses_met:>7} "
            f"{t.bounds_violations:>10} {relerr:>12} {mn:>12} {md:>12}"
        )
    print(f"wall_time={summary.wall_time:.2f}s")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load_json_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_campaign(path: str) -> CampaignConfig:
    config = campaign_config_from_obj(_load_json_file(path))
    env_seed = os.environ.get("OIL_SEED")
    if env_seed is not None:
        config = replace(config, gen=replace(config.gen, seed=int(env_seed)))
    return config


def cmd_compute(args) -> int:
    obj = _load_json_file(args.problem)
    tol = ToleranceProfile(verify_atol=args.tol) if args.tol else ToleranceProfile()
    result = compute(problem_from_obj(obj, tol), tol)
    text = json.dumps(result_to_obj(result), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_verify(args) -> int:
    config = _load_campaign(args.campaign)
    rows, summary = run_campaign(config, jobs=args.jobs)
    path = _write_report(rows, config, CSV_COLUMNS, "verify_report." + config.format)
    _print_summary(summary, path)
    return campaign_exit_code(summary)


def cmd_sweep(args) -> int:
    config = _load_campaign(args.campaign)
    rows = run_sweep(config, args.axis, args.points, jobs=args.jobs)
    path = _write_report(rows, config, SWEEP_COLUMNS, "sweep_report." + config.format)
    print(f"sweep written to {path} ({len(rows)} points)")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oil",
        description="Outer-inverse library: compute inverses and verify perturbation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one outer inverse from a problem file")
    p_compute.add_argument("problem", help="problem JSON file: {A, T, S}")
    p_compute.add_argument("--tol", type=float, default=None, help="verification tolerance")
    p_compute.add_argument("--out", default=None, help="result file (default: stdout)")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("campaign", help="campaign config JSON file")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one perturbation ratio")
    p_sweep.add_argument("campaign", help="campaign config JSON file")
    p_sweep.add_argument("--axis", required=True, choices=sorted(_SWEEP_AXES))
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_OPERATIONAL
    except ExistenceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
