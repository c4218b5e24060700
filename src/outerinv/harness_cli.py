"""Command-line front end: verification campaigns and one-off computes.

Three subcommands on the ``oil`` entry point:

* ``oil compute <problem.json> [--out F]`` computes one outer inverse
  from a problem file on the default tolerance profile.
* ``oil verify <campaign.json> [--jobs N]`` runs a campaign: for each
  configured theorem and trial it generates a fresh instance, evaluates
  the corresponding perturbation operation, and appends one table row.
* ``oil sweep <campaign.json> --axis gap_T --points 20`` varies one
  perturbation ratio over a grid and emits per-point aggregate rows.
  An axis applies to the theorems whose registry record
  (:data:`outerinv.perturbation.REGISTRY`) limits that size.

Exit codes are a stable contract: 0 pass, 1 operational error (including
a command-line usage error, a campaign with trials that raised a
numerical error, more than ``MAX_SKIP_FRACTION`` of its trials skipped
or left without a cross-check, or a formula-vs-oracle error above
``RELERR_GATE``), 2
infeasible input, 3 bound violation (a checked inequality failed
numerically under satisfied hypotheses; this should never happen and is
the highest-severity signal).  A sweep is judged per grid point by the
same campaign rule and exits with its worst point's code.

Output files are deterministic given the seed, the numpy/BLAS build
and the BLAS thread count (at large shapes the generated instance
depends on the thread count; see :mod:`outerinv.instance_gen`): metadata
embeds the config hash, seed, RNG identifier, tolerance profile and
library version, but never wall-clock times (those go to stdout only).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import time
import typing
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

from . import __version__
from .instance_gen import (
    RNG_IDENTIFIER,
    TARGET_FIELDS,
    THEOREMS,
    GenConfig,
    GenerationError,
    derive_trial_seed,
    generate,
)
from .numlin import IllConditionedError, NumericalError, ToleranceProfile, _wire_size
from .outer_inverse import (
    ExistenceError,
    compute,
    problem_from_obj,
    result_to_obj,
)
from .perturbation import (
    gap_propagation,
    perturb_A,
    perturb_S,
    perturb_T,
    perturb_TS,
    perturb_all,
    stable_bounds,
    theorem,
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

@dataclass(frozen=True)
class CampaignConfig:
    gen: GenConfig
    theorems: tuple[str, ...] = THEOREMS
    trials: int = 1
    tolerances: ToleranceProfile = ToleranceProfile()
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.theorems:
            raise ValueError("theorem set must be nonempty")
        for i, theorem_id in enumerate(self.theorems):
            theorem(theorem_id)  # ValueError for an unknown identifier
            if theorem_id in self.theorems[:i]:
                raise ValueError(f"theorem {theorem_id!r} is listed twice")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @classmethod
    def default(cls, seed: int = 20260801) -> "CampaignConfig":
        return cls(gen=GenConfig(seed=seed), trials=200)


@dataclass
class TheoremSummary:
    """Per-theorem campaign tallies; :func:`run_trial` returns a summary of one trial.

    ``skips`` counts trials whose generation exhausted its retries
    (``skip_reasons`` sums their per-condition failure counts),
    ``errors`` trials that raised a ``NumericalError``, and ``unchecked``
    rows with a formula and an oracle route of which only one ran.
    ``oracle_refusals`` counts why the oracle refused (``existence`` or
    ``ill_conditioned``); ``max_refusal_condition`` is the largest
    condition number among the ill-conditioned refusals (0 if none).
    ``max_relerr`` is NaN and each margin ``inf`` until a row has one.
    """

    trials_requested: int = 0
    trials_run: int = 0
    skips: int = 0
    errors: int = 0
    unchecked: int = 0
    hypotheses_met: int = 0
    bounds_violations: int = 0
    max_relerr: float = math.nan
    worst_margin_norm: float = math.inf
    worst_margin_diff: float = math.inf
    skip_reasons: Counter = field(default_factory=Counter)
    oracle_refusals: Counter = field(default_factory=Counter)
    max_refusal_condition: float = 0.0

    def add(self, other: "TheoremSummary") -> None:
        """Fold ``other`` into this summary: counts add, extremes combine."""
        self.trials_requested += other.trials_requested
        self.trials_run += other.trials_run
        self.skips += other.skips
        self.errors += other.errors
        self.unchecked += other.unchecked
        self.hypotheses_met += other.hypotheses_met
        self.bounds_violations += other.bounds_violations
        self.skip_reasons.update(other.skip_reasons)
        self.oracle_refusals.update(other.oracle_refusals)
        if math.isnan(self.max_relerr) or other.max_relerr > self.max_relerr:
            self.max_relerr = other.max_relerr
        self.worst_margin_norm = min(self.worst_margin_norm, other.worst_margin_norm)
        self.worst_margin_diff = min(self.worst_margin_diff, other.worst_margin_diff)
        self.max_refusal_condition = max(self.max_refusal_condition, other.max_refusal_condition)


@dataclass
class CampaignSummary:
    per_theorem: dict[str, TheoremSummary]
    wall_time: float

    @property
    def total(self) -> TheoremSummary:
        """Every theorem's tallies folded into one."""
        total = TheoremSummary()
        for t in self.per_theorem.values():
            total.add(t)
        return total


# ---------------------------------------------------------------------------
# Config wire format
# ---------------------------------------------------------------------------


# The JSON type of each non-integer field annotation: a test of a wire
# value and the words that name the type in an error.  Integers go through
# ``_wire_size`` and config records through ``_read_record``.
_WIRE_TYPES = {
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple[str, ...]: (
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v),
        "a list of strings",
    ),
}


def _read_value(hint, value, name: str):
    """The wire ``value`` of the field ``name``, checked against its annotation ``hint``.

    Values are kept as written (an integer in a float field stays an
    int), except that a list becomes the tuple its field declares.
    """
    if is_dataclass(hint):
        return _read_record(hint, value, name)
    if type(None) in typing.get_args(hint):  # ``X | None``
        if value is None:
            return None
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if hint is int:
        return _wire_size(value, "campaign config", name)
    accepts, expected = _WIRE_TYPES[hint]
    if not accepts(value):
        raise ValueError(f"malformed campaign config object: {name} is {value!r}, not {expected}")
    return tuple(value) if typing.get_origin(hint) is tuple else value


def _read_record(cls, obj, name: str):
    """The config record ``cls`` from its wire object ``obj``, found at ``name``.

    Each field's JSON type is the type its annotation declares; a field
    the object leaves out takes its default.  An unknown key, a missing
    required field and a value of the wrong type are a ``ValueError``
    naming the key.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"malformed campaign config object: {name} is {obj!r}, not an object")
    hints = typing.get_type_hints(cls)
    record_fields = fields(cls)
    unknown = set(obj) - {f.name for f in record_fields}
    if unknown:
        raise ValueError(f"unknown keys in {name}: {sorted(unknown)}")
    values = {}
    for f in record_fields:
        if f.name in obj:
            values[f.name] = _read_value(hints[f.name], obj[f.name], f.name)
        elif f.default is MISSING:
            raise ValueError(f"malformed campaign config object: {name} has no {f.name!r}")
    return cls(**values)


def campaign_config_from_obj(obj: dict) -> CampaignConfig:
    return _read_record(CampaignConfig, obj, "the top level")


def campaign_config_to_obj(config: CampaignConfig) -> dict:
    return asdict(config)


def config_hash(config: CampaignConfig) -> str:
    """Hash of everything that determines the rows (not where they go)."""
    # Imported here: hashlib loads OpenSSL, and only a report needs the hash.
    import hashlib

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


# The evaluator of each registry identifier, by its name in this module.
# run_trial looks the name up when it runs, so patching that name here (a
# test's fake, a tracer's wrapper) is what it calls.
_EVALUATORS = {
    "lemma21": "stable_bounds",
    "lemma31": "gap_propagation",
    "prop31": "perturb_T",
    "prop32": "perturb_S",
    "thm31": "perturb_TS",
    "lemma32": "perturb_A",
    "thm32": "perturb_all",
}


def _no_margin_as_inf(margin: float) -> float:
    return math.inf if math.isnan(margin) else margin


def run_trial(config: CampaignConfig, theorem: str, trial_id: int):
    """One campaign trial: generate, evaluate, reduce to ``(row, tally)``.

    ``row`` is the table row, or None for a skip or a ``NumericalError``;
    ``tally`` is the :class:`TheoremSummary` of this one trial.
    """
    tol = config.tolerances
    seed = derive_trial_seed(config.gen.seed, theorem, trial_id)
    gen_cfg = replace(config.gen, seed=seed)
    try:
        scenario = generate(gen_cfg, theorem, tol)
        report = globals()[_EVALUATORS[theorem]](scenario, tol)
    except GenerationError as exc:
        skipped = Counter(exc.failure_counts)
        return None, TheoremSummary(trials_requested=1, skips=1, skip_reasons=skipped)
    except NumericalError:
        return None, TheoremSummary(trials_requested=1, errors=1)

    row = {
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
    refusal = report.oracle_refusal
    ill_conditioned = isinstance(refusal, IllConditionedError)
    reasons = [] if refusal is None else ["ill_conditioned" if ill_conditioned else "existence"]
    tally = TheoremSummary(
        trials_requested=1,
        trials_run=1,
        unchecked=int(report.unchecked),
        hypotheses_met=int(report.hypotheses_met),
        bounds_violations=int(report.violated),
        max_relerr=report.formula_vs_oracle_relerr,
        worst_margin_norm=_no_margin_as_inf(report.margin_norm),
        worst_margin_diff=_no_margin_as_inf(report.margin_diff),
        oracle_refusals=Counter(reasons),
        max_refusal_condition=refusal.condition if ill_conditioned else 0.0,
    )
    return row, tally


def _trial_worker(args):
    config, theorem, trial_id = args
    return run_trial(config, theorem, trial_id)


def run_campaign(config: CampaignConfig, jobs: int = 1):
    """All trials for all configured theorems, in deterministic order.

    Returns ``(rows, summary)``; rows are emitted in (theorem, trial)
    order regardless of how many worker processes computed them.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    start = time.monotonic()
    tasks = [
        (config, theorem, trial_id)
        for theorem in config.theorems
        for trial_id in range(config.trials)
    ]
    rows = []
    per_theorem = {t: TheoremSummary() for t in config.theorems}
    workers = contextlib.nullcontext()
    if jobs > 1:
        # Imported here: concurrent.futures.process costs every `oil` call
        # tens of milliseconds of start-up, and only --jobs > 1 needs it.
        from concurrent.futures import ProcessPoolExecutor

        workers = ProcessPoolExecutor(max_workers=jobs)
    with workers as pool:
        results = pool.map(_trial_worker, tasks, chunksize=8) if pool else map(_trial_worker, tasks)
        for (_, theorem_id, _), (row, tally) in zip(tasks, results):
            per_theorem[theorem_id].add(tally)
            if row is not None:
                rows.append(row)
    return rows, CampaignSummary(per_theorem=per_theorem, wall_time=time.monotonic() - start)


def campaign_exit_code(summary: CampaignSummary) -> int:
    """Map a campaign outcome onto the exit-code contract."""
    total = summary.total
    if total.bounds_violations > 0:
        return EXIT_BOUND_VIOLATION
    # The share of requested trials skipped or left without a cross-check.
    requested = total.trials_requested
    unchecked = (total.skips + total.unchecked) / requested if requested else 0.0
    if total.errors > 0 or unchecked > MAX_SKIP_FRACTION:
        return EXIT_OPERATIONAL
    if not math.isnan(total.max_relerr) and total.max_relerr > RELERR_GATE:
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
    """Bound-vs-actual curves along one perturbation axis.

    Returns ``(rows, summaries)``: one aggregate row and one campaign
    summary per grid point.
    """
    if axis not in TARGET_FIELDS:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {sorted(TARGET_FIELDS)}")
    if len(config.theorems) != 1:
        raise ValueError("a sweep needs exactly one theorem in the config")
    theorem_id = config.theorems[0]
    if axis not in theorem(theorem_id).limits:
        raise ValueError(f"axis {axis} does not apply to {theorem_id}")

    out_rows = []
    summaries = []
    for point, ratio in enumerate(sweep_ratios(points)):
        gen = replace(config.gen, **{TARGET_FIELDS[axis]: ratio})
        point_config = replace(config, gen=gen)
        rows, summary = run_campaign(point_config, jobs=jobs)
        summaries.append(summary)
        out = {"axis": axis, "point": point, "ratio": ratio, "trials": len(rows)}
        for column in ("diff_actual", "diff_bound", "norm_actual", "norm_bound"):
            vals = [r[column] for r in rows if r[column] is not None]
            out[f"mean_{column}"] = sum(vals) / len(vals) if vals else None
            out[f"max_{column}"] = max(vals) if vals else None
        out_rows.append(out)
    return out_rows, summaries


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
    doc = {
        "meta": {
            "config_hash": config_hash(config),
            "seed": config.gen.seed,
            "rng": RNG_IDENTIFIER,
            "tolerances": asdict(config.tolerances),
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


def _print_summary(summary: CampaignSummary):
    header = (
        f"{'theorem':<10} {'run':>5} {'skips':>5} {'errors':>6} {'unchecked':>9} {'hyp_met':>7} "
        f"{'violations':>10} {'max_relerr':>12} {'margin_norm':>12} {'margin_diff':>12}"
    )
    print(header)
    for theorem_id, t in summary.per_theorem.items():
        relerr = "-" if math.isnan(t.max_relerr) else f"{t.max_relerr:.2e}"
        mn = "-" if math.isinf(t.worst_margin_norm) else f"{t.worst_margin_norm:.3e}"
        md = "-" if math.isinf(t.worst_margin_diff) else f"{t.worst_margin_diff:.3e}"
        print(
            f"{theorem_id:<10} {t.trials_run:>5} {t.skips:>5} {t.errors:>6} "
            f"{t.unchecked:>9} {t.hypotheses_met:>7} "
            f"{t.bounds_violations:>10} {relerr:>12} {mn:>12} {md:>12}"
        )
    for theorem_id, t in summary.per_theorem.items():
        if t.skips:
            reasons = ", ".join(f"{k}={v}" for k, v in sorted(t.skip_reasons.items()) if v)
            print(f"skip reasons for {theorem_id}: {reasons}")
    for theorem_id, t in summary.per_theorem.items():
        if t.oracle_refusals:
            line = (
                f"oracle refusals for {theorem_id}: existence={t.oracle_refusals['existence']}, "
                f"ill_conditioned={t.oracle_refusals['ill_conditioned']}"
            )
            if t.oracle_refusals["ill_conditioned"]:
                line += f" (max condition {t.max_refusal_condition:.3e})"
            print(line)
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
        try:
            config = replace(config, gen=replace(config.gen, seed=int(env_seed)))
        except ValueError:
            raise ValueError(f"OIL_SEED={env_seed!r} is not a 64-bit unsigned integer") from None
    return config


def cmd_compute(args) -> int:
    result = compute(problem_from_obj(_load_json_file(args.problem)))
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
    print(f"report written to {path}")
    _print_summary(summary)
    return campaign_exit_code(summary)


def cmd_sweep(args) -> int:
    config = _load_campaign(args.campaign)
    rows, summaries = run_sweep(config, args.axis, args.points, jobs=args.jobs)
    path = _write_report(rows, config, SWEEP_COLUMNS, "sweep_report." + config.format)
    print(f"sweep written to {path} ({len(rows)} points)")
    codes = [campaign_exit_code(summary) for summary in summaries]
    for row, summary, code in zip(rows, summaries, codes):
        if code != EXIT_PASS:
            print(f"point {row['point']} (ratio {row['ratio']!r}) exits {code}:")
            _print_summary(summary)
    errors = sum(s.total.errors for s in summaries)
    if errors:
        print(f"error: {errors} sweep trials raised a numerical error", file=sys.stderr)
    return max(codes)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1: 2 means infeasible input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_OPERATIONAL, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oil",
        description="Outer-inverse library: compute inverses and verify perturbation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one outer inverse from a problem file")
    p_compute.add_argument("problem", help="problem JSON file: {A, T, S}")
    p_compute.add_argument("--out", default=None, help="result file (default: stdout)")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("campaign", help="campaign config JSON file")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one perturbation ratio")
    p_sweep.add_argument("campaign", help="campaign config JSON file")
    p_sweep.add_argument("--axis", required=True, choices=sorted(TARGET_FIELDS))
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
