"""CLI and campaign harness: exit codes, file formats, determinism."""

import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outerinv
from outerinv import harness_cli, perturbation
from outerinv import subspace as ss
from outerinv.harness_cli import (
    CSV_COLUMNS,
    RELERR_GATE,
    CampaignConfig,
    CampaignSummary,
    TheoremSummary,
    campaign_config_from_obj,
    campaign_config_to_obj,
    campaign_exit_code,
    config_hash,
    main,
    run_campaign,
    run_sweep,
    run_trial,
    sweep_ratios,
)
from outerinv.instance_gen import (
    THEOREMS,
    GenConfig,
    GenerationError,
    derive_trial_seed,
    generate,
)
from outerinv.numlin import (
    IllConditionedError,
    NumericalError,
    ToleranceProfile,
    matrix_to_obj,
    pinv,
)
from outerinv.outer_inverse import (
    ExistenceCertificate,
    ExistenceError,
    OuterInverseProblem,
    column_space,
    problem_to_obj,
    row_space,
)
from outerinv.perturbation import BOUND_SLACK, REGISTRY

from helpers import draw_gen_config, line, random_feasible_problem


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def identity_problem_obj():
    prob = OuterInverseProblem(np.eye(2, dtype=complex), line(1, 0), line(0, 1))
    return problem_to_obj(prob)


def small_campaign_obj(**overrides):
    obj = {
        "gen": {"seed": 2024, "m": 5, "n": 4, "rank_A": 3, "dim_T": 2},
        "trials": 2,
        "format": "csv",
    }
    obj.update(overrides)
    return obj


class TestCmdCompute:
    def test_writes_result(self, tmp_path):
        prob_file = write_json(tmp_path / "p.json", identity_problem_obj())
        out_file = tmp_path / "result.json"
        assert main(["compute", prob_file, "--out", str(out_file)]) == 0
        result = json.loads(out_file.read_text())
        g = result["G"]
        assert g["rows"] == 2 and g["cols"] == 2
        assert g["entries"][0] == [1.0, 0.0]
        assert g["entries"][3] == [0.0, 0.0]
        assert result["residuals"]["residual_gag"] <= 1e-8

    def test_infeasible_exit_2(self, tmp_path, capsys):
        # T inside the kernel of A.
        prob = OuterInverseProblem(
            np.diag([1.0, 0.0]).astype(complex), line(0, 1), line(0, 1)
        )
        prob_file = write_json(tmp_path / "p.json", problem_to_obj(prob))
        assert main(["compute", prob_file]) == 2
        assert "kernel intersection nontrivial" in capsys.readouterr().err

    def test_moore_penrose_problem_matches_pinv(self, tmp_path, rng):
        a = random_feasible_problem(rng, m=5, n=4, rank_a=3).A
        prob = OuterInverseProblem(
            a, row_space(a), ss.orthogonal_complement(column_space(a))
        )
        prob_file = write_json(tmp_path / "p.json", problem_to_obj(prob))
        out_file = tmp_path / "result.json"
        assert main(["compute", prob_file, "--out", str(out_file)]) == 0
        from outerinv.numlin import matrix_from_obj, op_norm

        g = matrix_from_obj(json.loads(out_file.read_text())["G"])
        expected = pinv(a)
        assert op_norm(g - expected) <= 1e-8 * (1.0 + op_norm(expected))

    def test_integer_entry_too_large_for_a_double_exits_1(self, tmp_path, capsys):
        text = json.dumps(identity_problem_obj()).replace("[1.0, 0.0]", "[1" + "0" * 400 + ", 0.0]", 1)
        prob_file = tmp_path / "p.json"
        prob_file.write_text(text)
        assert main(["compute", str(prob_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed matrix object: entry 0 is ")

    def test_malformed_json_exit_1_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [1, 2,')
        assert main(["compute", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_empty_codomain_exits_1_naming_the_field(self, tmp_path, capsys):
        # A 0x2 A: S would live in C^0, which no subspace does.
        obj = {
            "A": {"rows": 0, "cols": 2, "entries": []},
            "T": {"ambient_dim": 2, "basis": {"rows": 2, "cols": 0, "entries": []}},
            "S": {"ambient_dim": 0, "basis": {"rows": 0, "cols": 0, "entries": []}},
        }
        assert main(["compute", write_json(tmp_path / "p.json", obj)]) == 1
        assert "ambient_dim is 0" in capsys.readouterr().err

    def test_stdout_when_no_out_flag(self, tmp_path, capsys):
        prob_file = write_json(tmp_path / "p.json", identity_problem_obj())
        assert main(["compute", prob_file]) == 0
        assert '"residual_gag"' in capsys.readouterr().out


class TestUsageErrors:
    """A command line argparse refuses exits 1 with its usage message: 2 means infeasible."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "c.json", "--axis", "bogus", "--points", "2"], "argument --axis"),
            (["sweep", "c.json", "--axis", "gap_T", "--points", "x"], "argument --points"),
            (["verify", "c.json", "--jobs", "x"], "argument --jobs"),
            (["verify"], "required: campaign"),
            (["bogus"], "invalid choice"),
            ([], "required: command"),
            (["compute", "p.json", "--tol", "1e-8"], "unrecognized arguments: --tol"),
        ],
        ids=["axis", "points", "jobs", "positional", "subcommand", "no_subcommand", "compute_tol"],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: oil") and message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: oil sweep")


class TestCmdVerify:
    def test_zero_ratio_campaign(self, tmp_path, capsys):
        obj = small_campaign_obj(
            gen={
                "seed": 99,
                "m": 5,
                "n": 4,
                "rank_A": 3,
                "dim_T": 2,
                "target_gap_T": 0.0,
                "target_gap_S": 0.0,
                "target_norm_E_ratio": 0.0,
            },
            trials=1,
            output_path=str(tmp_path / "rep.csv"),
        )
        campaign_file = write_json(tmp_path / "c.json", obj)
        assert main(["verify", campaign_file]) == 0
        lines = (tmp_path / "rep.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == len(THEOREMS)
        diff_idx = CSV_COLUMNS.index("diff_actual")
        for ln in data:
            cells = ln.split(",")
            assert float(cells[diff_idx]) <= 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = small_campaign_obj()
        f1 = write_json(tmp_path / "c1.json", dict(base, output_path=str(out1)))
        f2 = write_json(tmp_path / "c2.json", dict(base, output_path=str(out2)))
        assert main(["verify", f1]) == 0
        assert main(["verify", f2]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert len(b1) > 0

    def test_jobs_do_not_change_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = small_campaign_obj(theorems=["prop31", "lemma32"])
        f1 = write_json(tmp_path / "c1.json", dict(base, output_path=str(out1)))
        f2 = write_json(tmp_path / "c2.json", dict(base, output_path=str(out2)))
        assert main(["verify", f1]) == 0
        assert main(["verify", f2, "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # solve_square's residual refusal and perturb_A's disagreeing resolvent
    # forms each end the first lemma32 trial as an error; the second runs.
    @pytest.mark.parametrize("owner, name", [(np.linalg, "solve"), (perturbation, "_right_resolvent")])
    def test_a_refused_formula_is_an_error_and_exits_1(self, tmp_path, capsys, monkeypatch, owner, name):
        calls = Counter()
        original = getattr(owner, name)

        def wrong_once(*args):
            calls[name] += 1
            return 2.0 * original(*args) if calls[name] == 1 else original(*args)

        monkeypatch.setattr(owner, name, wrong_once)
        obj = small_campaign_obj(theorems=["lemma32"], output_path=str(tmp_path / "r.csv"))
        assert main(["verify", write_json(tmp_path / "c.json", obj)]) == 1
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("lemma32"))
        assert row.split()[:4] == ["lemma32", "1", "0", "1"]  # run, skips, errors

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_exits_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "r.csv"
        campaign = write_json(tmp_path / "c.json", small_campaign_obj(output_path=str(out)))
        assert main(["verify", campaign, "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = small_campaign_obj(theorems=["prop31"], trials=1)
        f1 = write_json(tmp_path / "c1.json", dict(base, output_path=str(out1)))
        f2 = write_json(tmp_path / "c2.json", dict(base, output_path=str(out2)))
        assert main(["verify", f1]) == 0
        monkeypatch.setenv("OIL_SEED", "777")
        assert main(["verify", f2]) == 0
        assert out1.read_bytes() != out2.read_bytes()
        assert b"seed=777" in out2.read_bytes()

    @pytest.mark.parametrize("value", ["abc", "1.5", "-1", str(2**64)])
    def test_bad_seed_env_exits_1_naming_the_variable(self, tmp_path, monkeypatch, capsys, value):
        obj = small_campaign_obj(theorems=["prop31"], trials=1, output_path=str(tmp_path / "r.csv"))
        monkeypatch.setenv("OIL_SEED", value)
        assert main(["verify", write_json(tmp_path / "c.json", obj)]) == 1
        assert f"error: OIL_SEED={value!r} " in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_json_report_validates_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        out = tmp_path / "rep.json"
        obj = small_campaign_obj(format="json", output_path=str(out), trials=1)
        campaign_file = write_json(tmp_path / "c.json", obj)
        assert main(["verify", campaign_file]) == 0
        report = json.loads(out.read_text())
        schema = json.loads(
            resources.files("outerinv").joinpath("schemas/report.schema.json").read_text()
        )
        jsonschema.validate(report, schema)
        assert report["meta"]["seed"] == 2024
        assert len(report["rows"]) == len(THEOREMS)

    def test_unknown_theorem_exit_1(self, tmp_path, capsys):
        obj = small_campaign_obj(theorems=["thm99"])
        campaign_file = write_json(tmp_path / "c.json", obj)
        assert main(["verify", campaign_file]) == 1
        assert "thm99" in capsys.readouterr().err


# Config entries of the wrong type: (where, field, value).  Each one must
# end in exit 1 with the field named, not in a traceback, a silently
# converted value or a run of the wrong campaign.
WRONG_TYPES = [
    ("campaign", "trials", 2.7),
    ("campaign", "trials", True),
    ("campaign", "trials", "2"),
    ("gen", "seed", True),
    ("gen", "m", 6.0),
    ("gen", "max_retries", None),
    ("gen", "target_gap_T", "0.5"),
    ("gen", "target_gap_S", True),
    ("tolerances", "verify_atol", "1e-8"),
    ("tolerances", "cond_cap", False),
    ("tolerances", "rank_rtol", [0.1]),
    ("campaign", "theorems", "lemma31"),
    ("campaign", "theorems", ["lemma31", 7]),
    ("campaign", "output_path", 5),
    ("campaign", "format", 5),
    ("gen", "dim_T", "3"),
    ("campaign", "gen", 5),
    ("campaign", "tolerances", 5),
    ("campaign", "tolerances", []),
]


# Strategies built once: Hypothesis re-validates one built inside a test.
RATIOS = st.one_of(st.just(0), st.floats(0.0, 1.0, exclude_max=True))
POSITIVE = st.one_of(st.integers(1, 10**15), st.floats(0.0, 1e300, exclude_min=True))
RANK_RTOLS = st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
THEOREM_SETS = st.lists(st.sampled_from(THEOREMS), min_size=1, unique=True).map(tuple)
# A fixed alphabet with the characters JSON escapes: st.text() builds a
# Unicode table, a second of start-up on every run.
OUTPUT_PATHS = st.one_of(st.none(), st.text("aZ09._-/ \\\"\n\té中\U0001f600"))


@st.composite
def campaign_configs(draw):
    """Any valid campaign config; an int may stand in a float field, as JSON allows."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rank_a = draw(st.integers(1, min(m, n)))
    gen = GenConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        m=m,
        n=n,
        rank_A=rank_a,
        dim_T=draw(st.integers(1, min(rank_a, n - 1, m - 1))),
        target_gap_T=draw(RATIOS),
        target_gap_S=draw(RATIOS),
        target_norm_E_ratio=draw(RATIOS),
        max_retries=draw(st.integers(1, 10**6)),
    )
    tolerances = ToleranceProfile(
        rank_rtol=draw(RANK_RTOLS), verify_atol=draw(POSITIVE), cond_cap=draw(POSITIVE)
    )
    return CampaignConfig(
        gen=gen,
        theorems=draw(THEOREM_SETS),
        trials=draw(st.integers(1, 10**6)),
        tolerances=tolerances,
        output_path=draw(OUTPUT_PATHS),
        format=draw(st.sampled_from(["csv", "json"])),
    )


class TestConfigTypes:
    @pytest.mark.parametrize(
        "where, field, value", WRONG_TYPES, ids=[f"{w}.{f}={v!r}" for w, f, v in WRONG_TYPES]
    )
    def test_wrong_type_exits_1_naming_the_field(self, tmp_path, capsys, where, field, value):
        obj = small_campaign_obj(output_path=str(tmp_path / "r.csv"))
        if where == "campaign":
            obj[field] = value
        else:
            obj.setdefault(where, {})[field] = value
        assert main(["verify", write_json(tmp_path / "c.json", obj)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f" {field} is {value!r}" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("top", [[1], "x"], ids=["list", "string"])
    def test_top_level_not_an_object_exits_1(self, tmp_path, capsys, top):
        assert main(["verify", write_json(tmp_path / "c.json", top)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"top level is {top!r}, not an object" in err

    # A misspelt key would otherwise fall back to its default (1 trial of
    # every theorem), and a repeated id would run its trials twice.
    BAD_CONFIGS = [
        ({"gen": {"seed": 1}, "trails": 500, "theorem": ["prop31"]}, "'theorem', 'trails'"),
        ({"gen": {"seed": 1}, "trials": 2, "theorems": ["prop31", "prop31"]}, "'prop31'"),
        ({"trials": 2}, "'gen'"),
        ({"gen": {"m": 6}}, "'seed'"),
    ]
    BAD_IDS = ["unknown_key", "repeated_id", "missing_gen", "missing_seed"]

    @pytest.mark.parametrize("obj, named", BAD_CONFIGS, ids=BAD_IDS)
    def test_config_is_rejected_naming_the_culprit(self, obj, named):
        with pytest.raises(ValueError, match=named):
            campaign_config_from_obj(obj)

    @pytest.mark.parametrize("obj, named", BAD_CONFIGS, ids=BAD_IDS)
    def test_config_exits_1_naming_the_culprit(self, tmp_path, capsys, obj, named):
        obj = dict(obj, output_path=str(tmp_path / "r.csv"))
        assert main(["verify", write_json(tmp_path / "c.json", obj)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "r.csv").exists()

    def test_valid_values_keep_their_types(self):
        obj = small_campaign_obj(
            theorems=["prop31"], tolerances={"rank_rtol": None, "cond_cap": 10**12}
        )
        obj["gen"]["target_gap_T"] = 0
        config = campaign_config_from_obj(obj)
        assert config.gen.target_gap_T == 0 and type(config.gen.target_gap_T) is int
        assert type(config.tolerances.cond_cap) is int and config.tolerances.rank_rtol is None
        assert config.trials == 2 and config.theorems == ("prop31",)

    @settings(derandomize=True, database=None, deadline=None)
    @given(campaign_configs())
    def test_any_config_round_trips(self, config):
        # Equal configs can still hash apart: an int read back as a float
        # compares equal but hashes differently.
        wire = json.loads(json.dumps(campaign_config_to_obj(config)))
        loaded = campaign_config_from_obj(wire)
        assert loaded == config
        assert config_hash(loaded) == config_hash(config)


@st.composite
def trial_tallies(draw):
    """One trial's tally as run_trial returns it: a skip, an error or a row.

    A row's oracle may refuse (no relerr, and a condition number when it
    refused an ill-conditioned matrix); a row with no relerr or margin
    carries NaN or inf, as run_trial leaves them.
    """
    kind = draw(st.sampled_from(["skip", "error", "row"]))
    if kind == "skip":
        reasons = st.sampled_from(["kernel_meets_T", "direct_sum", "hypothesis_band"])
        counts = draw(st.dictionaries(reasons, st.integers(0, 50)))
        return TheoremSummary(trials_requested=1, skips=1, skip_reasons=Counter(counts))
    if kind == "error":
        return TheoremSummary(trials_requested=1, errors=1)
    refusal = draw(st.sampled_from([None, "existence", "ill_conditioned"]))
    met = draw(st.booleans())
    relerr = st.one_of(st.just(math.nan), st.floats(0.0, 1.0))
    margin = st.one_of(st.just(math.inf), st.floats(allow_nan=False))
    condition = draw(st.floats(1e12, math.inf)) if refusal == "ill_conditioned" else 0.0
    return TheoremSummary(
        trials_requested=1,
        trials_run=1,
        unchecked=int(refusal is not None),
        hypotheses_met=int(met),
        bounds_violations=draw(st.integers(0, int(met))),
        max_relerr=math.nan if refusal else draw(relerr),
        worst_margin_norm=draw(margin),
        worst_margin_diff=draw(margin),
        oracle_refusals=Counter([refusal] if refusal else []),
        max_refusal_condition=condition,
    )


class TestTheoremSummaryAdd:
    def test_counts_add_and_extremes_skip_the_missing(self):
        total = TheoremSummary()
        trials = [
            TheoremSummary(trials_requested=1, skips=1, skip_reasons=Counter(direct_sum=2, gap_S=0)),
            TheoremSummary(trials_requested=1, errors=1),
            TheoremSummary(
                trials_requested=1, trials_run=1, hypotheses_met=1, max_relerr=3e-15,
                worst_margin_norm=0.5, worst_margin_diff=0.25,
            ),
            # A refused oracle: no relerr (NaN) and no margins (inf).
            TheoremSummary(
                trials_requested=1, trials_run=1, unchecked=1, hypotheses_met=1,
                oracle_refusals=Counter(ill_conditioned=1), max_refusal_condition=2e13,
            ),
            TheoremSummary(
                trials_requested=1, trials_run=1, bounds_violations=1, hypotheses_met=1,
                max_relerr=1e-15, worst_margin_norm=0.75, worst_margin_diff=-0.125,
                oracle_refusals=Counter(existence=1),
            ),
            TheoremSummary(
                trials_requested=1, trials_run=1, unchecked=1,
                oracle_refusals=Counter(ill_conditioned=1), max_refusal_condition=5e12,
            ),
        ]
        for tally in trials:
            total.add(tally)
        assert (total.trials_requested, total.trials_run, total.skips, total.errors) == (6, 4, 1, 1)
        assert (total.unchecked, total.hypotheses_met, total.bounds_violations) == (2, 3, 1)
        assert total.skip_reasons == Counter(direct_sum=2, gap_S=0)
        assert total.oracle_refusals == Counter(ill_conditioned=2, existence=1)
        assert total.max_relerr == 3e-15
        assert (total.worst_margin_norm, total.worst_margin_diff) == (0.5, -0.125)
        assert total.max_refusal_condition == 2e13

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_any_fold_order_gives_the_same_summary(self, data):
        tallies = data.draw(st.lists(trial_tallies(), min_size=1, max_size=8), label="tallies")
        folded = []
        for order in (tallies, data.draw(st.permutations(tallies), label="order")):
            total = TheoremSummary()
            for tally in order:
                total.add(tally)
            folded.append(total)
        first, second = folded
        for f in fields(TheoremSummary):
            x, y = getattr(first, f.name), getattr(second, f.name)
            assert x == y or (math.isnan(x) and math.isnan(y)), f.name
        codes = [
            campaign_exit_code(CampaignSummary(per_theorem={"prop31": t}, wall_time=0.0))
            for t in folded
        ]
        assert codes[0] == codes[1]

    def test_an_empty_fold_keeps_the_missing_markers(self):
        total = TheoremSummary()
        total.add(TheoremSummary(trials_requested=1, trials_run=1))
        assert math.isnan(total.max_relerr)
        assert total.worst_margin_norm == total.worst_margin_diff == math.inf
        assert total.max_refusal_condition == 0.0

    def test_a_trial_tally_is_a_summary_of_one(self):
        config = replace(CampaignConfig.default(seed=11), theorems=("prop31",), trials=3)
        total = TheoremSummary()
        for trial_id in range(3):
            row, tally = run_trial(config, "prop31", trial_id)
            assert isinstance(tally, TheoremSummary) and tally.trials_requested == 1
            assert tally.max_relerr == row["relerr"] and tally.worst_margin_diff == row["margin_diff"]
            total.add(tally)
        _, summary = run_campaign(config)
        assert summary.per_theorem["prop31"] == total


class TestExitCodeGate:
    def _summary(self, **kwargs):
        t = TheoremSummary(trials_requested=10, trials_run=10, hypotheses_met=10)
        for k, v in kwargs.items():
            setattr(t, k, v)
        return CampaignSummary(per_theorem={"prop31": t}, wall_time=0.0)

    def test_clean_pass(self):
        assert campaign_exit_code(self._summary(max_relerr=1e-12)) == 0

    def test_bound_violation_is_exit_3(self):
        assert campaign_exit_code(self._summary(bounds_violations=1)) == 3

    def test_relerr_failure_is_exit_1(self):
        assert campaign_exit_code(self._summary(max_relerr=1e-3)) == 1

    def test_excess_skips_exit_1(self):
        assert campaign_exit_code(self._summary(skips=1, trials_run=9)) == 1

    def test_violation_outranks_relerr(self):
        assert campaign_exit_code(self._summary(bounds_violations=2, max_relerr=1.0)) == 3

    def test_numerical_error_is_exit_1(self):
        assert campaign_exit_code(self._summary(errors=1, trials_run=9)) == 1

    def test_violation_outranks_errors(self):
        assert campaign_exit_code(self._summary(errors=1, bounds_violations=1)) == 3

    def test_unchecked_row_counts_like_a_skip(self):
        assert campaign_exit_code(self._summary(unchecked=1)) == 1


class TestSweep:
    def test_ratio_grid(self):
        assert sweep_ratios(2) == [0.0, 0.95]
        grid = sweep_ratios(6)
        assert len(grid) == 6
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.95)
        assert all(a < b for a, b in zip(grid[1:], grid[2:]))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_exits_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "s.csv"
        obj = small_campaign_obj(theorems=["lemma32"], output_path=str(out))
        campaign = write_json(tmp_path / "c.json", obj)
        argv = ["sweep", campaign, "--axis", "norm_E", "--points", "2", "--jobs", jobs]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_two_point_sweep_first_row_zero(self, tmp_path):
        obj = small_campaign_obj(theorems=["lemma32"], trials=2, output_path=str(tmp_path / "s.csv"))
        campaign_file = write_json(tmp_path / "c.json", obj)
        assert main(["sweep", campaign_file, "--axis", "norm_E", "--points", "2"]) == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        data = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 2
        header = [ln for ln in lines if not ln.startswith("#")][0].split(",")
        mean_idx = header.index("mean_diff_actual")
        assert float(data[0][mean_idx]) <= 1e-10
        assert float(data[1][mean_idx]) > 1e-6

    def test_monotone_means_along_norm_E(self):
        config = CampaignConfig(
            gen=GenConfig(seed=5, m=5, n=4, rank_A=3, dim_T=2),
            theorems=("lemma32",),
            trials=10,
            tolerances=ToleranceProfile(),
        )
        rows, _ = run_sweep(config, "norm_E", points=6)
        assert len(rows) == 6
        means_actual = [r["mean_diff_actual"] for r in rows]
        means_bound = [r["mean_diff_bound"] for r in rows]
        assert all(a < b for a, b in zip(means_actual, means_actual[1:]))
        assert all(a < b for a, b in zip(means_bound, means_bound[1:]))

    def test_json_sweep_validates_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        out = tmp_path / "sweep.json"
        obj = small_campaign_obj(
            theorems=["lemma32"], trials=2, format="json", output_path=str(out)
        )
        campaign_file = write_json(tmp_path / "c.json", obj)
        assert main(["sweep", campaign_file, "--axis", "norm_E", "--points", "3"]) == 0
        report = json.loads(out.read_text())
        schema = json.loads(
            resources.files("outerinv").joinpath("schemas/report.schema.json").read_text()
        )
        jsonschema.validate(report, schema)
        assert len(report["rows"]) == 3

    def test_numerical_error_is_exit_1(self, tmp_path, monkeypatch, capsys):
        original = harness_cli.perturb_T
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericalError("singular system")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness_cli, "perturb_T", flaky)
        out = tmp_path / "s.csv"
        obj = small_campaign_obj(theorems=["prop31"], trials=2, output_path=str(out))
        campaign_file = write_json(tmp_path / "c.json", obj)
        assert main(["sweep", campaign_file, "--axis", "gap_T", "--points", "2"]) == 1
        assert "1 sweep trials raised a numerical error" in capsys.readouterr().err
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        trials = lines[0].split(",").index("trials")
        assert [row.split(",")[trials] for row in lines[1:]] == ["2", "1"]

    def _sweep(self, tmp_path, capsys):
        obj = small_campaign_obj(theorems=["prop31"], trials=2, output_path=str(tmp_path / "s.csv"))
        code = main(["sweep", write_json(tmp_path / "c.json", obj), "--axis", "gap_T", "--points", "2"])
        return code, capsys.readouterr().out

    def test_planted_violation_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # At ratio 0 the bound is 0 and nothing moves; at 0.95 the cut bound fails.
        monkeypatch.setattr(perturbation, "GOLDEN_RATIO", perturbation.GOLDEN_RATIO / 100.0)
        code, out = self._sweep(tmp_path, capsys)
        assert code == 3
        lines = out.splitlines()
        assert lines[0].startswith("sweep written to ") and "point 0 " not in out
        at = lines.index("point 1 (ratio 0.95) exits 3:")
        assert lines[at + 1].split() == [
            "theorem", "run", "skips", "errors", "unchecked", "hyp_met",
            "violations", "max_relerr", "margin_norm", "margin_diff",
        ]
        prop31 = lines[at + 2].split()
        assert prop31[0] == "prop31" and int(prop31[6]) > 0
        assert lines[-1].startswith("wall_time=")

    def test_oracle_that_always_refuses_is_exit_1(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise IllConditionedError("refused", 1e20)

        monkeypatch.setattr(perturbation, "oracle_compute", refuse)
        code, out = self._sweep(tmp_path, capsys)
        assert code == 1
        for point in ("point 0 (ratio 0.0) exits 1:", "point 1 (ratio 0.95) exits 1:"):
            assert point in out.splitlines()
        refusals = "oracle refusals for prop31: existence=0, ill_conditioned=2 (max condition 1.000e+20)"
        assert out.splitlines().count(refusals) == 2

    def test_relerr_above_the_gate_is_exit_1(self, tmp_path, monkeypatch, capsys):
        original = harness_cli.perturb_T

        def disagreeing(*args, **kwargs):
            return replace(original(*args, **kwargs), formula_vs_oracle_relerr=1e-3)

        monkeypatch.setattr(harness_cli, "perturb_T", disagreeing)
        code, out = self._sweep(tmp_path, capsys)
        assert code == 1
        assert "point 1 (ratio 0.95) exits 1:" in out.splitlines()

    def test_requires_single_theorem(self):
        config = CampaignConfig(
            gen=GenConfig(seed=5),
            theorems=("lemma32", "prop31"),
            trials=1,
            tolerances=ToleranceProfile(),
        )
        with pytest.raises(ValueError, match="exactly one"):
            run_sweep(config, "norm_E", points=2)

    def test_axis_theorem_compatibility(self):
        config = CampaignConfig(
            gen=GenConfig(seed=5),
            theorems=("prop31",),
            trials=1,
            tolerances=ToleranceProfile(),
        )
        with pytest.raises(ValueError, match="does not apply"):
            run_sweep(config, "norm_E", points=2)


class TestShapeMatrix:
    @pytest.mark.parametrize(
        "m,n,rank_a,dim_t",
        [
            (3, 3, 2, 1),    # smallest feasible square
            (12, 10, 7, 4),  # largest campaign scale
            (4, 7, 3, 2),    # wide
            (8, 8, 8, 5),    # full rank square
            (10, 4, 4, 3),   # tall, full column rank
        ],
    )
    def test_all_theorems_across_shapes(self, m, n, rank_a, dim_t):
        config = CampaignConfig(
            gen=GenConfig(seed=31337, m=m, n=n, rank_A=rank_a, dim_T=dim_t),
            theorems=THEOREMS,
            trials=3,
            tolerances=ToleranceProfile(),
        )
        rows, summary = run_campaign(config)
        assert campaign_exit_code(summary) == 0
        assert len(rows) == 3 * len(THEOREMS)
        assert all(t.skips == 0 for t in summary.per_theorem.values())


class TestCampaignInternals:
    def test_rows_have_fixed_columns(self):
        config = CampaignConfig(
            gen=GenConfig(seed=8, m=5, n=4, rank_A=3, dim_T=2),
            theorems=("prop31", "lemma31", "lemma21"),
            trials=2,
            tolerances=ToleranceProfile(),
        )
        rows, summary = run_campaign(config)
        assert len(rows) == 6
        for row in rows:
            assert tuple(row) == CSV_COLUMNS
        assert summary.total.bounds_violations == 0
        for t in summary.per_theorem.values():
            assert t.hypotheses_met == t.trials_run == 2

    def test_lemma31_rows_leave_norm_columns_empty(self):
        config = CampaignConfig(
            gen=GenConfig(seed=8, m=5, n=4, rank_A=3, dim_T=2),
            theorems=("lemma31",),
            trials=1,
            tolerances=ToleranceProfile(),
        )
        rows, summary = run_campaign(config)
        (row,) = rows
        assert row["norm_bound"] is None and row["relerr"] is None
        assert row["diff_actual"] is not None
        assert math.isnan(summary.total.max_relerr)

    @pytest.mark.parametrize("excess, violated", [(0.5, False), (2.0, True)])
    def test_lemma31_zero_bound_has_the_absolute_floor(self, monkeypatch, excess, violated):
        # A zero bound (gap(T, T') = 0) must tolerate rounding noise up to
        # BOUND_SLACK * (1 + ||G||), as every other theorem's check does.
        config = replace(CampaignConfig.default(seed=3), theorems=("lemma31",), trials=1)
        gen = replace(config.gen, seed=derive_trial_seed(config.gen.seed, "lemma31", 0))
        noise = excess * BOUND_SLACK * (1.0 + generate(gen, "lemma31").prepared.norm_G)

        def gap_hat(u, v):
            # T and T' live in C^n, the images A T and A T' in C^m (m != n).
            return 0.0 if u.ambient_dim == config.gen.n else noise

        fake_ss = SimpleNamespace(**{**vars(ss), "gap_hat": gap_hat})
        monkeypatch.setattr(perturbation, "ss", fake_ss)
        row, tally = run_trial(config, "lemma31", 0)
        assert row["diff_bound"] == 0.0 and row["diff_actual"] == noise
        assert tally.bounds_violations == violated

    def test_every_evaluator_takes_a_scenario_and_a_tolerance(self):
        # One signature for all seven keeps the dispatch table a plain name table.
        assert tuple(harness_cli._EVALUATORS) == THEOREMS
        for name in harness_cli._EVALUATORS.values():
            evaluator = getattr(perturbation, name)
            assert getattr(harness_cli, name) is evaluator
            assert tuple(inspect.signature(evaluator).parameters) == ("scenario", "tol")
        # perfbench's tracer times these names as perturbation.evaluate; a
        # renamed evaluator would drop out of that figure without an error.
        path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        names = {f"perturbation.{name}" for name in harness_cli._EVALUATORS.values()}
        assert tracer.EVALUATORS == names

    def test_each_theorem_calls_its_evaluator_once(self, monkeypatch):
        evaluators = {
            "lemma21": "stable_bounds",
            "lemma31": "gap_propagation",
            "prop31": "perturb_T",
            "prop32": "perturb_S",
            "thm31": "perturb_TS",
            "lemma32": "perturb_A",
            "thm32": "perturb_all",
        }
        assert tuple(REGISTRY) == THEOREMS and set(evaluators) == set(THEOREMS)
        calls = Counter()
        for name in evaluators.values():
            original = getattr(harness_cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness_cli, name, counted)
        config = replace(CampaignConfig.default(seed=11), trials=1)
        for theorem_id, name in evaluators.items():
            calls.clear()
            row, _ = run_trial(config, theorem_id, 0)
            assert row["theorem"] == theorem_id
            assert calls == {name: 1}, theorem_id

    def test_numerical_error_drops_one_row_and_exits_1(self, tmp_path, monkeypatch, capsys):
        original = harness_cli.perturb_A
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericalError("singular system")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness_cli, "perturb_A", flaky)
        out = tmp_path / "r.csv"
        obj = small_campaign_obj(theorems=["prop31", "lemma32"], trials=3, output_path=str(out))
        assert main(["verify", write_json(tmp_path / "c.json", obj)]) == 1
        data = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        assert [(r[0], r[1]) for r in data] == [
            ("0", "prop31"), ("1", "prop31"), ("2", "prop31"), ("0", "lemma32"), ("2", "lemma32")
        ]
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split()
        (lemma32,) = [ln.split() for ln in lines if ln.startswith("lemma32")]
        assert lemma32[header.index("errors")] == "1"
        assert lemma32[header.index("run")] == "2"

    def test_campaign_without_oracle_exits_1(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise IllConditionedError("refused", 1e20)

        monkeypatch.setattr(perturbation, "oracle_compute", refuse)
        gen = GenConfig(seed=4, m=5, n=4, rank_A=3, dim_T=2)
        config = replace(CampaignConfig.default(), gen=gen, trials=2)
        rows, summary = run_campaign(config)
        assert len(rows) == 2 * len(THEOREMS)
        # lemma21's oracle is pinv(A + E) and lemma31 has no second route.
        missing = {t: s.unchecked for t, s in summary.per_theorem.items()}
        assert missing == {t: 0 if t in ("lemma21", "lemma31") else 2 for t in THEOREMS}
        # Without the oracle there is nothing independent to measure the bounds on.
        refused = [r for r in rows if r["theorem"] not in ("lemma21", "lemma31")]
        for column in ("relerr", "norm_actual", "diff_actual", "margin_norm", "margin_diff"):
            assert [r[column] for r in refused] == [None] * len(refused), column
        # Every bound reads ||G'|| from the oracle, so without it prop31's and
        # prop32's difference bounds are empty; the others need no ||G'||.
        assert all(r["norm_bound"] is not None for r in refused)
        no_diff_bound = [r["theorem"] for r in refused if r["diff_bound"] is None]
        assert no_diff_bound == ["prop31", "prop31", "prop32", "prop32"]
        assert summary.total.bounds_violations == 0
        assert campaign_exit_code(summary) == 1

    def test_oracle_refusal_reasons_are_summed_and_printed(self, tmp_path, monkeypatch, capsys):
        calls = Counter()

        def refuse(problem, tol):
            calls["oracle"] += 1
            if calls["oracle"] % 3 == 0:
                cert = ExistenceCertificate("kernel_meets_T")
                raise ExistenceError("outer inverse does not exist", cert)
            raise IllConditionedError("refused", 1e13 * calls["oracle"])

        monkeypatch.setattr(perturbation, "oracle_compute", refuse)
        out = tmp_path / "r.csv"
        obj = small_campaign_obj(theorems=["lemma21", "prop31", "prop32"], trials=3, output_path=str(out))
        assert main(["verify", write_json(tmp_path / "c.json", obj)]) == 1
        stdout = capsys.readouterr().out
        # Oracle calls 1-3 are prop31's trials, 4-6 prop32's; every third is an existence refusal.
        assert "oracle refusals for prop31: existence=1, ill_conditioned=2 (max condition 2.000e+13)\n" in stdout
        assert "oracle refusals for prop32: existence=1, ill_conditioned=2 (max condition 5.000e+13)\n" in stdout
        assert "oracle refusals for lemma21" not in stdout

    def test_campaign_without_formula_exits_1(self, monkeypatch):
        # lemma21's formula can fail while its oracle pinv(A + E) runs: a
        # refused resolvent solve leaves no {1,2}-inverse to project.
        def refuse(*args, **kwargs):
            raise IllConditionedError("refused", 1e20)

        monkeypatch.setattr(perturbation, "solve_square", refuse)
        gen = GenConfig(seed=4, m=5, n=4, rank_A=3, dim_T=2)
        config = replace(CampaignConfig.default(), gen=gen, theorems=("lemma21",), trials=2)
        rows, summary = run_campaign(config)
        assert [r["relerr"] for r in rows] == [None, None]
        assert summary.per_theorem["lemma21"].unchecked == 2
        assert campaign_exit_code(summary) == 1

    def test_skip_reasons_are_summed_and_printed(self, tmp_path, monkeypatch, capsys):
        original = harness_cli.generate

        def generate_or_give_up(config, theorem, tol):
            if theorem == "prop32":
                raise GenerationError("gave up", {"kernel_meets_T": 0, "direct_sum": 3})
            return original(config, theorem, tol)

        monkeypatch.setattr(harness_cli, "generate", generate_or_give_up)
        out = tmp_path / "r.csv"
        obj = small_campaign_obj(theorems=["prop31", "prop32"], trials=2, output_path=str(out))
        assert main(["verify", write_json(tmp_path / "c.json", obj)]) == 1
        stdout = capsys.readouterr().out
        assert "skip reasons for prop32: direct_sum=6\n" in stdout
        assert "skip reasons for prop31" not in stdout

    def test_config_round_trip(self):
        obj = {
            "gen": {"seed": 5, "m": 6, "n": 5, "rank_A": 4, "dim_T": 3},
            "theorems": ["thm31"],
            "trials": 7,
            "tolerances": {"verify_atol": 1e-9},
            "format": "json",
        }
        config = campaign_config_from_obj(obj)
        assert config.trials == 7
        assert config.tolerances.verify_atol == 1e-9
        assert config.theorems == ("thm31",)

    def test_matrix_obj_helper_available_for_configs(self):
        # Problem files are hand-writable; keep the entry layout stable.
        # The pairs are tuples in Python, so the layout is read from the JSON text.
        obj = json.loads(json.dumps(matrix_to_obj(np.eye(2))))
        assert obj["entries"][1] == [0.0, 0.0]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_every_theorem_holds_on_any_shape(data):
    config = replace(CampaignConfig.default(), gen=draw_gen_config(data), trials=1)
    for theorem in THEOREMS:
        row, tally = run_trial(config, theorem, 0)
        assert row is not None and row["hyp_ok"], theorem
        assert tally.bounds_violations == 0, theorem
        assert row["relerr"] is None or row["relerr"] <= RELERR_GATE, theorem


def loaded_by_import(module: str) -> bool:
    """Whether importing the harness in a fresh interpreter loads ``module``.

    A fresh interpreter, because this one may have imported it already.
    """
    src = os.path.dirname(os.path.dirname(outerinv.__file__))
    code = f"import sys, outerinv.harness_cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_import_leaves_the_process_pool_unloaded():
    # Only --jobs > 1 needs concurrent.futures.process; importing it costs
    # every `oil` call tens of milliseconds.
    assert not loaded_by_import("concurrent.futures.process")


def test_import_leaves_openssl_unloaded():
    # Only a report's config hash needs hashlib, whose OpenSSL adds about
    # 3 MB to the peak memory of `oil compute`.
    assert not loaded_by_import("_hashlib")
