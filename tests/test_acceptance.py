"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from outerinv import subspace as ss
from outerinv.harness_cli import CampaignConfig, campaign_exit_code, render_table, run_campaign
from outerinv.harness_cli import CSV_COLUMNS
from outerinv.instance_gen import (
    GenConfig,
    random_matrix_with_rank,
    random_subspace,
)
from outerinv.numlin import op_norm, pinv
from outerinv.outer_inverse import (
    compute,
    drazin,
    group_inverse,
    moore_penrose,
    moore_penrose_problem,
    oracle_compute,
)
from outerinv.perturbation import (
    GOLDEN_RATIO,
    is_stable,
    perturb_A,
    perturb_S,
    perturb_T,
    perturb_TS,
    perturb_all,
    stable_bounds,
)

from helpers import complex_gaussian, random_feasible_problem, scenario
from test_perturbation import stable_pair
from test_subspace import sampled_sup_dist


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_penrose_suite():
    with criterion(1, "Penrose residuals on 1000 random matrices"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for k in range(1000):
            m, n = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            if k % 3 == 0:
                a = complex_gaussian(rng, (m, n))
            else:
                r = int(rng.integers(0, min(m, n) + 1))
                a = random_matrix_with_rank(m, n, r, rng)
            b = pinv(a)
            tol = 1e-8 * (1.0 + op_norm(a))
            assert op_norm(a @ b @ a - a) <= tol
            assert op_norm(b @ a @ b - b) <= tol
            assert op_norm((a @ b).conj().T - a @ b) <= tol
            assert op_norm((b @ a).conj().T - b @ a) <= tol
        assert time.monotonic() - start < 10.0


def test_criterion_2_gap_identity_and_monte_carlo():
    with criterion(2, "gap identity and Monte-Carlo sup cross-check"):
        rng = np.random.default_rng(202)
        for _ in range(500):
            ambient = int(rng.integers(1, 13))
            m = random_subspace(ambient, int(rng.integers(0, ambient + 1)), rng)
            n = random_subspace(ambient, int(rng.integers(0, ambient + 1)), rng)
            identity_err = abs(
                ss.gap_hat(m, n) - max(ss.delta(m, n), ss.delta(n, m))
            )
            assert identity_err <= 1e-10
        # Sampled suprema converge too slowly above dimension two, so the
        # Monte-Carlo check runs on low-dimensional subspaces of C^<=6.
        for _ in range(40):
            ambient = int(rng.integers(2, 7))
            m = random_subspace(ambient, int(rng.integers(1, 3)), rng)
            n = random_subspace(ambient, int(rng.integers(1, ambient + 1)), rng)
            exact = ss.delta(m, n)
            sampled = sampled_sup_dist(m, n, rng, samples=20000)
            assert sampled <= exact + 1e-10
            assert exact - sampled <= 1e-3


def test_criterion_3_projector_route_vs_oracle():
    with criterion(3, "projector-formula inverse vs independent oracle, 500 instances"):
        rng = np.random.default_rng(303)
        start = time.monotonic()
        for _ in range(500):
            prob = random_feasible_problem(rng)
            res = compute(prob)
            oracle = oracle_compute(prob)
            assert op_norm(res.G - oracle) <= 1e-8 * op_norm(oracle)
            assert res.residual_gag <= 1e-8 * (1.0 + op_norm(res.G))
            assert res.range_gap <= 1e-8
            assert res.null_gap <= 1e-8
        assert time.monotonic() - start < 30.0


def test_criterion_4_stable_equivalence_and_bounds():
    with criterion(4, "stable-perturbation equivalence and bounds, 1000 trials"):
        assert GOLDEN_RATIO == (1.0 + math.sqrt(5.0)) / 2.0
        rng = np.random.default_rng(404)
        kinds = ["full"] * 350 + ["range"] * 350 + ["jump"] * 300
        for kind in kinds:
            a, da = stable_pair(rng, kind)
            report = is_stable(a, da)
            assert report.hypothesis_met
            # The three conditions must agree in every trial.
            assert report.cond1 == report.cond2 == report.cond3_formula_valid
            expected_stable = kind != "jump"
            assert report.cond1 == expected_stable
            if expected_stable:
                bounds = stable_bounds(scenario(moore_penrose_problem(a), E=da))
                assert bounds.all_satisfied
                assert bounds.norm_actual <= bounds.norm_bound * (1 + 1e-10)
                assert bounds.diff_actual <= bounds.diff_bound * (1 + 1e-10)


def test_criterion_5_theorem_suite_default_campaign():
    with criterion(5, "default campaign: 200 trials per theorem, bounds and oracle"):
        start = time.monotonic()
        config = CampaignConfig.default()
        rows, summary = run_campaign(config)
        assert campaign_exit_code(summary) == 0
        assert summary.total.bounds_violations == 0
        for theorem, t in summary.per_theorem.items():
            assert t.trials_run == 200, theorem
            assert t.hypotheses_met == 200, theorem
            assert t.skips == 0, theorem
        for row in rows:
            if row["relerr"] is not None:
                assert row["relerr"] <= 1e-8
            if row["hyp_ok"] and row["margin_norm"] is not None:
                assert row["norm_actual"] <= row["norm_bound"] * (1 + 1e-10)
            if row["hyp_ok"] and row["margin_diff"] is not None:
                assert row["diff_actual"] <= row["diff_bound"] * (1 + 1e-10)

        # Zero-perturbation reductions collapse to the base inverse.
        rng = np.random.default_rng(505)
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        for result in (
            perturb_T(scenario(prob)).formula_result,
            perturb_S(scenario(prob)).formula_result,
            perturb_TS(scenario(prob)).formula_result,
            perturb_A(scenario(prob)).formula_result,
            perturb_all(scenario(prob)).formula_result,
        ):
            assert op_norm(result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert time.monotonic() - start < 60.0


def test_criterion_6_classical_cases():
    with criterion(6, "classical special cases"):
        rng = np.random.default_rng(606)
        for _ in range(200):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            r = int(rng.integers(0, min(m, n) + 1))
            a = random_matrix_with_rank(m, n, r, rng)
            expected = pinv(a)
            assert op_norm(moore_penrose(a).G - expected) <= 1e-8 * (1.0 + op_norm(expected))
        for _ in range(50):
            v = complex_gaussian(rng, (4, 4)) + 2.0 * np.eye(4)
            if np.linalg.cond(v) > 50:
                continue
            d = np.diag([1.2, 0.8 + 0.5j, 0.0, 0.0])
            a = v @ d @ np.linalg.inv(v)
            g = group_inverse(a).G
            assert op_norm(a @ g - g @ a) <= 1e-8 * (1.0 + op_norm(a) * op_norm(g))
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert op_norm(drazin(nilpotent).G) <= 1e-8


def test_criterion_7_reproducibility():
    with criterion(7, "byte-identical CSV for a fixed seed"):
        config = CampaignConfig(
            gen=GenConfig(seed=1717),
            theorems=("lemma21", "lemma31", "prop31", "prop32", "thm31", "lemma32", "thm32"),
            trials=5,
            tolerances=CampaignConfig.default().tolerances,
        )
        rows1, _ = run_campaign(config)
        rows2, _ = run_campaign(config)
        text1 = render_table(rows1, config, CSV_COLUMNS)
        text2 = render_table(rows2, config, CSV_COLUMNS)
        assert text1.encode() == text2.encode()
        assert len(rows1) == 35
