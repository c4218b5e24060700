"""Perturbation representations and bounds, checked against oracles."""

import math

import numpy as np
import pytest

from outerinv import subspace as ss
from outerinv.instance_gen import (
    GenConfig,
    generate,
    perturb_subspace_exact_gap,
    random_matrix_with_rank,
    random_subspace,
)
from outerinv.numlin import op_norm, pinv
from outerinv.outer_inverse import OuterInverseProblem, compute, moore_penrose_problem, prepare
from outerinv.perturbation import (
    GOLDEN_RATIO,
    HypothesisStatus,
    PerturbationScenario,
    gap_propagation,
    is_stable,
    perturb_A,
    perturb_S,
    perturb_T,
    perturb_TS,
    perturb_all,
    stable_bounds,
    theorem_hypotheses,
)

from helpers import complex_gaussian, line, random_feasible_problem


def diag_problem():
    """A = diag(2, 3), T = span{e1}, S = span{e2}: G = diag(1/2, 0)."""
    return OuterInverseProblem(np.diag([2.0, 3.0]).astype(complex), line(1, 0), line(0, 1))


def stable_pair(rng, kind):
    """(A, dA) with ||pinv(A)|| ||dA|| < 1.

    'full'  - full-rank A, generic direction: rank cannot move.
    'range' - rank-deficient A, dA = B A: the product keeps the rank.
    'jump'  - rank-deficient A, generic direction: the rank jumps up.
    """
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    if kind == "full":
        r = min(m, n)
        direction = complex_gaussian(rng, (m, n))
    elif kind == "range":
        r = int(rng.integers(1, min(m, n)))
        a = random_matrix_with_rank(m, n, r, rng)
        direction = complex_gaussian(rng, (m, m)) @ a
        ratio = rng.uniform(0.05, 0.9)
        da = direction * (ratio / (op_norm(pinv(a)) * op_norm(direction)))
        return a, da
    elif kind == "jump":
        r = int(rng.integers(1, min(m, n)))
        direction = complex_gaussian(rng, (m, n))
    else:
        raise ValueError(kind)
    a = random_matrix_with_rank(m, n, r, rng)
    ratio = rng.uniform(0.05, 0.9)
    da = direction * (ratio / (op_norm(pinv(a)) * op_norm(direction)))
    return a, da


class TestHypothesisStatus:
    def test_strict_inequality(self):
        assert not HypothesisStatus("x", 1.0, 1.0).satisfied
        assert HypothesisStatus("x", 1.0, 0.999999).satisfied

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            theorem_hypotheses("thm99")


class TestScenario:
    def test_measured_values_recomputed(self, rng):
        prob = random_feasible_problem(rng, m=5, n=4, rank_a=3, dim_t=2)
        t_prime = perturb_subspace_exact_gap(prob.T, 0.3, rng)
        e = complex_gaussian(rng, (5, 4))
        sc = PerturbationScenario(prob, t_prime, prob.S, e)
        assert sc.measured_gap_T == pytest.approx(ss.gap_hat(prob.T, t_prime), abs=1e-15)
        assert sc.measured_gap_S == 0.0
        assert sc.norm_E == pytest.approx(op_norm(e), abs=1e-15)

    def test_shape_mismatch_rejected(self, rng):
        prob = random_feasible_problem(rng, m=5, n=4)
        with pytest.raises(ValueError, match="shape"):
            PerturbationScenario(prob, prob.T, prob.S, np.zeros((4, 5)))


class TestStableEquivalence:
    def test_zero_perturbation(self, rng):
        a = complex_gaussian(rng, (4, 3))
        report = is_stable(a, np.zeros_like(a))
        assert report.cond1 and report.cond2 and report.cond3_formula_valid
        assert report.hypothesis_met
        assert op_norm(report.gi_matrix - pinv(a)) < 1e-10

    def test_rank_jump_all_false(self):
        # diag(1, 0) -> diag(1, 1e-3): the new range tilts into the old
        # range's orthogonal complement, so every condition must fail.
        a = np.diag([1.0, 0.0]).astype(complex)
        da = np.diag([0.0, 1e-3]).astype(complex)
        report = is_stable(a, da)
        assert report.hypothesis_met
        assert not report.cond1 and not report.cond2 and not report.cond3_formula_valid

    @pytest.mark.parametrize("kind,expected", [("full", True), ("range", True), ("jump", False)])
    def test_three_conditions_agree(self, rng, kind, expected):
        for _ in range(60):
            a, da = stable_pair(rng, kind)
            report = is_stable(a, da)
            assert report.hypothesis_met
            assert report.cond1 == report.cond2 == report.cond3_formula_valid == expected


class TestStableBounds:
    def test_zero_perturbation(self, rng):
        a = complex_gaussian(rng, (3, 4))
        report = stable_bounds(prepare(moore_penrose_problem(a)), np.zeros_like(a))
        assert report.diff_actual == 0.0
        assert report.diff_bound == 0.0
        assert report.all_satisfied

    def test_scaled_identity_closed_form(self):
        eye = np.eye(2, dtype=complex)
        report = stable_bounds(prepare(moore_penrose_problem(eye)), 0.1 * eye)
        assert report.norm_actual == pytest.approx(1.0 / 1.1)
        assert report.norm_bound == pytest.approx(1.0 / 0.9)
        assert report.all_satisfied

    def test_golden_ratio_constant_exact(self):
        assert GOLDEN_RATIO == (1.0 + math.sqrt(5.0)) / 2.0

    @pytest.mark.parametrize("kind", ["full", "range"])
    def test_bounds_hold_on_stable_trials(self, rng, kind):
        for _ in range(100):
            a, da = stable_pair(rng, kind)
            report = stable_bounds(prepare(moore_penrose_problem(a)), da)
            assert report.all_satisfied
            assert report.norm_actual <= report.norm_bound * (1 + 1e-10)
            assert report.diff_actual <= report.diff_bound * (1 + 1e-10)
            assert report.formula_vs_oracle_relerr <= 1e-8

    def test_unstable_flagged_not_asserted(self, rng):
        a = np.diag([1.0, 0.0]).astype(complex)
        da = np.diag([0.0, 1e-3]).astype(complex)
        report = stable_bounds(prepare(moore_penrose_problem(a)), da)
        assert not report.all_satisfied


class TestGapPropagation:
    def test_identical_subspace(self, rng):
        prob = random_feasible_problem(rng, m=5, n=4, rank_a=3, dim_t=2)
        gp = gap_propagation(prepare(prob), prob.T)
        assert gp.actual == 0.0 and gp.bound == 0.0
        assert gp.hypothesis.satisfied

    def test_identity_operator(self, rng):
        # With A = I the image gap equals the subspace gap itself.
        t = random_subspace(4, 2, rng)
        s = ss.orthogonal_complement(t)
        prob = OuterInverseProblem(np.eye(4, dtype=complex), t, s)
        t_prime = perturb_subspace_exact_gap(t, 0.1, rng)
        gp = gap_propagation(prepare(prob), t_prime)
        assert gp.actual == pytest.approx(ss.gap_hat(t, t_prime), abs=1e-12)
        assert gp.actual <= gp.bound * (1 + 1e-10)

    def test_bound_and_intermediate_inequality(self, rng):
        from outerinv.outer_inverse import image_of

        for _ in range(100):
            cfg = GenConfig(seed=int(rng.integers(0, 2**63)), target_gap_T=float(rng.uniform(0, 0.95)))
            inst = generate(cfg, "lemma31")
            prob, t_prime = inst.scenario.base, inst.scenario.T_prime
            gp = gap_propagation(prepare(prob), t_prime)
            assert gp.hypothesis.satisfied
            assert gp.actual <= gp.bound * (1 + 1e-10)
            kappa = op_norm(prob.A) * op_norm(compute(prob).G)
            directed = ss.delta(image_of(prob.A, prob.T), image_of(prob.A, t_prime))
            assert directed <= kappa * ss.delta(prob.T, t_prime) * (1 + 1e-10) + 1e-12


class TestPerturbT:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_T(prepare(prob), prob.T)
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_diagonal_closed_form(self):
        # Rotating T = span{e1} by theta: the perturbed inverse is known
        # analytically as [[1/2, 0], [tan(theta)/2, 0]].
        theta = 0.1
        prob = diag_problem()
        t_prime = line(math.cos(theta), math.sin(theta))
        report = perturb_T(prepare(prob), t_prime)
        expected = np.array([[0.5, 0.0], [math.tan(theta) / 2.0, 0.0]], dtype=complex)
        assert op_norm(report.formula_result - expected) < 1e-12
        assert report.formula_vs_oracle_relerr <= 1e-8
        assert report.all_satisfied

    def test_random_trials(self, rng):
        for _ in range(100):
            cfg = GenConfig(seed=int(rng.integers(0, 2**63)), target_gap_T=float(rng.uniform(0, 0.95)))
            inst = generate(cfg, "prop31")
            report = perturb_T(prepare(inst.scenario.base), inst.scenario.T_prime)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied

    def test_hypothesis_unmet_flagged(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=2)
        far = perturb_subspace_exact_gap(prob.T, math.asin(0.9), rng)
        report = perturb_T(prepare(prob), far)
        assert not report.hypotheses_met
        assert not report.all_satisfied
        assert report.formula_result is not None  # still evaluated


class TestPerturbS:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_S(prepare(prob), prob.S)
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_diagonal_closed_form(self):
        # Rotating S = span{e2} by theta gives [[1/2, -tan(theta)/2], [0, 0]].
        theta = 0.05
        prob = diag_problem()
        s_prime = line(math.sin(theta), math.cos(theta))
        report = perturb_S(prepare(prob), s_prime)
        expected = np.array([[0.5, -math.tan(theta) / 2.0], [0.0, 0.0]], dtype=complex)
        assert op_norm(report.formula_result - expected) < 1e-12
        assert report.formula_vs_oracle_relerr <= 1e-8
        assert report.all_satisfied

    def test_random_trials(self, rng):
        for _ in range(100):
            cfg = GenConfig(seed=int(rng.integers(0, 2**63)), target_gap_S=float(rng.uniform(0, 0.95)))
            inst = generate(cfg, "prop32")
            report = perturb_S(prepare(inst.scenario.base), inst.scenario.S_prime)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied


class TestPerturbTS:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_TS(prepare(prob), prob.T, prob.S)
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_simultaneous_rotation_5x4(self, rng):
        cfg = GenConfig(seed=1234, m=5, n=4, rank_A=3, dim_T=2)
        inst = generate(cfg, "thm31")
        report = perturb_TS(prepare(inst.scenario.base), inst.scenario.T_prime, inst.scenario.S_prime)
        assert report.formula_vs_oracle_relerr <= 1e-8
        assert report.all_satisfied

    def test_random_trials(self, rng):
        for _ in range(100):
            cfg = GenConfig(
                seed=int(rng.integers(0, 2**63)),
                target_gap_T=float(rng.uniform(0, 0.95)),
                target_gap_S=float(rng.uniform(0, 0.95)),
            )
            inst = generate(cfg, "thm31")
            report = perturb_TS(prepare(inst.scenario.base), inst.scenario.T_prime, inst.scenario.S_prime)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied


class TestPerturbA:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_A(prepare(prob), np.zeros_like(prob.A))
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_scalar_closed_form(self):
        # Only the (1,1) entry matters: 1/2 -> 1/2.1.
        prob = diag_problem()
        e = np.diag([0.1, 0.0]).astype(complex)
        report = perturb_A(prepare(prob), e)
        assert op_norm(report.formula_result - np.diag([1.0 / 2.1, 0.0])) < 1e-12
        assert report.all_satisfied

    def test_random_trials_left_right_and_bounds(self, rng):
        for _ in range(100):
            cfg = GenConfig(
                seed=int(rng.integers(0, 2**63)),
                target_norm_E_ratio=float(rng.uniform(0, 0.95)),
            )
            inst = generate(cfg, "lemma32")
            # perturb_A itself raises if the left and right resolvent forms
            # disagree, so a completed call covers that identity.
            report = perturb_A(prepare(inst.scenario.base), inst.scenario.E)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied

    def test_monotone_decay_of_difference(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        direction = complex_gaussian(rng, prob.A.shape)
        base_norm = 0.5 / (op_norm(g) * op_norm(direction))
        diffs = []
        for scale in (1.0, 1e-2, 1e-4):
            report = perturb_A(prepare(prob), direction * (base_norm * scale))
            diffs.append(report.diff_actual)
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[-1] <= diffs[0] * 1e-2


class TestPerturbAll:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        sc = PerturbationScenario(prob, prob.T, prob.S, np.zeros_like(prob.A))
        report = perturb_all(prepare(prob), sc)
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_combined_6x5(self):
        cfg = GenConfig(seed=777, m=6, n=5, rank_A=4, dim_T=3)
        inst = generate(cfg, "thm32")
        report = perturb_all(prepare(inst.scenario.base), inst.scenario)
        assert len(report.hypotheses) == 2
        assert report.formula_vs_oracle_relerr <= 1e-8
        assert report.all_satisfied

    def test_random_trials(self, rng):
        for _ in range(100):
            cfg = GenConfig(
                seed=int(rng.integers(0, 2**63)),
                target_gap_T=float(rng.uniform(0, 0.95)),
                target_gap_S=float(rng.uniform(0, 0.95)),
                target_norm_E_ratio=float(rng.uniform(0, 0.95)),
            )
            inst = generate(cfg, "thm32")
            report = perturb_all(prepare(inst.scenario.base), inst.scenario)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied
