"""Perturbation representations and bounds, checked against oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerinv import perturbation
from outerinv.harness_cli import CampaignConfig
from outerinv import subspace as ss
from outerinv.instance_gen import (
    GenConfig,
    derive_trial_seed,
    generate,
    perturb_subspace_exact_gap,
    random_matrix_with_rank,
    random_subspace,
)
from outerinv.numlin import NumericalError, op_norm, pinv, svd
from outerinv.outer_inverse import (
    OuterInverseProblem,
    column_space,
    compute,
    moore_penrose_problem,
    prepare,
    row_space,
)
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
    theorem,
)

from helpers import complex_gaussian, draw_gen_config, line, random_feasible_problem, scenario


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
            theorem("thm99")

    def test_zero_operator_leaves_E_unconstrained(self):
        # ||pinv(A)|| = ||G|| = 0: the limit 1/||G|| of both lemmas is infinite.
        sc = scenario(moore_penrose_problem(np.zeros((2, 2), dtype=complex)), E=0.1 * np.eye(2))
        assert stable_bounds(sc).hypotheses[0] == HypothesisStatus("norm_E", math.inf, 0.1)
        assert perturb_A(sc).all_satisfied


class TestScenario:
    def test_measured_values_recomputed(self, rng):
        prob = random_feasible_problem(rng, m=5, n=4, rank_a=3, dim_t=2)
        t_prime = perturb_subspace_exact_gap(prob.T, 0.3, rng)
        e = complex_gaussian(rng, (5, 4))
        sc = PerturbationScenario(prepare(prob), t_prime, prob.S, e)
        assert sc.measured_gap_T == pytest.approx(ss.gap_hat(prob.T, t_prime), abs=1e-15)
        assert sc.measured_gap_S == 0.0
        assert sc.norm_E == pytest.approx(op_norm(e), abs=1e-15)

    def test_shape_mismatch_rejected(self, rng):
        prob = random_feasible_problem(rng, m=5, n=4)
        with pytest.raises(ValueError, match="shape"):
            PerturbationScenario(prepare(prob), prob.T, prob.S, np.zeros((4, 5)))

    def test_subspace_in_the_wrong_ambient_space_rejected(self, rng):
        # T lives in C^4 (the domain) and S in C^5 (the codomain).
        prob = random_feasible_problem(rng, m=5, n=4, rank_a=3, dim_t=2)
        prepared = prepare(prob)
        with pytest.raises(ValueError, match="T'"):
            PerturbationScenario(prepared, random_subspace(5, 2, rng), prob.S, np.zeros((5, 4)))
        with pytest.raises(ValueError, match="S'"):
            PerturbationScenario(prepared, prob.T, random_subspace(4, 3, rng), np.zeros((5, 4)))


class TestStableEquivalence:
    def test_zero_perturbation(self, rng):
        a = complex_gaussian(rng, (4, 3))
        report = is_stable(a, np.zeros_like(a))
        assert report.cond1 and report.cond2 and report.cond3_formula_valid
        assert report.hypothesis_met
        assert op_norm(report.gi_matrix - pinv(a)) < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dA has shape"):
            is_stable(np.eye(2), np.zeros((3, 2)))

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
        # The oracle's pinv(A + 0) is the SVD pseudoinverse of A, and the
        # base is the pinv route's G = pinv(A): the actual difference is the
        # rounding between those two routes, to the bit.
        a = complex_gaussian(rng, (3, 4))
        sc = scenario(moore_penrose_problem(a))
        report = stable_bounds(sc)
        assert report.diff_actual == op_norm(svd(a).pinv() - sc.prepared.G)
        assert report.diff_bound == 0.0
        assert report.all_satisfied

    def test_scaled_identity_closed_form(self):
        eye = np.eye(2, dtype=complex)
        report = stable_bounds(scenario(moore_penrose_problem(eye), E=0.1 * eye))
        assert report.norm_actual == pytest.approx(1.0 / 1.1)
        assert report.norm_bound == pytest.approx(1.0 / 0.9)
        assert report.all_satisfied

    def test_golden_ratio_constant_exact(self):
        assert GOLDEN_RATIO == (1.0 + math.sqrt(5.0)) / 2.0

    @pytest.mark.parametrize("kind", ["full", "range"])
    def test_bounds_hold_on_stable_trials(self, rng, kind):
        for _ in range(100):
            a, da = stable_pair(rng, kind)
            report = stable_bounds(scenario(moore_penrose_problem(a), E=da))
            assert report.all_satisfied
            assert report.norm_actual <= report.norm_bound * (1 + 1e-10)
            assert report.diff_actual <= report.diff_bound * (1 + 1e-10)
            assert report.formula_vs_oracle_relerr <= 1e-8

    def test_unstable_flagged_not_asserted(self, rng):
        a = np.diag([1.0, 0.0]).astype(complex)
        da = np.diag([0.0, 1e-3]).astype(complex)
        report = stable_bounds(scenario(moore_penrose_problem(a), E=da))
        assert not report.all_satisfied

    def test_needs_the_moore_penrose_problem(self, rng):
        # On any other (A, T, S) the prepared G is not pinv(A), so the
        # report would be silently wrong; it is refused instead.
        for _ in range(20):
            prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
            with pytest.raises(ValueError, match="Moore-Penrose"):
                stable_bounds(scenario(prob, E=1e-3 * prob.A))


def stored_flags(a, da):
    """(cond3, hypothesis) of is_stable(a, da), computed afresh with numpy alone.

    What ``StableReport`` stored before the two became properties: cond3
    is whether the resolvent ``pinv(A) (I + dA pinv(A))^{-1}`` is a
    {1,2}-inverse of A + dA, the hypothesis ``||pinv(A)|| ||dA|| < 1``.
    """

    def norm(x):
        return np.linalg.norm(x, 2)

    ap = np.linalg.pinv(a)
    abar = a + da
    c = ap @ np.linalg.inv(np.eye(a.shape[0]) + da @ ap)
    aza, zaz = abar @ c @ abar - abar, c @ abar @ c - c
    cond3 = norm(aza) <= 1e-8 * (1.0 + norm(abar)) and norm(zaz) <= 1e-8 * (1.0 + norm(c))
    return cond3, norm(ap) * norm(da) < 1.0


# The pairs TestStableEquivalence builds, and one outside the hypothesis.
STABLE_CASES = {
    "zero": lambda rng: (complex_gaussian(rng, (4, 3)), np.zeros((4, 3), dtype=complex)),
    "full": lambda rng: stable_pair(rng, "full"),
    "range": lambda rng: stable_pair(rng, "range"),
    "jump": lambda rng: stable_pair(rng, "jump"),
    "rank_jump": lambda rng: (np.diag([1.0, 0.0]) + 0j, np.diag([0.0, 1e-3]) + 0j),
    "beyond_hypothesis": lambda rng: (np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex)),
}


class TestOneNormPinvPerReport:
    """Each stability report reads ||pinv(A)|| from one place."""

    @staticmethod
    def default_campaign_lemma21():
        # Trial 0 of lemma21 in the default campaign: the pinv route's
        # ||G|| = ||pinv(A)|| and the SVD of A give different last bits.
        gen = CampaignConfig.default().gen
        sc = generate(replace(gen, seed=derive_trial_seed(gen.seed, "lemma21", 0)), "lemma21")
        assert svd(sc.prepared.problem.A).pinv_norm() != sc.prepared.norm_G
        return sc

    def test_stable_bounds_reads_the_prepared_norm(self):
        # norm_G is the one source of ||pinv(A)|| for the threshold and both bounds.
        sc = self.default_campaign_lemma21()
        norm_ap = sc.prepared.norm_G
        report = stable_bounds(sc)
        assert report.hypotheses[0].threshold == 1.0 / norm_ap
        assert report.norm_bound == norm_ap / (1.0 - norm_ap * sc.norm_E)
        gp = report.norm_actual
        assert report.diff_bound == GOLDEN_RATIO * gp * norm_ap * sc.norm_E

    def test_is_stable_reads_its_own_svd(self):
        sc = self.default_campaign_lemma21()
        a, e = sc.prepared.problem.A, sc.E
        assert is_stable(a, e).norm_product == svd(a).pinv_norm() * op_norm(e)

    @pytest.mark.parametrize("case", sorted(STABLE_CASES))
    def test_derived_flags_match_the_stored_ones(self, rng, case):
        for _ in range(1 if case in ("zero", "rank_jump", "beyond_hypothesis") else 20):
            a, da = STABLE_CASES[case](rng)
            report = is_stable(a, da)
            assert (report.cond3_formula_valid, report.hypothesis_met) == stored_flags(a, da)
            assert report.hypothesis_met == (case != "beyond_hypothesis")


class TestLemma21UsesTheMoorePenrosePair:
    """A generated lemma21 scenario is A's Moore-Penrose problem, with G = pinv(A)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_problem_is_the_moore_penrose_pair(self, seed):
        sc = generate(GenConfig(seed=seed), "lemma21")
        prob, g = sc.prepared.problem, sc.prepared.G
        assert ss.gap_hat(prob.T, row_space(prob.A)) <= 1e-12
        assert ss.gap_hat(prob.S, ss.orthogonal_complement(column_space(prob.A))) <= 1e-12
        assert op_norm(g - pinv(prob.A)) <= 1e-12 * (1.0 + op_norm(g))


class TestGapPropagation:
    def test_identical_subspace(self, rng):
        prob = random_feasible_problem(rng, m=5, n=4, rank_a=3, dim_t=2)
        gp = gap_propagation(scenario(prob))
        assert gp.diff_actual == 0.0 and gp.diff_bound == 0.0
        assert gp.hypotheses_met

    def test_identity_operator(self, rng):
        # With A = I the image gap equals the subspace gap itself.
        t = random_subspace(4, 2, rng)
        s = ss.orthogonal_complement(t)
        prob = OuterInverseProblem(np.eye(4, dtype=complex), t, s)
        t_prime = perturb_subspace_exact_gap(t, 0.1, rng)
        gp = gap_propagation(scenario(prob, T_prime=t_prime))
        assert gp.diff_actual == pytest.approx(ss.gap_hat(t, t_prime), abs=1e-12)
        assert gp.diff_actual <= gp.diff_bound * (1 + 1e-10)

    def test_bound_and_intermediate_inequality(self, rng):
        from outerinv.outer_inverse import image_of

        for _ in range(100):
            cfg = GenConfig(seed=int(rng.integers(0, 2**63)), target_gap_T=float(rng.uniform(0, 0.95)))
            sc = generate(cfg, "lemma31")
            prob, t_prime = sc.prepared.problem, sc.T_prime
            gp = gap_propagation(sc)
            assert gp.hypotheses_met
            assert gp.diff_actual <= gp.diff_bound * (1 + 1e-10)
            kappa = op_norm(prob.A) * op_norm(compute(prob).G)
            directed = ss.delta(image_of(prob.A, prob.T), image_of(prob.A, t_prime))
            assert directed <= kappa * ss.delta(prob.T, t_prime) * (1 + 1e-10) + 1e-12


class TestPerturbT:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_T(scenario(prob))
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_diagonal_closed_form(self):
        # Rotating T = span{e1} by theta: the perturbed inverse is known
        # analytically as [[1/2, 0], [tan(theta)/2, 0]].
        theta = 0.1
        prob = diag_problem()
        t_prime = line(math.cos(theta), math.sin(theta))
        report = perturb_T(scenario(prob, T_prime=t_prime))
        expected = np.array([[0.5, 0.0], [math.tan(theta) / 2.0, 0.0]], dtype=complex)
        assert op_norm(report.formula_result - expected) < 1e-12
        assert report.formula_vs_oracle_relerr <= 1e-8
        assert report.all_satisfied

    def test_random_trials(self, rng):
        for _ in range(100):
            cfg = GenConfig(seed=int(rng.integers(0, 2**63)), target_gap_T=float(rng.uniform(0, 0.95)))
            sc = generate(cfg, "prop31")
            report = perturb_T(sc)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied

    def test_hypothesis_unmet_flagged(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=2)
        far = perturb_subspace_exact_gap(prob.T, math.asin(0.9), rng)
        report = perturb_T(scenario(prob, T_prime=far))
        assert not report.hypotheses_met
        assert not report.all_satisfied
        assert report.formula_result is not None  # still evaluated


class TestPerturbS:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_S(scenario(prob))
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_diagonal_closed_form(self):
        # Rotating S = span{e2} by theta gives [[1/2, -tan(theta)/2], [0, 0]].
        theta = 0.05
        prob = diag_problem()
        s_prime = line(math.sin(theta), math.cos(theta))
        report = perturb_S(scenario(prob, S_prime=s_prime))
        expected = np.array([[0.5, -math.tan(theta) / 2.0], [0.0, 0.0]], dtype=complex)
        assert op_norm(report.formula_result - expected) < 1e-12
        assert report.formula_vs_oracle_relerr <= 1e-8
        assert report.all_satisfied

    def test_random_trials(self, rng):
        for _ in range(100):
            cfg = GenConfig(seed=int(rng.integers(0, 2**63)), target_gap_S=float(rng.uniform(0, 0.95)))
            sc = generate(cfg, "prop32")
            report = perturb_S(sc)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied


class TestPerturbTS:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_TS(scenario(prob))
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_simultaneous_rotation_5x4(self, rng):
        cfg = GenConfig(seed=1234, m=5, n=4, rank_A=3, dim_T=2)
        sc = generate(cfg, "thm31")
        report = perturb_TS(sc)
        assert report.formula_vs_oracle_relerr <= 1e-8
        assert report.all_satisfied

    def test_random_trials(self, rng):
        for _ in range(100):
            cfg = GenConfig(
                seed=int(rng.integers(0, 2**63)),
                target_gap_T=float(rng.uniform(0, 0.95)),
                target_gap_S=float(rng.uniform(0, 0.95)),
            )
            sc = generate(cfg, "thm31")
            report = perturb_TS(sc)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied


class TestPerturbA:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_A(scenario(prob))
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_scalar_closed_form(self):
        # Only the (1,1) entry matters: 1/2 -> 1/2.1.
        prob = diag_problem()
        e = np.diag([0.1, 0.0]).astype(complex)
        report = perturb_A(scenario(prob, E=e))
        assert op_norm(report.formula_result - np.diag([1.0 / 2.1, 0.0])) < 1e-12
        assert report.all_satisfied

    def test_refuses_left_and_right_forms_that_disagree(self, monkeypatch):
        # The left form is diag(1/2.1, 0); a right form twice that is off by 1/2.1.
        right = perturbation._right_resolvent
        monkeypatch.setattr(perturbation, "_right_resolvent", lambda g, e, tol: 2.0 * right(g, e, tol))
        with pytest.raises(NumericalError) as err:
            perturb_A(scenario(diag_problem(), E=np.diag([0.1, 0.0]).astype(complex)))
        assert type(err.value) is NumericalError
        assert str(err.value) == "left and right resolvent forms disagree by 4.762e-01"

    def test_random_trials_left_right_and_bounds(self, rng):
        for _ in range(100):
            cfg = GenConfig(
                seed=int(rng.integers(0, 2**63)),
                target_norm_E_ratio=float(rng.uniform(0, 0.95)),
            )
            sc = generate(cfg, "lemma32")
            # perturb_A itself raises if the left and right resolvent forms
            # disagree, so a completed call covers that identity.
            report = perturb_A(sc)
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
            report = perturb_A(scenario(prob, E=direction * (base_norm * scale)))
            diffs.append(report.diff_actual)
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[-1] <= diffs[0] * 1e-2


class TestPerturbAll:
    def test_zero_perturbation_reduction(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        g = compute(prob).G
        report = perturb_all(scenario(prob))
        assert op_norm(report.formula_result - g) <= 1e-12 * (1.0 + op_norm(g))
        assert report.all_satisfied

    def test_combined_6x5(self):
        cfg = GenConfig(seed=777, m=6, n=5, rank_A=4, dim_T=3)
        sc = generate(cfg, "thm32")
        report = perturb_all(sc)
        assert {h.name for h in report.hypotheses} == {"gap_T", "gap_S", "norm_E"}
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
            sc = generate(cfg, "thm32")
            report = perturb_all(sc)
            assert report.hypotheses_met
            assert report.formula_vs_oracle_relerr <= 1e-8
            assert report.all_satisfied


class TestOperatorBoundsAreAttained:
    """Lemma 3.2 and Theorem 3.2 hold with equality at E = -eps v1 u1*.

    With G = sum sigma_i u_i v_i*, E G = -eps sigma_1 v1 v1*, so G' = G (I +
    E G)^{-1} = G + eps sigma_1^2 / (1 - eps sigma_1) u1 v1*: ||G'|| =
    ||G|| / (1 - ||G|| ||E||) and ||G' - G|| = ||G||^2 ||E|| / (1 - ||G||
    ||E||), which are both bounds.  A ratio of actual to bound may be off 1
    by 1e-9, well above the rounding measured over 40 seeds (2.5e-12 for
    Lemma 3.2, 8.1e-11 for Theorem 3.2), so a constant wrong by 1e-6 fails.
    """

    FRACTIONS = (1e-3, 0.5, 0.9)

    @staticmethod
    def at_equality(prepared, norm_e):
        u, _, vh = np.linalg.svd(prepared.G)
        e = -norm_e * np.outer(vh[0].conj(), u[:, 0].conj())
        base = prepared.problem
        return PerturbationScenario(prepared, base.T, base.S, e)

    @staticmethod
    def assert_attained(report):
        assert report.hypotheses_met and report.all_satisfied
        assert abs(report.norm_actual / report.norm_bound - 1.0) <= 1e-9
        assert abs(report.diff_actual / report.diff_bound - 1.0) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_lemma32(self, seed):
        prepared = generate(GenConfig(seed), "lemma32").prepared
        limit = 1.0 / op_norm(prepared.G)
        for fraction in self.FRACTIONS:
            self.assert_attained(perturb_A(self.at_equality(prepared, fraction * limit)))

    @pytest.mark.parametrize("seed", range(6))
    def test_thm32(self, seed):
        # T' = T and S' = S.  Lemma 3.2's limit would break this
        # statement's hypothesis at 0.5 and 0.9.
        prepared = generate(GenConfig(seed), "thm32").prepared
        norm_g = op_norm(prepared.G)
        limit = 1.0 / (norm_g * (1.0 + op_norm(prepared.problem.A) * norm_g))
        for fraction in self.FRACTIONS:
            self.assert_attained(perturb_all(self.at_equality(prepared, fraction * limit)))


@settings(derandomize=True, database=None, deadline=None)
@given(st.data())
def test_prop31_prop32_exact_identities(data):
    # G' - G = -(I - G'A) G when only T moves (Proposition 3.1) and
    # G' - G = -G (I - A G') when only S moves (Proposition 3.2), with G'
    # the oracle's A_{T',S}^(2) or A_{T,S'}^(2).
    gen = draw_gen_config(data, target_gap_T=0.9, target_gap_S=0.9)
    for theorem_id, evaluate in (("prop31", perturb_T), ("prop32", perturb_S)):
        sc = generate(gen, theorem_id)
        g, a = sc.prepared.G, sc.prepared.problem.A
        gp = evaluate(sc).oracle_result
        if theorem_id == "prop31":
            rhs = -(np.eye(a.shape[1]) - gp @ a) @ g
        else:
            rhs = -g @ (np.eye(a.shape[0]) - a @ gp)
        # G' moved (by at least 8.6e-5 ||G|| over 300 examples of this
        # draw), so the identity is not 0 = 0.
        assert op_norm(gp - g) > 1e-6 * op_norm(g), theorem_id
        assert op_norm(gp - g - rhs) <= 1e-8 * op_norm(gp - g), theorem_id


# Each formula evaluator and the theorem record it checks.
FORMULA_EVALUATORS = (
    (perturb_T, "prop31"),
    (perturb_S, "prop32"),
    (perturb_TS, "thm31"),
    (perturb_A, "lemma32"),
    (perturb_all, "thm32"),
)


@pytest.mark.parametrize(
    "evaluate, theorem_id", FORMULA_EVALUATORS, ids=[f.__name__ for f, _ in FORMULA_EVALUATORS]
)
def test_oracle_gets_the_ingredients_its_record_limits(monkeypatch, evaluate, theorem_id):
    # A thm32 scenario moves T, S and A at once; the oracle must see the
    # perturbed ingredient only for the sizes the record's limits name.
    sc = generate(GenConfig(seed=4242), "thm32")
    base = sc.prepared.problem
    assert sc.T_prime is not base.T and sc.S_prime is not base.S and sc.norm_E > 0.0
    seen = []
    real = perturbation.oracle_compute

    def recording(problem, *args):
        seen.append(problem)
        return real(problem, *args)

    monkeypatch.setattr(perturbation, "oracle_compute", recording)
    evaluate(sc)

    (problem,) = seen
    limits = theorem(theorem_id).limits
    assert problem.T is (sc.T_prime if "gap_T" in limits else base.T)
    assert problem.S is (sc.S_prime if "gap_S" in limits else base.S)
    assert np.array_equal(problem.A, base.A + sc.E if "norm_E" in limits else base.A)


class TestVerdict:
    """``BoundReport.violated`` and ``unchecked`` on the rows the harness must not misread."""

    def test_refused_oracle_is_unchecked_and_never_violated(self, monkeypatch):
        sc = generate(GenConfig(seed=4242), "prop31")

        def refuse(*args, **kwargs):
            raise perturbation.IllConditionedError("refused", 1e20)

        monkeypatch.setattr(perturbation, "oracle_compute", refuse)
        # Even with the difference bound cut to a hundredth, a refused oracle
        # leaves nothing measured to violate it.
        monkeypatch.setattr(perturbation, "GOLDEN_RATIO", GOLDEN_RATIO / 100.0)
        report = perturb_T(sc)
        assert report.hypotheses_met and not report.all_satisfied
        assert math.isnan(report.diff_actual)
        assert report.unchecked and not report.violated

    def test_a_failed_bound_on_a_measured_row_is_violated(self, monkeypatch):
        sc = generate(GenConfig(seed=4242), "prop31")
        assert not perturb_T(sc).violated
        monkeypatch.setattr(perturbation, "GOLDEN_RATIO", GOLDEN_RATIO / 100.0)
        report = perturb_T(sc)
        assert report.hypotheses_met and report.diff_actual > report.diff_bound
        assert report.violated and not report.unchecked

    def test_lemma31_has_no_second_route_and_is_not_unchecked(self, monkeypatch):
        sc = generate(GenConfig(seed=4242), "lemma31")
        report = gap_propagation(sc)
        assert report.formula_result is None and report.oracle_result is None
        assert not report.unchecked and not report.violated
        # Its difference is measured directly, so a failed bound is a violation.
        monkeypatch.setattr(perturbation.ss, "gap_hat", lambda u, v: 1.0)
        report = gap_propagation(sc)
        assert report.hypotheses_met and report.violated and not report.unchecked

    def test_lemma21_without_a_formula_is_unchecked(self, monkeypatch):
        sc = generate(GenConfig(seed=4242), "lemma21")

        def refuse(*args, **kwargs):
            raise perturbation.IllConditionedError("refused", 1e20)

        monkeypatch.setattr(perturbation, "solve_square", refuse)
        report = stable_bounds(sc)
        assert report.formula_result is None and report.oracle_result is not None
        assert report.unchecked and not report.violated
