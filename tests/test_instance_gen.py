"""Instance generation: exact ranks, exact gaps, determinism, feasibility."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from outerinv import instance_gen, outer_inverse
from outerinv import subspace as ss
from outerinv.instance_gen import (
    THEOREMS,
    GenConfig,
    GenerationError,
    derive_trial_seed,
    generate,
    perturb_subspace_exact_gap,
    random_matrix_with_rank,
    random_subspace,
)
from outerinv.numlin import ToleranceProfile, op_norm, rank
from outerinv.outer_inverse import (
    ExistenceCertificate,
    ExistenceError,
    existence,
    problem_to_obj,
)
from outerinv.perturbation import theorem
from outerinv.subspace import subspace_to_obj


class TestRandomMatrixWithRank:
    def test_rank_zero(self, rng):
        assert np.allclose(random_matrix_with_rank(4, 3, 0, rng), 0.0)

    def test_full_rank(self, rng):
        a = random_matrix_with_rank(5, 5, 5, rng)
        assert rank(a) == 5

    def test_prescribed_rank(self, rng):
        for _ in range(20):
            a = random_matrix_with_rank(5, 4, 2, rng)
            assert rank(a) == 2

    def test_singular_values_in_band(self, rng):
        a = random_matrix_with_rank(6, 6, 4, rng)
        s = np.linalg.svd(a, compute_uv=False)
        assert np.all(s[:4] >= 0.5 - 1e-12) and np.all(s[:4] <= 2.0 + 1e-12)
        assert np.all(s[4:] < 1e-12)

    def test_infeasible_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            random_matrix_with_rank(3, 3, 4, rng)


class TestRandomSubspace:
    def test_trivial(self, rng):
        assert random_subspace(4, 0, rng).dim == 0

    def test_full(self, rng):
        sub = random_subspace(4, 4, rng)
        assert sub.dim == 4

    def test_orthonormal_residual(self, rng):
        sub = random_subspace(5, 2, rng)
        gram = sub.basis.conj().T @ sub.basis
        assert op_norm(gram - np.eye(2)) <= 1e-12


class TestExactGapPerturbation:
    def test_zero_angle_is_identity(self, rng):
        v = random_subspace(5, 2, rng)
        v2 = perturb_subspace_exact_gap(v, 0.0, rng)
        assert ss.gap_hat(v, v2) == 0.0

    def test_right_angle_gives_gap_one(self, rng):
        v = random_subspace(5, 2, rng)
        v2 = perturb_subspace_exact_gap(v, math.pi / 2, rng)
        assert ss.gap_hat(v, v2) == pytest.approx(1.0, abs=1e-10)

    def test_pi_over_six_gives_half(self, rng):
        # A one-plane rotation moves the gap by exactly sin(theta).
        for _ in range(20):
            v = random_subspace(6, 3, rng)
            v2 = perturb_subspace_exact_gap(v, math.pi / 6, rng)
            assert abs(ss.gap_hat(v, v2) - 0.5) <= 1e-10

    def test_general_angles(self, rng):
        for theta in (0.01, 0.3, 1.0, 1.5):
            v = random_subspace(5, 2, rng)
            v2 = perturb_subspace_exact_gap(v, theta, rng)
            assert abs(ss.gap_hat(v, v2) - math.sin(theta)) <= 1e-10

    def test_no_room_to_rotate(self, rng):
        with pytest.raises(ValueError, match="room"):
            perturb_subspace_exact_gap(random_subspace(3, 3, rng), 0.1, rng)
        trivial = ss.Subspace(np.zeros((3, 0), dtype=complex))
        with pytest.raises(ValueError, match="room"):
            perturb_subspace_exact_gap(trivial, 0.1, rng)


class TestGenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank_A": 0},
            {"rank_A": 6},
            {"dim_T": 0},
            {"dim_T": 5},
            {"target_gap_T": 1.0},
            {"target_norm_E_ratio": -0.1},
            {"max_retries": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(seed=1, **kwargs)


class TestGenerate:
    def test_zero_targets_give_unperturbed_scenario(self):
        cfg = GenConfig(seed=3, target_gap_T=0.0, target_gap_S=0.0, target_norm_E_ratio=0.0)
        sc = generate(cfg, "thm32")
        assert sc.T_prime is sc.prepared.problem.T
        assert sc.S_prime is sc.prepared.problem.S
        assert np.all(sc.E == 0.0)
        assert all(h.satisfied for h in theorem("thm32").hypotheses(sc))

    def test_determinism_byte_for_byte(self):
        cfg = GenConfig(seed=987654321)
        a = generate(cfg, "thm32")
        b = generate(cfg, "thm32")
        base_a, base_b = a.prepared.problem, b.prepared.problem
        assert json.dumps(problem_to_obj(base_a)) == json.dumps(problem_to_obj(base_b))
        assert json.dumps(subspace_to_obj(a.T_prime)) == json.dumps(subspace_to_obj(b.T_prime))
        assert json.dumps(subspace_to_obj(a.S_prime)) == json.dumps(subspace_to_obj(b.S_prime))
        assert a.E.tobytes() == b.E.tobytes()

    def test_different_seeds_differ(self):
        a = generate(GenConfig(seed=1), "prop31")
        b = generate(GenConfig(seed=2), "prop31")
        base_a, base_b = a.prepared.problem, b.prepared.problem
        assert json.dumps(problem_to_obj(base_a)) != json.dumps(problem_to_obj(base_b))

    @pytest.mark.parametrize("theorem_id", THEOREMS)
    def test_feasible_and_hypothesis_satisfying(self, theorem_id):
        for seed in range(20):
            sc = generate(GenConfig(seed=seed), theorem_id)
            assert existence(sc.prepared.problem).exists
            assert all(h.satisfied for h in theorem(theorem_id).hypotheses(sc))

    def test_gap_targeting_accuracy(self):
        # achieved gap = target ratio x threshold, exact to the stated 1e-10.
        sc = generate(GenConfig(seed=11, target_gap_T=0.5), "prop31")
        (hyp,) = theorem("prop31").hypotheses(sc)
        assert abs(sc.measured_gap_T - 0.5 * hyp.threshold) <= 1e-10

    def test_norm_E_targeting_accuracy(self):
        sc = generate(GenConfig(seed=12, target_norm_E_ratio=0.7), "lemma32")
        (hyp,) = theorem("lemma32").hypotheses(sc)
        # observed = ||E|| must equal 0.7 of the threshold 1/||G||; the
        # tolerance is relative, i.e. 1e-10 on the product ||G|| ||E||.
        assert abs(hyp.observed - 0.7 * hyp.threshold) <= 1e-10 * hyp.threshold

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            generate(GenConfig(seed=1), "thm99")

    # GenConfig's default dim_T is 3.  A failed kernel condition is named
    # first, whatever A·T's dimension; a collapsed A·T before the direct sum.
    @pytest.mark.parametrize(
        "certificate, key",
        [
            (ExistenceCertificate(False, 3, True), "kernel_meets_T"),
            (ExistenceCertificate(False, 2, False), "kernel_meets_T"),
            (ExistenceCertificate(True, 2, False), "AT_dim_collapsed"),
            (ExistenceCertificate(True, 3, False), "direct_sum"),
        ],
    )
    def test_existence_failure_is_counted_by_condition(self, monkeypatch, certificate, key):
        def refuse(problem, tol):
            raise ExistenceError("outer inverse does not exist", certificate)

        monkeypatch.setattr(instance_gen, "prepare", refuse)
        with pytest.raises(GenerationError) as info:
            generate(GenConfig(seed=3, max_retries=4), "prop31")
        expected = dict.fromkeys(
            ("kernel_meets_T", "AT_dim_collapsed", "direct_sum", "hypothesis_band"), 0
        )
        assert info.value.failure_counts == {**expected, key: 4}


# Draws at a loose rank threshold, where many are infeasible: per
# (rank_rtol, shape, seed), the feasible draws out of 200 and the failure
# counts, as the existence test alone decided them at commit 4726dde.
INFEASIBLE_DRAWS = {
    (0.05, (6, 5, 4, 3), 7): (187, {"direct_sum": 13}),
    (0.3, (6, 5, 4, 3), 7): (3, {"AT_dim_collapsed": 1, "direct_sum": 116, "kernel_meets_T": 80}),
}


@pytest.mark.parametrize("certificate_on", [True, False])
@pytest.mark.parametrize("key", sorted(INFEASIBLE_DRAWS))
def test_infeasible_draws_count_as_the_existence_test_decides(monkeypatch, key, certificate_on):
    # prepare decides from the pinv route's middle matrix first; switching
    # that certificate off leaves existence() to decide every draw.
    rank_rtol, (m, n, rank_a, dim_t), seed = key
    decisions = Counter()
    certifies = outer_inverse._middle_certifies

    def counted(*args):
        certified = certificate_on and certifies(*args)
        decisions[certified] += 1
        return certified

    monkeypatch.setattr(outer_inverse, "_middle_certifies", counted)
    config = GenConfig(seed=seed, m=m, n=n, rank_A=rank_a, dim_T=dim_t)
    rng = np.random.default_rng(seed)
    failures = Counter()
    tol = ToleranceProfile(rank_rtol=rank_rtol)
    feasible = sum(
        instance_gen._draw_feasible_problem(config, rng, tol, failures) is not None
        for _ in range(200)
    )
    assert (feasible, dict(failures)) == INFEASIBLE_DRAWS[key]
    assert bool(decisions[True]) == (certificate_on and rank_rtol == 0.05)


def test_generation_failure_counts_are_unchanged():
    # At rank_rtol 0.3 no 12x10 draw of seed 7 is feasible; the counts are
    # those of commit 4726dde, where the existence test alone decided.
    config = GenConfig(seed=7, m=12, n=10, rank_A=8, dim_T=5, max_retries=200)
    with pytest.raises(GenerationError) as info:
        generate(config, "prop31", ToleranceProfile(rank_rtol=0.3))
    assert info.value.failure_counts == {
        "kernel_meets_T": 116,
        "AT_dim_collapsed": 1,
        "direct_sum": 83,
        "hypothesis_band": 0,
    }


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(42, "prop31", 7) == derive_trial_seed(42, "prop31", 7)

    def test_distinct_across_trials_and_labels(self):
        seeds = {
            derive_trial_seed(42, theorem_id, i) for theorem_id in THEOREMS for i in range(100)
        }
        assert len(seeds) == len(THEOREMS) * 100

    def test_range(self):
        s = derive_trial_seed(2**64 - 1, "thm32", 123456)
        assert 0 <= s < 2**64
