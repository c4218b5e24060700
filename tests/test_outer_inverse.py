"""Outer inverse computation, oracle agreement, classical special cases."""

import numpy as np
import pytest

from outerinv import subspace as ss
from outerinv.instance_gen import random_matrix_with_rank, random_subspace
from outerinv.numlin import op_norm, pinv
from outerinv.outer_inverse import (
    ExistenceError,
    OuterInverseProblem,
    bott_duffin,
    classical_cases,
    compute,
    drazin,
    drazin_index,
    existence,
    group_inverse,
    kernel,
    moore_penrose,
    mp_via_12_inverse,
    oracle_compute,
    problem_from_json,
    problem_to_json,
    result_to_obj,
)

from helpers import complex_gaussian, line, random_feasible_problem


def constraint_solve_inverse(problem):
    """From-scratch route: the defining equations pin G linearly.

    G must act as the identity on A·T (G(Au) = u for u in T) and kill S,
    so G [A U | B_S] = [U | 0] with an invertible m-by-m block matrix.
    """
    u = problem.T.basis
    bs = problem.S.basis
    lhs = np.hstack([problem.A @ u, bs])
    rhs = np.hstack([u, np.zeros((problem.A.shape[1], bs.shape[1]), dtype=complex)])
    return rhs @ np.linalg.inv(lhs)


def random_12_inverse(a, rng, max_draws=50):
    """Z = V (U* A V)^{-1} U* for random bases; a {1,2}-inverse of A."""
    m, n = a.shape
    r = np.linalg.matrix_rank(a)
    for _ in range(max_draws):
        v = random_subspace(n, r, rng).basis
        u = random_subspace(m, r, rng).basis
        middle = u.conj().T @ a @ v
        if np.linalg.cond(middle) > 1e8:
            continue
        z = v @ np.linalg.solve(middle, u.conj().T)
        if op_norm(a @ z @ a - a) < 1e-8 * (1 + op_norm(a)) and op_norm(
            z @ a @ z - z
        ) < 1e-8 * (1 + op_norm(z)):
            return z
    raise RuntimeError("failed to draw a {1,2}-inverse")


class TestExistence:
    def test_identity_problem(self):
        prob = OuterInverseProblem(np.eye(2, dtype=complex), line(1, 0), line(0, 1))
        cert = existence(prob)
        assert cert.exists and cert.AT_dim == 1

    def test_kernel_overlap_detected(self):
        # T sits inside N(A).
        prob = OuterInverseProblem(np.diag([1.0, 0.0]).astype(complex), line(0, 1), line(0, 1))
        cert = existence(prob)
        assert not cert.kernel_meets_T_trivially
        assert not cert.exists

    def test_direct_sum_failure_detected(self):
        # A T = span{e1} = S, so the sum cannot fill the plane.
        prob = OuterInverseProblem(np.eye(2, dtype=complex), line(1, 0), line(1, 0))
        cert = existence(prob)
        assert cert.kernel_meets_T_trivially
        assert not cert.direct_sum_holds

    def test_compute_raises_with_named_condition(self):
        prob = OuterInverseProblem(np.diag([1.0, 0.0]).astype(complex), line(0, 1), line(0, 1))
        with pytest.raises(ExistenceError, match="kernel intersection"):
            compute(prob)


class TestCompute:
    def test_identity_base_case(self):
        prob = OuterInverseProblem(np.eye(2, dtype=complex), line(1, 0), line(0, 1))
        res = compute(prob)
        assert np.allclose(res.G, np.diag([1.0, 0.0]))
        assert res.residual_gag < 1e-12
        assert res.range_gap < 1e-12 and res.null_gap < 1e-12

    def test_diagonal_scaling(self):
        # Oracle formula: U (W* A U)^{-1} W* with U = e1, W = e1 gives 1/2 e1 e1*.
        prob = OuterInverseProblem(np.diag([2.0, 3.0]).astype(complex), line(1, 0), line(0, 1))
        assert np.allclose(compute(prob).G, np.diag([0.5, 0.0]))

    def test_moore_penrose_choice_reduces_to_pinv(self, rng):
        from outerinv.outer_inverse import column_space, row_space

        a = random_matrix_with_rank(6, 5, 3, rng)
        prob = OuterInverseProblem(
            a, row_space(a), ss.orthogonal_complement(column_space(a))
        )
        g = compute(prob).G
        assert op_norm(g - pinv(a)) <= 1e-8 * (1.0 + op_norm(pinv(a)))

    def test_defining_equations_random(self, rng):
        for _ in range(50):
            prob = random_feasible_problem(rng)
            res = compute(prob)
            assert res.residual_gag <= 1e-8 * (1.0 + op_norm(res.G))
            assert res.range_gap <= 1e-8
            assert res.null_gap <= 1e-8

    def test_dim_zero_T_gives_zero_inverse(self, rng):
        a = complex_gaussian(rng, (3, 3))
        t = ss.Subspace(3, np.zeros((3, 0), dtype=complex))
        s = random_subspace(3, 3, rng)
        res = compute(OuterInverseProblem(a, t, s))
        assert np.allclose(res.G, 0.0)


class TestOracle:
    def test_identity_base_case(self):
        prob = OuterInverseProblem(np.eye(2, dtype=complex), line(1, 0), line(0, 1))
        assert np.allclose(oracle_compute(prob), np.diag([1.0, 0.0]))

    def test_agrees_with_compute(self, rng):
        for _ in range(50):
            prob = random_feasible_problem(rng, m=6, n=5)
            g1 = compute(prob).G
            g2 = oracle_compute(prob)
            assert op_norm(g1 - g2) <= 1e-8 * op_norm(g2)

    def test_uniqueness_via_constraint_solve(self, rng):
        # Any G satisfying the defining equations solves the same linear
        # system; building it from scratch must reproduce both routes.
        for _ in range(10):
            prob = random_feasible_problem(rng, m=3, n=3, rank_a=2, dim_t=1)
            direct = constraint_solve_inverse(prob)
            assert op_norm(direct - oracle_compute(prob)) <= 1e-10 * (1 + op_norm(direct))
            assert op_norm(direct - compute(prob).G) <= 1e-8 * (1 + op_norm(direct))


class TestOracleConditioning:
    def test_nearly_intersecting_image_and_kernel_rejected(self):
        # A T = span{e1, e2} and S hugging e2: existence still passes the
        # rank test, but the middle matrix carries the 1e13 condition
        # number and the oracle must refuse rather than return noise.
        from outerinv.numlin import IllConditionedError

        eta = 1e-13
        a = np.eye(3, dtype=complex)
        t = ss.from_spanning_set(np.eye(3, dtype=complex)[:, :2])
        s_vec = np.array([[0.0], [1.0], [eta]], dtype=complex)
        s = ss.from_spanning_set(s_vec)
        prob = OuterInverseProblem(a, t, s)
        assert existence(prob).exists
        with pytest.raises(IllConditionedError):
            oracle_compute(prob)


class TestMpVia12Inverse:
    def test_pinv_passthrough(self, rng):
        a = complex_gaussian(rng, (4, 3))
        assert np.allclose(mp_via_12_inverse(a, pinv(a)), pinv(a), atol=1e-10)

    def test_frozen_example(self):
        # Z = [[1, 7], [0, 0]] passes AZA = A, ZAZ = Z for A = diag(1, 0);
        # projecting kills the off-diagonal junk and restores pinv(A).
        a = np.diag([1.0, 0.0]).astype(complex)
        z = np.array([[1.0, 7.0], [0.0, 0.0]], dtype=complex)
        assert np.allclose(mp_via_12_inverse(a, z), np.diag([1.0, 0.0]))

    def test_random_oblique_12_inverses(self, rng):
        # 100 independently drawn {1,2}-inverses per matrix all project back
        # to the same Moore-Penrose inverse.
        for _ in range(5):
            a = random_matrix_with_rank(5, 4, 3, rng)
            expected = pinv(a)
            for _ in range(100):
                z = random_12_inverse(a, rng)
                recovered = mp_via_12_inverse(a, z)
                assert op_norm(recovered - expected) <= 1e-8 * (1.0 + op_norm(expected))

    def test_rejects_non_12_inverse(self, rng):
        a = complex_gaussian(rng, (3, 3))
        with pytest.raises(ValueError, match="1,2"):
            mp_via_12_inverse(a, np.zeros((3, 3), dtype=complex) + 0.5)


class TestClassicalCases:
    def test_moore_penrose_diagonal(self):
        res = classical_cases(np.diag([2.0, 0.0]), "moore_penrose")
        assert np.allclose(res.G, np.diag([0.5, 0.0]))

    def test_group_diagonal(self):
        res = classical_cases(np.diag([3.0, 0.0]), "group")
        a = np.diag([3.0, 0.0]).astype(complex)
        assert np.allclose(res.G, np.diag([1.0 / 3.0, 0.0]))
        assert op_norm(a @ res.G - res.G @ a) < 1e-12

    def test_group_random_diagonalizable(self, rng):
        # Independent oracle: for A = V D V^{-1} the group inverse is
        # V D_pinv V^{-1} with the nonzero eigenvalues reciprocated.
        for _ in range(10):
            v = complex_gaussian(rng, (5, 5)) + 2.0 * np.eye(5)
            if np.linalg.cond(v) > 50:
                continue
            d = np.diag([1.5, 2.0 + 1.0j, 0.7, 0.0, 0.0])
            a = v @ d @ np.linalg.inv(v)
            expected = v @ np.diag([1 / 1.5, 1 / (2.0 + 1.0j), 1 / 0.7, 0.0, 0.0]) @ np.linalg.inv(v)
            g = group_inverse(a).G
            assert op_norm(g - expected) <= 1e-7 * (1.0 + op_norm(expected))
            assert op_norm(a @ g - g @ a) <= 1e-8 * (1.0 + op_norm(g) * op_norm(a))

    def test_group_rejects_index_two(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="rank"):
            group_inverse(nilpotent)

    def test_drazin_nilpotent_is_zero(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert drazin_index(nilpotent) == 2
        assert np.allclose(drazin(nilpotent).G, 0.0)

    def test_drazin_invertible_is_inverse(self, rng):
        a = complex_gaussian(rng, (4, 4)) + 2.0 * np.eye(4)
        assert drazin_index(a) == 0
        assert op_norm(drazin(a).G - np.linalg.inv(a)) < 1e-8

    def test_drazin_block_oracle(self, rng):
        # A = V diag(C, N) V^{-1} with N the 2x2 nilpotent block: the Drazin
        # inverse is V diag(C^{-1}, 0) V^{-1} at index 2.
        v = complex_gaussian(rng, (3, 3)) + 2.0 * np.eye(3)
        core = np.array([[2.0]])
        block = np.zeros((3, 3), dtype=complex)
        block[0, 0] = core[0, 0]
        block[1, 2] = 1.0
        a = v @ block @ np.linalg.inv(v)
        expected_block = np.zeros((3, 3), dtype=complex)
        expected_block[0, 0] = 0.5
        expected = v @ expected_block @ np.linalg.inv(v)
        assert drazin_index(a) == 2
        assert op_norm(drazin(a).G - expected) <= 1e-8 * (1.0 + op_norm(expected))

    def test_bott_duffin_identity_gives_projector(self, rng):
        constraint = random_subspace(4, 2, rng)
        res = bott_duffin(np.eye(4, dtype=complex), constraint)
        assert op_norm(res.G - ss.projector(constraint)) < 1e-10

    def test_bott_duffin_classical_resolvent_formula(self, rng):
        # Independent oracle: P_L (A P_L + P_{L_perp})^{-1}.
        for _ in range(10):
            a = complex_gaussian(rng, (4, 4)) + np.eye(4)
            constraint = random_subspace(4, 2, rng)
            p_l = ss.projector(constraint)
            p_perp = np.eye(4) - p_l
            middle = a @ p_l + p_perp
            if np.linalg.cond(middle) > 1e6:
                continue
            expected = p_l @ np.linalg.inv(middle)
            res = bott_duffin(a, constraint)
            assert op_norm(res.G - expected) <= 1e-8 * (1.0 + op_norm(expected))

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            classical_cases(np.eye(2), "weighted")


class TestSerialization:
    def test_problem_round_trip(self, rng):
        prob = random_feasible_problem(rng, m=5, n=4)
        back = problem_from_json(problem_to_json(prob))
        assert np.array_equal(back.A, prob.A)
        assert ss.gap_hat(back.T, prob.T) < 1e-12
        assert ss.gap_hat(back.S, prob.S) < 1e-12

    def test_result_object_shape(self, rng):
        prob = random_feasible_problem(rng, m=4, n=4)
        obj = result_to_obj(compute(prob))
        assert set(obj) == {"G", "residuals"}
        assert set(obj["residuals"]) == {"residual_gag", "range_gap", "null_gap"}


def test_kernel_dimension(rng):
    a = random_matrix_with_rank(6, 4, 2, rng)
    assert kernel(a).dim == 2
    assert np.allclose(a @ kernel(a).basis, 0.0, atol=1e-12)


def test_moore_penrose_equals_pinv_batch(rng):
    for _ in range(30):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        r = int(rng.integers(0, min(m, n) + 1))
        a = random_matrix_with_rank(m, n, r, rng)
        res = moore_penrose(a)
        assert op_norm(res.G - pinv(a)) <= 1e-8 * (1.0 + op_norm(pinv(a)))
