"""Outer inverse computation, oracle agreement, classical special cases."""

import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest

from outerinv import outer_inverse
from outerinv import subspace as ss
from outerinv.instance_gen import random_matrix_with_rank, random_subspace
from outerinv.numlin import (
    NumericalError,
    SvdFactors,
    ToleranceProfile,
    op_norm,
    pinv,
    rank,
    svd,
)
from outerinv.outer_inverse import (
    ExistenceError,
    OuterInverseProblem,
    bott_duffin,
    compute,
    drazin,
    drazin_index,
    existence,
    group_inverse,
    image_of,
    kernel,
    moore_penrose,
    oracle_compute,
    problem_from_obj,
    problem_to_obj,
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

    def test_certificate_is_kept_per_tolerance_profile(self, rng):
        prob = random_feasible_problem(rng)
        cert = existence(prob)
        assert existence(prob, ToleranceProfile()) is cert  # equal, not the same object
        other = existence(prob, ToleranceProfile(rank_rtol=1e-3))
        assert other is not cert and other.exists
        assert existence(prob, ToleranceProfile(rank_rtol=1e-3)) is other

    def test_compute_raises_with_named_condition(self):
        prob = OuterInverseProblem(np.diag([1.0, 0.0]).astype(complex), line(0, 1), line(0, 1))
        with pytest.raises(ExistenceError, match="kernel intersection"):
            compute(prob)


def exact_existence(problem, tol):
    """Both conditions from the null space of A (a full SVD) and rank tests alone."""

    def independent(x, y):
        if x.dim == 0 or y.dim == 0:
            return True
        if x.dim + y.dim > x.ambient_dim:
            return False
        return rank(np.hstack([x.basis, y.basis]), tol) == x.dim + y.dim

    at = image_of(problem.A, problem.T, tol)
    m = problem.A.shape[0]
    return (
        independent(kernel(problem.A, tol), problem.T),
        at.dim,
        at.dim + problem.S.dim == m and independent(at, problem.S),
    )


def decided(cert):
    return (cert.kernel_meets_T_trivially, cert.AT_dim, cert.direct_sum_holds)


class TestExistenceCertificate:
    """The bound from sigma_min(A B_T) answers as the kernel-based test does."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(outer_inverse, "kernel", counted)
        return calls

    def test_generic_problem_needs_no_kernel(self, rng, kernel_calls):
        prob = random_feasible_problem(rng, m=8, n=7, rank_a=5, dim_t=3)
        cert = existence(prob)
        assert cert.exists
        assert decided(cert) == exact_existence(prob, ToleranceProfile())
        assert not kernel_calls

    def test_kernel_inside_T_defers(self, rng, kernel_calls):
        a = np.diag([1.0, 2.0, 0.0, 0.0]).astype(complex)
        t = ss.from_spanning_set(np.column_stack([[0, 0, 1, 0], complex_gaussian(rng, (4,))]))
        s = random_subspace(4, 2, rng)
        cert = existence(OuterInverseProblem(a, t, s))
        assert not cert.kernel_meets_T_trivially
        assert kernel_calls == [1]

    @pytest.mark.parametrize("direction, expected", [((1, 0), True), ((0, 1), False)])
    def test_loose_rank_threshold_defers(self, kernel_calls, direction, expected):
        # With rank_rtol = 0.5 the singular value 0.4 counts as zero: N(A) = span{e2}.
        tol = ToleranceProfile(rank_rtol=0.5)
        prob = OuterInverseProblem(np.diag([1.0, 0.4]).astype(complex), line(*direction), line(0, 1))
        assert existence(prob, tol).kernel_meets_T_trivially is expected
        assert decided(existence(prob, tol)) == exact_existence(prob, tol)
        assert kernel_calls

    @pytest.mark.parametrize("rank_rtol", [None, 0.5])
    def test_random_decisions_match_the_kernel_test(self, rng, kernel_calls, rank_rtol):
        tol = ToleranceProfile(rank_rtol=rank_rtol)
        draws = 300
        for _ in range(draws):
            m, n = (int(k) for k in rng.integers(2, 9, size=2))
            r = int(rng.integers(1, min(m, n) + 1))
            a = random_matrix_with_rank(m, n, r, rng)
            t = random_subspace(n, int(rng.integers(1, n)), rng)
            if r < n and rng.random() < 0.5:
                # Tilt T's first vector toward N(A) by a random, often tiny, angle.
                theta = 10.0 ** rng.uniform(-15, 0)
                null = kernel(a).basis[:, 0]
                basis = t.basis.copy()
                basis[:, 0] = math.cos(theta) * null + math.sin(theta) * basis[:, 0]
                t = ss.from_spanning_set(basis)
            s = random_subspace(m, int(rng.integers(0, m + 1)), rng)
            prob = OuterInverseProblem(a, t, s)
            assert decided(existence(prob, tol)) == exact_existence(prob, tol)
        # existence computed the null space only where its bound could not decide.
        assert 0 < len(kernel_calls) <= draws
        assert len(kernel_calls) < draws or rank_rtol is not None


def middle_sigmas(problem):
    """The d-th singular value of each route's middle matrix, d = dim T.

    The pinv route's ``P_S_perp A P_T`` always; the oracle's ``W* A U`` too
    when it is square.
    """
    d = problem.T.dim
    comp = ss.orthogonal_complement(problem.S)
    product = ss.projector(comp) @ problem.A @ ss.projector(problem.T)
    sigmas = [float(np.linalg.svd(product, compute_uv=False)[d - 1])]
    if comp.dim == d:
        middle = comp.basis.conj().T @ problem.A @ problem.T.basis
        sigmas.append(float(np.linalg.svd(middle, compute_uv=False)[-1]))
    return sigmas


def tilted_toward(v, target, theta):
    """``v`` with its first basis vector turned to within ``theta`` of the unit vector ``target``."""
    basis = v.basis.copy()
    basis[:, 0] = math.cos(theta) * target + math.sin(theta) * basis[:, 0]
    return ss.from_spanning_set(basis)


def draw_for_certificate(rng, m, n):
    """A random (A, T, S) that is often infeasible or close to it.

    rank A may fall below dim T (then N(A) meets T); S, mostly of
    dimension m - dim T, may be tilted toward A·T by an angle down to
    1e-12 or have any other dimension.
    """
    d = int(rng.integers(1, min(m, n) + 1))
    r = int(rng.integers(max(1, d - 2), min(m, n) + 1))
    a = random_matrix_with_rank(m, n, r, rng)
    t = random_subspace(n, d, rng)
    k = m - d if rng.random() < 0.9 else int(rng.integers(0, m + 1))
    s = random_subspace(m, k, rng)
    if 0 < k < m and rng.random() < 0.5:
        image = a @ t.basis[:, 0]
        if np.linalg.norm(image) > 0.0:
            s = tilted_toward(s, image / np.linalg.norm(image), 10.0 ** rng.uniform(-12, 0))
    return OuterInverseProblem(a, t, s)


def with_middle_ratio(rng, m, n, d, ratio):
    """A full-rank (A, T, S) with ``sigma_min(W* A U) / ||A||_F`` close to ``ratio``."""
    a = complex_gaussian(rng, (m, n))
    t = random_subspace(n, d, rng)
    s = random_subspace(m, m - d, rng)
    u, w = t.basis, ss.orthogonal_complement(s).basis
    left, sv, right = np.linalg.svd(w.conj().T @ a @ u)
    sv[-1] = ratio * np.linalg.norm(a)
    a = a + w @ ((left * sv) @ right - w.conj().T @ a @ u) @ u.conj().T
    return OuterInverseProblem(a, t, s)


class TestMiddleCertificate:
    """The certificate from the middle matrix only ever confirms what existence() says."""

    @pytest.mark.parametrize("shape, draws", [((6, 5), 700), ((40, 30), 250), ((120, 100), 50)])
    def test_yes_only_where_existence_says_yes(self, rng, shape, draws):
        seen = {"certified": 0, "declined_but_exists": 0, "absent": 0}
        for _ in range(draws):
            prob = draw_for_certificate(rng, *shape)
            exists = existence(prob).exists
            for sigma in middle_sigmas(prob):
                certified = outer_inverse._middle_certifies(prob, sigma, ToleranceProfile())
                assert exists or not certified
                seen["certified"] += certified
                seen["declined_but_exists"] += exists and not certified
            seen["absent"] += not exists
        assert all(seen.values()), seen

    @pytest.mark.parametrize("shape", [(6, 5), (40, 30), (120, 100)])
    def test_sweep_of_the_middle_ratio(self, rng, shape):
        m, n = shape
        verdicts = {}
        for exponent in np.arange(-2.0, -8.5, -0.5):
            prob = with_middle_ratio(rng, m, n, n // 2, 10.0**exponent)
            assert existence(prob).exists
            verdicts[exponent] = [
                outer_inverse._middle_certifies(prob, sigma, ToleranceProfile())
                for sigma in middle_sigmas(prob)
            ]
        # Certified where the ratio is large, declined where it is tiny.
        assert verdicts[-2.0] == [True, True] and verdicts[-8.0] == [False, False]

    def test_declines_outside_its_reach(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        sigma = middle_sigmas(prob)[0]
        assert outer_inverse._middle_certifies(prob, sigma, ToleranceProfile())
        other_s = OuterInverseProblem(prob.A, prob.T, random_subspace(6, 2, rng))
        assert not outer_inverse._middle_certifies(other_s, sigma, ToleranceProfile())
        trivial_t = OuterInverseProblem(prob.A, random_subspace(5, 0, rng), random_subspace(6, 6, rng))
        assert not outer_inverse._middle_certifies(trivial_t, sigma, ToleranceProfile())


def planted_failures(rng):
    """One infeasible (A, T, S) per way existence can fail, at 6x5."""
    a = random_matrix_with_rank(6, 5, 4, rng)
    null = kernel(a).basis[:, 0]
    t = random_subspace(5, 3, rng)
    image = a @ t.basis[:, 0]
    return {
        "kernel_meets_T": (a, tilted_toward(t, null, 0.0), random_subspace(6, 3, rng)),
        "AT_meets_S": (a, t, tilted_toward(random_subspace(6, 3, rng), image / np.linalg.norm(image), 0.0)),
        "dims_do_not_add": (a, t, random_subspace(6, 4, rng)),
        "trivial_T": (a, random_subspace(5, 0, rng), random_subspace(6, 4, rng)),
    }


@pytest.mark.parametrize("case", ["kernel_meets_T", "AT_meets_S", "dims_do_not_add", "trivial_T"])
def test_planted_failures_raise_the_existence_test_error(rng, case):
    data = planted_failures(rng)[case]
    cert = existence(OuterInverseProblem(*data))
    assert not cert.exists
    with pytest.raises(ExistenceError) as expected:
        outer_inverse._require_exists(cert)
    for route in (compute, outer_inverse.prepare, oracle_compute):
        with pytest.raises(ExistenceError) as raised:
            route(OuterInverseProblem(*data))
        assert raised.value.certificate == cert
        assert str(raised.value) == str(expected.value)


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
        t = ss.Subspace(np.zeros((3, 0), dtype=complex))
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


class TestPinvFrom12Inverse:
    """``svd(A).pinv_from_12_inverse(Z)`` projects any {1,2}-inverse Z onto pinv(A)."""

    def test_pinv_passthrough(self, rng):
        a = complex_gaussian(rng, (4, 3))
        assert np.allclose(svd(a).pinv_from_12_inverse(pinv(a)), pinv(a), atol=1e-10)

    def test_frozen_example(self):
        # Z = [[1, 7], [0, 0]] passes AZA = A, ZAZ = Z for A = diag(1, 0);
        # projecting kills the off-diagonal junk and restores pinv(A).
        a = np.diag([1.0, 0.0]).astype(complex)
        z = np.array([[1.0, 7.0], [0.0, 0.0]], dtype=complex)
        assert np.allclose(svd(a).pinv_from_12_inverse(z), np.diag([1.0, 0.0]))

    def test_random_oblique_12_inverses(self, rng):
        # 100 independently drawn {1,2}-inverses per matrix all project back
        # to the same Moore-Penrose inverse.
        for _ in range(5):
            a = random_matrix_with_rank(5, 4, 3, rng)
            factors = svd(a)
            expected = pinv(a)
            for _ in range(100):
                z = random_12_inverse(a, rng)
                recovered = factors.pinv_from_12_inverse(z)
                assert op_norm(recovered - expected) <= 1e-8 * (1.0 + op_norm(expected))


class TestClassicalCases:
    def test_moore_penrose_diagonal(self):
        res = moore_penrose(np.diag([2.0, 0.0]))
        assert np.allclose(res.G, np.diag([0.5, 0.0]))

    def test_group_diagonal(self):
        res = group_inverse(np.diag([3.0, 0.0]))
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

    @staticmethod
    def non_normal_drazin_case(index, seed):
        """A = X C X^{-1} with C = diag(d, N), N the nilpotent Jordan block of
        size index, and its Drazin inverse X diag(1/d, 0, ...) X^{-1}."""
        n = index + 1
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = rng.uniform(0.5, 2)
        core = np.zeros((n, n), dtype=complex)
        core[0, 0] = d
        for i in range(1, n - 1):
            core[i, i + 1] = 1.0
        x_inv = np.linalg.inv(x)
        return x @ core @ x_inv, np.outer(x[:, 0], x_inv[0]) / d

    @pytest.mark.parametrize("index", [2, 3])
    def test_drazin_of_well_conditioned_non_normal_matrices(self, index):
        # For these seeds cond(X) is at most 47.5 (n = 3) and 110 (n = 4), yet
        # the rounding in A^k, which scales with ||A||^k, once read as rank.
        wrong = []
        for seed in range(200):
            a, expected = self.non_normal_drazin_case(index, seed)
            k = drazin_index(a)
            err = op_norm(drazin(a).G - expected) / op_norm(expected)
            if k != index or not err <= 1e-6:
                wrong.append((seed, k, err))
        assert wrong == []

    @pytest.mark.parametrize("index, seed", [(2, 1164), (3, 672), (3, 773)])
    def test_pinv_route_keeps_at_most_dim_T_singular_values(self, index, seed):
        # cond(X) is 78-137 here, and ||A|| ||G|| is large enough that the
        # rounding of P_S_perp A P_T cleared the rank threshold: inverting it
        # gave relerr ~1e15 and range and kernel gaps of 1.
        a, expected = self.non_normal_drazin_case(index, seed)
        result = drazin(a)
        assert op_norm(result.G - expected) <= 1e-10 * op_norm(expected)
        assert result.range_gap < 1e-12
        assert result.null_gap < 1e-10

    def test_drazin_rank_that_rises_is_a_numerical_error(self, monkeypatch):
        # Ranks 2, 1, 2 read for A, A^2, A^3: the powers are not resolved, so
        # no index is reported.
        values = iter([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        real = outer_inverse.svd

        def fake_svd(m):
            f = real(m)
            return SvdFactors(f.left_vectors, np.array(next(values)), f.right_vectors)

        monkeypatch.setattr(outer_inverse, "svd", fake_svd)
        with pytest.raises(NumericalError, match=r"rank\(A\^3\) = 2 exceeds rank\(A\^2\) = 1"):
            drazin_index(np.eye(3))

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


class TestSerialization:
    def test_problem_round_trip(self, rng):
        prob = random_feasible_problem(rng, m=5, n=4)
        back = problem_from_obj(json.loads(json.dumps(problem_to_obj(prob))))
        assert np.array_equal(back.A, prob.A)
        assert ss.gap_hat(back.T, prob.T) < 1e-12
        assert ss.gap_hat(back.S, prob.S) < 1e-12

    def test_serialized_problems_leave_the_collector_little_to_track(self):
        # Each (re, im) pair is a tuple of floats, which the cycle collector
        # stops tracking at its first collection; one list per pair stayed
        # tracked, about 2,650 objects per 40x30 problem.
        golden = Path(__file__).parent / "golden" / "problem_40x30.json"
        prob = problem_from_obj(json.loads(golden.read_text()))
        gc.collect()
        before = len(gc.get_objects())
        held = [problem_to_obj(prob) for _ in range(20)]
        gc.collect()
        assert len(gc.get_objects()) - before < 20 * len(held)

    def test_result_object_shape(self, rng):
        prob = random_feasible_problem(rng, m=4, n=4)
        obj = result_to_obj(compute(prob))
        assert set(obj) == {"G", "residuals"}
        assert set(obj["residuals"]) == {"residual_gag", "range_gap", "null_gap"}


def test_problem_owns_a_read_only_A(rng):
    base = random_feasible_problem(rng)
    a = base.A.copy()
    prob = OuterInverseProblem(a, base.T, base.S)
    assert not prob.A.flags.writeable
    with pytest.raises(ValueError):
        prob.A[0, 0] = 1.0
    a[0, 0] += 1.0  # the caller's array stays writeable, and apart
    assert np.array_equal(prob.A, base.A)


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
