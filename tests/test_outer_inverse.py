"""Outer inverse computation, oracle agreement, classical special cases."""

import gc
import json
import math
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

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
    column_space,
    compute,
    drazin,
    drazin_index,
    existence,
    group_inverse,
    image_of,
    kernel,
    moore_penrose,
    moore_penrose_problem,
    oracle_compute,
    problem_from_obj,
    problem_to_obj,
    result_to_obj,
    row_space,
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
        assert existence(prob).exists

    def test_kernel_overlap_detected(self):
        # T sits inside N(A).
        prob = OuterInverseProblem(np.diag([1.0, 0.0]).astype(complex), line(0, 1), line(0, 1))
        cert = existence(prob)
        assert cert.failure == "kernel_meets_T"
        assert not cert.exists

    def test_direct_sum_failure_detected(self):
        # A T = span{e1} = S, so the sum cannot fill the plane.
        prob = OuterInverseProblem(np.eye(2, dtype=complex), line(1, 0), line(1, 0))
        cert = existence(prob)
        assert cert.failure == "direct_sum"
        assert not cert.exists

    def test_equal_profiles_give_equal_certificates(self, rng):
        # Each call decides afresh from its own SVD, so equal profiles
        # (equal, not the same object) give equal certificates, and a
        # coarse profile's "no" leaves a later call at the default "yes".
        prob = with_middle_ratio(rng, 6, 5, 2, 1e-3)
        cert = existence(prob)
        again = existence(prob, ToleranceProfile())
        assert again == cert and again is not cert and cert.exists
        coarse = ToleranceProfile(rank_rtol=1e-2)
        assert existence(prob, coarse) == existence(prob, ToleranceProfile(rank_rtol=1e-2))
        assert not existence(prob, coarse).exists
        assert existence(prob) == cert

    # N(A) meeting T leaves A·T too small for the direct sum, so its message names both.
    @pytest.mark.parametrize(
        "a, t, failure, message",
        [
            (
                np.diag([1.0, 0.0]),
                (0, 1),
                "kernel_meets_T",
                "outer inverse does not exist: kernel intersection nontrivial (N(A) meets T: "
                "sigma_d(A B_T) <= rank_rtol ||A||_F, d = dim T, a scale kernel() does not use: "
                "it ranks by sigma_max(A)); direct sum fails (A·T and S do not split the codomain)",
            ),
            (
                np.eye(2),
                (1, 0),
                "direct_sum",
                "outer inverse does not exist: direct sum fails (A·T and S do not split the codomain)",
            ),
        ],
    )
    def test_compute_raises_with_named_condition(self, a, t, failure, message):
        prob = OuterInverseProblem(a.astype(complex), line(*t), line(*t))
        with pytest.raises(ExistenceError) as raised:
            compute(prob)
        assert raised.value.certificate.failure == failure
        assert str(raised.value) == message


def exact_existence(problem, tol):
    """The failed condition, or None, from the null space of A (a full SVD) and rank tests alone.

    N(A) meeting T is named first: then A·T is smaller than T, and the
    direct sum fails with it.
    """

    def independent(x, y):
        if x.dim == 0 or y.dim == 0:
            return True
        if x.dim + y.dim > x.ambient_dim:
            return False
        return rank(np.hstack([x.basis, y.basis]), tol) == x.dim + y.dim

    at = image_of(problem.A, problem.T, tol) if problem.T.dim else problem.T
    if not independent(kernel(problem.A, tol), problem.T):
        return "kernel_meets_T"
    if at.dim + problem.S.dim == problem.A.shape[0] and independent(at, problem.S):
        return None
    return "direct_sum"


def middle_existence(problem, tol):
    """The failed condition, or None, from the oracle's square middle matrix W* A U and from A B_T."""
    a, d = problem.A, problem.T.dim
    threshold = tol.effective_rank_rtol(a.shape) * np.linalg.norm(a)
    if d == 0:
        return None if problem.S.dim == a.shape[0] else "direct_sum"
    image = np.linalg.svd(a @ problem.T.basis, compute_uv=False)
    if not (image.size >= d and image[d - 1] > threshold):
        return "kernel_meets_T"
    if d + problem.S.dim != a.shape[0]:
        return "direct_sum"
    w = ss.orthogonal_complement(problem.S).basis
    sigma = np.linalg.svd(w.conj().T @ a @ problem.T.basis, compute_uv=False)[-1]
    return None if sigma > threshold else "direct_sum"


class TestExistenceCertificate:
    """existence() answers as the kernel-and-rank tests do at the default threshold."""

    def test_generic_problem_needs_no_kernel(self, rng, monkeypatch):
        # existence() reads singular values only: no SVD with vectors, so no
        # null space of A and no basis of the complement of S.
        prob = random_feasible_problem(rng, m=8, n=7, rank_a=5, dim_t=3)
        with_vectors = []
        original = np.linalg.svd

        def recorded(a, *args, **kwargs):
            with_vectors.append(kwargs.get("compute_uv", True))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        cert = existence(prob)
        monkeypatch.undo()
        assert cert.exists
        assert cert.failure == exact_existence(prob, ToleranceProfile())
        assert with_vectors == [False]

    def test_kernel_inside_T_defers(self, rng):
        a = np.diag([1.0, 2.0, 0.0, 0.0]).astype(complex)
        t = ss.from_spanning_set(np.column_stack([[0, 0, 1, 0], complex_gaussian(rng, (4,))]))
        s = random_subspace(4, 2, rng)
        prob = OuterInverseProblem(a, t, s)
        assert existence(prob).failure == "kernel_meets_T"
        assert existence(prob).failure == exact_existence(prob, ToleranceProfile())

    @pytest.mark.parametrize("direction, expected", [((1, 0), None), ((0, 1), "kernel_meets_T")])
    def test_loose_rank_threshold_defers(self, direction, expected):
        # With rank_rtol = 0.5 the singular value 0.4 counts as zero: N(A) = span{e2}.
        tol = ToleranceProfile(rank_rtol=0.5)
        prob = OuterInverseProblem(np.diag([1.0, 0.4]).astype(complex), line(*direction), line(0, 1))
        assert existence(prob, tol).failure == expected
        assert existence(prob, tol).failure == exact_existence(prob, tol)

    @pytest.mark.parametrize("rank_rtol", [None, 0.5])
    def test_random_decisions_match_the_kernel_test(self, rng, rank_rtol):
        # At rank_rtol 0.5 the rank tests and the middle matrix part ways
        # (the definition is the middle matrix's); there existence() answers
        # as the oracle's W* A U does.
        tol = ToleranceProfile(rank_rtol=rank_rtol)
        for _ in range(300):
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
            cert = existence(prob, tol)
            assert cert.failure == middle_existence(prob, tol)
            if rank_rtol is None:
                assert cert.failure == exact_existence(prob, tol)


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


def route_decisions(problem, tol=ToleranceProfile()):
    """The certificate each route's sigma gives."""
    return [outer_inverse._decide(problem, sigma, tol) for sigma in middle_sigmas(problem)]


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
    """The one test, fed the sigma of either route's middle matrix, answers
    as existence() does, reason included."""

    @pytest.mark.parametrize("shape, draws", [((6, 5), 700), ((40, 30), 250), ((120, 100), 50)])
    def test_yes_only_where_existence_says_yes(self, rng, shape, draws):
        seen = Counter()
        for _ in range(draws):
            prob = draw_for_certificate(rng, *shape)
            cert = existence(prob)
            for decision in route_decisions(prob):
                assert decision == cert
            seen[cert.failure] += 1
        # Every verdict occurs: yes, a failed direct sum, and N(A) meeting T.
        assert set(seen) == {None, "direct_sum", "kernel_meets_T"}, seen

    @pytest.mark.parametrize("shape", [(6, 5), (40, 30), (120, 100)])
    def test_sweep_of_the_middle_ratio(self, rng, shape):
        m, n = shape
        rtol = ToleranceProfile().effective_rank_rtol(shape)
        for exponent in range(-2, -19, -1):
            ratio = 10.0**exponent
            if rtol / 16 < ratio < rtol * 16:
                continue  # rounding of the construction decides here
            prob = with_middle_ratio(rng, m, n, n // 2, ratio)
            verdicts = [cert.exists for cert in route_decisions(prob)]
            # Yes where sigma_d clears rtol ||A||_F, no well below it.
            assert verdicts == [ratio > rtol] * 2, exponent
            assert existence(prob).exists == (ratio > rtol)

    def test_declines_outside_its_reach(self, rng):
        # Where the middle matrix is not square the dimensions decide, and
        # sigma is never read.
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        tol = ToleranceProfile()
        assert outer_inverse._decide(prob, middle_sigmas(prob)[0], tol).exists
        other_s = OuterInverseProblem(prob.A, prob.T, random_subspace(6, 2, rng))
        assert outer_inverse._decide(other_s, 1.0, tol).failure == "direct_sum"
        trivial_t = OuterInverseProblem(prob.A, random_subspace(5, 0, rng), random_subspace(6, 4, rng))
        assert outer_inverse._decide(trivial_t, 1.0, tol).failure == "direct_sum"
        whole_s = OuterInverseProblem(prob.A, random_subspace(5, 0, rng), random_subspace(6, 6, rng))
        assert outer_inverse._decide(whole_s, 0.0, tol).exists


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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_existence_matches_the_rank_tests_and_every_route(data):
    # Any shape in 2..9, any rank, dim T from 0 to n, dim S either m - dim T
    # or anything, and at times an exact N(A) ∩ T or A·T ∩ S planted.
    m = data.draw(st.integers(2, 9), label="m")
    n = data.draw(st.integers(2, 9), label="n")
    r = data.draw(st.integers(0, min(m, n)), label="rank")
    d = data.draw(st.integers(0, n), label="dim_T")
    dims_add = d <= m and data.draw(st.booleans(), label="dims_add")
    k = m - d if dims_add else data.draw(st.integers(0, m), label="dim_S")
    plant = data.draw(st.sampled_from(["none", "kernel_meets_T", "AT_meets_S"]), label="plant")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = random_matrix_with_rank(m, n, r, rng)
    t = random_subspace(n, d, rng)
    s = random_subspace(m, k, rng)
    if plant == "kernel_meets_T" and d > 0 and r < n:
        t = tilted_toward(t, kernel(a).basis[:, 0], 0.0)
    image = a @ t.basis[:, 0] if d > 0 else np.zeros(m)
    if plant == "AT_meets_S" and k > 0 and np.linalg.norm(image) > 0.0:
        s = tilted_toward(s, image / np.linalg.norm(image), 0.0)

    tol = ToleranceProfile()
    cert = existence(OuterInverseProblem(a, t, s))
    event(f"planted {plant}: {cert.failure}")
    assert cert.failure == exact_existence(OuterInverseProblem(a, t, s), tol)
    for route in (compute, outer_inverse.prepare, oracle_compute):
        if cert.exists:
            route(OuterInverseProblem(a, t, s))
            continue
        with pytest.raises(ExistenceError) as raised:
            route(OuterInverseProblem(a, t, s))
        assert raised.value.certificate == cert


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


def test_image_of_the_kernel_is_trivial():
    # A B_N is rounding (4.0e-16 here).  Ranked against ||A||_F, as the
    # existence test ranks, not against its own largest singular value,
    # it spans nothing.
    a = random_matrix_with_rank(6, 5, 3, np.random.default_rng(0))
    n = kernel(a)
    assert n.dim == 2 and 0.0 < op_norm(a @ n.basis) < 1e-14
    image = image_of(a, n)
    assert image.dim == 0 and ss.orthogonal_complement(image).dim == 6


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


def test_kernel_meets_T_names_the_existence_rule():
    # At rank_rtol 0.15, 0.2 > 0.15 sigma_max(A) = 0.15, so kernel() keeps
    # every direction, but 0.2 < 0.15 ||A||_F (about 0.30), so the
    # existence test reads A's Moore-Penrose problem as N(A) meeting T.
    a = np.diag([1.0, 1.0, 1.0, 1.0, 0.2]).astype(complex)
    tol = ToleranceProfile(rank_rtol=0.15)
    assert kernel(a, tol).dim == 0
    with pytest.raises(ExistenceError) as raised:
        moore_penrose(a, tol)
    message = str(raised.value)
    assert "kernel intersection nontrivial" in message
    assert "sigma_d(A B_T) <= rank_rtol ||A||_F" in message
    assert "kernel() does not use" in message


def svd_calls():
    """Count numpy.linalg.svd calls made inside the ``with`` block."""
    return mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_every_subspace_read_off_an_svd_carries_its_complement(data):
    # Each producer reads its subspace off one unitary factor of an SVD and
    # keeps the factor's other columns as the complement: no SVD is taken
    # for it, the dimensions fill the ambient space, and the two bases
    # together are orthonormal.
    m = data.draw(st.integers(1, 9), label="m")
    n = data.draw(st.integers(1, 8), label="n")
    r = data.draw(st.integers(0, min(m, n)), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = random_matrix_with_rank(m, n, r, rng)
    v = random_subspace(n, int(rng.integers(0, n + 1)), rng)
    mp = moore_penrose_problem(a)
    produced = {
        "kernel": kernel(a),
        "row_space": row_space(a),
        "column_space": column_space(a),
        "image_of": image_of(a, v),
        "from_spanning_set": ss.from_spanning_set(a),
        "moore_penrose T": mp.T,
        "moore_penrose S": mp.S,
    }
    for name, sub in produced.items():
        with svd_calls() as calls:
            comp = ss.orthogonal_complement(sub)
        assert calls.call_count == 0, name
        assert sub.dim + comp.dim == sub.ambient_dim == comp.ambient_dim, name
        cross = sub.basis.conj().T @ comp.basis
        assert cross.size == 0 or op_norm(cross) <= 1e-13, name
        gram = comp.basis.conj().T @ comp.basis - np.eye(comp.dim)
        assert gram.size == 0 or op_norm(gram) <= 1e-13, name


def _similar_to(core, rng):
    x = complex_gaussian(rng, core.shape)
    return x @ core @ np.linalg.inv(x)


def test_svd_counts_of_the_classical_inverses():
    # Every T and S here is read off an SVD, or is the complement the
    # constraint's SVD gives together with its own, so the pinv route's
    # P_S_perp costs no SVD.  Each count is the SVDs of the problem's
    # subspaces plus compute's 5 (the product P_S_perp A P_T, G, ||GAG - G||
    # and the two gaps).  Before the complement was kept, each was one more.
    # The group inverse factors A and A^2 and Drazin A, A^2 and A^3 (index 2).
    rng = np.random.default_rng(3)
    core = np.diag([1.0, 2.0, 3.0, 0.5, 1.5, 0.0, 0.0, 0.0]).astype(complex)
    index_two = core.copy()
    index_two[6, 7] = 1.0
    a_mp = random_matrix_with_rank(40, 30, 24, rng)
    a_group, a_drazin = _similar_to(core, rng), _similar_to(index_two, rng)
    a_bd, constraint = complex_gaussian(rng, (8, 8)), random_subspace(8, 3, rng)
    cases = {
        "moore_penrose": lambda: moore_penrose(a_mp),
        "group_inverse": lambda: group_inverse(a_group),
        "drazin": lambda: drazin(a_drazin),
        "bott_duffin": lambda: bott_duffin(a_bd, constraint),
    }
    counts = {}
    for name, call in cases.items():
        with svd_calls() as calls:
            call()
        counts[name] = calls.call_count
    assert counts == {"moore_penrose": 6, "group_inverse": 7, "drazin": 8, "bott_duffin": 6}
