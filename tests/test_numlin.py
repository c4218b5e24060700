"""Matrix kernel tests: SVD, pinv, norms, rank, solves, JSON round trip."""

import json
import math

import numpy as np
import pytest

from outerinv import numlin
from outerinv.numlin import (
    IllConditionedError,
    ToleranceProfile,
    matrix_from_json,
    matrix_from_obj,
    matrix_to_json,
    op_norm,
    pinv,
    rank,
    solve_square,
    svd,
)

from helpers import complex_gaussian


def penrose_residuals(a, b):
    return (
        op_norm(a @ b @ a - a),
        op_norm(b @ a @ b - b),
        op_norm((a @ b).conj().T - a @ b),
        op_norm((b @ a).conj().T - b @ a),
    )


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(2))
        assert np.allclose(f.singular_values, [1.0, 1.0])

    def test_diagonal(self):
        f = svd(np.diag([3.0, 0.0]))
        assert np.allclose(f.singular_values, [3.0, 0.0])

    def test_nilpotent_singular_values(self):
        # Eigenvalues of A*A for [[0,1],[0,0]] are {1, 0}.
        f = svd(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(f.singular_values, [1.0, 0.0], atol=1e-14)

    def test_factors_invariants(self, rng):
        a = complex_gaussian(rng, (5, 7))
        f = svd(a)
        m, n = a.shape
        assert np.allclose(f.left_vectors.conj().T @ f.left_vectors, np.eye(m), atol=1e-12)
        assert np.allclose(f.right_vectors.conj().T @ f.right_vectors, np.eye(n), atol=1e-12)
        sigma = np.zeros((m, n))
        sigma[: len(f.singular_values), : len(f.singular_values)] = np.diag(f.singular_values)
        recon = f.left_vectors @ sigma @ f.right_vectors.conj().T
        assert op_norm(recon - a) <= 1e-12 * op_norm(a)
        assert np.all(np.diff(f.singular_values) <= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_rank_one(self):
        b = pinv(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(b, [[0.5, 0.0], [0.5, 0.0]])

    def test_penrose_equations_random(self, rng):
        for _ in range(50):
            m, n = rng.integers(1, 9, size=2)
            a = complex_gaussian(rng, (int(m), int(n)))
            b = pinv(a)
            tol = 1e-8 * (1.0 + op_norm(a))
            assert all(res <= tol for res in penrose_residuals(a, b))

    def test_involution(self, rng):
        for _ in range(30):
            a = complex_gaussian(rng, (6, 4))
            assert op_norm(pinv(pinv(a)) - a) <= 1e-8 * (1.0 + op_norm(a))

    def test_zero_matrix(self):
        assert np.allclose(pinv(np.zeros((3, 2))), np.zeros((2, 3)))


class TestOpNorm:
    def test_zero(self):
        assert op_norm(np.zeros((2, 2))) == 0.0

    def test_identity(self):
        assert op_norm(np.eye(5)) == pytest.approx(1.0)

    def test_column(self):
        # sqrt of the largest eigenvalue of A*A = [[25, 0], [0, 0]].
        assert op_norm(np.array([[3.0, 0.0], [4.0, 0.0]])) == pytest.approx(5.0)

    def test_submultiplicative(self, rng):
        for _ in range(50):
            a = complex_gaussian(rng, (5, 4))
            b = complex_gaussian(rng, (4, 6))
            assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-8


class TestRank:
    def test_identity(self):
        assert rank(np.eye(4)) == 4

    def test_zero(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_proportional_rows(self):
        assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_adjoint_invariant(self, rng):
        for _ in range(30):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            r = int(rng.integers(0, min(m, n) + 1))
            from outerinv.instance_gen import random_matrix_with_rank

            a = random_matrix_with_rank(m, n, r, rng)
            assert rank(a) == rank(a.conj().T) == r


class TestSolveSquare:
    def test_identity(self, rng):
        b = complex_gaussian(rng, (2, 3))
        assert np.allclose(solve_square(np.eye(2), b), b)

    def test_diagonal(self):
        x = solve_square(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]))

    def test_residual_random(self, rng):
        m = complex_gaussian(rng, (6, 6)) + 3.0 * np.eye(6)
        x = solve_square(m, m)
        assert op_norm(x - np.eye(6)) <= 1e-10
        assert op_norm(m @ x - m) <= 1e-8 * (1.0 + op_norm(m))

    def test_refuses_ill_conditioned(self):
        m = np.diag([1.0, 1e-13])
        with pytest.raises(IllConditionedError) as err:
            solve_square(m, np.eye(2))
        assert err.value.condition > 1e12

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            solve_square(np.ones((2, 3)), np.ones((2, 1)))


class TestToleranceProfile:
    def test_defaults(self):
        tol = ToleranceProfile()
        assert tol.verify_atol == 1e-8
        assert tol.cond_cap == 1e12
        eps = np.finfo(np.float64).eps
        assert tol.effective_rank_rtol((5, 12)) == 12 * eps

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank_rtol": 0.0},
            {"rank_rtol": 1.5},
            {"verify_atol": 0.0},
            {"cond_cap": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceProfile(**kwargs)


class TestJsonRoundTrip:
    def test_layout(self):
        text = matrix_to_json(np.array([[1.0 + 2.0j, 3.0], [0.0, -4.5j]]))
        obj = json.loads(text)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["entries"][0] == [1.0, 2.0]
        assert obj["entries"][3] == [0.0, -4.5]

    def test_bit_exact_round_trip(self, rng):
        # Shortest-repr decimals must reproduce every double bit-for-bit,
        # including signed zeros and extreme exponents.
        a = complex_gaussian(rng, (4, 5))
        a *= np.exp(rng.uniform(-250, 250, size=a.shape) * math.log(10) / 10)
        a[0, 0] = complex(-0.0, 0.0)
        a[1, 1] = complex(5e-324, 1e308)
        back = matrix_from_json(matrix_to_json(a))
        assert back.tobytes() == a.tobytes()

    def test_entry_count_validation(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_obj({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_from_obj({"rows": 1, "cols": 1, "entries": [[math.inf, 0.0]]})


def test_default_tol_is_shared_instance():
    assert numlin.DEFAULT_TOL.verify_atol == 1e-8
