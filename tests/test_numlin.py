"""Matrix kernel tests: SVD, pinv, norms, rank, solves, JSON round trip."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from outerinv import numlin
from outerinv.numlin import (
    IllConditionedError,
    ToleranceProfile,
    cond,
    matrix_from_obj,
    matrix_to_obj,
    op_norm,
    op_norm_at_most,
    pinv,
    rank,
    residual_within,
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


def count_calls(monkeypatch, module, name):
    """Count the calls that ``module``'s own code makes to its function ``name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def unitary(rng, k):
    q, _ = np.linalg.qr(complex_gaussian(rng, (k, k)))
    return q


class TestResidualCertificates:
    """The Frobenius certificates answer as the spectral residual tests do."""

    ATOL = 1e-8

    def test_random_decisions_match_the_spectral_test(self, rng, monkeypatch):
        exact_calls = count_calls(monkeypatch, numlin, "op_norm")
        deferred = 0
        for _ in range(400):
            rows, cols = (int(k) for k in rng.integers(1, 7, size=2))
            r = complex_gaussian(rng, (rows, cols))
            if rng.random() < 0.5:  # rank one: Frobenius and spectral norms agree
                r = np.outer(r[:, 0], r[0, :])
            b = complex_gaussian(rng, (rows, cols)) * 10.0 ** rng.uniform(-2, 2)
            limit = self.ATOL * (1.0 + np.linalg.svd(b, compute_uv=False)[0])
            r *= limit * 10.0 ** rng.uniform(-0.7, 0.7) / np.linalg.svd(r, compute_uv=False)[0]
            spectral = np.linalg.svd(r, compute_uv=False)[0]
            before = len(exact_calls)
            assert residual_within(r, b, self.ATOL) == (spectral <= limit)
            assert op_norm_at_most(r, limit) == (spectral <= limit)
            deferred += len(exact_calls) > before
        # Both outcomes of the certificate occur, and every "no" came from the exact test.
        assert 0 < deferred < 400

    @pytest.mark.parametrize("ratio, expected", [(0.999, True), (1.001, False)])
    def test_full_rank_residual_at_the_tolerance_defers(self, rng, monkeypatch, ratio, expected):
        # Equal singular values: ||R||_F = 2 ||R||_2, so the certificate cannot
        # decide and the spectral test must.
        b = 3.0 * unitary(rng, 4)
        limit = self.ATOL * (1.0 + 3.0)
        r = ratio * limit * unitary(rng, 4)
        exact_calls = count_calls(monkeypatch, numlin, "op_norm")
        assert residual_within(r, b, self.ATOL) is expected
        assert op_norm_at_most(r, limit) is expected
        assert exact_calls

    def test_rank_one_residual_below_the_tolerance_is_certified(self, rng, monkeypatch):
        b = 3.0 * unitary(rng, 4)
        x = complex_gaussian(rng, (4,))
        r = np.outer(x, x.conj())
        r *= 0.999 * self.ATOL * (1.0 + 3.0) / op_norm(r)
        exact_calls = count_calls(monkeypatch, numlin, "op_norm")
        assert residual_within(r, b, self.ATOL)
        assert not exact_calls


class TestConditionCapCertificate:
    """``solve_square`` skips cond(M) only where it provably passes the cap."""

    def test_small_resolvent_skips_the_condition_number(self, rng, monkeypatch):
        k = complex_gaussian(rng, (5, 5))
        m = np.eye(5) + 0.5 * k / np.linalg.norm(k)
        exact_calls = count_calls(monkeypatch, numlin, "cond")
        x = solve_square(m, np.eye(5))
        assert not exact_calls
        assert op_norm(m @ x - np.eye(5)) <= 1e-12

    def test_frobenius_slightly_above_one_defers(self, rng, monkeypatch):
        # ||K||_F = 1.0001 but ||K||_2 = 0.50005: cond(I + K) <= 3.
        m = np.eye(4) + 0.50005 * unitary(rng, 4)
        exact_calls = count_calls(monkeypatch, numlin, "cond")
        solve_square(m, np.eye(4))
        assert exact_calls == ["cond"]

    def test_cap_of_two(self, monkeypatch):
        tol = ToleranceProfile(cond_cap=2.0)
        exact_calls = count_calls(monkeypatch, numlin, "cond")
        solve_square(np.diag([1.2, 1.0, 1.0]), np.eye(3), tol)  # (1 + f)/(1 - f) = 1.5
        assert not exact_calls
        solve_square(np.diag([1.4, 1.0, 1.0]), np.eye(3), tol)  # bound 2.33, cond 1.4
        assert exact_calls == ["cond"]
        with pytest.raises(IllConditionedError) as err:
            solve_square(np.diag([1.4, 0.6, 1.0]), np.eye(3), tol)  # cond 2.33
        assert err.value.condition == cond(np.diag([1.4, 0.6, 1.0]))

    @pytest.mark.parametrize("cap", [2.0, 1e12])
    def test_random_refusals_match_the_condition_number(self, rng, cap):
        tol = ToleranceProfile(cond_cap=cap)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            k = complex_gaussian(rng, (n, n))
            m = np.eye(n) + rng.uniform(0.0, 1.5) * k / np.linalg.norm(k)
            c = cond(m)
            try:
                solve_square(m, np.eye(n), tol)
                refused = None
            except IllConditionedError as exc:
                refused = exc.condition
            assert (refused is not None) == (c > cap)
            assert refused is None or refused == c


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
        text = json.dumps(matrix_to_obj(np.array([[1.0 + 2.0j, 3.0], [0.0, -4.5j]])))
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
        back = matrix_from_obj(json.loads(json.dumps(matrix_to_obj(a))))
        assert back.tobytes() == a.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_any_finite_matrix_round_trips_bit_exactly(self, data):
        # Empty rows or columns, signed zeros, subnormals and magnitudes up
        # to the largest double, drawn on purpose beside any finite double.
        rows = data.draw(st.integers(0, 5), label="rows")
        cols = data.draw(st.integers(0, 5), label="cols")
        edges = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1.7976931348623157e308]
        finite = st.one_of(st.sampled_from(edges), st.floats(allow_nan=False, allow_infinity=False))
        parts = data.draw(arrays(np.float64, (rows, 2 * cols), elements=finite))
        a = parts.view(np.complex128)
        back = matrix_from_obj(json.loads(json.dumps(matrix_to_obj(a))))
        assert back.shape == a.shape and back.tobytes() == a.tobytes()

    def test_entry_count_validation(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_obj({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_from_obj({"rows": 1, "cols": 1, "entries": [[math.inf, 0.0]]})

    @pytest.mark.parametrize(
        "entry",
        [
            ["1", 0.0],
            [None, 0.0],
            2.5,
            [1.0],
            [1.0, 2.0, 3.0],
            pytest.param([10**400, 0], id="[10**400, 0]"),  # too large for a double
        ],
        ids=repr,
    )
    def test_malformed_entry_names_its_index(self, entry):
        obj = {"rows": 1, "cols": 2, "entries": [[0.0, 0.0], entry]}
        with pytest.raises(ValueError, match="malformed matrix object: entry 1 "):
            matrix_from_obj(obj)
        with pytest.raises(ValueError, match="malformed matrix object: entry 1 "):
            matrix_from_obj(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize(
        "entry", [[True, False], [1.0, False], [True, 0.0]], ids=repr
    )
    def test_boolean_entry_names_its_index(self, entry):
        obj = {"rows": 1, "cols": 2, "entries": [[0.0, 0.0], entry]}
        with pytest.raises(ValueError, match="malformed matrix object: entry 1 "):
            matrix_from_obj(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("value", [1.9, 1.0, True, "1", None], ids=repr)
    def test_size_that_is_not_an_integer_names_its_field(self, field, value):
        obj = {"rows": 1, "cols": 1, "entries": [[2.0, 0.0]], field: value}
        with pytest.raises(ValueError, match=f"malformed matrix object: {field} is "):
            matrix_from_obj(json.loads(json.dumps(obj)))

    def test_numpy_integer_sizes_accepted(self):
        obj = {"rows": np.int64(1), "cols": np.int32(2), "entries": [[1.0, 0.0], [0, -1]]}
        assert matrix_from_obj(obj).tolist() == [[1.0 + 0.0j, -1.0j]]

    def test_null_entries_rejected(self):
        with pytest.raises(ValueError, match="malformed matrix object"):
            matrix_from_obj({"rows": 1, "cols": 1, "entries": None})


def _one_complex_per_entry(entries) -> np.ndarray:
    """The loader's rule before float pairs were taken as they are: complex() per entry."""
    return np.array([complex(re, im) for re, im in entries], dtype=np.complex128)


LOADED_ENTRIES = {
    "floats": [[1.5, -2.25], (0.1, 1e-300), [-0.0, 5e-324]],
    "ints": [[1, 2], (-3, 0), [2**53 + 1, -(2**60)]],
    "mixed": [[1, 2.5], [0.5, -7], (3, 0.25)],
    "negative_zero_imag": [[1.0, -0.0], [-0.0, -0.0], [3, -0.0]],
    "fractions": [[Fraction(1, 3), Fraction(-2, 7)], [Fraction(5), 0.5]],
    "numpy_scalars": [
        [np.float64(0.1), np.float32(0.1)],
        [np.int64(3), np.float16(2.5)],
        (np.int32(-4), np.complex128(0.5)),
    ],
}


@pytest.mark.parametrize("name", sorted(LOADED_ENTRIES))
def test_entries_load_as_one_complex_per_entry_would(name):
    entries = LOADED_ENTRIES[name]
    loaded = matrix_from_obj({"rows": 1, "cols": len(entries), "entries": entries})
    assert loaded.tobytes() == _one_complex_per_entry(entries).tobytes()


@pytest.mark.parametrize(
    "entry",
    [[True, 0.0], [0.0, False], ["1", 0.0], [None, 0.0], [1.0], [1.0, 2.0, 3.0], 2.5, [10**400, 0]],
    ids=repr,
)
def test_rejected_entry_keeps_its_message(entry):
    # The entries before it take the float-pair and the complex() paths.
    obj = {"rows": 1, "cols": 3, "entries": [[0.5, 0.0], [1, 2], entry]}
    with pytest.raises(ValueError) as info:
        matrix_from_obj(obj)
    assert str(info.value) == (
        f"malformed matrix object: entry 2 is {entry!r}, not a pair [re, im] of numbers"
    )


def _entrywise_obj(a) -> dict:
    """The per-entry serialization the bulk ``matrix_to_obj`` replaced."""
    m = np.asarray(a, dtype=np.complex128)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def _layouts():
    base = np.arange(12.0).reshape(3, 4) - 5.5 + 1j * np.linspace(-1, 1, 12).reshape(3, 4)
    specials = base.copy()
    specials[0, 0] = complex(-0.0, -0.0)
    specials[0, 1] = complex(5e-324, -2.2250738585072014e-309)
    specials[1, 0] = complex(1e300, -1e-300)
    specials[1, 1] = complex(-1e-300, 1e300)
    return {
        "specials": specials,
        "real": base.real.copy(),
        "fortran": np.asfortranarray(specials),
        "transposed": specials.T,
        "strided": specials[:, ::2],
        "empty_rows": np.zeros((0, 4), dtype=np.complex128),
    }


@pytest.mark.parametrize("name", sorted(_layouts()))
def test_bulk_output_writes_the_same_json_as_the_per_entry_form(name):
    a = _layouts()[name]
    assert json.dumps(matrix_to_obj(a)) == json.dumps(_entrywise_obj(a))


def test_default_tol_is_shared_instance():
    assert numlin.DEFAULT_TOL.verify_atol == 1e-8
