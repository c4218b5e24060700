"""Subspace algebra: gaps, complements, direct sums, the wire format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerinv import subspace as ss
from outerinv.numlin import ToleranceProfile, op_norm, rank
from outerinv.instance_gen import perturb_subspace_exact_gap, random_subspace

from helpers import complex_gaussian, line


def sampled_sup_dist(m_sub, n_sub, rng, samples=20000):
    """Monte-Carlo version of the directed gap: max distance over random
    unit vectors of M.  Stays independent of the projector-norm route."""
    coeffs = complex_gaussian(rng, (m_sub.dim, samples))
    coeffs /= np.linalg.norm(coeffs, axis=0)
    x = m_sub.basis @ coeffs
    residual = x - n_sub.basis @ (n_sub.basis.conj().T @ x)
    return float(np.max(np.linalg.norm(residual, axis=0)))


class TestConstruction:
    def test_dependent_columns(self):
        v = np.array([[1.0, 2.0], [0.0, 0.0]])
        sub = ss.from_spanning_set(v)
        assert sub.dim == 1
        assert abs(abs(sub.basis[0, 0]) - 1.0) < 1e-12

    def test_zero_matrix(self):
        assert ss.from_spanning_set(np.zeros((3, 2))).dim == 0

    def test_full_rank_orthonormal(self, rng):
        sub = ss.from_spanning_set(complex_gaussian(rng, (5, 3)))
        assert sub.dim == 3
        gram = sub.basis.conj().T @ sub.basis
        assert op_norm(gram - np.eye(3)) < 1e-12

    def test_rejects_nonorthonormal_direct(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ss.Subspace(np.array([[1.0], [1.0]]))


class TestOrthonormalityCheck:
    """The Frobenius pass decides exactly as the spectral test would."""

    @staticmethod
    def scaled_basis(rng, ambient, dim, excess):
        # Column j scaled by sqrt(1 + excess[j]): Gram residual diag(excess).
        q, _ = np.linalg.qr(complex_gaussian(rng, (ambient, dim)))
        return q * np.sqrt(1.0 + np.asarray(excess))

    def test_accepts_below_tolerance_in_spectral_norm_only(self, rng):
        atol = ss._ORTHO_ATOL
        b = self.scaled_basis(rng, 6, 4, [0.9 * atol] * 4)
        residual = b.conj().T @ b - np.eye(4)
        assert np.linalg.norm(residual) > atol >= op_norm(residual)
        assert ss.Subspace(b).dim == 4

    def test_rejects_above_tolerance_in_spectral_norm(self, rng):
        atol = ss._ORTHO_ATOL
        b = self.scaled_basis(rng, 6, 4, [0.0, 0.0, 0.0, 3.0 * atol])
        residual = b.conj().T @ b - np.eye(4)
        assert op_norm(residual) > atol
        with pytest.raises(ValueError, match="orthonormal"):
            ss.Subspace(b)

    def test_random_decisions_match_spectral_test(self, rng):
        atol = ss._ORTHO_ATOL
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            b = self.scaled_basis(rng, 5, dim, rng.uniform(-2.0, 2.0, dim) * atol)
            spectral_ok = op_norm(b.conj().T @ b - np.eye(dim)) <= atol
            try:
                ss.Subspace(b)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == spectral_ok


def exact_intersection_trivial(m_sub, n_sub, tol):
    """The rank test alone: independent columns of [B_M | B_N]."""
    if m_sub.dim == 0 or n_sub.dim == 0:
        return True
    if m_sub.dim + n_sub.dim > m_sub.ambient_dim:
        return False
    return rank(np.hstack([m_sub.basis, n_sub.basis]), tol) == m_sub.dim + n_sub.dim


def pair_at_angle(rng, ambient, theta):
    """M = span(q0, q1) and N = span(cos(theta) q0 + sin(theta) q2, q3):
    principal angles theta and pi/2."""
    q, _ = np.linalg.qr(complex_gaussian(rng, (ambient, ambient)))
    m_sub = ss.Subspace(q[:, :2])
    tilted = math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 2]
    return m_sub, ss.Subspace(np.column_stack([tilted, q[:, 3]]))


class TestIntersectionCertificate:
    """The principal-cosine certificate answers as the rank test does."""

    @pytest.fixture
    def rank_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return rank(*args, **kwargs)

        monkeypatch.setattr(ss, "rank", counted)
        return calls

    @pytest.mark.parametrize(
        "theta, certified", [(1e-4, True), (1e-8, False), (1e-13, False), (0.0, False)]
    )
    def test_small_principal_angles(self, rng, rank_calls, theta, certified):
        m_sub, n_sub = pair_at_angle(rng, 6, theta)
        tol = ToleranceProfile()
        assert ss.intersection_trivial(m_sub, n_sub, tol) == exact_intersection_trivial(
            m_sub, n_sub, tol
        )
        assert ss.intersection_trivial(m_sub, n_sub, tol) == (theta > 0.0)
        assert bool(rank_calls) != certified

    @pytest.mark.parametrize(
        "cosine, certified, expected",
        # rank_rtol = 0.5 accepts exactly (1 - c) / (1 + c) > 1/4, i.e. c < 0.6.
        [(0.5, True, True), (0.6 - 1e-8, False, True), (0.6 + 1e-8, False, False), (0.7, False, False)],
    )
    def test_loose_rank_threshold(self, rng, rank_calls, cosine, certified, expected):
        m_sub, n_sub = pair_at_angle(rng, 5, math.acos(cosine))
        tol = ToleranceProfile(rank_rtol=0.5)
        assert ss.intersection_trivial(m_sub, n_sub, tol) is expected
        assert exact_intersection_trivial(m_sub, n_sub, tol) is expected
        assert bool(rank_calls) != certified

    @pytest.mark.parametrize("rank_rtol", [None, 1e-3, 0.5])
    def test_random_decisions_match_the_rank_test(self, rng, rank_calls, rank_rtol):
        tol = ToleranceProfile(rank_rtol=rank_rtol)
        for _ in range(300):
            ambient = int(rng.integers(2, 9))
            d1, d2 = (int(d) for d in rng.integers(1, ambient, size=2))
            m_sub = random_subspace(ambient, d1, rng)
            n_sub = random_subspace(ambient, d2, rng)
            if rng.random() < 0.5 and d1 + d2 <= ambient:
                # Tilt N's first vector toward M by a random, often tiny, angle.
                theta = 10.0 ** rng.uniform(-15, 0)
                target = m_sub.basis[:, 0]
                first = n_sub.basis[:, 0]
                first = first - m_sub.basis @ (m_sub.basis.conj().T @ first)
                first -= n_sub.basis[:, 1:] @ (n_sub.basis[:, 1:].conj().T @ first)
                if np.linalg.norm(first) < 1e-6:
                    continue
                first /= np.linalg.norm(first)
                basis = n_sub.basis.copy()
                basis[:, 0] = math.sin(theta) * first + math.cos(theta) * target
                n_sub = ss.from_spanning_set(basis)
            expected = exact_intersection_trivial(m_sub, n_sub, tol)
            assert ss.intersection_trivial(m_sub, n_sub, tol) == expected
        assert rank_calls  # some draws were left to the rank test


class TestProjector:
    def test_axis_line(self):
        assert np.allclose(ss.projector(line(1, 0)), np.diag([1.0, 0.0]))

    def test_full_space(self, rng):
        sub = random_subspace(4, 4, rng)
        assert np.allclose(ss.projector(sub), np.eye(4), atol=1e-12)

    def test_diagonal_line(self):
        p = ss.projector(line(1, 1))
        assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]])

    def test_hermitian_idempotent(self, rng):
        sub = random_subspace(6, 3, rng)
        p = ss.projector(sub)
        assert op_norm(p - p.conj().T) < 1e-12
        assert op_norm(p @ p - p) < 1e-12


class TestDist:
    def test_inside(self):
        assert ss.dist([1, 0], line(1, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal(self):
        assert ss.dist([1, 0], line(0, 1)) == pytest.approx(1.0)

    def test_projection_residual(self):
        assert ss.dist([1, 1], line(1, 0)) == pytest.approx(1.0)


class TestGaps:
    def test_delta_trivial_subspace(self):
        trivial = ss.Subspace(np.zeros((2, 0), dtype=complex))
        assert ss.delta(trivial, line(1, 0)) == 0.0

    def test_delta_self(self, rng):
        sub = random_subspace(5, 2, rng)
        assert ss.delta(sub, sub) < 1e-14

    def test_delta_rotated_line(self):
        # sup over the unit circle of M of the residual against e1 is sin(pi/6).
        th = math.pi / 6
        m = line(math.cos(th), math.sin(th))
        assert ss.delta(m, line(1, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_gap_hat_self(self, rng):
        sub = random_subspace(4, 2, rng)
        assert ss.gap_hat(sub, sub) == 0.0

    def test_gap_hat_orthogonal_lines(self):
        assert ss.gap_hat(line(1, 0), line(0, 1)) == pytest.approx(1.0)

    def test_gap_hat_rotated_line(self):
        th = math.pi / 6
        assert ss.gap_hat(line(1, 0), line(math.cos(th), math.sin(th))) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_delta_zero_iff_contained(self, rng):
        big = random_subspace(6, 4, rng)
        inside = ss.from_spanning_set(big.basis[:, :2])
        assert ss.delta(inside, big) < 1e-12
        assert all(ss.dist(inside.basis[:, j], big) < 1e-8 for j in range(inside.dim))
        assert ss.delta(big, inside) > 0.5

    def test_gap_hat_zero_iff_equal_and_symmetric(self, rng):
        for _ in range(20):
            m = random_subspace(5, int(rng.integers(0, 6)), rng)
            n = random_subspace(5, int(rng.integers(0, 6)), rng)
            g_mn = ss.gap_hat(m, n)
            g_nm = ss.gap_hat(n, m)
            assert g_mn == pytest.approx(g_nm, abs=1e-14)
            if g_mn < 1e-12:
                assert op_norm(ss.projector(m) - ss.projector(n)) < 1e-12

    def test_range_bounds(self, rng):
        for _ in range(50):
            m = random_subspace(6, int(rng.integers(0, 7)), rng)
            n = random_subspace(6, int(rng.integers(0, 7)), rng)
            assert -1e-12 <= ss.delta(m, n) <= 1.0 + 1e-8
            assert -1e-12 <= ss.gap_hat(m, n) <= 1.0 + 1e-8

    def test_gap_hat_matches_the_projector_difference(self, rng):
        # The definition ||P_M - P_N|| on pairs of every kind gap_hat tells apart.
        def definition(m, n):
            return op_norm(ss.projector(m) - ss.projector(n))

        for _ in range(40):
            ambient = int(rng.integers(2, 9))
            d = int(rng.integers(1, ambient))
            m = random_subspace(ambient, d, rng)
            near = perturb_subspace_exact_gap(m, float(rng.uniform(0.0, 1e-3)), rng)
            q, _ = np.linalg.qr(complex_gaussian(rng, (d, d)))
            rotated = ss.Subspace(m.basis @ q)
            for n in (random_subspace(ambient, d, rng), near, rotated):
                assert abs(ss.gap_hat(m, n) - definition(m, n)) <= 1e-14
                assert abs(ss.gap_hat(n, m) - definition(n, m)) <= 1e-14
            other = random_subspace(ambient, int(rng.integers(0, ambient + 1)), rng)
            if other.dim != d:
                assert ss.gap_hat(m, other) == 1.0
                assert abs(definition(m, other) - 1.0) <= 1e-14
            assert ss.gap_hat(m, m) == 0.0
            assert ss.gap_hat(m, ss.Subspace(m.basis)) == 0.0
            assert definition(m, m) == 0.0

    def test_gap_hat_equals_max_of_directed(self, rng):
        for _ in range(100):
            m = random_subspace(6, int(rng.integers(1, 6)), rng)
            n = random_subspace(6, int(rng.integers(1, 6)), rng)
            lhs = ss.gap_hat(m, n)
            rhs = max(ss.delta(m, n), ss.delta(n, m))
            assert abs(lhs - rhs) <= 1e-10

    def test_delta_matches_sampled_sup(self, rng):
        # Monte-Carlo cross-check of the projector-norm formula against the
        # sup definition; convergence dictates low subspace dimension.
        for ambient in (2, 4, 6):
            for _ in range(10):
                d_m = int(rng.integers(1, 3))
                m = random_subspace(ambient, min(d_m, ambient - 1), rng)
                n = random_subspace(ambient, int(rng.integers(1, ambient)), rng)
                exact = ss.delta(m, n)
                sampled = sampled_sup_dist(m, n, rng)
                assert sampled <= exact + 1e-10
                assert exact - sampled <= 1e-3


class TestComplement:
    def test_line(self):
        comp = ss.orthogonal_complement(line(1, 0))
        assert comp.dim == 1
        assert abs(abs(comp.basis[1, 0]) - 1.0) < 1e-12

    def test_trivial(self):
        trivial = ss.Subspace(np.zeros((3, 0), dtype=complex))
        assert ss.orthogonal_complement(trivial).dim == 3

    def test_dims_and_gram(self, rng):
        sub = random_subspace(5, 2, rng)
        comp = ss.orthogonal_complement(sub)
        assert sub.dim + comp.dim == 5
        assert op_norm(sub.basis.conj().T @ comp.basis) < 1e-12

    @pytest.mark.parametrize("dim", [0, 2, 5])
    def test_computed_once_and_equal_to_a_fresh_svd(self, rng, dim):
        sub = random_subspace(5, dim, rng)
        comp = ss.orthogonal_complement(sub)
        assert ss.orthogonal_complement(sub) is comp
        fresh = (
            np.linalg.svd(sub.basis)[0][:, dim:] if dim else np.eye(5, dtype=np.complex128)
        )
        assert comp.basis.tobytes() == fresh.tobytes()

    def test_cached_basis_is_read_only(self, rng):
        comp = ss.orthogonal_complement(random_subspace(5, 2, rng))
        with pytest.raises(ValueError, match="read-only"):
            comp.basis[0, 0] = 1.0


class TestDirectSum:
    def test_orthogonal_lines(self):
        assert ss.intersection_trivial(line(1, 0), line(0, 1))

    def test_self_intersection(self, rng):
        sub = random_subspace(4, 2, rng)
        assert not ss.intersection_trivial(sub, sub)

    def test_generic_2_plus_2_in_5(self, rng):
        for _ in range(20):
            assert ss.intersection_trivial(
                random_subspace(5, 2, rng), random_subspace(5, 2, rng)
            )

    def test_oblique_pair_spans_plane(self):
        # Two lines in C^2 whose intersection is trivial split the plane.
        assert ss.intersection_trivial(line(1, 0), line(1, 1))

    def test_repeated_line_fails(self):
        assert not ss.intersection_trivial(line(1, 0), line(1, 0))


class TestSerialization:
    def test_round_trip(self, rng):
        sub = random_subspace(5, 3, rng)
        back = ss.subspace_from_obj(json.loads(json.dumps(ss.subspace_to_obj(sub))))
        assert back.ambient_dim == 5 and back.dim == 3
        assert ss.gap_hat(sub, back) < 1e-12

    def test_dim_zero_round_trip(self):
        trivial = ss.Subspace(np.zeros((4, 0), dtype=complex))
        back = ss.subspace_from_obj(json.loads(json.dumps(ss.subspace_to_obj(trivial))))
        assert back.dim == 0 and back.ambient_dim == 4

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_any_orthonormal_basis_round_trips(self, data):
        n = data.draw(st.integers(1, 8), label="ambient_dim")
        d = data.draw(st.integers(0, n), label="dim")
        sub = random_subspace(n, d, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        back = ss.subspace_from_obj(json.loads(json.dumps(ss.subspace_to_obj(sub))))
        assert back.ambient_dim == n and back.dim == d
        assert ss.gap_hat(sub, back) <= 1e-14

    def test_loader_rejects_rank_deficient_basis(self):
        obj = {
            "ambient_dim": 2,
            "basis": {
                "rows": 2,
                "cols": 2,
                "entries": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            },
        }
        with pytest.raises(ValueError, match="span"):
            ss.subspace_from_obj(obj)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=repr)
    def test_loader_rejects_an_ambient_dim_that_is_not_an_integer(self, value):
        obj = {
            "ambient_dim": value,
            "basis": {"rows": 2, "cols": 1, "entries": [[1.0, 0.0], [0.0, 0.0]]},
        }
        with pytest.raises(ValueError, match="malformed subspace object: ambient_dim is "):
            ss.subspace_from_obj(json.loads(json.dumps(obj)))

    def test_loader_reorthonormalizes(self):
        obj = {
            "ambient_dim": 2,
            "basis": {"rows": 2, "cols": 1, "entries": [[3.0, 0.0], [4.0, 0.0]]},
        }
        sub = ss.subspace_from_obj(obj)
        assert abs(np.linalg.norm(sub.basis[:, 0]) - 1.0) < 1e-12
