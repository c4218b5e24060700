"""Subspace algebra: gaps, complements, direct sums, oblique projectors."""

import math

import numpy as np
import pytest

from outerinv import subspace as ss
from outerinv.numlin import IllConditionedError, op_norm
from outerinv.instance_gen import random_subspace

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
            ss.Subspace(2, np.array([[1.0], [1.0]]))


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
        assert ss.Subspace(6, b).dim == 4

    def test_rejects_above_tolerance_in_spectral_norm(self, rng):
        atol = ss._ORTHO_ATOL
        b = self.scaled_basis(rng, 6, 4, [0.0, 0.0, 0.0, 3.0 * atol])
        residual = b.conj().T @ b - np.eye(4)
        assert op_norm(residual) > atol
        with pytest.raises(ValueError, match="orthonormal"):
            ss.Subspace(6, b)

    def test_random_decisions_match_spectral_test(self, rng):
        atol = ss._ORTHO_ATOL
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            b = self.scaled_basis(rng, 5, dim, rng.uniform(-2.0, 2.0, dim) * atol)
            spectral_ok = op_norm(b.conj().T @ b - np.eye(dim)) <= atol
            try:
                ss.Subspace(5, b)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == spectral_ok


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
        trivial = ss.Subspace(2, np.zeros((2, 0), dtype=complex))
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
        trivial = ss.Subspace(3, np.zeros((3, 0), dtype=complex))
        assert ss.orthogonal_complement(trivial).dim == 3

    def test_dims_and_gram(self, rng):
        sub = random_subspace(5, 2, rng)
        comp = ss.orthogonal_complement(sub)
        assert sub.dim + comp.dim == 5
        assert op_norm(sub.basis.conj().T @ comp.basis) < 1e-12


class TestDirectSum:
    def test_orthogonal_lines(self):
        assert ss.intersection_trivial(line(1, 0), line(0, 1))
        assert ss.direct_sum_is_whole(line(1, 0), line(0, 1))

    def test_self_intersection(self, rng):
        sub = random_subspace(4, 2, rng)
        assert not ss.intersection_trivial(sub, sub)

    def test_generic_2_plus_2_in_5(self, rng):
        for _ in range(20):
            assert ss.intersection_trivial(
                random_subspace(5, 2, rng), random_subspace(5, 2, rng)
            )

    def test_oblique_pair_spans_plane(self):
        assert ss.direct_sum_is_whole(line(1, 0), line(1, 1))

    def test_repeated_line_fails(self):
        assert not ss.direct_sum_is_whole(line(1, 0), line(1, 0))


class TestObliqueProjector:
    def test_orthogonal_case(self):
        p = ss.oblique_projector(line(1, 0), line(0, 1))
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]))

    def test_prescribed_range_and_kernel(self):
        # Solving P e1 = e1, P (e1 + e2) = 0 fixes P = [[1, -1], [0, 0]].
        p = ss.oblique_projector(line(1, 0), line(1, 1))
        assert np.allclose(p.matrix, [[1.0, -1.0], [0.0, 0.0]], atol=1e-12)

    def test_idempotent_and_actions(self, rng):
        for _ in range(20):
            m = random_subspace(6, 3, rng)
            comp = ss.orthogonal_complement(m)
            # Tilt the complement a bit so the pair is genuinely oblique.
            tilt = ss.from_spanning_set(comp.basis + 0.3 * complex_gaussian(rng, (6, 3)))
            if not ss.direct_sum_is_whole(m, tilt):
                continue
            p = ss.oblique_projector(m, tilt)
            pm = p.matrix
            assert op_norm(pm @ pm - pm) <= 1e-8 * (1.0 + op_norm(pm))
            assert op_norm(pm @ m.basis - m.basis) < 1e-8
            assert op_norm(pm @ tilt.basis) < 1e-8

    def test_complementary_projectors_sum_to_identity(self, rng):
        m = random_subspace(5, 2, rng)
        n = ss.from_spanning_set(
            ss.orthogonal_complement(m).basis + 0.2 * complex_gaussian(rng, (5, 3))
        )
        p = ss.oblique_projector(m, n).matrix
        q = ss.oblique_projector(n, m).matrix
        assert op_norm(p + q - np.eye(5)) < 1e-8

    def test_rejects_non_direct_sum(self, rng):
        sub = random_subspace(4, 2, rng)
        with pytest.raises(ValueError, match="direct sum"):
            ss.oblique_projector(sub, sub)

    def test_ill_conditioned_pair_rejected(self):
        # Null space almost touching the range in one direction: the middle
        # matrix W*U picks up the 1e13 condition number and must be refused.
        e = np.eye(4, dtype=complex)
        null = ss.from_spanning_set(np.stack([e[:, 1] + 1e-13 * e[:, 2], e[:, 3]], axis=1))
        range_space = ss.from_spanning_set(e[:, :2])
        with pytest.raises(IllConditionedError):
            ss.oblique_projector(range_space, null)


class TestComplementedness:
    def test_same_subspace(self, rng):
        m = random_subspace(5, 2, rng)
        n = ss.from_spanning_set(
            ss.orthogonal_complement(m).basis + 0.2 * complex_gaussian(rng, (5, 3))
        )
        p = ss.oblique_projector(m, n)
        assert ss.complementedness_check(p, m)

    def test_guarantee_under_gap_hypothesis(self, rng):
        # Whenever gap_hat(range P, M') < 1 / (1 + ||P||), the complement of
        # the range must still split the space with M'.
        from outerinv.instance_gen import perturb_subspace_exact_gap

        hits = 0
        for _ in range(100):
            m = random_subspace(6, 3, rng)
            n = ss.from_spanning_set(
                ss.orthogonal_complement(m).basis + 0.2 * complex_gaussian(rng, (6, 3))
            )
            if not ss.direct_sum_is_whole(m, n):
                continue
            p = ss.oblique_projector(m, n)
            threshold = 1.0 / (1.0 + op_norm(p.matrix))
            theta = math.asin(0.9 * threshold)
            m_prime = perturb_subspace_exact_gap(m, theta, rng)
            assert ss.gap_hat(m, m_prime) < threshold
            assert ss.complementedness_check(p, m_prime)
            hits += 1
        assert hits > 50

    def test_hypothesis_gate_reported_independently(self, rng):
        m = random_subspace(4, 2, rng)
        n = ss.from_spanning_set(
            ss.orthogonal_complement(m).basis + 0.1 * complex_gaussian(rng, (4, 2))
        )
        p = ss.oblique_projector(m, n)
        far = random_subspace(4, 2, np.random.default_rng(5))
        gap = ss.gap_hat(m, far)
        hypothesis_met = gap < 1.0 / (1.0 + op_norm(p.matrix))
        result = ss.complementedness_check(p, far)
        # The check still reports a result when the hypothesis fails; only
        # under the hypothesis is a True result guaranteed.
        assert isinstance(result, bool)
        if hypothesis_met:
            assert result


class TestSerialization:
    def test_round_trip(self, rng):
        sub = random_subspace(5, 3, rng)
        back = ss.subspace_from_json(ss.subspace_to_json(sub))
        assert back.ambient_dim == 5 and back.dim == 3
        assert ss.gap_hat(sub, back) < 1e-12

    def test_dim_zero_round_trip(self):
        trivial = ss.Subspace(4, np.zeros((4, 0), dtype=complex))
        back = ss.subspace_from_json(ss.subspace_to_json(trivial))
        assert back.dim == 0 and back.ambient_dim == 4

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

    def test_loader_reorthonormalizes(self):
        obj = {
            "ambient_dim": 2,
            "basis": {"rows": 2, "cols": 1, "entries": [[3.0, 0.0], [4.0, 0.0]]},
        }
        sub = ss.subspace_from_obj(obj)
        assert abs(np.linalg.norm(sub.basis[:, 0]) - 1.0) < 1e-12
