"""Subspace algebra on finite-dimensional complex Hilbert space.

A subspace of C^n is carried by an orthonormal basis (an n-by-d matrix
with orthonormal columns; d = 0 is the trivial subspace and is fully
supported).  On top of that representation this module provides
orthogonal projectors, the directed gap

    delta(M, N) = sup { dist(x, N) : x in M, ||x|| = 1 },

the symmetric gap ``gap_hat(M, N) = max(delta(M, N), delta(N, M))``
(equal to ``||P_M - P_N||``), orthogonal complements, direct-sum tests,
and idempotent (oblique) projectors with prescribed range and kernel.

The directed gap is computed through the exact finite-dimensional
identity ``delta(M, N) = ||(I - P_N) P_M||``; the sup-over-unit-sphere
definition is kept only as a Monte-Carlo cross-check in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numlin import (
    DEFAULT_TOL,
    IllConditionedError,
    ToleranceProfile,
    as_matrix,
    cond,
    matrix_from_obj,
    matrix_to_obj,
    op_norm,
    rank,
    svd,
)

__all__ = [
    "Subspace",
    "ObliqueProjector",
    "from_spanning_set",
    "from_orthonormal",
    "projector",
    "dist",
    "delta",
    "gap_hat",
    "orthogonal_complement",
    "intersection_trivial",
    "direct_sum_is_whole",
    "oblique_projector",
    "complementedness_check",
    "subspace_to_obj",
    "subspace_from_obj",
    "subspace_to_json",
    "subspace_from_json",
]

_ORTHO_ATOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^n, represented by an orthonormal basis.

    ``basis`` has ``ambient_dim`` rows and ``dim`` columns; ``dim`` may be
    zero.  Construction validates orthonormality, so any `Subspace` in
    circulation satisfies ``basis* basis = I``.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        if self.ambient_dim <= 0:
            raise ValueError(f"ambient_dim must be positive, got {self.ambient_dim}")
        if b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis has {b.shape[0]} rows, expected ambient_dim={self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise ValueError(
                f"dimension {b.shape[1]} exceeds ambient dimension {self.ambient_dim}"
            )
        if b.shape[1]:
            residual = b.conj().T @ b - np.eye(b.shape[1])
            # ||.||_2 <= ||.||_F, so a Frobenius pass accepts only what the
            # spectral test accepts; anything else gets the exact test.
            if np.linalg.norm(residual) > _ORTHO_ATOL and op_norm(residual) > _ORTHO_ATOL:
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ObliqueProjector:
    """An idempotent matrix with prescribed range and null space."""

    matrix: np.ndarray
    range_space: Subspace
    null_space: Subspace


def from_orthonormal(basis) -> Subspace:
    """Wrap an already-orthonormal basis (validated) as a Subspace."""
    b = as_matrix(basis)
    return Subspace(ambient_dim=b.shape[0], basis=b)


def from_spanning_set(vectors, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Column span of ``vectors`` as a Subspace.

    The basis comes from the SVD of the input, truncated at the shared
    rank threshold, so dependent or zero columns are dropped.
    """
    v = as_matrix(vectors)
    f = svd(v)
    return Subspace(ambient_dim=v.shape[0], basis=f.left_vectors[:, : f.rank(tol)])


def projector(v: Subspace) -> np.ndarray:
    """Orthogonal projector onto ``v`` (Hermitian idempotent basis @ basis*)."""
    return v.basis @ v.basis.conj().T


def dist(x, n: Subspace) -> float:
    """Distance from a vector to the subspace: ``||x - P_N x||``."""
    vec = np.asarray(x, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != n.ambient_dim:
        raise ValueError(f"vector has length {vec.shape[0]}, ambient is {n.ambient_dim}")
    return float(np.linalg.norm(vec - n.basis @ (n.basis.conj().T @ vec)))


def _check_same_ambient(m: Subspace, n: Subspace):
    if m.ambient_dim != n.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {m.ambient_dim} vs {n.ambient_dim}"
        )


def delta(m: Subspace, n: Subspace) -> float:
    """Directed gap from M to N, ``||(I - P_N) P_M||``; 0 for trivial M."""
    _check_same_ambient(m, n)
    if m.dim == 0:
        return 0.0
    # (I - P_N) B_M has the same nonzero singular values as (I - P_N) P_M.
    residual = m.basis - n.basis @ (n.basis.conj().T @ m.basis)
    return op_norm(residual)


def gap_hat(m: Subspace, n: Subspace) -> float:
    """Symmetric gap ``||P_M - P_N||`` = max of the two directed gaps."""
    _check_same_ambient(m, n)
    return op_norm(projector(m) - projector(n))


def orthogonal_complement(v: Subspace) -> Subspace:
    """Orthogonal complement; dims add up to the ambient dimension."""
    d = v.dim
    if d == 0:
        return Subspace(v.ambient_dim, np.eye(v.ambient_dim, dtype=np.complex128))
    f = svd(v.basis)
    return Subspace(v.ambient_dim, f.left_vectors[:, d:])


def intersection_trivial(
    m: Subspace, n: Subspace, tol: ToleranceProfile = DEFAULT_TOL
) -> bool:
    """True iff M and N meet only in the zero vector.

    Tested via rank of the concatenated bases: the intersection is trivial
    exactly when the columns of [B_M | B_N] are independent.
    """
    _check_same_ambient(m, n)
    if m.dim == 0 or n.dim == 0:
        return True
    if m.dim + n.dim > m.ambient_dim:
        return False
    stacked = np.hstack([m.basis, n.basis])
    return rank(stacked, tol) == m.dim + n.dim


def direct_sum_is_whole(
    m: Subspace, n: Subspace, tol: ToleranceProfile = DEFAULT_TOL
) -> bool:
    """True iff M + N is the whole space with trivial intersection."""
    _check_same_ambient(m, n)
    if m.dim + n.dim != m.ambient_dim:
        return False
    return intersection_trivial(m, n, tol)


def oblique_projector(
    range_space: Subspace,
    null_space: Subspace,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ObliqueProjector:
    """Idempotent P with range ``range_space`` and kernel ``null_space``.

    Requires the two subspaces to split the whole space; the projector is
    built as ``U (W* U)^{-1} W*`` with U a basis of the range and W a
    basis of the kernel's orthogonal complement.
    """
    _check_same_ambient(range_space, null_space)
    if not direct_sum_is_whole(range_space, null_space, tol):
        raise ValueError(
            "range and null space do not form a direct sum of the whole space"
        )
    n = range_space.ambient_dim
    if range_space.dim == 0:
        return ObliqueProjector(
            np.zeros((n, n), dtype=np.complex128), range_space, null_space
        )
    u = range_space.basis
    w = orthogonal_complement(null_space).basis
    middle = w.conj().T @ u
    c = cond(middle)
    if not c <= tol.cond_cap:
        raise IllConditionedError(
            f"oblique projector middle matrix has condition number {c:.3e}",
            condition=c,
        )
    p = u @ np.linalg.solve(middle, w.conj().T)
    return ObliqueProjector(p, range_space, null_space)


def complementedness_check(
    p: ObliqueProjector, m_prime: Subspace, tol: ToleranceProfile = DEFAULT_TOL
) -> bool:
    """Whether ``range(I - P)`` and M' split the whole space.

    When ``gap_hat(range(P), M') < 1 / (1 + ||P||)`` this is guaranteed to
    be true; callers checking that guarantee evaluate the gap themselves.
    """
    _check_same_ambient(p.range_space, m_prime)
    eye = np.eye(p.range_space.ambient_dim, dtype=np.complex128)
    residual_range = from_spanning_set(eye - p.matrix, tol)
    return direct_sum_is_whole(residual_range, m_prime, tol)


# ---------------------------------------------------------------------------
# JSON wire format: {"ambient_dim": n, "basis": <matrix object>}
# ---------------------------------------------------------------------------


def subspace_to_obj(v: Subspace) -> dict:
    return {"ambient_dim": v.ambient_dim, "basis": matrix_to_obj(v.basis)}


def subspace_from_obj(obj: dict, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Load a subspace, re-orthonormalizing the stored basis.

    Rejects input whose numerical rank differs from the declared column
    count (the serialized basis must actually span what it claims).
    """
    try:
        ambient = int(obj["ambient_dim"])
        basis = matrix_from_obj(obj["basis"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed subspace object: {exc}") from exc
    if basis.shape[0] != ambient:
        raise ValueError(
            f"basis has {basis.shape[0]} rows, declared ambient_dim is {ambient}"
        )
    span = from_spanning_set(basis, tol)
    if span.dim != basis.shape[1]:
        raise ValueError(
            f"declared {basis.shape[1]} basis columns but their span has "
            f"dimension {span.dim}"
        )
    return span


def subspace_to_json(v: Subspace) -> str:
    return json.dumps(subspace_to_obj(v))


def subspace_from_json(text: str, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    return subspace_from_obj(json.loads(text), tol)
