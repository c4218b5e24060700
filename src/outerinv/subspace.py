"""Subspace algebra on finite-dimensional complex Hilbert space.

A subspace of C^n is carried by an orthonormal basis (an n-by-d matrix
with orthonormal columns; d = 0 is the trivial subspace and is fully
supported).  On top of that representation this module provides
orthogonal projectors, the directed gap

    delta(M, N) = sup { dist(x, N) : x in M, ||x|| = 1 },

the symmetric gap ``gap_hat(M, N) = max(delta(M, N), delta(N, M))``
(equal to ``||P_M - P_N||``), orthogonal complements and an
intersection test.

The directed gap is computed through the exact finite-dimensional
identity ``delta(M, N) = ||(I - P_N) P_M||``, as the largest singular
value of the n-by-dim(M) residual ``(I - P_N) B_M``; the
sup-over-unit-sphere definition is kept only as a Monte-Carlo
cross-check in the test suite.  For subspaces of equal dimension the two
directed gaps are equal (both are the sine of the largest principal
angle), and for unequal dimensions the symmetric gap is 1, so
:func:`gap_hat` reads one directed gap and never forms an n-by-n
projector difference (Kato, *Perturbation Theory for Linear Operators*,
IV §2; Stewart and Sun, *Matrix Perturbation Theory*, I §5).

A basis is validated where it enters: ``Subspace(basis)`` checks that it
is finite and orthonormal, and :func:`subspace_from_obj` that it is
finite and of full column rank (the stored basis is re-orthonormalized).
Bases the package makes orthonormal by construction -- QR factors, SVD
columns, the cached orthogonal complement and the plane rotation of
:func:`~outerinv.instance_gen.perturb_subspace_exact_gap` -- are wrapped
by the private ``Subspace._trusted`` and not checked again.  Either way
the subspace owns its basis and the basis is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numlin import (
    CERT_MARGIN,
    DEFAULT_TOL,
    SvdFactors,
    ToleranceProfile,
    _wire_size,
    as_matrix,
    matrix_from_obj,
    matrix_to_obj,
    op_norm,
    rank,
    svd,
)

__all__ = [
    "Subspace",
    "from_spanning_set",
    "projector",
    "dist",
    "delta",
    "gap_hat",
    "orthogonal_complement",
    "intersection_trivial",
    "trivial_at_cosine",
    "subspace_to_obj",
    "subspace_from_obj",
]

_ORTHO_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace of C^n, represented by an orthonormal basis.

    ``basis``, the one stored field, is an n-by-d matrix with
    ``basis* basis = I``; n = ``ambient_dim`` is at least one and d =
    ``dim`` may be zero.  The subspace owns its basis and the basis is
    read-only.  The public constructor checks the basis (2-d, at least
    one row, finite entries, orthonormal columns) and stores a read-only
    copy, leaving the caller's array as it was; the package's own
    producers, whose bases are orthonormal by construction (QR, SVD
    columns), build through :meth:`_trusted` without the check.
    Equality and hashing are by identity.  The orthogonal complement is
    computed at most once per instance (see :func:`orthogonal_complement`).
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        if b.shape[0] == 0:
            raise ValueError("basis must have at least one row")
        if b.shape[1]:
            residual = b.conj().T @ b - np.eye(b.shape[1])
            # ||.||_2 <= ||.||_F, so a Frobenius pass accepts only what the
            # spectral test accepts; anything else gets the exact test.
            if np.linalg.norm(residual) > _ORTHO_ATOL and op_norm(residual) > _ORTHO_ATOL:
                raise ValueError("basis columns are not orthonormal")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @classmethod
    def _trusted(cls, basis: np.ndarray) -> "Subspace":
        """The subspace spanned by ``basis``, a 2-d complex128 array with
        orthonormal columns by construction (a QR factor, SVD columns);
        nothing is checked.  For the package's own producers only.

        The subspace takes ownership: a view (such as a column slice of a
        full singular-vector matrix) is copied, so the subspace never pins
        the larger array, and the basis is made read-only.
        """
        if basis.base is not None:
            basis = basis.copy()
        basis.flags.writeable = False
        v = object.__new__(cls)
        object.__setattr__(v, "basis", basis)
        return v

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _complement(self) -> "Subspace":
        # Computed on the first orthogonal_complement() call and kept;
        # from_spanning_set stores its own instead.
        d = self.dim
        if d == 0:
            return Subspace._trusted(np.eye(self.ambient_dim, dtype=np.complex128))
        return Subspace._trusted(svd(self.basis).left_vectors[:, d:])


def from_spanning_set(vectors, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Column span of ``vectors`` as a Subspace.

    The basis comes from the SVD of the input, truncated at the shared
    rank threshold, so dependent or zero columns are dropped.  The
    trailing left singular vectors of the same SVD, an orthonormal basis
    of what the kept ones leave out, are stored as the subspace's
    orthogonal complement, so :func:`orthogonal_complement` of a span
    factors nothing more.
    """
    f = svd(vectors)
    return _span_from_svd(f, f.rank(tol))


def _span_from_svd(f: SvdFactors, r: int) -> Subspace:
    """The span of the first ``r`` left singular vectors; the rest are its complement."""
    span = Subspace._trusted(f.left_vectors[:, :r])
    # Where the cached property _complement would store its value.
    span.__dict__["_complement"] = Subspace._trusted(f.left_vectors[:, r:])
    return span


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
    """Symmetric gap ``||P_M - P_N||`` = max of the two directed gaps.

    Exactly 1.0 when the dimensions differ, exactly 0.0 when the bases are
    identical arrays (as ``P - P`` is), and otherwise ``delta(M, N)``,
    which equals ``delta(N, M)`` at equal dimension.
    """
    _check_same_ambient(m, n)
    if m.dim != n.dim:
        return 1.0
    if np.array_equal(m.basis, n.basis):
        return 0.0
    return delta(m, n)


def orthogonal_complement(v: Subspace) -> Subspace:
    """Orthogonal complement; dims add up to the ambient dimension.

    Its basis is trailing left singular vectors.  A subspace from
    :func:`from_spanning_set` (a loaded one too) carries those of the SVD
    that built it.  Any other subspace takes those of ``v.basis``, whose
    SVD runs on the first call for ``v``.  Every later call returns the
    same subspace, whose basis is read-only.
    """
    return v._complement


def intersection_trivial(
    m: Subspace, n: Subspace, tol: ToleranceProfile = DEFAULT_TOL
) -> bool:
    """True iff M and N meet only in the zero vector.

    Tested via rank of the concatenated bases: the intersection is trivial
    exactly when the columns of [B_M | B_N] are independent.  The largest
    principal cosine ``||B_M* B_N||`` (a d1-by-d2 SVD instead of the
    n-by-(d1+d2) one) settles it first when :func:`trivial_at_cosine`
    can; only otherwise does the rank decide.
    """
    _check_same_ambient(m, n)
    if m.dim == 0 or n.dim == 0:
        return True
    if m.dim + n.dim > m.ambient_dim:
        return False
    rtol = tol.effective_rank_rtol((m.ambient_dim, m.dim + n.dim))
    if trivial_at_cosine(op_norm(m.basis.conj().T @ n.basis), rtol):
        return True
    return rank(np.hstack([m.basis, n.basis]), tol) == m.dim + n.dim


def trivial_at_cosine(c: float, rtol: float) -> bool:
    """Whether two subspaces with largest principal cosine at most ``c`` pass
    the rank test of :func:`intersection_trivial` at relative threshold ``rtol``.

    For orthonormal bases (``||B* B - I|| <= _ORTHO_ATOL``) the stacked
    matrix ``[B_M | B_N]`` has ``sigma_min^2 >= 1 - c - _ORTHO_ATOL`` and
    ``sigma_max^2 <= 1 + c + _ORTHO_ATOL``, so ``sigma_min > rtol *
    sigma_max`` is proved when this returns True.  False means only that
    the bound cannot tell.
    """
    slack = _ORTHO_ATOL + CERT_MARGIN
    return 1.0 - c - slack > rtol**2 * (1.0 + c + slack) * (1.0 + 1e-6)


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
        ambient = _wire_size(obj["ambient_dim"], "subspace", "ambient_dim")
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
