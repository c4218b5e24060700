"""Dense complex matrix kernels.

Everything downstream (subspaces, projectors, generalized inverses,
perturbation formulas) is built on the operations in this module: SVD,
Moore-Penrose pseudoinverse, spectral operator norm, numerical rank and
guarded linear solves.  All matrices are dense ``complex128`` NumPy arrays;
real input is accepted and embedded with zero imaginary part.

Every rank decision counts singular values above ``rank_rtol`` times a
scale, by one of three rules:

* a matrix's own rank is relative to its own ``sigma_max``:
  :func:`_rank_from_values`, :func:`pinv`, :func:`rank`,
  ``outer_inverse.kernel`` and the subspace machinery;
* a matrix built from A -- the existence test's middle matrix and
  ``A B_T``, and ``outer_inverse.image_of``'s ``A B_V`` -- is ranked
  against ``rank_rtol * ||A||_F``, the scale of its rounding;
* the powers ``A^j`` of the Drazin index are ranked against
  ``rank_rtol * ||A||^j``.

Call sites under one rule agree about the rank of a matrix; under
different rules they can disagree near a threshold (at a coarse
``rank_rtol`` the existence test can find N(A) meeting T while
``kernel(A)`` meets T trivially; CHANGES.md records it as a finding).

Yes/no checks are certificate-first: a cheap bound (a Frobenius norm, a
cosine) is tried before the SVD, and it may only *confirm* the answer
the SVD test would give, with a margin far above rounding.  When the
bound cannot decide, the SVD test runs as the only judge, so it alone
ever answers "no".

Finiteness is checked where data enters the package, by
:func:`as_matrix`: the wire format, :class:`~outerinv.outer_inverse.OuterInverseProblem`,
a scenario's E, the public :class:`~outerinv.subspace.Subspace`
constructor and the public entry points that take raw matrices.  The
kernels here only coerce their arguments (dtype and ndim), except that
every array is checked finite right before LAPACK factors it: LAPACK's
SVD with vectors does not return on an infinite entry, and its
values-only SVD prints argument errors.  The certificates need no scan,
because a finite Frobenius norm under a finite threshold proves every
entry finite.  A non-finite array raises :class:`NonFiniteError`, which
is both a ``ValueError`` (the contract for bad input) and a
:class:`NumericalError` (so inside a harness trial it costs one row, not
the campaign).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceProfile",
    "SvdFactors",
    "NumericalError",
    "NonFiniteError",
    "SvdConvergenceError",
    "IllConditionedError",
    "as_matrix",
    "svd",
    "pinv",
    "op_norm",
    "op_norm_at_most",
    "residual_within",
    "rank",
    "solve_square",
    "cond",
    "matrix_to_obj",
    "matrix_from_obj",
    "DEFAULT_TOL",
]


class NumericalError(Exception):
    """Base class for numerical failures in this package."""


class NonFiniteError(ValueError, NumericalError):
    """A matrix had a NaN or infinite entry."""


class SvdConvergenceError(NumericalError):
    """The SVD iteration failed to converge."""


class IllConditionedError(NumericalError):
    """A linear system was rejected as singular or too ill-conditioned.

    Carries the estimated condition number in ``condition``.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical thresholds shared across the package.

    rank_rtol
        Relative singular-value truncation threshold.  ``None`` (the
        default) means ``max(rows, cols) * machine epsilon``, resolved per
        matrix.
    verify_atol
        Absolute residual tolerance for identity checks (Penrose
        residuals, idempotency, orthonormality, ...).
    cond_cap
        Largest condition number accepted by :func:`solve_square` and the
        oracle's middle-matrix inversion.
    """

    rank_rtol: float | None = None
    verify_atol: float = 1e-8
    cond_cap: float = 1e12

    def __post_init__(self):
        if self.rank_rtol is not None and not (0.0 < self.rank_rtol < 1.0):
            raise ValueError(f"rank_rtol must lie in (0, 1), got {self.rank_rtol}")
        if not self.verify_atol > 0.0:
            raise ValueError(f"verify_atol must be positive, got {self.verify_atol}")
        if not self.cond_cap > 0.0:
            raise ValueError(f"cond_cap must be positive, got {self.cond_cap}")

    def effective_rank_rtol(self, shape: tuple[int, int]) -> float:
        if self.rank_rtol is not None:
            return self.rank_rtol
        return max(shape) * np.finfo(np.float64).eps


DEFAULT_TOL = ToleranceProfile()

# Relative margin by which a certificate must clear its threshold.  It is
# far above the rounding of a Frobenius norm or of LAPACK's singular
# values, so a certified answer is the one the SVD test gives.
CERT_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Full SVD ``A = U @ diag(s) @ V.conj().T``.

    ``singular_values`` holds the k = min(m, n) singular values in
    nonincreasing order; ``left_vectors`` is m-by-m unitary and
    ``right_vectors`` n-by-n unitary.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    @property
    def norm(self) -> float:
        """Spectral norm of the factored matrix (0 when it is empty)."""
        s = self.singular_values
        return float(s[0]) if s.size else 0.0

    def rank(self, tol: ToleranceProfile = DEFAULT_TOL) -> int:
        """Numerical rank under the shared truncation rule."""
        shape = (self.left_vectors.shape[0], self.right_vectors.shape[0])
        return _rank_from_values(self.singular_values, shape, tol)

    def pinv(self, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        """Moore-Penrose pseudoinverse of the factored matrix."""
        r = self.rank(tol)
        u_r = self.left_vectors[:, :r]
        v_r = self.right_vectors[:, :r]
        return (v_r / self.singular_values[:r]) @ u_r.conj().T

    def pinv_from_12_inverse(
        self, z: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
    ) -> np.ndarray:
        """Moore-Penrose pseudoinverse from Z, any {1,2}-inverse of the factored A.

        ``P_{N(A)_perp} Z P_{R(A)}``, projecting onto the leading right and
        left singular vectors (the row space and the range of A).
        """
        r = self.rank(tol)
        v_r, u_r = self.right_vectors[:, :r], self.left_vectors[:, :r]
        return v_r @ (v_r.conj().T @ z @ u_r) @ u_r.conj().T

    def pinv_norm(self, tol: ToleranceProfile = DEFAULT_TOL) -> float:
        """``||pinv||``: the reciprocal of the smallest retained singular value."""
        r = self.rank(tol)
        return 1.0 / float(self.singular_values[r - 1]) if r else 0.0


def as_matrix(a) -> np.ndarray:
    """Coerce input to a finite 2-d complex128 array.

    The check for data entering the package; :class:`NonFiniteError` on a
    NaN or infinite entry.
    """
    return _finite(_as_2d(a))


def _as_2d(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix entries must be finite (no NaN/Inf)")
    return m


def svd(a) -> SvdFactors:
    """Full singular value decomposition of a dense complex matrix."""
    m = _finite(_as_2d(a))  # LAPACK does not return on an infinite entry
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            f"SVD did not converge for a {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    return SvdFactors(u, s, vh.conj().T)


def _singular_values(a: np.ndarray) -> np.ndarray:
    _finite(a)  # LAPACK prints argument errors on an infinite entry
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc


def _rank_from_values(s: np.ndarray, shape: tuple[int, int], tol: ToleranceProfile) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.effective_rank_rtol(shape) * s[0]))


def pinv(a, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD truncation.

    The returned B is the unique matrix satisfying the four Penrose
    identities ABA = A, BAB = B, (AB)* = AB, (BA)* = BA, with the rank
    decided by dropping singular values below ``rank_rtol * sigma_max``.
    """
    return svd(a).pinv(tol)


def op_norm(a) -> float:
    """Spectral operator norm (largest singular value)."""
    m = _as_2d(a)
    if not m.any():  # empty or exactly zero: no SVD needed
        return 0.0
    s = _singular_values(m)
    return float(s[0])


def op_norm_at_most(a, limit: float) -> bool:
    """``op_norm(a) <= limit``, with no SVD when ``||a||_F`` settles it.

    ``||a||_2 <= ||a||_F``, so a Frobenius norm below the limit proves
    the spectral test passes; otherwise the spectral test decides.  The
    limit must be finite for the Frobenius pass, which then also proves
    every entry finite.
    """
    m = _as_2d(a)
    return np.linalg.norm(m) <= limit * (1.0 - CERT_MARGIN) < math.inf or op_norm(m) <= limit


def residual_within(r, b, atol: float) -> bool:
    """The residual test ``op_norm(r) <= atol * (1 + op_norm(b))``.

    Certified without an SVD when ``||r||_F <= atol (1 + ||b||_F /
    sqrt(min shape of b))``: the left side bounds ``||r||_2`` from above,
    and ``||b||_F / sqrt(min shape)`` bounds ``||b||_2`` from below.  The
    threshold must be finite, so a NaN or infinite ``b`` always reaches
    the spectral test, which rejects it.
    """
    rm, bm = _as_2d(r), _as_2d(b)
    b_floor = np.linalg.norm(bm) / math.sqrt(min(bm.shape)) if bm.size else 0.0
    if np.linalg.norm(rm) <= atol * (1.0 + b_floor) * (1.0 - CERT_MARGIN) < math.inf:
        return True
    return op_norm(rm) <= atol * (1.0 + op_norm(bm))


def rank(a, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``rank_rtol * sigma_max``."""
    m = _as_2d(a)
    if m.size == 0:
        return 0
    return _rank_from_values(_singular_values(m), m.shape, tol)


def cond(a) -> float:
    """Spectral condition number; ``inf`` for singular or empty input."""
    m = _as_2d(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("condition number is defined here for square matrices only")
    if m.shape[0] == 0:
        return 1.0
    return _cond_from_values(_singular_values(m))


def _cond_from_values(s: np.ndarray) -> float:
    """``s[0] / s[-1]`` of nonincreasing singular values; ``inf`` when the last is 0."""
    if s[-1] == 0.0:
        return math.inf
    return float(s[0] / s[-1])


def solve_square(m, rhs, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Solve M X = rhs for square M, refusing ill-conditioned systems.

    Raises :class:`IllConditionedError` (carrying the condition estimate)
    when ``cond(M) > cond_cap`` or the residual check fails.  ``cond(M)``
    is skipped when ``f = ||M - I||_F < 1`` already caps it: then
    ``cond(M) <= (1 + f) / (1 - f)``, which covers every resolvent
    ``I + K`` with a small ``K``.  Either test proves M finite, and rhs
    is checked before the solve.
    """
    mm = _as_2d(m)
    b = _as_2d(rhs)
    if mm.shape[0] != mm.shape[1]:
        raise ValueError(f"solve_square needs a square matrix, got {mm.shape}")
    if b.shape[0] != mm.shape[0]:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {mm.shape[0]}")
    if mm.shape[0] == 0:
        return np.zeros_like(b)
    if not _cond_capped_near_identity(mm, tol.cond_cap):
        c = cond(mm)
        if not c <= tol.cond_cap:
            raise IllConditionedError(
                f"matrix rejected: condition number {c:.3e} exceeds cap {tol.cond_cap:.3e}",
                condition=c,
            )
    x = np.linalg.solve(mm, _finite(b))
    r = mm @ x - b
    if not residual_within(r, b, tol.verify_atol):
        c = cond(mm)
        raise IllConditionedError(
            f"solve residual {op_norm(r):.3e} exceeds tolerance (condition number {c:.3e})",
            condition=c,
        )
    return x


def _cond_capped_near_identity(m: np.ndarray, cap: float) -> bool:
    # ||M - I||_2 <= f < 1 puts every singular value of M in [1 - f, 1 + f].
    # f carries CERT_MARGIN as an absolute slack: the singular values of M
    # are of order one, so it covers LAPACK's rounding of sigma_min too.
    f = np.linalg.norm(m - np.eye(m.shape[0])) + CERT_MARGIN
    return f < 1.0 and (1.0 + f) / (1.0 - f) <= cap * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# JSON wire format
#
# {"rows": m, "cols": n, "entries": [[re, im], ...]} in row-major order.
# Doubles survive the round trip bit-exactly because Python serializes
# floats with shortest round-trip decimals.  matrix_to_obj gives each
# pair as a tuple (re, im), which json writes as the same array;
# matrix_from_obj takes a list or a tuple.
# ---------------------------------------------------------------------------


def matrix_to_obj(a) -> dict:
    """The wire object of ``a``, with one ``(re, im)`` tuple per entry.

    json writes a tuple as an array, so the text is that of ``[re, im]``
    lists.  A tuple of floats drops out of the cycle collector's tracking
    at its first collection, where a list stays tracked for as long as
    it lives: a held 40x30 problem object is about 2,650 tracked objects
    with lists and 9 with tuples.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    # A C-ordered complex128 array viewed as float64 interleaves (re, im),
    # so one tolist() yields the row-major values as Python floats.
    flat = np.ascontiguousarray(m).view(np.float64).ravel().tolist()
    return {"rows": rows, "cols": cols, "entries": list(zip(flat[0::2], flat[1::2]))}


def _wire_size(value, what: str, name: str) -> int:
    """A dimension read from a wire object: an integer, not a boolean or a fraction.

    ``what`` and ``name`` (the object kind and the field) go into the
    ``ValueError`` that rejects anything else.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"malformed {what} object: {name} is {value!r}, not an integer")
    return int(value)


def matrix_from_obj(obj: dict) -> np.ndarray:
    """The matrix of a wire object; each entry a list or a tuple ``(re, im)``.

    Anything else -- a malformed object, an entry that is not a pair of
    numbers or does not fit a double, a non-finite entry -- is a
    ``ValueError``.
    """
    try:
        rows = _wire_size(obj["rows"], "matrix", "rows")
        cols = _wire_size(obj["cols"], "matrix", "cols")
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix dimensions must be nonnegative, got {rows}x{cols}")
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"malformed matrix object: entries is {type(entries).__name__}, not a list")
    if len(entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
        )
    flat: list[float] = []
    append = flat.append
    for entry in entries:
        # A pair of plain floats, what json and matrix_to_obj give, goes in
        # as it is.  Anything else goes through complex(): the unpacking
        # rejects anything that is not a pair, complex() rejects strings
        # and None and an integer too large for a double, and a boolean
        # (which complex() reads as 0 or 1) is refused by its class; the
        # failing entry's index is len(flat) // 2.
        try:
            re, im = entry
            if re.__class__ is float and im.__class__ is float:
                append(re)
                append(im)
                continue
            if re.__class__ is bool or im.__class__ is bool:
                raise TypeError
            z = complex(re, im)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"malformed matrix object: entry {len(flat) // 2} is {entry!r}, "
                "not a pair [re, im] of numbers"
            ) from None
        append(z.real)
        append(z.imag)
    # float64 pairs viewed as complex128 are the (re, im) of each entry.
    data = np.array(flat, dtype=np.float64).view(np.complex128)
    return as_matrix(data.reshape(rows, cols))
