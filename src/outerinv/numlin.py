"""Dense complex matrix kernels.

Everything downstream (subspaces, projectors, generalized inverses,
perturbation formulas) is built on the operations in this module: SVD,
Moore-Penrose pseudoinverse, spectral operator norm, numerical rank and
guarded linear solves.  All matrices are dense ``complex128`` NumPy arrays;
real input is accepted and embedded with zero imaginary part.

The SVD is the single source of truth for rank decisions: ``pinv``,
``rank`` and the subspace machinery all truncate singular values at the
same relative threshold, so no two call sites can disagree about the rank
of the same matrix.

Yes/no checks are certificate-first: a cheap bound (a Frobenius norm, a
cosine) is tried before the SVD, and it may only *confirm* the answer
the SVD test would give, with a margin far above rounding.  When the
bound cannot decide, the SVD test runs as the only judge, so it alone
ever answers "no".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceProfile",
    "SvdFactors",
    "NumericalError",
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
    "matrix_to_json",
    "matrix_from_json",
    "matrix_to_obj",
    "matrix_from_obj",
    "DEFAULT_TOL",
]


class NumericalError(Exception):
    """Base class for numerical failures in this package."""


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


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD ``A = U @ diag(s) @ V.conj().T``.

    ``left_vectors`` is m-by-m unitary, ``right_vectors`` is n-by-n unitary
    and ``singular_values`` holds the min(m, n) singular values in
    nonincreasing order.
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
    """Coerce input to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def svd(a) -> SvdFactors:
    """Full singular value decomposition of a dense complex matrix."""
    m = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            f"SVD did not converge for a {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    return SvdFactors(u, s, vh.conj().T)


def _singular_values(a: np.ndarray) -> np.ndarray:
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
    m = as_matrix(a)
    if not m.any():  # empty or exactly zero: no SVD needed
        return 0.0
    s = _singular_values(m)
    return float(s[0])


def op_norm_at_most(a, limit: float) -> bool:
    """``op_norm(a) <= limit``, with no SVD when ``||a||_F`` settles it.

    ``||a||_2 <= ||a||_F``, so a Frobenius norm below the limit proves
    the spectral test passes; otherwise the spectral test decides.
    """
    m = as_matrix(a)
    return np.linalg.norm(m) <= limit * (1.0 - CERT_MARGIN) or op_norm(m) <= limit


def residual_within(r, b, atol: float) -> bool:
    """The residual test ``op_norm(r) <= atol * (1 + op_norm(b))``.

    Certified without an SVD when ``||r||_F <= atol (1 + ||b||_F /
    sqrt(min shape of b))``: the left side bounds ``||r||_2`` from above,
    and ``||b||_F / sqrt(min shape)`` bounds ``||b||_2`` from below.
    """
    rm, bm = as_matrix(r), as_matrix(b)
    b_floor = np.linalg.norm(bm) / math.sqrt(min(bm.shape)) if bm.size else 0.0
    if np.linalg.norm(rm) <= atol * (1.0 + b_floor) * (1.0 - CERT_MARGIN):
        return True
    return op_norm(rm) <= atol * (1.0 + op_norm(bm))


def rank(a, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``rank_rtol * sigma_max``."""
    m = as_matrix(a)
    if m.size == 0:
        return 0
    return _rank_from_values(_singular_values(m), m.shape, tol)


def cond(a) -> float:
    """Spectral condition number; ``inf`` for singular or empty input."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("condition number is defined here for square matrices only")
    if m.shape[0] == 0:
        return 1.0
    s = _singular_values(m)
    if s[-1] == 0.0:
        return math.inf
    return float(s[0] / s[-1])


def solve_square(m, rhs, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Solve M X = rhs for square M, refusing ill-conditioned systems.

    Raises :class:`IllConditionedError` (carrying the condition estimate)
    when ``cond(M) > cond_cap`` or the residual check fails.  ``cond(M)``
    is skipped when ``f = ||M - I||_F < 1`` already caps it: then
    ``cond(M) <= (1 + f) / (1 - f)``, which covers every resolvent
    ``I + K`` with a small ``K``.
    """
    mm = as_matrix(m)
    b = as_matrix(rhs)
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
    x = np.linalg.solve(mm, b)
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
# floats with shortest round-trip decimals.
# ---------------------------------------------------------------------------


def matrix_to_obj(a) -> dict:
    m = as_matrix(a)
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_obj(obj: dict) -> np.ndarray:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix dimensions must be nonnegative, got {rows}x{cols}")
    if len(entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
        )
    data = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    return as_matrix(data.reshape(rows, cols))


def matrix_to_json(a) -> str:
    return json.dumps(matrix_to_obj(a))


def matrix_from_json(text: str) -> np.ndarray:
    return matrix_from_obj(json.loads(text))
