"""Outer inverses with prescribed range and kernel.

Given A in C^{m x n}, a subspace T of C^n and a subspace S of C^m, the
outer inverse A_{T,S}^(2) is the unique G with

    G A G = G,    range(G) = T,    kernel(G) = S,

which exists precisely when ``N(A) ∩ T = {0}`` and ``A T ∔ S = C^m``
(direct sum).  Two independent computational routes are provided:

* :func:`compute` uses the projector identity
  ``A_{T,S}^(2) = pinv(P_{S_perp} A P_T)``, by the route :func:`prepare`
  takes, and never factors A;
* :func:`oracle_compute` builds ``U (W* A U)^{-1} W*`` from bases U of T
  and W of the orthogonal complement of S.

They agree to rounding error whenever the inverse exists, which is what
the verification harness leans on.  The outer inverse exists exactly
when the middle matrix ``W* A U`` is invertible, and each route factors
that matrix anyway, so each decides existence from its own
factorization first (:func:`_middle_certifies`, a certificate that can
only say yes).  :func:`existence` is the one SVD test of the two
conditions; it runs only when that certificate cannot decide, and a
problem, which owns a read-only A, keeps its certificate.
:func:`prepare`, the only constructor of a :class:`PreparedProblem`,
keeps what the harness derives from (A, T, S) -- ``||A||`` and
``||pinv(A)||``, G and ``||G||``, the projectors and, on first use, the
image A·T -- so each trial computes G once.  Of A it takes only the
singular values, a values-only SVD; A's singular vectors are computed
only when the existence test cannot settle ``N(A) ∩ T = {0}`` without
the null space of A, or by the one check that reads them,
:func:`~outerinv.perturbation.stable_bounds`.  The orthogonal
complement of S is computed once per :class:`~outerinv.subspace.Subspace`
and kept there (a loaded S carries it from the SVD that loaded it), so
the oracle's W on an S the pinv route has seen costs no further SVD.
The classical
special cases (Moore-Penrose, group, Drazin, Bott-Duffin) are thin
constructors that pick the right (T, S) pair and delegate.

The subspaces read off an SVD (kernel, column space, row space, A·T)
own copies of their columns, so none of them keeps a full
singular-vector matrix alive.  Problems and results travel as plain
dicts (:func:`problem_to_obj`, :func:`problem_from_obj`,
:func:`result_to_obj`) whose matrix entries are ``(re, im)`` tuples,
which the cycle collector stops tracking (see
:func:`~outerinv.numlin.matrix_to_obj`); callers do their own JSON
encoding, which writes each tuple as an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import subspace as ss
from .numlin import (
    CERT_MARGIN,
    DEFAULT_TOL,
    IllConditionedError,
    NumericalError,
    SvdFactors,
    ToleranceProfile,
    _cond_from_values,
    _rank_from_values,
    _singular_values,
    _thin_svd,
    as_matrix,
    cond,
    matrix_from_obj,
    matrix_to_obj,
    op_norm,
    svd,
)
from .subspace import Subspace

__all__ = [
    "OuterInverseProblem",
    "PreparedProblem",
    "ExistenceCertificate",
    "OuterInverseResult",
    "ExistenceError",
    "kernel",
    "kernel_from_svd",
    "column_space",
    "row_space",
    "image_of",
    "existence",
    "prepare",
    "compute",
    "oracle_compute",
    "moore_penrose",
    "moore_penrose_problem",
    "group_inverse",
    "drazin_index",
    "drazin",
    "bott_duffin",
    "problem_to_obj",
    "problem_from_obj",
    "result_to_obj",
]


class ExistenceError(ValueError):
    """The requested outer inverse does not exist for this (A, T, S)."""

    def __init__(self, message: str, certificate: "ExistenceCertificate"):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True, eq=False)
class OuterInverseProblem:
    """The data (A, T, S): T lives in the domain, S in the codomain.

    The problem owns A, as a :class:`~outerinv.subspace.Subspace` owns its
    basis: it stores a read-only copy and leaves the caller's array as it
    was.  So (A, T, S) cannot change under the existence certificates
    the problem keeps, one per tolerance profile (see :func:`existence`).
    """

    A: np.ndarray
    T: Subspace
    S: Subspace
    _certificates: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        a = as_matrix(self.A).copy()
        a.flags.writeable = False
        if self.T.ambient_dim != a.shape[1]:
            raise ValueError(
                f"T sits in C^{self.T.ambient_dim} but A has {a.shape[1]} columns"
            )
        if self.S.ambient_dim != a.shape[0]:
            raise ValueError(
                f"S sits in C^{self.S.ambient_dim} but A has {a.shape[0]} rows"
            )
        object.__setattr__(self, "A", a)

    @classmethod
    def _trusted(cls, a: np.ndarray, t: Subspace, s: Subspace) -> "OuterInverseProblem":
        """(A, T, S) where ``a`` is the A of another problem, so already a
        read-only, finite complex128 matrix the package owns, and T and S
        fit its shape; nothing is copied or checked.  For the package's
        own use only.
        """
        problem = object.__new__(cls)
        for name, value in (("A", a), ("T", t), ("S", s), ("_certificates", {})):
            object.__setattr__(problem, name, value)
        return problem


@dataclass(frozen=True, eq=False)
class PreparedProblem:
    """A problem whose outer inverse exists, with what every check needs of it.

    Built once per trial, only by :func:`prepare`, and handed to the
    perturbation evaluators.  ``norm_A = ||A||`` and ``norm_pinv_A =
    ||pinv(A)||`` are read off the singular values of A; the singular
    vectors of A are not kept.  ``G`` is the pinv route's
    ``pinv(P_S_perp A P_T)``, never the oracle's, and ``norm_G =
    ||G||``.  ``P_T`` and ``P_S_perp`` are the orthogonal
    projectors onto T and the orthogonal complement of S.  ``tol`` is
    the profile the problem was prepared under.
    """

    problem: OuterInverseProblem
    norm_A: float
    norm_pinv_A: float
    G: np.ndarray
    norm_G: float
    P_T: np.ndarray
    P_S_perp: np.ndarray
    tol: ToleranceProfile

    @cached_property
    def AT(self) -> Subspace:
        """The image A·T, built on first use as :func:`existence` builds it
        (and as :func:`image_of` does); only gap propagation reads it."""
        return _image_of_T(self.problem, self.tol)[1]


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of the two existence conditions.

    ``exists`` holds iff the kernel of A meets T trivially and the image
    A T together with S splits the codomain as a direct sum.
    """

    kernel_meets_T_trivially: bool
    AT_dim: int
    direct_sum_holds: bool

    @property
    def exists(self) -> bool:
        return self.kernel_meets_T_trivially and self.direct_sum_holds


@dataclass(frozen=True, eq=False)
class OuterInverseResult:
    """Computed inverse G plus its defining-equation residuals."""

    G: np.ndarray
    residual_gag: float
    range_gap: float
    null_gap: float


def kernel(a, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Null space of A as a Subspace of the domain."""
    return kernel_from_svd(svd(a), tol)


def kernel_from_svd(factors: SvdFactors, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Null space of the factored matrix: its right singular vectors past the rank."""
    return Subspace._trusted(factors.right_vectors[:, factors.rank(tol) :])


def column_space(a, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Range of A as a Subspace of the codomain."""
    return _column_space_from_svd(svd(a), tol)


def _column_space_from_svd(factors: SvdFactors, tol: ToleranceProfile) -> Subspace:
    return Subspace._trusted(factors.left_vectors[:, : factors.rank(tol)])


def row_space(a, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement of the kernel (= range of A*)."""
    f = svd(a)
    return Subspace._trusted(f.right_vectors[:, : f.rank(tol)])


def image_of(a, v: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """The subspace A·V of the codomain."""
    m = as_matrix(a)
    if v.ambient_dim != m.shape[1]:
        raise ValueError("subspace does not live in the domain of A")
    return ss.from_spanning_set(m @ v.basis, tol)


def existence(
    problem: OuterInverseProblem, tol: ToleranceProfile = DEFAULT_TOL
) -> ExistenceCertificate:
    """Check the two conditions under which A_{T,S}^(2) exists.

    This is the one existence test, and it alone ever answers "no".
    :func:`prepare`, :func:`compute` and the oracle run it only when
    their middle matrix cannot certify existence
    (:func:`_middle_certifies`).  The problem keeps the certificate, one
    per tolerance profile, so a second call with an equal profile
    returns the same certificate and factors nothing.  ``N(A) ∩ T =
    {0}`` is settled first from the thin SVD of ``A B_T``, which A·T is
    read from anyway (:func:`_kernel_misses`); the null space of A, a
    full SVD of A, is computed only when that bound cannot decide.
    """
    cert = problem._certificates.get(tol)
    if cert is not None:
        return cert
    image, at = _image_of_T(problem, tol)
    cert = problem._certificates[tol] = ExistenceCertificate(
        kernel_meets_T_trivially=_kernel_misses(problem.A, problem.T, image, tol)
        or ss.intersection_trivial(kernel(problem.A, tol), problem.T, tol),
        AT_dim=at.dim,
        direct_sum_holds=ss.direct_sum_is_whole(at, problem.S, tol),
    )
    return cert


def _image_of_T(problem: OuterInverseProblem, tol: ToleranceProfile) -> tuple[SvdFactors, Subspace]:
    """The thin SVD of ``A B_T`` and the image A·T read off it, as :func:`image_of` builds it."""
    image = _thin_svd(problem.A @ problem.T.basis)
    return image, _column_space_from_svd(image, tol)


def _kernel_misses(a: np.ndarray, t: Subspace, image: SvdFactors, tol: ToleranceProfile) -> bool:
    """Whether ``image``, the SVD of ``A B_T``, proves ``N(A) ∩ T = {0}``.

    :func:`kernel` keeps the right singular vectors on which A has gain
    at most ``rtol_A ||A||``.  A unit x in T has ``||A x|| >= sigma_min(A
    B_T)``, so it lies at distance at least ``s = sigma_min(A B_T) /
    ||A||_F - rtol_A`` from that kernel (``||A|| <= ||A||_F``; 1e-12 more
    is taken off for rounding), and the largest principal cosine between
    T and the kernel is at most ``sqrt(1 - s^2) <= 1 - s^2 / 2``.  False
    means only that the bound cannot tell.
    """
    sv = image.singular_values
    norm_f = np.linalg.norm(a)
    if not 0 < t.dim <= sv.size or norm_f == 0.0:
        return False
    sep = sv[t.dim - 1] / norm_f - tol.effective_rank_rtol(a.shape) - 1e-12
    # When the rank test runs, the stacked kernel-and-T basis has n rows
    # and at most n columns, so its threshold is that of an n-by-n matrix.
    n = a.shape[1]
    return sep > 0.0 and ss.trivial_at_cosine(1.0 - sep * sep / 2.0, tol.effective_rank_rtol((n, n)))


def _middle_certifies(problem: OuterInverseProblem, sigma: float, tol: ToleranceProfile) -> bool:
    """Whether ``sigma``, the d-th singular value of the middle matrix, proves
    that :func:`existence` answers yes; d = dim T.

    Let U = B_T and W be an orthonormal basis of the complement of S.  The
    oracle's middle matrix W* A U and the pinv route's ``P_S_perp A P_T =
    W (W* A U) U*`` have the same nonzero singular values, so either
    factorization gives sigma.  The certificate applies when d > 0 and
    d + dim S = m, where W* A U is square.  Let ``rho = sigma (1 -
    CERT_MARGIN) / ||A||_F``; the margin covers the rounding of sigma.
    Two facts hold:

    (a) ``sigma_d(A B_T) >= sigma``, because ``||W*|| = 1``;
    (b) every unit x = A U y / ||A U y|| in A·T has ``||P_S_perp x|| =
        ||W* A U y|| / ||A U y|| >= sigma / ||A|| >= rho``, so its cosine
        with S, ``||P_S x||``, is at most ``sqrt(1 - rho^2)``.

    So when this returns True, the SVD test's three answers are known
    before it runs:

    1. :func:`_kernel_misses` returns True: by (a) its separation is at
       least ``sep = rho - rtol_A - 1e-12``, and this checks
       :func:`~outerinv.subspace.trivial_at_cosine` at that ``sep``,
       whose cosine bound ``1 - sep^2 / 2`` falls as ``sep`` grows.
    2. ``AT_dim == d``: the thin SVD of A B_T keeps the singular values
       above ``rtol_(m,d) sigma_1(A B_T)``, and ``sigma_1(A B_T) <= ||A||_F``,
       so by (a) the ratio ``sigma_d / sigma_1 >= rho > rtol_A + 1e-12``
       clears ``rtol_(m,d) <= rtol_A``.
    3. ``direct_sum_holds``: dim A·T + dim S = d + dim S = m, and by (b)
       the largest principal cosine between A·T and S is at most ``sqrt(1
       - rho^2)``, which ``trivial_at_cosine`` accepts at the threshold
       of the m-by-m stack that :func:`~outerinv.subspace.intersection_trivial`
       would test.

    False means only that the bound cannot tell; the caller then runs
    :func:`existence`, so the SVD test alone ever answers "no".
    """
    a = problem.A
    m, n = a.shape
    d = problem.T.dim
    norm_f = np.linalg.norm(a)
    if d == 0 or d + problem.S.dim != m or norm_f == 0.0:
        return False
    rho = sigma * (1.0 - CERT_MARGIN) / norm_f
    sep = rho - tol.effective_rank_rtol(a.shape) - 1e-12
    return (
        sep > 0.0
        and ss.trivial_at_cosine(1.0 - sep * sep / 2.0, tol.effective_rank_rtol((n, n)))
        and ss.trivial_at_cosine(math.sqrt(1.0 - rho * rho), tol.effective_rank_rtol((m, m)))
    )


def _require_exists(cert: ExistenceCertificate) -> None:
    if not cert.exists:
        reasons = []
        if not cert.kernel_meets_T_trivially:
            reasons.append("kernel intersection nontrivial (N(A) meets T)")
        if not cert.direct_sum_holds:
            reasons.append("direct sum fails (A·T and S do not split the codomain)")
        raise ExistenceError("outer inverse does not exist: " + "; ".join(reasons), cert)


def _pinv_route(problem: OuterInverseProblem, tol: ToleranceProfile):
    """``(P_T, P_S_perp, G, ||G||)`` with ``G = pinv(P_S_perp A P_T)``.

    The one pinv route, which both :func:`prepare` and :func:`compute`
    take.  It decides existence first, from the d-th singular value of
    the product it factors (:func:`_middle_certifies`), and runs
    :func:`existence` only when that cannot; :class:`ExistenceError`
    names the failed condition.  The pseudoinverse keeps at most dim T
    singular values, the rank of any outer inverse with range T: when
    ``||A|| ||G||`` is large the product's rounding, of size ``eps
    ||A||``, can clear the relative rank threshold, and inverting it
    would make G wrong by orders of magnitude.
    """
    p_t = ss.projector(problem.T)
    p_s_perp = ss.projector(ss.orthogonal_complement(problem.S))
    middle = svd(p_s_perp @ problem.A @ p_t)
    d = problem.T.dim
    sv = middle.singular_values
    if not _middle_certifies(problem, float(sv[d - 1]) if 0 < d <= sv.size else 0.0, tol):
        _require_exists(existence(problem, tol))
    r = min(middle.rank(tol), d)
    s = sv[:r]
    g = (middle.right_vectors[:, :r] / s) @ middle.left_vectors[:, :r].conj().T
    return p_t, p_s_perp, g, 1.0 / float(s[-1]) if r else 0.0


def prepare(
    problem: OuterInverseProblem, tol: ToleranceProfile = DEFAULT_TOL
) -> PreparedProblem:
    """Decide existence once, compute G once by the pinv route, and size A.

    The only constructor of :class:`PreparedProblem`.  ``||A||`` and
    ``||pinv(A)||`` come from the singular values of A alone.  Raises
    :class:`ExistenceError`, naming the failed condition, when the outer
    inverse does not exist.
    """
    p_t, p_s_perp, g, norm_g = _pinv_route(problem, tol)
    s = _singular_values(problem.A)
    r = _rank_from_values(s, problem.A.shape, tol)
    return PreparedProblem(
        problem=problem,
        norm_A=float(s[0]),
        norm_pinv_A=1.0 / float(s[r - 1]) if r else 0.0,
        G=g,
        norm_G=norm_g,
        P_T=p_t,
        P_S_perp=p_s_perp,
        tol=tol,
    )


def compute(
    problem: OuterInverseProblem, tol: ToleranceProfile = DEFAULT_TOL
) -> OuterInverseResult:
    """Outer inverse via ``pinv(P_{S_perp} A P_T)``, with residual report.

    Takes the pinv route that :func:`prepare` takes, existence decision
    included, so G is the same to the bit, but reads nothing else of a
    prepared problem and never factors A.  The report measures ``||GAG -
    G||`` and the gaps between range(G) and T and between kernel(G) and S.
    """
    _, _, g, _ = _pinv_route(problem, tol)
    f = svd(g)
    return OuterInverseResult(
        G=g,
        residual_gag=op_norm(g @ problem.A @ g - g),
        range_gap=ss.gap_hat(_column_space_from_svd(f, tol), problem.T),
        null_gap=ss.gap_hat(kernel_from_svd(f, tol), problem.S),
    )


def oracle_compute(
    problem: OuterInverseProblem, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Independent route: ``U (W* A U)^{-1} W*``.

    U is a basis of T and W a basis of the orthogonal complement of S;
    the middle matrix is square and invertible exactly when the inverse
    exists.  Used as the brute-force reference for every perturbation
    identity the harness checks, so it takes nothing from a
    :class:`PreparedProblem` and checks existence itself: the singular
    values of its middle matrix, its one SVD, give both ``cond`` and the
    certificate of :func:`_middle_certifies`, and :func:`existence` runs
    only when that certificate cannot decide (or T is trivial, or the
    middle matrix is not square).
    """
    u = problem.T.basis
    w = ss.orthogonal_complement(problem.S).basis
    middle = w.conj().T @ problem.A @ u
    s = _singular_values(middle) if u.shape[1] == w.shape[1] > 0 else None
    if s is None or not _middle_certifies(problem, float(s[-1]), tol):
        _require_exists(existence(problem, tol))
    if u.shape[1] == 0:
        return np.zeros((problem.A.shape[1], problem.A.shape[0]), dtype=np.complex128)
    c = cond(middle) if s is None else _cond_from_values(s)
    if not c <= tol.cond_cap:
        raise IllConditionedError(
            f"oracle middle matrix has condition number {c:.3e}", condition=c
        )
    return u @ np.linalg.solve(middle, w.conj().T)


# ---------------------------------------------------------------------------
# Classical special cases
# ---------------------------------------------------------------------------


def moore_penrose_problem(a, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseProblem:
    """(A, N(A)_perp, R(A)_perp): the problem whose outer inverse is pinv(A)."""
    f = svd(a)
    r = f.rank(tol)
    t = Subspace._trusted(f.right_vectors[:, :r])
    s = Subspace._trusted(f.left_vectors[:, r:])
    return OuterInverseProblem(a, t, s)


def moore_penrose(a, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseResult:
    """Moore-Penrose inverse as the outer inverse with T = N(A)_perp, S = R(A)_perp."""
    return compute(moore_penrose_problem(a, tol), tol)


def _square(a, what: str) -> np.ndarray:
    am = as_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"{what} needs a square matrix")
    return am


def _drazin_problem(a, what: str, tol: ToleranceProfile) -> tuple[int, OuterInverseProblem]:
    """The index k of square A and (A, R(A^k), N(A^k)), read off one SVD of A^k.

    rank(A^j) counts singular values above ``rank_rtol * ||A||^j``, the scale
    of a computed power's rounding (``sigma_max(A^j)`` is far smaller for a
    non-normal A).  The ranks fall strictly until the index; one that rises
    means the powers are not resolved in double precision.
    """
    am = _square(a, what)
    n = am.shape[0]
    rtol = tol.effective_rank_rtol(am.shape)
    eye = np.eye(n, dtype=np.complex128)
    power, factors, r = eye, SvdFactors(eye, np.ones(n), eye), n
    for k in range(n + 1):
        nxt = power @ am
        nxt_factors = svd(nxt)
        if k == 0:
            norm_a = nxt_factors.norm
        r_next = int(np.count_nonzero(nxt_factors.singular_values > rtol * norm_a ** (k + 1)))
        if r_next == r:
            t = Subspace._trusted(factors.left_vectors[:, :r])
            return k, OuterInverseProblem(am, t, Subspace._trusted(factors.right_vectors[:, r:]))
        if r_next > r:
            break
        power, factors, r = nxt, nxt_factors, r_next
    raise NumericalError(
        f"rank(A^{k + 1}) = {r_next} exceeds rank(A^{k}) = {r}: "
        "the powers of A are not resolved in double precision"
    )


def group_inverse(a, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseResult:
    """Group inverse of a square A with rank(A^2) = rank(A): T = R(A), S = N(A)."""
    k, problem = _drazin_problem(a, "group inverse", tol)
    if k > 1:
        raise ValueError(f"group inverse does not exist: rank(A^2) != rank(A) (index {k})")
    return compute(problem, tol)


def drazin_index(a, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Smallest k with rank(A^(k+1)) = rank(A^k) (k = 0 for invertible A)."""
    return _drazin_problem(a, "Drazin index", tol)[0]


def drazin(a, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseResult:
    """Drazin inverse: T = R(A^k), S = N(A^k) at the index k."""
    return compute(_drazin_problem(a, "Drazin inverse", tol)[1], tol)


def bott_duffin(a, constraint: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseResult:
    """Bott-Duffin inverse with constraint subspace L: T = L, S = L_perp."""
    am = _square(a, "Bott-Duffin inverse")
    s = ss.orthogonal_complement(constraint)
    return compute(OuterInverseProblem(am, constraint, s), tol)


# ---------------------------------------------------------------------------
# JSON wire formats
#
# problem file:  {"A": <matrix>, "T": <subspace>, "S": <subspace>}
# result file:   {"G": <matrix>, "residuals": {...}}
# ---------------------------------------------------------------------------


def problem_to_obj(problem: OuterInverseProblem) -> dict:
    return {
        "A": matrix_to_obj(problem.A),
        "T": ss.subspace_to_obj(problem.T),
        "S": ss.subspace_to_obj(problem.S),
    }


def problem_from_obj(obj: dict, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseProblem:
    try:
        a = matrix_from_obj(obj["A"])
        t = ss.subspace_from_obj(obj["T"], tol)
        s = ss.subspace_from_obj(obj["S"], tol)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed problem object: {exc}") from exc
    return OuterInverseProblem(a, t, s)


def result_to_obj(result: OuterInverseResult) -> dict:
    return {
        "G": matrix_to_obj(result.G),
        "residuals": {
            "residual_gag": result.residual_gag,
            "range_gap": result.range_gap,
            "null_gap": result.null_gap,
        },
    }
