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
when dim T + dim S = m and the middle matrix ``W* A U`` is nonsingular,
and each route factors a matrix with that middle matrix's singular
values anyway, so each decides existence from its own factorization,
by one test (:func:`_decide`): the d-th singular value (d = dim T)
against ``rtol ||A||_F``.  :func:`existence` runs the same test on its
own values-only SVD.  No verdict is kept on the problem, so the oracle
never inherits the pinv route's answer.
:func:`prepare`, the only constructor of a :class:`PreparedProblem`,
keeps what the harness derives from (A, T, S) -- ``||A||``, G and
``||G||`` and the projectors -- so each trial computes G once.  Of A it
takes only ``||A||``, from a values-only SVD.  The Moore-Penrose
inverse is the outer inverse with T = N(A)_perp and S = R(A)_perp, so
``pinv(A)`` and ``||pinv(A)||`` are the G and ``||G||`` of
:func:`moore_penrose_problem`'s problem, one source for every check
that reads them; that constructor is the one place A's singular
vectors are computed.  The orthogonal
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

from dataclasses import dataclass

import numpy as np

from . import subspace as ss
from .numlin import (
    DEFAULT_TOL,
    IllConditionedError,
    NumericalError,
    SvdFactors,
    ToleranceProfile,
    _cond_from_values,
    _singular_values,
    as_matrix,
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
    was.  It holds these three values and nothing derived from them.
    """

    A: np.ndarray
    T: Subspace
    S: Subspace

    def __post_init__(self):
        a = _owned(self.A)
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
        """(A, T, S) where ``a`` is a read-only complex128 matrix the package
        owns -- another problem's A, one it drew, or the oracle's A + E of two
        checked matrices, whose overflow the oracle's SVD guard refuses -- and
        T and S fit its shape; nothing is copied or checked.  Package use only.
        """
        problem = object.__new__(cls)
        for name, value in (("A", a), ("T", t), ("S", s)):
            object.__setattr__(problem, name, value)
        return problem


def _owned(a) -> np.ndarray:
    """A checked, read-only complex128 copy of ``a``, which the package owns."""
    m = as_matrix(a).copy()
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class PreparedProblem:
    """A problem whose outer inverse exists, with what every check needs of it.

    Built once per trial, only by :func:`prepare`, and handed to the
    perturbation evaluators.  ``norm_A = ||A||`` is read off the
    singular values of A; the singular vectors of A are not kept.  ``G``
    is the pinv route's ``pinv(P_S_perp A P_T)``, never the oracle's, and
    ``norm_G = ||G||``; on :func:`moore_penrose_problem`'s problem they
    are ``pinv(A)`` and ``||pinv(A)||``.  ``P_T`` and ``P_S_perp`` are
    the orthogonal projectors onto T and the orthogonal complement of S.
    """

    problem: OuterInverseProblem
    norm_A: float
    G: np.ndarray
    norm_G: float
    P_T: np.ndarray
    P_S_perp: np.ndarray


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of the existence test (see :func:`_decide`).

    ``exists`` holds iff the kernel of A meets T trivially and the image
    A·T, of dimension dim T, together with S splits the codomain as a
    direct sum.  On a "no" ``direct_sum_holds`` is False, and
    ``kernel_meets_T_trivially`` names whether N(A) meets T as well.
    """

    kernel_meets_T_trivially: bool
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
    """The subspace A·V of the codomain.

    Its dimension counts the singular values of ``A B_V`` above the
    existence test's threshold ``rtol ||A||_F``, so an image of rounding
    size (A·N(A), say) is {0}.
    """
    m = as_matrix(a)
    if v.ambient_dim != m.shape[1]:
        raise ValueError("subspace does not live in the domain of A")
    return _image(m, v, tol)


def _image(a: np.ndarray, v: Subspace, tol: ToleranceProfile) -> Subspace:
    # image_of for an A already checked.
    image = svd(a @ v.basis)
    dim = int(np.count_nonzero(image.singular_values > _rank_threshold(a, tol)))
    return ss._span_from_svd(image, dim)


def _rank_threshold(a: np.ndarray, tol: ToleranceProfile) -> float:
    # A singular value of a matrix made from A (A B_T, a middle matrix) is nonzero above it.
    return float(tol.effective_rank_rtol(a.shape) * np.linalg.norm(a))


def existence(
    problem: OuterInverseProblem, tol: ToleranceProfile = DEFAULT_TOL
) -> ExistenceCertificate:
    """Whether A_{T,S}^(2) exists, and if not, which condition fails.

    Decided as both routes decide it (:func:`_decide`), from the d-th
    singular value of ``(I - P_S) A B_T`` (d = dim T), an m-by-d matrix
    with the nonzero singular values of the middle matrix ``W* A U``; a
    values-only SVD gives it, and no basis of the complement of S is
    needed.  Each call factors afresh; nothing is kept on the problem.
    """
    a, t, s = problem.A, problem.T.basis, problem.S.basis
    d = t.shape[1]
    sigma = 0.0
    if 0 < d == a.shape[0] - s.shape[1]:
        image = a @ t
        sigma = float(_singular_values(image - s @ (s.conj().T @ image))[d - 1])
    return _decide(problem, sigma, tol)


def _decide(problem: OuterInverseProblem, sigma: float, tol: ToleranceProfile) -> ExistenceCertificate:
    """The one existence test, given ``sigma``, the d-th singular value of
    the middle matrix (d = dim T); a pure function of its arguments.

    With U = B_T and W an orthonormal basis of the complement of S, the
    outer inverse exists exactly when d + dim S = m and ``W* A U`` is
    nonsingular (Ben-Israel and Greville, *Generalized Inverses*, ch. 2).
    The pinv route's ``P_S_perp A P_T = W (W* A U) U*`` and
    :func:`existence`'s ``(I - P_S) A B_T = W (W* A U)`` have the same
    nonzero singular values, so each caller passes the sigma of the
    matrix it factors.  It counts as nonzero above ``rtol ||A||_F``; a
    trivial T needs only dim S = m.  A "no" names its reason from the
    values of ``A B_T``: a d-th singular value at most that threshold
    means N(A) meets T (A·T collapses); otherwise A·T and S do not split
    the codomain.
    """
    a, d = problem.A, problem.T.dim
    threshold = _rank_threshold(a, tol)
    if d + problem.S.dim == a.shape[0] and (d == 0 or sigma > threshold):
        return ExistenceCertificate(kernel_meets_T_trivially=True, direct_sum_holds=True)
    image = _singular_values(a @ problem.T.basis) if d else None
    kernel_ok = d == 0 or (image.size >= d and float(image[d - 1]) > threshold)
    return ExistenceCertificate(kernel_meets_T_trivially=kernel_ok, direct_sum_holds=False)


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
    the product it factors (:func:`_decide`); :class:`ExistenceError`
    names the failed condition.  G keeps exactly d = dim T singular
    values, the rank of any outer inverse with range T: existence has just
    shown ``sigma_d > rtol ||A||_F >= rtol sigma_max`` of the product, and
    a further value above that threshold, when ``||A|| ||G||`` is large, is
    rounding (``eps ||A||``) whose inverse would make G wildly wrong.
    """
    p_t = ss.projector(problem.T)
    p_s_perp = ss.projector(ss.orthogonal_complement(problem.S))
    middle = svd(p_s_perp @ problem.A @ p_t)
    d = problem.T.dim
    sv = middle.singular_values
    _require_exists(_decide(problem, float(sv[d - 1]) if 0 < d <= sv.size else 0.0, tol))
    g = (middle.right_vectors[:, :d] / sv[:d]) @ middle.left_vectors[:, :d].conj().T
    return p_t, p_s_perp, g, 1.0 / float(sv[d - 1]) if d else 0.0


def prepare(
    problem: OuterInverseProblem, tol: ToleranceProfile = DEFAULT_TOL
) -> PreparedProblem:
    """Decide existence once, compute G once by the pinv route, and size A.

    The only constructor of :class:`PreparedProblem`.  ``||A||`` comes
    from the singular values of A alone.  Raises
    :class:`ExistenceError`, naming the failed condition, when the outer
    inverse does not exist.
    """
    p_t, p_s_perp, g, norm_g = _pinv_route(problem, tol)
    return PreparedProblem(
        problem=problem,
        norm_A=float(_singular_values(problem.A)[0]),
        G=g,
        norm_G=norm_g,
        P_T=p_t,
        P_S_perp=p_s_perp,
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
    sigma that :func:`_decide` tests (no SVD when T is trivial or the
    middle matrix is not square, where the dimensions decide).
    """
    u = problem.T.basis
    w = ss.orthogonal_complement(problem.S).basis
    square = u.shape[1] == w.shape[1] > 0
    if square:
        middle = w.conj().T @ problem.A @ u
        s = _singular_values(middle)
    _require_exists(_decide(problem, float(s[-1]) if square else 0.0, tol))
    if u.shape[1] == 0:
        return np.zeros((problem.A.shape[1], problem.A.shape[0]), dtype=np.complex128)
    c = _cond_from_values(s)
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
    return _moore_penrose_problem(_owned(a), tol)


def _moore_penrose_problem(a: np.ndarray, tol: ToleranceProfile) -> OuterInverseProblem:
    """:func:`moore_penrose_problem` for a read-only complex128 A that the
    package owns (see :meth:`OuterInverseProblem._trusted`): T and S are
    read off one full SVD of A, and A is not copied."""
    f = svd(a)
    r = f.rank(tol)
    t = Subspace._trusted(f.right_vectors[:, :r])
    s = Subspace._trusted(f.left_vectors[:, r:])
    return OuterInverseProblem._trusted(a, t, s)


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
