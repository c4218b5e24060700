"""Outer inverses with prescribed range and kernel.

Given A in C^{m x n}, a subspace T of C^n and a subspace S of C^m, the
outer inverse A_{T,S}^(2) is the unique G with

    G A G = G,    range(G) = T,    kernel(G) = S,

which exists precisely when ``N(A) ∩ T = {0}`` and ``A T ∔ S = C^m``
(direct sum).  Two independent computational routes are provided:

* :func:`compute` uses the projector identity
  ``A_{T,S}^(2) = pinv(P_{S_perp} A P_T)``, through :func:`prepare`;
* :func:`oracle_compute` builds ``U (W* A U)^{-1} W*`` from bases U of T
  and W of the orthogonal complement of S.

They agree to rounding error whenever the inverse exists, which is what
the verification harness leans on.  :func:`existence` is the one test
of the two conditions.  :func:`prepare`, the only constructor of a
:class:`PreparedProblem`, runs it once and keeps what the harness derives
from (A, T, S) -- the SVD of A, G and the norms and projectors -- so each
trial computes G once and factors A once (twice only when the existence
test cannot settle ``N(A) ∩ T = {0}`` without the null space of A).  The
classical special cases (Moore-Penrose, group, Drazin, Bott-Duffin) are
thin constructors that pick the right (T, S) pair and delegate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import subspace as ss
from .numlin import (
    DEFAULT_TOL,
    IllConditionedError,
    SvdFactors,
    ToleranceProfile,
    as_matrix,
    cond,
    matrix_from_obj,
    matrix_to_obj,
    op_norm,
    op_norm_at_most,
    rank,
    residual_within,
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
    "existence",
    "prepare",
    "compute",
    "oracle_compute",
    "mp_via_12_inverse",
    "moore_penrose",
    "moore_penrose_problem",
    "group_inverse",
    "drazin",
    "bott_duffin",
    "classical_cases",
    "problem_to_obj",
    "problem_from_obj",
    "problem_to_json",
    "problem_from_json",
    "result_to_obj",
    "result_to_json",
]


class ExistenceError(ValueError):
    """The requested outer inverse does not exist for this (A, T, S)."""

    def __init__(self, message: str, certificate: "ExistenceCertificate"):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class OuterInverseProblem:
    """The data (A, T, S): T lives in the domain, S in the codomain."""

    A: np.ndarray
    T: Subspace
    S: Subspace

    def __post_init__(self):
        a = as_matrix(self.A)
        if self.T.ambient_dim != a.shape[1]:
            raise ValueError(
                f"T sits in C^{self.T.ambient_dim} but A has {a.shape[1]} columns"
            )
        if self.S.ambient_dim != a.shape[0]:
            raise ValueError(
                f"S sits in C^{self.S.ambient_dim} but A has {a.shape[0]} rows"
            )
        object.__setattr__(self, "A", a)


@dataclass(frozen=True)
class PreparedProblem:
    """A problem whose outer inverse exists, with what every check needs of it.

    Built once per trial, only by :func:`prepare`, and handed to the
    perturbation evaluators.  ``factors`` is the SVD of A, and
    ``rank_A``, ``norm_A`` and ``norm_pinv_A`` are read off it.  ``G`` is
    the pinv route's ``pinv(P_S_perp A P_T)``, never the oracle's, and
    ``norm_G = ||G||``.  ``P_T`` and ``P_S_perp`` are the orthogonal
    projectors onto T and the orthogonal complement of S.
    """

    problem: OuterInverseProblem
    factors: SvdFactors
    rank_A: int
    norm_A: float
    norm_pinv_A: float
    G: np.ndarray
    norm_G: float
    P_T: np.ndarray
    P_S_perp: np.ndarray


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


@dataclass(frozen=True)
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
    v = factors.right_vectors
    return Subspace(v.shape[0], v[:, factors.rank(tol) :])


def column_space(a, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Range of A as a Subspace of the codomain."""
    return _column_space_from_svd(svd(a), tol)


def _column_space_from_svd(factors: SvdFactors, tol: ToleranceProfile) -> Subspace:
    u = factors.left_vectors
    return Subspace(u.shape[0], u[:, : factors.rank(tol)])


def row_space(a, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement of the kernel (= range of A*)."""
    f = svd(a)
    return Subspace(f.right_vectors.shape[0], f.right_vectors[:, : f.rank(tol)])


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

    This is the one existence test; :func:`prepare` and the oracle both
    run it.  ``N(A) ∩ T = {0}`` is settled first from the SVD of ``A
    B_T``, which A·T is read from anyway (:func:`_kernel_misses`); the
    null space of A, a full SVD of A, is computed only when that bound
    cannot decide.
    """
    image = svd(problem.A @ problem.T.basis)
    at = _column_space_from_svd(image, tol)  # A·T, as image_of builds it
    return ExistenceCertificate(
        kernel_meets_T_trivially=_kernel_misses(problem.A, problem.T, image, tol)
        or ss.intersection_trivial(kernel(problem.A, tol), problem.T, tol),
        AT_dim=at.dim,
        direct_sum_holds=ss.direct_sum_is_whole(at, problem.S, tol),
    )


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


def _require_exists(cert: ExistenceCertificate) -> None:
    if not cert.exists:
        reasons = []
        if not cert.kernel_meets_T_trivially:
            reasons.append("kernel intersection nontrivial (N(A) meets T)")
        if not cert.direct_sum_holds:
            reasons.append("direct sum fails (A·T and S do not split the codomain)")
        raise ExistenceError("outer inverse does not exist: " + "; ".join(reasons), cert)


def prepare(
    problem: OuterInverseProblem, tol: ToleranceProfile = DEFAULT_TOL
) -> PreparedProblem:
    """Decide existence once and compute G once, by the pinv route.

    The only constructor of :class:`PreparedProblem`.  Raises
    :class:`ExistenceError`, naming the failed condition, when the outer
    inverse does not exist.
    """
    _require_exists(existence(problem, tol))
    a = problem.A
    factors = svd(a)
    p_t = ss.projector(problem.T)
    p_s_perp = ss.projector(ss.orthogonal_complement(problem.S))
    middle = svd(p_s_perp @ a @ p_t)
    return PreparedProblem(
        problem=problem,
        factors=factors,
        rank_A=factors.rank(tol),
        norm_A=factors.norm,
        norm_pinv_A=factors.pinv_norm(tol),
        G=middle.pinv(tol),
        norm_G=middle.pinv_norm(tol),
        P_T=p_t,
        P_S_perp=p_s_perp,
    )


def compute(
    problem: OuterInverseProblem, tol: ToleranceProfile = DEFAULT_TOL
) -> OuterInverseResult:
    """Outer inverse via ``pinv(P_{S_perp} A P_T)``, with residual report.

    The report measures ``||GAG - G||`` and the gaps between range(G) and
    T and between kernel(G) and S.
    """
    g = prepare(problem, tol).G
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
    :class:`PreparedProblem` and checks existence itself.
    """
    _require_exists(existence(problem, tol))
    u = problem.T.basis
    if u.shape[1] == 0:
        return np.zeros((problem.A.shape[1], problem.A.shape[0]), dtype=np.complex128)
    w = ss.orthogonal_complement(problem.S).basis
    middle = w.conj().T @ problem.A @ u
    c = cond(middle)
    if not c <= tol.cond_cap:
        raise IllConditionedError(
            f"oracle middle matrix has condition number {c:.3e}", condition=c
        )
    return u @ np.linalg.solve(middle, w.conj().T)


def mp_via_12_inverse(a, z, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse recovered from any {1,2}-inverse Z.

    Z must satisfy AZA = A and ZAZ = Z; then projecting it between the
    row space of A and the range of A yields exactly pinv(A):
    ``P_{N(A)_perp} Z P_{R(A)}``.
    """
    am = as_matrix(a)
    zm = as_matrix(z)
    if zm.shape != (am.shape[1], am.shape[0]):
        raise ValueError(f"Z has shape {zm.shape}, expected {(am.shape[1], am.shape[0])}")
    f = svd(am)
    aza = am @ zm @ am - am
    zaz = zm @ am @ zm - zm
    if not (
        op_norm_at_most(aza, tol.verify_atol * (1.0 + f.norm))
        and residual_within(zaz, zm, tol.verify_atol)
    ):
        raise ValueError(
            "Z is not a {1,2}-inverse: residuals "
            f"||AZA-A||={op_norm(aza):.3e}, ||ZAZ-Z||={op_norm(zaz):.3e}"
        )
    return f.pinv_from_12_inverse(zm, tol)


# ---------------------------------------------------------------------------
# Classical special cases
# ---------------------------------------------------------------------------


def moore_penrose_problem(a, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseProblem:
    """(A, N(A)_perp, R(A)_perp): the problem whose outer inverse is pinv(A)."""
    am = as_matrix(a)
    f = svd(am)
    r = f.rank(tol)
    t = Subspace(am.shape[1], f.right_vectors[:, :r])
    s = Subspace(am.shape[0], f.left_vectors[:, r:])
    return OuterInverseProblem(am, t, s)


def moore_penrose(a, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseResult:
    """Moore-Penrose inverse as the outer inverse with T = N(A)_perp, S = R(A)_perp."""
    return compute(moore_penrose_problem(a, tol), tol)


def group_inverse(a, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseResult:
    """Group inverse of a square A with rank(A^2) = rank(A): T = R(A), S = N(A)."""
    am = as_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError("group inverse needs a square matrix")
    if rank(am @ am, tol) != rank(am, tol):
        raise ValueError(
            "group inverse does not exist: rank(A^2) != rank(A) "
            f"({rank(am @ am, tol)} vs {rank(am, tol)})"
        )
    return compute(OuterInverseProblem(am, column_space(am, tol), kernel(am, tol)), tol)


def drazin_index(a, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Smallest k with rank(A^(k+1)) = rank(A^k) (k = 0 for invertible A)."""
    am = as_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError("Drazin index needs a square matrix")
    n = am.shape[0]
    power = np.eye(n, dtype=np.complex128)
    prev_rank = n
    for k in range(n + 1):
        nxt = power @ am
        r = rank(nxt, tol)
        if r == prev_rank:
            return k
        power = nxt
        prev_rank = r
    raise RuntimeError("rank sequence failed to stabilize")  # unreachable for n >= 1


def drazin(a, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseResult:
    """Drazin inverse: T = R(A^k), S = N(A^k) at the index k."""
    am = as_matrix(a)
    k = drazin_index(am, tol)
    power = np.linalg.matrix_power(am, k) if k > 0 else np.eye(
        am.shape[0], dtype=np.complex128
    )
    t = column_space(power, tol)
    s = kernel(power, tol)
    return compute(OuterInverseProblem(am, t, s), tol)


def bott_duffin(a, constraint: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseResult:
    """Bott-Duffin inverse with constraint subspace L: T = L, S = L_perp."""
    am = as_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError("Bott-Duffin inverse needs a square matrix")
    s = ss.orthogonal_complement(constraint)
    return compute(OuterInverseProblem(am, constraint, s), tol)


def classical_cases(
    a,
    which: str,
    tol: ToleranceProfile = DEFAULT_TOL,
    constraint: Subspace | None = None,
) -> OuterInverseResult:
    """Dispatch to one of the named classical generalized inverses.

    ``which`` is one of ``moore_penrose``, ``group``, ``drazin``,
    ``bott_duffin`` (the last requires ``constraint``).
    """
    if which == "moore_penrose":
        return moore_penrose(a, tol)
    if which == "group":
        return group_inverse(a, tol)
    if which == "drazin":
        return drazin(a, tol)
    if which == "bott_duffin":
        if constraint is None:
            raise ValueError("bott_duffin requires the constraint subspace")
        return bott_duffin(a, constraint, tol)
    raise ValueError(f"unknown classical case {which!r}")


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


def problem_to_json(problem: OuterInverseProblem) -> str:
    return json.dumps(problem_to_obj(problem))


def problem_from_json(text: str, tol: ToleranceProfile = DEFAULT_TOL) -> OuterInverseProblem:
    return problem_from_obj(json.loads(text), tol)


def result_to_obj(result: OuterInverseResult) -> dict:
    return {
        "G": matrix_to_obj(result.G),
        "residuals": {
            "residual_gag": result.residual_gag,
            "range_gap": result.range_gap,
            "null_gap": result.null_gap,
        },
    }


def result_to_json(result: OuterInverseResult) -> str:
    return json.dumps(result_to_obj(result))
