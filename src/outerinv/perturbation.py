"""Perturbation representations and error bounds for outer inverses.

The operations here answer, numerically, what happens to the outer
inverse A_{T,S}^(2) when the prescribed range T, the prescribed kernel S,
or the operator A itself moves a little:

* :func:`is_stable` / :func:`stable_bounds` handle the Moore-Penrose
  inverse under an operator perturbation that does not tilt the range
  into its old orthogonal complement (the "stable perturbation" regime),
  including the resolvent representation of the perturbed inverse and the
  classical norm/difference bounds with the golden-ratio constant.
* :func:`gap_propagation` bounds the gap between A·T and A·T' in terms of
  the gap between T and T'.
* :func:`perturb_T`, :func:`perturb_S`, :func:`perturb_TS`,
  :func:`perturb_A` and :func:`perturb_all` evaluate the closed-form
  representation of the perturbed outer inverse for each perturbed
  ingredient, compare it against the independent oracle route, and check
  the corresponding norm and difference bounds.

:data:`REGISTRY` is where each verified statement is defined: one
:class:`Theorem` record per identifier, naming the sizes the statement
perturbs (``gap_T``, ``gap_S``, ``norm_E``) and the strict upper bound of
each.  The evaluators' hypotheses, the instance generator's targets and
the harness's sweep axes are all read from it; :func:`theorem` looks a
record up by identifier.

The seven evaluators take a :class:`~outerinv.outer_inverse.PreparedProblem`
as their first argument and reuse its G, norms and projectors; a caller
holding a bare problem calls :func:`~outerinv.outer_inverse.prepare`
first (for the Moore-Penrose checks, on
:func:`~outerinv.outer_inverse.moore_penrose_problem`).  The oracle
routes take nothing from it.

Every operation evaluates its hypothesis with strict inequality.  When a
hypothesis fails the formula is still evaluated (where possible) for
exploration, but the report is flagged and bounds are not asserted.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from . import subspace as ss
from .numlin import (
    DEFAULT_TOL,
    IllConditionedError,
    NumericalError,
    SvdFactors,
    ToleranceProfile,
    as_matrix,
    op_norm,
    op_norm_at_most,
    pinv,
    residual_within,
    solve_square,
    svd,
)
from .outer_inverse import (
    ExistenceError,
    OuterInverseProblem,
    PreparedProblem,
    image_of,
    kernel_from_svd,
    oracle_compute,
)
from .subspace import Subspace

__all__ = [
    "GOLDEN_RATIO",
    "BOUND_SLACK",
    "HypothesisStatus",
    "PerturbationScenario",
    "BoundReport",
    "StableReport",
    "Theorem",
    "REGISTRY",
    "theorem",
    "is_stable",
    "stable_bounds",
    "gap_propagation",
    "perturb_T",
    "perturb_S",
    "perturb_TS",
    "perturb_A",
    "perturb_all",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Relative slack used when declaring a bound satisfied, guarding against
# last-bit rounding in the comparison itself.
BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class HypothesisStatus:
    """One strict-inequality hypothesis: satisfied iff observed < threshold."""

    name: str
    threshold: float
    observed: float

    @property
    def satisfied(self) -> bool:
        return self.observed < self.threshold


@dataclass(frozen=True)
class PerturbationScenario:
    """A base problem plus perturbed range, kernel and operator.

    The measured gaps and the perturbation norm are always recomputed
    from the parts at construction time, never trusted from input.
    """

    base: OuterInverseProblem
    T_prime: Subspace
    S_prime: Subspace
    E: np.ndarray
    measured_gap_T: float = field(init=False)
    measured_gap_S: float = field(init=False)
    norm_E: float = field(init=False)

    def __post_init__(self):
        e = as_matrix(self.E)
        if e.shape != self.base.A.shape:
            raise ValueError(f"E has shape {e.shape}, expected {self.base.A.shape}")
        if self.T_prime.ambient_dim != self.base.T.ambient_dim:
            raise ValueError("T' lives in a different ambient space than T")
        if self.S_prime.ambient_dim != self.base.S.ambient_dim:
            raise ValueError("S' lives in a different ambient space than S")
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "measured_gap_T", ss.gap_hat(self.base.T, self.T_prime))
        object.__setattr__(self, "measured_gap_S", ss.gap_hat(self.base.S, self.S_prime))
        object.__setattr__(self, "norm_E", op_norm(e))


@dataclass(frozen=True)
class BoundReport:
    """Record of one perturbation check: formula vs oracle vs bounds.

    ``all_satisfied`` is true when every hypothesis holds and both the
    norm and the difference inequality are met (within ``BOUND_SLACK``
    relative rounding slack).  Missing quantities (oracle unavailable,
    bound denominator nonpositive) are ``None`` / NaN.  When the oracle
    refused, ``oracle_refusal`` is its exception and the actuals are NaN:
    the bounds are checked on the oracle's result only, never on the
    formula they are meant to check.
    """

    theorem: str
    formula_result: np.ndarray | None
    oracle_result: np.ndarray | None
    formula_vs_oracle_relerr: float
    norm_bound: float
    norm_actual: float
    diff_bound: float
    diff_actual: float
    hypotheses: tuple[HypothesisStatus, ...]
    all_satisfied: bool
    oracle_refusal: ExistenceError | IllConditionedError | None = None

    @property
    def hypotheses_met(self) -> bool:
        return all(h.satisfied for h in self.hypotheses)

    @property
    def margin_norm(self) -> float:
        return self.norm_bound - self.norm_actual

    @property
    def margin_diff(self) -> float:
        return self.diff_bound - self.diff_actual


@dataclass(frozen=True)
class StableReport:
    """The three equivalent characterizations of a stable perturbation.

    cond1: range(A + dA) meets range(A)-perp only at zero.
    cond2: the row space of A + dA meets kernel(A) only at zero.
    cond3: the resolvent formula ``pinv(A) (I + dA pinv(A))^{-1}`` is a
           {1,2}-inverse of A + dA.

    Under ``||pinv(A)|| ||dA|| < 1`` the three agree; outside that regime
    ``hypothesis_met`` is false and no equivalence is claimed.
    """

    cond1: bool
    cond2: bool
    cond3_formula_valid: bool
    gi_matrix: np.ndarray | None
    hypothesis_met: bool
    norm_product: float

    @property
    def stable(self) -> bool:
        return self.cond1


def _bounds_ok(actual: float, bound: float, scale: float = 1.0) -> bool:
    # Multiplicative slack for honest comparisons plus an absolute floor so
    # a zero bound (zero perturbation) tolerates cross-route rounding noise.
    if math.isnan(bound):
        return False
    return actual <= bound * (1.0 + BOUND_SLACK) + BOUND_SLACK * scale


def _relerr(formula: np.ndarray | None, oracle: np.ndarray | None, norm_oracle: float) -> float:
    # Absolute error when the oracle is zero; NaN when either route is missing.
    if formula is None or oracle is None:
        return math.nan
    diff = op_norm(formula - oracle)
    return diff / norm_oracle if norm_oracle > 0.0 else diff


@dataclass(frozen=True)
class Theorem:
    """One verified statement and the hypothesis region it is checked in.

    ``limits`` maps each size the statement constrains (``"gap_T"`` =
    gap_hat(T, T'), ``"gap_S"`` = gap_hat(S, S'), ``"norm_E"`` = ||E||)
    to that size's strict upper bound, a function of the prepared base
    problem.  Sizes not in ``limits`` are left unperturbed by the instance
    generator.  ``rank_preserving_E`` asks the generator for ``E = B A``,
    which cannot change the rank of A.
    """

    id: str
    limits: Mapping[str, Callable[[PreparedProblem], float]]
    rank_preserving_E: bool = False

    def hypotheses(
        self, prepared: PreparedProblem, **sizes: float
    ) -> tuple[HypothesisStatus, ...]:
        """``size < limit`` for each constrained size, measured values given by keyword."""
        return tuple(
            HypothesisStatus(size, limit(prepared), sizes[size])
            for size, limit in self.limits.items()
        )


def _kappa(p: PreparedProblem) -> float:
    return p.norm_A * p.norm_G


def _gap_limit_squared(p: PreparedProblem) -> float:
    return 1.0 / (1.0 + _kappa(p)) ** 2


def _reciprocal(x: float) -> float:
    # A zero norm (A = 0, or G = 0 for a trivial T) leaves ||E|| unconstrained.
    return 1.0 / x if x > 0.0 else math.inf


# Lemma 2.1: stable perturbation of pinv(A), ||pinv(A)|| ||E|| < 1.
_LEMMA21 = Theorem(
    "lemma21", {"norm_E": lambda p: _reciprocal(p.norm_pinv_A)}, rank_preserving_E=True
)
# Lemma 3.1: gap propagation from T to A T.
_LEMMA31 = Theorem("lemma31", {"gap_T": lambda p: 1.0 / (1.0 + _kappa(p))})
# Proposition 3.1: perturbed range.
_PROP31 = Theorem("prop31", {"gap_T": _gap_limit_squared})
# Proposition 3.2: perturbed kernel.
_PROP32 = Theorem("prop32", {"gap_S": lambda p: 1.0 / (2.0 + _kappa(p))})
# Theorem 3.1: range and kernel perturbed together.
_THM31 = Theorem("thm31", {"gap_T": _gap_limit_squared, "gap_S": _gap_limit_squared})
# Lemma 3.2: operator perturbed, ||G|| ||E|| < 1.
_LEMMA32 = Theorem("lemma32", {"norm_E": lambda p: _reciprocal(p.norm_G)})
# Theorem 3.2: range, kernel and operator perturbed together.
_THM32 = Theorem(
    "thm32",
    {
        "gap_T": _gap_limit_squared,
        "gap_S": _gap_limit_squared,
        "norm_E": lambda p: _reciprocal(p.norm_G * (1.0 + _kappa(p))),
    },
)

# Campaign order.
REGISTRY: Mapping[str, Theorem] = {
    t.id: t for t in (_LEMMA21, _LEMMA31, _PROP31, _PROP32, _THM31, _LEMMA32, _THM32)
}


def theorem(theorem_id: str) -> Theorem:
    """The registry record of ``theorem_id``; ValueError if there is none."""
    try:
        return REGISTRY[theorem_id]
    except KeyError:
        raise ValueError(f"unknown theorem identifier {theorem_id!r}") from None


# ---------------------------------------------------------------------------
# Stable perturbation of the Moore-Penrose inverse
# ---------------------------------------------------------------------------


def _resolvent_gi(ap: np.ndarray, da: np.ndarray, tol: ToleranceProfile):
    """``pinv(A) (I + dA pinv(A))^{-1}`` or None if the factor is singular."""
    factor = np.eye(da.shape[0], dtype=np.complex128) + da @ ap
    try:
        # C = A^+ factor^{-1}, solved from the right.
        return solve_square(factor.T, ap.T, tol).T
    except IllConditionedError:
        return None


def is_stable(a, da, tol: ToleranceProfile = DEFAULT_TOL) -> StableReport:
    """Check the three equivalent stable-perturbation conditions."""
    am = as_matrix(a)
    return _stability(am, svd(am), da, tol)[0]


def _stability(
    a, factors: SvdFactors, da, tol: ToleranceProfile
) -> tuple[StableReport, SvdFactors, float]:
    """:func:`is_stable` given ``factors``, the SVD of A.

    Also returns the SVD of A + dA that the report was read from, and ``||dA||``.
    """
    am = as_matrix(a)
    dam = as_matrix(da)
    if dam.shape != am.shape:
        raise ValueError(f"dA has shape {dam.shape}, expected {am.shape}")
    m, n = am.shape
    abar = am + dam
    c = _resolvent_gi(factors.pinv(tol), dam, tol)
    norm_da = op_norm(dam)
    product = factors.pinv_norm(tol) * norm_da

    # Range, its complement, row space and kernel, from the two SVDs.
    r = factors.rank(tol)
    bar = svd(abar)
    r_bar = bar.rank(tol)
    cond1 = ss.intersection_trivial(
        Subspace(m, bar.left_vectors[:, :r_bar]), Subspace(m, factors.left_vectors[:, r:]), tol
    )
    cond2 = ss.intersection_trivial(
        Subspace(n, bar.right_vectors[:, :r_bar]), kernel_from_svd(factors, tol), tol
    )

    cond3 = c is not None and (
        op_norm_at_most(abar @ c @ abar - abar, tol.verify_atol * (1.0 + bar.norm))
        and residual_within(c @ abar @ c - c, c, tol.verify_atol)
    )

    report = StableReport(
        cond1=cond1,
        cond2=cond2,
        cond3_formula_valid=cond3,
        gi_matrix=c if cond3 else None,
        hypothesis_met=product < 1.0,
        norm_product=product,
    )
    return report, bar, norm_da


def stable_bounds(
    prepared: PreparedProblem, da, tol: ToleranceProfile = DEFAULT_TOL
) -> BoundReport:
    """Norm and difference bounds for pinv(A) under a stable perturbation dA.

    Only A matters here, with its SVD, ``||pinv(A)||`` taken from
    ``prepared``; for a bare matrix pass
    ``prepare(moore_penrose_problem(A))``.  The formula route projects the
    resolvent {1,2}-inverse, once cond3 has shown it is one, onto the row
    space / range of the perturbed matrix, read off the SVD of A + dA that
    the stability check took (the projection of
    :func:`~outerinv.outer_inverse.mp_via_12_inverse`); the oracle route is
    a direct SVD pseudoinverse of A + dA.  Bounds:

        ||pinv(A+dA)||           <= ||pinv(A)|| / (1 - ||pinv(A)|| ||dA||)
        ||pinv(A+dA) - pinv(A)|| <= golden_ratio * ||pinv(A+dA)||
                                     * ||pinv(A)|| * ||dA||
    """
    am = prepared.problem.A
    dam = as_matrix(da)
    report, bar, norm_da = _stability(am, prepared.factors, dam, tol)
    abar = am + dam
    ap = prepared.factors.pinv(tol)
    norm_ap = prepared.norm_pinv_A
    product = report.norm_product

    hyps = _LEMMA21.hypotheses(prepared, norm_E=norm_da) + (
        # Stability itself, encoded as 0 (stable) vs 1 (unstable).
        HypothesisStatus("stable_perturbation", 1.0, 0.0 if report.stable else 1.0),
    )

    c = report.gi_matrix
    formula = None if c is None else bar.pinv_from_12_inverse(c, tol)

    oracle = pinv(abar, tol)
    norm_actual = op_norm(oracle)
    diff_actual = op_norm(oracle - ap)
    norm_bound = norm_ap / (1.0 - product) if product < 1.0 else math.nan
    diff_bound = GOLDEN_RATIO * norm_actual * norm_ap * norm_da

    hyp_ok = all(h.satisfied for h in hyps)
    scale = 1.0 + norm_ap
    satisfied = (
        hyp_ok
        and _bounds_ok(norm_actual, norm_bound, scale)
        and _bounds_ok(diff_actual, diff_bound, scale)
    )
    return BoundReport(
        theorem=_LEMMA21.id,
        formula_result=formula,
        oracle_result=oracle,
        formula_vs_oracle_relerr=_relerr(formula, oracle, norm_actual),
        norm_bound=norm_bound,
        norm_actual=norm_actual,
        diff_bound=diff_bound,
        diff_actual=diff_actual,
        hypotheses=hyps,
        all_satisfied=satisfied,
    )


# ---------------------------------------------------------------------------
# Subspace and operator perturbations of the outer inverse
# ---------------------------------------------------------------------------


def gap_propagation(
    prepared: PreparedProblem,
    t_prime: Subspace,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> BoundReport:
    """How far the image A·T can move when T moves by a given gap.

    ``diff_actual`` = gap_hat(A·T, A·T'); ``diff_bound`` is
    ``k * gap / (1 - (1 + k) * gap)`` with ``k = ||A|| ||G||``, valid for
    ``gap < 1 / (1 + k)``.  There is no formula, oracle or norm bound:
    those fields are None / NaN.
    """
    problem = prepared.problem
    a = problem.A
    norm_a, norm_g = prepared.norm_A, prepared.norm_G
    gap = ss.gap_hat(problem.T, t_prime)
    hyps = _LEMMA31.hypotheses(prepared, gap_T=gap)

    actual = ss.gap_hat(image_of(a, problem.T, tol), image_of(a, t_prime, tol))
    kappa = norm_a * norm_g
    denom = 1.0 - (1.0 + kappa) * gap
    bound = kappa * gap / denom if denom > 0.0 else math.nan
    hyp_ok = all(h.satisfied for h in hyps)
    return BoundReport(
        theorem=_LEMMA31.id,
        formula_result=None,
        oracle_result=None,
        formula_vs_oracle_relerr=math.nan,
        norm_bound=math.nan,
        norm_actual=math.nan,
        diff_bound=bound,
        diff_actual=actual,
        hypotheses=hyps,
        all_satisfied=hyp_ok and _bounds_ok(actual, bound, 1.0 + norm_g),
    )


def _try_oracle(a, t: Subspace, s: Subspace, tol: ToleranceProfile):
    """``(oracle result, None)``, or ``(None, the exception)`` when the oracle refused."""
    try:
        return oracle_compute(OuterInverseProblem(a, t, s), tol), None
    except (ExistenceError, IllConditionedError) as exc:
        return None, exc


def _finish_report(
    spec: Theorem,
    formula: np.ndarray | None,
    oracle_run: tuple[np.ndarray | None, ExistenceError | IllConditionedError | None],
    prepared: PreparedProblem,
    norm_bound: float,
    diff_bound: float,
    hyps: tuple[HypothesisStatus, ...],
) -> BoundReport:
    oracle, refusal = oracle_run
    if oracle is not None:
        norm_actual = op_norm(oracle)
        diff_actual = op_norm(oracle - prepared.G)
    else:
        norm_actual = math.nan
        diff_actual = math.nan
    hyp_ok = all(h.satisfied for h in hyps)
    scale = 1.0 + prepared.norm_G
    satisfied = (
        hyp_ok
        and _bounds_ok(norm_actual, norm_bound, scale)
        and _bounds_ok(diff_actual, diff_bound, scale)
    )
    return BoundReport(
        theorem=spec.id,
        formula_result=formula,
        oracle_result=oracle,
        # norm_actual is ||oracle||.
        formula_vs_oracle_relerr=_relerr(formula, oracle, norm_actual),
        norm_bound=norm_bound,
        norm_actual=norm_actual,
        diff_bound=diff_bound,
        diff_actual=diff_actual,
        hypotheses=hyps,
        all_satisfied=satisfied,
        oracle_refusal=refusal,
    )


def perturb_T(
    prepared: PreparedProblem,
    t_prime: Subspace,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> BoundReport:
    """Perturbed range: closed form for A_{T',S}^(2) plus its bounds.

    Representation:
        G' = P_{T'} (I + G P_{S_perp} A (P_{T'} - P_T))^{-1} G P_{S_perp}
    Bounds (gap = gap_hat(T, T'), k = ||A|| ||G||):
        ||G'||      <= ||G|| / (1 - ||G|| ||A|| gap)
        ||G' - G||  <= golden_ratio * ||G'|| * ||G|| * ||A|| * gap
    """
    problem = prepared.problem
    g, a = prepared.G, problem.A
    n = a.shape[1]
    norm_a, norm_g = prepared.norm_A, prepared.norm_G
    gap = ss.gap_hat(problem.T, t_prime)
    hyps = _PROP31.hypotheses(prepared, gap_T=gap)

    p_t, p_s_perp = prepared.P_T, prepared.P_S_perp
    p_tp = ss.projector(t_prime)
    k1 = g @ p_s_perp @ a @ (p_tp - p_t)
    resolved = solve_square(np.eye(n, dtype=np.complex128) + k1, g, tol)
    formula = p_tp @ resolved @ p_s_perp

    oracle_run = _try_oracle(a, t_prime, problem.S, tol)
    denom = 1.0 - norm_g * norm_a * gap
    norm_bound = norm_g / denom if denom > 0.0 else math.nan
    diff_bound = GOLDEN_RATIO * op_norm(formula) * norm_g * norm_a * gap
    return _finish_report(_PROP31, formula, oracle_run, prepared, norm_bound, diff_bound, hyps)


def perturb_S(
    prepared: PreparedProblem,
    s_prime: Subspace,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> BoundReport:
    """Perturbed kernel: closed form for A_{T,S'}^(2) plus its bounds.

    Representation:
        G'' = P_T (I + G (P_{S'_perp} - P_{S_perp}) A P_T)^{-1} G P_{S'_perp}
    with the same bound shapes as :func:`perturb_T` in gap_hat(S, S').
    """
    problem = prepared.problem
    g, a = prepared.G, problem.A
    n = a.shape[1]
    norm_a, norm_g = prepared.norm_A, prepared.norm_G
    gap = ss.gap_hat(problem.S, s_prime)
    hyps = _PROP32.hypotheses(prepared, gap_S=gap)

    p_t, p_s_perp = prepared.P_T, prepared.P_S_perp
    p_sp_perp = ss.projector(ss.orthogonal_complement(s_prime))
    k = g @ (p_sp_perp - p_s_perp) @ a @ p_t
    resolved = solve_square(np.eye(n, dtype=np.complex128) + k, g, tol)
    formula = p_t @ resolved @ p_sp_perp

    oracle_run = _try_oracle(a, problem.T, s_prime, tol)
    denom = 1.0 - norm_g * norm_a * gap
    norm_bound = norm_g / denom if denom > 0.0 else math.nan
    diff_bound = GOLDEN_RATIO * op_norm(formula) * norm_g * norm_a * gap
    return _finish_report(_PROP32, formula, oracle_run, prepared, norm_bound, diff_bound, hyps)


def _ts_formula(
    prepared: PreparedProblem,
    t_prime: Subspace,
    s_prime: Subspace,
    tol: ToleranceProfile,
) -> np.ndarray:
    """The verbatim two-resolvent representation of A_{T',S'}^(2)."""
    g, a = prepared.G, prepared.problem.A
    n = a.shape[1]
    eye = np.eye(n, dtype=np.complex128)
    p_t, p_s_perp = prepared.P_T, prepared.P_S_perp
    p_tp = ss.projector(t_prime)
    p_sp_perp = ss.projector(ss.orthogonal_complement(s_prime))

    k1 = g @ p_s_perp @ a @ (p_tp - p_t)
    c = p_tp @ solve_square(eye + k1, g, tol)
    k2 = c @ (p_s_perp @ p_sp_perp - p_s_perp) @ a @ p_tp
    return p_tp @ solve_square(eye + k2, c @ p_s_perp @ p_sp_perp, tol)


def perturb_TS(
    prepared: PreparedProblem,
    t_prime: Subspace,
    s_prime: Subspace,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> BoundReport:
    """Range and kernel perturbed together.

    The representation nests the perturbed-range resolvent inside the
    perturbed-kernel correction, exactly as displayed (two solves, no
    algebraic simplification).  Bounds with d = gap_T + gap_S:
        ||G'||     <= ||G|| / (1 - ||G|| ||A|| d)
        ||G' - G|| <= golden_ratio * ||G||^2 ||A|| d / (1 - ||G|| ||A|| d)
    """
    problem = prepared.problem
    a = problem.A
    norm_a, norm_g = prepared.norm_A, prepared.norm_G
    gap_t = ss.gap_hat(problem.T, t_prime)
    gap_s = ss.gap_hat(problem.S, s_prime)
    hyps = _THM31.hypotheses(prepared, gap_T=gap_t, gap_S=gap_s)

    formula = _ts_formula(prepared, t_prime, s_prime, tol)
    oracle_run = _try_oracle(a, t_prime, s_prime, tol)

    gap_sum = gap_t + gap_s
    denom = 1.0 - norm_g * norm_a * gap_sum
    norm_bound = norm_g / denom if denom > 0.0 else math.nan
    diff_bound = (
        GOLDEN_RATIO * norm_g**2 * norm_a * gap_sum / denom if denom > 0.0 else math.nan
    )
    return _finish_report(_THM31, formula, oracle_run, prepared, norm_bound, diff_bound, hyps)


def perturb_A(
    prepared: PreparedProblem,
    e,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> BoundReport:
    """Operator perturbed: (A+E)_{T,S}^(2) via the resolvent identity.

    Left and right forms
        (I + G E)^{-1} G     and     G (I + E G)^{-1}
    are both evaluated and must agree; their common value is the
    perturbed inverse whenever ``||G|| ||E|| < 1``.  Bounds:
        ||G_new||     <= ||G|| / (1 - ||G|| ||E||)
        ||G_new - G|| <= ||G||^2 ||E|| / (1 - ||G|| ||E||)
    """
    problem = prepared.problem
    g, a = prepared.G, problem.A
    em = as_matrix(e)
    if em.shape != a.shape:
        raise ValueError(f"E has shape {em.shape}, expected {a.shape}")
    m, n = a.shape
    norm_g = prepared.norm_G
    norm_e = op_norm(em)
    hyps = _LEMMA32.hypotheses(prepared, norm_E=norm_e)

    left = solve_square(np.eye(n, dtype=np.complex128) + g @ em, g, tol)
    right = solve_square((np.eye(m, dtype=np.complex128) + em @ g).T, g.T, tol).T
    if not residual_within(left - right, left, tol.verify_atol):
        raise NumericalError(
            f"left and right resolvent forms disagree by {op_norm(left - right):.3e}"
        )
    formula = left

    oracle_run = _try_oracle(a + em, problem.T, problem.S, tol)
    product = norm_g * norm_e
    denom = 1.0 - product
    norm_bound = norm_g / denom if denom > 0.0 else math.nan
    diff_bound = norm_g**2 * norm_e / denom if denom > 0.0 else math.nan
    return _finish_report(_LEMMA32, formula, oracle_run, prepared, norm_bound, diff_bound, hyps)


def perturb_all(
    prepared: PreparedProblem,
    scenario: PerturbationScenario,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> BoundReport:
    """T, S and A all perturbed at once.

    ``scenario`` must be built on ``prepared.problem``; its measured gaps
    and ``||E||`` are reused.

    The representation applies the operator-perturbation resolvent to the
    combined subspace-perturbation formula.  With
    d = gap_T + gap_S and q = ||E|| + ||A|| d:
        ||G_new||     <= ||G|| / (1 - ||G|| q)
        ||G_new - G|| <= ||G||^2 (||E|| + golden_ratio ||A|| d)
                         / (1 - ||G|| q)
    """
    if scenario.base is not prepared.problem:
        raise ValueError("the scenario is not built on the prepared problem")
    a = prepared.problem.A
    n = a.shape[1]
    norm_a, norm_g = prepared.norm_A, prepared.norm_G
    gap_t, gap_s = scenario.measured_gap_T, scenario.measured_gap_S
    norm_e = scenario.norm_E
    hyps = _THM32.hypotheses(prepared, gap_T=gap_t, gap_S=gap_s, norm_E=norm_e)

    w = _ts_formula(prepared, scenario.T_prime, scenario.S_prime, tol)
    formula = solve_square(np.eye(n, dtype=np.complex128) + w @ scenario.E, w, tol)
    oracle_run = _try_oracle(a + scenario.E, scenario.T_prime, scenario.S_prime, tol)

    gap_sum = gap_t + gap_s
    denom = 1.0 - norm_g * (norm_e + norm_a * gap_sum)
    norm_bound = norm_g / denom if denom > 0.0 else math.nan
    diff_bound = (
        norm_g**2 * (norm_e + GOLDEN_RATIO * norm_a * gap_sum) / denom
        if denom > 0.0
        else math.nan
    )
    return _finish_report(_THM32, formula, oracle_run, prepared, norm_bound, diff_bound, hyps)
