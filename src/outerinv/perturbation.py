"""Perturbation representations and error bounds for outer inverses.

The operations here answer, numerically, what happens to the outer
inverse A_{T,S}^(2) when the prescribed range T, the prescribed kernel S,
or the operator A itself moves a little:

* :func:`is_stable` / :func:`stable_bounds` handle the Moore-Penrose
  inverse under an operator perturbation that does not tilt the range
  into its old orthogonal complement (the "stable perturbation" regime),
  including the resolvent representation of the perturbed inverse and the
  classical norm/difference bounds with the golden-ratio constant.
  :func:`stable_bounds` runs on A's Moore-Penrose problem, whose prepared
  G and ``||G||`` are ``pinv(A)`` and ``||pinv(A)||``; :func:`is_stable`
  on bare matrices reads them from its own SVD of A.
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
each, and its norm and difference bounds.  The evaluators' hypotheses
and bounds, the ingredients their oracle is given, the instance
generator's targets and the harness's sweep axes are all read from it;
:func:`theorem` looks a record up by identifier.

The seven evaluators take one :class:`PerturbationScenario` and a
tolerance profile.  The scenario carries the
:class:`~outerinv.outer_inverse.PreparedProblem` of the base problem
(whose G, norms and projectors the evaluators reuse), the perturbed
ingredients T', S' and E, and their measured sizes.  The formula route of
each evaluator reads the perturbed ingredients its statement names; the
oracle of the five formula evaluators gets the perturbed ingredient for
each size in the record's ``limits`` and the base one otherwise.  A
caller holding a bare problem calls
:func:`~outerinv.outer_inverse.prepare` first (for the Moore-Penrose
checks, on :func:`~outerinv.outer_inverse.moore_penrose_problem`).  The
oracle routes take nothing from the prepared problem.

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
    _as_2d,
    as_matrix,
    op_norm,
    op_norm_at_most,
    residual_within,
    solve_square,
    svd,
)
from .outer_inverse import (
    ExistenceError,
    OuterInverseProblem,
    PreparedProblem,
    _image,
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


@dataclass(frozen=True, eq=False)
class PerturbationScenario:
    """A prepared base problem plus perturbed range, kernel and operator.

    T -> ``T_prime``, S -> ``S_prime`` and A -> A + ``E`` on
    ``prepared.problem``; an unperturbed ingredient is passed as it is (T,
    S, or a zero E).  The measured gaps and the perturbation norm are
    computed from the parts here, once, never trusted from input; the SVD
    that measures ``norm_E`` is E's finiteness check.
    """

    prepared: PreparedProblem
    T_prime: Subspace
    S_prime: Subspace
    E: np.ndarray
    measured_gap_T: float = field(init=False)
    measured_gap_S: float = field(init=False)
    norm_E: float = field(init=False)

    def __post_init__(self):
        base = self.prepared.problem
        e = _as_2d(self.E)
        if e.shape != base.A.shape:
            raise ValueError(f"E has shape {e.shape}, expected {base.A.shape}")
        if self.T_prime.ambient_dim != base.T.ambient_dim:
            raise ValueError("T' lives in a different ambient space than T")
        if self.S_prime.ambient_dim != base.S.ambient_dim:
            raise ValueError("S' lives in a different ambient space than S")
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "measured_gap_T", ss.gap_hat(base.T, self.T_prime))
        object.__setattr__(self, "measured_gap_S", ss.gap_hat(base.S, self.S_prime))
        object.__setattr__(self, "norm_E", op_norm(e))


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Record of one perturbation check: formula vs oracle vs bounds.

    ``all_satisfied`` is true when every hypothesis holds and both the
    norm and the difference inequality are met (within ``BOUND_SLACK``
    relative rounding slack).  Missing quantities (oracle unavailable,
    bound denominator nonpositive) are ``None`` / NaN.  When the oracle
    refused, ``oracle_refusal`` is its exception and the actuals, and any
    bound that reads ||G'||, are NaN: the bounds are checked on the
    oracle's result only, never on the formula they are meant to check.
    :attr:`violated` and :attr:`unchecked`, the report's verdict, read
    that convention here.
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
    def violated(self) -> bool:
        """Hypotheses held and a bound failed on measured (not NaN, refused) actuals."""
        return self.hypotheses_met and not self.all_satisfied and not math.isnan(self.diff_actual)

    @property
    def unchecked(self) -> bool:
        """Exactly one of the formula and the oracle route ran (lemma31 has neither)."""
        return (self.formula_result is None) != (self.oracle_result is None)

    @property
    def margin_norm(self) -> float:
        return self.norm_bound - self.norm_actual

    @property
    def margin_diff(self) -> float:
        return self.diff_bound - self.diff_actual


@dataclass(frozen=True, eq=False)
class StableReport:
    """The three equivalent characterizations of a stable perturbation.

    cond1: range(A + dA) meets range(A)-perp only at zero.
    cond2: the row space of A + dA meets kernel(A) only at zero.
    cond3: the resolvent formula ``pinv(A) (I + dA pinv(A))^{-1}`` is a
           {1,2}-inverse of A + dA; ``gi_matrix`` holds it then, and is
           None otherwise.

    ``norm_product`` is ``||pinv(A)|| ||dA||``.  Under ``norm_product < 1``
    the three agree; outside that regime ``hypothesis_met`` is false and
    no equivalence is claimed.
    """

    cond1: bool
    cond2: bool
    gi_matrix: np.ndarray | None
    norm_product: float

    @property
    def cond3_formula_valid(self) -> bool:
        return self.gi_matrix is not None

    @property
    def hypothesis_met(self) -> bool:
        return self.norm_product < 1.0


@dataclass(frozen=True)
class Theorem:
    """One verified statement: the hypothesis region it is checked in and its two bounds.

    ``limits`` maps each size the statement constrains (``"gap_T"`` =
    gap_hat(T, T'), ``"gap_S"`` = gap_hat(S, S'), ``"norm_E"`` = ||E||)
    to that size's strict upper bound, a function of the prepared base
    problem; :meth:`hypotheses` compares them with a scenario's measured
    sizes.  Sizes not in ``limits`` are left unperturbed by the instance
    generator, and a formula evaluator's oracle gets the base T, S or A
    for them.  ``moore_penrose`` marks a statement about pinv(A): the
    generator prepares A's Moore-Penrose problem (T = N(A)_perp, S =
    R(A)_perp, so G = pinv(A)) and draws ``E = B A``, which cannot change
    the rank of A.

    ``diff_bound`` bounds ||G' - G|| and ``norm_bound`` (None for Lemma
    3.1) ||G'||, as functions of the scenario and the oracle's ||G'||; NaN
    where a denominator is not positive.
    """

    id: str
    limits: Mapping[str, Callable[[PreparedProblem], float]]
    diff_bound: Callable[[PerturbationScenario, float], float]
    norm_bound: Callable[[PerturbationScenario, float], float] | None = None
    moore_penrose: bool = False

    def hypotheses(self, scenario: PerturbationScenario) -> tuple[HypothesisStatus, ...]:
        """``size < limit`` for each constrained size, at the scenario's measured sizes."""
        measured = {
            "gap_T": scenario.measured_gap_T,
            "gap_S": scenario.measured_gap_S,
            "norm_E": scenario.norm_E,
        }
        return tuple(
            HypothesisStatus(size, limit(scenario.prepared), measured[size])
            for size, limit in self.limits.items()
        )


def _kappa(p: PreparedProblem) -> float:
    return p.norm_A * p.norm_G


def _gap_limit_squared(p: PreparedProblem) -> float:
    return 1.0 / (1.0 + _kappa(p)) ** 2


def _reciprocal(x: float) -> float:
    # A zero norm (A = 0, or G = 0 for a trivial T) leaves ||E|| unconstrained.
    return 1.0 / x if x > 0.0 else math.inf


def _over(numerator: float, denom: float) -> float:
    # A bound whose denominator is not positive is not asserted: NaN.
    return numerator / denom if denom > 0.0 else math.nan


def _gap_sum(s: PerturbationScenario) -> float:
    return s.measured_gap_T + s.measured_gap_S


def _gap_denom(s: PerturbationScenario, gap: float) -> float:
    return 1.0 - s.prepared.norm_G * s.prepared.norm_A * gap


def _thm32_denom(s: PerturbationScenario) -> float:
    return 1.0 - s.prepared.norm_G * (s.norm_E + s.prepared.norm_A * _gap_sum(s))


def _operator_limit(p: PreparedProblem) -> float:
    return _reciprocal(p.norm_G)


def _operator_norm_bound(s: PerturbationScenario, gp: float) -> float:
    return _over(s.prepared.norm_G, 1.0 - s.prepared.norm_G * s.norm_E)


# The bounds read GOLDEN_RATIO when they are evaluated, and ``gp`` is ||G'||.

# Lemma 2.1: stable perturbation of G = pinv(A), ||G|| ||E|| < 1.
_LEMMA21 = Theorem(
    "lemma21",
    {"norm_E": _operator_limit},
    norm_bound=_operator_norm_bound,
    diff_bound=lambda s, gp: GOLDEN_RATIO * gp * s.prepared.norm_G * s.norm_E,
    moore_penrose=True,
)
# Lemma 3.1: gap propagation from T to A T, bounding gap_hat(A T, A T'); no norm bound.
_LEMMA31 = Theorem(
    "lemma31",
    {"gap_T": lambda p: 1.0 / (1.0 + _kappa(p))},
    diff_bound=lambda s, gp: _over(
        _kappa(s.prepared) * s.measured_gap_T,
        1.0 - (1.0 + _kappa(s.prepared)) * s.measured_gap_T,
    ),
)
# Proposition 3.1: perturbed range.
_PROP31 = Theorem(
    "prop31",
    {"gap_T": _gap_limit_squared},
    norm_bound=lambda s, gp: _over(s.prepared.norm_G, _gap_denom(s, s.measured_gap_T)),
    diff_bound=lambda s, gp: (
        GOLDEN_RATIO * gp * s.prepared.norm_G * s.prepared.norm_A * s.measured_gap_T
    ),
)
# Proposition 3.2: perturbed kernel.
_PROP32 = Theorem(
    "prop32",
    {"gap_S": lambda p: 1.0 / (2.0 + _kappa(p))},
    norm_bound=lambda s, gp: _over(s.prepared.norm_G, _gap_denom(s, s.measured_gap_S)),
    diff_bound=lambda s, gp: (
        GOLDEN_RATIO * gp * s.prepared.norm_G * s.prepared.norm_A * s.measured_gap_S
    ),
)
# Theorem 3.1: range and kernel perturbed together.
_THM31 = Theorem(
    "thm31",
    {"gap_T": _gap_limit_squared, "gap_S": _gap_limit_squared},
    norm_bound=lambda s, gp: _over(s.prepared.norm_G, _gap_denom(s, _gap_sum(s))),
    diff_bound=lambda s, gp: _over(
        GOLDEN_RATIO * s.prepared.norm_G**2 * s.prepared.norm_A * _gap_sum(s),
        _gap_denom(s, _gap_sum(s)),
    ),
)
# Lemma 3.2: operator perturbed, ||G|| ||E|| < 1.
_LEMMA32 = Theorem(
    "lemma32",
    {"norm_E": _operator_limit},
    norm_bound=_operator_norm_bound,
    diff_bound=lambda s, gp: _over(
        s.prepared.norm_G**2 * s.norm_E, 1.0 - s.prepared.norm_G * s.norm_E
    ),
)
# Theorem 3.2: range, kernel and operator perturbed together.
_THM32 = Theorem(
    "thm32",
    {
        "gap_T": _gap_limit_squared,
        "gap_S": _gap_limit_squared,
        "norm_E": lambda p: _reciprocal(p.norm_G * (1.0 + _kappa(p))),
    },
    norm_bound=lambda s, gp: _over(s.prepared.norm_G, _thm32_denom(s)),
    diff_bound=lambda s, gp: _over(
        s.prepared.norm_G**2 * (s.norm_E + GOLDEN_RATIO * s.prepared.norm_A * _gap_sum(s)),
        _thm32_denom(s),
    ),
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


def _satisfied(hyps: tuple[HypothesisStatus, ...], scale: float, *checks) -> bool:
    """Every hypothesis holds and every ``(actual, bound)`` pair meets its bound.

    The absolute floor ``BOUND_SLACK * scale``, with ``scale = 1 + ||G||``,
    lets a zero bound (zero perturbation) tolerate cross-route rounding
    noise; NaN fails.
    """
    return all(h.satisfied for h in hyps) and all(
        actual <= bound * (1.0 + BOUND_SLACK) + BOUND_SLACK * scale for actual, bound in checks
    )


def _relerr(formula: np.ndarray | None, oracle: np.ndarray | None, norm_oracle: float) -> float:
    # Absolute error when the oracle is zero; NaN when either route is missing.
    if formula is None or oracle is None:
        return math.nan
    diff = op_norm(formula - oracle)
    return diff / norm_oracle if norm_oracle > 0.0 else diff


def _report(
    spec: Theorem,
    scenario: PerturbationScenario,
    formula: np.ndarray | None,
    oracle: np.ndarray | None,
    norm_actual: float,
    diff_actual: float,
    extra_hypotheses: tuple[HypothesisStatus, ...] = (),
    refusal: ExistenceError | IllConditionedError | None = None,
) -> BoundReport:
    """The one constructor of a :class:`BoundReport`: ``spec``'s record against the actuals.

    ``norm_actual`` = ||G'|| and ``diff_actual`` = ||G' - G|| are read from
    ``oracle`` (NaN when it refused), and the bounds read that ||G'||.
    """
    hyps = spec.hypotheses(scenario) + extra_hypotheses
    diff_bound = spec.diff_bound(scenario, norm_actual)
    checks = [(diff_actual, diff_bound)]
    norm_bound = math.nan
    if spec.norm_bound is not None:
        norm_bound = spec.norm_bound(scenario, norm_actual)
        checks.append((norm_actual, norm_bound))
    return BoundReport(
        theorem=spec.id,
        formula_result=formula,
        oracle_result=oracle,
        formula_vs_oracle_relerr=_relerr(formula, oracle, norm_actual),
        norm_bound=norm_bound,
        norm_actual=norm_actual,
        diff_bound=diff_bound,
        diff_actual=diff_actual,
        hypotheses=hyps,
        all_satisfied=_satisfied(hyps, 1.0 + scenario.prepared.norm_G, *checks),
        oracle_refusal=refusal,
    )


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
    dam = as_matrix(da)
    if dam.shape != am.shape:
        raise ValueError(f"dA has shape {dam.shape}, expected {am.shape}")
    factors = svd(am)
    range_perp = Subspace._trusted(factors.left_vectors[:, factors.rank(tol) :])
    cond1, c, bar = _stability(am, range_perp, factors.pinv(tol), dam, tol)
    row_space_bar = Subspace._trusted(bar.right_vectors[:, : bar.rank(tol)])
    cond2 = ss.intersection_trivial(row_space_bar, kernel_from_svd(factors, tol), tol)
    norm_product = factors.pinv_norm(tol) * op_norm(dam)
    return StableReport(cond1=cond1, cond2=cond2, gi_matrix=c, norm_product=norm_product)


def _stability(
    a, range_perp: Subspace, ap, da, tol: ToleranceProfile
) -> tuple[bool, np.ndarray | None, SvdFactors]:
    """cond1, the resolvent {1,2}-inverse (None unless cond3 holds) and SVD(A + dA).

    For checked same-shape A and dA, given R(A)_perp and pinv(A).
    """
    abar = a + da
    c = _resolvent_gi(ap, da, tol)

    # The range of A + dA against the complement of the range of A.
    bar = svd(abar)
    cond1 = ss.intersection_trivial(
        Subspace._trusted(bar.left_vectors[:, : bar.rank(tol)]), range_perp, tol
    )

    cond3 = c is not None and (
        op_norm_at_most(abar @ c @ abar - abar, tol.verify_atol * (1.0 + bar.norm))
        and residual_within(c @ abar @ c - c, c, tol.verify_atol)
    )
    return cond1, c if cond3 else None, bar


def _require_moore_penrose(prepared: PreparedProblem, tol: ToleranceProfile) -> None:
    """ValueError unless ``prepared`` is A's Moore-Penrose problem, so that G = pinv(A).

    ``A - P_S_perp A = P_S A`` vanishes iff S lies in R(A)_perp, and ``A -
    A P_T`` iff N(A)_perp lies in T.  The outer inverse exists, so N(A)
    meets T trivially and dim S = m - dim T; the two inclusions are then
    equalities.  Each residual may be ``verify_atol (1 + ||A||)`` of
    rounding plus the singular values that the rank rule truncates, at
    most ``rank_rtol ||A||``; so at a coarse ``rank_rtol`` G is the
    truncated pinv(A) that :meth:`~outerinv.numlin.SvdFactors.pinv` gives.
    The Frobenius certificate of :func:`op_norm_at_most` decides both
    residuals of a Moore-Penrose problem without an SVD.
    """
    a = prepared.problem.A
    limit = tol.verify_atol * (1.0 + prepared.norm_A)
    limit += tol.effective_rank_rtol(a.shape) * prepared.norm_A
    if not (
        op_norm_at_most(a - prepared.P_S_perp @ a, limit)
        and op_norm_at_most(a - a @ prepared.P_T, limit)
    ):
        raise ValueError(
            "stable_bounds needs the Moore-Penrose problem of A (T = N(A)_perp, "
            "S = R(A)_perp): build it with moore_penrose_problem"
        )


def stable_bounds(
    scenario: PerturbationScenario, tol: ToleranceProfile = DEFAULT_TOL
) -> BoundReport:
    """Lemma 2.1: pinv(A) under a stable perturbation dA = E, against its record's bounds.

    The scenario is built on A's Moore-Penrose problem,
    ``prepare(moore_penrose_problem(A))``, so ``prepared.G`` is pinv(A),
    ``prepared.norm_G`` is ``||pinv(A)||`` and the problem's S is
    R(A)_perp; :func:`_require_moore_penrose` checks that, and this check
    takes no SVD of A.  It reads cond1 (an extra hypothesis) and cond3's
    resolvent {1,2}-inverse, and builds no :class:`StableReport`.  The
    formula route projects that {1,2}-inverse onto pinv(A + dA)
    (:meth:`~outerinv.numlin.SvdFactors.pinv_from_12_inverse`); the oracle
    route is the SVD pseudoinverse of A + dA.  Both use the SVD of A + dA
    that the stability check took.
    """
    prepared = scenario.prepared
    am, ap = prepared.problem.A, prepared.G
    _require_moore_penrose(prepared, tol)
    cond1, c, bar = _stability(am, prepared.problem.S, ap, scenario.E, tol)

    formula = None if c is None else bar.pinv_from_12_inverse(c, tol)
    oracle = bar.pinv(tol)
    # Stability itself, encoded as 0 (stable) vs 1 (unstable).
    stable = HypothesisStatus("stable_perturbation", 1.0, 0.0 if cond1 else 1.0)
    return _report(
        _LEMMA21, scenario, formula, oracle, bar.pinv_norm(tol), op_norm(oracle - ap), (stable,)
    )


# ---------------------------------------------------------------------------
# Subspace and operator perturbations of the outer inverse
# ---------------------------------------------------------------------------


def gap_propagation(
    scenario: PerturbationScenario, tol: ToleranceProfile = DEFAULT_TOL
) -> BoundReport:
    """How far the image A·T can move when T moves to T' by a given gap.

    ``diff_actual`` = gap_hat(A·T, A·T'), against the bound of Lemma
    3.1's :data:`REGISTRY` record.  Both images are built here, from the
    prepared problem's A, which is already owned and checked.  There is
    no formula, oracle or norm bound: those fields are None / NaN.
    """
    base = scenario.prepared.problem
    actual = ss.gap_hat(_image(base.A, base.T, tol), _image(base.A, scenario.T_prime, tol))
    return _report(_LEMMA31, scenario, None, None, math.nan, actual)


def _check(
    spec: Theorem,
    scenario: PerturbationScenario,
    formula: np.ndarray,
    tol: ToleranceProfile,
) -> BoundReport:
    """The report of ``spec``: ``formula`` against the oracle, the oracle against the bounds.

    The oracle is given the perturbed ingredient (A + E, T', S') for each
    size that ``spec.limits`` names, and the base ingredient otherwise.
    A + E, a sum of two checked matrices, goes in unscanned like the base
    A; the oracle's SVD guard refuses a sum that overflowed.
    """
    prepared = scenario.prepared
    base = prepared.problem
    limits = spec.limits
    t = scenario.T_prime if "gap_T" in limits else base.T
    s = scenario.S_prime if "gap_S" in limits else base.S
    a = base.A + scenario.E if "norm_E" in limits else base.A
    a.flags.writeable = False
    try:
        oracle = oracle_compute(OuterInverseProblem._trusted(a, t, s), tol)
    except (ExistenceError, IllConditionedError) as exc:
        return _report(spec, scenario, formula, None, math.nan, math.nan, refusal=exc)
    norm_actual, diff_actual = op_norm(oracle), op_norm(oracle - prepared.G)
    return _report(spec, scenario, formula, oracle, norm_actual, diff_actual)


def _range_resolvent(
    scenario: PerturbationScenario, p_tp: np.ndarray, tol: ToleranceProfile
) -> np.ndarray:
    """``P_{T'} (I + G P_{S_perp} A (P_{T'} - P_T))^{-1} G``, given ``P_{T'}``."""
    prepared = scenario.prepared
    g, a = prepared.G, prepared.problem.A
    k1 = g @ prepared.P_S_perp @ a @ (p_tp - prepared.P_T)
    return p_tp @ solve_square(np.eye(a.shape[1], dtype=np.complex128) + k1, g, tol)


def perturb_T(
    scenario: PerturbationScenario, tol: ToleranceProfile = DEFAULT_TOL
) -> BoundReport:
    """Perturbed range: closed form for A_{T',S}^(2), checked against Proposition 3.1.

    Representation:
        G' = P_{T'} (I + G P_{S_perp} A (P_{T'} - P_T))^{-1} G P_{S_perp}
    """
    p_tp = ss.projector(scenario.T_prime)
    formula = _range_resolvent(scenario, p_tp, tol) @ scenario.prepared.P_S_perp
    return _check(_PROP31, scenario, formula, tol)


def perturb_S(
    scenario: PerturbationScenario, tol: ToleranceProfile = DEFAULT_TOL
) -> BoundReport:
    """Perturbed kernel: closed form for A_{T,S'}^(2), checked against Proposition 3.2.

    Representation:
        G'' = P_T (I + G (P_{S'_perp} - P_{S_perp}) A P_T)^{-1} G P_{S'_perp}
    """
    prepared = scenario.prepared
    g, a, p_t = prepared.G, prepared.problem.A, prepared.P_T
    p_sp_perp = ss.projector(ss.orthogonal_complement(scenario.S_prime))
    k = g @ (p_sp_perp - prepared.P_S_perp) @ a @ p_t
    resolved = solve_square(np.eye(a.shape[1], dtype=np.complex128) + k, g, tol)
    formula = p_t @ resolved @ p_sp_perp
    return _check(_PROP32, scenario, formula, tol)


def _ts_formula(scenario: PerturbationScenario, tol: ToleranceProfile) -> np.ndarray:
    """The verbatim two-resolvent representation of A_{T',S'}^(2)."""
    prepared = scenario.prepared
    a, p_s_perp = prepared.problem.A, prepared.P_S_perp
    p_tp = ss.projector(scenario.T_prime)
    p_sp_perp = ss.projector(ss.orthogonal_complement(scenario.S_prime))

    c = _range_resolvent(scenario, p_tp, tol)
    k2 = c @ (p_s_perp @ p_sp_perp - p_s_perp) @ a @ p_tp
    eye = np.eye(a.shape[1], dtype=np.complex128)
    return p_tp @ solve_square(eye + k2, c @ p_s_perp @ p_sp_perp, tol)


def perturb_TS(
    scenario: PerturbationScenario, tol: ToleranceProfile = DEFAULT_TOL
) -> BoundReport:
    """Range and kernel perturbed together, checked against Theorem 3.1.

    The representation nests the perturbed-range resolvent inside the
    perturbed-kernel correction, exactly as displayed (two solves, no
    algebraic simplification).
    """
    return _check(_THM31, scenario, _ts_formula(scenario, tol), tol)


def perturb_A(
    scenario: PerturbationScenario, tol: ToleranceProfile = DEFAULT_TOL
) -> BoundReport:
    """Operator perturbed: (A+E)_{T,S}^(2) via the resolvent identity.

    Left and right forms
        (I + G E)^{-1} G     and     G (I + E G)^{-1}
    are both evaluated and must agree; their common value is the
    perturbed inverse whenever ``||G|| ||E|| < 1`` (Lemma 3.2).
    """
    g, em = scenario.prepared.G, scenario.E
    m, n = em.shape

    left = solve_square(np.eye(n, dtype=np.complex128) + g @ em, g, tol)
    right = solve_square((np.eye(m, dtype=np.complex128) + em @ g).T, g.T, tol).T
    if not residual_within(left - right, left, tol.verify_atol):
        raise NumericalError(
            f"left and right resolvent forms disagree by {op_norm(left - right):.3e}"
        )
    return _check(_LEMMA32, scenario, left, tol)


def perturb_all(
    scenario: PerturbationScenario, tol: ToleranceProfile = DEFAULT_TOL
) -> BoundReport:
    """T, S and A all perturbed at once, checked against Theorem 3.2.

    The representation applies the operator-perturbation resolvent to the
    combined subspace-perturbation formula.
    """
    w = _ts_formula(scenario, tol)
    eye = np.eye(w.shape[0], dtype=np.complex128)
    formula = solve_square(eye + w @ scenario.E, w, tol)
    return _check(_THM32, scenario, formula, tol)
