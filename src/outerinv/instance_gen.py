"""Reproducible random generation of feasible perturbation scenarios.

Instances are manufactured, not rejection-sampled: matrices get exact
prescribed rank from an SVD-style construction, subspace perturbations
rotate a single basis vector by an angle chosen so the resulting gap is
analytically ``sin(theta)``, and operator perturbations are scaled
directly to the requested norm.  That makes hypothesis targeting exact
and keeps every emitted instance strictly inside its theorem's
hypothesis region.  Which sizes a theorem perturbs, the limit each
target ratio is a fraction of, and whether its base problem is A's
Moore-Penrose problem (Lemma 2.1, whose G is then ``pinv(A)`` and
``||G||`` is ``||pinv(A)||``) come from its record in
:data:`outerinv.perturbation.REGISTRY`.  :func:`generate` returns the
:class:`~outerinv.perturbation.PerturbationScenario` itself, after
rejecting any draw whose hypotheses sit within
``HYPOTHESIS_GUARD_BAND`` of their thresholds; a caller that wants the
hypothesis statuses asks the theorem's record for them.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a
seed determines an instance byte-for-byte on one numpy/BLAS build run
with one BLAS thread count.  The thread count matters at large shapes:
:func:`perturb_subspace_exact_gap` draws its direction in the
coordinates of an orthogonal complement's SVD basis, which LAPACK may
pick differently per thread count.
Parallel trials derive their seeds by the documented splitting rule
implemented in :func:`derive_trial_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import subspace as ss
from .numlin import DEFAULT_TOL, ToleranceProfile, op_norm
from .outer_inverse import (
    ExistenceError,
    OuterInverseProblem,
    PreparedProblem,
    _moore_penrose_problem,
    prepare,
)
from .perturbation import REGISTRY, PerturbationScenario
from .perturbation import theorem as theorem_record  # ``theorem`` names generate's argument
from .subspace import Subspace

__all__ = [
    "RNG_IDENTIFIER",
    "THEOREMS",
    "TARGET_FIELDS",
    "GenConfig",
    "GenerationError",
    "derive_trial_seed",
    "random_matrix_with_rank",
    "random_subspace",
    "perturb_subspace_exact_gap",
    "generate",
]

RNG_IDENTIFIER = "numpy.random.Generator(PCG64)"

THEOREMS = tuple(REGISTRY)

# The GenConfig ratio that targets each perturbed size.
TARGET_FIELDS = {
    "gap_T": "target_gap_T",
    "gap_S": "target_gap_S",
    "norm_E": "target_norm_E_ratio",
}

# Instances whose observed hypothesis value lands within this relative
# band below the threshold are rejected as numerically ambiguous.
HYPOTHESIS_GUARD_BAND = 1e-10

_MASK64 = (1 << 64) - 1


class GenerationError(RuntimeError):
    """Instance generation exhausted its retries.

    ``failure_counts`` maps the violated condition to how often it fired.
    """

    def __init__(self, message: str, failure_counts: dict[str, int]):
        super().__init__(f"{message}; failures: {failure_counts}")
        self.failure_counts = failure_counts


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (pure integer, cross-platform)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def derive_trial_seed(seed: int, label: str, trial_index: int) -> int:
    """Per-trial seed: ``seed XOR splitmix64(fnv1a64(label) XOR index)``.

    Deterministic, cross-platform, and collision-free enough that trials
    within a campaign never share an RNG stream.
    """
    return (seed ^ _splitmix64(_fnv1a64(label) ^ (trial_index & _MASK64))) & _MASK64


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one generated scenario.

    The three ``target_*`` values are ratios in [0, 1): the achieved gap
    (or perturbation norm) is that fraction of the relevant theorem's
    hypothesis threshold, so any ratio below one yields a
    hypothesis-satisfying instance by construction.
    """

    seed: int
    m: int = 6
    n: int = 5
    rank_A: int = 4
    dim_T: int = 3
    target_gap_T: float = 0.5
    target_gap_S: float = 0.5
    target_norm_E_ratio: float = 0.5
    max_retries: int = 50

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.m < 2 or self.n < 2:
            raise ValueError("need at least 2x2 matrices")
        if not (1 <= self.rank_A <= min(self.m, self.n)):
            raise ValueError(f"rank_A={self.rank_A} infeasible for {self.m}x{self.n}")
        if not (1 <= self.dim_T <= min(self.rank_A, self.n - 1, self.m - 1)):
            raise ValueError(
                f"dim_T={self.dim_T} must lie in [1, min(rank_A, n-1, m-1)]"
            )
        for name in TARGET_FIELDS.values():
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def random_matrix_with_rank(
    m: int, n: int, r: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact-rank matrix ``U diag(s) V*`` with s drawn from [0.5, 2].

    Keeping the singular values inside [0.5, 2] leaves them more than
    three orders of magnitude above the default truncation threshold.
    """
    if not (0 <= r <= min(m, n)):
        raise ValueError(f"rank {r} infeasible for {m}x{n}")
    if r == 0:
        return np.zeros((m, n), dtype=np.complex128)
    u, _ = np.linalg.qr(_complex_gaussian(rng, (m, r)))
    v, _ = np.linalg.qr(_complex_gaussian(rng, (n, r)))
    s = rng.uniform(0.5, 2.0, size=r)
    return (u * s) @ v.conj().T


def random_subspace(ambient: int, dim: int, rng: np.random.Generator) -> Subspace:
    """Haar-ish random subspace via QR of a complex Gaussian matrix."""
    if not (0 <= dim <= ambient):
        raise ValueError(f"dim {dim} infeasible in ambient {ambient}")
    if dim == 0:
        return Subspace._trusted(np.zeros((ambient, 0), dtype=np.complex128))
    q, _ = np.linalg.qr(_complex_gaussian(rng, (ambient, dim)))
    return Subspace._trusted(q)


def perturb_subspace_exact_gap(
    v: Subspace, theta: float, rng: np.random.Generator
) -> Subspace:
    """Rotate one basis vector of V toward V-perp by angle theta.

    The rotation happens in a single plane, so the gap between V and the
    result is exactly ``sin(theta)``.  Requires 0 < dim(V) < ambient;
    theta ranges over [0, pi/2], the endpoints giving gap 0 and 1.
    """
    if not (0.0 <= theta <= math.pi / 2.0):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    if v.dim == 0 or v.dim == v.ambient_dim:
        raise ValueError("cannot rotate a trivial or full subspace (no room)")
    comp = ss.orthogonal_complement(v)
    coeffs = _complex_gaussian(rng, (comp.dim,))
    w = comp.basis @ (coeffs / np.linalg.norm(coeffs))
    j = int(rng.integers(v.dim))
    basis = v.basis.copy()
    basis[:, j] = math.cos(theta) * v.basis[:, j] + math.sin(theta) * w
    # w is a unit vector orthogonal to V, so the basis stays orthonormal.
    return Subspace._trusted(basis)


def _draw_feasible_problem(
    config: GenConfig,
    rng: np.random.Generator,
    tol: ToleranceProfile,
    failures,
    moore_penrose: bool = False,
) -> PreparedProblem | None:
    """Draw (A, T, S), or A's Moore-Penrose problem, and prepare it.

    Returns the prepared problem, or None (with the failed existence
    condition counted in ``failures``) when the draw is infeasible.
    """
    a = random_matrix_with_rank(config.m, config.n, config.rank_A, rng)
    a.flags.writeable = False  # finite complex128 by construction; the problem owns it
    # The Moore-Penrose pair discards T and S.  They are still drawn so
    # that every theorem keeps the random stream its reference reports
    # were written from; the generator's planned re-capture (ROADMAP.md,
    # item 10) removes this draw.
    t = random_subspace(config.n, config.dim_T, rng)
    s = random_subspace(config.m, config.m - config.dim_T, rng)
    if moore_penrose:
        problem = _moore_penrose_problem(a, tol)
    else:
        problem = OuterInverseProblem._trusted(a, t, s)
    try:
        return prepare(problem, tol)
    except ExistenceError as exc:
        kernel_ok = exc.certificate.kernel_meets_T_trivially
        failures["direct_sum" if kernel_ok else "kernel_meets_T"] += 1
        return None


def _build_perturbation_E(
    a: np.ndarray, target: float, rank_preserving: bool, rng: np.random.Generator
) -> np.ndarray:
    if target == 0.0:
        return np.zeros_like(a)
    if rank_preserving:
        # E = B A keeps rank(A + E) = rank(A): the product cannot raise the
        # rank, and ||E|| below 1/||pinv(A)|| cannot lower it.
        direction = _complex_gaussian(rng, (a.shape[0], a.shape[0])) @ a
    else:
        direction = _complex_gaussian(rng, a.shape)
    return direction * (target / op_norm(direction))


def generate(
    config: GenConfig,
    theorem: str,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> PerturbationScenario:
    """One feasible, hypothesis-satisfying scenario for the given theorem.

    Deterministic in ``config``: the same seed yields the same instance,
    byte-for-byte after serialization, on the same numpy/BLAS build and
    BLAS thread count.  Raises
    :class:`GenerationError` with per-condition failure counts if
    ``max_retries`` draws never produce a feasible instance.
    """
    spec = theorem_record(theorem)
    rng = np.random.default_rng(config.seed)
    failures: dict[str, int] = {
        "kernel_meets_T": 0,
        "direct_sum": 0,
        "hypothesis_band": 0,
    }
    for _ in range(config.max_retries):
        prepared = _draw_feasible_problem(config, rng, tol, failures, spec.moore_penrose)
        if prepared is None:
            continue
        problem = prepared.problem
        target = {
            size: getattr(config, TARGET_FIELDS[size]) * limit(prepared)
            for size, limit in spec.limits.items()
        }

        t_prime = problem.T
        if target.get("gap_T", 0.0) > 0.0:
            t_prime = perturb_subspace_exact_gap(problem.T, math.asin(target["gap_T"]), rng)
        s_prime = problem.S
        if target.get("gap_S", 0.0) > 0.0:
            s_prime = perturb_subspace_exact_gap(problem.S, math.asin(target["gap_S"]), rng)
        e = _build_perturbation_E(
            problem.A, target.get("norm_E", 0.0), spec.moore_penrose, rng
        )

        scenario = PerturbationScenario(prepared, t_prime, s_prime, e)
        statuses = spec.hypotheses(scenario)
        # Reject anything inside the numerical-ambiguity band below the
        # threshold: the theorems are strict inequalities.
        if not all(
            h.observed <= h.threshold * (1.0 - HYPOTHESIS_GUARD_BAND) for h in statuses
        ):
            failures["hypothesis_band"] += 1
            continue
        return scenario
    raise GenerationError(
        f"no feasible instance for {theorem} after {config.max_retries} draws",
        failures,
    )
