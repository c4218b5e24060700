"""Outer generalized inverses with prescribed range and kernel.

The package computes the unique G with ``G A G = G``, ``range(G) = T``
and ``kernel(G) = S`` on finite-dimensional complex spaces, exposes the
classical special cases (Moore-Penrose, group, Drazin, Bott-Duffin), and
ships a verification harness that checks the closed-form perturbation
representations and error bounds for perturbed T, S and A against an
independent oracle.
"""

__version__ = "0.1.0"

from .numlin import (
    DEFAULT_TOL,
    IllConditionedError,
    NumericalError,
    SvdConvergenceError,
    SvdFactors,
    ToleranceProfile,
    op_norm,
    pinv,
    rank,
    solve_square,
    svd,
)
from .outer_inverse import (
    ExistenceCertificate,
    ExistenceError,
    OuterInverseProblem,
    OuterInverseResult,
    PreparedProblem,
    bott_duffin,
    classical_cases,
    column_space,
    compute,
    drazin,
    existence,
    group_inverse,
    image_of,
    kernel,
    moore_penrose,
    moore_penrose_problem,
    mp_via_12_inverse,
    oracle_compute,
    prepare,
    row_space,
)
from .perturbation import (
    BoundReport,
    GapPropagationReport,
    HypothesisStatus,
    PerturbationScenario,
    StableReport,
    gap_propagation,
    is_stable,
    perturb_A,
    perturb_S,
    perturb_T,
    perturb_TS,
    perturb_all,
    stable_bounds,
)
from .subspace import (
    ObliqueProjector,
    Subspace,
    complementedness_check,
    delta,
    direct_sum_is_whole,
    dist,
    from_spanning_set,
    gap_hat,
    intersection_trivial,
    oblique_projector,
    orthogonal_complement,
    projector,
)
from .instance_gen import (
    GenConfig,
    GeneratedInstance,
    GenerationError,
    generate,
    perturb_subspace_exact_gap,
    random_matrix_with_rank,
    random_subspace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
