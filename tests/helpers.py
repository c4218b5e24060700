"""Shared generators for the test suite, imported as ``helpers``.

They live outside ``conftest.py`` because the benchmark's own test
directory has a ``conftest.py`` too, and both are collected in one run.
"""

import math

import numpy as np

from outerinv import instance_gen as ig
from outerinv import subspace as ss
from outerinv.outer_inverse import OuterInverseProblem, existence, prepare
from outerinv.perturbation import PerturbationScenario


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def random_feasible_problem(rng, m=None, n=None, rank_a=None, dim_t=None, max_draws=200):
    """A random (A, T, S) for which the outer inverse exists."""
    for _ in range(max_draws):
        mm = int(m if m is not None else rng.integers(2, 13))
        nn = int(n if n is not None else rng.integers(2, 13))
        r = int(rank_a if rank_a is not None else rng.integers(1, min(mm, nn) + 1))
        t_dim = int(dim_t if dim_t is not None else rng.integers(1, min(r, mm) + 1))
        if t_dim > mm:
            continue
        a = ig.random_matrix_with_rank(mm, nn, r, rng)
        t = ig.random_subspace(nn, t_dim, rng)
        s = ig.random_subspace(mm, mm - t_dim, rng)
        problem = OuterInverseProblem(a, t, s)
        if existence(problem).exists:
            return problem
    raise RuntimeError("failed to draw a feasible problem")


def line(*coords) -> ss.Subspace:
    """One-dimensional subspace spanned by the given vector."""
    v = np.asarray(coords, dtype=np.complex128).reshape(-1, 1)
    return ss.from_spanning_set(v)


def scenario(problem, *, T_prime=None, S_prime=None, E=None) -> PerturbationScenario:
    """``problem`` prepared, perturbed in the ingredients given; T, S and A stay otherwise."""
    return PerturbationScenario(
        prepare(problem),
        problem.T if T_prime is None else T_prime,
        problem.S if S_prime is None else S_prime,
        np.zeros_like(problem.A) if E is None else E,
    )

