"""Shared generators for the test suite, imported as ``helpers``.

They live outside ``conftest.py`` because the benchmark's own test
directory has a ``conftest.py`` too, and both are collected in one run.
"""

import math

import numpy as np
from hypothesis import strategies as st

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


def draw_gen_config(data, **ratios) -> ig.GenConfig:
    """A GenConfig drawn from a Hypothesis ``st.data()``, with ``ratios`` as given.

    Shapes up to 9x8 with any rank and dim T the generator accepts, and
    the edges the default campaign (6x5, rank 4, dim T 3) never reaches:
    m = n, dim T = rank A and dim T = n - 1.
    """
    edge = data.draw(st.sampled_from(["any", "m = n", "dim T = rank A", "dim T = n - 1"]))
    n = data.draw(st.integers(2, 8), label="n")
    m = n if edge == "m = n" else data.draw(st.integers(n if edge == "dim T = n - 1" else 2, 9))
    low = n - 1 if edge == "dim T = n - 1" else 1
    rank_a = data.draw(st.integers(low, min(m, n) - (edge == "dim T = rank A")), label="rank_A")
    if edge == "dim T = rank A":
        dim_t = rank_a
    elif edge == "dim T = n - 1":
        dim_t = n - 1
    else:
        dim_t = data.draw(st.integers(1, min(rank_a, n - 1, m - 1)), label="dim_T")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    return ig.GenConfig(seed=seed, m=m, n=n, rank_A=rank_a, dim_T=dim_t, **ratios)
