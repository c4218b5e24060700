"""Where input is checked: public entry points reject bad data, internal producers are trusted.

Finiteness is checked where a matrix enters the package (``as_matrix``)
and, inside ``numlin``, right before LAPACK factors an array.  A basis is
checked by the public ``Subspace`` constructor; the package's own QR and
SVD producers build through ``Subspace._trusted`` without the check, so
their output must pass that check anyway.  Either way the subspace owns
its basis, read-only.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from outerinv import harness_cli, instance_gen, numlin, perturbation
from outerinv import outer_inverse as oi
from outerinv import subspace as ss
from outerinv.harness_cli import CampaignConfig, campaign_exit_code, main, run_campaign

from helpers import complex_gaussian, random_feasible_problem

NONFINITE = {
    "nan": complex(math.nan, 0.0),
    "+inf": complex(math.inf, 0.0),
    "-inf": complex(-math.inf, 0.0),
    "inf_imag": complex(0.0, math.inf),
}


def _rect():
    return np.arange(30.0).reshape(6, 5) / 30.0 + 1j * np.eye(6, 5)


def _square():
    return np.eye(5, dtype=complex) + 0.1 * np.ones((5, 5))


def _basis():
    return np.linalg.qr(complex_gaussian(np.random.default_rng(3), (6, 2)))[0]


def _problem():
    return random_feasible_problem(np.random.default_rng(4), m=6, n=5, rank_a=4, dim_t=3)


def _problem_with(a):
    p = _problem()
    return oi.OuterInverseProblem(a, p.T, p.S)


def _scenario_with(e):
    prepared = oi.prepare(_problem())
    p = prepared.problem
    return perturbation.PerturbationScenario(prepared, p.T, p.S, e)


# name -> (call, finite default arguments).  Each case poisons one argument.
ENTRY_POINTS = {
    "numlin.as_matrix": (numlin.as_matrix, lambda: [_rect()]),
    "numlin.svd": (numlin.svd, lambda: [_rect()]),
    "numlin.pinv": (numlin.pinv, lambda: [_rect()]),
    "numlin.op_norm": (numlin.op_norm, lambda: [_rect()]),
    "numlin.op_norm_at_most": (lambda a: numlin.op_norm_at_most(a, 100.0), lambda: [_rect()]),
    "numlin.residual_within": (
        lambda r, b: numlin.residual_within(r, b, 1e-8),
        lambda: [1e-12 * _rect(), _rect()],
    ),
    "numlin.rank": (numlin.rank, lambda: [_rect()]),
    "numlin.cond": (numlin.cond, lambda: [_square()]),
    "numlin.solve_square": (numlin.solve_square, lambda: [_square(), _rect()[:5]]),
    "numlin.matrix_to_obj": (numlin.matrix_to_obj, lambda: [_rect()]),
    "subspace.Subspace": (ss.Subspace, lambda: [_basis()]),
    "subspace.from_spanning_set": (ss.from_spanning_set, lambda: [_rect()]),
    "outer_inverse.OuterInverseProblem": (_problem_with, lambda: [_problem().A]),
    "outer_inverse.kernel": (oi.kernel, lambda: [_rect()]),
    "outer_inverse.column_space": (oi.column_space, lambda: [_rect()]),
    "outer_inverse.row_space": (oi.row_space, lambda: [_rect()]),
    "outer_inverse.image_of": (lambda a: oi.image_of(a, _problem().T), lambda: [_problem().A]),
    "outer_inverse.moore_penrose_problem": (oi.moore_penrose_problem, lambda: [_rect()]),
    "perturbation.is_stable": (perturbation.is_stable, lambda: [_rect(), 1e-3 * _rect()]),
    "perturbation.PerturbationScenario": (_scenario_with, lambda: [1e-3 * _problem().A]),
}

CASES = [
    pytest.param(name, index, kind, id=f"{name}[{index}]-{kind}")
    for name, (_, defaults) in ENTRY_POINTS.items()
    for index in range(len(defaults()))
    for kind in NONFINITE
]


@pytest.mark.parametrize("name, index, kind", CASES)
def test_entry_point_rejects_a_nonfinite_argument(name, index, kind):
    call, defaults = ENTRY_POINTS[name]
    args = defaults()
    call(*args)  # the finite arguments are accepted
    poisoned = np.array(args[index], dtype=complex)
    poisoned[1, 1] = NONFINITE[kind]
    args[index] = poisoned
    with pytest.raises(ValueError, match="finite") as err:
        call(*args)
    assert isinstance(err.value, numlin.NumericalError)


def test_oracle_refuses_an_overflowed_sum():
    # A trial's oracle takes A + E unscanned, as the sum of two checked
    # matrices; one that overflowed is refused before the oracle's SVD.
    p = _problem()
    a = p.A.copy()
    a[1, 1] = 1.5e308
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = a + a
        with pytest.raises(numlin.NonFiniteError):
            oi.oracle_compute(oi.OuterInverseProblem._trusted(overflowed, p.T, p.S))


def test_certificates_need_a_finite_threshold():
    # An infinite b or limit would certify anything under the Frobenius
    # bound; the spectral test decides (and rejects) instead.
    r = np.full((2, 2), math.inf, dtype=complex)
    with pytest.raises(numlin.NonFiniteError):
        numlin.op_norm_at_most(r, math.inf)
    b = np.eye(2, dtype=complex)
    b[0, 1] = math.inf
    with pytest.raises(numlin.NonFiniteError):
        numlin.residual_within(np.zeros((2, 2)), b, 1e-8)


NOT_ORTHONORMAL = {
    "unnormalized": np.array([[1.0], [1.0], [0.0]]),
    "dependent": np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
    "skewed": np.array([[1.0, 0.6], [0.0, 0.8], [0.0, 0.1]]),
}


@pytest.mark.parametrize("basis", sorted(NOT_ORTHONORMAL))
def test_public_constructor_rejects_a_nonorthonormal_basis(basis):
    with pytest.raises(ValueError, match="orthonormal"):
        ss.Subspace(NOT_ORTHONORMAL[basis])


@pytest.mark.parametrize(
    "basis, message",
    [
        (np.zeros((0, 0)), "at least one row"),
        (np.zeros((0, 2)), "at least one row"),
        (np.ones(3), "2-d"),
        (np.ones((3, 1, 1)), "2-d"),
    ],
    ids=["0x0", "0x2", "1-d", "3-d"],
)
def test_public_constructor_rejects_a_basis_of_the_wrong_shape(basis, message):
    with pytest.raises(ValueError, match=message):
        ss.Subspace(basis)


def _trusted_outputs(rng):
    """One output of every producer that builds through ``Subspace._trusted``."""
    m, n = (int(k) for k in rng.integers(2, 9, size=2))
    r = int(rng.integers(1, min(m, n) + 1))
    a = instance_gen.random_matrix_with_rank(m, n, r, rng)
    v = instance_gen.random_subspace(m, int(rng.integers(0, m + 1)), rng)
    mp = oi.moore_penrose_problem(a)
    out = {
        "random_subspace": v,
        "orthogonal_complement": ss.orthogonal_complement(v),
        "from_spanning_set": ss.from_spanning_set(a),
        "kernel": oi.kernel(a),
        "column_space": oi.column_space(a),
        "row_space": oi.row_space(a),
        "moore_penrose_problem.T": mp.T,
        "moore_penrose_problem.S": mp.S,
    }
    if 0 < v.dim < m:
        theta = float(rng.uniform(0.0, math.pi / 2.0))
        out["perturb_subspace_exact_gap"] = instance_gen.perturb_subspace_exact_gap(v, theta, rng)
    return out


def test_trusted_producers_pass_the_public_check(monkeypatch):
    # The ranges that the stability check builds are recorded where they
    # meet intersection_trivial.
    stability_ranges = []
    intersection_trivial = ss.intersection_trivial

    def recorded(m, n, tol=numlin.DEFAULT_TOL):
        stability_ranges.extend((m, n))
        return intersection_trivial(m, n, tol)

    monkeypatch.setattr(ss, "intersection_trivial", recorded)
    seen = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        produced = _trusted_outputs(rng)
        a = complex_gaussian(rng, (5, 4))
        stability_ranges.clear()
        perturbation.is_stable(a, 1e-3 * complex_gaussian(rng, (5, 4)))
        produced.update({f"stability[{k}]": w for k, w in enumerate(stability_ranges)})
        for name, w in produced.items():
            seen.add(name.split("[")[0])
            caller = np.array(w.basis)
            checked = ss.Subspace(caller)  # raises if not orthonormal
            assert checked.dim == w.dim and checked.ambient_dim == w.ambient_dim, name
            assert caller.flags.writeable, name  # the caller's array is not frozen
            for owner in (w, checked):
                # Owned, not a view that pins a whole singular-vector matrix.
                assert owner.basis.base is None, name
                assert not owner.basis.flags.writeable, name
    assert {"perturb_subspace_exact_gap", "stability"} <= seen


def test_nonfinite_intermediate_in_a_trial_costs_its_rows_not_the_campaign(monkeypatch):
    # np.linalg.solve returns NaN inside perturb_T only: each prop31 trial
    # raises NonFiniteError, which the campaign counts as an error.
    solve = np.linalg.solve
    perturb_T = perturbation.perturb_T

    def poisoned(scenario, tol):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * math.nan)
            return perturb_T(scenario, tol)

    monkeypatch.setattr(harness_cli, "perturb_T", poisoned)
    config = replace(CampaignConfig.default(), theorems=("prop31", "prop32"), trials=3)
    rows, summary = run_campaign(config)
    assert summary.per_theorem["prop31"].errors == 3
    assert summary.per_theorem["prop32"].errors == 0
    assert [row["theorem"] for row in rows] == ["prop32"] * 3
    assert campaign_exit_code(summary) == harness_cli.EXIT_OPERATIONAL


def test_compute_keeps_its_exit_code_for_a_nonfinite_problem(tmp_path, capsys):
    problem = oi.problem_to_obj(_problem())
    problem["A"]["entries"][3] = [math.nan, 0.0]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))  # json writes NaN, and reads it back
    assert main(["compute", str(path)]) == harness_cli.EXIT_OPERATIONAL
    assert "finite" in capsys.readouterr().err
