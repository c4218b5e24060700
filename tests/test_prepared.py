"""The per-trial prepared problem: contents, reuse, and oracle independence."""

import json
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from outerinv import numlin, outer_inverse
from outerinv import subspace as ss
from outerinv import harness_cli
from outerinv.harness_cli import RELERR_GATE, CampaignConfig, run_trial
from outerinv.instance_gen import THEOREMS, GenConfig, generate
from outerinv.numlin import op_norm
from outerinv.outer_inverse import (
    ExistenceError,
    OuterInverseProblem,
    PreparedProblem,
    compute,
    image_of,
    oracle_compute,
    prepare,
    problem_from_obj,
    result_to_obj,
)
from outerinv.perturbation import (
    Theorem,
    gap_propagation,
    is_stable,
    perturb_A,
    perturb_S,
    perturb_T,
    perturb_TS,
    perturb_all,
)

from helpers import line, random_feasible_problem, scenario


def count_calls(monkeypatch, names, owner=outer_inverse):
    """Count calls of ``owner.<name>`` made through any outerinv module."""
    counts = Counter()
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "outerinv" or module_name.startswith("outerinv."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return counts


class TestPrepare:
    def test_fields_match_direct_computation(self, rng):
        for _ in range(20):
            prob = random_feasible_problem(rng)
            prepared = prepare(prob)
            a, g = prob.A, prepared.G
            assert prepared.problem is prob
            assert np.array_equal(g, compute(prob).G)
            assert prepared.norm_A == pytest.approx(op_norm(a), rel=1e-12)
            assert prepared.norm_G == pytest.approx(op_norm(g), rel=1e-10)
            assert np.allclose(prepared.P_T, ss.projector(prob.T), atol=1e-14)
            s_perp = ss.projector(ss.orthogonal_complement(prob.S))
            assert np.allclose(prepared.P_S_perp, s_perp, atol=1e-14)

    def test_infeasible_problem_raises_named_condition(self):
        prob = OuterInverseProblem(np.diag([1.0, 0.0]).astype(complex), line(0, 1), line(0, 1))
        with pytest.raises(ExistenceError, match="kernel intersection"):
            prepare(prob)

    def test_generated_instance_carries_its_prepared_base(self):
        prepared = generate(GenConfig(seed=5), "thm32").prepared
        again = prepare(prepared.problem)
        assert np.array_equal(prepared.G, again.G)
        assert prepared.norm_G == again.norm_G


def test_each_trial_prepares_once_and_never_calls_compute(monkeypatch):
    # prepare is the only constructor of a prepared problem.  It and the
    # oracle each decide existence once, from the middle matrix they
    # factor, so existence() itself never runs.
    names = ("prepare", "compute", "existence", "oracle_compute", "_decide")
    counts = count_calls(monkeypatch, names)
    config = replace(CampaignConfig.default(seed=31), trials=1)
    for theorem in THEOREMS:
        counts.clear()
        assert run_trial(config, theorem, 0)[0] is not None
        assert counts["prepare"] == 1, theorem
        assert counts["compute"] == 0, theorem
        assert counts["_decide"] == 1 + counts["oracle_compute"], theorem
        assert counts["existence"] == 0, theorem


def count_svds(monkeypatch) -> list:
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


# numpy.linalg.svd calls made by one run_trial per theorem (6x5, default
# campaign seed, trial 0).  The counts are deterministic; a change that adds
# an SVD to a trial fails here and must say why before it moves a number.
SVD_BUDGET = {
    "lemma21": 10,
    "lemma31": 8,
    "prop31": 9,
    "prop32": 9,
    "thm31": 11,
    "lemma32": 9,
    "thm32": 13,
}


def test_svd_budget_per_trial(monkeypatch):
    calls = count_svds(monkeypatch)
    config = replace(CampaignConfig.default(), trials=1)
    counts = {}
    for theorem in THEOREMS:
        calls.clear()
        assert run_trial(config, theorem, 0)[0] is not None
        counts[theorem] = len(calls)
    assert counts == SVD_BUDGET


def test_svd_of_the_full_shape_per_trial(monkeypatch):
    # At 40x30 the only m-by-n matrix a trial factors with singular vectors
    # is the pinv route's P_S_perp A P_T; prepare reads A's singular values
    # alone.  lemma21 also factors A, in moore_penrose_problem, whose
    # vectors give T and S, and A + E in stable_bounds.
    shapes = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    config = CampaignConfig.default()
    gen = replace(config.gen, m=40, n=30, rank_A=24, dim_T=16)
    config = replace(config, gen=gen, trials=1)
    counts = {}
    for theorem in THEOREMS:
        shapes.clear()
        assert run_trial(config, theorem, 0)[0] is not None
        counts[theorem] = shapes.count((40, 30))
    assert counts == {theorem: 3 if theorem == "lemma21" else 1 for theorem in THEOREMS}


# Full finiteness scans (numlin.as_matrix) and validated Subspace
# constructions in the same trials.  A trial builds all of its data
# itself, so it scans nothing: the drawn A is finite by construction and
# the problem owns it without a scan, the scenario's E is checked by the
# SVD that measures its norm, the oracle's A + E (a sum of two checked
# matrices) and an oracle problem on the base A are taken as they are,
# and bases made from QR or SVD columns are trusted, so no Subspace is
# validated.
VALIDATION_BUDGET = {theorem: {"as_matrix": 0, "Subspace": 0} for theorem in THEOREMS}


def test_validation_budget_per_trial(monkeypatch):
    counts = count_calls(monkeypatch, ["as_matrix"], numlin)
    validate = ss.Subspace.__post_init__

    def counted_validate(self):
        counts["Subspace"] += 1
        validate(self)

    monkeypatch.setattr(ss.Subspace, "__post_init__", counted_validate)
    config = replace(CampaignConfig.default(), trials=1)
    spent = {}
    for theorem in THEOREMS:
        counts.clear()
        assert run_trial(config, theorem, 0)[0] is not None
        spent[theorem] = {"as_matrix": counts["as_matrix"], "Subspace": counts["Subspace"]}
    assert spent == VALIDATION_BUDGET


def load_golden_problem():
    obj = json.loads((Path(__file__).parent / "golden" / "problem_40x30.json").read_text())
    return problem_from_obj(obj)


def test_svd_budget_of_the_library_path(monkeypatch):
    # Load, compute, cross-check with the oracle and serialize one 40x30
    # problem: 2 SVDs to load T and S, which keep their complements, 5 in
    # compute (the pinv route's product, which also decides existence, and
    # the four residual checks; none of A) and 1 in the oracle, its middle
    # matrix, which decides existence again.  existence() does not run.
    calls = count_svds(monkeypatch)
    existence = count_calls(monkeypatch, ["existence"])
    problem = load_golden_problem()
    assert len(calls) == 2
    result = compute(problem)
    assert len(calls) == 7
    oracle_compute(problem)
    result_to_obj(result)
    assert len(calls) == 8
    assert existence["existence"] == 0


def test_oracle_after_compute_takes_one_svd_its_cond(monkeypatch):
    # S keeps the complement it was loaded with, and the oracle's one SVD,
    # of its middle matrix, gives both cond and the sigma it decides
    # existence from; it reads no verdict of compute's.
    problem = load_golden_problem()
    compute(problem)
    middle = ss.orthogonal_complement(problem.S).basis.conj().T @ problem.A @ problem.T.basis
    own_sigma = float(np.linalg.svd(middle, compute_uv=False)[-1])
    calls = count_svds(monkeypatch)
    counts = count_calls(monkeypatch, ["existence"])
    sigmas = []
    decide = outer_inverse._decide

    def recorded(problem, sigma, tol):
        sigmas.append(sigma)
        return decide(problem, sigma, tol)

    monkeypatch.setattr(outer_inverse, "_decide", recorded)
    oracle_compute(problem)
    assert len(calls) == 1
    assert counts == {}
    assert sigmas == [own_sigma]


def test_oracle_after_compute_decides_existence_itself(monkeypatch):
    # compute's "exists" is not carried over: when the oracle's own middle
    # matrix reads singular, the oracle says the outer inverse does not
    # exist rather than refusing an ill-conditioned matrix.
    problem = load_golden_problem()
    compute(problem)
    d = problem.T.dim
    singular_values = outer_inverse._singular_values

    def singular_middle(m):
        return np.zeros(d) if m.shape == (d, d) else singular_values(m)

    monkeypatch.setattr(outer_inverse, "_singular_values", singular_middle)
    with pytest.raises(ExistenceError) as raised:
        oracle_compute(problem)
    assert not raised.value.certificate.direct_sum_holds


def test_problem_records_hold_values_only():
    # No verdict, image or profile rides on a problem: each is derived by
    # the code that reads it.
    assert [f.name for f in fields(OuterInverseProblem)] == ["A", "T", "S"]
    prepared = ["problem", "norm_A", "G", "norm_G", "P_T", "P_S_perp"]
    assert [f.name for f in fields(PreparedProblem)] == prepared
    assert not hasattr(PreparedProblem, "AT")
    # A theorem's record holds its statement; lemma21's base inverse is
    # pinv(A) by its Moore-Penrose problem, so no record scales its own slack.
    statement = ["id", "limits", "diff_bound", "norm_bound", "moore_penrose"]
    assert [f.name for f in fields(Theorem)] == statement


def test_lemma31_images_are_the_ones_image_of_builds():
    # gap_propagation builds A·T and A·T' with image_of's private helper,
    # on the prepared problem's A, and measures what image_of would.
    for seed in range(10):
        sc = generate(GenConfig(seed=seed), "lemma31")
        a = sc.prepared.problem.A
        expected = ss.gap_hat(image_of(a, sc.prepared.problem.T), image_of(a, sc.T_prime))
        assert gap_propagation(sc).diff_actual == expected


@pytest.mark.parametrize("theorem", THEOREMS)
def test_shared_complements_leave_a_trial_unchanged(theorem):
    # Every complement a trial takes is computed once per subspace and
    # shared by the generator, the formula and the oracle; after the
    # trial each still equals a fresh SVD complement to the bit.
    scenario = generate(GenConfig(seed=23), theorem)
    getattr(harness_cli, harness_cli._EVALUATORS[theorem])(scenario)
    base = scenario.prepared.problem
    subspaces = (base.T, base.S, scenario.T_prime, scenario.S_prime)
    cached = [v for v in subspaces if "_complement" in vars(v)]
    assert cached
    for v in cached:
        fresh = np.linalg.svd(v.basis)[0][:, v.dim :]
        assert ss.orthogonal_complement(v).basis.tobytes() == fresh.tobytes()


EVALUATORS = {
    "prop31": perturb_T,
    "prop32": perturb_S,
    "thm31": perturb_TS,
    "lemma32": perturb_A,
    "thm32": perturb_all,
}


@pytest.mark.parametrize("theorem", sorted(EVALUATORS))
def test_oracle_ignores_the_prepared_G(theorem):
    scenario = generate(GenConfig(seed=17), theorem)
    evaluate = EVALUATORS[theorem]
    clean = evaluate(scenario)
    corrupted_prepared = replace(scenario.prepared, G=scenario.prepared.G * (1.0 + 1e-3))
    corrupted = evaluate(replace(scenario, prepared=corrupted_prepared))
    assert clean.formula_vs_oracle_relerr <= RELERR_GATE
    assert corrupted.formula_vs_oracle_relerr > RELERR_GATE
    assert np.array_equal(corrupted.oracle_result, clean.oracle_result)


def _problem():
    return random_feasible_problem(np.random.default_rng(8), m=6, n=5, rank_a=4, dim_t=3)


# Each frozen record with an array field, and a way to build one.  Two
# builds from the same input are distinct records with equal contents.
RECORDS = {
    "Subspace": lambda: ss.Subspace(np.eye(4, 2)),
    "SvdFactors": lambda: numlin.svd(_problem().A),
    "OuterInverseProblem": _problem,
    "PreparedProblem": lambda: prepare(_problem()),
    "OuterInverseResult": lambda: compute(_problem()),
    "PerturbationScenario": lambda: scenario(_problem(), E=1e-3 * _problem().A),
    "BoundReport": lambda: perturb_A(scenario(_problem(), E=1e-3 * _problem().A)),
    "StableReport": lambda: is_stable(_problem().A, 1e-3 * _problem().A),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_with_arrays_compare_and_hash_by_identity(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert type(first).__name__ == name
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second}) == 2
