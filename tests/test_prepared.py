"""The per-trial prepared problem: contents, reuse, and oracle independence."""

import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from outerinv import outer_inverse
from outerinv import subspace as ss
from outerinv.harness_cli import RELERR_GATE, CampaignConfig, run_trial
from outerinv.instance_gen import THEOREMS, GenConfig, generate
from outerinv.numlin import op_norm, pinv
from outerinv.outer_inverse import ExistenceError, OuterInverseProblem, compute, prepare
from outerinv.perturbation import (
    PerturbationScenario,
    perturb_A,
    perturb_S,
    perturb_T,
    perturb_TS,
    perturb_all,
)

from helpers import line, random_feasible_problem


def count_calls(monkeypatch, names):
    """Count calls of ``outer_inverse.<name>`` made through any outerinv module."""
    counts = Counter()
    for name in names:
        original = getattr(outer_inverse, name)

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
            assert prepared.rank_A == np.linalg.matrix_rank(a)
            assert prepared.norm_A == pytest.approx(op_norm(a), rel=1e-12)
            assert prepared.norm_G == pytest.approx(op_norm(g), rel=1e-10)
            assert prepared.norm_pinv_A == pytest.approx(op_norm(pinv(a)), rel=1e-10)
            assert np.allclose(prepared.P_T, ss.projector(prob.T), atol=1e-14)
            s_perp = ss.projector(ss.orthogonal_complement(prob.S))
            assert np.allclose(prepared.P_S_perp, s_perp, atol=1e-14)

    def test_infeasible_problem_raises_named_condition(self):
        prob = OuterInverseProblem(np.diag([1.0, 0.0]).astype(complex), line(0, 1), line(0, 1))
        with pytest.raises(ExistenceError, match="kernel intersection"):
            prepare(prob)

    def test_generated_instance_carries_its_prepared_base(self):
        inst = generate(GenConfig(seed=5), "thm32")
        assert inst.prepared.problem is inst.scenario.base
        again = prepare(inst.scenario.base)
        assert np.array_equal(inst.prepared.G, again.G)
        assert inst.prepared.norm_G == again.norm_G

    def test_perturb_all_rejects_a_scenario_on_another_problem(self, rng):
        prob = random_feasible_problem(rng, m=6, n=5, rank_a=4, dim_t=3)
        other = OuterInverseProblem(prob.A.copy(), prob.T, prob.S)
        scenario = PerturbationScenario(other, prob.T, prob.S, np.zeros_like(prob.A))
        with pytest.raises(ValueError, match="prepared problem"):
            perturb_all(prepare(prob), scenario)


def test_each_trial_prepares_once_and_never_calls_compute(monkeypatch):
    # prepare is the only constructor of a prepared problem and runs the
    # base problem's one existence test; every other existence() call is
    # the oracle's own.
    names = ("prepare", "compute", "existence", "oracle_compute")
    counts = count_calls(monkeypatch, names)
    config = replace(CampaignConfig.default(seed=31), trials=1)
    for theorem in THEOREMS:
        counts.clear()
        assert run_trial(config, theorem, 0).row is not None
        assert counts["prepare"] == 1, theorem
        assert counts["compute"] == 0, theorem
        assert counts["existence"] == 1 + counts["oracle_compute"], theorem


# numpy.linalg.svd calls made by one run_trial per theorem (6x5, default
# campaign seed, trial 0).  The counts are deterministic; a change that adds
# an SVD to a trial fails here and must say why before it moves a number.
SVD_BUDGET = {
    "lemma21": 15,
    "lemma31": 11,
    "prop31": 16,
    "prop32": 17,
    "thm31": 19,
    "lemma32": 15,
    "thm32": 19,
}


def test_svd_budget_per_trial(monkeypatch):
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    config = replace(CampaignConfig.default(), trials=1)
    counts = {}
    for theorem in THEOREMS:
        calls.clear()
        assert run_trial(config, theorem, 0).row is not None
        counts[theorem] = len(calls)
    assert counts == SVD_BUDGET


EVALUATORS = {
    "prop31": lambda p, sc: perturb_T(p, sc.T_prime),
    "prop32": lambda p, sc: perturb_S(p, sc.S_prime),
    "thm31": lambda p, sc: perturb_TS(p, sc.T_prime, sc.S_prime),
    "lemma32": lambda p, sc: perturb_A(p, sc.E),
    "thm32": lambda p, sc: perturb_all(p, sc),
}


@pytest.mark.parametrize("theorem", sorted(EVALUATORS))
def test_oracle_ignores_the_prepared_G(theorem):
    inst = generate(GenConfig(seed=17), theorem)
    evaluate = EVALUATORS[theorem]
    clean = evaluate(inst.prepared, inst.scenario)
    corrupted_prepared = replace(inst.prepared, G=inst.prepared.G * (1.0 + 1e-3))
    corrupted = evaluate(corrupted_prepared, inst.scenario)
    assert clean.formula_vs_oracle_relerr <= RELERR_GATE
    assert corrupted.formula_vs_oracle_relerr > RELERR_GATE
    assert np.array_equal(corrupted.oracle_result, clean.oracle_result)
