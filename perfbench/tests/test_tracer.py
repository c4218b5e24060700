"""Span arithmetic, wrapper restoration and repeatable counts of the tracer."""

import sys
from dataclasses import replace

import numpy.linalg

import tracer
from outerinv import harness_cli, subspace


def test_self_time_subtracts_union_of_child_intervals():
    spans = [
        ["harness_cli.run_trial", 0, 100, -1, "a/0"],
        ["outer_inverse.compute", 10, 40, 0, "a/0"],
        ["numlin.pinv", 30, 60, 0, "a/0"],  # overlaps its sibling: [10, 60] is covered once
        ["lapack.svd", 15, 20, 1, "a/0"],
        ["numlin.op_norm", 90, 130, 0, "a/0"],  # runs past its parent: only [90, 100] counts
    ]
    assert tracer.self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 40]


def test_layer_totals_count_nested_and_grouped_spans_once():
    spans = [
        ["perturbation.perturb_all", 0, 100, -1, None],
        ["perturbation.perturb_T", 10, 30, 0, None],  # an evaluator inside an evaluator
        ["numlin.op_norm", 40, 80, 0, None],
        ["numlin.op_norm", 50, 60, 2, None],  # recursive call
    ]
    totals = tracer.layer_totals(spans)
    assert totals[tracer.EVALUATE] == {"calls": 2, "ns": 100, "self_ns": 40 + 20}
    assert totals["numlin.op_norm"] == {"calls": 2, "ns": 40, "self_ns": 30 + 10}
    assert totals["numlin"]["self_ns"] == 40
    assert totals["perturbation"]["self_ns"] == 60


def _bindings():
    """Identity of every attribute the tracer may patch."""
    owners = [m for n, m in sys.modules.items() if n == "outerinv" or n.startswith("outerinv.")]
    found = {(o.__name__, k): v for o in owners for k, v in vars(o).items()}
    found.update({("numpy.linalg", k): v for k, v in vars(numpy.linalg).items()})
    found.update({("Subspace", k): v for k, v in vars(subspace.Subspace).items()})
    return found


def _traced_campaign():
    config = replace(harness_cli.CampaignConfig.default(seed=7), trials=2)
    with tracer.Tracer() as trace:
        harness_cli.run_campaign(config)
    return trace


def test_every_wrapped_function_is_restored():
    before = _bindings()
    trace = _traced_campaign()
    after = _bindings()
    assert trace.spans, "the traced campaign recorded no spans"
    assert after.keys() == before.keys()
    changed = sorted(key for key, value in before.items() if after[key] is not value)
    assert not changed


def test_traced_runs_repeat_call_counts_exactly():
    first, second = _traced_campaign(), _traced_campaign()
    counts = [{k: v["calls"] for k, v in tracer.layer_totals(t.spans).items()} for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["lapack.svd"] > 0
    assert first.svd_work_mnk == second.svd_work_mnk > 0
    items = {span[4] for span in first.spans if span[0] == "harness_cli.run_trial"}
    assert len(items) == 7 * 2
