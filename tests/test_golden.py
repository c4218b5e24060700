"""Campaign and sweep reports against their committed golden copies.

``golden/criterion7.csv`` is the report of the seed-1717 campaign (5
trials of each of the 7 theorems) as the library wrote it before the
per-trial prepared problem was introduced.  ``golden/campaign_40x30.csv``
is the same seed at 40x30 (rank 24, dim_T 16, 3 trials per theorem),
written before the rank, condition-cap and residual checks were made
certificate-first; at this size those checks decide on matrices large
enough for the certificates to matter.  ``golden/sweep_<axis>.csv``
are seed-99 sweeps (4 points, 3 trials) of one applicable theorem per
axis, written before the theorem registry replaced the hand-listed
axis/theorem table.  Refactors may move the last bits of a number,
nothing else: trial ids, theorems, ``hyp_ok``, the metadata, the header
and the row order must match exactly, and numeric cells within ``RTOL``
relative plus ``ATOL`` absolute.  ``golden/compute_40x30.json`` is what
``oil compute`` wrote for ``golden/problem_40x30.json`` (a seeded 40x30
problem, rank 24, dim_T 16) before the library path stopped factoring A
and started writing matrices in bulk; it must match byte for byte.
``golden/criterion7_exact.csv`` is the seed-1717 campaign again, 20
trials of each of the 7 theorems at the default 6x5, as commit a2790a4
wrote it, before the five formula evaluators shared one checker; it too
must match byte for byte, so a refactor that moves any bit fails it.  Do
not regenerate the fixtures to make a change pass.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from outerinv.harness_cli import (
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    CampaignConfig,
    main,
    render_table,
    run_campaign,
    run_sweep,
)
from outerinv.instance_gen import THEOREMS, GenConfig

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9
ATOL = 1e-12  # relerr cells sit near 1e-15, where only an absolute floor makes sense
EXACT = ("trial_id", "theorem", "hyp_ok", "axis", "point", "trials")

# One applicable theorem per sweep axis.
SWEEPS = (("gap_T", "thm32"), ("gap_S", "prop32"), ("norm_E", "lemma21"))


def _split(text):
    lines = text.splitlines(keepends=True)
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(line for line in lines if not line.startswith("#")))))
    return meta, rows[0], rows[1:]


def _close(actual: str, expected: str) -> bool:
    if actual == "" or expected == "":
        return actual == expected
    a, e = float(actual), float(expected)
    if math.isnan(e):
        return math.isnan(a)
    return abs(a - e) <= ATOL + RTOL * abs(e)


def _assert_matches(text: str, golden: Path):
    meta, header, body = _split(text)
    gold_meta, gold_header, gold_body = _split(golden.read_text(encoding="utf-8"))

    assert meta == gold_meta
    assert header == gold_header
    exact = [header.index(c) for c in EXACT if c in header]
    assert [[r[i] for i in exact] for r in body] == [[r[i] for i in exact] for r in gold_body]
    mismatches = [
        (r[0], r[1], column, cell, gold_cell)
        for r, gold in zip(body, gold_body)
        for column, cell, gold_cell in zip(header, r, gold)
        if column not in EXACT and not _close(cell, gold_cell)
    ]
    assert not mismatches


def test_criterion7_report_matches_golden():
    config = CampaignConfig(
        gen=GenConfig(seed=1717),
        theorems=THEOREMS,
        trials=5,
        tolerances=CampaignConfig.default().tolerances,
    )
    rows, _ = run_campaign(config)
    _assert_matches(render_table(rows, config, CSV_COLUMNS), GOLDEN / "criterion7.csv")


def test_criterion7_report_matches_golden_bytes():
    config = CampaignConfig(
        gen=GenConfig(seed=1717),
        theorems=THEOREMS,
        trials=20,
        tolerances=CampaignConfig.default().tolerances,
    )
    rows, _ = run_campaign(config)
    text = render_table(rows, config, CSV_COLUMNS)
    assert text.encode("utf-8") == (GOLDEN / "criterion7_exact.csv").read_bytes()


def test_campaign_40x30_report_matches_golden():
    config = CampaignConfig(
        gen=GenConfig(seed=1717, m=40, n=30, rank_A=24, dim_T=16),
        theorems=THEOREMS,
        trials=3,
        tolerances=CampaignConfig.default().tolerances,
    )
    rows, _ = run_campaign(config)
    _assert_matches(render_table(rows, config, CSV_COLUMNS), GOLDEN / "campaign_40x30.csv")


@pytest.mark.parametrize("axis, theorem", SWEEPS)
def test_sweep_report_matches_golden(axis, theorem):
    config = CampaignConfig(
        gen=GenConfig(seed=99),
        theorems=(theorem,),
        trials=3,
        tolerances=CampaignConfig.default().tolerances,
    )
    rows, _ = run_sweep(config, axis, points=4)
    _assert_matches(render_table(rows, config, SWEEP_COLUMNS), GOLDEN / f"sweep_{axis}.csv")


def test_compute_output_matches_golden_bytes(tmp_path):
    out = tmp_path / "result.json"
    assert main(["compute", str(GOLDEN / "problem_40x30.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "compute_40x30.json").read_bytes()
