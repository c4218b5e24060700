"""The criterion-7 campaign report against its committed golden copy.

``golden/criterion7.csv`` is the report of the seed-1717 campaign (5
trials of each of the 7 theorems) as the library wrote it before the
per-trial prepared problem was introduced.  Refactors may move the last
bits of a number, nothing else: trial ids, theorems, ``hyp_ok``, the
metadata, the header and the row order must match exactly, and numeric
cells within ``RTOL`` relative plus ``ATOL`` absolute.  Do not regenerate
the fixture to make a change pass.
"""

import csv
import io
import math
from pathlib import Path

from outerinv.harness_cli import CSV_COLUMNS, CampaignConfig, render_table, run_campaign
from outerinv.instance_gen import THEOREMS, GenConfig

GOLDEN = Path(__file__).parent / "golden" / "criterion7.csv"
RTOL = 1e-9
ATOL = 1e-12  # relerr cells sit near 1e-15, where only an absolute floor makes sense
EXACT = ("trial_id", "theorem", "hyp_ok")


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


def test_criterion7_report_matches_golden():
    config = CampaignConfig(
        gen=GenConfig(seed=1717),
        theorems=THEOREMS,
        trials=5,
        tolerances=CampaignConfig.default().tolerances,
    )
    rows, _ = run_campaign(config)
    meta, header, body = _split(render_table(rows, config, CSV_COLUMNS))
    gold_meta, gold_header, gold_body = _split(GOLDEN.read_text(encoding="utf-8"))

    assert meta == gold_meta
    assert header == gold_header
    assert [[r[header.index(c)] for c in EXACT] for r in body] == [
        [r[header.index(c)] for c in EXACT] for r in gold_body
    ]
    mismatches = [
        (r[0], r[1], column, cell, gold_cell)
        for r, gold in zip(body, gold_body)
        for column, cell, gold_cell in zip(header, r, gold)
        if column not in EXACT and not _close(cell, gold_cell)
    ]
    assert not mismatches
