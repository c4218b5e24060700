"""Correctness gates applied to `oil verify` reports from outside the program.

Two checks:

* ``check_campaign_rows`` reads the report of a timed campaign and counts
  failed trials: a trial with no row (generation skip) and a non-lemma31
  row with an empty ``relerr`` (the oracle was unavailable, which
  ``campaign_exit_code`` does not gate) both count.
* ``compare_to_reference`` matches a report against reference rows
  captured from the unmodified library: trial ids, theorem, ``hyp_ok`` and
  row order exactly, numeric cells within ``RTOL`` relative plus an
  ``ATOL`` absolute floor (``relerr`` cells sit near 1e-14, so a purely
  relative test would reject harmless last-bit changes).
"""

from __future__ import annotations

import csv
import io
import math

RTOL = 1e-9
ATOL = 1e-12
EXACT_COLUMNS = ("trial_id", "theorem", "hyp_ok")
ORACLE_OPTIONAL = "lemma31"


def parse_report(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of a CSV report, skipping '#' metadata lines."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    reader = csv.reader(io.StringIO(body))
    header = next(reader, [])
    return header, [dict(zip(header, cells)) for cells in reader]


def check_campaign_rows(text: str, theorems, trials: int, relerr_gate: float) -> tuple[int, list[str]]:
    """Failed trial count and problems found in the report of one campaign.

    Problems make the run incorrect; failed trials are reported as such.
    """
    _, rows = parse_report(text)
    expected = [(theorem, str(trial)) for theorem in theorems for trial in range(trials)]
    problems: list[str] = []
    failed = len(expected) - len(rows)
    position = 0
    for row in rows:
        key = (row.get("theorem"), row.get("trial_id"))
        while position < len(expected) and expected[position] != key:
            position += 1
        if position == len(expected):
            problems.append(f"unexpected or out-of-order row {key}")
            break
        position += 1
        relerr = row.get("relerr", "")
        if relerr == "":
            if key[0] != ORACLE_OPTIONAL:
                failed += 1
        elif not float(relerr) <= relerr_gate:
            problems.append(f"row {key}: relerr {relerr} above {relerr_gate}")
    return failed, problems


def _cells_match(actual: str, reference: str) -> bool:
    if actual == "" or reference == "":
        return actual == reference
    a, r = float(actual), float(reference)
    if math.isnan(a) or math.isnan(r):
        return math.isnan(a) and math.isnan(r)
    return abs(a - r) <= ATOL + RTOL * abs(r)


def compare_to_reference(text: str, reference_text: str) -> list[str]:
    """Differences between a report and its reference (empty when they match)."""
    header, rows = parse_report(text)
    ref_header, ref_rows = parse_report(reference_text)
    if header != ref_header:
        return [f"columns {header} differ from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for index, (row, ref) in enumerate(zip(rows, ref_rows)):
        for column in header:
            exact = column in EXACT_COLUMNS
            if (row[column] != ref[column]) if exact else not _cells_match(row[column], ref[column]):
                problems.append(f"row {index} {column}: {row[column]!r} vs reference {ref[column]!r}")
    return problems
