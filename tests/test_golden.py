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
problem, rank 24, dim_T 16); it must match byte for byte.
``golden/criterion7_exact.csv`` is the seed-1717 campaign again, 20
trials of each of the 7 theorems at the default 6x5; it too must match
byte for byte, so a refactor that moves any bit fails it.
``golden/summary_faults.txt`` is the stdout of ``oil verify`` on a small
campaign with one of each fault planted (:func:`run_fault_campaign`); it
must match byte for byte except the ``wall_time=`` line.
``summary_faults.txt`` is as commit 54955b3 wrote it, when ``prepare``
began reading only the singular values of A and ``gap_hat`` one
directed gap; before it was re-written, its output was shown to match
the copy from 009c689 within ``RTOL`` and ``ATOL``, with identical skip,
refusal and violation counts and exit codes.  ``compute_40x30.json`` is
as it was written when a loaded subspace began to keep its orthogonal
complement from the SVD that loaded it, which gives the pinv route
another basis of the complement of S; before it was re-written, that
output was shown to match the copy from 4726dde with the same keys and
shape, every entry of G within ``RTOL`` and ``ATOL`` (2,387 of 2,400
real and imaginary parts moved, by at most 4.0e-11 relative) and
finite residuals within ``ATOL`` of the old ones.  ``criterion7_exact.csv`` is
as commit 1544a06 wrote it, when lemma21 began reading ``||pinv(A)||``
from the prepared problem alone; before it was re-written, that
commit's output was shown to match the copy from 54955b3 within
``RTOL`` and ``ATOL``, with identical trial ids, theorems, ``hyp_ok``,
skip, refusal and violation counts and exit code, and only lemma21's
``norm_bound`` and ``margin_norm`` cells moved (26 cells, at most
1.35e-15 relative).  It was re-written again when prop31's and prop32's
difference bounds began reading ||G'|| from the oracle instead of the
formula under check; before that, the new output was shown to match the
copy from commit 2e0836e within ``RTOL`` and ``ATOL``, with identical
trial ids, theorems, ``hyp_ok``, skip, refusal and violation counts and
exit code, and only prop31's and prop32's ``diff_bound`` and
``margin_diff`` cells moved (64 cells, at most 1.04e-14 relative).

``criterion7_exact.csv`` and ``summary_faults.txt`` were both re-written
when lemma21 began running on A's Moore-Penrose problem, so that its
base G = pinv(A) and ``||pinv(A)||`` come from the pinv route instead of
a second factorisation of A.  Before that, each new output was shown to
match the copy from commit 6a073c3.  The CSV matched within ``RTOL`` and
``ATOL``, with identical metadata, header, trial ids, theorems and
``hyp_ok``.  Only lemma21 cells moved: 126 cells, the non-``relerr``
ones by at most 3.4e-15 relative.  The summary moved only lemma21's
``max_relerr``, from 1.18e-15 to 1.45e-15, with identical skip, refusal
and violation counts and exit code.

Both were re-written again when every subspace read off an SVD began to
keep the other columns of its factor as its orthogonal complement, so
lemma21's pinv route takes P_S_perp from A's own SVD (its leading left
singular vectors) instead of from a second SVD of the basis of
S = R(A)_perp.  Before that, each output was written both from a
checkout of commit c77cd7c and from the new tree, and the two compared
by the rules of ``_assert_matches``.  The CSV matched within ``RTOL``
and ``ATOL``, with identical metadata, header, trial ids, theorems and
``hyp_ok``.  Only lemma21 cells moved: 130 cells, the non-``relerr``
ones by at most 4.25e-15 relative, the ``relerr`` ones within ``ATOL``.
The summary moved only lemma21's ``max_relerr``, from 1.45e-15 to
1.91e-15, with identical skip, refusal and violation counts and exit
code 3.  Every row of the other six theorems stayed byte-identical, and
so did ``compute_40x30.json``, whose loaded S already kept its
complement.  Do not regenerate the fixtures to make a change pass.
"""

import contextlib
import csv
import io
import json
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from outerinv import harness_cli, perturbation
from outerinv.harness_cli import (
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    CampaignConfig,
    main,
    render_table,
    run_campaign,
    run_sweep,
)
from outerinv.instance_gen import THEOREMS, GenConfig, GenerationError
from outerinv.numlin import IllConditionedError, NumericalError
from outerinv.outer_inverse import ExistenceCertificate, ExistenceError

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


# ---------------------------------------------------------------------------
# The stdout summary of a campaign with every kind of fault
# ---------------------------------------------------------------------------


def run_fault_campaign(workdir: Path, monkeypatch) -> tuple[int, str]:
    """``oil verify`` on a small campaign with one of each fault planted.

    prop31's second trial has its difference bound cut by a factor of 100
    (a violation), prop32's second and lemma31's third generation give up
    (skips with reasons), lemma32's third evaluation raises a numerical
    error, and thm31's oracle refuses its first three trials (ill-conditioned,
    no existence, ill-conditioned again).  Returns the exit code and stdout.
    """
    calls = Counter()
    generate = harness_cli.generate

    def generate_or_give_up(config, theorem, tol):
        calls["generate", theorem] += 1
        if (theorem, calls["generate", theorem]) == ("prop32", 2):
            raise GenerationError("gave up", {"kernel_meets_T": 0, "direct_sum": 3, "gap_S": 5})
        if (theorem, calls["generate", theorem]) == ("lemma31", 3):
            raise GenerationError("gave up", {"kernel_meets_T": 2, "direct_sum": 0})
        return generate(config, theorem, tol)

    def planted(scenario, tol):
        calls["prop31"] += 1
        if calls["prop31"] != 2:
            return perturbation.perturb_T(scenario, tol)
        with monkeypatch.context() as patch:
            patch.setattr(perturbation, "GOLDEN_RATIO", perturbation.GOLDEN_RATIO / 100.0)
            return perturbation.perturb_T(scenario, tol)

    def flaky(scenario, tol):
        calls["lemma32"] += 1
        if calls["lemma32"] == 3:
            raise NumericalError("singular system")
        return perturbation.perturb_A(scenario, tol)

    refusals = [
        IllConditionedError("refused", 4.5e13),
        ExistenceError("outer inverse does not exist", ExistenceCertificate("kernel_meets_T")),
        IllConditionedError("refused", 2.5e14),
    ]

    def refusing(scenario, tol):
        calls["thm31"] += 1
        if calls["thm31"] > len(refusals):
            return perturbation.perturb_TS(scenario, tol)

        def refuse(problem, tol):
            raise refusals[calls["thm31"] - 1]

        with monkeypatch.context() as patch:
            patch.setattr(perturbation, "oracle_compute", refuse)
            return perturbation.perturb_TS(scenario, tol)

    monkeypatch.setattr(harness_cli, "generate", generate_or_give_up)
    monkeypatch.setattr(harness_cli, "perturb_T", planted)
    monkeypatch.setattr(harness_cli, "perturb_A", flaky)
    monkeypatch.setattr(harness_cli, "perturb_TS", refusing)
    monkeypatch.chdir(workdir)
    obj = {
        "gen": {"seed": 1717},
        "theorems": ["lemma21", "lemma31", "prop31", "prop32", "thm31", "lemma32"],
        "trials": 4,
        "output_path": "faults.csv",
    }
    Path("faults.json").write_text(json.dumps(obj), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "faults.json"])
    return code, out.getvalue()


def _mask_wall_time(text: str) -> str:
    return re.sub(r"(?m)^wall_time=.*$", "wall_time=<masked>", text)


def test_fault_campaign_summary_matches_golden_bytes(tmp_path, monkeypatch):
    code, stdout = run_fault_campaign(tmp_path, monkeypatch)
    assert code == 3
    golden = (GOLDEN / "summary_faults.txt").read_text(encoding="utf-8")
    assert _mask_wall_time(stdout) == _mask_wall_time(golden)
