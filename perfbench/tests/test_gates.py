"""Correctness gates: reference rows, failed-trial accounting, aborted campaigns."""

import shutil

import gates
import workloads
from outerinv import harness_cli
from outerinv.numlin import NumericalError

HEADER = ",".join(harness_cli.CSV_COLUMNS)


def _report(*rows):
    return "# seed=1\n" + HEADER + "\n" + "".join(r + "\n" for r in rows)


def _row(trial, theorem, relerr="1e-15"):
    return f"{trial},{theorem},0.1,0.1,0.0,true,{relerr},1.0,0.5,1.0,0.5,0.5,0.5"


def test_reference_gate_fails_on_one_perturbed_cell(tmp_path, monkeypatch):
    reference = tmp_path / "reference"
    shutil.copytree(workloads.REFERENCE, reference)
    monkeypatch.setattr(workloads, "REFERENCE", reference)
    run = workloads.WORKLOADS["campaign_small"].setup(0, tmp_path)
    assert run.check_reference() == []

    csv_path = reference / "campaign_small.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("3,lemma21,"))
    cells = lines[index].split(",")
    cells[8] = repr(float(cells[8]) * (1.0 + 1e-6))  # norm_actual
    lines[index] = ",".join(cells)
    csv_path.write_text("".join(lines), encoding="utf-8")
    problems = run.check_reference()
    assert len(problems) == 1 and "norm_actual" in problems[0]


def test_reference_gate_tolerates_last_bit_noise_but_not_flags():
    text = _report(_row(0, "lemma21", "5.5e-15"))
    assert gates.compare_to_reference(_report(_row(0, "lemma21", "6.1e-15")), text) == []
    flipped = _report(_row(0, "lemma21", "5.5e-15").replace(",true,", ",false,"))
    assert gates.compare_to_reference(flipped, text)


def test_failed_trials_count_skips_and_missing_oracle():
    text = _report(
        _row(0, "lemma21"),
        _row(1, "lemma21", relerr=""),  # oracle unavailable: failed
        _row(0, "lemma31", relerr=""),  # lemma31 has no oracle route: fine
    )  # ("lemma31", 1) is missing: a skip, failed
    failed, problems = gates.check_campaign_rows(text, ("lemma21", "lemma31"), 2, 1e-6)
    assert (failed, problems) == (2, [])


def test_rows_out_of_order_or_above_the_gate_are_problems():
    _, problems = gates.check_campaign_rows(
        _report(_row(1, "lemma21"), _row(0, "lemma21")), ("lemma21",), 2, 1e-6
    )
    assert problems
    _, problems = gates.check_campaign_rows(_report(_row(0, "lemma21", "1e-3")), ("lemma21",), 1, 1e-6)
    assert problems


def test_numerical_error_fails_every_item_without_crashing(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise NumericalError("singular system")

    monkeypatch.setattr(harness_cli, "perturb_T", broken)
    spec = workloads.Campaign("campaign_small", trials=2)
    run = spec.setup(0, tmp_path)
    done = run.run_pass([])
    run.check(done)
    assert done.attempted == 14
    assert done.failed == done.attempted
    assert done.problems


def test_item_latency_is_the_mean_over_the_passes_that_timed_every_item():
    complete = [[1.0, 4.0, 2.0], [3.0, 2.0, 2.0]]
    aborted = [[100.0]]
    assert workloads.item_latencies(complete + aborted) == [2.0, 3.0, 2.0]
