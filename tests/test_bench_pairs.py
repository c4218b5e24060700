"""The summary of scripts/bench_pairs.py, on made-up runs (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"items_per_s": "higher", "wall_s": "lower"}


def _run(items_per_s, wall_s, ok=True):
    return {"ok": ok, "metrics": {"items_per_s": items_per_s, "wall_s": wall_s}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("3-5,9") == [3, 4, 5, 9]


def test_one_pair_is_its_own_quartiles():
    summary = bench_pairs.summarize([{"parent": _run(10.0, 2.0), "change": _run(12.0, 2.0)}], BETTER)
    assert summary["items_per_s"]["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert summary["items_per_s"]["wins"] == {"change": 1, "parent": 0}
    assert summary["wall_s"]["wins"] == {"change": 0, "parent": 0}  # a tie counts for neither


def test_wins_follow_the_direction_of_each_metric():
    pairs = [
        {"parent": _run(10.0, 2.0), "change": _run(12.0, 1.5)},
        {"parent": _run(11.0, 1.0), "change": _run(9.0, 1.2)},
        {"parent": _run(10.0, 2.0), "change": _run(13.0, 1.9)},
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["items_per_s"]["wins"] == {"change": 2, "parent": 1}
    assert summary["wall_s"]["wins"] == {"change": 2, "parent": 1}
    assert summary["items_per_s"]["change"]["median"] == 12.0
    assert summary["items_per_s"]["pairs"] == 3


def test_a_pair_without_metrics_is_left_out_of_the_summary():
    pairs = [
        {"parent": _run(10.0, 2.0), "change": _run(12.0, 1.5)},
        {"parent": {"ok": False, "returncode": 2, "error": "boom"}, "change": _run(99.0, 0.1)},
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["items_per_s"]["pairs"] == 1
    assert summary["items_per_s"]["change"]["median"] == 12.0


def _tree(path: Path, marker: str) -> Path:
    # A stand-in checkout: the benchmark contract, a git store and run outputs.
    (path / ".git").mkdir(parents=True)
    (path / "perfbench" / "out").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(marker)
    (path / "BENCHMARK.json").write_text((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    return path


@pytest.mark.parametrize("bad_side", [None, "parent", "change"])
def test_exit_code_and_alternation(monkeypatch, tmp_path, bad_side):
    checkout = _tree(tmp_path / "checkout", "change")
    parent = _tree(tmp_path / "a-parent-clone-with-a-longer-path", "parent")
    calls, trees = [], set()

    def fake_run_once(tree, workload, seed, seconds):
        side = (tree / "perfbench" / "run.py").read_text()
        assert not (tree / ".git").exists() and not (tree / "perfbench" / "out").exists()
        calls.append((seed, side))
        trees.add(tree)
        return _run(10.0 + (side == "change"), 1.0, ok=side != bad_side or seed != 2)

    monkeypatch.setattr(bench_pairs, "ROOT", checkout)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "commit", lambda tree: tree.name)
    out = tmp_path / "pairs.json"
    code = bench_pairs.main(
        ["--parent", str(parent), "--workload", "campaign_small", "--seeds", "1-3", "--out", str(out)]
    )
    assert code == (0 if bad_side is None else 1)
    first = [side for seed, side in calls[::2]]
    assert first == ["parent", "change", "parent"]
    # Both sides run from copies in paths of equal length, never from the checkouts.
    assert len(trees) == 2 and len({len(str(tree)) for tree in trees}) == 1
    assert not trees & {checkout, parent}
    doc = json.loads(out.read_text())
    assert doc["commits"] == {"parent": parent.name, "change": checkout.name}
    assert [p["first"] for p in doc["pairs"]] == first
    assert doc["summary"]["items_per_s"]["wins"] == {"change": 3, "parent": 0}
