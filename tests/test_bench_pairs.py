"""The claim rule of scripts/bench_pairs.py on made-up paired runs."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]   # quartiles 1.225, 1.675


def test_seed_ranges():
    assert bench_pairs.parse_seeds("11-20") == list(range(11, 21))
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]


@pytest.mark.parametrize("change, wins, holds", [
    ([p - 0.5 for p in PARENT], 10, True),             # every pair, past the spread
    ([p - 0.4 for p in PARENT], 10, False),            # every pair, inside the spread
    ([p - 0.5 for p in PARENT[:8]] + PARENT[8:], 8, False),   # two ties
    ([p - 0.9 for p in PARENT[:9]] + [2.0], 9, True),  # nine of ten
])
def test_claim_rule_lower_is_better(change, wins, holds):
    verdict = bench_pairs.judge(PARENT, change, "lower")
    assert verdict["parent"]["q1"] == pytest.approx(1.225)
    assert verdict["parent"]["q3"] == pytest.approx(1.675)
    assert verdict["change_wins"] == wins
    assert verdict["claim_holds"] is holds


def test_claim_rule_higher_is_better():
    up = bench_pairs.judge(PARENT, [p + 0.5 for p in PARENT], "higher")
    down = bench_pairs.judge(PARENT, [p - 0.5 for p in PARENT], "higher")
    assert up["claim_holds"] and up["change_wins"] == 10
    assert not down["claim_holds"] and down["parent_wins"] == 10


def test_refuses_checkouts_with_different_run_seconds(tmp_path, capsys):
    for side, seconds in (("parent", 40), ("change", 20)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
        (tmp_path / side / "BENCHMARK.json").write_text(
            '{"run_seconds": %d, "end_to_end": []}' % seconds)
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "ladder_sweep", "--seeds", "1"])
    assert code == 2
    assert "run_seconds" in capsys.readouterr().err
