"""``tools/pairs.py``: its summary of synthetic result lines, and its
refusal to compare trees whose benchmarks differ."""

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from pairs import benchmark_difference, main, summarize  # noqa: E402

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "call_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def result(ops, p50, failed=0, attempted=100):
    """A result line as ``perfbench/run.py`` prints it last."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                    "call_ms_p50": {"value": p50, "unit": "ms"}},
    }


def test_summary_counts_wins_medians_quartiles_and_failures():
    pairs = [
        (result(100, 2.0), result(110, 1.8)),
        (result(104, 2.0), result(104, 2.0)),  # a tie counts for neither side
        (result(96, 1.9), result(90, 2.1, failed=2)),
        (result(102, 2.2), result(120, 1.7)),
        (result(98, 2.1), result(115, 1.9)),
    ]
    header, ops, p50, parent_failed, change_failed = summarize(pairs, METRICS)
    assert header.split()[:2] == ["metric", "unit"]
    # parent ops 96 98 100 102 104: median 100, quartiles 98 and 102;
    # change ops 90 104 110 115 120: median 110, quartiles 104 and 115
    assert ops.split() == ["ops_per_s", "1/s", "100", "[98,", "102]", "110", "[104,", "115]",
                           "3", "1", "1.100"]
    # parent p50 1.9 2.0 2.0 2.1 2.2; change p50 1.7 1.8 1.9 2.0 2.1;
    # lower is better, so 1.8 < 2.0, 1.7 < 2.2 and 1.9 < 2.1 are wins
    assert p50.split() == ["call_ms_p50", "ms", "2", "[2,", "2.1]", "1.9", "[1.8,", "2]",
                           "3", "1", "0.950"]
    assert parent_failed == "failed operations, parent: 0 of 500"
    assert change_failed == "failed operations, change: 2 of 500"


def test_refuses_trees_whose_benchmarks_differ(tmp_path, capsys):
    for side in ("parent", "change"):
        shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / side / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "_work", "_out"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / side)
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    assert benchmark_difference(parent, change) == []
    with open(tmp_path / "change" / "perfbench" / "run.py", "a", encoding="utf-8") as handle:
        handle.write("\n")
    (tmp_path / "change" / "perfbench" / "extra.py").write_text("")
    assert benchmark_difference(parent, change) == ["perfbench/extra.py", "perfbench/run.py"]
    argv = [parent, change, "--workload", "prune-wide", "--pairs", "1", "--seconds", "1",
            "--seed", "1"]
    assert main(argv) == 2
    assert "benchmarks differ: perfbench/extra.py, perfbench/run.py" in capsys.readouterr().err
