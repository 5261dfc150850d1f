"""Smoke test of ``tools/interleave.py``: one round of a two-call
``oracle-small`` workload, with the same tree given twice."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_interleave_times_two_copies_of_one_tree():
    argv = [sys.executable, os.path.join(ROOT, "tools", "interleave.py"),
            "oracle-small", "1", ROOT, ROOT, "--ops", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "oracle-small: 2 operations x 1 rounds, seed 1"
    assert lines[1].split() == ["tree", "mean_ms", "p50_ms", "p90_ms", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [ROOT, ROOT]
    assert rows[0][-1] == "1.000"
    assert all(float(value) > 0 for row in rows for value in row[1:])
