"""Stdout byte-identity: a fixed slice of ``tools/stdout_corpus.txt``, rerun.

The committed file is the full output of ``tools/stdout_corpus.py`` on this
tree. Every ``text`` line, and each call whose line index (from 0) is a
multiple of 17, are rerun here and compared line by line. 17 shares no
factor with the ten variants run on each workload file or with the paired
oracle calls, so the slice cycles through them.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EVERY = 17


def load_tool():
    path = os.path.join(ROOT, "tools", "stdout_corpus.py")
    spec = importlib.util.spec_from_file_location("stdout_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_slice_matches_committed():
    with open(os.path.join(ROOT, "tools", "stdout_corpus.txt"), encoding="utf-8") as handle:
        committed = handle.read().splitlines()
    rerun = list(load_tool().lines(EVERY))
    assert len(rerun) == len(committed)
    sampled = [n for n, line in enumerate(rerun) if line is not None]
    assert sampled == [
        n for n, line in enumerate(committed) if line.startswith("text ") or n % EVERY == 0
    ]
    for n in sampled:
        assert rerun[n] == committed[n], f"corpus line {n + 1} changed"
