"""Run the benchmark on two source trees in alternating pairs and compare
their end-to-end metrics.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed S0

``PARENT`` and ``CHANGE`` are the roots of two source trees. Pair ``i``
runs each tree's own ``perfbench/run.py --workload W --seed S0+i
--seconds S`` once, the parent first in even pairs and the change first in
odd ones. Each run works in a temporary copy of its tree's ``src/`` and
``perfbench/``, so nothing is written into either tree. The script refuses
to run when the trees' ``perfbench/`` or ``BENCHMARK.json`` differ: the two
sides must be measured by the same benchmark.

Each run prints one ``run`` line with its metrics. The summary gives, for
each end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the pairs the change won and lost (a tie counts for neither),
and the ratio of the change's median to the parent's, then the failed
operations of each side.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# what a benchmark run leaves in perfbench/, which is not the benchmark
_LEFT_BY_RUNS = ("__pycache__", "_work", "_out", ".pytest_cache", ".hypothesis")


def benchmark_files(tree: str) -> dict[str, str]:
    """The files that define a tree's benchmark, by path relative to the
    tree: ``BENCHMARK.json`` and everything under ``perfbench/``."""
    files = {}
    if os.path.isfile(os.path.join(tree, "BENCHMARK.json")):
        files["BENCHMARK.json"] = os.path.join(tree, "BENCHMARK.json")
    root = os.path.join(tree, "perfbench")
    for folder, subdirs, names in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs if d not in _LEFT_BY_RUNS)
        for name in names:
            path = os.path.join(folder, name)
            files[os.path.relpath(path, tree)] = path
    return files


def benchmark_difference(parent: str, change: str) -> list[str]:
    """The benchmark files that one tree lacks or that differ between them."""
    ours, theirs = benchmark_files(parent), benchmark_files(change)
    return sorted(
        rel for rel in ours.keys() | theirs.keys()
        if rel not in ours or rel not in theirs
        or not filecmp.cmp(ours[rel], theirs[rel], shallow=False)
    )


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in a temporary copy of the tree: the
    JSON object of its last stdout line."""
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns(*_LEFT_BY_RUNS)
        for part in ("src", "perfbench"):
            shutil.copytree(os.path.join(tree, part), os.path.join(tmp, part), ignore=ignore)
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds)]
        done = subprocess.run(argv, cwd=tmp, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{tree} at seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile, linearly
    interpolated between ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """The comparison of (parent, change) results, one line per metric of
    ``metrics`` (``BENCHMARK.json``'s ``end_to_end`` entries), then the
    failed operations per side."""
    lines = [
        f"{'metric':<14} {'unit':<6} {'parent median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'won':>4} {'lost':>4} {'ratio':>7}"
    ]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = [[result["metrics"][name]["value"] for result in side] for side in zip(*pairs)]
        won = lost = 0
        for before, after in zip(*sides):
            if before != after:
                won += (after > before) == higher
                lost += (after > before) != higher
        (q1, old, q3), (r1, new, r3) = map(quartiles, sides)
        shown = [f"{old:.6g} [{q1:.6g}, {q3:.6g}]", f"{new:.6g} [{r1:.6g}, {r3:.6g}]"]
        ratio = f"{new / old:7.3f}" if old else f"{'-':>7}"
        lines.append(f"{name:<14} {metric['unit']:<6} {shown[0]:>32} {shown[1]:>32} "
                     f"{won:>4} {lost:>4} {ratio}")
    for label, side in zip(("parent", "change"), zip(*pairs)):
        failed = sum(result["failed"] for result in side)
        attempted = sum(result["attempted"] for result in side)
        lines.append(f"failed operations, {label}: {failed} of {attempted}")
    return lines


def run_line(label: str, seed: int, result: dict) -> str:
    values = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
    return f"run {label} seed {seed}: {values} failed={result['failed']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    differing = benchmark_difference(args.parent, args.change)
    if differing:
        print(f"error: the trees' benchmarks differ: {', '.join(differing)}", file=sys.stderr)
        return 2
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        result = {}
        for label in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                result[label] = run_once(trees[label], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(run_line(label, seed, result[label]), flush=True)
        pairs.append((result["parent"], result["change"]))
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
