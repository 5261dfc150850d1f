"""Time one benchmark workload on several source trees, interleaved call by
call in one process, so that host load falls on every tree alike.

    python3 tools/interleave.py WORKLOAD ROUNDS TREE [TREE ...]
    python3 tools/interleave.py oracle-small 5 . ../parent --seed 7 --ops 100

``WORKLOAD`` is a name in ``perfbench.workloads.WORKLOADS``, and each
``TREE`` is the root of a source tree. Each tree's ``src/sharelin`` is
copied into a temporary directory as its own package, ``sharelin_t0``,
``sharelin_t1`` and so on; this works because the package imports itself
only relatively. The workload's operations are built from ``--seed`` by the
``perfbench/`` next to this script, which it only reads, and ``--ops N``
keeps the first N. Every tree must give the same exit code and stdout for
each operation, or the script exits 1 before timing anything.

Each round calls every operation once on every tree, in turn, with the
tree order reversed every other round. The report gives each tree's mean
milliseconds per call, the median and 90th percentile over the operations
of their mean call times, and the ratio of its mean to the first tree's.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_clis(trees: list[str], libdir: str) -> list:
    """Each tree's ``cli`` module, imported from its own package copy."""
    sys.path.insert(0, libdir)
    clis = []
    for k, tree in enumerate(trees):
        package = f"sharelin_t{k}"
        shutil.copytree(os.path.join(tree, "src", "sharelin"), os.path.join(libdir, package),
                        ignore=shutil.ignore_patterns("__pycache__"))
        clis.append(importlib.import_module(f"{package}.cli"))
    return clis


def call(cli, argv) -> tuple[object, str, float]:
    """One in-process call with stdout and stderr captured: the exit code
    (the exception's type name for a traceback), stdout and wall seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def differing_ops(ops, clis) -> list[str]:
    """The keys of the operations whose exit code or stdout differ between
    trees."""
    return [op.key for op in ops if len({call(cli, op.argv)[:2] for cli in clis}) > 1]


def run_rounds(ops, clis, rounds: int) -> list[list[list[float]]]:
    """``seconds[tree][op]``: the wall seconds of each call, one per round."""
    seconds = [[[] for _ in ops] for _ in clis]
    order = list(range(len(clis)))
    for r in range(rounds):
        for i, op in enumerate(ops):
            for k in order if r % 2 == 0 else order[::-1]:
                seconds[k][i].append(call(clis[k], op.argv)[2])
    return seconds


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between ranks."""
    values = sorted(values)
    at = (len(values) - 1) * q / 100
    low = int(at)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (at - low)


def report(trees: list[str], seconds) -> list[str]:
    lines = [f"{'tree':<40} {'mean_ms':>9} {'p50_ms':>9} {'p90_ms':>9} {'ratio':>7}"]
    first = None
    for tree, per_op in zip(trees, seconds):
        op_ms = [1000 * statistics.fmean(calls) for calls in per_op]
        mean = statistics.fmean(op_ms)
        first = mean if first is None else first
        lines.append(
            f"{tree:<40} {mean:9.3f} {percentile(op_ms, 50):9.3f} "
            f"{percentile(op_ms, 90):9.3f} {mean / first:7.3f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("rounds", type=int)
    parser.add_argument("trees", nargs="+")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=None, help="time only the first N operations")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        workdir = os.path.join(tmp, "work")
        os.makedirs(workdir)
        ops = WORKLOADS[args.workload](args.seed, workdir).ops[: args.ops]
        clis = load_clis(args.trees, os.path.join(tmp, "lib"))
        differing = differing_ops(ops, clis)
        if differing:
            print(f"trees differ on {len(differing)} operations, first {differing[0]}")
            return 1
        seconds = run_rounds(ops, clis, args.rounds)
    print(f"{args.workload}: {len(ops)} operations x {args.rounds} rounds, seed {args.seed}")
    print("\n".join(report(args.trees, seconds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
