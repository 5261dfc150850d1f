"""The benchmark's workloads: each is a fixed list of CLI operations built
from a seed, plus the output check for each operation.

Why these three (see also ``BENCHMARK.json``):

* ``prune-wide`` runs ``analyze`` with default flags at 16, 18 and 20
  variables. Early pruning enumerates ``2**n`` models, so pruning and
  groundness do nearly all the work; the ``pos`` half goes through the
  formula parser and model filtering instead of ``truth``.
* ``closure-dense`` runs ``analyze --no-early-prune`` with each of
  ``--algo 1/2/3`` at 32 and 64 variables on equations with multiplicity 2
  on both sides. Pruning is skipped, every step closes both relevance sets,
  and those sets are large while the step's result stays small, so the
  closure kernels carry most of the cost.
* ``oracle-small`` runs many short ``oracle`` calls over consecutive seeds:
  many unification steps on one to four groups, plus the concrete oracle.

The program sees only the generated files and the argv; the base systems
stay in the benchmark for the output checks.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass

from sharelin.amgu import AnalysisProblem, AmguConfig, analyze
from sharelin.concrete import describes, unify
from sharelin.fuzz import FuzzLimits, exact_abstraction, generate_instance
from sharelin.problem_io import ParseError, SemanticError, parse_problem

from .gen import Problem, closure_problem, prune_problem

# (n, with_pos, files) per prune-wide pass: 60 files with pos, 40 without.
# Every pos file is cheaper than every pos-free one, so an even split would
# put the median latency on the boundary between the two halves, where it
# jumps between classes from run to run. With this mix the median falls in
# the middle of the n=20 pos class and the 90th percentile in the middle of
# the n=18 pos-free class. One pass gives the 100 samples a 90th percentile
# needs, all from distinct files, which keeps the precision count steady
# from seed to seed; the costly pos-free files at 18 and 20 variables are
# few, so the pass takes 25-30 s on a 2-core x86 host.
PRUNE_MIX = (
    (16, True, 20), (18, True, 20), (20, True, 20),
    (16, False, 24), (18, False, 12), (20, False, 4),
)
PRUNE_MIN_PASSES = 1
CLOSURE_SIZES = (32, 64)
CLOSURE_FILES = 6  # per size; each file runs with --algo 1, 2 and 3
ORACLE_CALLS = 200
ORACLE_TRIALS = 5

_GROUPS_RE = re.compile(r"^# groups: (\d+)$", re.MULTILINE)


@dataclass(frozen=True)
class Op:
    """One CLI call. ``problem`` is set for ``analyze``; ``oracle`` holds
    (seed, trials) for ``oracle`` calls."""

    key: str
    argv: tuple[str, ...]
    problem: Problem | None = None
    oracle: tuple[int, int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    min_passes: int


def _write(workdir: str, problem: Problem) -> str:
    path = os.path.join(workdir, problem.name + ".sl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(problem.text)
    return path


def prune_wide(seed: int, workdir: str, mix=PRUNE_MIX, min_passes: int = PRUNE_MIN_PASSES) -> Workload:
    ops = []
    index = 0
    for n, with_pos, files in mix:
        for _ in range(files):
            problem = prune_problem(seed, index, n, with_pos)
            ops.append(Op(problem.name, ("analyze", _write(workdir, problem)), problem))
            index += 1
    return Workload("prune-wide", tuple(ops), min_passes)


def closure_dense(
    seed: int, workdir: str, sizes=CLOSURE_SIZES, files: int = CLOSURE_FILES, min_passes: int = 3
) -> Workload:
    ops = []
    for n in sizes:
        for index in range(files):
            problem = closure_problem(seed, index, n)
            path = _write(workdir, problem)
            for algo in ("1", "2", "3"):
                ops.append(
                    Op(
                        f"{problem.name}-a{algo}",
                        ("analyze", path, "--no-early-prune", "--algo", algo),
                        problem,
                    )
                )
    return Workload("closure-dense", tuple(ops), min_passes)


def oracle_small(
    seed: int, workdir: str, calls: int = ORACLE_CALLS, trials: int = ORACLE_TRIALS, min_passes: int = 2
) -> Workload:
    first = random.Random(f"oracle:{seed}").randrange(10**6)
    ops = tuple(
        Op(
            f"oracle-{s}",
            ("oracle", "--seed", str(s), "--trials", str(trials)),
            oracle=(s, trials),
        )
        for s in range(first, first + calls)
    )
    return Workload("oracle-small", ops, min_passes)


WORKLOADS = {"prune-wide": prune_wide, "closure-dense": closure_dense, "oracle-small": oracle_small}


def check_output(op: Op, out: str) -> tuple[str | None, int]:
    """Check one operation's stdout; returns (failure reason or None, the
    precision count: result groups of ``analyze``, and for ``oracle`` the
    groups that default ``analyze`` gives on the oracle's own instances)."""
    if op.oracle is not None:
        if not out.endswith("counterexamples: 0\n"):
            return "oracle reported counterexamples", 0
        seed, trials = op.oracle
        rng = random.Random(seed)
        groups = 0
        for _ in range(trials):
            instance = generate_instance(rng, FuzzLimits())
            _, triple, formula = exact_abstraction(instance.universe, instance.base)
            problem = AnalysisProblem(instance.universe, triple, formula, instance.equations)
            groups += len(analyze(problem, AmguConfig()).groups)
        return None, groups
    problem = op.problem
    counts = _GROUPS_RE.findall(out)
    if len(counts) != 1:
        return "no '# groups' line", 0
    try:
        result = parse_problem(out).initial
    except (ParseError, SemanticError) as exc:
        return f"output does not parse back: {exc}", 0
    if result.universe != problem.universe:
        return "output universe differs from the input's", 0
    if int(counts[0]) != len(result.groups):
        return "'# groups' disagrees with the printed groups", 0
    system = problem.base + problem.equations
    if unify(system).success and not describes(result, system):
        return "result does not describe the solved form of E0 + E'", 0
    return None, len(result.groups)
