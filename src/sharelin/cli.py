"""Command-line front end: ``analyze``, ``compare`` and ``oracle``.

Stdout is canonical and byte-stable for identical invocations; timings go
to stderr. Exit codes: 0 ok, 1 parse error or unreadable file, 2 semantic
error, input beyond a supported bound, or usage error, 3 property
counterexample found. An error is one line on stderr; a usage error
prints the subcommand's usage before it.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace

from .amgu import (
    AlgorithmId,
    AmguConfig,
    AnalysisProblem,
    analyze,
    early_prune,
    fold_compiled,
)
from .fuzz import FuzzLimits, replay, run_trials
from .groundness import UniverseTooLargeError
from .problem_io import (
    MAX_TERM_DEPTH,
    ParseError,
    SemanticError,
    format_groups,
    format_triple,
    parse_problem,
)
from .sharing import DecompositionLimitError, SharingTriple

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2
EXIT_COUNTEREXAMPLE = 3

_ALGO_LABELS = {
    AlgorithmId.AMGU1: "amgu1",
    AlgorithmId.AMGU2: "amgu2",
    AlgorithmId.AMGU3: "amgu3",
    AlgorithmId.DECOMPOSED: "file",
}


def _config_from_args(args: argparse.Namespace) -> AmguConfig:
    return AmguConfig(
        algorithm=AlgorithmId(getattr(args, "algo", "3")),
        trade_efficiency=args.trade_efficiency,
        order=args.order,
        early_prune=not args.no_early_prune,
        file_bound=args.file_bound,
    )


def _load(path: str) -> AnalysisProblem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _prune(problem: AnalysisProblem, config: AmguConfig) -> SharingTriple | None:
    """The early-pruned initial state, or ``None`` when pruning is off."""
    if not config.early_prune:
        return None
    return early_prune(problem.formula, problem.equations, problem.initial, problem.compiled)


def _print_pruned(pruned: SharingTriple | None) -> None:
    if pruned is not None:
        for line in format_triple(pruned):
            print(f"# pruned {line}")


def cmd_analyze(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    config = _config_from_args(args)
    start = time.perf_counter()
    pruned = _prune(problem, config)
    result = analyze(problem, config)
    elapsed = time.perf_counter() - start
    _print_pruned(pruned)
    for line in format_triple(result):
        print(line)
    print(f"# groups: {len(result.groups)}")
    print(f"elapsed: {elapsed:.6f}s", file=sys.stderr)
    return EXIT_OK


def _subset_mark(a: SharingTriple, b: SharingTriple) -> str:
    sa, sb = set(a.groups), set(b.groups)
    if sa == sb:
        return "="
    if sa < sb:
        return "<"
    if sa > sb:
        return ">"
    return "<>"


def cmd_compare(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    base = _config_from_args(args)
    start = time.perf_counter()
    pruned = _prune(problem, base)
    initial = problem.initial if pruned is None else pruned
    rows = []
    for algo in AlgorithmId:
        config = replace(base, algorithm=algo)
        label = _ALGO_LABELS[algo]
        try:
            rows.append((label, fold_compiled(initial, problem.compiled, config), ""))
        except DecompositionLimitError as exc:
            rows.append((label, None, f"skipped: {exc}"))
    elapsed = time.perf_counter() - start

    _print_pruned(pruned)
    universe = problem.universe
    for label, triple, note in rows:
        if triple is None:
            print(f"{label:<6} {note}")
            continue
        shown = " ".join(format_groups(triple))
        free = " ".join(universe.names_of_mask(triple.free)) or "-"
        lin = " ".join(universe.names_of_mask(triple.linear)) or "-"
        print(f"{label:<6} groups={len(triple.groups):<3} S: {shown}  F: {free}  L: {lin}")
    solved = [(label, triple) for label, triple, _ in rows if triple]
    for i in range(len(solved)):
        for j in range(i + 1, len(solved)):
            la, ta = solved[i]
            lb, tb = solved[j]
            print(f"# {lb}.S {_subset_mark(tb, ta)} {la}.S")
    print(f"elapsed: {elapsed:.6f}s", file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    limits = FuzzLimits(
        max_vars=args.max_vars,
        max_depth=args.max_depth,
        max_eqs=args.max_eqs,
        file_bound=args.file_bound,
    )
    start = time.perf_counter()
    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as handle:
            violations = replay(handle.read(), limits)
        print(f"replay: {args.replay}")
    else:
        report = run_trials(args.seed, args.trials, limits)
        violations = report.violations
        print(
            f"seed {args.seed} trials {args.trials} "
            f"max-vars {args.max_vars} max-depth {args.max_depth} max-eqs {args.max_eqs}"
        )
    for violation in sorted(violations, key=lambda v: (v.trial, v.prop)):
        print(violation.render())
    print(f"counterexamples: {len(violations)}")
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE if violations else EXIT_OK


def _int_at_least(low: int, kind: str, high: int | None = None):
    """An argparse type for integers of at least ``low``, named ``kind``
    in the usage error, and of at most ``high`` when it is given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, not {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"expected at most {high}, not {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")
# a generated term of depth d may end in a constant ``a()``, one argument
# list deeper, and must still parse back from a counterexample file
_term_depth = _int_at_least(0, "non-negative", high=MAX_TERM_DEPTH - 1)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-early-prune", action="store_true",
                        help="skip groundness pruning before unification")
    parser.add_argument("--trade-efficiency", action="store_true",
                        help="one closure instead of an intersection of two")
    parser.add_argument("--order", choices=("given", "ground-first"), default="given")
    parser.add_argument("--file-bound", type=_positive_int, default=16, metavar="N",
                        help="group-count bound for the decomposed reference")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="sharelin",
        description="Set-sharing analysis with freeness and linearity "
        "over rational-tree unification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="solve a problem file abstractly")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--algo", choices=("1", "2", "3", "file"), default="3")
    _add_common_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_compare = sub.add_parser("compare", help="run every algorithm on one file")
    p_compare.add_argument("file")
    _add_common_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_oracle = sub.add_parser("oracle", help="randomised soundness checking")
    p_oracle.add_argument("--seed", type=int, default=42)
    p_oracle.add_argument("--trials", type=_non_negative_int, default=200)
    p_oracle.add_argument("--max-vars", type=_positive_int, default=4)
    p_oracle.add_argument("--max-depth", type=_term_depth, default=3)
    p_oracle.add_argument("--max-eqs", type=_positive_int, default=3)
    p_oracle.add_argument("--file-bound", type=_positive_int, default=8, metavar="N",
                          help="group-count bound for reference-algorithm checks")
    p_oracle.add_argument("--replay", metavar="FILE",
                          help="re-check one recorded counterexample file")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SemanticError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UniverseTooLargeError, DecompositionLimitError) as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
