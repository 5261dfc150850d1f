"""List, per module of ``src/sharelin``, the executable lines that nothing
reaches and, with ``--tests``, those that only the tests reach.

    python3 tools/reach.py [--every N] [--tests]

Every ``N``-th call of the ``tools/stdout_corpus.py`` corpus (default: all)
and, with ``--tests``, tier-1 run in this process under a ``sys.settrace``
tracer limited to ``src/sharelin`` frames; subprocesses go unrecorded, and
pytest reports to stderr. A line is executable when a code object starts
one there; a function's first line is reached when it is called.
"""

import argparse
import contextlib
import dis
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sharelin") + os.sep


def executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as handle:
        stack = [compile(handle.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def traced(run) -> dict[str, set[int]]:
    """The lines that ``run()`` runs in each package file."""
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        reached.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        return local

    sys.settrace(scope)
    run()
    sys.settrace(None)
    return reached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--every", type=int, default=1, help="run every N-th corpus call")
    parser.add_argument("--tests", action="store_true", help="also run tier-1")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, os.path.join(ROOT, "tools")]
    import stdout_corpus  # imports sharelin only when its corpus starts

    corpus = traced(lambda: all(True for _ in stdout_corpus.lines(args.every)))
    tests: dict[str, set[int]] = {}
    if args.tests:
        import pytest

        with contextlib.redirect_stdout(sys.stderr):
            tests = traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider",
                                                f"{ROOT}/tests", f"{ROOT}/perfbench"]))
    for name in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        lines = executable_lines(PACKAGE + name)
        by_corpus, by_tests = corpus.get(PACKAGE + name, set()), tests.get(PACKAGE + name, set())
        unreached = sorted(lines - by_corpus - by_tests)
        tests_only = sorted(lines & by_tests - by_corpus)
        print(f"{name}: {len(lines)} executable, {len(unreached)} unreached, "
              f"{len(tests_only)} tests only\n  unreached:", *unreached)
        if args.tests:
            print("  tests only:", *tests_only)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
