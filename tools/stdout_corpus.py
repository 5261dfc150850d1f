"""Print ``exit sha256(stdout) argv`` for a fixed corpus of in-process
``sharelin`` calls, so that the outputs of two source trees can be diffed.

    python3 tools/stdout_corpus.py [TREE] > corpus.txt

``TREE`` is the root of the source tree to run (default: the tree this
script sits in); its ``src/`` and ``perfbench/`` are imported. Running the
script once on each tree and diffing the two files shows every call whose
stdout or exit code changed. ``tools/stdout_corpus.txt`` holds the output
for this tree; a change that alters stdout on purpose rewrites it, so its
diff names every call that changed, and ``tests/test_stdout_corpus.py``
reruns a fixed slice of it. The corpus:

* the text of every problem file ``perfbench/gen.py`` writes for the three
  workloads at seeds 1 and 2 (one ``text <sha256> <name>`` line each);
* every workload operation at seeds 1 and 2;
* ``analyze --algo 1|2|3|file`` and ``compare``, each with and without
  ``--no-early-prune``, on each of those problem files;
* ``oracle --trials 5`` at seeds 1-150, at default limits and with
  ``--max-vars 6 --max-eqs 4``;
* ``oracle --trials 10 --max-eqs 4`` at seeds 0-59 with ``--max-vars``
  4, 8, 12 and 20;
* for each of the 5 trials of ``oracle`` at seeds 1-50, the exact
  round-trip file of its instance (one ``text`` line each), replayed with
  ``oracle --replay`` once as written and once with its ``pos`` line
  removed;
* a copy with CRLF line ends of every 7th problem file of each workload at
  seed 1 (one ``text`` line each), written in binary, run by ``analyze``
  and by ``compare``.

That is 491 texts and 3986 calls. Problem files go to a temporary
directory, and a printed argv names a file by its seed and base name, or
by its oracle seed and trial. The corpus takes 17-40 s on a 2-vCPU x86
host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

SEEDS = (1, 2)
ORACLE_SEEDS = range(1, 151)
WIDE_ORACLE_SEEDS = range(60)
REPLAY_SEEDS = range(1, 51)
REPLAY_TRIALS = 5
CRLF_SEED = 1
CRLF_EVERY = 7
VARIANTS = (
    *(("analyze", "--algo", algo) for algo in ("1", "2", "3", "file")),
    ("compare",),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call(cli, argv, workdir: str) -> str:
    """One in-process call, as an ``exit digest argv`` line; a traceback
    prints its exception's type in place of the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
    shown = [os.path.relpath(a, workdir) if a.startswith(workdir) else a for a in argv]
    return f"{code} {digest(out.getvalue())} {' '.join(shown)}"


def round_trip_text(instance) -> str:
    """The exact abstraction of the instance's base as a problem over its
    equations, after the base's ``# e0`` lines: a file that replays clean."""
    from sharelin.amgu import AnalysisProblem
    from sharelin.fuzz import exact_abstraction
    from sharelin.problem_io import format_term, print_problem

    _, triple, formula = exact_abstraction(instance.universe, instance.base)
    problem = AnalysisProblem(instance.universe, triple, formula, instance.equations)
    base = "".join(f"# e0 {format_term(eq.lhs)} = {format_term(eq.rhs)}\n" for eq in instance.base)
    return base + print_problem(problem)


def replays():
    """For each oracle trial at the replay seeds, a ``text`` line for its
    round-trip file and the argv of its replay, then of the replay of the
    same file without its ``pos`` line. The files go to ``replay/`` under
    the working directory, and are named relative to it, since a replay
    prints its file's name."""
    from sharelin.fuzz import FuzzLimits, generate_instance

    for seed in REPLAY_SEEDS:
        rng = random.Random(seed)
        for trial in range(REPLAY_TRIALS):
            text = round_trip_text(generate_instance(rng, FuzzLimits()))
            no_pos = "".join(l for l in text.splitlines(True) if not l.startswith("pos "))
            name = f"replay/{seed}-{trial}"
            yield f"text {digest(text)} {name}.sl"
            for path, body in ((name + ".sl", text), (name + "-no-pos.sl", no_pos)):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(body)
                yield ("oracle", "--replay", path)


def crlf_copies(files):
    """For each (path, problem), a ``text`` line for a copy of the file with
    CRLF line ends, written in binary so that they reach the CLI as
    written, and the argv of its ``analyze`` and ``compare`` calls."""
    for path, problem in files:
        text = problem.text.replace("\n", "\r\n")
        copy = path[: -len(".sl")] + "-crlf.sl"
        with open(copy, "wb") as handle:
            handle.write(text.encode("utf-8"))
        yield f"text {digest(text)} {CRLF_SEED}/{problem.name}-crlf"
        yield ("analyze", copy)
        yield ("compare", copy)


def corpus(workloads, workdir: str):
    """The corpus in order: a ``text`` line (a string) for each generated
    file, and the argv (a tuple) of each call."""
    crlf = []
    for seed in SEEDS:
        for make in workloads.WORKLOADS.values():
            ops = make(seed, os.path.join(workdir, str(seed))).ops
            files = {op.argv[1]: op.problem for op in ops if op.problem is not None}
            if seed == CRLF_SEED:
                crlf += list(files.items())[::CRLF_EVERY]
            for problem in files.values():
                yield f"text {digest(problem.text)} {seed}/{problem.name}"
            yield from (op.argv for op in ops)
            for path in files:
                for variant in VARIANTS:
                    yield (*variant, path)
                    yield (*variant, path, "--no-early-prune")
    for seed in ORACLE_SEEDS:
        yield ("oracle", "--seed", str(seed), "--trials", "5")
        yield ("oracle", "--seed", str(seed), "--trials", "5", "--max-vars", "6", "--max-eqs", "4")
    for max_vars in ("4", "8", "12", "20"):
        for seed in WIDE_ORACLE_SEEDS:
            yield ("oracle", "--seed", str(seed), "--trials", "10", "--max-eqs", "4",
                   "--max-vars", max_vars)
    yield from replays()
    yield from crlf_copies(crlf)


def lines(every: int = 1):
    """Yield the corpus lines in order, with ``None`` in place of each call
    that is not sampled: a call runs only when its line index, counted from
    0, is a multiple of ``every``, and a ``text`` line, which costs nothing
    to make, always prints. ``sharelin`` and ``perfbench`` must be
    importable; the working directory is a temporary one until the
    generator finishes."""
    import perfbench.workloads as workloads
    import sharelin.cli as cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for name in (*map(str, SEEDS), "replay"):
            os.mkdir(os.path.join(workdir, name))
        os.chdir(workdir)
        try:
            for i, item in enumerate(corpus(workloads, workdir)):
                if isinstance(item, str):
                    yield item
                else:
                    yield call(cli, item, workdir) if i % every == 0 else None
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    tree = os.path.abspath(args[0] if args else os.path.join(os.path.dirname(__file__), ".."))
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
