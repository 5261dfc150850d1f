"""Print ``exit sha256(stdout) argv`` for a fixed corpus of in-process
``sharelin`` calls, so that the outputs of two source trees can be diffed.

    python3 tools/stdout_corpus.py [TREE] > corpus.txt

``TREE`` is the root of the source tree to run (default: the tree this
script sits in); its ``src/`` and ``perfbench/`` are imported. Running the
script once on each tree and diffing the two files shows every call whose
stdout or exit code changed. The corpus:

* the text of every problem file ``perfbench/gen.py`` writes for the three
  workloads at seeds 1 and 2 (one ``text <sha256> <name>`` line each);
* every workload operation at seeds 1 and 2;
* ``analyze --algo 1|2|3|file`` and ``compare``, each with and without
  ``--no-early-prune``, on each of those problem files;
* ``oracle --trials 5`` at seeds 1-150, at default limits and with
  ``--max-vars 6 --max-eqs 4``;
* ``oracle --trials 10 --max-eqs 4`` at seeds 0-59 with ``--max-vars``
  4, 8, 12 and 20.

That is 224 texts and 3452 calls. Problem files go to a temporary
directory, and a printed argv names a file by its seed and base name. The
corpus takes about 45 s on a 2-vCPU x86 host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

SEEDS = (1, 2)
ORACLE_SEEDS = range(1, 151)
WIDE_ORACLE_SEEDS = range(60)
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


def corpus(workloads, workdir: str):
    """The corpus in order: a ``text`` line (a string) for each generated
    file, and the argv (a tuple) of each call."""
    for seed in SEEDS:
        for make in workloads.WORKLOADS.values():
            ops = make(seed, os.path.join(workdir, str(seed))).ops
            files = {op.argv[1]: op.problem for op in ops if op.problem is not None}
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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    tree = os.path.abspath(args[0] if args else os.path.join(os.path.dirname(__file__), ".."))
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    import perfbench.workloads as workloads
    import sharelin.cli as cli

    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            os.mkdir(os.path.join(workdir, str(seed)))
        for item in corpus(workloads, workdir):
            print(item if isinstance(item, str) else call(cli, item, workdir), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
