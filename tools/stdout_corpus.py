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
  and by ``compare``;
* ``analyze --order ground-first``, ``analyze --trade-efficiency`` and
  ``compare --file-bound 4`` on every problem file of seed 1;
* a truth-table copy of every 5th seed-1 ``prune-wide`` file that has a
  ``pos`` line, each ``pos P`` rewritten as ``pos (P) | (P)`` (one
  ``text`` line each), run by ``analyze`` and by ``compare``;
* each file of :data:`BROKEN` (one ``text`` line each), which the CLI
  rejects with a parse, semantic, file or limit error;
* ``--help`` of the parser and of each subcommand, then each usage error
  of :data:`USAGE_ERRORS`.

Each call of the last four sections that exits non-zero prints the
sha256 of its stderr after that of its stdout; argparse reads the
terminal width from ``COLUMNS``, which the corpus sets to 80. That is 535
texts and 4400 calls. Problem files go to a temporary directory, and a
printed argv names a file by its seed and base name, by its oracle seed
and trial, or by its name under ``broken/``. The corpus takes 15-45 s on
a 2-vCPU x86 host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import sys
import tempfile
from unittest import mock

SEEDS = (1, 2)
ORACLE_SEEDS = range(1, 151)
WIDE_ORACLE_SEEDS = range(60)
REPLAY_SEEDS = range(1, 51)
REPLAY_TRIALS = 5
COPY_SEED = 1  # the seed whose files also run as copies and with more flags
CRLF_EVERY = 7
VARIANTS = (
    *(("analyze", "--algo", algo) for algo in ("1", "2", "3", "file")),
    ("compare",),
)
FLAG_VARIANTS = (
    ("analyze", "--order", "ground-first"),
    ("analyze", "--trade-efficiency"),
    ("compare", "--file-bound", "4"),
)
TABLE_WORKLOAD = "prune-wide"
TABLE_EVERY = 5
_WIDE = " ".join(f"v{i}" for i in range(65))
# (command, name, text): one file per error the CLI reports, its text a
# string or, for a file that is not UTF-8, bytes; files under ``broken/``
# are named relative to the working directory, since a file error prints
# its path
BROKEN = (
    ("analyze", "no-vars", "# a comment only\n"),
    ("analyze", "no-sharing", "vars x\n"),
    ("analyze", "vars-not-first", "sharing {}\n"),
    ("analyze", "unknown-section", "vars x\nshare {x}\n"),
    ("analyze", "section-order", "vars x\nsharing {x}\nlin x\nfree x\n"),
    ("analyze", "eq-before-sharing", "vars x\neq x = x\n"),
    ("analyze", "vars-empty", "vars\nsharing {}\n"),
    ("analyze", "group-brace", "vars x\nsharing x\n"),
    # the column is one past the trailing blanks
    ("analyze", "eq-end-of-line", "vars x\nsharing {x}\neq x =   \n"),
    ("analyze", "eq-trailing-text", "vars x y\nsharing {x}\neq x = y z\n"),
    ("analyze", "group-undeclared", "vars x\nsharing {y}\n"),
    ("analyze", "eq-undeclared", "vars x\nsharing {x}\neq x = y\n"),
    ("analyze", "eq-variable-functor", "vars x\nsharing {x}\neq x(a()) = x\n"),
    ("analyze", "eq-nested-past-bound",
     "vars x\nsharing {x}\neq x = " + "f(" * 257 + "x" + ")" * 257 + "\n"),
    ("analyze", "vars-twice", "vars x y x\nsharing {}\n"),
    ("analyze", "vars-reserved", "vars x true\nsharing {}\n"),
    ("analyze", "vars-too-many", f"vars {_WIDE}\nsharing {{}}\n"),
    # the column is one past the last token
    ("analyze", "pos-end-of-line", "vars x\nsharing {x}\npos x &   \n"),
    ("analyze", "pos-empty", "vars x\nsharing {x}\npos\n"),
    ("analyze", "pos-character", "vars x y\nsharing {x}\npos x $ y\n"),
    ("analyze", "pos-operator", "vars x y\nsharing {x}\npos x & | y\n"),
    ("analyze", "pos-unclosed", "vars x\nsharing {x}\npos (x\n"),
    ("analyze", "pos-trailing", "vars x y\nsharing {x}\npos x y\n"),
    ("analyze", "pos-undeclared", "vars x\nsharing {x}\npos y\n"),
    ("analyze", "pos-not-positive", "vars x\nsharing {x}\npos ~x\n"),
    ("analyze", "pos-table-too-wide",
     f"vars {_WIDE[:_WIDE.index(' v21')]}\nsharing {{}}\npos v0 | v1\n"),
    ("analyze", "pos-nested-past-bound",
     "vars x\nsharing {x}\npos " + "(" * 300 + "x" + ")" * 300 + "\n"),
    ("analyze", "not-utf8", b"vars x\n# \xff\nsharing {x}\n"),
    ("analyze --algo file --file-bound 1", "decomposition-limit",
     "vars x y\nsharing {x} {y}\neq x = y\n"),
    ("oracle --replay", "replay-no-eq", "vars x\nsharing {x}\n"),
    ("oracle --replay", "replay-e0-undeclared",
     "# e0 x = y\nvars x\nsharing {} {x}\nfree x\neq x = x\n"),
    ("oracle --replay", "replay-not-utf8", b"vars x\nsharing {x}\neq x = x\n# \xff\n"),
)
MISSING = "broken/missing.sl"  # never written: reading it fails
USAGE_ERRORS = (
    (),
    ("frobnicate",),
    ("analyze",),
    ("analyze", MISSING, "--algo", "4"),
    ("analyze", MISSING, "--order", "last"),
    ("analyze", MISSING, "--file-bound", "0"),
    ("compare", MISSING, "--file-bound", "two"),
    ("compare", MISSING, "--algo", "1"),
    ("oracle", "--max-vars", "65"),
    ("oracle", "--max-vars", "0"),
    ("oracle", "--max-depth", "256"),
    ("oracle", "--max-depth", "-1"),
    ("oracle", "--max-eqs", "0"),
    ("oracle", "--trials", "-5"),
    ("oracle", "--seed", "x"),
    ("oracle", "--file-bound", "0"),
    ("oracle", "--replay"),
)


class Diagnosed(tuple):
    """The argv of a call that, when it exits non-zero, also prints the
    sha256 of its stderr."""


def digest(text: str | bytes) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def call(cli, argv, workdir: str) -> str:
    """One in-process call, as an ``exit digest argv`` line; a traceback
    prints its exception's type in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
    digests = [digest(out.getvalue())]
    if isinstance(argv, Diagnosed) and code != 0:
        digests.append(digest(err.getvalue()))
    shown = [os.path.relpath(a, workdir) if a.startswith(workdir) else a for a in argv]
    return " ".join((str(code), *digests, *shown))


def replays():
    """For each oracle trial at the replay seeds, a ``text`` line for its
    round-trip file and the argv of its replay, then of the replay of the
    same file without its ``pos`` line. The files go to ``replay/`` under
    the working directory, and are named relative to it, since a replay
    prints its file's name."""
    from sharelin.fuzz import FuzzLimits, generate_instance, replay_text

    for seed in REPLAY_SEEDS:
        rng = random.Random(seed)
        for trial in range(REPLAY_TRIALS):
            instance = generate_instance(rng, FuzzLimits())
            text = replay_text(instance, instance.equations)
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
        yield f"text {digest(text)} {COPY_SEED}/{problem.name}-crlf"
        yield ("analyze", copy)
        yield ("compare", copy)


def table_copies(files):
    """For each (path, problem), a ``text`` line for a copy of the file whose
    ``pos P`` line reads ``pos (P) | (P)``, the same models held as a truth
    table, and the argv of its ``analyze`` and ``compare`` calls."""
    for path, problem in files:
        text = re.sub(r"^pos (.*)$", r"pos (\1) | (\1)", problem.text, flags=re.MULTILINE)
        copy = path[: -len(".sl")] + "-table.sl"
        with open(copy, "w", encoding="utf-8") as handle:
            handle.write(text)
        yield f"text {digest(text)} {COPY_SEED}/{problem.name}-table"
        yield Diagnosed(("analyze", copy))
        yield Diagnosed(("compare", copy))


def error_paths():
    """A ``text`` line and the argv of the call for each file of
    :data:`BROKEN`, the argv of a call on a missing file, then the
    ``--help`` calls and :data:`USAGE_ERRORS`."""
    for command, name, text in BROKEN:
        path = f"broken/{name}.sl"
        data = text if isinstance(text, bytes) else text.encode()
        with open(path, "wb") as handle:
            handle.write(data)
        yield f"text {digest(data)} {path}"
        yield Diagnosed((*command.split(), path))
    yield Diagnosed(("analyze", MISSING))
    for command in ((), ("analyze",), ("compare",), ("oracle",)):
        yield Diagnosed((*command, "--help"))
    yield from map(Diagnosed, USAGE_ERRORS)


def corpus(workloads, workdir: str):
    """The corpus in order: a ``text`` line (a string) for each generated
    file, and the argv (a tuple) of each call."""
    crlf, flagged, tables = [], [], []
    for seed in SEEDS:
        for workload, make in workloads.WORKLOADS.items():
            ops = make(seed, os.path.join(workdir, str(seed))).ops
            files = {op.argv[1]: op.problem for op in ops if op.problem is not None}
            if seed == COPY_SEED:
                crlf += list(files.items())[::CRLF_EVERY]
                flagged += files
                if workload == TABLE_WORKLOAD:
                    with_pos = [f for f in files.items() if "\npos " in f[1].text]
                    tables += with_pos[::TABLE_EVERY]
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
    for path in flagged:
        for variant in FLAG_VARIANTS:
            yield Diagnosed((*variant, path))
    yield from table_copies(tables)
    yield from error_paths()


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
    # argparse wraps help and usage text to the terminal's width
    with tempfile.TemporaryDirectory() as workdir, mock.patch.dict(os.environ, COLUMNS="80"):
        for name in (*map(str, SEEDS), "replay", "broken"):
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
