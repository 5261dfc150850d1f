"""The command-line surface: outputs, exit codes, determinism."""

import hashlib
import os
import random
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sharelin.amgu as amgu
import sharelin.cli as cli
import sharelin.groundness as groundness
from sharelin.fuzz import (
    FuzzLimits,
    FuzzReport,
    Violation,
    generate_instance,
    replay_text,
    run_trials,
)
from sharelin.problem_io import MAX_TERM_DEPTH, parse_problem

SIX_VARS = (
    "vars u v w x y z\n"
    "sharing {u,w} {v,w} {x,y} {x,z} {w,x}\n"
    "lin u v w x y z\n"
    "eq w = x\n"
)

PRUNING = (
    "vars u v x y\n"
    "sharing {x} {y} {u} {v}\n"
    "pos x | y\n"
    "eq x = f(u, v)\n"
    "eq x = y\n"
)

REDUNDANT = "vars x y z\nsharing {x,y} {y,z}\nfree y\neq x = z\n"


@pytest.fixture
def problem_file(tmp_path):
    def write(text, name="problem.sl"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def message_lines(err):
    """Stderr without argparse's usage block (a ``usage:`` line and its
    indented continuations)."""
    lines = err.splitlines()
    while lines and (lines[0].startswith("usage:") or lines[0].startswith(" ")):
        lines.pop(0)
    return lines


def wide_vars(n):
    return "vars " + " ".join(f"v{i}" for i in range(n)) + "\n"


def nested(depth, leaf="y"):
    """``f(f(...f(leaf)...))`` with ``depth`` argument lists."""
    return "f(" * depth + leaf + ")" * depth


def test_analyze_collapses_to_empty_group_line(problem_file, capsys):
    code, out, _ = run(["analyze", problem_file(PRUNING), "--algo", "3"], capsys)
    assert code == 0
    sharing_lines = [l for l in out.splitlines() if l.startswith("sharing")]
    assert sharing_lines == ["sharing {}"]


def test_analyze_ten_groups(problem_file, capsys):
    code, out, _ = run(
        ["analyze", problem_file(SIX_VARS), "--algo", "1", "--no-early-prune"], capsys
    )
    assert code == 0
    assert (
        "sharing {} {w,x} {u,w,x} {v,w,x} {w,x,y} {w,x,z} "
        "{u,w,x,y} {u,w,x,z} {v,w,x,y} {v,w,x,z}" in out
    )
    assert "# groups: 10" in out


def test_analyze_reports_pruned_input(problem_file, capsys):
    code, out, _ = run(["analyze", problem_file(PRUNING)], capsys)
    assert code == 0
    assert "# pruned sharing {}" in out


def test_analyze_output_reparses(problem_file, capsys):
    from sharelin.problem_io import parse_problem

    code, out, _ = run(["analyze", problem_file(SIX_VARS)], capsys)
    assert code == 0
    parse_problem(out)  # canonical output is a valid problem file


def test_parse_error_exit_code(problem_file, capsys):
    code, _, err = run(["analyze", problem_file("vars x y\nsharing {x}\neq x = f(y\n")], capsys)
    assert code == 1
    assert "parse error" in err and "line 3" in err


def test_semantic_error_exit_code(problem_file, capsys):
    code, _, err = run(["analyze", problem_file("vars x\nsharing {x}\neq x = q\n")], capsys)
    assert code == 2
    assert "undeclared variable 'q'" in err


WIDE24 = wide_vars(24) + "sharing {v0,v1} {v2}\neq v0 = f(v2)\n"


def test_variable_named_true_exits_with_one_message(problem_file, capsys):
    text = "vars true x\nsharing {x}\npos true -> x\neq x = a()\n"
    code, out, err = run(["analyze", problem_file(text)], capsys)
    assert code == 2
    assert out == ""
    assert message_lines(err) == [
        "semantic error: line 1, column 6: 'true' is the formula constant, not a variable name"
    ]


@pytest.mark.parametrize(
    "command, text, flags, expected",
    [
        ("analyze", "vars x y\nsharing {x}\npos ~x\neq x = y\n", [],
         "semantic error: line 3, column 5: formula is not positive"),
        ("analyze", wide_vars(22) + "sharing {v0,v1}\npos v0 | v1\neq v0 = v1\n", [],
         "semantic error: line 3, column 5: building a groundness formula over 22"),
        ("analyze",
         wide_vars(18) + "sharing " + " ".join("{v%d}" % i for i in range(18)) + "\n"
         "eq v0 = v1\n", ["--algo", "file"],
         "limit exceeded: 19 sharing groups exceed the decomposition bound 16"),
        ("analyze", "vars x\nsharing {x}\n", ["--file-bound", "0"],
         "argument --file-bound: expected a positive integer, not '0'"),
        ("analyze", "vars x\nsharing {x}\n", ["--file-bound", "two"],
         "argument --file-bound: expected a positive integer, not 'two'"),
        ("oracle", None, ["--max-vars", "0"],
         "argument --max-vars: expected a positive integer, not '0'"),
        ("oracle", None, ["--max-eqs", "0"],
         "argument --max-eqs: expected a positive integer, not '0'"),
        ("oracle", None, ["--file-bound", "0"],
         "argument --file-bound: expected a positive integer, not '0'"),
        ("oracle", None, ["--file-bound", "-1"],
         "argument --file-bound: expected a positive integer, not '-1'"),
        ("oracle", None, ["--trials", "-5"],
         "argument --trials: expected a non-negative integer, not '-5'"),
        ("oracle", None, ["--trials", "2", "--max-depth", "-3"],
         "argument --max-depth: expected a non-negative integer, not '-3'"),
        ("analyze", "vars x y\nsharing {x}\neq x = " + nested(257) + "\n", [],
         "semantic error: line 3, column 520: term nested deeper than 256 argument lists"),
        ("oracle", "# e0 x = " + nested(257) + "\nvars x y\nsharing {x,y}\neq x = y\n",
         ["--replay"], "semantic error: line 1, column 522: term nested deeper than 256"),
        ("oracle", None, ["--max-depth", "256"],
         "argument --max-depth: expected at most 255, not '256'"),
        ("oracle", "vars x\nsharing {x}\n", ["--replay"],
         "semantic error: line 1, column 1: a replayed file needs at least one 'eq' line"),
        ("oracle", None, ["--max-vars", "1000", "--trials", "3"],
         "argument --max-vars: expected at most 64, not '1000'"),
        ("compare", "vars x  true\nsharing {x}\n", [],
         "semantic error: line 1, column 9: 'true' is the formula constant, not a variable name"),
        ("analyze", "vars x\nsharing {x}\npos " + "(" * 101 + "x" + ")" * 101 + "\n", [],
         "semantic error: line 3, column 105: formula nested deeper than 100 levels"),
        ("compare", "vars x\nsharing {x}\npos " + "~" * 102 + "x\n", [],
         "semantic error: line 3, column 105: formula nested deeper than 100 levels"),
        ("oracle", "vars x\nsharing {x}\npos " + "x -> " * 101 + "x\neq x = x\n", ["--replay"],
         "semantic error: line 3, column 507: formula nested deeper than 100 levels"),
    ],
    ids=["pos-not-positive", "pos-over-bound", "file-over-bound", "file-bound-zero",
         "file-bound-word",
         "oracle-max-vars-zero", "oracle-max-eqs-zero", "oracle-file-bound-zero",
         "oracle-file-bound-negative", "oracle-trials-negative", "oracle-max-depth-negative",
         "eq-nested-past-bound", "replay-e0-nested-past-bound", "oracle-max-depth-past-bound",
         "replay-no-eq", "oracle-max-vars-past-bound", "vars-true", "pos-nested-past-bound",
         "pos-negated-past-bound", "replay-pos-chain-past-bound"],
)
def test_parseable_input_never_tracebacks(problem_file, capsys, command, text, flags, expected):
    # the file goes last, after --replay for oracle; other oracle calls take none
    files = [] if text is None else [problem_file(text)]
    code, out, err = run([command, *flags, *files], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = message_lines(err)
    assert len(lines) == 1
    assert expected in lines[0]


def test_term_nested_at_the_bound_runs(problem_file, capsys):
    assert MAX_TERM_DEPTH == 256
    text = "vars x y\nsharing {x,y}\nfree y\neq x = " + nested(256) + "\n"
    for argv in (["analyze", "--algo", "file"], ["compare"]):
        code, out, _ = run([*argv, problem_file(text)], capsys)
        assert code == 0
        assert "groups" in out
    # the deepest term --max-depth 255 can generate ends in a constant
    replay = "# e0 x = " + nested(256) + "\nvars x y\nsharing {x,y}\nfree y\nlin x\npos x <-> y\n"
    replay += "eq y = " + nested(255, "a()") + "\neq x = " + nested(256, "x") + "\n"
    code, out, _ = run(["oracle", "--replay", problem_file(replay)], capsys)
    assert code == 0
    assert out.endswith("counterexamples: 0\n")


def test_formula_nested_at_the_bound_runs(problem_file, capsys):
    assert groundness.MAX_FORMULA_DEPTH == 100
    depth = groundness.MAX_FORMULA_DEPTH
    for pos in (
        "(" * depth + "x" + ")" * depth,
        "~" * depth + "x",
        "x -> " * depth + "y",
        "x <-> " * depth + "x",
    ):
        text = f"vars x y\nsharing {{x,y}}\npos {pos}\neq x = y\n"
        for command in ("analyze", "compare"):
            code, out, err = run([command, problem_file(text)], capsys)
            assert code == 0, err
            assert out


def test_sibling_clauses_past_the_depth_bound_run(problem_file, capsys):
    # each clause closes the levels it opens, so only nesting counts
    for clause in ("(x)", "~~x", "(x -> y)", "(x <-> y)"):
        pos = " & ".join([clause] * (groundness.MAX_FORMULA_DEPTH + 1))
        text = f"vars x y\nsharing {{x,y}}\npos {pos}\neq x = y\n"
        code, out, err = run(["analyze", problem_file(text)], capsys)
        assert code == 0, err
        assert out


@pytest.mark.parametrize("command", ["analyze", "compare", "oracle --replay"])
def test_file_that_is_not_utf8_is_unreadable(tmp_path, capsys, command):
    path = tmp_path / "bad.sl"
    path.write_bytes(b"vars x\n# \xff\nsharing {x}\neq x = x\n")
    code, out, err = run([*command.split(), str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: not UTF-8 text (byte 9)\n"


def test_wide_oracle_with_few_leaves_runs(problem_file, capsys):
    # 40 variables: 33 bound to a constant, two to terms over four free
    # leaves, and one more free leaf; the groundness is a clause form, and
    # the file carries it as its pos line
    names = [f"x{i}" for i in range(1, 41)]
    base = [f"x{i} = a()" for i in range(1, 34)] + ["x34 = f(x36, x37)", "x35 = g(x38, x39, x39)"]
    text = "".join(f"# e0 {eq}\n" for eq in base) + (
        "vars " + " ".join(names) + "\n"
        "sharing {x40} {x34,x36} {x34,x37} {x35,x38} {x35,x39}\n"
        "free x36 x37 x38 x39 x40\n"
        "lin " + " ".join(n for n in names if n != "x35") + "\n"
        "pos " + " & ".join(names[:33]) + " & (x34 <-> x36 & x37) & (x35 <-> x38 & x39)\n"
        "eq x34 = x35\neq x40 = h(x36, x1)\n"
    )
    code, out, err = run(["oracle", "--replay", problem_file(text)], capsys)
    assert code == 0
    assert "Traceback" not in err
    assert out.endswith("counterexamples: 0\n")
    # a trial whose solved form has 28 free leaves
    code, out, _ = run(["oracle", "--max-vars", "30", "--trials", "3", "--seed", "2"], capsys)
    assert code == 0
    assert out.endswith("counterexamples: 0\n")


def test_wide_round_trip_files_replay(problem_file, capsys):
    # the exact round-trip file of every oracle instance at seeds 1-40 over
    # up to 64 variables; 134 of them have more than 20 variables, and their
    # pos lines print and parse back as clauses
    limits = FuzzLimits(max_vars=64)
    wide = 0
    for seed in range(1, 41):
        rng = random.Random(seed)
        for trial in range(5):
            instance = generate_instance(rng, limits)
            wide += len(instance.universe) > 20
            text = replay_text(instance, instance.equations)
            code, out, err = run(["oracle", "--replay", problem_file(text)], capsys)
            assert code == 0 and out.endswith("counterexamples: 0\n"), (seed, trial, err)
    assert wide == 134


def test_truth_table_pos_lines_print_like_their_clauses(tmp_path, capsys):
    # every 5th seed-1 prune-wide file with a pos line, at 16, 18 and 20
    # variables: "pos (P) | (P)" has the models of P, held as a truth table
    from perfbench.workloads import prune_wide

    problems = [op.problem for op in prune_wide(1, str(tmp_path)).ops]
    with_pos = [p for p in problems if "\npos " in p.text][::5]
    assert len(with_pos) == 12 and {len(p.universe) for p in with_pos} == {16, 18, 20}
    for problem in with_pos:
        table = re.sub(r"^pos (.*)$", r"pos (\1) | (\1)", problem.text, flags=re.MULTILINE)
        assert parse_problem(table).formula.clauses is None
        paths = []
        for name, text in ((problem.name, problem.text), (problem.name + "-table", table)):
            paths.append(tmp_path / f"{name}.sl")
            paths[-1].write_text(text)
        for command in ("analyze", "compare"):
            clause_run, table_run = (run([command, str(path)], capsys) for path in paths)
            assert clause_run[:2] == table_run[:2] and clause_run[0] == 0, problem.name


def test_oracle_at_64_variables_closes_dense_states(capsys):
    # a trial at this seed closes one 3393-group set to 13 567 groups, which
    # took the semi-naive closure minutes
    code, out, _ = run(
        ["oracle", "--max-vars", "64", "--trials", "200", "--seed", "3"], capsys
    )
    assert code == 0
    assert out.endswith("counterexamples: 0\n")


def test_over_bound_universe_analyzes_without_pruning(problem_file, capsys):
    code, out, _ = run(["analyze", problem_file(WIDE24), "--no-early-prune"], capsys)
    assert code == 0
    assert "# groups: 2" in out


def wide_grounding(n):
    # v2 is bound to a constant and v0 to a term over v2, so both are ground
    return wide_vars(n) + "sharing {v0,v1} {v2} {v3}\neq v2 = a()\neq v0 = f(v2)\n"


@pytest.mark.parametrize("n", [24, 64])
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_pruning_past_formula_bound(problem_file, capsys, command, n):
    # without a pos line, pruning forward-chains the equations and needs no
    # model set, so it runs past the 20-variable bound up to 64 variables
    code, out, _ = run([command, problem_file(wide_grounding(n))], capsys)
    assert code == 0
    pruned = [l for l in out.splitlines() if l.startswith("# pruned ")]
    assert "# pruned sharing {} {v3}" in pruned
    assert "# pruned lin v0 v2" in pruned


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_clause_form_pos_line_at_64_variables(problem_file, capsys, command):
    # a pos line in the clause fragment builds no truth table at any width;
    # its complements drop {v3} and {v62,v63}
    text = wide_vars(64) + (
        "sharing {v0,v1} {v2} {v3} {v10} {v62,v63}\n"
        "pos (v3 <-> v62 & v63) & v40 & (v10 -> v11)\n"
        "eq v0 = f(v2)\n"
    )
    code, out, _ = run([command, problem_file(text)], capsys)
    assert code == 0
    assert "# pruned sharing {} {v2} {v10} {v0,v1}" in out.splitlines()


def test_compare_prunes_once(problem_file, capsys, monkeypatch):
    early_prune = amgu.early_prune
    calls = []

    def counting(*args):
        calls.append(args)
        return early_prune(*args)

    # count the calls made through either module's name, including those
    # inside amgu.analyze
    monkeypatch.setattr(cli, "early_prune", counting)
    monkeypatch.setattr(amgu, "early_prune", counting)
    path = problem_file(PRUNING)
    code, out, _ = run(["compare", path], capsys)
    assert code == 0
    assert len(calls) == 1
    assert "# pruned sharing {}" in out
    run(["compare", path, "--no-early-prune"], capsys)
    assert len(calls) == 1


# Both sides hold x twice and meet the ten hub groups, so neither is linear.
# The free a1 lies in one group of each hub, so amgu2/3 keep those apart.
HUB = (
    "vars x y a1 a2 a3 a4 a5 b1 b2 b3 b4 b5 "
    + " ".join(f"c{i}" for i in range(1, 21))
    + "\nsharing {a1,x} {a2,x} {a3,x} {a4,x} {a5,x} {a1,b1,y} {b2,y} {b3,y} {b4,y} {b5,y} "
    + " ".join(f"{{c{i}}}" for i in range(1, 21, 2))
    + " {c2,c3} {c6,c7} {c10,c11} {c14,c15} {c18,c19}\n"
    "free a1 c1\n"
    "lin c3 c5\n"
    "eq h(x, x, y) = h(y, x, x)\n"
)

# stdout digests, recorded when the region was still the pairwise union of
# the two closures and groups were printed by scanning every position
HUB_DIGESTS = {
    ("analyze", "1"): "7336a0293ede66571165f58199fc4d2136659cb2864d7ec4ff52016d0ac19c29",
    ("analyze", "2"): "676acd41ada1ee33548f7bb54cc6168442b1a03a547f6051f2d597b8cd1f417a",
    ("analyze", "3"): "676acd41ada1ee33548f7bb54cc6168442b1a03a547f6051f2d597b8cd1f417a",
    ("compare", None): "ef0802ecb3137476c5d8172a68ab50b42bead49f9213b54acb6ff80f3a0b753c",
}


@pytest.mark.parametrize("command, algo", list(HUB_DIGESTS))
def test_hub_output_is_byte_identical(problem_file, capsys, command, algo):
    argv = [command, problem_file(HUB), "--no-early-prune"]
    if algo is not None:
        argv += ["--algo", algo]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HUB_DIGESTS[command, algo]


# A consistent 20-variable state, so that pruning removes no free variable's
# last group, under a pos line that is a conjunction of definite clauses
# (v <-> conj, conj -> conj, bare variables, true) or one that is not (| and ~)
POS_LINES = {
    "definite": "(v0 <-> v1 & v2) & (v3 -> v4) & v5 & (v6 & v7 -> v8 & v9) & true"
    " & (v10 <-> v11) & (v12 <-> true)",
    "non-definite": "(v0 | v1) & (v3 -> v4 | v5) & (~v6 | v5) & (v10 <-> v11) & v13",
}


def pos_problem(pos):
    return (
        wide_vars(20)
        + "sharing {v0,v12} {v1} {v2,v3} {v4} {v5,v6} {v7} {v8,v9} {v10} {v11,v13} {v14}"
        " {v15,v16} {v17} {v18,v19} {v3,v18}\n"
        "free v7 v17\n"
        "lin v1 v4 v7 v10 v14 v17\n"
        f"pos {POS_LINES[pos]}\n"
        "eq v13 = a()\n"
        "eq v0 = f(v3, v14)\n"
        "eq v15 = g(v16, v17, v17)\n"
        "eq v18 = v19\n"
    )


# stdout digests, recorded when every pos line was parsed to a truth table
# and pruning filtered its explicit models
POS_DIGESTS = {
    ("definite", "analyze", "1"): "7827486e2d1bf418fb7d827f97abc4ba7d5a9c54b8d449e84d08e2f1b97aee94",
    ("definite", "analyze", "2"): "7827486e2d1bf418fb7d827f97abc4ba7d5a9c54b8d449e84d08e2f1b97aee94",
    ("definite", "analyze", "3"): "7827486e2d1bf418fb7d827f97abc4ba7d5a9c54b8d449e84d08e2f1b97aee94",
    ("definite", "analyze", "file"): "7827486e2d1bf418fb7d827f97abc4ba7d5a9c54b8d449e84d08e2f1b97aee94",
    ("definite", "compare", None): "f9260fd1f1a46cd12b087d9e8326d91a7b0e38a959a235dab4a267736ce6c5a6",
    ("non-definite", "analyze", "1"): "85d1fb69ef0a7394c435656ccab0f9d1877aa4bc5965af9aee8bba1af09ae2e2",
    ("non-definite", "analyze", "2"): "85d1fb69ef0a7394c435656ccab0f9d1877aa4bc5965af9aee8bba1af09ae2e2",
    ("non-definite", "analyze", "3"): "85d1fb69ef0a7394c435656ccab0f9d1877aa4bc5965af9aee8bba1af09ae2e2",
    ("non-definite", "analyze", "file"): "85d1fb69ef0a7394c435656ccab0f9d1877aa4bc5965af9aee8bba1af09ae2e2",
    ("non-definite", "compare", None): "d263d28bb22fc35619b4ebefb54deab998a88b71682fc8d4e7e7c54a00aecc38",
}


@pytest.mark.parametrize("pos, command, algo", list(POS_DIGESTS))
def test_pos_output_is_byte_identical(problem_file, capsys, pos, command, algo):
    argv = [command, problem_file(pos_problem(pos))]
    if algo is not None:
        argv += ["--algo", algo]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == POS_DIGESTS[pos, command, algo]


@pytest.mark.parametrize(
    "command, algo", [key[1:] for key in POS_DIGESTS if key[0] == "non-definite"]
)
def test_non_definite_line_never_lists_its_models(problem_file, capsys, monkeypatch,
                                                  command, algo):
    # parsing, conjoining with the equations, entailment and trimming all
    # work on the truth table; listing its 135 168 models would raise
    def no_listing(table):
        raise AssertionError("the formula's models were listed")

    monkeypatch.setattr(groundness, "_models", no_listing)
    argv = [command, problem_file(pos_problem("non-definite"))]
    if algo is not None:
        argv += ["--algo", algo]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == POS_DIGESTS["non-definite", command, algo]


def test_missing_file(problem_file, capsys):
    code, _, err = run(["analyze", "no-such-file.sl"], capsys)
    assert code == 1
    assert "error" in err


def test_stdout_is_deterministic(problem_file, capsys):
    path = problem_file(SIX_VARS)
    _, out1, _ = run(["analyze", path, "--algo", "1"], capsys)
    _, out2, _ = run(["analyze", path, "--algo", "1"], capsys)
    assert out1 == out2
    _, cmp1, _ = run(["compare", path], capsys)
    _, cmp2, _ = run(["compare", path], capsys)
    assert cmp1 == cmp2


def test_compare_rows_and_marks(problem_file, capsys):
    code, out, _ = run(["compare", problem_file(REDUNDANT)], capsys)
    assert code == 0
    lines = out.splitlines()
    row = {l.split()[0]: l for l in lines if l and not l.startswith("#")}
    assert "S: {} {x,y,z}" in row["amgu1"]
    assert "S: {}" in row["amgu2"]
    assert "# amgu2.S < amgu1.S" in lines
    assert "# amgu3.S = amgu2.S" in lines
    assert "# file.S = amgu2.S" in lines


def test_compare_marks_supersets_and_incomparable_states(problem_file, capsys):
    # amgu3 and the reference are incomparable: on the first file amgu3 is
    # strictly sharper, on the second each keeps a group the other drops
    for text, mark in [
        ("vars x y\nsharing {y}\nfree y\neq y = f(y)\n", ">"),
        ("vars x y\nsharing {x} {x,y}\nfree x y\neq y = f(y)\n", "<>"),
    ]:
        code, out, _ = run(["compare", problem_file(text)], capsys)
        assert code == 0
        assert f"# file.S {mark} amgu3.S" in out.splitlines()


def test_compare_skips_reference_beyond_bound(problem_file, capsys):
    text = "vars a1 b1 c1 d1 e1\nsharing " + " ".join(
        "{" + ",".join(c) + "}" for c in (["a1"], ["b1"], ["c1"], ["d1"], ["e1"])
    ) + "\neq a1 = b1\n"
    code, out, _ = run(["compare", problem_file(text), "--file-bound", "4"], capsys)
    assert code == 0
    assert any(l.startswith("file") and "skipped" in l for l in out.splitlines())


def test_oracle_clean_run(problem_file, capsys):
    code, out, _ = run(["oracle", "--seed", "42", "--trials", "25"], capsys)
    assert code == 0
    assert "counterexamples: 0" in out


def test_oracle_zero_trials_vacuous(problem_file, capsys):
    code, out, _ = run(["oracle", "--trials", "0"], capsys)
    assert code == 0
    assert "counterexamples: 0" in out


def test_oracle_zero_depth_runs(problem_file, capsys):
    code, out, _ = run(["oracle", "--trials", "2", "--max-depth", "0"], capsys)
    assert code == 0
    assert "counterexamples: 0" in out


def test_oracle_writes_its_stats_to_stderr(tmp_path, capsys):
    code, out, err = run(["oracle", "--seed", "5", "--trials", "30"], capsys)
    assert code == 0
    *stats, elapsed = err.splitlines()
    expected = sorted(run_trials(5, 30).stats.items())
    assert expected
    assert stats == [f"stat {name} {count}" for name, count in expected]
    assert elapsed.startswith("elapsed: ")
    # replay keeps its one stderr line
    path = tmp_path / "counterexample.sl"
    path.write_text(round_trip_text())
    code, out, err = run(["oracle", "--replay", str(path)], capsys)
    assert code == 0
    assert [line.split(" ")[0] for line in err.splitlines()] == ["elapsed:"]


def test_oracle_counterexample_exit_code(problem_file, capsys, monkeypatch):
    fake = FuzzReport(seed=1, trials=1)
    fake.violations.append(Violation(0, "demo", "forced", "vars x\nsharing {x}\n"))
    monkeypatch.setattr(cli, "run_trials", lambda *a, **k: fake)
    code, out, _ = run(["oracle", "--trials", "1"], capsys)
    assert code == 3
    assert "property=demo" in out
    assert "counterexamples: 1" in out


def round_trip_text():
    """The exact counterexample file of a four-variable instance whose base
    grounds nothing yet makes ``w`` depend on ``x``, ``y`` and ``z``."""
    from sharelin.fuzz import Instance
    from sharelin.terms import Compound, Equation, Variable, VariableUniverse

    w, x, y, z = (Variable(n) for n in "wxyz")
    instance = Instance(
        VariableUniverse.of_names(["w", "x", "y", "z"]),
        (Equation(w, Compound("f", (x, y, z))),),
        (Equation(w, Compound("f", (z, x, y))),),
    )
    return replay_text(instance, instance.equations)


def test_oracle_replay_round_trip(problem_file, tmp_path, capsys):
    path = tmp_path / "counterexample.sl"
    path.write_text(round_trip_text())
    code, out, _ = run(["oracle", "--replay", str(path)], capsys)
    assert code == 0
    assert "counterexamples: 0" in out
    # the same file still parses as a plain analysis input
    code, _, _ = run(["analyze", str(path)], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "text, code",
    [
        ("".join(l for l in round_trip_text().splitlines(True) if not l.startswith("pos ")), 3),
        ("vars x y\nsharing {y}\nfree y\nlin x y\neq x = y\n# e0 x = a()\n", 3),
        ("vars x y\nsharing {x} {y}\nfree x y\nlin x y\neq x = y\n", 0),
    ],
    ids=["round-trip-without-pos", "ground-base-without-pos", "empty-base-without-pos"],
)
def test_oracle_replay_reads_a_missing_pos_line_as_true(problem_file, capsys, text, code):
    # a file without a pos line records 'true', which only a base that binds
    # no variable abstracts to
    got, out, _ = run(["oracle", "--replay", problem_file(text)], capsys)
    assert got == code
    assert ("property=replay-formula-mismatch" in out) == (code == 3)


# stdout digests, recorded when every describes() check re-ran unify and
# every amgu step re-walked its equation's terms
ORACLE_DIGESTS = {
    (1, False): "26e46c1673ba7f4e6a48f28588e2c243db8a548e53a05a1f8136c0c1c19af4f0",
    (2, False): "9e645e11f8a6a8fd1bc844ff703b8872efa0a09d67f50e220e4f018d1a166385",
    (3, False): "33ddb53cdc74f98c97e5a07c6da10eb92f3fd2754c3faebf56db7d34fb0031ab",
    (1, True): "8578a2d588373b6d5636ecaf63137d468f274cec3a88a1f0c4029f984829fb2a",
    (2, True): "cf9f569562dd6fc58b210fab98d0f1cbb69d4293e8fd9b04218bd64bc2778c15",
    (3, True): "570553ff8918a1dcf589f390ed7efa48aafa5153e7065f476ce0b4c6594314af",
}


@pytest.mark.parametrize("seed, wide", list(ORACLE_DIGESTS))
def test_oracle_output_is_byte_identical(capsys, seed, wide):
    argv = ["oracle", "--seed", str(seed), "--trials", "20"]
    if wide:
        argv += ["--max-vars", "6", "--max-eqs", "4"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_DIGESTS[seed, wide]


def test_timing_goes_to_stderr_not_stdout(problem_file, capsys):
    _, out, err = run(["analyze", problem_file(REDUNDANT)], capsys)
    assert "elapsed" not in out
    assert "elapsed" in err


# A child interpreter in which any import of numpy fails.
NO_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "import sharelin.cli\n"
    "raise SystemExit(sharelin.cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "argv", [["analyze"], ["compare"], ["oracle", "--trials", "2"]],
    ids=["analyze", "compare", "oracle"],
)
def test_runs_without_numpy(problem_file, capsys, argv):
    if argv[0] != "oracle":
        argv = [*argv, problem_file(PRUNING)]  # PRUNING has a pos line
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert "Traceback" not in child.stderr
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert (child.returncode, child.stdout) == (code, out)


def fresh_run(argv):
    """Exit code, stdout and stderr of ``sharelin`` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "sharelin.cli", *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    return child.returncode, child.stdout, child.stderr


def test_one_parser_serves_a_sequence_of_calls(problem_file, capsys):
    path = problem_file(PRUNING)
    calls = [
        ["analyze", path, "--algo", "2"],
        ["compare", path, "--no-early-prune"],
        ["oracle", "--seed", "3", "--trials", "4"],
        ["oracle", "--trials", "-1"],
    ]
    fresh = [fresh_run(argv) for argv in calls]
    assert fresh[-1][0] == 2 and fresh[-1][2].startswith("usage:")
    for _ in range(2):
        for argv, (code, out, err) in zip(calls, fresh):
            got = run(argv, capsys)
            assert got[:2] == (code, out)
            if code == 2:  # a usage error: no timing line, the same message
                assert got[2] == err
    assert cli.build_parser() is cli.build_parser()


# an address-space limit for one child, far below what the file below needs
OUT_OF_MEMORY_BYTES = 3 << 29  # 1.5 GiB


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (OUT_OF_MEMORY_BYTES, OUT_OF_MEMORY_BYTES))


def test_running_out_of_memory_exits_2_with_one_line(problem_file):
    # one singleton group per variable, and each v_i twice in x's term:
    # without pruning, the closure of the relevant groups has 2^24 - 1 members
    names = [f"v{i}" for i in range(24)]
    path = problem_file(
        f"vars x {' '.join(names)}\n"
        f"sharing {' '.join('{' + n + '}' for n in ['x', *names])}\n"
        f"eq x = f({', '.join(names + names)})\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "sharelin.cli", "analyze", path, "--no-early-prune"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300, env=env,
        preexec_fn=_limit_address_space,
    )
    assert "Traceback" not in child.stderr
    assert (child.returncode, child.stderr) == (2, "limit exceeded: out of memory\n")


# pos formula trees over variable indices: an index or "true", ("~", t),
# ("()", t) for parentheses the precedence does not need, or (op, t, t)
_PRECEDENCE = {"<->": 0, "->": 1, "|": 2, "&": 3}


def _pos_trees(n):
    return st.recursive(
        st.one_of(st.integers(0, n - 1), st.just("true")),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["~", "()"]), sub),
            st.tuples(st.sampled_from(list(_PRECEDENCE)), sub, sub),
        ),
        max_leaves=12,
    )


def _render_pos(tree, need=0):
    """The tree as a pos line, with only the parentheses that the grammar's
    precedence needs: the arrows associate to the right, '|' and '&' to
    the left, and '~' binds tightest."""
    if tree == "true":
        return tree
    if isinstance(tree, int):
        return f"v{tree}"
    if tree[0] == "~":
        return "~" + _render_pos(tree[1], 4)
    if tree[0] == "()":
        return "(" + _render_pos(tree[1]) + ")"
    op, left, right = tree
    level = _PRECEDENCE[op]
    arrow = level < 2
    text = f"{_render_pos(left, level + arrow)} {op} {_render_pos(right, level + (not arrow))}"
    return text if level >= need else f"({text})"


def _clause_kind(tree):
    """How the parser holds the tree's value: "conj" for ``true``, a
    variable or an ``&`` of such, "clauses" for the rest of its clause
    fragment (an arrow between two "conj" parts, and ``&`` of clause
    values), else "table". An arrow whose clauses all have an empty body
    is a "conj" again: ``true -> c``, and ``<->`` between two empty ones."""
    if tree == "true" or isinstance(tree, int):
        return "conj"
    if tree[0] == "()":
        return _clause_kind(tree[1])
    if tree[0] in ("~", "|"):
        return "table"
    kinds = {_clause_kind(tree[1]), _clause_kind(tree[2])}
    if tree[0] != "&":
        if kinds != {"conj"}:
            return "table"
        empty = _empty_conj(tree[1]) and (tree[0] == "->" or _empty_conj(tree[2]))
        return "conj" if empty else "clauses"
    if "table" in kinds:
        return "table"
    return "conj" if kinds == {"conj"} else "clauses"


def _empty_conj(tree):
    """Whether the parser holds the tree as a conjunction of no variable."""
    if tree == "true":
        return True
    if isinstance(tree, int) or tree[0] in ("~", "|"):
        return False
    if tree[0] == "()":
        return _empty_conj(tree[1])
    if _clause_kind(tree) != "conj":
        return False
    if tree[0] == "->":  # the conjunction of its head
        return _empty_conj(tree[2])
    return _empty_conj(tree[1]) and _empty_conj(tree[2])


def _holds(tree, m):
    if tree == "true":
        return True
    if isinstance(tree, int):
        return bool(m >> tree & 1)
    if tree[0] == "~":
        return not _holds(tree[1], m)
    if tree[0] == "()":
        return _holds(tree[1], m)
    a, b = _holds(tree[1], m), _holds(tree[2], m)
    return {"&": a and b, "|": a or b, "->": not a or b, "<->": a == b}[tree[0]]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pos_lines_parse_or_exit_cleanly(problem_file, capsys, data):
    # lines from the pos grammar, some cut short, over 1 to 22 variables:
    # past the 20-variable bound only a clause form parses, and is checked
    # on sampled assignments; in universes up to 10 variables the models
    # are checked against evaluating the tree on every assignment
    n = data.draw(st.integers(1, 22), label="n")
    tree = data.draw(_pos_trees(n), label="tree")
    line = _render_pos(tree)
    cut = data.draw(st.none() | st.integers(0, len(line) - 1), label="cut")
    if cut is not None:
        line = line[:cut]
    text = wide_vars(n) + "sharing {v0}\npos " + line + "\n"
    code, out, err = run(["analyze", problem_file(text)], capsys)
    assert "Traceback" not in err
    if code != 0:
        assert code in (1, 2)
        assert out == ""
        assert len(err.splitlines()) == 1
    if cut is not None:
        return
    if n > 20:
        if _clause_kind(tree) == "table":
            assert code == 2 and "building a groundness formula over" in err
            return
        assert code == 0
        formula = parse_problem(text).formula
        sample = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=64, max_size=64))
        for m in sample:
            group = ~m & ((1 << n) - 1)
            kept = formula is None or groundness.trim(formula, (group,)) == (group,)
            assert kept == _holds(tree, m)
        return
    models = [m for m in range(1 << n) if _holds(tree, m)] if n <= 10 else None
    positive = _holds(tree, (1 << n) - 1)
    assert code == (0 if positive else 2)
    if positive and models is not None:
        formula = parse_problem(text).formula
        assert (tuple(range(1 << n)) if formula is None else formula.models) == tuple(models)


@st.composite
def _problem_texts(draw):
    """Problem files from the grammar of the vars, sharing, free, lin, eq and
    ``# e0`` lines, at and past its bounds: 64 and 65 variables, terms nested
    256 and 257 deep, terms with hundreds of arguments, an undeclared name,
    sections shuffled or repeated, a stray ``#``, and LF or CRLF line ends.
    Terms and groups take their names from at most five declared ones (and
    the undeclared ``q``), which keeps every closure small."""
    n = draw(st.sampled_from([1, 2, 3, 5, 64, 65]), label="n")
    names = [f"v{i}" for i in range(n)]
    pool = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=True))
    if draw(st.integers(0, 7)) == 0:
        pool.append("q")
    name = st.sampled_from(pool)
    term = st.recursive(
        name | st.just("a()"),
        lambda sub: st.builds(
            lambda functor, args: f"{functor}({', '.join(args)})",
            st.sampled_from("fg"), st.lists(sub, min_size=1, max_size=3),
        ),
        max_leaves=4,
    )

    def side():
        shape = draw(st.sampled_from(["term"] * 4 + ["nested", "wide"]))
        if shape == "nested":
            return nested(draw(st.sampled_from([256, 257])), draw(name))
        if shape == "wide":
            width = draw(st.sampled_from([100, 1000]))
            return "h(" + ", ".join(pool[i % len(pool)] for i in range(width)) + ")"
        return draw(term)

    def names_line(keyword):
        return f"{keyword} " + " ".join(draw(st.lists(name, max_size=3, unique=True)))

    groups = draw(st.lists(st.lists(name, max_size=3, unique=True), max_size=4))
    lines = [f"# e0 {side()} = {side()}" for _ in range(draw(st.integers(0, 2)))]
    lines += ["vars " + " ".join(names), "sharing " + " ".join("{%s}" % ",".join(g) for g in groups)]
    lines += [names_line(k) for k in ("free", "lin") if draw(st.booleans())]
    lines += [f"eq {side()} = {side()}" for _ in range(draw(st.integers(0, 3)))]
    if draw(st.integers(0, 7)) == 0:
        lines = draw(st.permutations(lines))
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:cut] + "#" + lines[i][cut:]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_problem_texts())
def test_generated_files_exit_cleanly(problem_file, capsys, text):
    path = problem_file(text)
    for argv in (["analyze", path], ["compare", path], ["oracle", "--replay", path]):
        code, out, err = run(argv, capsys)
        assert "Traceback" not in err
        assert code in ((0, 1, 2, 3) if argv[0] == "oracle" else (0, 1, 2))
        if code in (1, 2):
            assert out == ""
            assert len(err.splitlines()) == 1
        if argv[0] == "analyze" and code == 0:
            assert parse_problem(out).universe == parse_problem(text).universe
