"""Positive Boolean functions: parsing, conjunction, entailment, trimming,
and the truth tables against the numpy code they replaced."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharelin.groundness import (
    FormulaSyntaxError,
    NotPositiveError,
    PosFormula,
    UniverseTooLargeError,
    _column,
    _models,
    _token_column,
    _tokenize,
    conjoin,
    entailed_ground,
    equation_groundness,
    format_formula,
    parse_formula,
    trim,
    truth,
)
from sharelin.problem_io import parse_problem
from sharelin.terms import Compound, Equation, Variable, VariableUniverse

UXYV = VariableUniverse.of_names(["u", "v", "x", "y"])
XYZ = VariableUniverse.of_names(["x", "y", "z"])


def table_of(universe, models):
    """The formula whose models are ``models``, held as a truth table."""
    return PosFormula(universe, table=sum(1 << m for m in set(models)))


def model_names(f):
    return {f.universe.names_of_mask(m) for m in f.models}


def test_parse_basic():
    f = parse_formula("x | y", UXYV)
    assert UXYV.full_mask in f.models
    g = parse_formula("true", VariableUniverse.of_names(["x"]))
    assert model_names(g) == {(), ("x",)}
    with pytest.raises(NotPositiveError):
        parse_formula("~x", VariableUniverse.of_names(["x"]))


def test_parse_precedence_and_associativity():
    u = VariableUniverse.of_names(["w", "x", "y", "z"])
    assert parse_formula("~x & y | z", u) == parse_formula("((~x) & y) | z", u)
    assert parse_formula("x | y -> z", u) == parse_formula("(x | y) -> z", u)
    assert parse_formula("x -> y <-> z", u) == parse_formula("(x -> y) <-> z", u)
    # arrows associate to the right
    assert parse_formula("x -> y -> z", u) == parse_formula("x -> (y -> z)", u)
    assert parse_formula("x <-> y <-> z", u) == parse_formula("x <-> (y <-> z)", u)


def test_conjoin():
    f = parse_formula("x | y", UXYV)
    assert conjoin(f, truth(UXYV)) == f
    assert conjoin(f, f) == f
    combined = conjoin(
        f, conjoin(parse_formula("x <-> (u & v)", UXYV), parse_formula("x <-> y", UXYV))
    )
    assert combined == parse_formula("x & y & u & v", UXYV)


def test_equation_groundness():
    x, y, u, v = (Variable(n) for n in "xyuv")
    assert equation_groundness(
        Equation(x, Compound("f", (u, v))), UXYV
    ) == parse_formula("x <-> (u & v)", UXYV)
    assert equation_groundness(Equation(x, y), UXYV) == parse_formula("x <-> y", UXYV)
    ground = Equation(Compound("a"), Compound("b"))
    assert equation_groundness(ground, UXYV) == truth(UXYV)


def test_entailed_ground():
    assert entailed_ground(parse_formula("x & y & u & v", UXYV)) == UXYV.full_mask
    assert entailed_ground(truth(UXYV)) == 0
    assert entailed_ground(parse_formula("x <-> y", UXYV)) == 0


def _groups(universe, *names):
    return tuple(
        sorted(universe.mask_of(Variable(n) for n in g) for g in names)
    )


def test_trim_golden():
    u4 = VariableUniverse.of_names(["u", "v", "x", "y"])
    f = parse_formula("x & y & u & v", u4)
    groups = _groups(u4, "", "x", "y", "u", "v")
    assert trim(f, groups) == (0,)
    assert trim(truth(u4), groups) == groups
    f2 = parse_formula("x <-> z", XYZ)
    groups2 = _groups(XYZ, "", "xy", "xyz")
    assert set(trim(f2, groups2)) == set(_groups(XYZ, "", "xyz"))


def _formulas(universe):
    n = len(universe)
    full = (1 << n) - 1
    return st.builds(
        lambda extra: table_of(universe, set(extra) | {full}),
        st.sets(st.integers(min_value=0, max_value=full), max_size=8),
    )


@given(_formulas(XYZ), st.sets(st.integers(min_value=0, max_value=7), max_size=6))
def test_trim_laws(f, group_set):
    groups = tuple(sorted(group_set | {0}))
    assert set(trim(f, groups)) <= set(groups)
    assert trim(truth(XYZ), groups) == groups
    assert 0 in trim(f, groups)  # positivity keeps the empty group


@given(_formulas(XYZ), _formulas(XYZ), st.sets(st.integers(min_value=0, max_value=7), max_size=6))
def test_trim_commutes_with_conjunction(f, g, group_set):
    groups = tuple(sorted(group_set | {0}))
    assert trim(conjoin(f, g), groups) == trim(f, trim(g, groups))


@given(_formulas(XYZ), _formulas(XYZ))
def test_entailed_ground_grows_under_conjunction(f, g):
    combined = entailed_ground(conjoin(f, g))
    assert combined & entailed_ground(f) == entailed_ground(f)
    assert combined & entailed_ground(g) == entailed_ground(g)


@given(_formulas(XYZ))
def test_format_round_trip(f):
    assert parse_formula(format_formula(f), XYZ) == f


@st.composite
def _printable_formulas(draw):
    """Clause forms over 1 to 64 variables, some clauses with an empty head
    or a head inside their body, or truth tables over 1 to 8 variables."""
    clausal = draw(st.booleans())
    n = draw(st.integers(1, 64 if clausal else 8))
    universe = VariableUniverse.of_names(f"v{i}" for i in range(n))
    full = universe.full_mask
    masks = st.integers(0, full)
    if clausal:
        clause = st.tuples(masks, masks, st.booleans()).map(
            lambda c: (c[0], c[1] & c[0] if c[2] else c[1])
        )
        return PosFormula.of_clauses(universe, draw(st.lists(clause, max_size=6)))
    return table_of(universe, draw(st.lists(masks, max_size=40)) + [full])


@settings(max_examples=300, deadline=None)
@given(_printable_formulas())
def test_format_round_trip_at_any_width(f):
    back = parse_formula(format_formula(f), f.universe)
    assert back == f
    # a clause form prints in the parser's clause fragment, so it builds no table
    assert f.clauses is None or back.clauses is not None


U8 = VariableUniverse.of_names(f"v{i}" for i in range(8))

# formula trees: a variable name or "true", ("~", t), or (op, t, t)
_trees = st.recursive(
    st.sampled_from(U8.names + ("true",)),
    lambda sub: st.one_of(
        st.tuples(st.just("~"), sub),
        st.tuples(st.sampled_from(["&", "|", "->", "<->"]), sub, sub),
    ),
    max_leaves=6,
)


def _render(tree):
    if isinstance(tree, str):
        return tree
    if tree[0] == "~":
        return "~" + _render(tree[1])
    return f"({_render(tree[1])} {tree[0]} {_render(tree[2])})"


def _holds(tree, m):
    if tree == "true":
        return True
    if isinstance(tree, str):
        return bool(m >> U8.names.index(tree) & 1)
    if tree[0] == "~":
        return not _holds(tree[1], m)
    a, b = _holds(tree[1], m), _holds(tree[2], m)
    return {"&": a and b, "|": a or b, "->": not a or b, "<->": a == b}[tree[0]]


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_parse_models_match_assignment_evaluation(tree):
    # the truth tables index assignments by mask; evaluating the tree on each
    # mask must pick the same models, including the high bits
    models = tuple(m for m in range(1 << len(U8)) if _holds(tree, m))
    if U8.full_mask not in models:
        with pytest.raises(NotPositiveError):
            parse_formula(_render(tree), U8)
    else:
        assert parse_formula(_render(tree), U8) == table_of(U8, models)


# definite pos lines: a '&' chain of parts, each ("conj", c), ("->", c, c) or
# ("<->", c, c), where a conjunction c is (variable indices, parenthesised);
# no indices is "true"
def _definite_lines(n):
    conj = st.tuples(st.lists(st.integers(0, n - 1), max_size=3), st.booleans())
    part = st.one_of(
        st.tuples(st.just("conj"), conj),
        st.tuples(st.sampled_from(["->", "<->"]), conj, conj),
    )
    return st.lists(st.tuples(part, st.booleans()), min_size=1, max_size=5)


def _render_conj(conj):
    indices, paren = conj
    text = " & ".join(f"v{i}" for i in indices) or "true"
    return f"({text})" if paren else text


def _render_definite(line):
    """Minimal parentheses, plus the drawn ones: 'x <-> y & z' and
    'a & b -> c' are left to the precedence of '&' over the arrows, and an
    arrow is parenthesised only inside a longer '&' chain."""
    parts = []
    for part, paren in line:
        if part[0] == "conj":
            text = _render_conj(part[1])
        else:
            text = f"{_render_conj(part[1])} {part[0]} {_render_conj(part[2])}"
            paren = paren or len(line) > 1
        parts.append(f"({text})" if paren else text)
    return " & ".join(parts)


def _render_non_definite(line):
    """The same function with every arrow spelled with '~' and '|', and every
    conjunction c as 'c | c', so that no part is a definite clause."""
    def neg_or(a, b):
        return f"(~({_render_conj(a)}) | {_render_conj(b)})"

    parts = []
    for part, _ in line:
        if part[0] == "conj":
            parts.append(f"({_render_conj(part[1])} | {_render_conj(part[1])})")
        elif part[0] == "->":
            parts.append(neg_or(part[1], part[2]))
        else:
            parts.append(f"{neg_or(part[1], part[2])} & {neg_or(part[2], part[1])}")
    return " & ".join(parts)


def _definite_holds(line, m):
    def conj(c):
        return all(m >> i & 1 for i in c[0])

    for (op, *sides), _ in line:
        if op == "conj" and not conj(sides[0]):
            return False
        if op == "->" and conj(sides[0]) and not conj(sides[1]):
            return False
        if op == "<->" and conj(sides[0]) != conj(sides[1]):
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), _definite_lines(n))))
def test_definite_lines_parse_to_clauses(args):
    n, line = args
    u = _universe(n)
    f = parse_formula(_render_definite(line), u)
    assert f.clauses is not None
    models = tuple(m for m in range(1 << n) if _definite_holds(line, m))
    assert f.models == models
    explicit = table_of(u, models)
    assert f == explicit and hash(f) == hash(explicit)
    g = parse_formula(_render_non_definite(line), u)
    assert g.clauses is None
    assert f == g and hash(f) == hash(g)
    # entailment, trimming and truth read the clauses; they must agree with
    # the same function as a model set
    assert f.is_truth() == explicit.is_truth() == (len(models) == 1 << n)
    assert entailed_ground(f) == entailed_ground(explicit)
    groups = tuple(range(1 << n))
    assert trim(f, groups) == trim(explicit, groups)


def test_definite_precedence_traps():
    u = VariableUniverse.of_names(["a", "b", "c", "x", "y", "z"])
    a, b, c, x, y, z = (1 << i for i in range(6))
    # '&' binds tighter than either arrow
    assert parse_formula("x <-> y & z", u).clauses == ((x, y | z), (y | z, x))
    assert parse_formula("x <-> y & z", u) == parse_formula("x <-> (y & z)", u)
    assert parse_formula("x <-> y & z", u) != parse_formula("(x <-> y) & z", u)
    assert parse_formula("a & b -> c", u).clauses == ((a | b, c),)
    assert parse_formula("a & b -> c", u) == parse_formula("(a & b) -> c", u)
    assert parse_formula("a & b -> c", u) != parse_formula("a & (b -> c)", u)
    assert parse_formula("a & (b -> c) & true", u).clauses == ((0, a), (b, c))
    # an arrow over anything but a conjunction of variables is a truth table
    for text in ("a -> b -> c", "(a <-> b) -> c", "a & (b -> c) -> x", "a -> b | c"):
        assert parse_formula(text, u).clauses is None
    assert parse_formula("a -> b -> c", u) == parse_formula("a & b -> c", u)


def test_builders():
    # a conjunction of variables is one clause with an empty body, and a
    # biconditional is two clauses
    assert PosFormula.of_clauses(XYZ, ((0, 0),)) == truth(XYZ)
    x, yz = XYZ.mask_of([Variable("x")]), XYZ.mask_of([Variable("y"), Variable("z")])
    assert PosFormula.of_clauses(XYZ, ((0, x),)) == parse_formula("x", XYZ)
    g = PosFormula.of_clauses(XYZ, ((x, yz), (yz, x)))
    assert g == parse_formula("x <-> (y & z)", XYZ)


# The numpy constructors that the truth tables replaced: a uint64 vector of
# every assignment mask, filtered by comparisons.
def _np_assignments(universe):
    return np.arange(1 << len(universe), dtype=np.uint64)


def reference_truth(universe):
    return table_of(universe, _np_assignments(universe).tolist())


def reference_conjunction_of(universe, var_mask):
    masks = _np_assignments(universe)
    sel = (masks & np.uint64(var_mask)) == np.uint64(var_mask)
    return table_of(universe, masks[sel].tolist())


def reference_biconditional(universe, left_mask, right_mask):
    masks = _np_assignments(universe)
    lv = (masks & np.uint64(left_mask)) == np.uint64(left_mask)
    rv = (masks & np.uint64(right_mask)) == np.uint64(right_mask)
    return table_of(universe, masks[lv == rv].tolist())


def _universe(n):
    return VariableUniverse.of_names(f"v{i}" for i in range(n))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    )
)
def test_builders_match_numpy_reference(args):
    n, left, right = args
    u = _universe(n)
    assert truth(u) == reference_truth(u)
    assert PosFormula.of_clauses(u, ((0, left),)) == reference_conjunction_of(u, left)
    both_ways = ((left, right), (right, left))
    assert PosFormula.of_clauses(u, both_ways) == reference_biconditional(u, left, right)


def _scan(table, n):
    return tuple(m for m in range(1 << n) if table >> m & 1)


def test_columns_match_a_scan():
    # n = 1, 2 and 3 give tables shorter than a byte
    for n in range(1, 13):
        for i in range(n):
            column = _column(n, i)
            assert column >> (1 << n) == 0
            assert _scan(column, n) == tuple(m for m in range(1 << n) if m >> i & 1)
            assert _models(column) == _scan(column, n)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_read_off_matches_a_scan(args):
    n, table = args
    assert _models(table) == _scan(table, n)


def test_read_off_of_20_variable_tables():
    size = 1 << 20
    assert _models(1 << (size - 1)) == (size - 1,)
    assert _models((1 << size) - 1) == tuple(range(size))
    assert _models(int("10" * (size // 2), 2)) == tuple(range(1, size, 2))
    assert _models(int("01" * (size // 2), 2)) == tuple(range(0, size, 2))


def test_universe_size_guard():
    big = VariableUniverse.of_names(f"v{i}" for i in range(21))
    with pytest.raises(UniverseTooLargeError):
        parse_formula("v0 | v1", big)
    with pytest.raises(UniverseTooLargeError):
        PosFormula(big, clauses=((1, 2),)).table


def test_wide_clause_forms_need_no_table():
    # 40 variables: v0..v36 ground, v37 <-> v38 & v39
    wide = VariableUniverse.of_names(f"v{i}" for i in range(40))
    ground, top, pair = (1 << 37) - 1, 1 << 37, 3 << 38
    f = PosFormula(wide, clauses=((0, ground), (pair, top), (top, pair)))
    # the same function written with redundant and split clauses
    g = PosFormula(wide, clauses=((0, 1), (1, ground), (pair, top), (top, 1 << 38), (top, 1 << 39)))
    weaker = PosFormula(wide, clauses=((0, ground), (pair, top)))
    assert f == g and hash(f) == hash(g)
    assert f != weaker and not f.is_truth()
    with pytest.raises(UniverseTooLargeError):
        f.models
    assert parse_formula(format_formula(f), wide) == f
    assert entailed_ground(conjoin(f, PosFormula(wide, clauses=((0, 1 << 38),)))) == ground | 1 << 38
    assert trim(f, (0, 1, top, pair, top | pair)) == (0, top | pair)


def test_formula_survives_problem_round_trip():
    text = "vars x y z\nsharing {x,y}\npos x -> (y & z)\n"
    problem = parse_problem(text)
    assert problem.formula == parse_formula("x -> (y & z)", problem.universe)


# The model-set branches of conjoin, entailed_ground, trim and
# PosFormula.__eq__ before a formula was held as its truth table, verbatim.
def model_set_conjoin(f, g):
    return table_of(f.universe, set(f.models) & set(g.models))


def model_set_entailed_ground(f):
    mask = f.universe.full_mask
    for m in f.models:
        mask &= m
    return mask


def model_set_trim(f, groups):
    model_set = set(f.models)
    full = f.universe.full_mask
    return tuple(g for g in groups if full & ~g in model_set)


def model_set_eq(self, other):
    return self.universe == other.universe and self.models == other.models


@st.composite
def _tables_or_clauses(draw, universe):
    full = universe.full_mask
    masks = st.integers(0, full)
    if draw(st.booleans()):
        return table_of(universe, draw(st.lists(masks, max_size=40)) + [full])
    return PosFormula.of_clauses(universe, draw(st.lists(st.tuples(masks, masks), max_size=5)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_operations_match_model_set_copies(data):
    u = _universe(data.draw(st.integers(1, 8), label="n"))
    f = data.draw(_tables_or_clauses(u), label="f")
    # the same function in the other form, or another formula
    g = data.draw(
        st.one_of(st.just(table_of(u, f.models)), _tables_or_clauses(u)), label="g"
    )
    groups = tuple(data.draw(st.lists(st.integers(0, u.full_mask), max_size=12), label="groups"))
    conjoined = conjoin(f, g)
    assert model_set_eq(conjoined, model_set_conjoin(f, g))
    for h in (f, g, conjoined):
        assert entailed_ground(h) == model_set_entailed_ground(h)
        assert trim(h, groups) == model_set_trim(h, groups)
    assert (f == g) == model_set_eq(f, g)
    assert (f == g) <= (hash(f) == hash(g))


_SCANNED_TOKEN_RE = re.compile(r"<->|->|[()&|~]|[a-z][a-zA-Z0-9_]*")


def scanning_tokenize(text: str) -> list[tuple[str, int]]:
    """``_tokenize`` before it matched a line in one regex pass, verbatim:
    it walks the text one character at a time."""
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _SCANNED_TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
        tokens.append((m.group(), m.start() + 1))
        pos = m.end()
    return tokens


def scanned_tokens(text):
    """The scanner's tokens and their columns, then the column one past the
    last token that the parser reported at the end; or its error."""
    try:
        tokens = scanning_tokenize(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.col
    end = tokens[-1][1] + len(tokens[-1][0]) if tokens else 1
    return [token for token, _ in tokens], [col for _, col in tokens] + [end]


def one_pass_tokens(text):
    try:
        tokens = _tokenize(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.col
    return tokens, [_token_column(text, i) for i in range(len(tokens) + 1)]


formula_texts = st.lists(
    st.one_of(
        st.sampled_from(
            ["<->", "->", "<-", "-", ">", "<", "(", ")", "&", "|", "~", "true", "x", "y",
             "x1", "aB_9", "A", "Z", "1", "_", "{", "\u00e9", " ", "  ", "\t", "\n",
             "\u00a0", "\u2003", "\x1c"]
        ),
        st.text(max_size=3),
    ),
    max_size=24,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(formula_texts)
def test_one_pass_tokenizer_matches_the_scanner(text):
    assert one_pass_tokens(text) == scanned_tokens(text)


@pytest.mark.parametrize(
    "text",
    ["", "   ", "x", " x -> y ", "x <- y", "x - > y", "(x & y) | z\t", "x\u00a0&\u2003y",
     "x1 & Y", "true <-> x_1", "x é", "x ->", "  x  \x1c "],
)
def test_one_pass_tokenizer_edge_texts(text):
    assert one_pass_tokens(text) == scanned_tokens(text)
