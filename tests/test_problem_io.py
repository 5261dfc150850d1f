"""Problem-file parsing, canonical printing, and the round trip."""

import os
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharelin.amgu import AlgorithmId, AmguConfig, AnalysisProblem, analyze
from sharelin.fuzz import FuzzLimits, exact_abstraction, generate_instance
from sharelin.groundness import parse_formula
from sharelin.problem_io import (
    _Line,
    ParseError,
    SemanticError,
    format_sharing,
    format_term,
    format_triple,
    parse_equation,
    parse_problem,
    print_problem,
)
from sharelin.sharing import SharingTriple
from sharelin.terms import TOKEN_RE as _TOKEN_RE
from sharelin.terms import Compound, Equation, Variable, VariableUniverse, bit_positions


def test_smallest_file():
    problem = parse_problem("vars x y\nsharing {x,y}\nfree x\neq x = y\n")
    u = problem.universe
    assert u.names == ("x", "y")
    assert problem.initial.groups == (0, 0b11)
    assert problem.initial.free == 0b01
    assert problem.initial.linear == 0b01  # free variables stay linear
    assert problem.equations == (Equation(Variable("x"), Variable("y")),)
    assert problem.formula is None


def test_six_variable_example_file():
    text = (
        "vars u v w x y z\n"
        "sharing {u,w} {v,w} {x,y} {x,z} {w,x}\n"
        "lin u v w x y z\n"
        "eq w = x\n"
    )
    problem = parse_problem(text)
    expected = SharingTriple.from_names(
        problem.universe,
        [("u", "w"), ("v", "w"), ("x", "y"), ("x", "z"), ("w", "x")],
        linear=["u", "v", "w", "x", "y", "z"],
    )
    assert problem.initial == expected
    assert problem.initial.free == 0


def test_comments_blanks_and_implied_empty_group():
    text = "# header\nvars x\n\nsharing   # nothing listed\neq x = a()\n"
    problem = parse_problem(text)
    assert problem.initial.groups == (0,)
    assert problem.equations[0].rhs == Compound("a")


def test_pos_section():
    problem = parse_problem("vars x y\nsharing {x}\npos x -> y\n")
    assert problem.formula == parse_formula("x -> y", problem.universe)
    canonical_true = parse_problem("vars x y\nsharing {x}\npos true\n")
    assert canonical_true.formula is None


class TestParseErrors:
    def test_unterminated_term(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("vars x y\nsharing {x}\neq x = f(y\n")
        assert exc.value.line == 3 and exc.value.col is not None

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_problem("vars x\nshare {x}\n")

    def test_vars_must_come_first(self):
        with pytest.raises(ParseError, match="must start"):
            parse_problem("sharing {x}\nvars x\n")

    def test_sections_out_of_order(self):
        with pytest.raises(ParseError, match="out of order"):
            parse_problem("vars x\nsharing {x}\nlin x\nfree x\n")

    def test_duplicate_section(self):
        with pytest.raises(ParseError, match="out of order or repeated"):
            parse_problem("vars x\nsharing {x}\nsharing {x}\n")

    def test_missing_sharing(self):
        with pytest.raises(ParseError, match="missing 'sharing'"):
            parse_problem("vars x\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty problem"):
            parse_problem("# nothing here\n")

    def test_trailing_text_after_equation(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_problem("vars x\nsharing {x}\neq x = x junk\n")

    def test_bad_formula(self):
        with pytest.raises(ParseError):
            parse_problem("vars x\nsharing {x}\npos x &\n")

    def test_end_of_line_columns(self):
        # a problem line ends one past its trailing blanks; a formula ends
        # one past its last token
        assert problem_error("vars x\nsharing {x}\neq x =   \n") == (
            ParseError, "expected term, found end of line", 3, 10
        )
        assert problem_error("vars x\nsharing {x}\npos x &   \n") == (
            ParseError, "unexpected end of formula", 3, 8
        )


class TestSemanticErrors:
    def test_undeclared_in_sharing(self):
        with pytest.raises(SemanticError, match="undeclared variable 'q'"):
            parse_problem("vars x\nsharing {x,q}\n")

    def test_undeclared_in_free(self):
        with pytest.raises(SemanticError):
            parse_problem("vars x\nsharing {x}\nfree q\n")

    def test_undeclared_in_equation(self):
        with pytest.raises(SemanticError, match="undeclared variable 'q'") as exc:
            parse_problem("vars x\nsharing {x}\neq x = q\n")
        assert (exc.value.line, exc.value.col) == (3, 8)  # counted from the line start

    def test_undeclared_in_formula(self):
        with pytest.raises(SemanticError, match="undeclared"):
            parse_problem("vars x\nsharing {x}\npos x & q\n")

    def test_variable_used_as_functor(self):
        with pytest.raises(SemanticError, match="used as a functor"):
            parse_problem("vars x y\nsharing {x}\neq x = y(x)\n")

    def test_duplicate_declaration(self):
        with pytest.raises(SemanticError, match="declared twice"):
            parse_problem("vars x x\nsharing {x}\n")


def test_parse_equation():
    universe = parse_problem("vars x y\nsharing {x}\n").universe
    eq = parse_equation(" x = f(y, a())", universe, 7)
    assert eq == Equation(Variable("x"), Compound("f", (Variable("y"), Compound("a"))))
    with pytest.raises(ParseError) as exc:
        parse_equation("x = f(y", universe, 7)
    assert (exc.value.line, exc.value.col) == (7, 8)


def test_constants_need_parentheses():
    problem = parse_problem("vars x\nsharing {x}\neq x = f(a(), b())\n")
    rhs = problem.equations[0].rhs
    assert rhs == Compound("f", (Compound("a"), Compound("b")))
    assert format_term(rhs) == "f(a(), b())"


def test_print_problem_canonical_shape():
    problem = parse_problem(
        "vars x y z\nsharing {y,z} {x,y}\nfree x\nlin x y\neq x = f(y, z)\n"
    )
    printed = print_problem(problem)
    assert printed.splitlines() == [
        "vars x y z",
        "sharing {} {x,y} {y,z}",
        "free x",
        "lin x y",
        "eq x = f(y, z)",
    ]


def test_round_trip_handwritten():
    text = (
        "vars u v x y\n"
        "sharing {x} {y} {u} {v}\n"
        "pos x | y\n"
        "eq x = f(u, v)\n"
        "eq x = y\n"
    )
    problem = parse_problem(text)
    assert parse_problem(print_problem(problem)) == problem


def test_round_trip_generated_problems():
    rng = random.Random(11)
    limits = FuzzLimits(max_vars=4)
    for _ in range(100):
        instance = generate_instance(rng, limits)
        _, triple, formula = exact_abstraction(instance.universe, instance.base)
        problem = AnalysisProblem(instance.universe, triple, formula, instance.equations)
        reparsed = parse_problem(print_problem(problem))
        assert reparsed.universe == problem.universe
        assert reparsed.initial == problem.initial
        assert reparsed.equations == problem.equations
        if formula.is_truth():
            assert reparsed.formula is None
        else:
            assert reparsed.formula == formula


def problem_error(text):
    try:
        parse_problem(text)
    except (ParseError, SemanticError) as exc:
        return type(exc), exc.message, exc.line, exc.col
    return None


def test_crlf_text_parses_like_lf():
    texts = [
        "# header\nvars x y z\n\nsharing {x,y} {z}  # trailing\nfree x\npos x -> y\n"
        "eq x = f(y, z)\neq z = a()\n"
    ]
    rng = random.Random(5)
    for _ in range(100):
        instance = generate_instance(rng, FuzzLimits(max_vars=6))
        _, triple, formula = exact_abstraction(instance.universe, instance.base)
        problem = AnalysisProblem(instance.universe, triple, formula, instance.equations)
        texts.append(print_problem(problem))
    for text in texts:
        crlf = text.replace("\n", "\r\n")
        assert parse_problem(crlf) == parse_problem(text)
    # errors report the same line and column with either line end
    errors = ("vars x\nsharing {x\n", "vars x\nsharing {x}\neq x = q\n", "vars x\n  \nfree x\n")
    for text in errors:
        assert problem_error(text) is not None
        assert problem_error(text.replace("\n", "\r\n")) == problem_error(text)


def test_trailing_space_is_read_once():
    # a tokenizer that rescans trailing space from each of its positions
    # takes about 6 s a line here; reading it once takes well under 1 ms
    pad = " " * 20_000
    start = time.perf_counter()
    problem = parse_problem(f"vars x y{pad}\nsharing {{x}}\t{pad}\neq x = y{pad}\n")
    assert parse_equation(f"x = y{pad}", problem.universe, 1) == problem.equations[0]
    assert time.perf_counter() - start < 1.0


def listed_column(line: _Line, index: int) -> int:
    """``_Line.column`` before it stopped the scan at the requested token,
    verbatim."""
    starts = [m.start(1) + 1 for m in _TOKEN_RE.finditer(line.body, 0, line.end)]
    return starts[index] if index < len(starts) else len(line.body) + 1


# line bodies of identifiers, operators, stray characters and odd spaces
column_texts = st.lists(
    st.sampled_from(["vars", "x", "aB_1", "true", "{", "}", "(", ")", ",", "=", "->", "<->",
                     "&", "X", "1", "\u00e9", " ", "  ", "\t", "\xa0", "\u3000"]),
    max_size=12,
).map("".join) | st.text(max_size=20)


@settings(max_examples=500, deadline=None)
@given(column_texts)
def test_column_scan_stops_like_the_list(body):
    line = _Line(body, 1)
    for index in range(len(line.tokens) + 2):
        assert line.column(index) == listed_column(line, index)


def test_output_is_valid_input():
    problem = parse_problem("vars x y\nsharing {x,y}\nfree x y\n")
    again = parse_problem(print_problem(problem))
    assert again == problem


# 64 names whose alphabetical order differs from their positions
WIDE = VariableUniverse.of_names(f"v{i * 37 % 64}" for i in range(64))


def scanned_names(universe, mask):
    """Group names as printing built them before the set-bit walk: a scan
    over every position of the universe."""
    return tuple(v.name for i, v in enumerate(universe.variables) if mask >> i & 1)


def scanned_key(mask, n):
    return mask.bit_count(), tuple(i for i in range(n) if mask >> i & 1)


wide_groups = st.one_of(
    st.integers(0, (1 << 64) - 1),
    st.sets(st.integers(0, 63), max_size=4).map(lambda bits: sum(1 << b for b in bits)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(wide_groups, max_size=40), st.integers(0, (1 << 63) - 1))
def test_set_bit_walk_prints_like_the_position_scan(groups, rest):
    triple = SharingTriple.make(WIDE, [*groups, 1 << 63 | rest], rest, rest >> 1)
    order = sorted(triple.groups, key=lambda g: scanned_key(g, 64))
    texts = ["{" + ",".join(scanned_names(WIDE, g)) + "}" for g in order]
    assert format_sharing(triple).split(" ") == texts
    for m in (*triple.groups, triple.free, triple.linear):
        assert WIDE.names_of_mask(m) == scanned_names(WIDE, m)
        assert WIDE.vars_of_mask(m) == tuple(Variable(n) for n in scanned_names(WIDE, m))


def _printing_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return mask.bit_count(), bit_positions(mask)


def position_key_groups(triple: SharingTriple) -> list[str]:
    """The groups ``format_sharing`` printed before it sorted by one int key,
    verbatim."""
    names = triple.universe.names
    return [
        "{" + ",".join([names[i] for i in positions]) + "}"
        for _, positions in sorted(map(_printing_key, triple.groups))
    ]


def scrambled_universe(n):
    """n names whose alphabetical order differs from their positions."""
    return VariableUniverse.of_names(f"v{i * 37 % n}" for i in range(n))


# one byte, its edges, a byte and one bit, and the widths up to 64 bits
PRINT_WIDTHS = (1, 7, 8, 9, 20, 63, 64)


@st.composite
def printed_states(draw):
    n = draw(st.sampled_from(PRINT_WIDTHS))
    full = (1 << n) - 1
    top = 1 << (n - 1)  # bit 63 at 64 variables
    group = st.one_of(
        st.integers(0, full),
        st.sets(st.integers(0, n - 1), max_size=4).map(lambda bits: sum(1 << b for b in bits)),
        st.integers(0, full).map(lambda m: m | top),
    )
    groups = draw(st.lists(group, max_size=40))
    free, linear = draw(st.integers(0, full)), draw(st.integers(0, full))
    return SharingTriple.make(scrambled_universe(n), groups, free, linear)


@settings(max_examples=300, deadline=None)
@given(printed_states())
def test_int_key_prints_like_the_position_key(triple):
    assert format_sharing(triple).split(" ") == position_key_groups(triple)
    text = "\n".join(format_triple(triple)) + "\n"
    assert parse_problem(text).initial == triple


@pytest.mark.parametrize("n", PRINT_WIDTHS)
def test_int_key_orders_every_group_of_a_width(n):
    # all groups over the first byte of positions, the empty one and the
    # top bit on their own, and every single variable
    universe = scrambled_universe(n)
    low = (1 << min(n, 8)) - 1
    groups = [*range(low + 1), 1 << (n - 1), *(1 << i for i in range(n))]
    triple = SharingTriple.make(universe, groups, 0, 0)
    assert format_sharing(triple).split(" ") == position_key_groups(triple)
    assert parse_problem("\n".join(format_triple(triple)) + "\n").initial == triple


# the byte-reversal table and per-byte set bits of the copy below
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def int_key_groups(triple: SharingTriple) -> list[str]:
    """The groups ``format_sharing`` printed before it printed one sorted byte
    stream, verbatim."""
    names = triple.universe.names
    width = (len(names) + 7) // 8
    shift = 8 * width
    keyed = []
    for mask in triple.groups:
        raw = mask.to_bytes(width, "little")
        reversed_mask = int.from_bytes(raw.translate(_REVERSED_BYTE), "big")
        keyed.append(((mask.bit_count() << shift) - reversed_mask, raw))
    keyed.sort()
    pieces: dict[int, str] = {}
    printed = []
    for _, raw in keyed:
        parts = []
        first = 0  # the position of the byte's lowest bit
        for byte in raw:
            if byte:
                key = first << 8 | byte
                piece = pieces.get(key)
                if piece is None:
                    piece = pieces[key] = ",".join([names[first + i] for i in _BYTE_BITS[byte]])
                parts.append(piece)
            first += 8
        printed.append("{" + ",".join(parts) + "}")
    return printed


@settings(max_examples=300, deadline=None)
@given(printed_states())
def test_byte_stream_prints_like_the_int_key(triple):
    expected = int_key_groups(triple)
    assert format_sharing(triple) == " ".join(expected)


def test_byte_stream_prints_closure_results_like_the_int_key():
    # the results of the benchmark's closure-dense files at seed 7: about
    # 2100 groups each over 32 and 64 variables
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.append(root)
    from perfbench.gen import closure_problem

    for n in (32, 64):
        for index in range(6):
            problem = parse_problem(closure_problem(7, index, n).text)
            for algo in (AlgorithmId.AMGU1, AlgorithmId.AMGU2, AlgorithmId.AMGU3):
                result = analyze(problem, AmguConfig(algorithm=algo, early_prune=False))
                assert len(result.groups) > 1000
                assert format_sharing(result).split(" ") == int_key_groups(result)
