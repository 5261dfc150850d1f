"""The list readers, the sentinel formula parser and the per-group printer
against the code they replaced.

``listed_parse_problem``, ``peeking_parse_formula`` and
``byte_stream_format_sharing`` below are ``parse_problem`` with its
method-per-token section readers, ``parse_formula`` with its ``peek()``
descent, and ``format_sharing`` with its one byte-stream printer, copied
verbatim (renamed, with their helpers). On the same input, each pair must
return equal values, or raise the same error class with the same message
and the same line and column.
"""

import random
import re
from collections.abc import Sequence
from functools import cached_property
from itertools import cycle, islice, repeat
from operator import getitem, lshift, or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharelin.amgu import AnalysisProblem
from sharelin.groundness import (
    FormulaSyntaxError,
    NotPositiveError,
    PosFormula,
    UnknownFormulaVariable,
    UniverseTooLargeError,
    _clauses_table,
    _of_table,
    _token_column,
    parse_formula,
)
from sharelin.problem_io import (
    BYTE_STREAM_GROUPS,
    ParseError,
    SemanticError,
    format_sharing,
    parse_problem,
)
from sharelin.sharing import SharingTriple
from sharelin.terms import (
    IDENTIFIER, MAX_VARS, RESERVED_NAME, Compound, Equation, Term, VariableUniverse,
)
from test_parser_differential import DECLARED, STRAY, outcome, problem_lines, rendered

# ---- the replaced section readers, verbatim ---------------------------------

# One match per token: an identifier, or any other non-space character on
# its own.
_TOKEN_RE = re.compile(rf"\s*({IDENTIFIER}|\S)")
# Terms are walked recursively (parsing, hashing, printing, concrete
# unification), so nesting is bounded well inside Python's recursion limit.
MAX_TERM_DEPTH = 256
_SECTION_ORDER = {"vars": 0, "sharing": 1, "free": 2, "lin": 3, "pos": 4, "eq": 5}


class _Line:
    """The tokens of one line, read left to right, then ``""`` for the end.

    An error reports the 1-based column of the token it stops at, or one
    past the line's end. Columns are found only then, by matching the same
    regex again.
    """

    def __init__(self, body: str, line: int):
        # trailing space is cut first: the regex would rescan it from each
        # of its positions
        self.end = len(body.rstrip())
        self.tokens = _TOKEN_RE.findall(body, 0, self.end)
        self.tokens.append("")
        self.pos = 0
        self.body = body
        self.line = line

    def column(self, index: int) -> int:
        tokens = _TOKEN_RE.finditer(self.body, 0, self.end)
        match = next(islice(tokens, index, None), None)
        return len(self.body) + 1 if match is None else match.start(1) + 1

    def at_end(self) -> bool:
        return not self.tokens[self.pos]

    def error(self, expected: str) -> ParseError:
        token = self.tokens[self.pos]
        found = repr(token[0]) if token else "end of line"
        return self.error_at(f"expected {expected}, found {found}", self.pos)

    def error_at(self, message: str, index: int) -> ParseError:
        return ParseError(message, self.line, self.column(index))

    def semantic(self, message: str, index: int) -> SemanticError:
        return SemanticError(message, self.line, self.column(index))

    def expect(self, ch: str) -> None:
        if self.tokens[self.pos] != ch:
            raise self.error(repr(ch))
        self.pos += 1

    def ident(self, what: str) -> str:
        token = self.tokens[self.pos]
        # the token starts with a lowercase letter, so it is a whole identifier
        if not "a" <= token < "{":
            raise self.error(what)
        self.pos += 1
        return token

    def variable(self, universe: VariableUniverse) -> int:
        """The position in the universe of the next token, a declared variable."""
        name = self.ident("variable")
        index = universe.name_index.get(name)
        if index is None:
            raise self.semantic(f"undeclared variable {name!r}", self.pos - 1)
        return index

    def expect_end(self) -> None:
        if self.tokens[self.pos]:
            col = self.column(self.pos)
            raise ParseError(
                f"unexpected trailing text {self.body[col - 1:].strip()!r}", self.line, col
            )


def _parse_term(line: _Line, universe: VariableUniverse, depth: int = 0) -> Term:
    start = line.pos
    name = line.ident("term")
    index = universe.name_index.get(name)
    if line.tokens[line.pos] == "(":
        line.pos += 1
        if index is not None:
            raise line.semantic(f"declared variable {name!r} used as a functor", start)
        if depth == MAX_TERM_DEPTH:
            raise line.semantic(f"term nested deeper than {MAX_TERM_DEPTH} argument lists", start)
        args: list[Term] = []
        if line.tokens[line.pos] != ")":
            args.append(_parse_term(line, universe, depth + 1))
            while line.tokens[line.pos] == ",":
                line.pos += 1
                args.append(_parse_term(line, universe, depth + 1))
        line.expect(")")
        return Compound(name, tuple(args))
    if index is None:
        raise line.semantic(f"undeclared variable {name!r}", start)
    return universe.variables[index]


def _parse_equation(line: _Line, universe: VariableUniverse) -> Equation:
    lhs = _parse_term(line, universe)
    line.expect("=")
    rhs = _parse_term(line, universe)
    line.expect_end()
    return Equation(lhs, rhs)


def _parse_group(line: _Line, universe: VariableUniverse) -> int:
    line.expect("{")
    mask = 0
    if line.tokens[line.pos] != "}":
        while True:
            mask |= 1 << line.variable(universe)
            if line.tokens[line.pos] != ",":
                break
            line.pos += 1
    line.expect("}")
    return mask


def _parse_name_list(line: _Line, universe: VariableUniverse) -> int:
    mask = 0
    while not line.at_end():
        mask |= 1 << line.variable(universe)
    return mask


def listed_parse_problem(text: str) -> AnalysisProblem:
    """Parse a problem file; grammar trouble raises :class:`ParseError`,
    undeclared-variable trouble raises :class:`SemanticError`."""
    universe: VariableUniverse | None = None
    groups: list[int] = []
    free_mask = 0
    linear_mask = 0
    formula: PosFormula | None = None
    equations: list[Equation] = []
    saw_sharing = False
    last_stage = -1

    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        line = _Line(body, lineno)
        keyword = line.ident("section keyword")
        stage = _SECTION_ORDER.get(keyword)
        if stage is None:
            raise line.error_at(f"unknown section {keyword!r}", 0)
        if universe is None and keyword != "vars":
            raise line.error_at("the file must start with a 'vars' line", 0)
        if keyword == "eq":
            if not saw_sharing:
                raise line.error_at("'eq' before the 'sharing' section", 0)
        elif stage <= last_stage:
            raise line.error_at(f"section {keyword!r} out of order or repeated", 0)
        last_stage = max(last_stage, stage)

        if keyword == "vars":
            names: list[str] = []
            while not line.at_end():
                names.append(line.ident("variable"))
            if not names:
                raise line.error_at("expected at least one variable", 1)
            if len(set(names)) < len(names):
                bad = min(n for n in names if names.count(n) > 1)
                # the keyword is token 0, so name k is token k + 1
                raise line.semantic(f"variable {bad!r} declared twice", names.index(bad) + 1)
            if RESERVED_NAME in names:
                message = f"{RESERVED_NAME!r} is the formula constant, not a variable name"
                raise line.semantic(message, names.index(RESERVED_NAME) + 1)
            if len(names) > MAX_VARS:
                raise SemanticError(f"more than {MAX_VARS} variables are not supported", lineno)
            universe = VariableUniverse.of_names(names)
        elif keyword == "sharing":
            saw_sharing = True
            while not line.at_end():
                groups.append(_parse_group(line, universe))
        elif keyword == "free":
            free_mask = _parse_name_list(line, universe)
        elif keyword == "lin":
            linear_mask = _parse_name_list(line, universe)
        elif keyword == "pos":
            offset = line.column(1) - 1
            try:
                formula = parse_formula(body[offset:], universe)
            except UnknownFormulaVariable as exc:
                raise SemanticError(str(exc), lineno, offset + exc.col) from None
            except FormulaSyntaxError as exc:
                raise ParseError(str(exc), lineno, offset + exc.col) from None
            except NotPositiveError as exc:
                message = f"formula is not positive: {exc}"
                raise SemanticError(message, lineno, offset + 1) from None
            except UniverseTooLargeError as exc:
                raise SemanticError(str(exc), lineno, offset + 1) from None
            if formula.is_truth():
                formula = None  # canonical: no information, no formula
        else:  # eq
            equations.append(_parse_equation(line, universe))

    if universe is None:
        raise ParseError("empty problem: no 'vars' line", 1, 1)
    if not saw_sharing:
        raise ParseError("missing 'sharing' section", 1, 1)
    initial = SharingTriple.make(universe, groups, free_mask, linear_mask)
    return AnalysisProblem(universe, initial, formula, tuple(equations))


# ---- the replaced formula parser, verbatim ----------------------------------

# One match per token: an operator, a parenthesis or an identifier, else any
# other non-space character on its own, which no formula holds.
_FORMULA_TOKEN_RE = re.compile(rf"\s*(<->|->|[()&|~]|{IDENTIFIER}|\S)")
_OPERATORS = frozenset(("<->", "->", "(", ")", "&", "|", "~"))


def _tokenize(text: str) -> list[str]:
    # trailing space is cut first: the regex would rescan it from each of
    # its positions
    tokens = _FORMULA_TOKEN_RE.findall(text, 0, len(text.rstrip()))
    for index, token in enumerate(tokens):
        # a token that starts with a lowercase letter is a whole identifier
        if not ("a" <= token < "{" or token in _OPERATORS):
            message = f"unexpected character {token!r}"
            raise FormulaSyntaxError(message, _token_column(text, index))
    return tokens


def _conjunction_mask(value):
    """The variables of a parsed value that is a conjunction of variables
    (clauses that all have an empty body, ``true`` included), else ``None``."""
    if isinstance(value, int) or any(body for body, _ in value):
        return None
    mask = 0
    for _, head in value:
        mask |= head
    return mask


class PeekingFormulaParser:
    """Recursive descent over the grammar above. A value is a tuple of
    definite clauses while the sub-formula is ``true``, a conjunction of
    variables, ``conj -> conj``, ``conj <-> conj`` or a ``&`` of such parts;
    any other operator turns its operands into truth tables (ints); the
    first is built by ``table``, whose size check runs before ``all``."""

    def __init__(self, text: str, tokens: list[str], universe: VariableUniverse):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.n = len(universe)
        self.bits = universe.name_index

    @cached_property
    def all(self) -> int:
        return (1 << (1 << self.n)) - 1

    def table(self, value) -> int:
        return value if isinstance(value, int) else _clauses_table(self.n, value)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def column(self, index: int) -> int:
        return _token_column(self.text, index)

    def next_col(self) -> int:
        return self.column(self.pos)

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        value = self.formula()
        if self.pos != len(self.tokens):
            raise FormulaSyntaxError(f"unexpected {self.peek()!r}", self.next_col())
        return value

    def formula(self):
        left = self.impl()
        if self.peek() == "<->":
            self.take()
            right = self.formula()
            lv, rv = _conjunction_mask(left), _conjunction_mask(right)
            if lv is not None and rv is not None:
                return ((lv, rv), (rv, lv))
            return self.table(left) ^ self.table(right) ^ self.all
        return left

    def impl(self):
        left = self.disj()
        if self.peek() == "->":
            self.take()
            right = self.impl()
            lv, rv = _conjunction_mask(left), _conjunction_mask(right)
            if lv is not None and rv is not None:
                return ((lv, rv),)
            return self.table(left) ^ self.all | self.table(right)
        return left

    def disj(self):
        value = self.conj()
        while self.peek() == "|":
            self.take()
            value = self.table(value) | self.table(self.conj())
        return value

    def conj(self):
        value = self.unary()
        while self.peek() == "&":
            self.take()
            right = self.unary()
            if isinstance(value, tuple) and isinstance(right, tuple):
                value = value + right
            else:
                value = self.table(value) & self.table(right)
        return value

    def unary(self):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula", self.next_col())
        if tok == "~":
            self.take()
            return self.table(self.unary()) ^ self.all
        if tok == "(":
            self.take()
            value = self.formula()
            if self.peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.next_col())
            self.take()
            return value
        name = self.take()
        if name in ("&", "|", "->", "<->", ")"):
            raise FormulaSyntaxError(f"unexpected {name!r}", self.column(self.pos - 1))
        if name == RESERVED_NAME:
            return ()
        if name not in self.bits:
            raise UnknownFormulaVariable(name, self.column(self.pos - 1))
        return ((0, 1 << self.bits[name]),)


def peeking_parse_formula(text: str, universe: VariableUniverse) -> PosFormula:
    """Parse the surface syntax into a formula; reject non-positive results.

    A conjunction of definite clauses keeps its clauses and builds no truth
    table, at any universe size. Any other value is kept as its truth
    table, which raises :class:`UniverseTooLargeError` past the bound.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 1)
    value = PeekingFormulaParser(text, tokens, universe).parse()
    if isinstance(value, int):
        return _of_table(universe, value)
    return PosFormula(universe, clauses=value)


# ---- the replaced printer, verbatim -----------------------------------------

# flip(b) = 255 - (b with its eight bits in reverse order), an involution;
# and each byte value's set bits
_FLIP = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
# what the size byte prints: the end of the previous group, the next one's start
_GROUP_BREAK = ("} {",) * 256


def byte_stream_format_sharing(triple: SharingTriple) -> str:
    """The printed groups, space-separated, in canonical order: by size,
    then by variable positions, lowest first, as tuples compare.

    Each group's key is the bytes ``[size, flip(b0), ..., flip(b_{w-1})]``
    of its mask's bytes ``b0`` (the lowest) to ``b_{w-1}``. Of two groups
    of one size, the one holding the lower first differing position holds
    the higher bit once that byte is reversed, so its flipped byte, and its
    key, is smaller. The key comes from one ``to_bytes`` of the mask above
    ``flip(size)`` and one ``translate`` by ``flip``, which turns the low
    byte back into the size.

    The sorted keys form one byte stream, and each byte prints through its
    column's table: the size byte as ``"} {"``, and a mask byte as
    ``",name"`` for each of its variables. A table holds only the pieces of
    its column's distinct bytes. Names are identifiers, so ``"{,"`` occurs
    only where a group's first name follows its brace.
    """
    names = triple.universe.names
    width = (len(names) + 7) // 8
    groups = triple.groups
    flipped_sizes = map(_FLIP.__getitem__, map(int.bit_count, groups))
    values = map(or_, map(lshift, groups, repeat(8)), flipped_sizes)
    raw = map(int.to_bytes, values, repeat(width + 1), repeat("little"))
    stream = b"".join(sorted(map(bytes.translate, raw, repeat(_FLIP))))
    tables: list[Sequence[str]] = [_GROUP_BREAK]
    for column in range(width):
        first = 8 * column  # the position of the byte's lowest bit
        table = [""] * 256
        for flipped in set(stream[column + 1 :: width + 1]):
            table[flipped] = "".join([f",{names[first + i]}" for i in _BYTE_BITS[_FLIP[flipped]]])
        tables.append(table)
    text = "".join(map(getitem, cycle(tables), stream))
    return (text[2:] + "}").replace("{,", "{")


# ---- section readers ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(problem_lines())
def test_list_readers_match_method_readers(text):
    assert outcome(parse_problem, text) == outcome(listed_parse_problem, text)


# the names of a section line, each kept, dropped, or swapped for a stray or
# an undeclared token
section_name = st.sampled_from(DECLARED * 4 + STRAY + ["q", "true"])


@st.composite
def section_files(draw):
    """A file whose ``vars``, ``sharing``, ``free`` and ``lin`` lines draw
    their tokens freely: many groups, empty ones, missing and doubled
    braces and commas, and names that are not declared."""
    groups = []
    for _ in range(draw(st.integers(0, 12))):
        names = draw(st.lists(section_name, max_size=4))
        inner = []
        for name in names:
            inner += [","] * bool(inner) * draw(st.sampled_from([1] * 9 + [0, 2])) + [name]
        groups += [draw(st.sampled_from(["{"] * 12 + ["", "{{"]))] + inner
        groups += [draw(st.sampled_from(["}"] * 12 + ["", ",}"]))]
    lines = [
        ["vars", *draw(st.lists(section_name, max_size=7))],
        ["sharing", *[t for t in groups if t]],
        ["free", *draw(st.lists(section_name, max_size=5))],
        ["lin", *draw(st.lists(section_name, max_size=5))],
    ]
    return "\n".join(draw(rendered(tokens, keyword=True)) for tokens in lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(section_files())
@example("vars x y\nsharing {x,y} {y} {}\nfree x\nlin y\n")
@example("vars x y\nsharing {x} {y,q}\n")
@example("vars x y\nsharing {x} {y,X}\n")
@example("vars x y\nsharing {x} {q}\n")
@example("vars x y\nsharing {x,}\n")
@example("vars x y\nsharing {x\n")
@example("vars x y\nsharing x}\n")
@example("vars x y\nsharing {x} y\n")
@example("vars x y\nsharing\nfree x q\n")
@example("vars x y\nsharing\nlin x 1\n")
@example("vars x Y\nsharing\n")
@example("vars x x\nsharing\n")
@example("vars x true\nsharing\n")
def test_list_readers_match_on_section_lines(text):
    assert outcome(parse_problem, text) == outcome(listed_parse_problem, text)


# ---- formula parser -------------------------------------------------------

SMALL = VariableUniverse.of_names(DECLARED)
# past the truth-table bound: a table formula raises, a clause form does not
WIDE = VariableUniverse.of_names(DECLARED + [f"w{i}" for i in range(16)])
atom = st.sampled_from(DECLARED + ["true"]).map(lambda n: [n])


def conjunction(parts):
    out = []
    for part in parts:
        out += ["&"] * bool(out) + part
    return out


variables_conj = st.lists(atom, min_size=1, max_size=3).map(conjunction)
clause = st.one_of(
    atom,
    st.tuples(variables_conj, st.sampled_from(["->", "<->"]), variables_conj).map(
        lambda t: ["(", *t[0], t[1], *t[2], ")"]
    ),
)
clause_form = st.lists(clause, min_size=1, max_size=4).map(conjunction)
table_form = st.recursive(
    atom,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["&", "|", "->", "<->"]), sub).map(
            lambda t: ["(", *t[0], t[1], *t[2], ")"]
        ),
        sub.map(lambda t: ["~", *t]),
    ),
    max_leaves=6,
)
FORMULA_STRAY = ["&", "|", "->", "<->", "(", ")", "~", "q", "true", "X", "1", "<", "-", "{"]


@st.composite
def formula_texts(draw):
    tokens = list(draw(st.one_of(clause_form, table_form)))
    kind = draw(st.sampled_from(["keep"] * 6 + ["insert", "drop", "cut"]))
    at = draw(st.integers(0, len(tokens)))
    if kind == "insert":
        tokens.insert(at, draw(st.sampled_from(FORMULA_STRAY)))
    elif kind == "drop" and at < len(tokens):
        del tokens[at]
    elif kind == "cut":
        del tokens[at:]
    seps = draw(st.lists(st.sampled_from([" "] * 6 + ["", "\t", "　"]), min_size=1, max_size=3))
    text = "".join(t + seps[i % len(seps)] for i, t in enumerate(tokens))
    return draw(st.sampled_from(["", " "])) + text


def formula_outcome(parse, text, universe):
    try:
        f = parse(text, universe)
    except (FormulaSyntaxError, UnknownFormulaVariable) as exc:
        return type(exc), str(exc), exc.col
    except (NotPositiveError, UniverseTooLargeError) as exc:
        return type(exc), str(exc)
    return f.clauses if f.clauses is not None else f.table


@settings(max_examples=500, deadline=None)
@given(formula_texts(), st.sampled_from([SMALL, SMALL, WIDE]))
@example("x -> y", SMALL)
@example("(x -> y", SMALL)
@example("(x -> y))", SMALL)
@example("x &", SMALL)
@example("x & ", SMALL)
@example("~", SMALL)
@example("x y", SMALL)
@example("", SMALL)
@example("  ", SMALL)
@example("~x", SMALL)
@example("x | q", SMALL)
@example("x | y", WIDE)
@example("true <-> x & y", WIDE)
def test_sentinel_parser_matches_peeking_parser(text, universe):
    expected = formula_outcome(peeking_parse_formula, text, universe)
    assert formula_outcome(parse_formula, text, universe) == expected


# ---- printer ----------------------------------------------------------------

PRINTER_WIDTHS = (1, 8, 9, 63, 64)


def universe_of(n):
    """n names whose alphabetical order differs from their positions."""
    return VariableUniverse.of_names(f"v{i * 37 % n}" for i in range(n))


@st.composite
def printer_states(draw):
    n = draw(st.sampled_from(PRINTER_WIDTHS))
    count = draw(st.integers(1, min(300, 1 << n)))
    # a drawn seed keeps 300-group states cheap to draw; groups are any
    # mask, or one of up to four variables
    rng = random.Random(draw(st.integers(0, 2**32)))
    groups = {0}
    while len(groups) < count:
        if rng.random() < 0.5:
            groups.add(rng.getrandbits(n))
        else:
            groups.add(sum(1 << i for i in rng.sample(range(n), rng.randint(1, min(n, 4)))))
    return SharingTriple.make(universe_of(n), groups, 0, 0)


@settings(max_examples=300, deadline=None)
@given(printer_states())
def test_per_group_printer_matches_byte_stream(triple):
    assert format_sharing(triple) == byte_stream_format_sharing(triple)


@pytest.mark.parametrize("n", [9, 64])
@pytest.mark.parametrize("count", [BYTE_STREAM_GROUPS + d for d in (-1, 0, 1)])
def test_printers_agree_at_the_crossover(n, count):
    # groups of one to four variables, drawn until there are ``count``
    rng = random.Random(f"{n}:{count}")
    groups = {0}
    while len(groups) < count:
        groups.add(sum(1 << i for i in rng.sample(range(n), rng.randint(1, 4))))
    triple = SharingTriple.make(universe_of(n), groups, 0, 0)
    assert len(triple.groups) == count
    assert format_sharing(triple) == byte_stream_format_sharing(triple)
