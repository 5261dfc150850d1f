"""The problem-file grammar: parsing and canonical printing.

Format (line oriented; ``#`` starts a comment)::

    vars x y z
    sharing {x,y} {y,z}    # the empty group {} is always implied
    free x                 # optional
    lin x y                # optional; free variables are linear regardless
    pos x -> (y & z)       # optional groundness formula, default true
    eq x = f(y, z)         # any number, order preserved

Sections appear in exactly that order. Lines split into the tokens of
:data:`sharelin.terms.TOKEN_RE`, the one regex of both grammars, and
identifiers match :data:`sharelin.terms.IDENTIFIER`. A bare identifier in
a term must be a declared variable; constants are zero-argument
applications, written ``a()``. A term nests at most
:data:`MAX_TERM_DEPTH` argument lists. The canonical printer emits text
this parser accepts, so analysis results are themselves valid inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import cycle, repeat
from operator import getitem, lshift, or_

from .amgu import AnalysisProblem
from .groundness import (
    FormulaDepthError,
    FormulaSyntaxError,
    NotPositiveError,
    PosFormula,
    UnknownFormulaVariable,
    UniverseTooLargeError,
    format_formula,
    parse_formula,
)
from .sharing import SharingTriple
from .terms import (
    MAX_VARS, RESERVED_NAME, TOKEN_RE, Compound, Equation, Term, Variable, VariableUniverse,
    bit_positions, token_column,
)


class ProblemError(Exception):
    def __init__(self, message: str, line: int, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = f"line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(f"{where}: {message}")


class ParseError(ProblemError):
    """The text does not match the grammar."""


class SemanticError(ProblemError):
    """Grammatically fine, but inconsistent with the declared universe."""


# Terms are walked recursively (parsing, hashing, printing, concrete
# unification), so nesting is bounded well inside Python's recursion limit.
MAX_TERM_DEPTH = 256
_SECTION_ORDER = {"vars": 0, "sharing": 1, "free": 2, "lin": 3, "pos": 4, "eq": 5}


class _Line:
    """The tokens of one line, then ``""`` for the end. The section readers
    take them straight off the list; the term reader walks them with
    ``pos``.

    An error reports the 1-based column of the token it stops at, given by
    its index, or one past the line's end.
    """

    def __init__(self, body: str, line: int):
        # trailing space is cut first: the regex would rescan it from each
        # of its positions
        self.end = len(body.rstrip())
        self.tokens = TOKEN_RE.findall(body, 0, self.end)
        self.tokens.append("")
        self.pos = 0
        self.body = body
        self.line = line

    def column(self, index: int) -> int:
        return token_column(self.body, index, len(self.body) + 1)

    def error(self, expected: str, index: int) -> ParseError:
        token = self.tokens[index]
        found = repr(token[0]) if token else "end of line"
        return self.error_at(f"expected {expected}, found {found}", index)

    def error_at(self, message: str, index: int) -> ParseError:
        return ParseError(message, self.line, self.column(index))

    def semantic(self, message: str, index: int) -> SemanticError:
        return SemanticError(message, self.line, self.column(index))

    def not_variable(self, index: int) -> ProblemError:
        """The error for token ``index``, which names no declared variable."""
        token = self.tokens[index]
        if not "a" <= token < "{":
            return self.error("variable", index)
        return self.semantic(f"undeclared variable {token!r}", index)

    def expect(self, ch: str) -> None:
        if self.tokens[self.pos] != ch:
            raise self.error(repr(ch), self.pos)
        self.pos += 1

    def expect_end(self) -> None:
        if self.tokens[self.pos]:
            col = self.column(self.pos)
            raise ParseError(
                f"unexpected trailing text {self.body[col - 1:].strip()!r}", self.line, col
            )


def _parse_term(line: _Line, universe: VariableUniverse, depth: int = 0) -> Term:
    tokens = line.tokens
    start = line.pos
    name = tokens[start]
    # a token that starts with a lowercase letter is a whole identifier
    if not "a" <= name < "{":
        raise line.error("term", start)
    index = universe.name_index.get(name)
    if tokens[start + 1] == "(":
        line.pos = start + 2
        if index is not None:
            raise line.semantic(f"declared variable {name!r} used as a functor", start)
        if depth == MAX_TERM_DEPTH:
            raise line.semantic(f"term nested deeper than {MAX_TERM_DEPTH} argument lists", start)
        args: list[Term] = []
        if tokens[line.pos] != ")":
            args.append(_parse_term(line, universe, depth + 1))
            while tokens[line.pos] == ",":
                line.pos += 1
                args.append(_parse_term(line, universe, depth + 1))
        line.expect(")")
        return Compound(name, tuple(args))
    line.pos = start + 1
    if index is None:
        raise line.semantic(f"undeclared variable {name!r}", start)
    return universe.variables[index]


def _parse_equation(line: _Line, universe: VariableUniverse) -> Equation:
    lhs = _parse_term(line, universe)
    line.expect("=")
    rhs = _parse_term(line, universe)
    line.expect_end()
    return Equation(lhs, rhs)


def parse_equation(text: str, universe: VariableUniverse, line: int) -> Equation:
    """Parse ``lhs = rhs`` over the universe; errors report ``line`` and the
    column within ``text``."""
    return _parse_equation(_Line(text, line), universe)


def _read_names(line: _Line) -> list[str]:
    """The names of a ``vars`` line, each an identifier."""
    names = line.tokens[1:-1]
    if not names:
        raise line.error_at("expected at least one variable", 1)
    for k, name in enumerate(names, 1):
        # a token that starts with a lowercase letter is a whole identifier
        if not "a" <= name < "{":
            raise line.error("variable", k)
    return names


def _read_groups(line: _Line, universe: VariableUniverse) -> list[int]:
    """The group masks of a ``sharing`` line: ``{`` names split by ``,``
    ``}``, any number of times."""
    tokens = line.tokens
    index_of = universe.name_index.get
    groups = []
    k = 1
    while tokens[k]:
        if tokens[k] != "{":
            raise line.error("'{'", k)
        k += 1
        mask = 0
        if tokens[k] != "}":
            while True:
                index = index_of(tokens[k])
                if index is None:
                    raise line.not_variable(k)
                mask |= 1 << index
                k += 1
                if tokens[k] != ",":
                    break
                k += 1
            if tokens[k] != "}":
                raise line.error("'}'", k)
        groups.append(mask)
        k += 1
    return groups


def _read_name_mask(line: _Line, universe: VariableUniverse) -> int:
    """The mask of the names of a ``free`` or ``lin`` line."""
    index_of = universe.name_index.get
    mask = 0
    for k, name in enumerate(line.tokens[1:-1], 1):
        index = index_of(name)
        if index is None:
            raise line.not_variable(k)
        mask |= 1 << index
    return mask


def parse_problem(text: str) -> AnalysisProblem:
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
        keyword = line.tokens[0]
        stage = _SECTION_ORDER.get(keyword)
        if stage is None:
            if not "a" <= keyword < "{":
                raise line.error("section keyword", 0)
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
            names = _read_names(line)
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
            groups = _read_groups(line, universe)
        elif keyword == "free":
            free_mask = _read_name_mask(line, universe)
        elif keyword == "lin":
            linear_mask = _read_name_mask(line, universe)
        elif keyword == "pos":
            offset = line.column(1) - 1
            try:
                formula = parse_formula(body[offset:], universe)
            except (UnknownFormulaVariable, FormulaDepthError) as exc:
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
            line.pos = 1
            equations.append(_parse_equation(line, universe))

    if universe is None:
        raise ParseError("empty problem: no 'vars' line", 1, 1)
    if not saw_sharing:
        raise ParseError("missing 'sharing' section", 1, 1)
    initial = SharingTriple.make(universe, groups, free_mask, linear_mask)
    return AnalysisProblem(universe, initial, formula, tuple(equations))


def format_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    return f"{t.functor}({', '.join(format_term(a) for a in t.args)})"


def format_equation(eq: Equation) -> str:
    """``lhs = rhs``, as :func:`parse_equation` reads it back."""
    return f"{format_term(eq.lhs)} = {format_term(eq.rhs)}"


# flip(b) = 255 - (b with its eight bits in reverse order), an involution;
# and each byte value's set bits
_FLIP = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
# what the size byte prints: the end of the previous group, the next one's start
_GROUP_BREAK = ("} {",) * 256


# Below this many groups a state prints by a per-group sort, and from it
# on by the byte stream. Set by a sweep of 20 random states per count at 32
# variables, groups of 1-6 variables, best of 40 runs on a 2-vCPU x86 host
# (Python 3.11): per-group/byte-stream time 0.72 at 32 groups, 0.95 at 96
# and 104, 1.03 at 112, 1.03 at 128, 1.23 at 256 and 1.47 at 512.
BYTE_STREAM_GROUPS = 112


def format_sharing(triple: SharingTriple) -> str:
    """The printed groups, space-separated, in canonical order: by size,
    then by variable positions, lowest first, as tuples compare.

    A state of fewer than :data:`BYTE_STREAM_GROUPS` groups sorts each
    group's ``(size, positions)`` and prints the names at those positions.
    A larger one sorts bytes instead. Each group's key is the bytes
    ``[size, flip(b0), ..., flip(b_{w-1})]`` of its mask's bytes ``b0``
    (the lowest) to ``b_{w-1}``. Of two groups
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
    groups = triple.groups
    if len(groups) < BYTE_STREAM_GROUPS:
        keys = sorted(zip(map(int.bit_count, groups), map(bit_positions, groups)))
        return " ".join(["{" + ",".join([names[i] for i in at]) + "}" for _, at in keys])
    width = (len(names) + 7) // 8
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


def format_triple(triple: SharingTriple) -> list[str]:
    """The ``vars``/``sharing``/``free``/``lin`` lines for a state."""
    universe = triple.universe
    lines = ["vars " + " ".join(universe.names)]
    lines.append("sharing " + format_sharing(triple))
    if triple.free:
        lines.append("free " + " ".join(universe.names_of_mask(triple.free)))
    if triple.linear != triple.free:
        lines.append("lin " + " ".join(universe.names_of_mask(triple.linear)))
    return lines


def print_problem(problem: AnalysisProblem) -> str:
    """Text for a problem that parses back to it: a clause-form ``pos``
    line prints as its clauses, so it reads back at any universe size."""
    lines = format_triple(problem.initial)
    if problem.formula is not None and not problem.formula.is_truth():
        lines.append("pos " + format_formula(problem.formula))
    for eq in problem.equations:
        lines.append(f"eq {format_equation(eq)}")
    return "\n".join(lines) + "\n"
