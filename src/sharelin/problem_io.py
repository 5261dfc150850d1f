"""The problem-file grammar: parsing and canonical printing.

Format (line oriented; ``#`` starts a comment)::

    vars x y z
    sharing {x,y} {y,z}    # the empty group {} is always implied
    free x                 # optional
    lin x y                # optional; free variables are linear regardless
    pos x -> (y & z)       # optional groundness formula, default true
    eq x = f(y, z)         # any number, order preserved

Sections appear in exactly that order. Identifiers are
``[a-z][a-zA-Z0-9_]*``. A bare identifier in a term must be a declared
variable; constants are zero-argument applications, written ``a()``. A
term nests at most :data:`MAX_TERM_DEPTH` argument lists. The
canonical printer emits text this parser accepts, so analysis results are
themselves valid inputs.
"""

from __future__ import annotations

import re

from .amgu import AnalysisProblem
from .groundness import (
    FormulaSyntaxError,
    NotPositiveError,
    PosFormula,
    UnknownFormulaVariable,
    UniverseTooLargeError,
    format_formula,
    parse_formula,
)
from .sharing import SharingTriple
from .terms import Compound, Equation, Term, Variable, VariableUniverse, bit_positions


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


_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
# Terms are walked recursively (parsing, hashing, printing, concrete
# unification), so nesting is bounded well inside Python's recursion limit.
MAX_TERM_DEPTH = 256
_SECTION_ORDER = {"vars": 0, "sharing": 1, "free": 2, "lin": 3, "pos": 4, "eq": 5}


class _LineScanner:
    """Token scanner for one line, tracking 1-based columns."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    @property
    def col(self) -> int:
        return self.pos + 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            found = repr(self.peek()) if self.peek() else "end of line"
            raise ParseError(f"expected {ch!r}, found {found}", self.line, self.col)
        self.pos += 1

    def ident(self, what: str = "identifier") -> tuple[str, int]:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if m is None:
            found = repr(self.text[self.pos]) if self.pos < len(self.text) else "end of line"
            raise ParseError(f"expected {what}, found {found}", self.line, self.col)
        self.pos = m.end()
        return m.group(), m.start() + 1

    def expect_end(self) -> None:
        if not self.at_end():
            raise ParseError(
                f"unexpected trailing text {self.text[self.pos:].strip()!r}",
                self.line,
                self.col,
            )


def _parse_term(scanner: _LineScanner, universe: VariableUniverse, depth: int = 0) -> Term:
    name, col = scanner.ident("term")
    if scanner.peek() == "(":
        scanner.expect("(")
        if Variable(name) in universe:
            raise SemanticError(
                f"declared variable {name!r} used as a functor", scanner.line, col
            )
        if depth == MAX_TERM_DEPTH:
            raise SemanticError(
                f"term nested deeper than {MAX_TERM_DEPTH} argument lists", scanner.line, col
            )
        args: list[Term] = []
        if scanner.peek() != ")":
            args.append(_parse_term(scanner, universe, depth + 1))
            while scanner.peek() == ",":
                scanner.expect(",")
                args.append(_parse_term(scanner, universe, depth + 1))
        scanner.expect(")")
        return Compound(name, tuple(args))
    if Variable(name) not in universe:
        raise SemanticError(f"undeclared variable {name!r}", scanner.line, col)
    return Variable(name)


def parse_equation(text: str, universe: VariableUniverse, line: int) -> Equation:
    """Parse ``lhs = rhs`` over the universe; errors report ``line`` and the
    column within ``text``."""
    scanner = _LineScanner(text, line)
    lhs = _parse_term(scanner, universe)
    scanner.expect("=")
    rhs = _parse_term(scanner, universe)
    scanner.expect_end()
    return Equation(lhs, rhs)


def _parse_group(scanner: _LineScanner, universe: VariableUniverse) -> int:
    scanner.expect("{")
    mask = 0
    if scanner.peek() != "}":
        while True:
            name, col = scanner.ident("variable")
            if Variable(name) not in universe:
                raise SemanticError(f"undeclared variable {name!r}", scanner.line, col)
            mask |= universe.bit(Variable(name))
            if scanner.peek() != ",":
                break
            scanner.expect(",")
    scanner.expect("}")
    return mask


def _parse_name_list(scanner: _LineScanner, universe: VariableUniverse) -> int:
    mask = 0
    while not scanner.at_end():
        name, col = scanner.ident("variable")
        if Variable(name) not in universe:
            raise SemanticError(f"undeclared variable {name!r}", scanner.line, col)
        mask |= universe.bit(Variable(name))
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
        scanner = _LineScanner(body, lineno)
        keyword, kcol = scanner.ident("section keyword")
        stage = _SECTION_ORDER.get(keyword)
        if stage is None:
            raise ParseError(f"unknown section {keyword!r}", lineno, kcol)
        if universe is None and keyword != "vars":
            raise ParseError("the file must start with a 'vars' line", lineno, kcol)
        if keyword == "eq":
            if not saw_sharing:
                raise ParseError("'eq' before the 'sharing' section", lineno, kcol)
        elif stage <= last_stage:
            raise ParseError(
                f"section {keyword!r} out of order or repeated", lineno, kcol
            )
        last_stage = max(last_stage, stage)

        if keyword == "vars":
            names: list[str] = []
            cols: list[int] = []
            while not scanner.at_end():
                name, col = scanner.ident("variable")
                names.append(name)
                cols.append(col)
            if not names:
                raise ParseError("expected at least one variable", lineno, scanner.col)
            dupes = {n for n in names if names.count(n) > 1}
            if dupes:
                bad = sorted(dupes)[0]
                raise SemanticError(
                    f"variable {bad!r} declared twice", lineno, cols[names.index(bad)]
                )
            if len(names) > 64:
                raise SemanticError("more than 64 variables are not supported", lineno)
            universe = VariableUniverse.of_names(names)
        elif keyword == "sharing":
            saw_sharing = True
            while not scanner.at_end():
                groups.append(_parse_group(scanner, universe))
        elif keyword == "free":
            free_mask = _parse_name_list(scanner, universe)
        elif keyword == "lin":
            linear_mask = _parse_name_list(scanner, universe)
        elif keyword == "pos":
            scanner.skip_ws()
            fragment = body[scanner.pos:]
            offset = scanner.pos
            try:
                formula = parse_formula(fragment, universe)
            except UnknownFormulaVariable as exc:
                raise SemanticError(str(exc), lineno, offset + exc.col) from None
            except FormulaSyntaxError as exc:
                raise ParseError(str(exc), lineno, offset + exc.col) from None
            except NotPositiveError as exc:
                message = f"formula is not positive: {exc}"
                raise SemanticError(message, lineno, scanner.col) from None
            except UniverseTooLargeError as exc:
                raise SemanticError(str(exc), lineno, scanner.col) from None
            if formula.is_truth():
                formula = None  # canonical: no information, no formula
        else:  # eq
            # blank out the keyword, so that columns still count from the line start
            padded = " " * scanner.pos + body[scanner.pos:]
            equations.append(parse_equation(padded, universe, lineno))

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


def _printing_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return mask.bit_count(), bit_positions(mask)


def format_groups(triple: SharingTriple) -> list[str]:
    """The printed groups in canonical order: by size, then by variable
    positions. Each group's set bits are walked once, for both its sort key
    and its names."""
    names = triple.universe.names
    return [
        "{" + ",".join([names[i] for i in positions]) + "}"
        for _, positions in sorted(map(_printing_key, triple.groups))
    ]


def format_triple(triple: SharingTriple) -> list[str]:
    """The ``vars``/``sharing``/``free``/``lin`` lines for a state."""
    universe = triple.universe
    lines = ["vars " + " ".join(universe.names)]
    lines.append("sharing " + " ".join(format_groups(triple)))
    if triple.free:
        lines.append("free " + " ".join(universe.names_of_mask(triple.free)))
    if triple.linear != triple.free:
        lines.append("lin " + " ".join(universe.names_of_mask(triple.linear)))
    return lines


def print_problem(problem: AnalysisProblem) -> str:
    """Canonical text for a problem; parsing it back reproduces the problem."""
    lines = format_triple(problem.initial)
    if problem.formula is not None and not problem.formula.is_truth():
        lines.append("pos " + format_formula(problem.formula))
    for eq in problem.equations:
        lines.append(f"eq {format_term(eq.lhs)} = {format_term(eq.rhs)}")
    return "\n".join(lines) + "\n"
