"""The token-list parser against the character scanner it replaced.

``scanner_parse_problem`` and ``scanner_parse_equation`` below are the
``_LineScanner``-based ``parse_problem`` and ``parse_equation``, copied
verbatim (renamed, with their helpers). On grammar-shaped text, with odd
whitespace, comments, stray tokens, unbalanced brackets and terms at the
nesting bound, both must return equal problems or raise the same error
class with the same message, line and column.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from sharelin.amgu import AnalysisProblem
from sharelin.groundness import (
    FormulaSyntaxError,
    NotPositiveError,
    PosFormula,
    UnknownFormulaVariable,
    UniverseTooLargeError,
    parse_formula,
)
from sharelin.problem_io import (
    ParseError,
    ProblemError,
    SemanticError,
    parse_equation,
    parse_problem,
)
from sharelin.sharing import SharingTriple
from sharelin.terms import MAX_VARS, Compound, Equation, Term, Variable, VariableUniverse

# ---- the replaced scanner, verbatim ---------------------------------------

_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
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


def scanner_parse_equation(text: str, universe: VariableUniverse, line: int) -> Equation:
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


def scanner_parse_problem(text: str) -> AnalysisProblem:
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
            if len(names) > MAX_VARS:
                raise SemanticError(f"more than {MAX_VARS} variables are not supported", lineno)
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
            equations.append(scanner_parse_equation(padded, universe, lineno))

    if universe is None:
        raise ParseError("empty problem: no 'vars' line", 1, 1)
    if not saw_sharing:
        raise ParseError("missing 'sharing' section", 1, 1)
    initial = SharingTriple.make(universe, groups, free_mask, linear_mask)
    return AnalysisProblem(universe, initial, formula, tuple(equations))


# ---- grammar-shaped text ----------------------------------------------------

DECLARED = ["x", "y", "z1", "v_2", "aB"]
# undeclared, uppercase, digit-leading and stray tokens, every bracket, and
# arrows and their parts, which problem lines read with the formula's regex
STRAY = [
    "q", "X", "Foo", "1x", "_u", "@", "\u00e9", "{", "}", "(", ")", ",", "=", "->", "#",
    "<->", "<-", "-", ">",
]
# tokens are joined by one of these; "" lets two identifiers run together
SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u3000", ""]
UNIVERSE = VariableUniverse.of_names(DECLARED)

name = st.sampled_from(DECLARED)
rarely = st.sampled_from([False] * 7 + [True])


def commas(parts: list[list[str]]) -> list[str]:
    """The token lists joined by ``","`` tokens."""
    out = []
    for part in parts:
        out += [","] * bool(out) + part
    return out


terms = st.recursive(
    name.map(lambda n: [n]) | st.just(["a", "(", ")"]),
    lambda sub: st.builds(
        lambda functor, args: [functor, "(", *commas(args), ")"],
        st.sampled_from(["f", "g", "cons"]),
        st.lists(sub, min_size=1, max_size=3),
    ),
    max_leaves=6,
)


def nested(depth: int, leaf: str) -> list[str]:
    return ["f", "("] * depth + [leaf] + [")"] * depth


@st.composite
def term_tokens(draw):
    if draw(rarely):
        return nested(draw(st.sampled_from([255, 256, 257])), draw(name))
    return draw(terms)


@st.composite
def equation_tokens(draw):
    return [*draw(term_tokens()), "=", *draw(term_tokens())]


@st.composite
def mutated(draw, tokens):
    """The tokens, sometimes with one inserted, dropped or cut off."""
    tokens = list(tokens)
    kind = draw(st.sampled_from(["keep"] * 10 + ["insert", "insert", "drop", "cut"]))
    at = draw(st.integers(0, len(tokens)))
    if kind == "insert":
        tokens.insert(at, draw(st.sampled_from(STRAY + DECLARED)))
    elif kind == "drop" and at < len(tokens):
        del tokens[at]
    elif kind == "cut":
        del tokens[at:]
    return tokens


@st.composite
def rendered(draw, tokens, keyword=False):
    """The tokens as text: separators drawn mostly as one space, else from
    ``SPACES``, and some leading space, trailing space and comment. After a
    keyword comes a space that keeps the line whole and apart."""
    seps = draw(st.lists(st.sampled_from([" "] * 24 + SPACES), min_size=1, max_size=3))
    if keyword:
        seps = [draw(st.sampled_from([" ", "\t", "\u00a0", "\u3000"]))] + seps
    text = "".join(t + seps[i % len(seps)] for i, t in enumerate(tokens))
    lead = draw(st.sampled_from(["", " ", "\t", "\u3000"]))
    tail = draw(st.sampled_from(["", " ", "\xa0", " # note {(", "#"]))
    return lead + text + tail


@st.composite
def problem_lines(draw):
    if draw(st.sampled_from([True] * 3 + [False])):
        declared = DECLARED
    else:
        declared = draw(st.lists(st.sampled_from(DECLARED * 3 + STRAY), max_size=6))
    groups = draw(st.lists(st.lists(name, min_size=0, max_size=3, unique=True), max_size=4))
    sharing = ["sharing"]
    for group in groups:
        sharing += ["{", *commas([[n] for n in group]), "}"]
    lines = [["vars", *declared], sharing]
    for keyword in ("free", "lin"):
        if draw(st.booleans()):
            lines.append([keyword, *draw(st.lists(name, max_size=3))])
    if draw(st.booleans()):
        formula = draw(st.sampled_from([
            ["x", "->", "y"], ["x", "&", "(", "y", "|", "z1", ")"], ["true"], ["~", "x"],
            ["x", "<", "->", "q"], [],
        ]))
        lines.append(["pos", *formula])
    lines += [["eq", *draw(equation_tokens())] for _ in range(draw(st.integers(0, 3)))]
    if draw(rarely):
        lines = draw(st.permutations(lines))
    if draw(rarely):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    texts = [draw(rendered(draw(mutated(tokens)), keyword=True)) for tokens in lines]
    for _ in range(draw(st.integers(0, 2))):
        texts.insert(draw(st.integers(0, len(texts))), draw(st.sampled_from(["", "  ", "# c"])))
    return "\n".join(texts) + "\n"


def flat(t: Term) -> list:
    """The term in preorder, a variable as itself and an application as
    (functor, arity): terms 256 deep compare without deep recursion."""
    out, stack = [], [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Variable):
            out.append(cur)
        else:
            out.append((cur.functor, len(cur.args)))
            stack.extend(reversed(cur.args))
    return out


def outcome(parse, *args):
    try:
        result = parse(*args)
    except ProblemError as exc:
        return type(exc), exc.message, exc.line, exc.col
    if isinstance(result, Equation):
        return flat(result.lhs), flat(result.rhs)
    equations = [(flat(eq.lhs), flat(eq.rhs)) for eq in result.equations]
    return result.universe, result.initial, result.formula, equations


@settings(max_examples=300, deadline=None)
@given(problem_lines())
def test_token_parser_matches_scanner(text):
    assert outcome(parse_problem, text) == outcome(scanner_parse_problem, text)


@settings(max_examples=200, deadline=None)
@given(equation_tokens().flatmap(mutated).flatmap(rendered), st.integers(0, 8), st.integers(1, 9))
def test_equation_parser_matches_scanner(body, pad, line):
    # a replayed '# e0' line reaches the parser with its prefix blanked out
    text = " " * pad + body
    new = outcome(parse_equation, text, UNIVERSE, line)
    assert new == outcome(scanner_parse_equation, text, UNIVERSE, line)


EDGE_LINES = [
    "eq x = " + "".join(nested(256, "y")),
    "eq x = " + "".join(nested(257, "y")),
    "eq x =" + " ".join(nested(257, "q")),
    "sharing\t{x,\u3000y}\xa0{z1}",
    "sharing {x,y",
    "sharing {x,,y}",
    "sharing {x} }",
    "sharing {X}",
    "sharing {x z1}",
    "eq x v_2 = y",
    "eq f(x aB) = y",
    "eq x = cons(y) zz",
    "free x 1y",
    "lin x _u",
    "eq f(x = y",
    "eq f(x)) = y",
    "eq x = y z1",
    "eq x = y \u3000 tail {",
    "eq = y",
    "eq x =",
    "eq x(y) = y",
    "pos \u3000",
    "pos x -> \u00e9",
    "pos x & q",
    "pos ~x",
    "Eq x = y",
]


def test_edge_lines_match_scanner():
    for line in EDGE_LINES:
        text = "vars x y z1 v_2 aB\nsharing {x}\n" * (not line.startswith("sharing"))
        text = text or "vars x y z1 v_2 aB\n"
        text += line + "\n"
        assert outcome(parse_problem, text) == outcome(scanner_parse_problem, text), line
    for text in ("", "  ", "vars", "vars x x y y", "vars " + " ".join(f"v{i}" for i in range(65))):
        text += "\nsharing\n"
        assert outcome(parse_problem, text) == outcome(scanner_parse_problem, text), text
