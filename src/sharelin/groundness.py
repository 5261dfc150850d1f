"""Groundness dependencies as positive Boolean functions over a universe.

A model is the bitmask of the variables assigned true, and positivity is
exactly the condition that the all-true assignment is a model. A formula
that is a conjunction of definite clauses, as the groundness of equations
and of solved forms is, keeps its clauses: entailment, equality, group
trimming, early pruning (see ``amgu.early_prune``) and printing read the
clauses alone, so a clause form works at any universe size. Any other
formula is held as its truth table: one Python int whose bit ``m`` is set
iff assignment ``m`` is a model, so that the all-true assignment is the
top bit. Conjunction, entailment, trimming and equality work on the table
directly, and models are read off it only when asked for. Only a table
is bounded in size; a clause form builds one only when it meets a table
or its models are asked for. Formula text splits into the tokens of
:data:`sharelin.terms.TOKEN_RE`, the regex of problem lines too, and the
parser nests at most :data:`MAX_FORMULA_DEPTH` levels: one for each
``(``, each ``~`` and each right operand of ``->`` or ``<->``.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import accumulate, count
from operator import add
from typing import Iterable, Sequence

from .terms import RESERVED_NAME, TOKEN_RE, Equation, VariableUniverse, bit_positions, token_column

# A truth table has 2**n bits (128 KiB at the bound). This caps every table,
# and so the models of any formula; a clause form is never enumerated.
MAX_FORMULA_VARS = 20
# at most six parser frames a level, well inside Python's recursion limit
MAX_FORMULA_DEPTH = 100


class NotPositiveError(ValueError):
    """The expression is falsified by the all-true assignment."""


class UniverseTooLargeError(ValueError):
    """Truth tables are only built over small universes."""


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.col = col


class FormulaDepthError(FormulaSyntaxError):
    """Grammatical text that nests deeper than the parser goes."""


class UnknownFormulaVariable(ValueError):
    def __init__(self, name: str, col: int):
        super().__init__(f"undeclared variable {name!r} in formula")
        self.name = name
        self.col = col


Clause = tuple[int, int]


class PosFormula:
    """A positive Boolean function over a universe.

    A conjunction of definite clauses ``(body_mask, head_mask)``, each
    meaning ``/\\ body -> /\\ head``, is kept in ``clauses``; ``true`` is
    the empty conjunction. Its ``table`` is derived from the clauses on
    first use, within the size bound. Any other function is given by its
    truth table, and ``clauses`` is ``None``. Two formulas are equal iff
    they have the same universe and the same models: two clause forms iff
    each entails the other's clauses, else iff their tables agree.
    """

    def __init__(
        self,
        universe: VariableUniverse,
        *,
        clauses: tuple[Clause, ...] | None = None,
        table: int | None = None,
    ):
        self.universe = universe
        self.clauses = clauses
        self._table = table

    @classmethod
    def of_clauses(cls, universe: VariableUniverse, clauses: Iterable[Clause]) -> "PosFormula":
        """The conjunction of definite clauses; the all-true assignment
        satisfies each one, so it is always positive."""
        cs = tuple(clauses)
        full = universe.full_mask
        if any((body | head) & ~full for body, head in cs):
            raise ValueError("clause mentions a variable outside the universe")
        return cls(universe, clauses=cs)

    @property
    def table(self) -> int:
        if self._table is None:
            self._table = _clauses_table(len(self.universe), self.clauses)
        return self._table

    @property
    def models(self) -> tuple[int, ...]:
        return _models(self.table)

    def is_truth(self) -> bool:
        if self.clauses is not None:
            return all(not head & ~body for body, head in self.clauses)
        return self.table == (1 << (1 << len(self.universe))) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PosFormula):
            return NotImplemented
        if self.universe != other.universe:
            return False
        if self.clauses is not None and other.clauses is not None:
            return _entails(self.clauses, other.clauses) and _entails(other.clauses, self.clauses)
        return self.table == other.table

    def __hash__(self) -> int:
        return hash((self.universe, entailed_ground(self)))

    def __repr__(self) -> str:
        if self.clauses is not None:
            return f"PosFormula({self.universe!r}, clauses={self.clauses!r})"
        return f"PosFormula({self.universe!r}, table={self.table:#x})"


def least_model(clauses: Sequence[Clause]) -> int:
    """The least model of definite clauses, by forward chaining from the
    empty set: a clause whose body is inside the set adds its head, until
    no clause adds anything."""
    ground = 0
    changed = True
    while changed:
        changed = False
        for body, head in clauses:
            if not body & ~ground and head & ~ground:
                ground |= head
                changed = True
    return ground


def _entails(clauses: tuple[Clause, ...], others: Iterable[Clause]) -> bool:
    """Every clause of ``others`` follows from ``clauses``: forward chaining
    from its body reaches its head."""
    return all(not head & ~least_model(clauses + ((0, body),)) for body, head in others)


def _bounded_size(n: int) -> None:
    if n > MAX_FORMULA_VARS:
        raise UniverseTooLargeError(
            f"building a groundness formula over {n} variables needs 2**{n} models; "
            f"the supported bound is {MAX_FORMULA_VARS}"
        )


@cache
def _column(n: int, i: int) -> int:
    """The truth table of variable ``i``: bit ``m`` is set iff bit ``i`` of
    ``m`` is. One period, ``2**i`` zeros then ``2**i`` ones, is doubled
    until it covers the ``2**n`` assignments. Each column is built once and
    kept: every column within the size bound comes to about 5 MB."""
    block = ((1 << (1 << i)) - 1) << (1 << i)
    for k in range(i + 1, n):
        block |= block << (1 << k)
    return block


def _conjunction_table(n: int, var_mask: int) -> int:
    """The truth table of the conjunction of the variables in ``var_mask``."""
    table = (1 << (1 << n)) - 1
    for i in bit_positions(var_mask):
        table &= _column(n, i)
    return table


def _clauses_table(n: int, clauses: Iterable[Clause]) -> int:
    """The truth table of a conjunction of definite clauses."""
    _bounded_size(n)
    every = (1 << (1 << n)) - 1
    table = every
    for body, head in clauses:
        table &= _conjunction_table(n, body) ^ every | _conjunction_table(n, head)
    return table


def _models(table: int) -> tuple[int, ...]:
    """The set bits of a truth table, lowest first: the lengths of the zero
    runs between ones, accumulated, plus the ones passed."""
    runs = format(table, "b")[::-1].split("1")[:-1]
    return tuple(map(add, accumulate(map(len, runs)), count()))


def _of_table(universe: VariableUniverse, table: int) -> PosFormula:
    """The formula with this truth table; the top bit is the all-true assignment."""
    if not table >> universe.full_mask & 1:
        raise NotPositiveError("the all-true assignment is not a model")
    return PosFormula(universe, table=table)


def truth(universe: VariableUniverse) -> PosFormula:
    """The formula with no groundness information: every assignment is a model."""
    return PosFormula(universe, clauses=())


def equation_groundness(eq: Equation, universe: VariableUniverse) -> PosFormula:
    """Groundness consequence of solving one equation: grounding every
    variable of one side grounds the other, in any unifier."""
    left, right = universe.term_mask(eq.lhs), universe.term_mask(eq.rhs)
    return PosFormula.of_clauses(universe, ((left, right), (right, left)))


def conjoin(f: PosFormula, g: PosFormula) -> PosFormula:
    if f.universe != g.universe:
        raise ValueError("conjoined formulas must share a universe")
    if f.clauses is not None and g.clauses is not None:
        return PosFormula(f.universe, clauses=f.clauses + g.clauses)
    return PosFormula(f.universe, table=f.table & g.table)


def entailed_ground(f: PosFormula) -> int:
    """Mask of the variables true in every model (the definitely-ground set).

    For clauses this is their least model: the all-true assignment is a
    model, and the models of definite clauses are closed under intersection.
    For a table it is the variables whose column contains the table.
    """
    if f.clauses is not None:
        return least_model(f.clauses)
    n = len(f.universe)
    table = f.table
    return sum(1 << i for i in range(n) if not table & ~_column(n, i))


def trim(f: PosFormula, groups: Sequence[int]) -> tuple[int, ...]:
    """Keep the groups whose complement is a model of ``f``.

    A sharing group that survives can still bind a common variable once the
    rest of the universe is ground; any other group is impossible and is
    dropped. The empty group always survives (positivity). The assignment
    that makes exactly a group false fails a clause iff the clause's body
    misses the group and its head meets it.
    """
    if f.clauses is not None:
        kept = groups
        for body, head in f.clauses:
            kept = [g for g in kept if body & g or not head & g]
        return tuple(kept)
    full = f.universe.full_mask
    table = f.table
    return tuple(g for g in groups if table >> (full & ~g) & 1)


# --- surface syntax ---------------------------------------------------------
#
#   formula := impl ('<->' formula)?
#   impl    := disj ('->' impl)?
#   disj    := conj ('|' conj)*
#   conj    := unary ('&' unary)*
#   unary   := '~' unary | 'true' | ident | '(' formula ')'
#
# '~' is permitted anywhere as long as the final result stays positive.

# Tokens are those of terms.TOKEN_RE, the problem lines' regex too; one that
# is neither an operator nor an identifier is a character no formula holds.
_OPERATORS = frozenset(("<->", "->", "(", ")", "&", "|", "~"))


def _tokenize(text: str) -> list[str]:
    # trailing space is cut first: the regex would rescan it from each of
    # its positions
    tokens = TOKEN_RE.findall(text, 0, len(text.rstrip()))
    for index, token in enumerate(tokens):
        # a token that starts with a lowercase letter is a whole identifier
        if not ("a" <= token < "{" or token in _OPERATORS):
            message = f"unexpected character {token!r}"
            raise FormulaSyntaxError(message, _token_column(text, index))
    return tokens


def _token_column(text: str, index: int) -> int:
    """The 1-based column of token ``index`` of the text, or one past the
    last token."""
    return token_column(text, index, len(text.rstrip()) + 1)


# a parsed sub-formula: its definite clauses, or its truth table
_Parsed = tuple[Clause, ...] | int


def _conjunction_mask(value: _Parsed) -> int | None:
    """The variables of a parsed value that is a conjunction of variables
    (clauses that all have an empty body, ``true`` included), else ``None``."""
    if isinstance(value, int):
        return None
    mask = 0
    for body, head in value:
        if body:
            return None
        mask |= head
    return mask


class _FormulaParser:
    """Recursive descent over the grammar above. A value is a tuple of
    definite clauses while the sub-formula is ``true``, a conjunction of
    variables, ``conj -> conj``, ``conj <-> conj`` or a ``&`` of such parts;
    any other operator turns its operands into truth tables (ints); the
    first is built by ``table``, whose size check runs before ``all``.

    The tokens end in the sentinel ``""``, which no rule takes, so the
    parser indexes them without a bounds check."""

    def __init__(self, text: str, tokens: list[str], universe: VariableUniverse):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.n = len(universe)
        self.bits = universe.name_index

    @cached_property
    def all(self) -> int:
        return (1 << (1 << self.n)) - 1

    def table(self, value: _Parsed) -> int:
        return value if isinstance(value, int) else _clauses_table(self.n, value)

    def column(self, index: int) -> int:
        return _token_column(self.text, index)

    def nested(self, at: int, rule) -> _Parsed:
        """Parse ``rule`` after token ``at``, one level deeper."""
        if self.depth == MAX_FORMULA_DEPTH:
            message = f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
            raise FormulaDepthError(message, self.column(at))
        self.depth += 1
        self.pos = at + 1
        value = rule()
        self.depth -= 1
        return value

    def parse(self) -> _Parsed:
        value = self.formula()
        token = self.tokens[self.pos]
        if token:
            raise FormulaSyntaxError(f"unexpected {token!r}", self.column(self.pos))
        return value

    def formula(self) -> _Parsed:
        left = self.impl()
        if self.tokens[self.pos] == "<->":
            right = self.nested(self.pos, self.formula)
            lv, rv = _conjunction_mask(left), _conjunction_mask(right)
            if lv is not None and rv is not None:
                return ((lv, rv), (rv, lv))
            return self.table(left) ^ self.table(right) ^ self.all
        return left

    def impl(self) -> _Parsed:
        left = self.disj()
        if self.tokens[self.pos] == "->":
            right = self.nested(self.pos, self.impl)
            lv, rv = _conjunction_mask(left), _conjunction_mask(right)
            if lv is not None and rv is not None:
                return ((lv, rv),)
            return self.table(left) ^ self.all | self.table(right)
        return left

    def disj(self) -> _Parsed:
        value = self.conj()
        while self.tokens[self.pos] == "|":
            self.pos += 1
            value = self.table(value) | self.table(self.conj())
        return value

    def conj(self) -> _Parsed:
        value = self.unary()
        while self.tokens[self.pos] == "&":
            self.pos += 1
            right = self.unary()
            if isinstance(value, tuple) and isinstance(right, tuple):
                value = value + right
            else:
                value = self.table(value) & self.table(right)
        return value

    def unary(self) -> _Parsed:
        at = self.pos
        tok = self.tokens[at]
        if not tok:
            raise FormulaSyntaxError("unexpected end of formula", self.column(at))
        self.pos = at + 1
        if tok == "~":
            return self.table(self.nested(at, self.unary)) ^ self.all
        if tok == "(":
            value = self.nested(at, self.formula)
            if self.tokens[self.pos] != ")":
                raise FormulaSyntaxError("expected ')'", self.column(self.pos))
            self.pos += 1
            return value
        index = self.bits.get(tok)
        if index is not None:
            return ((0, 1 << index),)
        if tok == RESERVED_NAME:
            return ()
        if tok in _OPERATORS:
            raise FormulaSyntaxError(f"unexpected {tok!r}", self.column(at))
        raise UnknownFormulaVariable(tok, self.column(at))


def parse_formula(text: str, universe: VariableUniverse) -> PosFormula:
    """Parse the surface syntax into a formula; reject non-positive results.

    A conjunction of definite clauses keeps its clauses and builds no truth
    table, at any universe size. Any other value is kept as its truth
    table, which raises :class:`UniverseTooLargeError` past the bound.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 1)
    tokens.append("")
    value = _FormulaParser(text, tokens, universe).parse()
    if isinstance(value, int):
        return _of_table(universe, value)
    return PosFormula(universe, clauses=value)


def format_formula(f: PosFormula) -> str:
    """Text that :func:`parse_formula` reads back to an equal formula:
    ``true``; a clause form's clauses, ``(b1 & b2 -> h1 & h2)`` or ``(h1)``,
    joined by ``&``, less those whose head lies in their body; else the
    full disjunctive form of the table."""
    if f.is_truth():
        return RESERVED_NAME
    if f.clauses is not None:
        names = f.universe.names_of_mask
        parts = []
        for body, head in f.clauses:
            if head & ~body:
                heads = " & ".join(names(head))
                parts.append(f"({' & '.join(names(body))} -> {heads})" if body else f"({heads})")
        return " & ".join(parts)
    parts = []
    for m in f.models:
        lits = [
            v.name if m >> i & 1 else "~" + v.name
            for i, v in enumerate(f.universe.variables)
        ]
        parts.append("(" + " & ".join(lits) + ")")
    return " | ".join(parts)
