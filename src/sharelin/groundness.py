"""Groundness dependencies as positive Boolean functions over a universe.

A formula is stored as its explicit model set: every model is the bitmask
of variables assigned true. It is built as a truth table, one Python int
whose bit ``m`` is set iff assignment ``m`` is a model. Positivity is
exactly the condition that the all-true assignment (the top bit) is a
model. The explicit form keeps conjunction, entailment and group trimming
exact and easy to test; it is deliberately bounded to small universes.
The bound binds only where a formula is built: a ``pos`` line and the
constructors here. Early pruning without a formula forward-chains the
equations instead (see ``amgu.early_prune``) and reaches 64 variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, count
from operator import add
from typing import Iterable, Sequence

from .terms import Equation, VariableUniverse, bit_positions, term_vars

# Materialising a formula enumerates 2**n assignments (a 128 KiB truth table
# at the bound). This caps a ``pos`` line and the model-set constructors
# below; early pruning without a formula needs no model set.
MAX_FORMULA_VARS = 20


class NotPositiveError(ValueError):
    """The expression is falsified by the all-true assignment."""


class UniverseTooLargeError(ValueError):
    """Explicit model sets are only supported for small universes."""


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.col = col


class UnknownFormulaVariable(ValueError):
    def __init__(self, name: str, col: int):
        super().__init__(f"undeclared variable {name!r} in formula")
        self.name = name
        self.col = col


@dataclass(frozen=True)
class PosFormula:
    """A positive Boolean function, given by its sorted model masks."""

    universe: VariableUniverse
    models: tuple[int, ...]

    @classmethod
    def of_models(cls, universe: VariableUniverse, models: Iterable[int]) -> "PosFormula":
        ms = sorted(set(int(m) for m in models))
        full = universe.full_mask
        if any(m & ~full for m in ms):
            raise ValueError("model mentions a variable outside the universe")
        if full not in ms:
            raise NotPositiveError("the all-true assignment is not a model")
        return cls(universe, tuple(ms))

    def is_truth(self) -> bool:
        return len(self.models) == 1 << len(self.universe)


def _bounded_size(universe: VariableUniverse) -> int:
    n = len(universe)
    if n > MAX_FORMULA_VARS:
        raise UniverseTooLargeError(
            f"building a groundness formula over {n} variables needs 2**{n} models; "
            f"the supported bound is {MAX_FORMULA_VARS}"
        )
    return n


def _column(n: int, i: int) -> int:
    """The truth table of variable ``i``: bit ``m`` is set iff bit ``i`` of
    ``m`` is. One period, ``2**i`` zeros then ``2**i`` ones, is doubled
    until it covers the ``2**n`` assignments."""
    block = ((1 << (1 << i)) - 1) << (1 << i)
    for k in range(i + 1, n):
        block |= block << (1 << k)
    return block


def _conjunction_table(n: int, var_mask: int) -> int:
    """The truth table of the conjunction of the variables in ``var_mask``."""
    if var_mask >> n:
        return 0  # no assignment sets a variable outside the universe
    table = (1 << (1 << n)) - 1
    for i in bit_positions(var_mask):
        table &= _column(n, i)
    return table


def _models(table: int) -> tuple[int, ...]:
    """The set bits of a truth table, lowest first: the lengths of the zero
    runs between ones, accumulated, plus the ones passed."""
    runs = format(table, "b")[::-1].split("1")[:-1]
    return tuple(map(add, accumulate(map(len, runs)), count()))


def _of_table(universe: VariableUniverse, table: int) -> PosFormula:
    """The formula with this truth table; the top bit is the all-true assignment."""
    if not table >> ((1 << len(universe)) - 1) & 1:
        raise NotPositiveError("the all-true assignment is not a model")
    return PosFormula(universe, _models(table))


def truth(universe: VariableUniverse) -> PosFormula:
    """The formula with no groundness information: every assignment is a model."""
    return conjunction_of(universe, 0)


def conjunction_of(universe: VariableUniverse, var_mask: int) -> PosFormula:
    """The conjunction of the variables in ``var_mask``."""
    return _of_table(universe, _conjunction_table(_bounded_size(universe), var_mask))


def biconditional(universe: VariableUniverse, left_mask: int, right_mask: int) -> PosFormula:
    """``(/\\ left) <-> (/\\ right)`` as a model set."""
    n = _bounded_size(universe)
    differ = _conjunction_table(n, left_mask) ^ _conjunction_table(n, right_mask)
    return _of_table(universe, differ ^ _conjunction_table(n, 0))


def equation_groundness(eq: Equation, universe: VariableUniverse) -> PosFormula:
    """Groundness consequence of solving one equation: grounding every
    variable of one side grounds the other, in any unifier."""
    return biconditional(
        universe,
        universe.mask_of(term_vars(eq.lhs)),
        universe.mask_of(term_vars(eq.rhs)),
    )


def conjoin(f: PosFormula, g: PosFormula) -> PosFormula:
    if f.universe != g.universe:
        raise ValueError("conjoined formulas must share a universe")
    return PosFormula.of_models(f.universe, set(f.models) & set(g.models))


def entailed_ground(f: PosFormula) -> int:
    """Mask of the variables true in every model (the definitely-ground set)."""
    mask = f.universe.full_mask
    for m in f.models:
        mask &= m
    return mask


def trim(f: PosFormula, groups: Sequence[int]) -> tuple[int, ...]:
    """Keep the groups whose complement is a model of ``f``.

    A sharing group that survives can still bind a common variable once the
    rest of the universe is ground; any other group is impossible and is
    dropped. The empty group always survives (positivity).
    """
    model_set = set(f.models)
    full = f.universe.full_mask
    return tuple(g for g in groups if full & ~g in model_set)


# --- surface syntax ---------------------------------------------------------
#
#   formula := impl ('<->' formula)?
#   impl    := disj ('->' impl)?
#   disj    := conj ('|' conj)*
#   conj    := unary ('&' unary)*
#   unary   := '~' unary | 'true' | ident | '(' formula ')'
#
# '~' is permitted anywhere as long as the final result stays positive.

_TOKEN_RE = re.compile(r"<->|->|[()&|~]|[a-z][a-zA-Z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
        tokens.append((m.group(), m.start() + 1))
        pos = m.end()
    return tokens


class _FormulaParser:
    def __init__(self, tokens: list[tuple[str, int]], universe: VariableUniverse):
        self.tokens = tokens
        self.pos = 0
        self.n = len(universe)
        self.all = (1 << (1 << self.n)) - 1
        self.bits = {v.name: i for i, v in enumerate(universe.variables)}

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next_col(self) -> int:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else (
            self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
        )

    def take(self) -> tuple[str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> int:
        value = self.formula()
        if self.pos != len(self.tokens):
            raise FormulaSyntaxError(f"unexpected {self.peek()!r}", self.next_col())
        return value

    def formula(self) -> int:
        left = self.impl()
        if self.peek() == "<->":
            self.take()
            right = self.formula()
            return left ^ right ^ self.all
        return left

    def impl(self) -> int:
        left = self.disj()
        if self.peek() == "->":
            self.take()
            right = self.impl()
            return left ^ self.all | right
        return left

    def disj(self) -> int:
        value = self.conj()
        while self.peek() == "|":
            self.take()
            value = value | self.conj()
        return value

    def conj(self) -> int:
        value = self.unary()
        while self.peek() == "&":
            self.take()
            value = value & self.unary()
        return value

    def unary(self) -> int:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula", self.next_col())
        if tok == "~":
            self.take()
            return self.unary() ^ self.all
        if tok == "(":
            self.take()
            value = self.formula()
            if self.peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.next_col())
            self.take()
            return value
        name, col = self.take()
        if name in ("&", "|", "->", "<->", ")"):
            raise FormulaSyntaxError(f"unexpected {name!r}", col)
        if name == "true":
            return self.all
        if name not in self.bits:
            raise UnknownFormulaVariable(name, col)
        return _column(self.n, self.bits[name])


def parse_formula(text: str, universe: VariableUniverse) -> PosFormula:
    """Parse the surface syntax into a formula; reject non-positive results.

    The value is a truth table, so its set bits are the models, already
    sorted and inside the universe.
    """
    _bounded_size(universe)
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 1)
    return _of_table(universe, _FormulaParser(tokens, universe).parse())


def format_formula(f: PosFormula) -> str:
    """Canonical text for a formula: ``true`` or a full disjunctive form."""
    if f.is_truth():
        return "true"
    parts = []
    for m in f.models:
        lits = [
            v.name if m >> i & 1 else "~" + v.name
            for i, v in enumerate(f.universe.variables)
        ]
        parts.append("(" + " & ".join(lits) + ")")
    return " | ".join(parts)
