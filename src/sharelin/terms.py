"""Finite first-order terms, equations and ordered variable universes, with
the identifier and the one token regex of both grammars."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Union


@dataclass(frozen=True)
class Variable:
    """A program variable, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")


@dataclass(frozen=True)
class Compound:
    """A functor applied to argument terms; zero arguments makes a constant.

    Functor identity is the pair (name, arity): ``f/1`` and ``f/2`` are
    unrelated symbols.
    """

    functor: str
    args: tuple["Term", ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)


Term = Union[Variable, Compound]


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


# Order is preserved as written; it only influences equation scheduling,
# never soundness.
EquationSet = tuple[Equation, ...]


def variable_counts(t: Term) -> Counter:
    """Occurrence count per variable of ``t``."""
    counts: Counter = Counter()
    stack: list[Term] = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Variable):
            counts[cur] += 1
        else:
            stack.extend(cur.args)
    return counts


def bit_positions(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, lowest first, found by
    visiting only the set bits."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return tuple(positions)


class TermSummary(NamedTuple):
    """What the abstract operations read off a term, as masks over a
    universe: ``var(t)``, the variables occurring at least twice, and the
    term's own bit when it is a bare variable (0 otherwise)."""

    mask: int
    repeated: int
    var_bit: int


MAX_VARS = 64  # the most variables a universe may hold
# an identifier of both grammars, and so a variable name in a universe
IDENTIFIER = r"[a-z][a-zA-Z0-9_]*"
_IDENTIFIER_RE = re.compile(IDENTIFIER)
# an identifier that a ``pos`` line always reads as the formula constant
RESERVED_NAME = "true"
# One match per token of both grammars: an arrow, an identifier or any other
# non-space character; an error outside a formula prints a token's first one.
TOKEN_RE = re.compile(rf"\s*(<->|->|{IDENTIFIER}|\S)")


def token_column(text: str, index: int, past_end: int) -> int:
    """The 1-based column of token ``index`` of ``text``, else ``past_end``.
    Only errors need it. Trailing space is cut: the regex would rescan it."""
    tokens = TOKEN_RE.finditer(text, 0, len(text.rstrip()))
    match = next(islice(tokens, index, None), None)
    return past_end if match is None else match.start(1) + 1


@dataclass(frozen=True)
class VariableUniverse:
    """Finite ordered set of variables; declaration order fixes bit positions.

    Every set of variables handled by the analysis is represented as a
    bitmask over this order. Names match :data:`IDENTIFIER` and are not
    ``true``, so every universe prints as a problem file that parses back,
    ``pos`` line included.
    """

    variables: tuple[Variable, ...]
    # the variables' names in order, and each name's position: the one name
    # table that parsing, printing and bit lookups read
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    name_index: dict[str, int] = field(init=False, repr=False, compare=False)
    full_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(v.name for v in self.variables)
        if not all(map(_IDENTIFIER_RE.fullmatch, names)):
            bad = next(n for n in names if not _IDENTIFIER_RE.fullmatch(n))
            raise ValueError(f"variable name {bad!r} is not an identifier")
        if RESERVED_NAME in names:
            raise ValueError(f"variable name {RESERVED_NAME!r} is the formula constant")
        name_index = {name: i for i, name in enumerate(names)}
        if len(name_index) != len(names):
            raise ValueError("duplicate variable in universe")
        if len(names) > MAX_VARS:
            raise ValueError(f"universes beyond {MAX_VARS} variables are not supported")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "name_index", name_index)
        object.__setattr__(self, "full_mask", (1 << len(names)) - 1)

    @classmethod
    def of_names(cls, names: Iterable[str]) -> "VariableUniverse":
        return cls(tuple(Variable(n) for n in names))

    def __len__(self) -> int:
        return len(self.variables)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.variables)

    def __contains__(self, v: Variable) -> bool:
        return isinstance(v, Variable) and v.name in self.name_index

    def index(self, v: Variable) -> int:
        try:
            return self.name_index[v.name]
        except KeyError:
            raise ValueError(f"variable {v.name!r} is not in the universe") from None

    def bit(self, v: Variable) -> int:
        return 1 << self.index(v)

    def mask_of(self, vs: Iterable[Variable]) -> int:
        mask = 0
        for v in vs:
            mask |= self.bit(v)
        return mask

    def term_mask(self, t: Term) -> int:
        """Bitmask of ``var(t)``; raises when a variable escapes the universe."""
        return self.summarize(t).mask

    def summarize(self, t: Term) -> TermSummary:
        """The :class:`TermSummary` of ``t``, in one walk; raises when a
        variable escapes the universe."""
        if isinstance(t, Variable):
            bit = self.bit(t)
            return TermSummary(bit, 0, bit)
        name_index = self.name_index
        seen = repeated = 0
        stack = list(t.args)
        while stack:
            cur = stack.pop()
            if isinstance(cur, Variable):
                i = name_index.get(cur.name)
                if i is None:
                    self.index(cur)  # raises, naming the variable
                bit = 1 << i
                repeated |= seen & bit
                seen |= bit
            else:
                stack.extend(cur.args)
        return TermSummary(seen, repeated, 0)

    def vars_of_mask(self, mask: int) -> tuple[Variable, ...]:
        variables = self.variables
        return tuple(variables[i] for i in bit_positions(mask))

    def names_of_mask(self, mask: int) -> tuple[str, ...]:
        names = self.names
        return tuple(names[i] for i in bit_positions(mask))
