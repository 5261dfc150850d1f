"""Set-sharing with freeness and linearity: states and group-set algebra.

Sharing groups are bitmasks over at most 64 variables, held as Python ints.
The two group-set kernels are :func:`union_closure`, a semi-naive fixpoint,
and :func:`pairwise_union`, one set comprehension over all pairs. A guard
mask restricts which pairs combine: two *distinct* groups join only when
their intersection avoids the guard. Guard 0 gives the unguarded operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .terms import Term, Variable, VariableUniverse


class DecompositionLimitError(RuntimeError):
    """The freeness decomposition would enumerate too many blocks."""


@dataclass(frozen=True)
class SharingTriple:
    """Abstract state: sharing groups plus the free and linear variable sets.

    Groups are bitmasks over ``universe``. The empty group is always a
    member and every free variable is kept linear; :meth:`make` applies
    both normalisations.
    """

    universe: VariableUniverse
    groups: tuple[int, ...]
    free: int
    linear: int

    @classmethod
    def make(
        cls,
        universe: VariableUniverse,
        groups: Iterable[int] = (),
        free: int = 0,
        linear: int = 0,
    ) -> "SharingTriple":
        full = universe.full_mask
        gs = {int(g) for g in groups}
        gs.add(0)
        for g in gs:
            if g & ~full:
                raise ValueError("sharing group escapes the universe")
        if (free | linear) & ~full:
            raise ValueError("free/linear variables escape the universe")
        return cls(universe, tuple(sorted(gs)), int(free), int(free | linear))

    @classmethod
    def from_names(
        cls,
        universe: VariableUniverse,
        groups: Iterable[Iterable[str]] = (),
        free: Iterable[str] = (),
        linear: Iterable[str] = (),
    ) -> "SharingTriple":
        return cls.make(
            universe,
            [universe.mask_of(Variable(n) for n in g) for g in groups],
            universe.mask_of(Variable(n) for n in free),
            universe.mask_of(Variable(n) for n in linear),
        )

    def group_names(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.universe.names_of_mask(g) for g in self.groups)


def group_vars(groups: Iterable[int]) -> int:
    """Union of all groups: the variables that may share at all."""
    mask = 0
    for g in groups:
        mask |= g
    return mask


def relevant(groups: Sequence[int], term_mask: int) -> tuple[int, ...]:
    """The groups that meet the given variable mask."""
    return tuple(g for g in groups if g & term_mask)


def union_closure(groups: Sequence[int], free_guard: int = 0) -> tuple[int, ...]:
    """Least superset of ``groups`` closed under pairwise union.

    With a guard, only pairs whose intersection avoids the guard combine:
    two distinct groups carrying a common free variable describe
    incompatible computations and stay separate.
    """
    # Joining against base groups only is complete: any guarded union of
    # derived groups decomposes into guarded single-group steps. Only the
    # groups found in the last round can yield new ones.
    base = tuple(set(groups))
    seen = set(base)
    frontier = base
    while frontier:
        frontier = {c | g for c in frontier for g in base if not c & g & free_guard} - seen
        seen |= frontier
    return tuple(sorted(seen))


def pairwise_union(
    groups1: Sequence[int], groups2: Sequence[int], free_guard: int = 0
) -> tuple[int, ...]:
    """All unions of one group from each side; distinct pairs obey the guard."""
    right = set(groups2)
    return tuple(
        sorted({x | y for x in set(groups1) for y in right if x == y or not x & y & free_guard})
    )


def abstract_multiplicity(
    term: Term, groups: Sequence[int], linear: int, universe: VariableUniverse
) -> int:
    """Worst-case multiplicity of the term under any described unifier.

    1 means the instantiated term stays linear, so closure can be avoided
    on that side; 2 makes no such promise.
    """
    summary = universe.summarize(term)
    return mask_multiplicity(summary.mask, summary.repeated, groups, linear)


def mask_multiplicity(
    term_mask: int, repeated: int, groups: Sequence[int], linear: int
) -> int:
    """:func:`abstract_multiplicity` of a term given as ``var(t)`` and the
    mask of its variables that occur at least twice."""
    shared = group_vars(groups)
    if repeated & shared or shared & term_mask & ~linear:
        return 2
    for g in groups:
        if (g & term_mask).bit_count() >= 2:
            return 2
    return 1


def freeness_decomposition(
    groups: Sequence[int], free: int, max_groups: int = 16
) -> tuple[tuple[int, ...], ...]:
    """All blocks ``B`` of the group set that cover the free variables and
    whose distinct members are pairwise disjoint on them.

    Each block collects groups that can arise on one computational path.
    The block count can be exponential in the group count, hence the guard.
    """
    base = tuple(sorted(set(groups)))
    if len(base) > max_groups:
        raise DecompositionLimitError(
            f"{len(base)} sharing groups exceed the decomposition bound {max_groups}"
        )
    blocks: list[tuple[int, ...]] = []
    n = len(base)

    def extend(i: int, chosen: list[int], free_used: int, covered: int) -> None:
        if i == n:
            if free & ~covered == 0:
                blocks.append(tuple(chosen))
            return
        g = base[i]
        extend(i + 1, chosen, free_used, covered)
        # pairwise free-disjointness against everything chosen so far
        if g & free_used == 0:
            chosen.append(g)
            extend(i + 1, chosen, free_used | (g & free), covered | g)
            chosen.pop()

    extend(0, [], 0, 0)
    blocks.sort(key=lambda b: (len(b), b))
    return tuple(blocks)
