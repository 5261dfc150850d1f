"""Bitmask kernels for the two hot group-set operations.

Sharing groups are bitmasks over at most 64 variables, held as Python ints.
Closing a group set under (guarded) pairwise union is a semi-naive
fixpoint; the (guarded) pairwise union of two group sets is one set
comprehension over all pairs.

A guard mask restricts which pairs combine: two *distinct* groups join only
when their intersection avoids the guard. Guard 0 gives the unguarded
operations.
"""

from __future__ import annotations

from typing import Sequence

BACKEND = "python-int"


def closure_masks(masks: Sequence[int], guard: int = 0) -> tuple[int, ...]:
    """Close a group set under pairwise union; pairs meeting ``guard`` stay apart."""
    # Joining against base groups only is complete: any guarded union of
    # derived groups decomposes into guarded single-group steps. Only the
    # groups found in the last round can yield new ones.
    base = tuple(set(masks))
    seen = set(base)
    frontier = base
    while frontier:
        frontier = {c | g for c in frontier for g in base if not c & g & guard} - seen
        seen |= frontier
    return tuple(sorted(seen))


def pairwise_masks(a: Sequence[int], b: Sequence[int], guard: int = 0) -> tuple[int, ...]:
    """All unions of one group from each side; distinct pairs obey ``guard``."""
    right = set(b)
    return tuple(sorted({x | y for x in set(a) for y in right if x == y or not x & y & guard}))
