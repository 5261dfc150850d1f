"""The kernels against golden values, the numpy code they replaced, and the
closure laws. numpy is a test-only dependency."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sharelin.sharing import pairwise_union as pairwise_masks
from sharelin.sharing import union_closure as closure_masks

mask_sets = st.lists(st.integers(min_value=0, max_value=(1 << 6) - 1), max_size=8)
guards = st.integers(min_value=0, max_value=(1 << 6) - 1)

# sparse masks over low and high bits, bit 63 included, so that closures
# stay small while every uint64 position is reachable
WIDE_BITS = (0, 1, 2, 3, 31, 32, 61, 62, 63)
def wide_masks(max_bits):
    return st.sets(st.sampled_from(WIDE_BITS), max_size=max_bits).map(
        lambda bits: sum(1 << b for b in bits)
    )


wide_mask_sets = st.lists(wide_masks(3), max_size=8)
wide_guards = wide_masks(len(WIDE_BITS))

BIT63 = 1 << 63


def reference_closure(masks, guard=0):
    """The numpy fixpoint that ``closure_masks`` replaced: every round joins
    the whole current set against the base groups."""
    if len(masks) <= 1:
        return tuple(sorted(set(masks)))
    base = np.array(sorted(set(masks)), dtype=np.uint64)
    guard = np.uint64(guard)
    cur = base
    while True:
        meets = cur[:, None] & base[None, :]
        ok = (meets & guard) == 0
        unions = (cur[:, None] | base[None, :])[ok]
        grown = np.union1d(cur, unions)
        if grown.size == cur.size:
            return tuple(grown.tolist())
        cur = grown


def reference_pairwise(a, b, guard=0):
    """The numpy broadcast over uint64 that ``pairwise_masks`` replaced."""
    if not a or not b:
        return ()
    left = np.array(list(set(a)), dtype=np.uint64)[:, None]
    right = np.array(list(set(b)), dtype=np.uint64)[None, :]
    ok = ((left & right & np.uint64(guard)) == 0) | (left == right)
    return tuple(np.unique((left | right)[ok]).tolist())


def test_closure_golden():
    assert closure_masks([]) == ()
    assert closure_masks([0b11]) == (0b11,)
    assert closure_masks([0b01, 0b10]) == (0b01, 0b10, 0b11)
    # guarded: the two groups meet on a guard bit, so they never combine
    assert closure_masks([0b011, 0b101], 0b001) == (0b011, 0b101)
    assert closure_masks([BIT63, 0b1]) == (0b1, BIT63, BIT63 | 0b1)
    assert closure_masks([BIT63 | 0b01, BIT63 | 0b10], BIT63) == (
        BIT63 | 0b01,
        BIT63 | 0b10,
    )


def test_pairwise_golden():
    assert pairwise_masks([0b011], [0b110]) == (0b111,)
    assert pairwise_masks([0b1], []) == ()
    assert pairwise_masks([0b1], [0b1]) == (0b1,)
    # distinct pair blocked by the guard; an equal pair never is
    assert pairwise_masks([0b011], [0b110], 0b010) == ()
    assert pairwise_masks([0b011], [0b011], 0b011) == (0b011,)
    # bit 63 survives the uint64 round trip, guarded or not
    assert pairwise_masks([BIT63, 0b1], [0b10]) == (0b11, BIT63 | 0b10)
    assert pairwise_masks([BIT63 | 0b1], [BIT63 | 0b10], BIT63) == ()


@settings(deadline=None)
@given(wide_mask_sets, wide_guards)
def test_closure_matches_reference(masks, guard):
    assert closure_masks(masks, guard) == reference_closure(masks, guard)


@settings(deadline=None)
@given(wide_mask_sets, wide_mask_sets, st.just(0) | wide_guards, st.booleans())
def test_pairwise_matches_reference(a, b, guard, same_sides):
    if same_sides:
        b = a
    assert pairwise_masks(a, b, guard) == reference_pairwise(a, b, guard)


@given(mask_sets, guards)
def test_closure_is_a_closure_operator(masks, guard):
    once = closure_masks(masks, guard)
    assert set(masks) <= set(once)                      # extensive
    assert closure_masks(once, guard) == once           # idempotent


@given(mask_sets, mask_sets, guards)
def test_closure_monotone(smaller, extra, guard):
    bigger = smaller + extra
    assert set(closure_masks(smaller, guard)) <= set(closure_masks(bigger, guard))


@given(mask_sets, guards)
def test_guarded_closure_within_plain(masks, guard):
    assert set(closure_masks(masks, guard)) <= set(closure_masks(masks))


@given(mask_sets, mask_sets, guards)
def test_guarded_pairwise_within_plain(a, b, guard):
    assert set(pairwise_masks(a, b, guard)) <= set(pairwise_masks(a, b))
