"""The kernels against golden values, the code they replaced, and the
closure laws. numpy is a test-only dependency."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sharelin.fuzz import FuzzReport, Violation
from sharelin.sharing import freeness_decomposition
from sharelin.sharing import pairwise_union as pairwise_masks
from sharelin.sharing import union_closure as closure_masks
from sharelin.terms import VariableUniverse

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


def semi_naive_closure(groups, free_guard=0):
    """``union_closure`` before it added one generator at a time, verbatim:
    each round joins the groups found in the last round with every base
    group."""
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


@settings(max_examples=300, deadline=None)
@given(mask_sets, st.just(0) | guards)
def test_closure_matches_semi_naive(masks, guard):
    assert closure_masks(masks, guard) == semi_naive_closure(masks, guard)


@settings(max_examples=300, deadline=None)
@given(wide_mask_sets, st.just(0) | wide_guards)
def test_wide_closure_matches_semi_naive(masks, guard):
    assert closure_masks(masks, guard) == semi_naive_closure(masks, guard)


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


def _random_group_state(rng: random.Random, max_vars: int, max_groups: int):
    n = rng.randint(1, max_vars)
    universe = VariableUniverse.of_names(f"x{i}" for i in range(1, n + 1))
    full = universe.full_mask
    groups = {0} | {rng.randint(0, full) for _ in range(rng.randint(0, max_groups))}
    free = rng.randint(0, full)
    return universe, tuple(sorted(groups)), free


def coincidence_trials(seed: int, target_blocks: int, max_vars: int = 5) -> FuzzReport:
    """Within any freeness block, the guarded operations coincide with the
    plain ones; checked over random states until enough blocks are seen."""
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, trials=target_blocks)

    def pick_subset(block):
        return tuple(g for g in block if rng.random() < 0.7)

    while report.checked < target_blocks:
        universe, groups, free = _random_group_state(rng, max_vars, max_groups=5)
        for block in freeness_decomposition(groups, free, max_groups=8):
            sub = pick_subset(block)
            sub1 = pick_subset(block)
            sub2 = pick_subset(block)
            closed1 = closure_masks(sub1)
            closed2 = closure_masks(sub2)
            checks = (
                ("guarded-closure", closure_masks(sub, free), closure_masks(sub)),
                ("guarded-union", pairwise_masks(sub1, sub2, free), pairwise_masks(sub1, sub2)),
                ("closed-left", pairwise_masks(closed1, sub2, free), pairwise_masks(closed1, sub2)),
                ("closed-right", pairwise_masks(sub1, closed2, free), pairwise_masks(sub1, closed2)),
                ("closed-both", pairwise_masks(closed1, closed2, free), pairwise_masks(closed1, closed2)),
            )
            for name, guarded, plain in checks:
                if guarded != plain:
                    report.violations.append(
                        Violation(
                            report.checked,
                            f"block-coincidence-{name}",
                            f"universe={universe.names} groups={groups} free={free:#x} block={block}",
                            "",
                        )
                    )
            report.checked += 1
            if report.checked >= target_blocks:
                break
    return report


def test_guarded_kernels_coincide_inside_blocks():
    report = coincidence_trials(seed=7, target_blocks=200)
    assert not report.violations
    assert report.checked >= 200
