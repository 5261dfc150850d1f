"""Group-set algebra: relevance, closures, guarded unions, decomposition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharelin.amgu import AmguConfig
from sharelin.sharing import (
    DecompositionLimitError,
    SharingTriple,
    freeness_decomposition,
    group_vars,
    mask_multiplicity,
    pairwise_union,
    relevant,
    union_closure,
)
from sharelin.terms import Compound, Variable, VariableUniverse

U6 = VariableUniverse.of_names(["u", "v", "w", "x", "y", "z"])
XYZ = VariableUniverse.of_names(["x", "y", "z"])


def g(universe, *names):
    """Masks for groups written as strings of variable names."""
    return tuple(universe.mask_of(Variable(c) for c in name) for name in names)


def gs(universe, *names):
    return tuple(sorted(g(universe, *names)))


def test_relevant():
    state = gs(U6, "", "uw", "vw", "xy", "xz", "wx")
    assert set(relevant(state, U6.mask_of([Variable("w")]))) == set(g(U6, "uw", "vw", "wx"))
    assert relevant(state, 0) == ()  # ground term touches nothing
    five = gs(XYZ, "", "xy", "y", "z")
    fyz_mask = XYZ.mask_of([Variable("y"), Variable("z")])
    assert set(relevant(five, fyz_mask)) == set(g(XYZ, "xy", "y", "z"))


def test_union_closure():
    sw = g(U6, "uw", "vw", "wx")
    closed = union_closure(sw)
    assert g(U6, "uvw")[0] in closed
    assert union_closure(()) == ()
    assert union_closure(g(U6, "uw")) == g(U6, "uw")
    assert set(union_closure(g(XYZ, "x", "y"))) == set(g(XYZ, "x", "y", "xy"))


@pytest.mark.parametrize("guard", [0, 0b101, (1 << 64) - 1])
def test_union_closure_of_fewer_than_two_generators(guard):
    # no pair to join: the input is its own closure, as a tuple
    assert union_closure((), guard) == ()
    assert union_closure([], guard) == ()
    assert union_closure(iter(()), guard) == ()
    for single in ((0,), (0b110,), (1 << 63,)):
        assert union_closure(single, guard) == single
        assert union_closure(list(single), guard) == single
        assert union_closure(set(single), guard) == single
        assert union_closure(single * 3, guard) == single
        assert union_closure(iter(single), guard) == single
    # an iterator of several generators is closed like the same sequence
    assert union_closure(iter((0b01, 0b10)), guard) == union_closure((0b01, 0b10), guard)


def test_pairwise_union():
    assert pairwise_union(g(XYZ, "xy"), g(XYZ, "yz")) == g(XYZ, "xyz")
    assert pairwise_union(g(XYZ, "x"), ()) == ()
    assert pairwise_union(g(XYZ, "x"), g(XYZ, "x")) == g(XYZ, "x")


def test_guarded_pairwise_union():
    free_y = XYZ.mask_of([Variable("y")])
    assert pairwise_union(g(XYZ, "xy"), g(XYZ, "yz"), free_y) == ()
    free_all = XYZ.full_mask
    got = pairwise_union(g(XYZ, "x", "xy"), g(XYZ, "z", "yz"), free_all)
    assert set(got) == set(g(XYZ, "xz", "xyz"))
    # no guard: coincides with the plain operation
    assert pairwise_union(g(XYZ, "xy"), g(XYZ, "yz"), 0) == pairwise_union(
        g(XYZ, "xy"), g(XYZ, "yz")
    )


def test_guarded_closure():
    free_all = XYZ.full_mask
    assert set(union_closure(g(XYZ, "x", "xy"), free_all)) == set(g(XYZ, "x", "xy"))
    masks = g(XYZ, "x", "y")
    assert union_closure(masks, 0) == union_closure(masks)
    assert union_closure(g(XYZ, "xy"), free_all) == g(XYZ, "xy")


def multiplicity(term, groups, linear, universe):
    summary = universe.summarize(term)
    return mask_multiplicity(summary.mask, summary.repeated, groups, linear)


def test_abstract_multiplicity():
    w, x, y = Variable("w"), Variable("x"), Variable("y")
    state6 = gs(U6, "", "uw", "vw", "xy", "xz", "wx")
    assert multiplicity(w, state6, U6.full_mask, U6) == 1
    state3 = gs(XYZ, "", "xy", "yz")
    lin_y = XYZ.mask_of([y])
    assert multiplicity(x, state3, lin_y, XYZ) == 2
    assert multiplicity(Compound("f", (y, y)), state3, XYZ.full_mask, XYZ) == 2


def test_freeness_decomposition_blocks():
    state = gs(XYZ, "", "x", "z", "xy", "yz")
    blocks = {
        frozenset(b)
        for b in freeness_decomposition(state, XYZ.full_mask, max_groups=AmguConfig.file_bound)
    }
    expected = {
        frozenset(g(XYZ, "x", "yz")),
        frozenset(g(XYZ, "", "x", "yz")),
        frozenset(g(XYZ, "xy", "z")),
        frozenset(g(XYZ, "", "xy", "z")),
    }
    assert blocks == expected


def test_freeness_decomposition_no_free_vars_gives_all_subsets():
    state = gs(XYZ, "", "x", "y")
    blocks = freeness_decomposition(state, 0, max_groups=AmguConfig.file_bound)
    assert len(blocks) == 8  # every subset qualifies


def test_freeness_decomposition_limit():
    state = tuple(range(18))
    with pytest.raises(DecompositionLimitError):
        freeness_decomposition(state, 0, max_groups=16)


def test_decomposition_example_with_partial_freeness():
    state = gs(XYZ, "", "xy", "y", "z")
    free_xy = XYZ.mask_of([Variable("x"), Variable("y")])
    blocks = {
        frozenset(b)
        for b in freeness_decomposition(state, free_xy, max_groups=AmguConfig.file_bound)
    }
    assert frozenset(g(XYZ, "", "xy", "z")) in blocks


mask_sets = st.lists(st.integers(min_value=0, max_value=63), max_size=6)
guards = st.integers(min_value=0, max_value=63)


@given(mask_sets, guards)
def test_guarded_closure_within_plain(masks, free):
    assert set(union_closure(masks, free)) <= set(union_closure(masks))


@given(mask_sets, guards)
def test_closure_operator_laws(masks, free):
    closed = union_closure(masks, free)
    assert set(masks) <= set(closed)
    assert union_closure(closed, free) == closed


@given(mask_sets, guards)
def test_relevant_group_of_free_variable_needs_no_closure(masks, free):
    # every group relevant to a free variable contains it, so the guard
    # blocks all distinct combinations
    universe = VariableUniverse.of_names(f"v{i}" for i in range(6))
    for i in range(6):
        bit = 1 << i
        if not free & bit:
            continue
        rel = relevant(tuple(set(masks)), bit)
        assert union_closure(rel, free) == tuple(sorted(set(rel)))


def test_triple_normalisation():
    t = SharingTriple.from_names(XYZ, [("x", "y")], free=("x",))
    assert 0 in t.groups
    assert t.linear == t.free  # free variables are linear
    t2 = SharingTriple.from_names(XYZ, [], free=("x",), linear=("y",))
    assert t2.linear == XYZ.mask_of([Variable("x"), Variable("y")])


def test_triple_rejects_escapes():
    with pytest.raises(ValueError):
        SharingTriple.make(XYZ, [1 << 5])
    with pytest.raises(ValueError):
        SharingTriple.make(XYZ, [], free=1 << 3)


def test_group_vars():
    assert group_vars(g(XYZ, "xy", "z")) == XYZ.full_mask
    assert group_vars(()) == 0
