"""Golden tests for the abstract unification variants and the pipeline.

The fixtures are the worked examples that motivate each algorithm; every
expected value is either the published one or derived by evaluating the
definitions by hand (cross-checked against the concrete oracle).
"""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharelin.amgu import (
    AlgorithmId,
    AmguConfig,
    AnalysisProblem,
    _combine,
    amgu1,
    amgu2,
    amgu3,
    analyze,
    decomposed_reference,
    early_prune,
    fold_equations,
)
from sharelin.concrete import (
    binding_multiplicity,
    describes,
    is_free,
    sharing_abstraction,
    unify,
)
from sharelin.fuzz import random_equation
from sharelin.groundness import (
    PosFormula,
    biconditional,
    conjoin,
    conjunction_of,
    parse_formula,
    trim,
    truth,
)
from sharelin.sharing import (
    DecompositionLimitError,
    SharingTriple,
    abstract_multiplicity,
    freeness_decomposition,
    group_vars,
    pairwise_union,
    relevant,
    union_closure,
)
from sharelin.terms import (
    Compound,
    Equation,
    Variable,
    VariableUniverse,
    term_multiplicity,
    variable_counts,
)

u, v, w, x, y, z = (Variable(n) for n in "uvwxyz")
U6 = VariableUniverse.of_names(["u", "v", "w", "x", "y", "z"])
XYZ = VariableUniverse.of_names(["x", "y", "z"])


def f(*args):
    return Compound("f", args)


def groups(universe, *names):
    return tuple(sorted(universe.mask_of(Variable(c) for c in n) for n in names))


def mask(universe, names):
    return universe.mask_of(Variable(c) for c in names)


# the six-variable state from the independence example
SIX = SharingTriple.from_names(
    U6,
    [("u", "w"), ("v", "w"), ("x", "y"), ("x", "z"), ("w", "x")],
    linear=["u", "v", "w", "x", "y", "z"],
)

# the three-variable state with one free variable ({x,y},{y,z} share through y)
REDUNDANT = SharingTriple.from_names(XYZ, [("x", "y"), ("y", "z")], free=("y",))


class TestAmgu1:
    def test_ten_groups_without_independence_check(self):
        result = amgu1(SIX, w, x)
        assert result.groups == groups(
            U6, "", "wx", "uwx", "vwx", "wxy", "wxz", "uwxy", "uwxz", "vwxy", "vwxz"
        )
        assert result.free == 0
        # u/v stay independent, and so do y/z
        uv = mask(U6, "uv")
        yz = mask(U6, "yz")
        assert all(g & uv != uv and g & yz != yz for g in result.groups)
        # the printed example lists an empty linear set here; the update
        # rule itself evaluates to everything outside the two relevance sets
        assert result.linear == mask(U6, "uvyz")

    def test_closure_still_needed_for_aliased_linear_terms(self):
        state = SharingTriple.from_names(
            VariableUniverse.of_names(["w", "x", "y", "z"]),
            [("w", "x"), ("w", "y"), ("w", "z")],
            linear=["w", "x", "y", "z"],
        )
        result = amgu1(state, w, f(z, x, y))
        expected = groups(
            state.universe, "", "wx", "wy", "wz", "wxy", "wxz", "wyz", "wxyz"
        )
        assert result.groups == expected
        assert describes(result, [Equation(w, f(x, y, z)), Equation(w, f(z, x, y))])

    def test_free_self_unification_is_identity(self):
        one = VariableUniverse.of_names(["x"])
        state = SharingTriple.from_names(one, [("x",)], free=("x",))
        assert amgu1(state, x, x) == state

    def test_single_closure_gives_up_precision_but_never_groups(self):
        default = amgu1(SIX, w, x)
        traded = amgu1(SIX, w, x, trade_efficiency=True)
        assert set(default.groups) <= set(traded.groups)
        # |rel(w)| == |rel(x)|, so the left side is closed
        rel_w = relevant(SIX.groups, mask(U6, "w"))
        rel_x = relevant(SIX.groups, mask(U6, "x"))
        expected = set(pairwise_union(union_closure(rel_w), rel_x)) | {0}
        assert set(traded.groups) == expected

    def test_rejects_variables_outside_universe(self):
        with pytest.raises(ValueError, match="not in the universe"):
            amgu1(REDUNDANT, x, Variable("q"))


class TestAmgu2:
    def test_guard_blocks_shared_free_variable(self):
        result = amgu2(REDUNDANT, x, z)
        assert result == SharingTriple.make(XYZ, [0], free=0, linear=XYZ.full_mask)

    def test_amgu1_is_coarser_here(self):
        result = amgu1(REDUNDANT, x, z)
        assert result.groups == groups(XYZ, "", "xyz")
        assert result.free == 0 and result.linear == 0

    def test_all_free_state_keeps_structure(self):
        state = SharingTriple.from_names(
            XYZ, [("x",), ("z",), ("x", "y"), ("y", "z")], free=("x", "y", "z")
        )
        result = amgu2(state, x, z)
        assert result.groups == groups(XYZ, "", "xz", "xyz")
        assert result.free == state.free and result.linear == state.linear


class TestAmgu3:
    def test_free_variable_against_compound_extracts_groundness(self):
        state = SharingTriple.from_names(XYZ, [("x", "y"), ("y",), ("z",)], free=("x", "y"))
        result = amgu3(state, x, f(y, z))
        assert result.groups == groups(XYZ, "", "xyz")
        assert result.free == 0 and result.linear == 0

    def test_variable_variable_falls_back_to_guarded_step(self):
        assert amgu3(REDUNDANT, x, z) == amgu2(REDUNDANT, x, z)

    def test_free_variable_against_constant_grounds_it(self):
        xy = VariableUniverse.of_names(["x", "y"])
        state = SharingTriple.from_names(xy, [("x",), ("y",)], free=("x", "y"))
        result = amgu3(state, x, Compound("a"))
        assert result.groups == groups(xy, "", "y")
        assert all(not g & mask(xy, "x") for g in result.groups)
        assert describes(result, [Equation(x, Compound("a"))])

    def test_symmetric_case_compound_against_free_variable(self):
        state = SharingTriple.from_names(XYZ, [("x", "y"), ("y",), ("z",)], free=("x", "y"))
        flipped = amgu3(state, f(y, z), x)
        assert flipped == amgu3(state, x, f(y, z))

    def test_per_group_trim_matches_model_based_trim(self):
        # the fast per-group predicate must agree with trimming by an
        # explicitly built biconditional formula
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 4)
            universe = VariableUniverse.of_names(f"x{i}" for i in range(1, n + 1))
            full = universe.full_mask
            state = SharingTriple.make(
                universe,
                {rng.randint(0, full) for _ in range(rng.randint(0, 4))},
                free=rng.randint(0, full),
            )
            var = rng.choice(universe.variables)
            if not universe.bit(var) & state.free:
                continue
            args = tuple(
                universe.variables[rng.randrange(n)] for _ in range(rng.randint(0, 2))
            )
            term = Compound("f", args)
            via_step = amgu3(state, var, term)
            rel_s = relevant(state.groups, universe.bit(var))
            rel_t = relevant(state.groups, universe.term_mask(term))
            region = set()
            for grp in rel_s:
                required = universe.term_mask(term) & ~(grp & state.free)
                candidates = pairwise_union((grp,), rel_t, state.free)
                formula = biconditional(universe, universe.bit(var), required)
                region.update(trim(formula, candidates))
            removed = set(rel_s) | set(rel_t)
            expected = sorted({g for g in state.groups if g not in removed} | region | {0})
            assert list(via_step.groups) == expected


def pairwise_of_closures(rel_s, rel_t, guard):
    """The region that ``_combine`` built when neither side is linear, before
    it became one closure of the union."""
    return pairwise_union(union_closure(rel_s, guard), union_closure(rel_t, guard), guard)


@st.composite
def nonlinear_combine_cases(draw):
    """Relevance sets of two term masks over universes of up to 8 variables
    or of 63/64, where masks are sparse but reach bit n-1."""
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from([63, 64])))
    bits = list(range(n)) if n <= 8 else [0, 1, 2, 3, 31, 32, n - 2, n - 1]

    def masks(max_bits, min_bits=0):
        return st.sets(st.sampled_from(bits), min_size=min_bits, max_size=max_bits).map(
            lambda chosen: sum(1 << b for b in chosen)
        )

    groups = draw(st.lists(masks(3, 1), max_size=8))
    s_mask = draw(masks(2, 1))
    t_mask = draw(st.one_of(st.just(s_mask), masks(2, 1), st.just(0)))
    guard = draw(st.one_of(st.just(0), st.just(1 << (n - 1)), masks(len(bits))))
    return relevant(groups, s_mask), relevant(groups, t_mask), s_mask, t_mask, guard


@settings(max_examples=400, deadline=None)
@given(nonlinear_combine_cases(), st.booleans())
def test_closure_of_union_matches_pairwise_of_closures(case, trade):
    rel_s, rel_t, s_mask, t_mask, guard = case
    region = _combine(rel_s, rel_t, 2, 2, guard, trade, s_mask, t_mask)
    assert region == pairwise_of_closures(rel_s, rel_t, guard)


def test_closure_of_union_golden():
    a, b, c, big = 0b001, 0b010, 0b100, 1 << 63
    # one side empty: nothing meets that side, so the region is empty
    assert _combine((), (a | b,), 2, 2, 0, False, c, b) == ()
    # both sides over the same groups: every union of them
    rel = (a | big, b | big)
    assert _combine(rel, rel, 2, 2, 0, False, big, big) == (a | big, b | big, a | b | big)
    # a guard on the shared bit keeps the two groups apart
    assert _combine(rel, rel, 2, 2, big, False, big, big) == (a | big, b | big)
    # a group in both relevance sets survives on its own (the a == b pair)
    assert _combine((a | c,), (a | c, b), 2, 2, 0, False, a, c | b) == (a | c, a | b | c)


class TestDecomposedReference:
    def test_all_free_state(self):
        state = SharingTriple.from_names(
            XYZ, [("x",), ("z",), ("x", "y"), ("y", "z")], free=("x", "y", "z")
        )
        result = decomposed_reference(state, x, z)
        assert result.groups == groups(XYZ, "", "xyz")
        assert set(result.groups) < set(amgu2(state, x, z).groups)

    def test_partially_free_state(self):
        result = decomposed_reference(REDUNDANT, x, z)
        assert result == SharingTriple.make(XYZ, [0], free=0, linear=XYZ.full_mask)

    def test_free_variable_against_compound_less_precise_than_trimming(self):
        state = SharingTriple.from_names(XYZ, [("x", "y"), ("y",), ("z",)], free=("x", "y"))
        result = decomposed_reference(state, x, f(y, z))
        assert result.groups == groups(XYZ, "", "xy", "xyz")
        assert set(amgu3(state, x, f(y, z)).groups) < set(result.groups)

    def test_bound(self):
        state = SharingTriple.make(XYZ, [1, 2, 4, 3, 5, 6])
        with pytest.raises(DecompositionLimitError):
            decomposed_reference(state, x, z, file_bound=4)


class TestEarlyPrune:
    def test_groundness_collapses_everything(self):
        u4 = VariableUniverse.of_names(["u", "v", "x", "y"])
        state = SharingTriple.from_names(u4, [("x",), ("y",), ("u",), ("v",)])
        formula = parse_formula("x | y", u4)
        eqs = (
            Equation(x, Compound("f", (Variable("u"), Variable("v")))),
            Equation(x, y),
        )
        pruned = early_prune(formula, eqs, state)
        assert pruned.groups == (0,)
        assert pruned.free == 0
        assert pruned.linear == u4.full_mask

    def test_no_grounding_is_identity_on_groups_and_freeness(self):
        eqs = (Equation(x, z),)
        pruned = early_prune(None, eqs, REDUNDANT)
        assert pruned.groups == REDUNDANT.groups
        assert pruned.free == REDUNDANT.free
        assert pruned.linear == REDUNDANT.linear

    def test_everything_ground(self):
        formula = parse_formula("x & y & z", XYZ)
        pruned = early_prune(formula, (), REDUNDANT)
        assert pruned.groups == (0,)
        assert pruned.free == 0
        assert pruned.linear == XYZ.full_mask

    def test_free_variable_whose_only_group_is_dropped_is_demoted(self):
        # the complement of {x} falsifies y -> x, so {x} goes, and x is ground
        u2 = VariableUniverse.of_names(["x", "y"])
        state = SharingTriple.from_names(u2, [("x",), ("y",)], free=["x"])
        pruned = early_prune(parse_formula("y -> x", u2), (Equation(y, y),), state)
        assert pruned.group_names() == ((), ("y",))
        assert pruned.free == 0
        assert pruned.linear == u2.mask_of([x])


def model_set_early_prune(formula, equations, triple):
    """The early pruning that forward chaining and the one-pass model filter
    replaced: strengthen an explicit model set by every equation, intersect
    the surviving models, and keep the groups whose complement is a model
    containing that ground set."""
    universe = triple.universe
    if formula is None:
        formula = truth(universe)
    eq_masks = [
        (universe.term_mask(e.lhs), universe.term_mask(e.rhs)) for e in equations
    ]
    strengthened = [
        m
        for m in formula.models
        if all(((m & lv) == lv) == ((m & rv) == rv) for lv, rv in eq_masks)
    ]
    ground = universe.full_mask
    for m in strengthened:
        ground &= m
    keep_models = {m for m in formula.models if m & ground == ground}
    full = universe.full_mask
    new_groups = [g for g in triple.groups if full & ~g in keep_models]
    touched = group_vars(g for g in triple.groups if g & ground)
    return SharingTriple.make(
        universe, new_groups, triple.free & ~touched, triple.linear | ground
    )


@st.composite
def prune_problems(draw, max_vars=12):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    universe = VariableUniverse.of_names(f"v{i}" for i in range(n))
    full = universe.full_mask
    masks = st.integers(min_value=0, max_value=full)
    # a side is a variable or a term over a few variables, a constant included
    sides = st.one_of(
        st.sampled_from(universe.variables),
        st.lists(st.sampled_from(universe.variables), max_size=3).map(
            lambda args: Compound("f", tuple(args))
        ),
    )
    equations = tuple(
        Equation(lhs, rhs) for lhs, rhs in draw(st.lists(st.tuples(sides, sides), max_size=5))
    )
    state = SharingTriple.make(
        universe, draw(st.lists(masks, max_size=10)), draw(masks), draw(masks)
    )
    return universe, equations, state


@st.composite
def pos_formulas(draw, universe):
    """A positive formula: an arbitrary model set with the all-true
    assignment, or a conjunction of variables and biconditionals."""
    full = universe.full_mask
    masks = st.integers(min_value=0, max_value=full)
    if draw(st.booleans()):
        return PosFormula.of_models(universe, draw(st.lists(masks, max_size=20)) + [full])
    formula = conjunction_of(universe, draw(masks) if draw(st.booleans()) else 0)
    for left, right in draw(st.lists(st.tuples(masks, masks), max_size=3)):
        formula = conjoin(formula, biconditional(universe, left, right))
    return formula


def demote_groupless_free(triple):
    """A reference result with its free variables that no group holds
    demoted, as :func:`early_prune` does after the reference copies."""
    free = triple.free & group_vars(triple.groups)
    return SharingTriple.make(triple.universe, triple.groups, free, triple.linear)


@settings(max_examples=150, deadline=None)
@given(prune_problems())
def test_forward_chaining_matches_truth_model_set(problem):
    universe, equations, state = problem
    assert early_prune(None, equations, state) == early_prune(
        truth(universe), equations, state
    )
    assert early_prune(None, equations, state) == demote_groupless_free(
        model_set_early_prune(None, equations, state)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pos_model_filter_matches_model_set_pruning(data):
    universe, equations, state = data.draw(prune_problems())
    formula = data.draw(pos_formulas(universe))
    assert early_prune(formula, equations, state) == demote_groupless_free(
        model_set_early_prune(formula, equations, state)
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruning_leaves_no_free_variable_outside_every_group(data):
    universe, equations, state = data.draw(prune_problems())
    formula = data.draw(st.none() | pos_formulas(universe), label="formula")
    result = early_prune(formula, equations, state)
    assert result.free & ~group_vars(result.groups) == 0


def model_filter_early_prune(formula, equations, triple):
    """The early pruning that clause-form pruning replaced, verbatim: forward
    chaining without a formula, and with one, a one-pass filter over its
    explicit models with a lookup of each group's complement."""
    universe = triple.universe
    full = universe.full_mask
    eq_masks = [
        (universe.term_mask(e.lhs), universe.term_mask(e.rhs)) for e in equations
    ]
    if formula is None:
        ground = 0
        changed = True
        while changed:
            changed = False
            for lv, rv in eq_masks:
                if lv & ~ground == 0 and rv & ~ground:
                    ground |= rv
                    changed = True
                if rv & ~ground == 0 and lv & ~ground:
                    ground |= lv
                    changed = True
        new_groups = [g for g in triple.groups if not g & ground]
    else:
        models = formula.models
        ground = full
        for m in models:
            for lv, rv in eq_masks:
                if ((m & lv) == lv) != ((m & rv) == rv):
                    break
            else:
                ground &= m
        new_groups = []
        for g in triple.groups:
            if g & ground:
                continue
            complement = full & ~g
            i = bisect_left(models, complement)
            if i < len(models) and models[i] == complement:
                new_groups.append(g)
    touched = group_vars(g for g in triple.groups if g & ground)
    return SharingTriple.make(
        universe, new_groups, triple.free & ~touched, triple.linear | ground
    )


@st.composite
def definite_formulas(draw, universe):
    """A conjunction of random definite clauses. Sides are mostly a few
    variables, so that chains form, and sometimes any mask, empty included."""
    n = len(universe)
    few = st.sets(st.integers(0, n - 1), max_size=3).map(lambda bits: sum(1 << b for b in bits))
    side = st.one_of(few, few, st.integers(0, universe.full_mask))
    return PosFormula.of_clauses(universe, draw(st.lists(st.tuples(side, side), max_size=8)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_clause_pruning_matches_model_filter(data):
    universe, equations, state = data.draw(prune_problems())
    formula = data.draw(st.none() | definite_formulas(universe), label="formula")
    reference = model_filter_early_prune(formula, equations, state)
    expected = demote_groupless_free(reference)
    assert early_prune(formula, equations, state) == expected
    # the same function as an explicit model set goes through the model filter
    explicit = PosFormula.of_models(universe, (formula or truth(universe)).models)
    assert early_prune(explicit, equations, state) == expected
    assert model_filter_early_prune(explicit, equations, state) == reference


def term_walking_ground_trimmed_region(universe, rel_free, rel_other, free_var, other_mask, free):
    """``_ground_trimmed_region`` before equations were compiled, verbatim."""
    fbit = universe.bit(free_var)
    full = universe.full_mask
    region: set[int] = set()
    for g in rel_free:
        required = other_mask & ~(g & free)
        for cand in pairwise_union((g,), rel_other, free):
            complement = full & ~cand
            if bool(complement & fbit) == ((complement & required) == required):
                region.add(cand)
    return tuple(sorted(region))


def term_walking_multiplicity(term, groups, linear, universe):
    """``abstract_multiplicity`` before its mask logic moved into
    ``mask_multiplicity``, verbatim."""
    counts = variable_counts(term)
    shared = group_vars(groups)
    term_mask = 0
    for v, c in counts.items():
        bit = universe.bit(v)
        term_mask |= bit
        if c >= 2 and bit & shared:
            return 2
    if shared & term_mask & ~linear:
        return 2
    for g in groups:
        if (g & term_mask).bit_count() >= 2:
            return 2
    return 1


def term_walking_amgu_raw(universe, groups, free, linear, s, t, variant, trade):
    """``_amgu_raw`` before equations were compiled, verbatim: it walks both
    terms for their masks and multiplicities on every step."""
    s_mask = universe.term_mask(s)
    t_mask = universe.term_mask(t)
    rel_s = relevant(groups, s_mask)
    rel_t = relevant(groups, t_mask)
    s_free = isinstance(s, Variable) and bool(universe.bit(s) & free)
    t_free = isinstance(t, Variable) and bool(universe.bit(t) & free)
    chi_s = term_walking_multiplicity(s, groups, linear, universe)
    chi_t = term_walking_multiplicity(t, groups, linear, universe)

    if variant == 1 and (s_free or t_free):
        region = pairwise_union(rel_s, rel_t)
    elif variant == 3 and s_free and isinstance(t, Compound):
        region = term_walking_ground_trimmed_region(universe, rel_s, rel_t, s, t_mask, free)
    elif variant == 3 and t_free and isinstance(s, Compound):
        region = term_walking_ground_trimmed_region(universe, rel_t, rel_s, t, s_mask, free)
    else:
        guard = 0 if variant == 1 else free
        region = _combine(rel_s, rel_t, chi_s, chi_t, guard, trade, s_mask, t_mask)

    removed = set(rel_s) | set(rel_t)
    new_groups = tuple(sorted({g for g in groups if g not in removed} | set(region)))
    grounded = universe.full_mask & ~group_vars(new_groups)
    vars_s = group_vars(rel_s)
    vars_t = group_vars(rel_t)

    if s_free and t_free:
        new_free = free
    elif s_free:
        new_free = free & ~vars_s
    elif t_free:
        new_free = free & ~vars_t
    else:
        new_free = free & ~(vars_s | vars_t)

    if chi_s == 1 and chi_t == 1:
        linear_kept = linear & ~(vars_s & vars_t)
    elif chi_s == 1:
        linear_kept = linear & ~vars_s
    elif chi_t == 1:
        linear_kept = linear & ~vars_t
    else:
        linear_kept = linear & ~(vars_s | vars_t)
    new_linear = new_free | grounded | linear_kept

    return new_groups, new_free, new_linear


def term_walking_step(triple, s, t, variant, trade=False):
    universe = triple.universe
    g, f, l = term_walking_amgu_raw(
        universe, triple.groups, triple.free, triple.linear, s, t, variant, trade
    )
    return SharingTriple.make(universe, g, f, l)


def term_walking_decomposed(triple, s, t, file_bound=16):
    blocks = freeness_decomposition(triple.groups, triple.free, max_groups=file_bound)
    universe = triple.universe
    union_groups: set[int] = set()
    free_acc = universe.full_mask
    linear_acc = universe.full_mask
    for block in blocks:
        g, f, l = term_walking_amgu_raw(
            universe, block, triple.free, triple.linear, s, t, 1, False
        )
        union_groups.update(g)
        free_acc &= f
        linear_acc &= l
    return SharingTriple.make(universe, union_groups, free_acc, linear_acc)


def term_walking_fold(triple, equations, config):
    eqs = list(equations)
    if config.order == "ground-first":
        eqs.sort(
            key=lambda e: 0
            if term_multiplicity(e.lhs) == 0 or term_multiplicity(e.rhs) == 0
            else 1
        )
    variant = {AlgorithmId.AMGU1: 1, AlgorithmId.AMGU2: 2, AlgorithmId.AMGU3: 3}
    for eq in eqs:
        if config.algorithm is AlgorithmId.DECOMPOSED:
            triple = term_walking_decomposed(triple, eq.lhs, eq.rhs, config.file_bound)
        else:
            triple = term_walking_step(
                triple, eq.lhs, eq.rhs, variant[config.algorithm], config.trade_efficiency
            )
    return triple


def outcome(fn, *args):
    """A call's result, or the type of the decomposition-limit error it raised."""
    try:
        return fn(*args)
    except DecompositionLimitError:
        return DecompositionLimitError


@st.composite
def compiled_cases(draw):
    """A state and equations over universes of 1-8 variables, or of 63/64
    with sparse masks that reach bit n-1. Terms repeat variables, and a side
    may be a bare variable or a constant."""
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from([63, 64])))
    universe = VariableUniverse.of_names(f"v{i}" for i in range(n))
    bits = list(range(n)) if n <= 8 else [0, 1, 2, 3, 31, 32, n - 2, n - 1]
    masks = st.sets(st.sampled_from(bits)).map(lambda chosen: sum(1 << b for b in chosen))
    variables = [universe.variables[b] for b in bits]
    leaves = st.one_of(st.sampled_from(variables), st.just(Compound("a")))
    terms = st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(lambda a: Compound("f", (a,))),
            st.tuples(inner, inner).map(lambda a: Compound("g", a)),
            st.tuples(inner, inner, inner).map(lambda a: Compound("h", a)),
        ),
        max_leaves=6,
    )
    state = SharingTriple.make(
        universe, draw(st.lists(masks, max_size=6)), draw(masks), draw(masks)
    )
    equations = tuple(
        Equation(lhs, rhs) for lhs, rhs in draw(st.lists(st.tuples(terms, terms), min_size=1, max_size=3))
    )
    return state, equations


@settings(max_examples=300, deadline=None)
@given(compiled_cases())
def test_compiled_steps_match_term_walking_steps(case):
    state, equations = case
    s, t = equations[0].lhs, equations[0].rhs
    for variant, step in ((1, amgu1), (2, amgu2), (3, amgu3)):
        for trade in (False, True):
            assert step(state, s, t, trade) == term_walking_step(state, s, t, variant, trade)
    assert outcome(decomposed_reference, state, s, t) == outcome(
        term_walking_decomposed, state, s, t
    )
    assert abstract_multiplicity(s, state.groups, state.linear, state.universe) == (
        term_walking_multiplicity(s, state.groups, state.linear, state.universe)
    )
    problem = AnalysisProblem(state.universe, state, None, equations)
    for algo in AlgorithmId:
        for order in ("given", "ground-first"):
            for prune in (False, True):
                config = AmguConfig(algorithm=algo, order=order, early_prune=prune)
                start = early_prune(None, equations, state) if prune else state
                expected = outcome(term_walking_fold, start, equations, config)
                assert outcome(analyze, problem, config) == expected
                assert outcome(fold_equations, start, equations, config) == expected


def exact_state(universe, base):
    rsf = unify(base).solved_form
    return SharingTriple.make(
        universe,
        sharing_abstraction(rsf, universe),
        universe.mask_of(v for v in universe if is_free(rsf, v)),
        universe.mask_of(v for v in universe if binding_multiplicity(rsf, v) <= 1),
    )


@pytest.mark.parametrize("n", [24, 32, 64])
def test_pruning_past_formula_bound_is_sound(n):
    # satisfiable systems over universes no model set can cover; the pending
    # equations ground a variable through a constant, and share few enough
    # variables that grounding chains through them, so pruning drops groups
    rng = random.Random(n)
    universe = VariableUniverse.of_names(f"v{i}" for i in range(n))
    checked = dropped = 0
    while checked < 30:
        pool = tuple(rng.sample(universe.variables, 4))
        base = tuple(random_equation(rng, pool, 2) for _ in range(rng.randint(0, 4)))
        equations = (Equation(rng.choice(pool), Compound("a")),) + tuple(
            random_equation(rng, pool, 2) for _ in range(rng.randint(1, 3))
        )
        if not unify(base + equations).success:
            continue
        state = exact_state(universe, base)
        pruned = early_prune(None, equations, state)
        problem = AnalysisProblem(universe, state, None, equations)
        for algo in (AlgorithmId.AMGU1, AlgorithmId.AMGU2, AlgorithmId.AMGU3):
            assert describes(analyze(problem, AmguConfig(algorithm=algo)), base + equations)
        checked += 1
        dropped += len(state.groups) - len(pruned.groups)
    assert dropped > 0


class TestPipeline:
    def test_empty_equations_identity(self):
        config = AmguConfig(early_prune=False)
        problem = AnalysisProblem(XYZ, REDUNDANT, None, ())
        assert analyze(problem, config) == REDUNDANT

    def test_single_equation_matches_direct_step(self):
        problem = AnalysisProblem(XYZ, REDUNDANT, None, (Equation(x, z),))
        config = AmguConfig(algorithm=AlgorithmId.AMGU2, early_prune=False)
        assert analyze(problem, config) == amgu2(REDUNDANT, x, z)

    def test_pruned_pipeline(self):
        u4 = VariableUniverse.of_names(["u", "v", "x", "y"])
        state = SharingTriple.from_names(u4, [("x",), ("y",), ("u",), ("v",)])
        formula = parse_formula("x | y", u4)
        eqs = (
            Equation(x, Compound("f", (Variable("u"), Variable("v")))),
            Equation(x, y),
        )
        problem = AnalysisProblem(u4, state, formula, eqs)
        result = analyze(problem, AmguConfig(algorithm=AlgorithmId.AMGU3))
        assert result.groups == (0,)
        assert result.free == 0
        assert result.linear == u4.full_mask

    def test_ground_first_order(self):
        state = SharingTriple.from_names(XYZ, [("x", "y"), ("z",)], linear=("x", "y", "z"))
        eqs = (Equation(x, y), Equation(z, Compound("a")))
        config = AmguConfig(order="ground-first", early_prune=False, algorithm=AlgorithmId.AMGU1)
        reordered = fold_equations(state, eqs, config)
        manual = fold_equations(
            state, (eqs[1], eqs[0]), AmguConfig(early_prune=False, algorithm=AlgorithmId.AMGU1)
        )
        assert reordered == manual

    def test_decomposed_in_pipeline(self):
        problem = AnalysisProblem(XYZ, REDUNDANT, None, (Equation(x, z),))
        config = AmguConfig(algorithm=AlgorithmId.DECOMPOSED, early_prune=False)
        assert analyze(problem, config) == decomposed_reference(REDUNDANT, x, z)

    def test_abstract_layer_never_fails_on_ground_clash(self):
        # the abstract step has no failure case; only the oracle detects it
        state = SharingTriple.from_names(XYZ, [("x",)])
        eqs = (Equation(Compound("a"), Compound("b")),)
        problem = AnalysisProblem(XYZ, state, None, eqs)
        result = analyze(problem, AmguConfig())
        assert 0 in result.groups

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            AnalysisProblem(XYZ, REDUNDANT, None, (Equation(x, Variable("q")),))
        other = VariableUniverse.of_names(["p"])
        with pytest.raises(ValueError):
            AnalysisProblem(other, REDUNDANT, None, ())


class TestRationalCases:
    def test_cyclic_binding_stays_sound(self):
        xy = VariableUniverse.of_names(["x", "y"])
        state = SharingTriple.from_names(xy, [("x",), ("y",)], free=("x", "y"))
        system = [Equation(x, f(x, y))]
        for step in (amgu1, amgu2, amgu3):
            assert describes(step(state, x, f(x, y)), system)

    def test_free_sharing_pair_against_compound(self):
        state = SharingTriple.from_names(
            XYZ, [("x", "y"), ("z",)], free=("x", "y", "z")
        )
        base = (Equation(x, y),)
        eq = Equation(x, f(y, z))
        for step in (amgu1, amgu2, amgu3):
            assert describes(step(state, eq.lhs, eq.rhs), base + (eq,))
        assert describes(decomposed_reference(state, eq.lhs, eq.rhs), base + (eq,))

    def test_mutual_recursion_grounds_both(self):
        xy = VariableUniverse.of_names(["x", "y"])
        state = SharingTriple.from_names(xy, [("x",), ("y",)], free=("x", "y"))
        eqs = (Equation(x, f(y)), Equation(y, Compound("g", (x,))))
        problem = AnalysisProblem(xy, state, None, eqs)
        for algo in AlgorithmId:
            result = analyze(problem, AmguConfig(algorithm=algo, early_prune=False))
            assert describes(result, eqs)
