"""Acceptance suite: the thirteen exit criteria for this artifact.

Golden tests pin exact set equalities from the worked examples. Where a
printed value contradicts the defining equations (criteria 1 and 6), the
suite pins the value the definitions give and says why. The fuzz criteria
run the seeded oracle harness at the stated sizes. Each test prints one
``ACCEPTANCE n: PASS/FAIL`` line.
"""

import pytest

from sharelin.amgu import (
    AlgorithmId,
    AmguConfig,
    AnalysisProblem,
    amgu1,
    amgu2,
    amgu3,
    analyze,
    decomposed_reference,
)
from sharelin.concrete import (
    RationalSolvedForm,
    binding_multiplicity,
    describes,
    is_free,
    reachable_vars,
    sharing_abstraction,
    unify,
)
from sharelin.fuzz import FuzzLimits, run_trials
from sharelin.groundness import conjoin, entailed_ground, equation_groundness, parse_formula, trim
from sharelin.sharing import (
    SharingTriple,
    freeness_decomposition,
    pairwise_union,
    relevant,
    union_closure,
)
from sharelin.terms import Compound, Equation, Variable, VariableUniverse
from test_kernels import coincidence_trials

u, v, w, x, y, z = (Variable(n) for n in "uvwxyz")
XYZ = VariableUniverse.of_names(["x", "y", "z"])


def f(*args):
    return Compound("f", args)


def groups(universe, *names):
    return tuple(sorted(universe.mask_of(Variable(c) for c in n) for n in names))


def mask(universe, names):
    return universe.mask_of(Variable(c) for c in names)


def triple(universe, group_names, free="", linear=""):
    return SharingTriple.make(
        universe, groups(universe, *group_names), mask(universe, free), mask(universe, linear)
    )


def report(n, ok, note=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}{' - ' + note if note else ''}")


FUZZ_LIMITS = FuzzLimits(max_vars=5, max_depth=3, max_eqs=3, file_bound=8)


@pytest.fixture(scope="module")
def fuzz_report():
    return run_trials(seed=42, trials=1000, limits=FUZZ_LIMITS)


def test_01_independence_recovered_ten_groups_linearity_from_update_rule():
    u6 = VariableUniverse.of_names(["u", "v", "w", "x", "y", "z"])
    state = triple(
        u6, ["uw", "vw", "xy", "xz", "wx"], linear="uvwxyz"
    )
    result = amgu1(state, w, x)
    assert result.groups == groups(
        u6, "", "wx", "uwx", "vwx", "wxy", "wxz", "uwxy", "uwxz", "vwxy", "vwxz"
    )
    assert result.free == 0
    uv, yz = mask(u6, "uv"), mask(u6, "yz")
    assert all(g & uv != uv for g in result.groups)  # u, v stay independent
    assert all(g & yz != yz for g in result.groups)  # y, z stay independent
    # the worked example prints an empty linear set; the linearity update
    # rule evaluates to {u,v,y,z} on these inputs, which is what we pin
    assert result.linear == mask(u6, "uvyz")
    report(1, True, "ten groups, independence kept, derived linear set")


def test_02_intersection_of_single_closures_and_oracle_confirmation():
    u4 = VariableUniverse.of_names(["w", "x", "y", "z"])
    state = triple(u4, ["wx", "wy", "wz"], linear="wxyz")
    rel_s = relevant(state.groups, mask(u4, "w"))
    rel_t = relevant(state.groups, u4.term_mask(f(z, x, y)))
    combined = set(pairwise_union(union_closure(rel_s), rel_t)) & set(
        pairwise_union(rel_s, union_closure(rel_t))
    )
    assert combined == set(
        groups(u4, "wx", "wy", "wz", "wxy", "wxz", "wyz", "wxyz")
    )
    result = amgu1(state, w, f(z, x, y))
    system = (Equation(w, f(x, y, z)), Equation(w, f(z, x, y)))
    assert describes(result, system)
    # and the solved form is exactly the printed one, up to renaming
    printed = RationalSolvedForm.of({w: f(z, z, z), x: z, y: z})
    solved = unify(system).solved_form
    assert sharing_abstraction(solved, u4) == sharing_abstraction(printed, u4)
    assert all(is_free(solved, q) == is_free(printed, q) for q in u4)
    assert all(
        binding_multiplicity(solved, q) == binding_multiplicity(printed, q) for q in u4
    )
    report(2, True, "seven-group region and oracle membership")


def test_03_guarded_operations_beat_plain_ones_on_shared_free_variable():
    state = triple(XYZ, ["xy", "yz"], free="y", linear="y")
    assert amgu1(state, x, z) == triple(XYZ, ["", "xyz"])
    assert amgu2(state, x, z) == triple(XYZ, [""], linear="xyz")
    report(3, True, "amgu1 vs amgu2 exact values")


def test_04_decomposition_blocks_and_reference_precision():
    state = triple(XYZ, ["x", "z", "xy", "yz"], free="xyz", linear="xyz")
    result2 = amgu2(state, x, z)
    assert result2.groups == groups(XYZ, "", "xz", "xyz")
    blocks = {frozenset(b) for b in freeness_decomposition(
        state.groups, state.free, max_groups=AmguConfig.file_bound
    )}
    assert blocks == {
        frozenset(groups(XYZ, "x", "yz")),
        frozenset(groups(XYZ, "", "x", "yz")),
        frozenset(groups(XYZ, "xy", "z")),
        frozenset(groups(XYZ, "", "xy", "z")),
    }
    reference = decomposed_reference(state, x, z)
    assert reference.groups == groups(XYZ, "", "xyz")
    assert set(reference.groups) < set(result2.groups)
    report(4, True, "four blocks; reference strictly sharper than amgu2")


def test_05_groundness_trim_beats_decomposition():
    state = triple(XYZ, ["xy", "y", "z"], free="xy", linear="xy")
    result3 = amgu3(state, x, f(y, z))
    assert result3 == triple(XYZ, ["", "xyz"])
    reference = decomposed_reference(state, x, f(y, z))
    assert reference.groups == groups(XYZ, "", "xy", "xyz")
    assert set(result3.groups) < set(reference.groups)
    report(5, True, "per-group trim strictly sharper than the reference")


def test_06_published_values_for_variable_pair_with_shared_free_variable():
    # Here y is free, so it is bound to at most one variable V, and V's
    # occurrence group is the only group that contains y. No substitution the
    # state describes has both {x,y} and {y,z}: z is ground or x is, and after
    # x = z everything is ground. The witnesses below cover those shapes; the
    # union of their abstractions after x = z is the least sound result, and
    # the guarded steps must reach it exactly.
    state = triple(XYZ, ["xy", "yz"], free="y", linear="y")
    a = Compound("a", ())
    witnesses = (
        # x shares y's free variable, z is ground
        (Equation(x, y), Equation(z, a)),
        (Equation(x, f(y)), Equation(z, f(a))),
        # z shares y's free variable, x is ground
        (Equation(z, y), Equation(x, a)),
        (Equation(z, f(y)), Equation(x, f(a))),
        # y is bound through a variable outside X to what x = z makes ground
        (Equation(y, w), Equation(x, f(w, w)), Equation(z, f(a, a))),
    )
    exact_groups, exact_free, exact_linear = {0}, XYZ.full_mask, XYZ.full_mask
    for e0 in witnesses:
        assert describes(state, e0)
        outcome = unify((*e0, Equation(x, z)))
        assert outcome.success
        rsf = outcome.solved_form
        exact_groups.update(sharing_abstraction(rsf, XYZ))
        exact_free &= XYZ.mask_of(q for q in XYZ if is_free(rsf, q))
        exact_linear &= XYZ.mask_of(q for q in XYZ if binding_multiplicity(rsf, q) <= 1)
    exact = SharingTriple.make(XYZ, exact_groups, exact_free, exact_linear)

    result2 = amgu2(state, x, z)
    result3 = amgu3(state, x, z)
    reference = decomposed_reference(state, x, z)
    # The published account prints the unguarded step's value for this input:
    # sound, but strictly coarser than the exact one.
    published = triple(XYZ, ["", "xyz"])
    try:
        assert result3 == result2  # both sides are plain variables
        assert reference == triple(XYZ, [""], linear="xyz")
        assert result2 == exact and reference == exact
        assert amgu1(state, x, z) == published
        assert set(exact.groups) < set(published.groups)
        assert published.free & ~exact.free == 0
        assert published.linear & ~exact.linear == 0
    except AssertionError:
        report(6, False, "guarded steps not exact on a shared free variable")
        raise
    report(6, True, "guarded steps exact; published triple is amgu1's")


def test_07_early_pruning_collapses_the_state():
    u4 = VariableUniverse.of_names(["u", "v", "x", "y"])
    state = triple(u4, ["x", "y", "u", "v"])
    base = parse_formula("x | y", u4)
    eqs = (Equation(x, f(u, v)), Equation(x, y))
    strengthened = conjoin(
        base, conjoin(equation_groundness(eqs[0], u4), equation_groundness(eqs[1], u4))
    )
    assert strengthened == parse_formula("x & y & u & v", u4)
    assert entailed_ground(strengthened) == u4.full_mask
    assert trim(strengthened, state.groups) == (0,)
    problem = AnalysisProblem(u4, state, base, eqs)
    result = analyze(problem, AmguConfig(algorithm=AlgorithmId.AMGU3))
    assert result.groups == (0,)
    report(7, True, "strengthened formula grounds everything; one group left")


def test_08_soundness_fuzz(fuzz_report):
    relevant_violations = [
        vi
        for vi in fuzz_report.violations
        if "soundness" in vi.prop or vi.prop.startswith("analysis[") or "invariants" in vi.prop
    ]
    assert fuzz_report.checked >= 1000
    assert fuzz_report.stats.get("analysis-satisfiable", 0) > 0
    assert relevant_violations == []
    report(8, True, f"{fuzz_report.checked} instances, no soundness violations")


def test_09_precision_chain_fuzz(fuzz_report):
    chain = [
        vi
        for vi in fuzz_report.violations
        if vi.prop in ("precision-chain", "decomposed-within-amgu2")
    ]
    assert fuzz_report.stats.get("decomposed-checked", 0) > 0
    assert chain == []
    report(9, True, "amgu3 within amgu2 within amgu1; reference within amgu2")


def test_10_occurrence_complements_are_groundness_models(fuzz_report):
    bad = [
        vi
        for vi in fuzz_report.violations
        if vi.prop == "occurrence-complements-are-groundness-models"
    ]
    assert fuzz_report.checked >= 1000
    assert bad == []
    report(10, True, "model containment held on every solved form")


def test_11_independence_identity(fuzz_report):
    hits = fuzz_report.stats.get("independence-checked", 0)
    bad = [vi for vi in fuzz_report.violations if vi.prop == "independence-identity"]
    assert hits > 0, "corpus never exercised the independence case"
    assert bad == []
    report(11, True, f"identity held on all {hits} independent-linear instances")


def test_12_guarded_operations_coincide_inside_blocks():
    result = coincidence_trials(seed=7, target_blocks=500)
    assert result.checked >= 500
    assert result.violations == []
    report(12, True, f"{result.checked} blocks checked")


def test_13_rational_tree_regression():
    xy = VariableUniverse.of_names(["x", "y"])
    outcome = unify([Equation(x, f(x, y))])
    assert outcome.success
    rsf = outcome.solved_form
    assert binding_multiplicity(rsf, x) == 2
    assert reachable_vars(rsf, x) == {y}

    # cyclic self-binding
    state = triple(xy, ["x", "y"], free="xy", linear="xy")
    for step in (amgu1, amgu2, amgu3):
        assert describes(step(state, x, f(x, y)), [Equation(x, f(x, y))])

    # a free, sharing pair bound into a compound
    state3 = triple(XYZ, ["xy", "z"], free="xyz", linear="xyz")
    system = (Equation(x, y), Equation(x, f(y, z)))
    for step in (amgu1, amgu2, amgu3):
        assert describes(step(state3, x, f(y, z)), system)
    assert describes(decomposed_reference(state3, x, f(y, z)), system)

    # mutual recursion through compounds grounds both sides
    state_m = triple(xy, ["x", "y"], free="xy", linear="xy")
    eqs = (Equation(x, f(y)), Equation(y, Compound("g", (x,))))
    problem = AnalysisProblem(xy, state_m, None, eqs)
    for algo in AlgorithmId:
        result = analyze(problem, AmguConfig(algorithm=algo, early_prune=False))
        assert describes(result, eqs)
    report(13, True, "cyclic bindings analysed soundly by every variant")
