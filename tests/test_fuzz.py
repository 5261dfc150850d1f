"""The randomised harness itself: determinism, detection power, replay."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharelin.amgu as amgu_mod
import sharelin.concrete as concrete_mod
import sharelin.fuzz as fuzz_mod
from sharelin.amgu import (
    AlgorithmId,
    AmguConfig,
    AnalysisProblem,
    amgu1,
    amgu2,
    amgu3,
    early_prune,
    fold_compiled,
)
from sharelin.concrete import (
    binding_multiplicity,
    describes,
    is_free,
    sharing_abstraction,
    solved_form_masks,
    unify,
)
from sharelin.fuzz import (
    MAX_PERMUTATIONS,
    FuzzLimits,
    Instance,
    check_instance,
    exact_abstraction,
    generate_instance,
    replay,
    replay_text,
    run_trials,
)
from sharelin.sharing import SharingTriple
from sharelin.terms import Compound, Equation, Variable, VariableUniverse

w, x, y, z = (Variable(n) for n in "wxyz")

# an instance where omitting the closure loses a required sharing group
NEEDS_CLOSURE = Instance(
    VariableUniverse.of_names(["w", "x", "y", "z"]),
    (Equation(w, Compound("f", (x, y, z))),),
    (Equation(w, Compound("f", (z, x, y))),),
)


# instances whose folds reach two states that differ only in their free
# or only in their linear mask, so a step memo keyed without that mask
# returns a wrong result. From {x} {y}, both free, `y = x` joins the groups
# and keeps both free, while `x = f(y)` joins them and binds x; both states
# are linear. After `y = f(z)` every variable is linear, and `z = z` then
# drops y's linearity, since y shares with z on both sides.
FREE_ONLY_DIFFERS = Instance(
    VariableUniverse.of_names(["x", "y"]),
    (),
    (Equation(y, x), Equation(y, x), Equation(x, Compound("f", (y,)))),
)
LINEAR_ONLY_DIFFERS = Instance(
    VariableUniverse.of_names(["x", "y", "z"]),
    (),
    (
        Equation(y, Compound("f", (z,))),
        Equation(z, z),
        Equation(y, Compound("h", (z, Compound("g", (x, Compound("f", (z,)))), Compound("a")))),
    ),
)


def test_healthy_build_has_no_violations():
    report = run_trials(seed=42, trials=150, limits=FuzzLimits(max_vars=4))
    assert not report.violations
    assert report.checked == 150


def test_trials_zero_is_vacuous():
    assert not run_trials(seed=1, trials=0).violations


def test_generation_is_deterministic():
    limits = FuzzLimits()
    a = [generate_instance(random.Random(7), limits) for _ in range(20)]
    b = [generate_instance(random.Random(7), limits) for _ in range(20)]
    assert a == b


def test_broken_closure_is_detected(monkeypatch):
    assert check_instance(NEEDS_CLOSURE, FuzzLimits()) == []
    monkeypatch.setattr(
        amgu_mod, "union_closure", lambda groups, guard=0: tuple(sorted(set(groups)))
    )
    violations = check_instance(NEEDS_CLOSURE, FuzzLimits())
    assert any("soundness" in v.prop for v in violations)


def test_multiplicity_always_one_is_detected(monkeypatch):
    # every side linear: closures are skipped and linearity is kept where
    # a repeated or aliased variable should drop it
    monkeypatch.setattr(amgu_mod, "mask_multiplicity", lambda *args: 1)
    report = run_trials(seed=42, trials=50)
    assert any(v.prop.endswith("soundness") for v in report.violations)


def test_freeness_never_removed_is_detected(monkeypatch):
    amgu_raw = amgu_mod._amgu_raw

    def keeps_free(universe, groups, free, linear, *rest):
        new_groups, _, new_linear = amgu_raw(universe, groups, free, linear, *rest)
        return new_groups, free, new_linear

    monkeypatch.setattr(amgu_mod, "_amgu_raw", keeps_free)
    report = run_trials(seed=42, trials=50)
    assert any(v.prop.endswith("soundness") for v in report.violations)


def test_oracle_prunes_each_instance_once(monkeypatch):
    early_prune = amgu_mod.early_prune
    calls = []

    def counting(*args):
        calls.append(args)
        return early_prune(*args)

    # count the calls made through either module's name, including those
    # inside amgu.analyze
    monkeypatch.setattr(fuzz_mod, "early_prune", counting)
    monkeypatch.setattr(amgu_mod, "early_prune", counting)
    rng = random.Random(5)
    instances = [generate_instance(rng, FuzzLimits()) for _ in range(20)]
    for instance in instances:
        check_instance(instance, FuzzLimits())
    assert len(calls) == len(instances)


def test_oracle_unifies_each_system_once(monkeypatch):
    calls = {"_solve": 0, "_class_masks": 0}

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    # every solve and every class-path fixpoint passes through these names
    monkeypatch.setattr(concrete_mod, "_solve", counting("_solve", concrete_mod._solve))
    monkeypatch.setattr(
        concrete_mod, "_class_masks", counting("_class_masks", concrete_mod._class_masks)
    )
    rng = random.Random(5)
    instances = [generate_instance(rng, FuzzLimits()) for _ in range(20)]
    # a drawn base that clashes runs no fixpoint, so generation runs one,
    # on the base that the instance keeps
    assert calls["_class_masks"] == len(instances)
    several = [len(i.equations) >= 2 for i in instances]
    step_sat = [unify(i.base + i.equations[:1]).success for i in instances]
    full_sat = [unify(i.base + i.equations).success for i in instances]
    solved = calls["_solve"]
    for instance in instances:
        check_instance(instance, FuzzLimits())
    # the full system is solved by check_instance, the step system only
    # when it differs from the full one (two or more equations), and the
    # shuffled one when the full one unifies
    assert calls["_solve"] - solved == sum(1 + m + f for m, f in zip(several, full_sat))
    # one fixpoint per satisfiable system: the base, the step (when it is
    # not the full one), the full and the shuffled one
    assert calls["_class_masks"] == sum(
        1 + (m and s) + 2 * f for m, s, f in zip(several, step_sat, full_sat)
    )
    # the instances include one-equation systems, so the counts are tighter
    assert not all(several)


@pytest.mark.parametrize("limits", [FuzzLimits(), FuzzLimits(max_vars=6, max_eqs=4)])
def test_memoized_steps_match_unmemoized_calls(monkeypatch, limits):
    """Every result the battery checks, read off ``_result_invariants`` in
    order, equals the same call made without the step memo: the untraded
    single-step calls on the terms, then ``fold_compiled`` for each
    algorithm, pruning off and on, and each equation order."""
    checked = []
    invariants = fuzz_mod._result_invariants

    def recording(result):
        checked.append(result)
        return invariants(result)

    monkeypatch.setattr(fuzz_mod, "_result_invariants", recording)
    rng = random.Random(11)
    drawn = [generate_instance(rng, limits) for _ in range(60)]
    for instance in (*drawn, FREE_ONLY_DIFFERS, LINEAR_ONLY_DIFFERS):
        checked.clear()
        assert check_instance(instance, limits) == []
        universe, equations = instance.universe, instance.equations
        _, triple0, formula0 = exact_abstraction(universe, instance.base)
        s, t = equations[0].lhs, equations[0].rhs
        expected = [fn(triple0, s, t) for fn in (amgu1, amgu2, amgu3)]
        orders = itertools.islice(itertools.permutations(equations), MAX_PERMUTATIONS)
        problems = [AnalysisProblem(universe, triple0, formula0, order) for order in orders]
        pruned = early_prune(formula0, equations, triple0)
        for algo in (AlgorithmId.AMGU1, AlgorithmId.AMGU2, AlgorithmId.AMGU3):
            config = AmguConfig(algorithm=algo)
            for start in (triple0, pruned):
                expected += [fold_compiled(start, p.compiled, config) for p in problems]
        assert checked == expected


# _amgu calls of run_trials(seed=42, trials=100) at default limits; before
# the step memo every single-step call and every fold step ran, 5022 calls
MEMO_AMGU_CALLS = 1463


def test_oracle_runs_each_distinct_step_once(monkeypatch):
    rng = random.Random(42)
    instances = [generate_instance(rng, FuzzLimits()) for _ in range(100)]
    # without the memo: three untraded and three traded single-step calls,
    # and one call per equation in each fold (three algorithms, pruning off
    # and on, each order)
    unmemoized = sum(
        6 + 6 * n * min(MAX_PERMUTATIONS, math.factorial(n))
        for n in (len(i.equations) for i in instances)
    )
    assert unmemoized == 5022
    amgu = amgu_mod._amgu
    calls = []

    def counting(*args):
        calls.append(args)
        return amgu(*args)

    monkeypatch.setattr(amgu_mod, "_amgu", counting)
    assert not run_trials(seed=42, trials=100).violations
    assert len(calls) == MEMO_AMGU_CALLS
    assert unmemoized >= 2 * len(calls)


def test_replay_abstracts_each_system_once(monkeypatch):
    text = replay_text(NEEDS_CLOSURE, NEEDS_CLOSURE.equations)
    class_masks = concrete_mod._class_masks
    calls = []

    def counting(*args):
        calls.append(args)
        return class_masks(*args)

    monkeypatch.setattr(concrete_mod, "_class_masks", counting)
    assert replay(text) == []
    # one fixpoint per satisfiable system: the base, read once for the
    # stale-state checks and the battery, the full (with one equation, also
    # the step) and the shuffled one
    assert len(NEEDS_CLOSURE.equations) == 1
    assert len(calls) == 3


def per_variable_describes(triple, equations):
    """``describes`` before solved forms were abstracted to masks, verbatim:
    one ``is_free`` or ``binding_multiplicity`` query per claimed variable."""
    outcome = unify(equations)
    if not outcome.success:
        return False
    rsf = outcome.solved_form
    universe = triple.universe
    if not set(sharing_abstraction(rsf, universe)) <= set(triple.groups):
        return False
    for v in universe.vars_of_mask(triple.free):
        if not is_free(rsf, v):
            return False
    for v in universe.vars_of_mask(triple.linear):
        if binding_multiplicity(rsf, v) > 1:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_mask_predicate_matches_describes(seed, data):
    """For the systems the oracle draws and triples widened or narrowed from
    the exact one, the mask comparison decides like ``describes``."""
    instance = generate_instance(random.Random(seed), FuzzLimits(max_vars=5))
    universe = instance.universe
    _, exact, _ = exact_abstraction(universe, instance.base)
    full = universe.full_mask
    masks = st.just(0) | st.integers(0, full)
    groups = set(exact.groups)
    groups |= set(data.draw(st.lists(st.integers(0, full), max_size=3), label="added groups"))
    groups -= set(data.draw(st.lists(st.sampled_from(sorted(groups)), max_size=2), label="dropped"))
    free = (exact.free | data.draw(masks, label="added free")) & ~data.draw(masks, label="dropped free")
    linear = (exact.linear | data.draw(masks, label="added lin")) & ~data.draw(masks, label="dropped lin")
    triple = SharingTriple.make(universe, groups, free, linear)
    for system in (instance.base, instance.base + instance.equations):
        expected = per_variable_describes(triple, system)
        assert describes(triple, system) == expected
        rsf = unify(system).solved_form
        if rsf is not None:
            assert solved_form_masks(rsf, universe).described_by(triple) == expected


def oracle_digest(limits: FuzzLimits) -> tuple[str, int]:
    """The first 16 hex digits of a sha256 over seeds 0-299 of
    ``run_trials(seed, 5, limits)``, each seed's rendered violations then
    its sorted stats, and the number of violations."""
    digest = hashlib.sha256()
    violations = 0
    for seed in range(300):
        report = run_trials(seed, 5, limits)
        violations += len(report.violations)
        rendered = "".join(v.render() for v in report.violations)
        digest.update((rendered + repr(sorted(report.stats.items()))).encode())
    return digest.hexdigest()[:16], violations


@pytest.mark.parametrize(
    "limits, broken, expected",
    [
        (FuzzLimits(), False, ("4fc0ace21fbb5afb", 0)),
        (FuzzLimits(max_vars=6, max_eqs=4), False, ("c3dacd92917e9310", 0)),
        (FuzzLimits(), True, ("86b5ce265c043f0e", 74)),
    ],
    ids=["default", "wide", "broken-closure"],
)
def test_oracle_verdicts_and_stats_are_pinned(monkeypatch, limits, broken, expected):
    """Every verdict and stat of 300 short oracle runs is pinned, and with
    the closure broken so are the rendered counterexamples: a change to the
    oracle or the steps that keeps every result keeps these digests."""
    if broken:
        monkeypatch.setattr(
            amgu_mod, "union_closure", lambda groups, guard=0: tuple(sorted(set(groups)))
        )
    assert oracle_digest(limits) == expected


def test_counterexample_replays_and_reproduces(monkeypatch):
    monkeypatch.setattr(
        amgu_mod, "union_closure", lambda groups, guard=0: tuple(sorted(set(groups)))
    )
    violations = check_instance(NEEDS_CLOSURE, FuzzLimits())
    assert violations
    text = violations[0].render()
    # still broken: the recorded file reproduces the failure
    again = replay(text)
    assert any("soundness" in v.prop for v in again)
    monkeypatch.undo()
    # fixed build: the same file comes back clean
    assert replay(text) == []


def test_replay_flags_stale_state():
    report_violations = check_instance(NEEDS_CLOSURE, FuzzLimits())
    assert report_violations == []
    text = replay_text(NEEDS_CLOSURE, NEEDS_CLOSURE.equations)
    tampered = text.replace("sharing {} {w,x} {w,y} {w,z}", "sharing {} {w,x}")
    flagged = replay(tampered)
    assert any(v.prop == "replay-state-mismatch" for v in flagged)


def test_stats_record_conditional_coverage():
    report = run_trials(seed=42, trials=200, limits=FuzzLimits(max_vars=4))
    assert report.stats.get("decomposed-checked", 0) > 0
    assert report.stats.get("independence-checked", 0) > 0
    assert report.stats.get("analysis-satisfiable", 0) > 0
