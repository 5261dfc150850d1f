"""The concrete oracle: unification, reachability, abstraction queries."""

import os
import random
import subprocess
import sys
from collections import deque
from typing import Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sharelin
from sharelin.concrete import (
    RationalSolvedForm,
    SolvedFormMasks,
    UnifyOutcome,
    _groups,
    _solve,
    binding_multiplicity,
    describes,
    groundness_abstraction,
    is_free,
    occurrence_set,
    reachable_vars,
    sharing_abstraction,
    solved_form_masks,
    system_masks,
    unify,
)
from sharelin.fuzz import FuzzLimits, generate_instance
from sharelin.groundness import (
    MAX_FORMULA_VARS,
    PosFormula,
    UniverseTooLargeError,
    parse_formula,
    truth,
)
from sharelin.sharing import SharingTriple, group_vars
from sharelin.terms import (
    Compound,
    Equation,
    Term,
    Variable,
    VariableUniverse,
    bit_positions,
    variable_counts,
)

w, x, y, z = (Variable(n) for n in "wxyz")
WXYZ = VariableUniverse.of_names(["w", "x", "y", "z"])
XY = VariableUniverse.of_names(["x", "y"])


def table_of(universe, models):
    """The formula whose models are ``models``, held as a truth table."""
    return PosFormula(universe, table=sum(1 << m for m in set(models)))


def f(*args):
    return Compound("f", args)


def g_(*args):
    return Compound("g", args)


# the solved form printed in the three-binding worked example
THETA = RationalSolvedForm.of({w: f(z, z, z), x: z, y: z})


def groups(universe, *names):
    return tuple(sorted(universe.mask_of(Variable(c) for c in n) for n in names))


class TestUnify:
    def test_collapses_to_single_leaf(self):
        outcome = unify([Equation(w, f(x, y, z)), Equation(w, f(z, x, y))])
        assert outcome.success
        rsf = outcome.solved_form
        # semantically the printed solved form, up to representative choice
        assert sharing_abstraction(rsf, WXYZ) == sharing_abstraction(THETA, WXYZ)
        assert groundness_abstraction(rsf, WXYZ) == groundness_abstraction(THETA, WXYZ)
        for v in WXYZ:
            assert is_free(rsf, v) == is_free(THETA, v)
            assert binding_multiplicity(rsf, v) == binding_multiplicity(THETA, v)

    def test_no_occurs_check(self):
        outcome = unify([Equation(x, f(x))])
        assert outcome.success
        assert not is_free(outcome.solved_form, x)

    def test_functor_clash(self):
        assert not unify([Equation(f(x), g_(x))]).success

    def test_arity_clash(self):
        assert not unify([Equation(f(x), f(x, y))]).success

    def test_deep_clash_through_bindings(self):
        assert not unify([Equation(x, f(y)), Equation(x, f(g_(y))), Equation(y, Compound("a"))]).success

    def test_empty_system(self):
        outcome = unify([])
        assert outcome.success and outcome.solved_form.bindings == ()

    def test_order_insensitive(self):
        eqs = [Equation(w, f(x, y, z)), Equation(w, f(z, x, y)), Equation(x, g_(y))]
        rng = random.Random(5)
        outcome = unify(eqs)
        for _ in range(5):
            rng.shuffle(eqs)
            other = unify(eqs)
            assert other.success == outcome.success
            if not outcome.success:
                continue
            assert sharing_abstraction(other.solved_form, WXYZ) == sharing_abstraction(
                outcome.solved_form, WXYZ
            )


class TestReachability:
    def test_one_step(self):
        rsf = RationalSolvedForm.of({x: f(y, z)})
        assert reachable_vars(rsf, x) == {y, z}

    def test_through_cycle(self):
        rsf = RationalSolvedForm.of({x: f(x, y)})
        assert reachable_vars(rsf, x) == {y}

    def test_printed_solved_form(self):
        assert reachable_vars(THETA, w) == {z}


class TestOccurrence:
    def test_shared_leaf(self):
        assert occurrence_set(THETA, z, WXYZ) == {w, x, y, z}

    def test_unbound_variable(self):
        rsf = RationalSolvedForm.of({})
        assert occurrence_set(rsf, x, XY) == {x}

    def test_ground_binding(self):
        rsf = RationalSolvedForm.of({x: Compound("a")})
        assert occurrence_set(rsf, x, XY) == frozenset()


class TestSharingAbstraction:
    def test_printed_solved_form(self):
        assert sharing_abstraction(THETA, WXYZ) == groups(WXYZ, "", "wxyz")

    def test_identity(self):
        assert sharing_abstraction(RationalSolvedForm.of({}), XY) == groups(XY, "", "x", "y")

    def test_duplicated_leaf(self):
        rsf = RationalSolvedForm.of({x: f(y, y)})
        assert sharing_abstraction(rsf, XY) == groups(XY, "", "xy")


class TestGroundnessAbstraction:
    def test_single_binding(self):
        u = VariableUniverse.of_names(["x", "y", "z"])
        rsf = RationalSolvedForm.of({x: f(y, z)})
        assert groundness_abstraction(rsf, u) == parse_formula("x <-> (y & z)", u)

    def test_identity_is_truth(self):
        assert groundness_abstraction(RationalSolvedForm.of({}), XY) == truth(XY)

    def test_printed_solved_form(self):
        expected = parse_formula("(w <-> z) & (x <-> z) & (y <-> z)", WXYZ)
        assert groundness_abstraction(THETA, WXYZ) == expected


# The graph walks that the leaf-mask fixpoint replaced, verbatim but for
# their names: a reachability DFS per variable, and the five-pass walk count.
def walked_reachable_vars(rsf: RationalSolvedForm, v: Variable) -> frozenset[Variable]:
    """Free variables of the unfolded binding of ``v`` (graph reachability)."""
    out: set[Variable] = set()
    seen: set[Variable] = set()
    stack = [v]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        t = rsf.binding(u)
        if t is None:
            out.add(u)
        else:
            stack.extend(variable_counts(t))
    return frozenset(out)


def walked_sharing_abstraction(
    rsf: RationalSolvedForm, universe: VariableUniverse
) -> tuple[int, ...]:
    """All occurrence groups of the solved form, as masks; the empty group is
    always present (witnessed by any variable the universe never reaches)."""
    reach = {x: walked_reachable_vars(rsf, x) for x in universe}
    groups = {0}
    for leaf in frozenset().union(*reach.values()) if reach else ():
        groups.add(universe.mask_of(x for x in universe if leaf in reach[x]))
    return tuple(sorted(groups))


def walked_out_edges(rsf: RationalSolvedForm) -> dict[Variable, list[tuple[Variable, int]]]:
    return {
        v: [(w, min(2, c)) for w, c in variable_counts(t).items()] for v, t in rsf.bindings
    }


def walked_multiplicity(
    rsf: RationalSolvedForm, edges: dict[Variable, list[tuple[Variable, int]]], v: Variable
) -> int:
    reach: set[Variable] = set()
    stack = [v]
    while stack:
        u = stack.pop()
        if u in reach:
            continue
        reach.add(u)
        stack.extend(w for w, _ in edges.get(u, ()))

    leaves = {u for u in reach if rsf.binding(u) is None}
    if not leaves:
        return 0

    # restrict to vertices that still lead to a free leaf
    inverse: dict[Variable, list[Variable]] = {}
    for u in reach:
        for w, _ in edges.get(u, ()):
            if w in reach:
                inverse.setdefault(w, []).append(u)
    live: set[Variable] = set()
    stack = list(leaves)
    while stack:
        u = stack.pop()
        if u in live:
            continue
        live.add(u)
        stack.extend(inverse.get(u, ()))

    for u in live:
        seen: set[Variable] = set()
        stack = [w for w, _ in edges.get(u, ()) if w in live]
        while stack:
            w = stack.pop()
            if w == u:
                return 2
            if w in seen:
                continue
            seen.add(w)
            stack.extend(x for x, _ in edges.get(w, ()) if x in live)

    # acyclic from here: count walks to each leaf with saturation
    indeg = {u: 0 for u in live}
    for u in live:
        for w, _ in edges.get(u, ()):
            if w in live:
                indeg[w] += 1
    order: list[Variable] = [u for u in live if indeg[u] == 0]
    queue = deque(order)
    ways = {u: 0 for u in live}
    ways[v] = 1
    while queue:
        u = queue.popleft()
        for w, c in edges.get(u, ()):
            if w not in live:
                continue
            ways[w] = min(2, ways[w] + ways[u] * c)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return max(ways[leaf] for leaf in leaves)


def _walked_groundness_clauses(rsf, universe):
    """The clauses the walks gave, or ``None`` for a leaf outside the universe."""
    try:
        reach = [universe.mask_of(walked_reachable_vars(rsf, x)) for x in universe]
    except ValueError:
        return None
    defs = [(leaves, 1 << i) for i, leaves in enumerate(reach) if leaves != 1 << i]
    return (*defs, *((x, leaves) for leaves, x in defs))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 14), st.integers(0, 4), st.data())
def test_leaf_masks_match_graph_walks(seed, max_vars, max_depth, data):
    # the base system and the whole system of a generated instance, over its
    # universe and over a prefix of it, which leaves some leaves outside
    limits = FuzzLimits(max_vars=max_vars, max_depth=max_depth, max_eqs=4)
    instance = generate_instance(random.Random(seed), limits)
    variables = instance.universe.variables
    k = data.draw(st.integers(1, len(variables)), label="prefix")
    for system in (instance.base, instance.base + instance.equations):
        rsf = unify(system).solved_form
        if rsf is None:
            continue
        edges = walked_out_edges(rsf)
        for v in variables:
            assert reachable_vars(rsf, v) == walked_reachable_vars(rsf, v)
            assert binding_multiplicity(rsf, v) == walked_multiplicity(rsf, edges, v)
        for universe in (instance.universe, VariableUniverse(variables[:k])):
            groups = walked_sharing_abstraction(rsf, universe)
            assert sharing_abstraction(rsf, universe) == groups
            masks = solved_form_masks(rsf, universe)
            assert masks.groups == groups
            assert masks.free == universe.mask_of(v for v in universe if is_free(rsf, v))
            assert masks.linear == universe.mask_of(
                v for v in universe if walked_multiplicity(rsf, edges, v) <= 1
            )
            for leaf in variables:
                assert occurrence_set(rsf, leaf, universe) == frozenset(
                    u for u in universe if leaf in walked_reachable_vars(rsf, u)
                )
            expected = _walked_groundness_clauses(rsf, universe)
            if expected is None:
                assert masks.groundness is None
                with pytest.raises(ValueError, match="is not in the universe"):
                    groundness_abstraction(rsf, universe)
            else:
                assert masks.groundness.clauses == expected
                assert groundness_abstraction(rsf, universe).clauses == expected


# The model enumeration that groundness_abstraction replaced, verbatim.
def enumerated_groundness_abstraction(
    rsf: RationalSolvedForm, universe: VariableUniverse
) -> PosFormula:
    """Groundness dependencies of the solved form over the universe.

    A bound variable is ground exactly when all its reachable free leaves
    are; the models are generated by ranging over leaf assignments, which
    also eliminates any leaf outside the universe.
    """
    reach = {x: walked_reachable_vars(rsf, x) for x in universe}
    leaves = sorted(frozenset().union(*reach.values()) if reach else (), key=lambda v: v.name)
    if len(leaves) > MAX_FORMULA_VARS:
        raise UniverseTooLargeError(
            f"enumerating groundness models over {len(leaves)} free leaves"
        )
    models: set[int] = set()
    for choice in range(1 << len(leaves)):
        true_leaves = {leaf for i, leaf in enumerate(leaves) if choice >> i & 1}
        mask = 0
        for x in universe:
            if rsf.binding(x) is None:
                value = x in true_leaves
            else:
                value = reach[x] <= true_leaves
            if value:
                mask |= universe.bit(x)
        models.add(mask)
    return table_of(universe, models)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 12), st.integers(0, 4))
def test_clause_groundness_matches_enumeration(seed, max_vars, max_depth):
    instance = generate_instance(random.Random(seed), FuzzLimits(max_vars=max_vars, max_depth=max_depth))
    rsf = unify(instance.base).solved_form
    formula = groundness_abstraction(rsf, instance.universe)
    assert formula.clauses is not None
    expected = enumerated_groundness_abstraction(rsf, instance.universe)
    assert formula == expected
    assert formula.models == expected.models


def test_groundness_abstraction_rejects_a_leaf_outside_the_universe():
    with pytest.raises(ValueError, match="'y' is not in the universe"):
        groundness_abstraction(RationalSolvedForm.of({x: f(y)}), VariableUniverse.of_names(["x"]))


OUTSIDE_LEAVES = """
from sharelin.concrete import RationalSolvedForm, groundness_abstraction
from sharelin.groundness import equation_groundness
from sharelin.terms import Compound, Equation, Variable, VariableUniverse

x, *leaves = (Variable(n) for n in "xpqrs")
t = Compound("f", tuple(leaves))
u = VariableUniverse.of_names(["x"])
for check in (
    lambda: groundness_abstraction(RationalSolvedForm.of({x: t}), u),
    lambda: u.term_mask(t),
    lambda: equation_groundness(Equation(x, t), u),
):
    try:
        check()
    except ValueError as exc:
        print(exc)
"""


def test_the_outside_variable_named_does_not_depend_on_the_hash_seed():
    # each check once iterated a frozenset of variables, so the name it
    # raised changed with PYTHONHASHSEED
    src = os.path.dirname(os.path.dirname(sharelin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(4):
        child = subprocess.run(
            [sys.executable, "-c", OUTSIDE_LEAVES], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)), check=True,
        )
        outputs.add(child.stdout)
    assert len(outputs) == 1
    assert outputs.pop().splitlines() == ["variable 's' is not in the universe"] * 3


class TestFreeness:
    def test_variable_chain(self):
        assert is_free(RationalSolvedForm.of({x: y}), x)

    def test_compound(self):
        assert not is_free(RationalSolvedForm.of({x: f(y)}), x)

    def test_unbound(self):
        assert is_free(RationalSolvedForm.of({}), x)


class TestMultiplicity:
    def test_printed_solved_form(self):
        assert binding_multiplicity(THETA, w) == 2
        assert binding_multiplicity(THETA, x) == 1

    def test_cycle_duplicates_leaf(self):
        rsf = RationalSolvedForm.of({x: f(x, y)})
        assert binding_multiplicity(rsf, x) == 2

    def test_ground_cycle(self):
        # unfolds to an infinite tree without variables
        rsf = RationalSolvedForm.of({x: f(x)})
        assert binding_multiplicity(rsf, x) == 0

    def test_ground_binding(self):
        assert binding_multiplicity(RationalSolvedForm.of({x: Compound("a")}), x) == 0

    def test_diamond_multiplies_walks(self):
        rsf = RationalSolvedForm.of({x: f(y, y), y: g_(z)})
        assert binding_multiplicity(rsf, x) == 2
        assert binding_multiplicity(rsf, y) == 1


class TestDescribes:
    def test_worked_example_state(self):
        state = SharingTriple.from_names(
            WXYZ, [("w", "x"), ("w", "y"), ("w", "z")], linear=("w", "x", "y", "z")
        )
        assert describes(state, [Equation(w, f(x, y, z))])

    def test_unsatisfiable_system(self):
        state = SharingTriple.from_names(XY, [("x", "y")])
        assert not describes(state, [Equation(Compound("a"), Compound("b"))])

    def test_missing_group(self):
        state = SharingTriple.from_names(XY, [])
        assert not describes(state, [Equation(x, y)])

    def test_freeness_claim_fails_on_compound(self):
        state = SharingTriple.from_names(XY, [("x", "y")], free=("x",))
        assert not describes(state, [Equation(x, f(y))])

    def test_linearity_claim_fails_on_duplicate(self):
        state = SharingTriple.from_names(XY, [("x", "y")], linear=("x",))
        assert not describes(state, [Equation(x, f(y, y))])


class TestSolvedFormInvariants:
    def test_variable_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            RationalSolvedForm.of({x: y, y: x})

    def test_identity_bindings_dropped(self):
        assert RationalSolvedForm.of({x: x}).bindings == ()

    def test_double_binding_rejected(self):
        with pytest.raises(ValueError, match="bound twice"):
            RationalSolvedForm(((x, y), (x, z)))

    def test_self_compound_cycle_allowed(self):
        rsf = RationalSolvedForm.of({x: f(x)})
        assert rsf.binding(x) == f(x)


def test_random_systems_uphold_oracle_invariants():
    rng = random.Random(9)
    limits = FuzzLimits(max_vars=4)
    for _ in range(150):
        instance = generate_instance(rng, limits)
        universe = instance.universe
        rsf = unify(instance.base).solved_form
        shares = sharing_abstraction(rsf, universe)
        assert 0 in shares
        formula = groundness_abstraction(rsf, universe)
        complements = {universe.full_mask & ~m for m in shares}
        assert complements <= set(formula.models)
        for v in universe:
            mult = binding_multiplicity(rsf, v)
            if is_free(rsf, v):
                assert mult == 1
            assert (mult == 0) == (not reachable_vars(rsf, v))


def deque_unify(equations: Iterable[Equation]) -> UnifyOutcome:
    """``unify`` before it interned terms into flat node lists, verbatim: a
    generator recursion interns each term, the variable table is keyed by
    ``Variable``, and the work queue is a ``deque``.

    Union-find unification over the term graph, without occurs check.

    Cyclic solutions are allowed (rational-tree semantics); the only failure
    is a clash of functors or arities. Each class is represented by its
    earliest-created variable, a choice that is immaterial to every exported
    query.
    """
    parent: list[int] = []
    size: list[int] = []
    node_var: list[Variable | None] = []
    node_fun: list[tuple[str, int] | None] = []
    node_args: list[tuple[int, ...]] = []
    schema: dict[int, int] = {}
    var_ids: dict[Variable, int] = {}

    def new_node(v: Variable | None, fun: tuple[str, int] | None, args: tuple[int, ...]) -> int:
        nid = len(parent)
        parent.append(nid)
        size.append(1)
        node_var.append(v)
        node_fun.append(fun)
        node_args.append(args)
        if fun is not None:
            schema[nid] = nid
        return nid

    def intern(t: Term) -> int:
        if isinstance(t, Variable):
            nid = var_ids.get(t)
            if nid is None:
                nid = new_node(t, None, ())
                var_ids[t] = nid
            return nid
        args = tuple(intern(a) for a in t.args)
        return new_node(None, (t.functor, t.arity), args)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pending: deque[tuple[int, int]] = deque()
    for eq in equations:
        pending.append((intern(eq.lhs), intern(eq.rhs)))

    while pending:
        a, b = pending.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        sa, sb = schema.get(ra), schema.get(rb)
        if sa is not None and sb is not None and node_fun[sa] != node_fun[sb]:
            return UnifyOutcome(None)
        if size[ra] < size[rb]:
            ra, rb = rb, ra
            sa, sb = sb, sa
        parent[rb] = ra
        size[ra] += size[rb]
        schema.pop(rb, None)
        if sa is None:
            if sb is not None:
                schema[ra] = sb
        elif sb is not None:
            pending.extend(zip(node_args[sa], node_args[sb]))

    class_vars: dict[int, list[int]] = {}
    for v, nid in var_ids.items():
        class_vars.setdefault(find(nid), []).append(nid)
    rep: dict[int, Variable] = {
        root: node_var[min(ids)] for root, ids in class_vars.items()
    }

    memo: dict[int, Term] = {}
    rendering: set[int] = set()

    def render_class(root: int) -> Term:
        # Classes without a variable are rendered structurally; every cycle
        # in the class graph passes through a variable class, so this
        # recursion bottoms out (the guard is defensive).
        if root in rep:
            return rep[root]
        if root in memo:
            return memo[root]
        if root in rendering:
            raise RuntimeError("variable-free cycle in the term graph")
        rendering.add(root)
        s = schema[root]
        out = Compound(
            node_fun[s][0], tuple(render_class(find(c)) for c in node_args[s])
        )
        rendering.discard(root)
        memo[root] = out
        return out

    bindings: dict[Variable, Term] = {}
    for root, ids in class_vars.items():
        rep_var = rep[root]
        for nid in ids:
            v = node_var[nid]
            if v != rep_var:
                bindings[v] = rep_var
        s = schema.get(root)
        if s is not None:
            bindings[rep_var] = Compound(
                node_fun[s][0], tuple(render_class(find(c)) for c in node_args[s])
            )
    return UnifyOutcome(RationalSolvedForm.of(bindings))


# terms over four variables; a/0, b/0, f/1, f/2 and g/2 give functor and
# arity clashes
unify_vars = st.sampled_from([w, x, y, z])
unify_terms = st.recursive(
    unify_vars | st.sampled_from([Compound("a"), Compound("b")]),
    lambda inner: st.one_of(
        inner.map(lambda a: f(a)),
        st.tuples(inner, inner).map(lambda a: f(*a)),
        st.tuples(inner, inner).map(lambda a: g_(*a)),
    ),
    max_leaves=6,
)
# a variable chain, possibly closed into a cycle through a compound
chains = st.permutations([w, x, y, z]).flatmap(
    lambda order: st.sampled_from([
        [Equation(a, b) for a, b in zip(order, order[1:])],
        [Equation(a, b) for a, b in zip(order, order[1:])] + [Equation(order[-1], f(order[0]))],
    ])
)
unify_systems = st.one_of(
    st.lists(st.builds(Equation, unify_terms, unify_terms), max_size=5),
    st.lists(st.builds(Equation, unify_vars, unify_terms), max_size=5),
    st.tuples(chains, st.lists(st.builds(Equation, unify_terms, unify_terms), max_size=2)).map(
        lambda parts: parts[0] + parts[1]
    ),
)


@settings(max_examples=500, deadline=None)
@given(unify_systems)
def test_flat_unify_matches_deque_unify(system):
    assert unify(system) == deque_unify(system)


@pytest.mark.parametrize(
    "system, success",
    [
        ([], True),
        ([Equation(x, f(x))], True),
        ([Equation(x, f(x, y)), Equation(y, g_(x, x))], True),
        ([Equation(w, x), Equation(x, y), Equation(y, z)], True),
        ([Equation(w, x), Equation(x, y), Equation(y, z), Equation(z, f(w))], True),
        ([Equation(f(x), g_(x, y))], False),
        ([Equation(f(x), f(x, y))], False),
        ([Equation(Compound("a"), Compound("b"))], False),
        ([Equation(x, f(y)), Equation(x, g_(y, y))], False),
        ([Equation(x, f(x)), Equation(y, f(y)), Equation(x, y)], True),
    ],
    ids=["empty", "cycle", "mutual-cycle", "chain", "chain-cycle", "functor-clash",
         "arity-clash", "constant-clash", "late-clash", "equal-cycles"],
)
def test_flat_unify_matches_deque_unify_examples(system, success):
    outcome = unify(system)
    assert outcome.success == success
    assert outcome == deque_unify(system)


def rsf_unify(equations: Iterable[Equation]) -> UnifyOutcome:
    """``unify`` before its union-find was split out, verbatim.

    Union-find unification over the term graph, without occurs check.

    Cyclic solutions are allowed (rational-tree semantics); the only failure
    is a clash of functors or arities. Each class is represented by its
    earliest-created variable, a choice that is immaterial to every exported
    query.
    """
    # one entry per node, in creation order: a variable node holds its
    # variable, a functor node its (name, arity) and its arguments' nodes
    node_var: list[Variable | None] = []
    node_fun: list[tuple[str, int] | None] = []
    node_args: list[tuple[int, ...]] = []
    var_ids: dict[str, int] = {}

    def intern(t: Term) -> int:
        if isinstance(t, Variable):
            nid = var_ids.get(t.name)
            if nid is None:
                nid = var_ids[t.name] = len(node_var)
                node_var.append(t)
                node_fun.append(None)
                node_args.append(())
            return nid
        args = tuple([intern(a) for a in t.args])
        nid = len(node_var)
        node_var.append(None)
        node_fun.append((t.functor, len(args)))
        node_args.append(args)
        return nid

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # a FIFO of node pairs to merge, walked by index
    pending = [(intern(eq.lhs), intern(eq.rhs)) for eq in equations]
    parent = list(range(len(node_var)))
    size = [1] * len(node_var)
    schema = {nid: nid for nid, fun in enumerate(node_fun) if fun is not None}

    next_pair = 0
    while next_pair < len(pending):
        a, b = pending[next_pair]
        next_pair += 1
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        sa, sb = schema.get(ra), schema.get(rb)
        if sa is not None and sb is not None and node_fun[sa] != node_fun[sb]:
            return UnifyOutcome(None)
        if size[ra] < size[rb]:
            ra, rb = rb, ra
            sa, sb = sb, sa
        parent[rb] = ra
        size[ra] += size[rb]
        schema.pop(rb, None)
        if sa is None:
            if sb is not None:
                schema[ra] = sb
        elif sb is not None:
            pending.extend(zip(node_args[sa], node_args[sb]))

    class_vars: dict[int, list[int]] = {}
    for v, nid in var_ids.items():
        class_vars.setdefault(find(nid), []).append(nid)
    rep: dict[int, Variable] = {
        root: node_var[min(ids)] for root, ids in class_vars.items()
    }

    memo: dict[int, Term] = {}
    rendering: set[int] = set()

    def render_class(root: int) -> Term:
        # Classes without a variable are rendered structurally; every cycle
        # in the class graph passes through a variable class, so this
        # recursion bottoms out (the guard is defensive).
        if root in rep:
            return rep[root]
        if root in memo:
            return memo[root]
        if root in rendering:
            raise RuntimeError("variable-free cycle in the term graph")
        rendering.add(root)
        s = schema[root]
        out = Compound(
            node_fun[s][0], tuple(render_class(find(c)) for c in node_args[s])
        )
        rendering.discard(root)
        memo[root] = out
        return out

    bindings: dict[Variable, Term] = {}
    for root, ids in class_vars.items():
        rep_var = rep[root]
        for nid in ids:
            v = node_var[nid]
            if v != rep_var:
                bindings[v] = rep_var
        s = schema.get(root)
        if s is not None:
            bindings[rep_var] = Compound(
                node_fun[s][0], tuple(render_class(find(c)) for c in node_args[s])
            )
    return UnifyOutcome(RationalSolvedForm.of(bindings))


def rsf_leaf_masks(
    rsf: RationalSolvedForm, first: Iterable[Variable]
) -> tuple[tuple[Variable, ...], list[int], list[int]]:
    """``_leaf_masks`` before its fixpoint loop was split out, verbatim.

    The free leaves that the unfolded binding of each variable holds at
    least once and at least twice, as masks over ``first`` followed by the
    solved form's other variables; that order is returned first.

    The least fixpoint of a walk count that saturates at 2: an unbound
    variable holds itself, and a bound one holds what its children hold. It
    holds a leaf twice when some child holds it twice, when a child that
    holds it occurs twice, or when two distinct children hold it, so a leaf
    reached through a cycle is held twice.
    """
    index: dict[Variable, int] = {}
    for v in first:
        index.setdefault(v, len(index))
    edges = []
    for v, t in rsf.bindings:
        i = index.setdefault(v, len(index))
        edges.append(
            (i, [(index.setdefault(w, len(index)), c > 1) for w, c in variable_counts(t).items()])
        )
    once = [1 << i for i in range(len(index))]
    twice = [0] * len(index)
    for i, _ in edges:
        once[i] = 0
    changed = True
    while changed:
        changed = False
        for i, children in edges:
            one = two = 0
            for j, repeated in children:
                two |= twice[j] | one & once[j] | (once[j] if repeated else 0)
                one |= once[j]
            if one != once[i] or two != twice[i]:
                once[i], twice[i] = one, two
                changed = True
    return tuple(index), once, twice


def rsf_solved_form_masks(rsf: RationalSolvedForm, universe: VariableUniverse) -> SolvedFormMasks:
    """``solved_form_masks`` as it was, verbatim, over :func:`rsf_leaf_masks`.

    Abstract the solved form once, for any number of :meth:`described_by`
    checks; one leaf-mask fixpoint serves every variable and the groundness.
    No assignment is enumerated, so the clause form holds at any universe
    size."""
    n = len(universe)
    _, once, twice = rsf_leaf_masks(rsf, universe)
    held = once[:n]
    free = linear = 0
    for i, v in enumerate(universe.variables):
        if is_free(rsf, v):
            free |= 1 << i
        if not twice[i]:
            linear |= 1 << i
    groundness = None
    if not any(leaves >> n for leaves in held):
        defs = [(leaves, 1 << i) for i, leaves in enumerate(held) if leaves != 1 << i]
        groundness = PosFormula(universe, clauses=(*defs, *((x, leaves) for leaves, x in defs)))
    return SolvedFormMasks(_groups(held), free, linear, groundness)


@st.composite
def class_systems(draw):
    """A universe of 1-8 or 64 variables and a system over a pool of its
    variables (six of them at 64, bit 63 among them), plus the outside
    variables ``p`` and ``q`` in about a third of the cases. An equation
    relates two terms, a variable and a term, a variable and a
    variable-free term, two variable-free terms, or two variables, and may
    sit after a variable chain that is closed or not into a cycle through
    ``f``. Terms use a/0, b/0, f/1, f/2 and g/2 (functor and arity
    clashes) and ``g(t, t)`` (repeated arguments); variable-free terms
    repeat across equations, so their classes merge."""
    n = draw(st.one_of(st.integers(1, 8), st.just(64)), label="n")
    universe = VariableUniverse.of_names(f"v{i}" for i in range(n))
    pool = list(universe.variables)
    if n > 8:
        pool = [pool[i] for i in (0, 1, 2, 31, 62, 63)]
    if draw(st.integers(0, 2), label="outside") == 0:
        pool += [Variable("p"), Variable("q")]
    variables = st.sampled_from(pool)
    constants = st.sampled_from([Compound("a"), Compound("b")])
    ground = constants | constants.map(lambda a: f(a)) | constants.map(lambda a: g_(a, a))
    terms = st.recursive(
        variables | ground,
        lambda inner: st.one_of(
            inner.map(lambda a: f(a)),
            st.tuples(inner, inner).map(lambda a: f(*a)),
            st.tuples(inner, inner).map(lambda a: g_(*a)),
            inner.map(lambda a: g_(a, a)),
        ),
        max_leaves=6,
    )
    system = []
    if len(pool) >= 2 and draw(st.booleans(), label="chain"):
        order = draw(st.lists(variables, min_size=2, max_size=5, unique=True), label="order")
        system += [Equation(a, b) for a, b in zip(order, order[1:])]
        if draw(st.booleans(), label="cycle"):
            system.append(Equation(order[-1], f(order[0])))
    equations = st.one_of(
        st.builds(Equation, terms, terms),
        st.builds(Equation, variables, terms),
        st.builds(Equation, variables, ground),
        st.builds(Equation, ground, ground),
        st.builds(Equation, variables, variables),
    )
    system += draw(st.lists(equations, max_size=5), label="equations")
    return universe, tuple(system)


u, p, q = Variable("u"), Variable("p"), Variable("q")
WXYZU = VariableUniverse.of_names(["w", "x", "y", "z", "u"])


@settings(max_examples=500, deadline=None)
@given(class_systems())
@example((WXYZU, (Equation(x, f(x)),)))
@example((WXYZU, (Equation(x, f(x, y)), Equation(y, g_(x, x)))))
@example((WXYZU, (Equation(x, g_(u, u)), Equation(u, f(y)))))
@example((WXYZU, (Equation(x, g_(f(y), f(y))),)))
@example((WXYZU, (Equation(x, g_(u, w)), Equation(u, f(y)), Equation(w, f(y)), Equation(u, w))))
@example((WXYZU, (Equation(x, f(Compound("a"))), Equation(y, f(Compound("a"))), Equation(x, y))))
@example((WXYZU, (Equation(f(x), g_(x, y)),)))
@example((WXYZU, (Equation(f(x), f(x, y)),)))
@example((WXYZU, (Equation(x, f(p, q)),)))
@example((WXYZU, (Equation(p, x), Equation(y, f(x)))))
@example((WXYZU, (Equation(w, x), Equation(x, y), Equation(y, z), Equation(z, f(w)))))
def test_class_masks_match_solved_form_masks(case):
    """The masks read off the unifier's classes equal those of the solved
    form it renders, computed as before the class path existed; the
    rendered solved form is unchanged too."""
    universe, system = case
    outcome = rsf_unify(system)
    assert unify(system) == outcome
    rsf = outcome.solved_form
    expected = None if rsf is None else rsf_solved_form_masks(rsf, universe)
    assert system_masks(system, universe) == expected


def memoizing_unify(equations: Iterable[Equation]) -> UnifyOutcome:
    """``unify`` before it picked representatives in one pass and dropped its
    render memo and cycle guard, verbatim.

    Union-find unification over the term graph, without occurs check.

    Cyclic solutions are allowed (rational-tree semantics); the only failure
    is a clash of functors or arities. Each class is represented by its
    earliest-created variable, a choice that is immaterial to every exported
    query.
    """
    classes = _solve(equations)
    if classes is None:
        return UnifyOutcome(None)
    node_var, node_fun, node_args, class_of, schema, var_ids = classes
    class_vars: dict[int, list[int]] = {}
    for nid in var_ids.values():
        class_vars.setdefault(class_of[nid], []).append(nid)
    rep: dict[int, Variable] = {
        root: node_var[min(ids)] for root, ids in class_vars.items()
    }

    memo: dict[int, Term] = {}
    rendering: set[int] = set()

    def render_class(root: int) -> Term:
        # Classes without a variable are rendered structurally; every cycle
        # in the class graph passes through a variable class, so this
        # recursion bottoms out (the guard is defensive).
        if root in rep:
            return rep[root]
        if root in memo:
            return memo[root]
        if root in rendering:
            raise RuntimeError("variable-free cycle in the term graph")
        rendering.add(root)
        s = schema[root]
        out = Compound(
            node_fun[s][0], tuple(render_class(class_of[c]) for c in node_args[s])
        )
        rendering.discard(root)
        memo[root] = out
        return out

    bindings: dict[Variable, Term] = {}
    for root, ids in class_vars.items():
        rep_var = rep[root]
        for nid in ids:
            v = node_var[nid]
            if v != rep_var:
                bindings[v] = rep_var
        s = schema.get(root)
        if s is not None:
            bindings[rep_var] = Compound(
                node_fun[s][0], tuple(render_class(class_of[c]) for c in node_args[s])
            )
    return UnifyOutcome(RationalSolvedForm.of(bindings))


@settings(max_examples=500, deadline=None)
@given(class_systems())
@example((WXYZU, (Equation(x, f(g_(f(Compound("a")), g_(Compound("b"), Compound("b"))))),)))
@example((WXYZU, (Equation(x, f(g_(y, f(Compound("a"))))), Equation(y, g_(x, f(Compound("a")))))))
@example((WXYZU, (Equation(x, g_(f(Compound("a")), u)), Equation(u, g_(f(Compound("a")), x)))))
@example((WXYZU, (Equation(f(g_(Compound("a"), Compound("a"))), f(g_(Compound("a"), Compound("a")))),
                  Equation(x, f(g_(Compound("a"), Compound("a")))))))
@example((WXYZU, (Equation(x, f(f(Compound("a")))), Equation(y, f(f(Compound("a")))), Equation(x, y))))
@example((WXYZU, (Equation(w, x), Equation(x, y), Equation(y, z), Equation(z, f(w)))))
def test_one_pass_unify_matches_memoizing_unify(case):
    """Representatives picked in one pass and variable-free classes rendered
    without a memo give the solved forms of the memoizing renderer, nested
    variable-free compounds and merged variable-free classes included."""
    _, system = case
    assert unify(system) == memoizing_unify(system)


# The solved-form views before a solved form's bindings were solved as
# equations, verbatim but for their names: a leaf numbering and walk edges
# built from the bindings, a freeness chase, and the seven views over them.
def leafwise_walk_counts(
    once: list[int], twice: list[int], edges: list[tuple[int, list[tuple[int, bool]]]]
) -> None:
    """Run, in place, the least fixpoint of a walk count that saturates at
    2. Each edge gives a bound node and its children, each flagged when it
    fills two or more argument positions; a leaf starts with its own bit in
    ``once`` and keeps it, a bound node starts empty. A bound node holds
    what its children hold. It holds a leaf twice when some child holds it
    twice, when a repeated child holds it, or when two distinct children
    hold it, so a leaf reached through a cycle is held twice.
    """
    changed = True
    while changed:
        changed = False
        for i, children in edges:
            one = two = 0
            for j, repeated in children:
                two |= twice[j] | one & once[j] | (once[j] if repeated else 0)
                one |= once[j]
            if one != once[i] or two != twice[i]:
                once[i], twice[i] = one, two
                changed = True


def leafwise_leaf_masks(
    rsf: RationalSolvedForm, first: Iterable[Variable]
) -> tuple[tuple[Variable, ...], list[int], list[int]]:
    """The free leaves that the unfolded binding of each variable holds at
    least once and at least twice, as masks over ``first`` followed by the
    solved form's other variables; that order is returned first.

    An unbound variable is a leaf, and a bound one's children are the
    variables of its binding, run through :func:`leafwise_walk_counts`.
    """
    index: dict[Variable, int] = {}
    for v in first:
        index.setdefault(v, len(index))
    edges = []
    for v, t in rsf.bindings:
        i = index.setdefault(v, len(index))
        edges.append(
            (i, [(index.setdefault(w, len(index)), c > 1) for w, c in variable_counts(t).items()])
        )
    once = [1 << i for i in range(len(index))]
    twice = [0] * len(index)
    for i, _ in edges:
        once[i] = 0
    leafwise_walk_counts(once, twice, edges)
    return tuple(index), once, twice


def leafwise_reachable_vars(rsf: RationalSolvedForm, v: Variable) -> frozenset[Variable]:
    """Free variables of the unfolded binding of ``v``."""
    order, once, _ = leafwise_leaf_masks(rsf, (v,))
    return frozenset(order[j] for j in bit_positions(once[0]))


def leafwise_occurrence_set(
    rsf: RationalSolvedForm, leaf: Variable, universe: VariableUniverse
) -> frozenset[Variable]:
    """The universe variables whose unfolded bindings contain ``leaf``."""
    order, once, _ = leafwise_leaf_masks(rsf, (leaf, *universe))
    return frozenset(u for u, held in zip(order, once) if held & 1 and u in universe)


def leafwise_sharing_abstraction(
    rsf: RationalSolvedForm, universe: VariableUniverse
) -> tuple[int, ...]:
    """All occurrence groups of the solved form, as masks; the empty group is
    always present (witnessed by any variable the universe never reaches)."""
    _, once, _ = leafwise_leaf_masks(rsf, universe)
    return _groups(once[: len(universe)])


def leafwise_is_free(rsf: RationalSolvedForm, v: Variable) -> bool:
    """True when ``v`` chases through variable bindings to an unbound variable."""
    cur = v
    while True:
        t = rsf.binding(cur)
        if t is None:
            return True
        if isinstance(t, Variable):
            cur = t
            continue
        return False


def leafwise_binding_multiplicity(rsf: RationalSolvedForm, v: Variable) -> int:
    """Multiplicity of the unfolded binding of ``v``: 0 ground, 1 linear,
    2 when some free leaf occurs at least twice, as any leaf seen through a
    cycle does."""
    _, once, twice = leafwise_leaf_masks(rsf, (v,))
    return 2 if twice[0] else 1 if once[0] else 0


def leafwise_abstraction(
    universe: VariableUniverse, held: list[int], twice: list[int], free: int
) -> SolvedFormMasks:
    """The masks of a solved form from its universe variables' leaf masks:
    ``held[i]`` and ``twice[i]`` are the leaves that the i-th variable's
    binding holds at least once and at least twice, a leaf in the universe
    at its own position and every other one at ``len(universe)`` or above,
    and ``free`` is the mask of the free variables."""
    n = len(universe)
    linear = 0
    for i, two in enumerate(twice):
        if not two:
            linear |= 1 << i
    groundness = None
    if not any(leaves >> n for leaves in held):
        defs = [(leaves, 1 << i) for i, leaves in enumerate(held) if leaves != 1 << i]
        groundness = PosFormula(universe, clauses=(*defs, *((x, leaves) for leaves, x in defs)))
    return SolvedFormMasks(_groups(held), free, linear, groundness)


def leafwise_solved_form_masks(rsf: RationalSolvedForm, universe: VariableUniverse) -> SolvedFormMasks:
    """Abstract the solved form once, for any number of :meth:`described_by`
    checks; one leaf-mask fixpoint serves every variable and the groundness.
    No assignment is enumerated, so the clause form holds at any universe
    size."""
    n = len(universe)
    _, once, twice = leafwise_leaf_masks(rsf, universe)
    free = 0
    for i, v in enumerate(universe.variables):
        if leafwise_is_free(rsf, v):
            free |= 1 << i
    return leafwise_abstraction(universe, once[:n], twice[:n], free)


def leafwise_groundness_abstraction(rsf: RationalSolvedForm, universe: VariableUniverse) -> PosFormula:
    """Groundness dependencies of the solved form over the universe: the
    :attr:`SolvedFormMasks.groundness` of :func:`leafwise_solved_form_masks`. Every
    leaf must lie in the universe, as it does for a system over the
    universe's variables; otherwise the universe's ``ValueError`` is raised,
    naming the first leaf outside it in :func:`leafwise_leaf_masks` order."""
    groundness = leafwise_solved_form_masks(rsf, universe).groundness
    if groundness is None:
        order, once, _ = leafwise_leaf_masks(rsf, universe)
        n = len(universe)
        universe.index(order[n + bit_positions(group_vars(once[:n]) >> n)[0]])
    return groundness




@st.composite
def drawn_solved_forms(draw):
    """A universe of 1-6 variables and a solved form over them and the
    outside variables ``p`` and ``q``, with its bindings in a drawn order.
    A variable is unbound, bound to a later variable of a drawn order (so
    chains such as ``x -> y -> z`` form, but no pure variable cycle), to a
    compound whose variables may close a cycle, or to a ground term."""
    n = draw(st.integers(1, 6), label="n")
    universe = VariableUniverse.of_names(f"v{i}" for i in range(n))
    pool = draw(st.permutations([*universe.variables, p, q]), label="pool")
    constants = st.sampled_from([Compound("a"), Compound("b")])
    terms = st.recursive(
        st.sampled_from(pool) | constants,
        lambda inner: st.one_of(
            inner.map(lambda a: f(a)),
            st.tuples(inner, inner).map(lambda a: g_(*a)),
            inner.map(lambda a: g_(a, a)),
        ),
        max_leaves=5,
    )
    compounds = st.one_of(terms.map(lambda a: f(a)), st.tuples(terms, terms).map(lambda a: f(*a)))
    bindings = []
    for i, v in enumerate(pool):
        kind = draw(st.sampled_from(["unbound", "chain", "compound", "ground"]), label=v.name)
        if kind == "chain" and i + 1 < len(pool):
            bindings.append((v, draw(st.sampled_from(pool[i + 1 :]))))
        elif kind == "compound":
            bindings.append((v, draw(compounds)))
        elif kind == "ground":
            bindings.append((v, draw(constants | constants.map(lambda a: f(a)))))
    order = draw(st.permutations(bindings), label="order")
    return universe, pool, RationalSolvedForm(tuple(order))


def _raised(view, *args):
    """The view's value, with a formula as its clause tuple, or the message
    of the ``ValueError`` it raises."""
    try:
        value = view(*args)
    except ValueError as exc:
        return "raised", str(exc)
    return "value", value.clauses if isinstance(value, PosFormula) else value


def assert_views_match_the_binding_walk(rsf, universe, variables):
    for v in variables:
        assert reachable_vars(rsf, v) == leafwise_reachable_vars(rsf, v)
        assert is_free(rsf, v) == leafwise_is_free(rsf, v)
        assert binding_multiplicity(rsf, v) == leafwise_binding_multiplicity(rsf, v)
        assert occurrence_set(rsf, v, universe) == leafwise_occurrence_set(rsf, v, universe)
    assert sharing_abstraction(rsf, universe) == leafwise_sharing_abstraction(rsf, universe)
    masks = solved_form_masks(rsf, universe)
    expected = leafwise_solved_form_masks(rsf, universe)
    assert masks == expected
    assert _raised(lambda: masks.groundness) == _raised(lambda: expected.groundness)
    assert _raised(groundness_abstraction, rsf, universe) == _raised(
        leafwise_groundness_abstraction, rsf, universe
    )


@settings(max_examples=300, deadline=None)
@given(class_systems())
@example((WXYZU, (Equation(w, x), Equation(x, y), Equation(y, z), Equation(z, f(w)))))
@example((WXYZU, (Equation(x, f(p, q)), Equation(q, y))))
def test_views_of_unified_systems_match_the_binding_walk(case):
    """The views read off the classes of a solved form's bindings equal the
    verbatim binding walk on every solved form that ``unify`` renders."""
    universe, system = case
    rsf = unify(system).solved_form
    if rsf is None:
        return
    named = [w for eq in system for side in (eq.lhs, eq.rhs) for w in variable_counts(side)]
    assert_views_match_the_binding_walk(rsf, universe, dict.fromkeys([*universe.variables[:8], *named]))


@settings(max_examples=500, deadline=None)
@given(drawn_solved_forms())
@example((XY, (x, y, p, q), RationalSolvedForm(((x, y), (y, p)))))
@example((XY, (x, y, p, q), RationalSolvedForm(((y, f(q, p)), (x, y)))))
@example((XY, (x, y, p, q), RationalSolvedForm(((x, f(x, p)), (p, q)))))
def test_views_of_drawn_solved_forms_match_the_binding_walk(case):
    """The same on solved forms that ``unify`` never renders: variable
    chains longer than one link, so a leaf class holds several bound
    variables and is named by its one unbound one, in any binding order."""
    universe, pool, rsf = case
    assert_views_match_the_binding_walk(rsf, universe, pool)
