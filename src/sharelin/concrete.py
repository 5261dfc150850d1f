"""Concrete-semantics oracle: rational-tree unification and the queries that
decide whether an abstract state soundly describes a solved form.

Solved forms are binding graphs that may be cyclic (``x = f(x, y)`` binds
``x`` to a rational tree). The infinite unfolding is never built: variable
occurrence, groundness and multiplicity are all read off one least fixpoint
of walk counts over the graph, saturating at two, which is what makes the
oracle executable. A solved form is itself a system of equations, so its
bindings are solved like any system, and solved forms and systems share
one walk over the unifier's class graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .groundness import PosFormula
from .sharing import SharingTriple, group_vars
from .terms import Compound, Equation, Term, Variable, VariableUniverse, bit_positions, variable_counts


@dataclass(frozen=True)
class RationalSolvedForm:
    """A substitution as a finite binding map whose terms may mention bound
    variables, creating cycles.

    Identity bindings are dropped; a pure variable-to-variable cycle is
    rejected (such a map has no idempotent unfolding).
    """

    bindings: tuple[tuple[Variable, Term], ...]
    _map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_var: dict[Variable, Term] = {}
        for v, t in self.bindings:
            if v in by_var:
                raise ValueError(f"variable {v.name!r} bound twice")
            by_var[v] = t
        object.__setattr__(self, "_map", by_var)
        for start in by_var:
            cur = start
            seen = {start}
            while True:
                t = by_var.get(cur)
                if not isinstance(t, Variable):
                    break
                if t in seen:
                    raise ValueError("pure variable-variable cycle in bindings")
                seen.add(t)
                cur = t

    @classmethod
    def of(cls, bindings: Mapping[Variable, Term]) -> "RationalSolvedForm":
        items = tuple(
            sorted(
                ((v, t) for v, t in bindings.items() if t != v),
                key=lambda vt: vt[0].name,
            )
        )
        return cls(items)

    def binding(self, v: Variable) -> Term | None:
        return self._map.get(v)


@dataclass(frozen=True)
class UnifyOutcome:
    """Success carries a solved form; failure (functor or arity clash) is None."""

    solved_form: RationalSolvedForm | None

    @property
    def success(self) -> bool:
        return self.solved_form is not None


class _Classes(NamedTuple):
    """A solved system's union-find: per node its variable, its (functor,
    arity) and its arguments' nodes, in creation order; each node's class,
    named by its root; the functor node of each class that has one, by root; and each
    variable's node, by name, in creation order."""

    node_var: list[Variable | None]
    node_fun: list[tuple[str, int] | None]
    node_args: list[tuple[int, ...]]
    class_of: list[int]
    schema: dict[int, int]
    var_ids: dict[str, int]


def _solve(equations: Iterable[Equation]) -> _Classes | None:
    """Union-find over the term graph, without occurs check, or None on a
    clash of functors or arities."""
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
            return None
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
    class_of = [find(i) for i in range(len(parent))]
    return _Classes(node_var, node_fun, node_args, class_of, schema, var_ids)


def unify(equations: Iterable[Equation]) -> UnifyOutcome:
    """Union-find unification over the term graph, without occurs check.

    Cyclic solutions are allowed (rational-tree semantics); the only failure
    is a clash of functors or arities. Each class is represented by its
    earliest-created variable, a choice that is immaterial to every exported
    query.
    """
    classes = _solve(equations)
    if classes is None:
        return UnifyOutcome(None)
    node_var, node_fun, node_args, class_of, schema, var_ids = classes
    # variables in creation order: the first one met in a class names it
    rep: dict[int, Variable] = {}
    bindings: dict[Variable, Term] = {}
    for nid in var_ids.values():
        v = node_var[nid]
        first = rep.setdefault(class_of[nid], v)
        if first != v:
            bindings[v] = first

    # A class without a variable renders as its functor node. Interning makes
    # a fresh node for each compound occurrence, so every compound node of
    # such a class sits at one argument position under nodes of one class:
    # the class is referenced once and is never its own ancestor, so it is
    # rendered at most once and the recursion ends.
    def term(root: int) -> Term:
        return rep[root] if root in rep else render(schema[root])

    def render(s: int) -> Compound:
        return Compound(node_fun[s][0], tuple([term(class_of[c]) for c in node_args[s]]))

    for root, v in rep.items():
        if root in schema:
            bindings[v] = render(schema[root])
    return UnifyOutcome(RationalSolvedForm.of(bindings))


def _form_classes(rsf: RationalSolvedForm, first: Iterable[Variable]) -> _Classes:
    """The classes of the solved form's bindings, solved as equations. The
    unbound variables are created first, each by an equation ``w = w`` that
    merges nothing: those of ``first``, then those of each binding in
    :func:`variable_counts` order. The variables of a class without a
    functor chase to one unbound variable, so that variable names the leaf.
    A class holds at most one binding's functor, so the bindings never
    clash."""
    order = dict.fromkeys(first)
    for _, t in rsf.bindings:
        order.update(dict.fromkeys(variable_counts(t)))
    unbound = [Equation(w, w) for w in order if rsf.binding(w) is None]
    return _solve([*unbound, *(Equation(v, t) for v, t in rsf.bindings)])


def _leaf_walk(
    classes: _Classes, name_index: Mapping[str, int]
) -> tuple[list[int], list[int], list[Variable]]:
    """The free leaves that each class holds at least once and at least
    twice, by root, and the leaves outside ``name_index`` in bit order.

    A class without a functor is a leaf, named by its earliest-created
    variable: at that name's position in ``name_index``, or past all of
    them in creation order. A class with a functor holds what its argument
    classes hold. It holds a leaf twice when some argument class holds it
    twice, when an argument class that fills two positions holds it, or
    when two distinct argument classes hold it, so a leaf reached through a
    cycle is held twice. The walk counts through a variable-free class
    multiply out as they do through its structural rendering; the least
    fixpoint saturates at two.
    """
    class_of, schema, node_args = classes.class_of, classes.schema, classes.node_args
    once = [0] * len(class_of)
    twice = [0] * len(class_of)
    outside: list[Variable] = []
    for name, nid in classes.var_ids.items():
        r = class_of[nid]
        if r not in schema and not once[r]:
            i = name_index.get(name)
            if i is None:
                i = len(name_index) + len(outside)
                outside.append(classes.node_var[nid])
            once[r] = 1 << i
    edges = []
    for r, s in schema.items():
        kids = [class_of[c] for c in node_args[s]]
        edges.append((r, [(j, kids.count(j) > 1) for j in dict.fromkeys(kids)]))
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
    return once, twice, outside


def _var_walk(rsf: RationalSolvedForm, v: Variable) -> tuple[int, int, tuple[Variable, ...]]:
    """The leaves that the unfolded binding of ``v`` holds at least once and
    at least twice, as masks over the returned leaves, ``v`` first."""
    classes = _form_classes(rsf, (v,))
    once, twice, outside = _leaf_walk(classes, {v.name: 0})
    r = classes.class_of[classes.var_ids[v.name]]
    return once[r], twice[r], (v, *outside)


def _groups(once: list[int]) -> tuple[int, ...]:
    """One occurrence group per leaf that the leaf masks of the universe's
    variables hold, plus the empty group, sorted."""
    by_leaf: dict[int, int] = {}
    for i, held in enumerate(once):
        for j in bit_positions(held):
            by_leaf[j] = by_leaf.get(j, 0) | 1 << i
    return tuple(sorted({0, *by_leaf.values()}))


def reachable_vars(rsf: RationalSolvedForm, v: Variable) -> frozenset[Variable]:
    """Free variables of the unfolded binding of ``v``."""
    once, _, leaves = _var_walk(rsf, v)
    return frozenset(leaves[j] for j in bit_positions(once))


def occurrence_set(
    rsf: RationalSolvedForm, leaf: Variable, universe: VariableUniverse
) -> frozenset[Variable]:
    """The universe variables whose unfolded bindings contain ``leaf``."""
    classes = _form_classes(rsf, universe)
    once, _, _ = _leaf_walk(classes, {leaf.name: 0})
    class_of, var_ids = classes.class_of, classes.var_ids
    return frozenset(u for u in universe if once[class_of[var_ids[u.name]]] & 1)


def sharing_abstraction(
    rsf: RationalSolvedForm, universe: VariableUniverse
) -> tuple[int, ...]:
    """All occurrence groups of the solved form, as masks; the empty group is
    always present (witnessed by any variable the universe never reaches)."""
    return solved_form_masks(rsf, universe).groups


def is_free(rsf: RationalSolvedForm, v: Variable) -> bool:
    """True when ``v`` chases through variable bindings to an unbound
    variable, that is, when its class has no functor."""
    classes = _form_classes(rsf, (v,))
    return classes.class_of[classes.var_ids[v.name]] not in classes.schema


def binding_multiplicity(rsf: RationalSolvedForm, v: Variable) -> int:
    """Multiplicity of the unfolded binding of ``v``: 0 ground, 1 linear,
    2 when some free leaf occurs at least twice, as any leaf seen through a
    cycle does."""
    once, twice, _ = _var_walk(rsf, v)
    return 2 if twice else 1 if once else 0


@dataclass(frozen=True)
class SolvedFormMasks:
    """The exact sharing, freeness, linearity and groundness of a solved
    form over a universe: its occurrence groups (sorted, with the empty
    group), the mask of its free variables, the mask of those whose binding
    has multiplicity at most one, and its groundness dependencies. These
    are the definite clauses of ``x <-> /\\ leaves(x)`` for each bound ``x``
    (an unbound variable is its own leaf), or ``None`` when a universe
    variable's binding holds a leaf outside the universe."""

    groups: tuple[int, ...]
    free: int
    linear: int
    groundness: PosFormula | None

    def described_by(self, triple: SharingTriple) -> bool:
        """True when ``triple`` soundly abstracts the solved form: every
        occurrence group is one of its groups, and its free and linear
        variables are free and linear here."""
        return (
            set(triple.groups).issuperset(self.groups)
            and not triple.free & ~self.free
            and not triple.linear & ~self.linear
        )


def _class_masks(classes: _Classes, universe: VariableUniverse) -> SolvedFormMasks:
    """The masks of a solved system over the universe, read off its classes
    by :func:`_leaf_walk` with each leaf of the universe at its own position
    and every other leaf past them. A universe variable that no equation
    names is its own leaf; a variable is free when its class has no
    functor."""
    class_of, schema, var_ids = classes.class_of, classes.schema, classes.var_ids
    once, twice, _ = _leaf_walk(classes, universe.name_index)
    n = len(universe)
    held: list[int] = []
    free = linear = 0
    for i, name in enumerate(universe.names):
        nid = var_ids.get(name)
        r = None if nid is None else class_of[nid]
        held.append(1 << i if r is None else once[r])
        if r not in schema:
            free |= 1 << i
        if r is None or not twice[r]:
            linear |= 1 << i
    groundness = None
    if not any(leaves >> n for leaves in held):
        defs = [(leaves, 1 << i) for i, leaves in enumerate(held) if leaves != 1 << i]
        groundness = PosFormula(universe, clauses=(*defs, *((x, leaves) for leaves, x in defs)))
    return SolvedFormMasks(_groups(held), free, linear, groundness)


def solved_form_masks(rsf: RationalSolvedForm, universe: VariableUniverse) -> SolvedFormMasks:
    """Abstract the solved form once, for any number of :meth:`described_by`
    checks; one leaf walk serves every variable and the groundness. No
    assignment is enumerated, so the clause form holds at any universe
    size."""
    return _class_masks(_form_classes(rsf, universe), universe)


def system_masks(
    equations: Iterable[Equation], universe: VariableUniverse
) -> SolvedFormMasks | None:
    """The system's exact abstraction over the universe, equal to
    ``solved_form_masks(unify(equations).solved_form, universe)``, or None
    when the equations clash. It is read off the unifier's classes, so no
    solved form is built."""
    classes = _solve(equations)
    return None if classes is None else _class_masks(classes, universe)


def groundness_abstraction(rsf: RationalSolvedForm, universe: VariableUniverse) -> PosFormula:
    """Groundness dependencies of the solved form over the universe: the
    :attr:`SolvedFormMasks.groundness` of :func:`solved_form_masks`. Every
    leaf must lie in the universe, as it does for a system over the
    universe's variables; otherwise the universe's ``ValueError`` is raised,
    naming the first such leaf in :func:`_form_classes` order."""
    classes = _form_classes(rsf, universe)
    groundness = _class_masks(classes, universe).groundness
    if groundness is None:
        once, _, outside = _leaf_walk(classes, universe.name_index)
        held = group_vars(once[classes.class_of[classes.var_ids[name]]] for name in universe.names)
        universe.index(outside[bit_positions(held >> len(universe))[0]])
    return groundness


def describes(triple: SharingTriple, equations: Iterable[Equation]) -> bool:
    """True when the equations unify and the triple soundly abstracts the
    resulting solved form: occurrence groups covered, claimed free variables
    free, claimed linear variables of multiplicity at most one.

    Any solved form of the system gives the same answer, so the masks of
    :func:`system_masks` suffice.
    """
    exact = system_masks(equations, triple.universe)
    return exact is not None and exact.described_by(triple)
