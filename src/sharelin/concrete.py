"""Concrete-semantics oracle: rational-tree unification and the queries that
decide whether an abstract state soundly describes a solved form.

Solved forms are binding graphs that may be cyclic (``x = f(x, y)`` binds
``x`` to a rational tree). The infinite unfolding is never built: variable
occurrence, freeness and multiplicity are all answered by reachability and
walk counting over the graph, which is what makes the oracle executable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .groundness import PosFormula
from .sharing import SharingTriple
from .terms import Compound, Equation, Term, Variable, VariableUniverse, term_vars, variable_counts


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

    @property
    def domain(self) -> frozenset[Variable]:
        return frozenset(self._map)


@dataclass(frozen=True)
class UnifyOutcome:
    """Success carries a solved form; failure (functor or arity clash) is None."""

    solved_form: RationalSolvedForm | None

    @property
    def success(self) -> bool:
        return self.solved_form is not None


def unify(equations: Iterable[Equation]) -> UnifyOutcome:
    """Union-find unification over the term graph, without occurs check.

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


def reachable_vars(rsf: RationalSolvedForm, v: Variable) -> frozenset[Variable]:
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
            stack.extend(term_vars(t))
    return frozenset(out)


def occurrence_set(
    rsf: RationalSolvedForm, leaf: Variable, universe: VariableUniverse
) -> frozenset[Variable]:
    """The universe variables whose unfolded bindings contain ``leaf``."""
    return frozenset(u for u in universe if leaf in reachable_vars(rsf, u))


def sharing_abstraction(
    rsf: RationalSolvedForm, universe: VariableUniverse
) -> tuple[int, ...]:
    """All occurrence groups of the solved form, as masks; the empty group is
    always present (witnessed by any variable the universe never reaches)."""
    reach = {x: reachable_vars(rsf, x) for x in universe}
    groups = {0}
    for leaf in frozenset().union(*reach.values()) if reach else ():
        groups.add(universe.mask_of(x for x in universe if leaf in reach[x]))
    return tuple(sorted(groups))


def groundness_abstraction(
    rsf: RationalSolvedForm, universe: VariableUniverse
) -> PosFormula:
    """Groundness dependencies of the solved form over the universe.

    A variable is ground exactly when all its reachable free leaves are (an
    unbound variable is its own leaf): for each bound ``x`` the two definite
    clauses of ``x <-> /\\ leaves(x)``. No assignment is enumerated, so the
    clause form holds at any universe size. Every leaf must lie in the
    universe, as it does for a system over the universe's variables.
    """
    reach = [universe.mask_of(reachable_vars(rsf, x)) for x in universe]
    defs = [(leaves, 1 << i) for i, leaves in enumerate(reach) if leaves != 1 << i]
    return PosFormula(universe, clauses=(*defs, *((x, leaves) for leaves, x in defs)))


def is_free(rsf: RationalSolvedForm, v: Variable) -> bool:
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


def _out_edges(rsf: RationalSolvedForm) -> dict[Variable, list[tuple[Variable, int]]]:
    return {
        v: [(w, min(2, c)) for w, c in variable_counts(t).items()] for v, t in rsf.bindings
    }


def binding_multiplicity(rsf: RationalSolvedForm, v: Variable) -> int:
    """Multiplicity of the unfolded binding of ``v``: 0 ground, 1 linear,
    2 when some free leaf occurs at least twice.

    Edge weights count occurrences inside a single binding; a free leaf
    seen through a cycle occurs unboundedly often in the unfolding, hence
    yields 2. Counts saturate at 2 throughout.
    """
    return _multiplicity(rsf, _out_edges(rsf), v)


def _multiplicity(
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


@dataclass(frozen=True)
class SolvedFormMasks:
    """The exact sharing, freeness and linearity of a solved form over a
    universe: its occurrence groups (sorted, with the empty group), the
    mask of its free variables and the mask of those whose binding has
    multiplicity at most one."""

    groups: tuple[int, ...]
    free: int
    linear: int

    def described_by(self, triple: SharingTriple) -> bool:
        """True when ``triple`` soundly abstracts the solved form: every
        occurrence group is one of its groups, and its free and linear
        variables are free and linear here."""
        return (
            set(triple.groups).issuperset(self.groups)
            and not triple.free & ~self.free
            and not triple.linear & ~self.linear
        )


def solved_form_masks(rsf: RationalSolvedForm, universe: VariableUniverse) -> SolvedFormMasks:
    """Abstract the solved form once, for any number of :meth:`described_by`
    checks; the binding graph's edges are built once for all variables."""
    edges = _out_edges(rsf)
    free = linear = 0
    for i, v in enumerate(universe.variables):
        if is_free(rsf, v):
            free |= 1 << i
        if _multiplicity(rsf, edges, v) <= 1:
            linear |= 1 << i
    return SolvedFormMasks(sharing_abstraction(rsf, universe), free, linear)


def describes(triple: SharingTriple, equations: Iterable[Equation]) -> bool:
    """True when the equations unify and the triple soundly abstracts the
    resulting solved form: occurrence groups covered, claimed free variables
    free, claimed linear variables of multiplicity at most one.

    Any solved form of the system gives the same answer, so the one built
    by :func:`unify` suffices.
    """
    outcome = unify(equations)
    if not outcome.success:
        return False
    return solved_form_masks(outcome.solved_form, triple.universe).described_by(triple)
