"""Seeded problem files for the benchmark workloads.

Every problem starts from a satisfiable base system ``E0`` over variables
``v0 .. v{n-1}``. The initial state is the exact abstraction of E0's solved
form (occurrence groups, free and linear variables), optionally widened with
extra sparse groups and weaker linearity claims, which keeps it sound. The
optional ``pos`` line is the conjunction of E0's equation biconditionals,
written compactly; it is never the model-by-model DNF that ``print_problem``
emits.

Closure cost is bounded by construction. In pruning problems the analysed
equations ``E'`` are drawn so that ``E0 + E'`` stays satisfiable: variables
linked by sharing groups form components, and an equation is accepted only
while the components it joins hold at most ``PRUNE_CAP`` groups of the
initial state. Every group the analysis can produce inside a component is a
union of those groups, so no closure there exceeds ``2**PRUNE_CAP`` groups.
In closure problems each equation unifies two hub variables whose
relevance set is fixed by the base system (see :func:`closure_problem`).

The same seed gives the same bytes: all randomness comes from one
``random.Random`` per problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from sharelin.concrete import binding_multiplicity, is_free, sharing_abstraction, unify
from sharelin.problem_io import format_term, format_triple
from sharelin.sharing import SharingTriple, group_vars
from sharelin.terms import Compound, Equation, Term, Variable, VariableUniverse

GROUND = Compound("a")
# Base bindings cycle through these kinds, so every base system of a given
# size has the same mix of group shapes and only their placement varies.
BINDING_KINDS = ("ground", "alias", "wrap", "pair", "dup")
# attempts at drawing one acceptable equation before giving up on it
DRAW_ATTEMPTS = 200
# equations per pruning problem; their components hold at most PRUNE_CAP groups
PRUNE_EQS = 6
PRUNE_CAP = 6
# closure problems: variables per cluster, equations per file, and the
# leaves bound to each of an equation's two hub variables
CLUSTER = 12
CLOSURE_EQS = 2
HUB_LEAVES = 5


@dataclass(frozen=True)
class Problem:
    """One generated problem: the file text the program sees, plus the base
    system that only the benchmark's output check uses."""

    name: str
    text: str
    universe: VariableUniverse
    base: tuple[Equation, ...]
    equations: tuple[Equation, ...]


def _base_system(
    rng: random.Random, variables: tuple[Variable, ...], bound_share: float
) -> tuple[Equation, ...]:
    """Bindings ``x = term`` where every leaf is used by at most one binding,
    so each occurrence group holds at most two variables."""
    order = list(variables)
    rng.shuffle(order)
    n_bound = max(1, int(len(order) * bound_share))
    bound, leaves = order[:n_bound], order[n_bound:]
    kinds = [BINDING_KINDS[i % len(BINDING_KINDS)] for i in range(n_bound)]
    rng.shuffle(kinds)
    eqs: list[Equation] = []
    for x, kind in zip(bound, kinds):
        need = {"ground": 0, "alias": 1, "wrap": 1, "dup": 1, "pair": 2}[kind]
        if len(leaves) < need:
            kind, need = "ground", 0
        taken, leaves = leaves[:need], leaves[need:]
        if kind == "ground":
            rhs: Term = GROUND
        elif kind == "alias":
            rhs = taken[0]
        elif kind == "wrap":
            rhs = Compound("f", (taken[0],))
        elif kind == "dup":
            rhs = Compound("g", (taken[0], taken[0]))
        else:
            rhs = Compound("g", (taken[0], taken[1]))
        eqs.append(Equation(x, rhs))
    return tuple(eqs)


def exact_state(universe: VariableUniverse, base: tuple[Equation, ...]) -> SharingTriple:
    """The strongest state describing the solved form of ``base``."""
    rsf = unify(base).solved_form
    return SharingTriple.make(
        universe,
        sharing_abstraction(rsf, universe),
        universe.mask_of(v for v in universe if is_free(rsf, v)),
        universe.mask_of(v for v in universe if binding_multiplicity(rsf, v) <= 1),
    )


class _Components:
    """Variables linked by sharing groups, with the group count per component."""

    def __init__(self, groups, n: int):
        self.parent = list(range(n))
        self.count = [0] * n
        for g in groups:
            if g:
                self.add_group([i for i in range(n) if g >> i & 1])

    def add_group(self, idx: list[int]) -> None:
        self.join(idx)
        self.count[self.find(idx[0])] += 1

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def _union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.count[ra] += self.count[rb]
            self.count[rb] = 0

    def joined_groups(self, idx: list[int]) -> int:
        return sum(self.count[r] for r in {self.find(i) for i in idx})

    def join(self, idx: list[int]) -> None:
        for i in idx[1:]:
            self._union(idx[0], i)


def _widen(
    rng: random.Random,
    triple: SharingTriple,
    target_groups: int,
    component_cap: int,
    drop_linear: int,
) -> SharingTriple:
    """Add sparse groups over non-ground variables, keeping every component
    at ``component_cap`` groups or fewer, until ``target_groups`` exist or
    ``DRAW_ATTEMPTS`` draws in a row fail; then withdraw a few linearity
    claims of non-free variables."""
    universe = triple.universe
    live = [i for i in range(len(universe)) if any(g >> i & 1 for g in triple.groups)]
    groups = set(triple.groups)
    comps = _Components(triple.groups, len(universe))
    misses = 0
    while len(groups) < target_groups and len(live) >= 2 and misses < DRAW_ATTEMPTS:
        idx = rng.sample(live, rng.randint(1, 2))
        g = sum(1 << i for i in idx)
        if g in groups or comps.joined_groups(idx) >= component_cap:
            misses += 1
            continue
        misses = 0
        groups.add(g)
        comps.add_group(idx)
    return _withdraw_linearity(
        rng, SharingTriple.make(universe, groups, triple.free, triple.linear), drop_linear
    )


def _withdraw_linearity(rng: random.Random, triple: SharingTriple, count: int) -> SharingTriple:
    """Drop ``count`` linearity claims of non-free variables (a sound widening)."""
    linear = triple.linear
    claims = [i for i in range(len(triple.universe)) if linear >> i & 1 and not triple.free >> i & 1]
    for i in rng.sample(claims, min(count, len(claims))):
        linear &= ~(1 << i)
    return SharingTriple.make(triple.universe, triple.groups, triple.free, linear)


def _term_indices(universe: VariableUniverse, eq: Equation) -> list[int]:
    mask = universe.term_mask(eq.lhs) | universe.term_mask(eq.rhs)
    return [i for i in range(len(universe)) if mask >> i & 1]


def _mixed_equation(shape: int, x: Variable, y: Variable, z: Variable, w: Variable) -> Equation:
    if shape == 0:
        return Equation(x, y)
    if shape == 1:
        return Equation(x, Compound("f", (y,)))
    if shape == 2:
        return Equation(x, Compound("g", (y, z)))
    if shape == 3:
        return Equation(Compound("h", (x, y)), Compound("h", (z, w)))
    return Equation(x, GROUND)


def _mixed_equations(
    rng: random.Random,
    universe: VariableUniverse,
    base: tuple[Equation, ...],
    triple: SharingTriple,
    count: int,
    cap: int,
) -> tuple[Equation, ...]:
    """``count`` equations cycling through five shapes; each keeps ``base``
    plus the equations so far satisfiable and joins components holding at
    most ``cap`` groups of ``triple``."""
    comps = _Components(triple.groups, len(universe))
    eqs: list[Equation] = []
    for k in range(count):
        for _ in range(DRAW_ATTEMPTS):
            eq = _mixed_equation(k % 5, *rng.sample(universe.variables, 4))
            idx = _term_indices(universe, eq)
            if comps.joined_groups(idx) > cap:
                continue
            if not unify(base + tuple(eqs) + (eq,)).success:
                continue
            comps.join(idx)
            eqs.append(eq)
            break
    return tuple(eqs)


def _hub_system(variables: tuple[Variable, ...]) -> tuple[Equation, ...]:
    """``x = g(a1, ..)`` and ``y = g(b1, ..)`` over disjoint leaves, so each
    leaf's occurrence group is the leaf with its hub."""
    x, y = variables[:2]
    a = variables[2:2 + HUB_LEAVES]
    b = variables[2 + HUB_LEAVES:2 + 2 * HUB_LEAVES]
    return (Equation(x, Compound("g", a)), Equation(y, Compound("g", b)))


def _hub_equation(x: Variable, y: Variable) -> Equation:
    """Both sides hold the two hubs, one of them twice, so both have
    multiplicity 2, both relevance sets are closed, and they are the same
    set."""
    return Equation(Compound("h", (x, x, y)), Compound("h", (y, x, x)))


def _biconditional(universe: VariableUniverse, eq: Equation) -> str:
    def side(t: Term) -> str:
        names = universe.names_of_mask(universe.term_mask(t))
        return " & ".join(names) if names else "true"

    return f"({side(eq.lhs)} <-> {side(eq.rhs)})"


def render(
    triple: SharingTriple,
    pos: str | None,
    equations: tuple[Equation, ...],
) -> str:
    lines = format_triple(triple)
    if pos:
        lines.append("pos " + pos)
    lines.extend(f"eq {format_term(e.lhs)} = {format_term(e.rhs)}" for e in equations)
    return "\n".join(lines) + "\n"


def prune_problem(seed: int, index: int, n: int, with_pos: bool) -> Problem:
    """A problem for the pruning workload: a sparse state of about ``n``
    groups and ``PRUNE_EQS`` mixed equations whose components hold at most
    ``PRUNE_CAP`` groups."""
    rng = random.Random(f"prune:{seed}:{index}:{n}:{int(with_pos)}")
    universe = VariableUniverse.of_names(f"v{i}" for i in range(n))
    base = _base_system(rng, universe.variables, bound_share=0.35)
    triple = _widen(rng, exact_state(universe, base), n, component_cap=4, drop_linear=1)
    equations = _mixed_equations(rng, universe, base, triple, PRUNE_EQS, PRUNE_CAP)
    pos = " & ".join(_biconditional(universe, e) for e in base) if with_pos else None
    name = f"prune-{index}-n{n}-{'pos' if with_pos else 'nopos'}"
    return Problem(name, render(triple, pos, equations), universe, base, equations)


def closure_problem(seed: int, index: int, n: int) -> Problem:
    """A problem for the closure workload: about ``2n`` groups of one or two
    variables inside clusters of ``CLUSTER`` variables, and ``CLOSURE_EQS``
    equations, each unifying the two hubs of its own cluster.

    A hub cluster's base system binds each hub to ``HUB_LEAVES`` leaves, and
    the groups added to widen it avoid the hubs. So both sides of the
    equation meet the same ``R = 2 * HUB_LEAVES`` groups: each closure holds
    ``2**R - 1`` groups and so does the step's result, while the pairwise
    union of the two closures weighs ``4**R`` pairs. The kernels, not the
    output, carry the cost, and it is the same in every file."""
    rng = random.Random(f"closure:{seed}:{index}:{n}")
    universe = VariableUniverse.of_names(f"v{i}" for i in range(n))
    order = list(universe.variables)
    rng.shuffle(order)
    clusters = [tuple(order[i:i + CLUSTER]) for i in range(0, n, CLUSTER)]
    hub_clusters = rng.sample([c for c in clusters if len(c) == CLUSTER], CLOSURE_EQS)
    base: tuple[Equation, ...] = ()
    for c in clusters:
        base += _hub_system(c) if c in hub_clusters else _base_system(rng, c, bound_share=0.3)
    triple = exact_state(universe, base)
    groups = set(triple.groups)
    equations = []
    for c in clusters:
        live = [v for v in c if universe.bit(v) & group_vars(triple.groups)]
        if c in hub_clusters:
            x, y = c[:2]
            live = [v for v in live if v not in (x, y)]
            equations.append(_hub_equation(x, y))
        mask = universe.mask_of(c)
        for _ in range(DRAW_ATTEMPTS):
            if len(live) < 2 or sum(1 for g in groups if g & mask) >= 2 * len(c):
                break
            groups.add(universe.mask_of(rng.sample(live, rng.randint(1, 2))))
    triple = _withdraw_linearity(
        rng, SharingTriple.make(universe, groups, triple.free, triple.linear), n // 8
    )
    name = f"closure-{index}-n{n}"
    return Problem(name, render(triple, None, tuple(equations)), universe, base, tuple(equations))
