"""Abstract unification: the three algorithm variants, the decomposed
reference, the lifting to equation lists, and early groundness pruning."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .groundness import PosFormula, complements_satisfying, least_model
from .sharing import (
    SharingTriple,
    abstract_multiplicity,
    freeness_decomposition,
    group_vars,
    pairwise_union,
    relevant,
    union_closure,
)
from .terms import (
    Compound,
    Equation,
    EquationSet,
    Term,
    Variable,
    VariableUniverse,
    term_multiplicity,
)


class AlgorithmId(Enum):
    """The unification variants; values double as CLI spellings."""

    AMGU1 = "1"
    AMGU2 = "2"
    AMGU3 = "3"
    DECOMPOSED = "file"


_ORDERS = ("given", "ground-first")


@dataclass(frozen=True)
class AmguConfig:
    algorithm: AlgorithmId = AlgorithmId.AMGU3
    trade_efficiency: bool = False
    order: str = "given"
    early_prune: bool = True
    file_bound: int = 16

    def __post_init__(self) -> None:
        if self.order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}")
        if self.file_bound < 1:
            raise ValueError("file_bound must be positive")


@dataclass(frozen=True)
class AnalysisProblem:
    """One unit of analysis: an initial state, optional groundness context,
    and the equations to solve abstractly, in order."""

    universe: VariableUniverse
    initial: SharingTriple
    formula: PosFormula | None  # None means true (no groundness information)
    equations: EquationSet

    def __post_init__(self) -> None:
        if self.initial.universe != self.universe:
            raise ValueError("initial state is over a different universe")
        if self.formula is not None and self.formula.universe != self.universe:
            raise ValueError("groundness formula is over a different universe")
        for eq in self.equations:
            self.universe.term_mask(eq.lhs)
            self.universe.term_mask(eq.rhs)


def _combine(
    rel_s: tuple[int, ...],
    rel_t: tuple[int, ...],
    chi_s: int,
    chi_t: int,
    guard: int,
    trade: bool,
    s_mask: int,
    t_mask: int,
) -> tuple[int, ...]:
    """The replacement region for the relevant groups, by multiplicity case.

    A linear side needs no closure on the opposite side; when both sides are
    linear the two single-closure results are intersected, unless the caller
    trades that precision for one closure on the smaller side.

    When neither side is linear, the region is the guarded pairwise union of
    the two closures, ``pairwise_union(cl(rel_s), cl(rel_t))``. It is
    computed as one closure of ``rel_s ∪ rel_t``, keeping the groups that
    meet both ``s_mask`` and ``t_mask`` (the star-union form of the Sharing
    amgu, Jacobs and Langen, JLP 1992). This is exact for any guard F.
    ``cl(A)`` under F is the set of unions of the non-empty subsets of A
    whose members are pairwise disjoint on F, and ``pairwise_union`` joins
    ``a`` and ``b`` when ``a == b`` or ``a & b & F == 0``.

    - Every pairwise group is kept. For ``a == b``, ``a`` is in
      ``cl(rel_s) ⊆ cl(rel_s ∪ rel_t)`` and meets both sides. Otherwise
      ``a = ∪A'`` and ``b = ∪B'`` with ``a & b & F == 0``, so every member
      of A' is disjoint on F from every other member of B'. Then A' ∪ B' is
      pairwise disjoint on F, its union is ``a | b``, and that union meets
      s through A' and t through B'.
    - Every kept group is pairwise. Let C ⊆ rel_s ∪ rel_t be pairwise
      disjoint on F with a union that meets s and t. Every group meeting s
      is in rel_s, so C ∩ rel_s is not empty. If C ⊄ rel_s, take
      ``a = ∪(C ∩ rel_s)`` and ``b = ∪(C ∖ rel_s)``, with C ∖ rel_s ⊆ rel_t.
      Otherwise some c in C meets t, so c is in rel_t: if C = {c}, take
      ``a = b = c``; else take ``a = ∪(C ∖ {c})`` and ``b = c``. Either way
      the two parts share no member, so ``a & b & F == 0``.
    """
    if chi_s == 1 and chi_t == 1:
        if trade:
            if len(rel_s) <= len(rel_t):
                return pairwise_union(union_closure(rel_s, guard), rel_t, guard)
            return pairwise_union(rel_s, union_closure(rel_t, guard), guard)
        left = pairwise_union(union_closure(rel_s, guard), rel_t, guard)
        right = pairwise_union(rel_s, union_closure(rel_t, guard), guard)
        return tuple(sorted(set(left) & set(right)))
    if chi_s == 1:
        return pairwise_union(union_closure(rel_s, guard), rel_t, guard)
    if chi_t == 1:
        return pairwise_union(rel_s, union_closure(rel_t, guard), guard)
    return tuple(
        g for g in union_closure(rel_s + rel_t, guard) if g & s_mask and g & t_mask
    )


def _ground_trimmed_region(
    universe: VariableUniverse,
    rel_free: tuple[int, ...],
    rel_other: tuple[int, ...],
    free_var: Variable,
    other_mask: int,
    free: int,
) -> tuple[int, ...]:
    """Region for a free variable against a compound: binding the variable
    makes it ground exactly when the compound's variables outside its own
    group are; groups contradicting that dependency are trimmed away."""
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


def _amgu_raw(
    universe: VariableUniverse,
    groups: tuple[int, ...],
    free: int,
    linear: int,
    s: Term,
    t: Term,
    variant: int,
    trade: bool,
) -> tuple[tuple[int, ...], int, int]:
    """One abstract unification step over raw masks (no normalisation)."""
    s_mask = universe.term_mask(s)
    t_mask = universe.term_mask(t)
    rel_s = relevant(groups, s_mask)
    rel_t = relevant(groups, t_mask)
    s_free = isinstance(s, Variable) and bool(universe.bit(s) & free)
    t_free = isinstance(t, Variable) and bool(universe.bit(t) & free)
    chi_s = abstract_multiplicity(s, groups, linear, universe)
    chi_t = abstract_multiplicity(t, groups, linear, universe)

    if variant == 1 and (s_free or t_free):
        region = pairwise_union(rel_s, rel_t)
    elif variant == 3 and s_free and isinstance(t, Compound):
        region = _ground_trimmed_region(universe, rel_s, rel_t, s, t_mask, free)
    elif variant == 3 and t_free and isinstance(s, Compound):
        region = _ground_trimmed_region(universe, rel_t, rel_s, t, s_mask, free)
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


def _amgu(
    triple: SharingTriple, s: Term, t: Term, variant: int, trade: bool
) -> SharingTriple:
    g, f, l = _amgu_raw(
        triple.universe, triple.groups, triple.free, triple.linear, s, t, variant, trade
    )
    return SharingTriple.make(triple.universe, g, f, l)


def amgu1(
    triple: SharingTriple, s: Term, t: Term, trade_efficiency: bool = False
) -> SharingTriple:
    """Solve ``s = t`` abstractly, exploiting linearity on either side without
    any independence requirement; a free side needs no closure at all."""
    return _amgu(triple, s, t, 1, trade_efficiency)


def amgu2(
    triple: SharingTriple, s: Term, t: Term, trade_efficiency: bool = False
) -> SharingTriple:
    """Like :func:`amgu1`, but closure and pairwise union refuse to merge
    distinct groups sharing a free variable; freeness is wholly absorbed
    into the guarded operations."""
    return _amgu(triple, s, t, 2, trade_efficiency)


def amgu3(
    triple: SharingTriple, s: Term, t: Term, trade_efficiency: bool = False
) -> SharingTriple:
    """Like :func:`amgu2`, plus per-group groundness trimming when a free
    variable meets a compound term."""
    return _amgu(triple, s, t, 3, trade_efficiency)


def decomposed_reference(
    triple: SharingTriple, s: Term, t: Term, file_bound: int = 16
) -> SharingTriple:
    """Reference algorithm: split the state into freeness blocks, run the
    plain step on each, and recombine (union of groups, intersection of the
    free and linear sets). Precise but exponential in the group count."""
    blocks = freeness_decomposition(triple.groups, triple.free, max_groups=file_bound)
    universe = triple.universe
    union_groups: set[int] = set()
    free_acc = universe.full_mask
    linear_acc = universe.full_mask
    for block in blocks:
        g, f, l = _amgu_raw(universe, block, triple.free, triple.linear, s, t, 1, False)
        union_groups.update(g)
        free_acc &= f
        linear_acc &= l
    return SharingTriple.make(universe, union_groups, free_acc, linear_acc)


def _step(triple: SharingTriple, eq: Equation, config: AmguConfig) -> SharingTriple:
    algo = config.algorithm
    if algo is AlgorithmId.AMGU1:
        return amgu1(triple, eq.lhs, eq.rhs, config.trade_efficiency)
    if algo is AlgorithmId.AMGU2:
        return amgu2(triple, eq.lhs, eq.rhs, config.trade_efficiency)
    if algo is AlgorithmId.AMGU3:
        return amgu3(triple, eq.lhs, eq.rhs, config.trade_efficiency)
    return decomposed_reference(triple, eq.lhs, eq.rhs, config.file_bound)


def fold_equations(
    triple: SharingTriple, equations: EquationSet, config: AmguConfig = AmguConfig()
) -> SharingTriple:
    """Solve the equations one by one in the configured order.

    ``ground-first`` schedules equations with a ground side before the rest
    (stable within each class); the result for any order is sound.
    """
    eqs = list(equations)
    if config.order == "ground-first":
        eqs.sort(
            key=lambda e: 0
            if term_multiplicity(e.lhs) == 0 or term_multiplicity(e.rhs) == 0
            else 1
        )
    for eq in eqs:
        triple = _step(triple, eq, config)
    return triple


def early_prune(
    formula: PosFormula | None, equations: EquationSet, triple: SharingTriple
) -> SharingTriple:
    """Trim the state before unification using the groundness consequences of
    the whole equation list.

    The variables ground in every model of the strengthened formula F ∧ E
    cannot share with anything; groups whose complement stops being a model
    are impossible and are dropped, free variables touching the ground set
    are demoted, and ground variables become linear.

    Each equation is ``(/\\ lhs) <-> (/\\ rhs)``, two definite clauses. When
    F is absent (true) or a conjunction of definite clauses, F ∧ E is
    definite, so its models are closed under intersection, and the
    all-true assignment is one of them. The intersection of its models is
    therefore its least model, which forward chaining finds. A group
    survives iff it misses that set and its complement satisfies every
    clause of F. Any other F keeps the explicit filter: its models that
    satisfy E are intersected in one pass, and a surviving group's
    complement must be a model of F.
    """
    universe = triple.universe
    full = universe.full_mask
    eq_masks = [
        (universe.term_mask(e.lhs), universe.term_mask(e.rhs)) for e in equations
    ]
    clauses = () if formula is None else formula.clauses
    if clauses is not None:
        ground = least_model([*eq_masks, *((rv, lv) for lv, rv in eq_masks), *clauses])
        new_groups = complements_satisfying(
            clauses, [g for g in triple.groups if not g & ground]
        )
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


def analyze(problem: AnalysisProblem, config: AmguConfig = AmguConfig()) -> SharingTriple:
    """Early pruning (when enabled) followed by the configured equation fold."""
    triple = problem.initial
    if config.early_prune:
        triple = early_prune(problem.formula, problem.equations, triple)
    return fold_equations(triple, problem.equations, config)
