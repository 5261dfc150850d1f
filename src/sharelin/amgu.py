"""Abstract unification: the three algorithm variants, the decomposed
reference, the lifting to equation lists, and early groundness pruning."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

from .groundness import PosFormula, complements_satisfying, least_model
from .sharing import (
    SharingTriple,
    freeness_decomposition,
    group_vars,
    mask_multiplicity,
    pairwise_union,
    relevant,
    union_closure,
)
from .terms import EquationSet, Term, TermSummary, VariableUniverse

# An equation with both sides summarized over a universe.
CompiledEquation = tuple[TermSummary, TermSummary]
# A step's side: a term, or its summary when the caller compiled it already.
Side = Term | TermSummary


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


def compile_equations(
    universe: VariableUniverse, equations: EquationSet
) -> tuple[CompiledEquation, ...]:
    """Summarize both sides of every equation; raises ``ValueError`` when a
    variable escapes the universe."""
    return tuple((universe.summarize(e.lhs), universe.summarize(e.rhs)) for e in equations)


@dataclass(frozen=True)
class AnalysisProblem:
    """One unit of analysis: an initial state, optional groundness context,
    and the equations to solve abstractly, in order.

    ``compiled`` holds the equations' side summaries, made once while the
    equations are validated; every analysis of the problem reuses them.
    """

    universe: VariableUniverse
    initial: SharingTriple
    formula: PosFormula | None  # None means true (no groundness information)
    equations: EquationSet
    compiled: tuple[CompiledEquation, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.initial.universe != self.universe:
            raise ValueError("initial state is over a different universe")
        if self.formula is not None and self.formula.universe != self.universe:
            raise ValueError("groundness formula is over a different universe")
        object.__setattr__(self, "compiled", compile_equations(self.universe, self.equations))


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
    full: int,
    rel_free: tuple[int, ...],
    rel_other: tuple[int, ...],
    fbit: int,
    other_mask: int,
    free: int,
) -> tuple[int, ...]:
    """Region for the free variable ``fbit`` against a compound: binding the
    variable makes it ground exactly when the compound's variables outside
    its own group are; groups contradicting that dependency are trimmed
    away."""
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
    s: TermSummary,
    t: TermSummary,
    variant: int,
    trade: bool,
) -> tuple[tuple[int, ...], int, int]:
    """One abstract unification step over raw masks (no normalisation)."""
    s_mask, t_mask = s.mask, t.mask
    rel_s = relevant(groups, s_mask)
    rel_t = relevant(groups, t_mask)
    s_free = bool(s.var_bit & free)
    t_free = bool(t.var_bit & free)
    chi_s = mask_multiplicity(s_mask, s.repeated, groups, linear)
    chi_t = mask_multiplicity(t_mask, t.repeated, groups, linear)
    full = universe.full_mask

    # a side with no variable bit is a compound term (possibly a constant)
    if variant == 1 and (s_free or t_free):
        region = pairwise_union(rel_s, rel_t)
    elif variant == 3 and s_free and not t.var_bit:
        region = _ground_trimmed_region(full, rel_s, rel_t, s.var_bit, t_mask, free)
    elif variant == 3 and t_free and not s.var_bit:
        region = _ground_trimmed_region(full, rel_t, rel_s, t.var_bit, s_mask, free)
    else:
        guard = 0 if variant == 1 else free
        region = _combine(rel_s, rel_t, chi_s, chi_t, guard, trade, s_mask, t_mask)

    removed = set(rel_s) | set(rel_t)
    new_groups = tuple(sorted({g for g in groups if g not in removed} | set(region)))
    grounded = full & ~group_vars(new_groups)
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


def _summary(universe: VariableUniverse, side: Side) -> TermSummary:
    return side if isinstance(side, TermSummary) else universe.summarize(side)


def _amgu(triple: SharingTriple, s: Side, t: Side, variant: int, trade: bool) -> SharingTriple:
    universe = triple.universe
    s, t = _summary(universe, s), _summary(universe, t)
    g, f, l = _amgu_raw(
        universe, triple.groups, triple.free, triple.linear, s, t, variant, trade
    )
    return SharingTriple.make(universe, g, f, l)


def amgu1(
    triple: SharingTriple, s: Side, t: Side, trade_efficiency: bool = False
) -> SharingTriple:
    """Solve ``s = t`` abstractly, exploiting linearity on either side without
    any independence requirement; a free side needs no closure at all.

    Each side is a term over the triple's universe, or its
    :class:`TermSummary` when the caller has compiled it already.
    """
    return _amgu(triple, s, t, 1, trade_efficiency)


def amgu2(
    triple: SharingTriple, s: Side, t: Side, trade_efficiency: bool = False
) -> SharingTriple:
    """Like :func:`amgu1`, but closure and pairwise union refuse to merge
    distinct groups sharing a free variable; freeness is wholly absorbed
    into the guarded operations."""
    return _amgu(triple, s, t, 2, trade_efficiency)


def amgu3(
    triple: SharingTriple, s: Side, t: Side, trade_efficiency: bool = False
) -> SharingTriple:
    """Like :func:`amgu2`, plus per-group groundness trimming when a free
    variable meets a compound term."""
    return _amgu(triple, s, t, 3, trade_efficiency)


def decomposed_reference(
    triple: SharingTriple, s: Side, t: Side, file_bound: int = 16
) -> SharingTriple:
    """Reference algorithm: split the state into freeness blocks, run the
    plain step on each, and recombine (union of groups, intersection of the
    free and linear sets). Precise but exponential in the group count."""
    blocks = freeness_decomposition(triple.groups, triple.free, max_groups=file_bound)
    universe = triple.universe
    s, t = _summary(universe, s), _summary(universe, t)
    union_groups: set[int] = set()
    free_acc = universe.full_mask
    linear_acc = universe.full_mask
    for block in blocks:
        g, f, l = _amgu_raw(universe, block, triple.free, triple.linear, s, t, 1, False)
        union_groups.update(g)
        free_acc &= f
        linear_acc &= l
    return SharingTriple.make(universe, union_groups, free_acc, linear_acc)


def _step(triple: SharingTriple, eq: CompiledEquation, config: AmguConfig) -> SharingTriple:
    algo = config.algorithm
    s, t = eq
    if algo is AlgorithmId.AMGU1:
        return amgu1(triple, s, t, config.trade_efficiency)
    if algo is AlgorithmId.AMGU2:
        return amgu2(triple, s, t, config.trade_efficiency)
    if algo is AlgorithmId.AMGU3:
        return amgu3(triple, s, t, config.trade_efficiency)
    return decomposed_reference(triple, s, t, config.file_bound)


def fold_compiled(
    triple: SharingTriple,
    compiled: tuple[CompiledEquation, ...],
    config: AmguConfig = AmguConfig(),
) -> SharingTriple:
    """:func:`fold_equations` over equations already compiled by
    :func:`compile_equations` (such as ``AnalysisProblem.compiled``)."""
    eqs = list(compiled)
    if config.order == "ground-first":
        eqs.sort(key=lambda e: 0 if e[0].mask == 0 or e[1].mask == 0 else 1)
    for eq in eqs:
        triple = _step(triple, eq, config)
    return triple


def fold_equations(
    triple: SharingTriple, equations: EquationSet, config: AmguConfig = AmguConfig()
) -> SharingTriple:
    """Solve the equations one by one in the configured order.

    ``ground-first`` schedules equations with a ground side before the rest
    (stable within each class); the result for any order is sound.
    """
    return fold_compiled(triple, compile_equations(triple.universe, equations), config)


def early_prune(
    formula: PosFormula | None,
    equations: EquationSet,
    triple: SharingTriple,
    compiled: tuple[CompiledEquation, ...] | None = None,
) -> SharingTriple:
    """Trim the state before unification using the groundness consequences of
    the whole equation list.

    The variables ground in every model of the strengthened formula F ∧ E
    cannot share with anything; groups whose complement stops being a model
    are impossible and are dropped, free variables touching the ground set
    are demoted, and ground variables become linear. A free variable that
    no surviving group holds is demoted too: it is ground there, and a
    state that calls it free describes no substitution.

    Each equation is ``(/\\ lhs) <-> (/\\ rhs)``, two definite clauses. When
    F is absent (true) or a conjunction of definite clauses, F ∧ E is
    definite, so its models are closed under intersection, and the
    all-true assignment is one of them. The intersection of its models is
    therefore its least model, which forward chaining finds. A group
    survives iff it misses that set and its complement satisfies every
    clause of F. Any other F keeps the explicit filter: its models that
    satisfy E are intersected in one pass, and a surviving group's
    complement must be a model of F.

    ``compiled``, when given, is ``compile_equations`` of the equations.
    """
    universe = triple.universe
    full = universe.full_mask
    if compiled is None:
        compiled = compile_equations(universe, equations)
    eq_masks = [(lhs.mask, rhs.mask) for lhs, rhs in compiled]
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
    free = triple.free & ~touched & group_vars(new_groups)
    return SharingTriple.make(universe, new_groups, free, triple.linear | ground)


def analyze(problem: AnalysisProblem, config: AmguConfig = AmguConfig()) -> SharingTriple:
    """Early pruning (when enabled) followed by the configured equation fold."""
    triple = problem.initial
    if config.early_prune:
        triple = early_prune(problem.formula, problem.equations, triple, problem.compiled)
    return fold_compiled(triple, problem.compiled, config)
