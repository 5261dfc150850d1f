"""Randomised oracle harness.

Each trial draws a satisfiable base system ``E0``, takes its exact
abstraction (occurrence groups, free variables, linear variables, and the
groundness formula of its solved form) as the starting state, then solves a
further random equation list ``E'`` abstractly and asks the concrete oracle
whether every claimed property still holds for ``E0 + E'``. A counterexample
is reported as a replayable problem file: the analysis input plus ``# e0``
comment lines recording the base system.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cache

from .amgu import (
    AnalysisProblem,
    amgu1,
    amgu2,
    amgu3,
    compile_equations,
    decomposed_reference,
    early_prune,
)
from .concrete import SolvedFormMasks, solved_form_masks, system_masks, unify
from .groundness import trim
from .problem_io import SemanticError, format_equation, parse_equation, parse_problem, print_problem
from .sharing import SharingTriple, group_vars, mask_multiplicity, pairwise_union, relevant
from .terms import Compound, Equation, EquationSet, Term, Variable, VariableUniverse

FUNCTORS = (("a", 0), ("f", 1), ("g", 2), ("h", 3))
CONSTANT = Compound("a")  # the leaf a term draws in place of a variable
MAX_PERMUTATIONS = 6


@dataclass(frozen=True)
class FuzzLimits:
    max_vars: int = 4
    max_depth: int = 3
    max_eqs: int = 3
    file_bound: int = 8


@dataclass(frozen=True)
class Violation:
    trial: int
    prop: str
    detail: str
    problem_text: str

    def render(self) -> str:
        header = f"# counterexample trial={self.trial} property={self.prop}\n# {self.detail}\n"
        return header + self.problem_text


@dataclass
class FuzzReport:
    seed: int
    trials: int
    checked: int = 0
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def count(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1


def random_term(rng: random.Random, variables: tuple[Variable, ...], depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.35:
        if variables and rng.random() < 0.8:
            return rng.choice(variables)
        return CONSTANT
    functor, arity = rng.choice(FUNCTORS)
    return Compound(functor, tuple([random_term(rng, variables, depth - 1) for _ in range(arity)]))


def random_equation(rng: random.Random, variables: tuple[Variable, ...], depth: int) -> Equation:
    if variables and rng.random() < 0.5:
        return Equation(rng.choice(variables), random_term(rng, variables, depth))
    return Equation(random_term(rng, variables, depth), random_term(rng, variables, depth))


@dataclass(frozen=True)
class Instance:
    universe: VariableUniverse
    base: tuple[Equation, ...]       # satisfiable, unless read back by replay
    equations: tuple[Equation, ...]  # at least one
    # the base's exact abstraction, None when the base does not unify;
    # computed here when not given
    base_exact: SolvedFormMasks | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_exact is None:
            object.__setattr__(self, "base_exact", system_masks(self.base, self.universe))


@cache
def _universe(n: int) -> VariableUniverse:
    """The trial universe ``x1 .. xn``, built once per size."""
    return VariableUniverse.of_names(f"x{i}" for i in range(1, n + 1))


def generate_instance(rng: random.Random, limits: FuzzLimits) -> Instance:
    while True:
        universe = _universe(rng.randint(1, limits.max_vars))
        variables = universe.variables
        base = tuple(
            random_equation(rng, variables, limits.max_depth)
            for _ in range(rng.randint(0, limits.max_eqs))
        )
        exact = system_masks(base, universe)
        if exact is None:
            continue
        equations = tuple(
            random_equation(rng, variables, limits.max_depth)
            for _ in range(rng.randint(1, limits.max_eqs))
        )
        return Instance(universe, base, equations, exact)


def _exact_state(exact: SolvedFormMasks, universe: VariableUniverse) -> SharingTriple:
    return SharingTriple.make(universe, exact.groups, exact.free, exact.linear)


def exact_abstraction(universe: VariableUniverse, equations: tuple[Equation, ...]):
    """The strongest state and formula describing the system's solved form."""
    rsf = unify(equations).solved_form
    exact = solved_form_masks(rsf, universe)
    return rsf, _exact_state(exact, universe), exact.groundness


def replay_text(instance: Instance, equations: EquationSet) -> str:
    """The file that :func:`replay` reads for the instance with its
    equations in the given order: a ``# e0`` line per base equation, then
    the base's exact abstraction as a problem over the equations."""
    exact, universe = instance.base_exact, instance.universe
    problem = AnalysisProblem(universe, _exact_state(exact, universe), exact.groundness, equations)
    return "".join(f"# e0 {format_equation(eq)}\n" for eq in instance.base) + print_problem(problem)


def _result_invariants(result: SharingTriple) -> str | None:
    if 0 not in result.groups:
        return "result lost the empty group"
    if result.free & ~result.linear:
        return "a free variable is not linear in the result"
    if group_vars(result.groups) & ~result.universe.full_mask:
        return "result groups escape the universe"
    return None


def check_instance(
    instance: Instance,
    limits: FuzzLimits,
    trial: int = 0,
    report: FuzzReport | None = None,
) -> list:
    """Run the whole property battery on one instance.

    Each system (the base, base plus the first equation, base plus all
    equations, and the latter permuted) is abstracted by one
    :func:`system_masks` call, which reads its exact abstraction off the
    unifier's classes without building a solved form; the base's comes
    with the instance as :attr:`Instance.base_exact`. With one equation,
    base plus the first equation is the full system and is abstracted
    once. Every soundness check is then a mask comparison against that
    exact abstraction.

    One step memo serves the untraded single-step checks and every step of
    every fold. Its key is the step function, the state's groups, free and
    linear masks, and the compiled equation; its value is the step's
    result. Within a trial most steps repeat: pruning often leaves the
    start unchanged, equation orders share prefixes, and the first step of
    the given order from the unpruned start is the single-step call.
    Results are unchanged, since a step is a deterministic function of its
    key over the trial's universe. The memo lives for one trial.
    ``report.stats`` records how often the conditional checks actually
    fired, so a caller can tell a vacuous pass from a real one.
    """
    count = report.count if report is not None else (lambda key: None)
    violations: list[Violation] = []
    universe = instance.universe

    exact0 = instance.base_exact
    triple0, formula0 = _exact_state(exact0, universe), exact0.groundness
    step, full_system = instance.equations[:1], instance.base + instance.equations
    full_exact = system_masks(full_system, universe)
    if len(instance.equations) == 1:
        step_exact = full_exact
    else:
        step_exact = system_masks(instance.base + step, universe)

    def record(prop: str, detail: str, equations=instance.equations) -> None:
        violations.append(Violation(trial, prop, detail, replay_text(instance, equations)))

    # the given order is compiled once; every fold reads an order as the
    # permuted equations and their compiled forms, the given order first
    compiled = compile_equations(universe, instance.equations)
    orders = [
        (tuple(instance.equations[i] for i in perm), tuple(compiled[i] for i in perm))
        for perm in itertools.islice(
            itertools.permutations(range(len(compiled))), MAX_PERMUTATIONS
        )
    ]
    memo: dict = {}

    def memoized(fn, triple: SharingTriple, eq) -> SharingTriple:
        key = (fn, triple.groups, triple.free, triple.linear, eq)
        result = memo.get(key)
        if result is None:
            result = memo[key] = fn(triple, *eq)
        return result

    # every occurrence-group complement is a model of the groundness formula
    for label, exact in (("base", exact0), ("full", full_exact)):
        if exact is not None and len(trim(exact.groundness, exact.groups)) != len(exact.groups):
            record(
                "occurrence-complements-are-groundness-models",
                f"violated for the {label} system",
            )

    # solved forms do not depend on equation order; the formulas agree on
    # the ground variables, which tells multiplicity 0 from 1 where the
    # linear masks do not
    if full_exact is not None:
        shuffled = list(full_system)
        random.Random(trial).shuffle(shuffled)
        if system_masks(shuffled, universe) != full_exact:
            record("unify-order-insensitive", "permuted system abstracts differently")

    # single-step checks on the first equation, read from its summaries
    step_eq = s, t = compiled[0]
    step_sat = step_exact is not None
    algorithms = (("amgu1", amgu1), ("amgu2", amgu2), ("amgu3", amgu3))
    results = {}
    for name, fn in algorithms:
        result = memoized(fn, triple0, step_eq)
        results[name] = result
        bad = _result_invariants(result)
        if bad:
            record(f"{name}-invariants", bad, step)
        if step_sat and not step_exact.described_by(result):
            record(f"{name}-soundness", "result does not describe the solved form", step)
        widened = fn(triple0, s, t, trade_efficiency=True)
        if not set(result.groups) <= set(widened.groups):
            record(f"{name}-trade-widens", "trading efficiency produced a smaller group set", step)
        if step_sat and not step_exact.described_by(widened):
            record(f"{name}-trade-soundness", "traded result does not describe the solved form",
                   step)

    if not set(results["amgu3"].groups) <= set(results["amgu2"].groups) or not set(
        results["amgu2"].groups
    ) <= set(results["amgu1"].groups):
        record("precision-chain", "amgu3/amgu2/amgu1 group sets are not a chain", step)

    if step_sat:
        count("single-step-satisfiable")

    if len(triple0.groups) <= limits.file_bound:
        count("decomposed-checked")
        reference = decomposed_reference(triple0, s, t, file_bound=limits.file_bound)
        if not set(reference.groups) <= set(results["amgu2"].groups):
            record("decomposed-within-amgu2", "reference exceeded the amgu2 group set", step)
        if step_sat and not step_exact.described_by(reference):
            record("decomposed-soundness", "reference does not describe the solved form", step)

    # independence: with variable-disjoint relevant groups and both sides
    # linear, no closure is needed at all
    rel_s = relevant(triple0.groups, s.mask)
    rel_t = relevant(triple0.groups, t.mask)
    chi_s = mask_multiplicity(s.mask, s.repeated, triple0.groups, triple0.linear)
    chi_t = mask_multiplicity(t.mask, t.repeated, triple0.groups, triple0.linear)
    if group_vars(rel_s) & group_vars(rel_t) == 0 and chi_s == 1 and chi_t == 1:
        count("independence-checked")
        removed = set(rel_s) | set(rel_t)
        expected = sorted(
            {g for g in triple0.groups if g not in removed}
            | set(pairwise_union(rel_s, rel_t))
        )
        if list(results["amgu1"].groups) != expected:
            record("independence-identity", "independent linear sides should not need closure",
                   step)

    # full pipeline: every algorithm, pruning on and off, equation order
    # permuted, each fold a chain of memoized steps. Pruning reads the
    # equations as a set, so one pruned state serves every order.
    pruned = early_prune(formula0, instance.equations, triple0, compiled)
    for name, fn in algorithms:
        for prune, start in ((False, triple0), (True, pruned)):
            for k, (equations, order) in enumerate(orders):
                result = start
                for eq in order:
                    result = memoized(fn, result, eq)
                tag = f"analysis[{name},prune={'on' if prune else 'off'},perm={k}]"
                bad = _result_invariants(result)
                if bad:
                    record(tag + "-invariants", bad, equations=equations)
                if full_exact is not None:
                    count("analysis-satisfiable")
                    if not full_exact.described_by(result):
                        record(tag, "result does not describe the solved form",
                               equations=equations)

    return violations


def run_trials(seed: int, trials: int, limits: FuzzLimits = FuzzLimits()) -> FuzzReport:
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, trials=trials)
    for trial in range(trials):
        instance = generate_instance(rng, limits)
        report.violations.extend(check_instance(instance, limits, trial, report))
        report.checked += 1
    return report


def replay(text: str, limits: FuzzLimits = FuzzLimits()) -> list:
    """Re-run the property battery on a counterexample file.

    The base system is read back from the ``# e0`` comment lines; the
    recorded state and formula are cross-checked against it first.
    """
    problem = parse_problem(text)
    if not problem.equations:  # the single-step checks read the first equation
        raise SemanticError("a replayed file needs at least one 'eq' line", 1, 1)
    base: list[Equation] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip().startswith("# e0"):
            continue
        # blank out the prefix, so that columns still count from the line start
        start = raw.index("# e0") + len("# e0")
        base.append(parse_equation(" " * start + raw[start:], problem.universe, lineno))
    instance = Instance(problem.universe, tuple(base), problem.equations)
    if instance.base_exact is None:
        return [
            Violation(0, "replay-base-unsatisfiable", "recorded base system does not unify", text)
        ]
    exact0 = instance.base_exact
    stale: list[Violation] = []
    if _exact_state(exact0, problem.universe) != problem.initial:
        stale.append(
            Violation(0, "replay-state-mismatch",
                      "recorded state differs from the base system's abstraction", text)
        )
    formula0 = exact0.groundness
    # a file without a 'pos' line records 'true'
    if not (formula0.is_truth() if problem.formula is None else problem.formula == formula0):
        stale.append(
            Violation(0, "replay-formula-mismatch",
                      "recorded formula differs from the base system's groundness", text)
        )
    return stale + check_instance(instance, limits)
