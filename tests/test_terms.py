"""Terms, multiplicity, and variable universes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharelin import groundness, problem_io, terms
from sharelin.amgu import amgu1
from sharelin.sharing import SharingTriple
from sharelin.terms import (
    Compound,
    TermSummary,
    Variable,
    VariableUniverse,
    variable_counts,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
XYZ = VariableUniverse.of_names(["x", "y", "z"])


def term_vars(t):
    """The variables occurring in ``t``."""
    return frozenset(variable_counts(t))


def test_term_vars():
    assert term_vars(Compound("f", (x, Compound("g", (y, x))))) == {x, y}
    assert term_vars(Compound("a")) == frozenset()
    assert term_vars(z) == {z}


def test_term_multiplicity():
    # a term is ground when its summary has no variables, linear when none
    # repeats, and non-linear when one does
    assert XYZ.summarize(Compound("a")) == TermSummary(0, 0, 0)
    assert XYZ.summarize(Compound("f", (x, y, z))) == TermSummary(0b111, 0, 0)
    assert XYZ.summarize(Compound("f", (x, Compound("g", (x,))))) == TermSummary(0b1, 0b1, 0)


def test_summary_of_a_compound_names_a_variable_outside_the_universe():
    q = Variable("q")
    state = SharingTriple.from_names(XYZ, [("x",)], free=("x",))
    with pytest.raises(ValueError, match="^variable 'q' is not in the universe$"):
        XYZ.summarize(Compound("f", (x, Compound("g", (q,)))))
    with pytest.raises(ValueError, match="^variable 'q' is not in the universe$"):
        amgu1(state, Compound("f", (q,)), x)


def test_variable_counts():
    t = Compound("f", (x, Compound("g", (x, y))))
    assert variable_counts(t) == {x: 2, y: 1}


def _terms(variables):
    leaf = st.one_of(
        st.sampled_from(variables), st.just(Compound("a")), st.just(Compound("b"))
    )
    return st.recursive(
        leaf,
        lambda sub: st.builds(
            Compound, st.sampled_from(["f", "g"]), st.tuples(sub, sub)
        ),
        max_leaves=8,
    )


@given(_terms([x, y, z]))
def test_multiplicity_zero_iff_ground(t):
    assert (XYZ.summarize(t).mask == 0) == (not term_vars(t))


@given(_terms([x, y, z]))
def test_multiplicity_invariant_under_renaming(t):
    renaming = {x: Variable("p"), y: Variable("q"), z: Variable("r")}

    def rename(term):
        if isinstance(term, Variable):
            return renaming[term]
        return Compound(term.functor, tuple(rename(a) for a in term.args))

    pqr = VariableUniverse.of_names(["p", "q", "r"])
    assert pqr.summarize(rename(t)) == XYZ.summarize(t)


def test_universe_order_and_masks():
    u = VariableUniverse.of_names(["z", "x", "y"])
    assert u.names == ("z", "x", "y")
    assert u.index(x) == 1
    assert u.mask_of([x, y]) == 0b110
    assert u.vars_of_mask(0b101) == (Variable("z"), y)
    assert u.full_mask == 0b111
    assert u.term_mask(Compound("f", (x, x, y))) == 0b110


def test_universe_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError):
        VariableUniverse.of_names(["x", "x"])
    u = VariableUniverse.of_names(["x"])
    with pytest.raises(ValueError, match="not in the universe"):
        u.index(y)
    with pytest.raises(ValueError):
        VariableUniverse.of_names(f"v{i}" for i in range(65))


@pytest.mark.parametrize("name", ["{x}", "x,y", "x y", " x", "x ", "X", "Xy", "1x", "_x", "x-y"])
def test_universe_refuses_names_that_are_not_identifiers(name):
    # a printed state must parse back, so a name is an identifier of the
    # problem-file grammar
    with pytest.raises(ValueError, match="not an identifier"):
        VariableUniverse.of_names(["a", name])


def test_universe_refuses_the_formula_constant():
    # a pos line reads true as the constant, so no variable may be named so
    with pytest.raises(ValueError, match="'true' is the formula constant"):
        VariableUniverse.of_names(["x", "true"])
    assert VariableUniverse.of_names(["truex", "tru", "true_"]).names == ("truex", "tru", "true_")


def test_universe_accepts_identifiers():
    names = ["x", "xY", "a_1", "z9_Q"]
    assert VariableUniverse.of_names(names).names == tuple(names)


def test_token_regexes_embed_the_identifier():
    # one regex, built from terms.IDENTIFIER, tokenizes both grammars
    assert terms.TOKEN_RE.pattern == r"\s*(<->|->|[a-z][a-zA-Z0-9_]*|\S)"
    assert problem_io.TOKEN_RE is terms.TOKEN_RE
    assert groundness.TOKEN_RE is terms.TOKEN_RE
    text = "x1 <-> (y & ~z) -> w"
    tokens = ["x1", "<->", "(", "y", "&", "~", "z", ")", "->", "w"]
    assert problem_io._Line(text, 1).tokens == [*tokens, ""]
    assert groundness._tokenize(text) == tokens


def test_functor_identity_includes_arity():
    assert Compound("f", (x,)) != Compound("f", (x, x))
    assert Compound("a") == Compound("a", ())
