import itertools
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import formula_oracle as O
from bllp import formula as F
from bllp import lammu as L
from bllp import respoly as R
from bllp.formula import (
    LF,
    ShapeMismatch,
    alpha_eq,
    classify,
    formula_leq,
    free_rvars,
    lf,
    lf_alpha_eq,
    lf_bounded_sum,
    lf_leq,
    lf_neg,
    lf_shift,
    lf_subst,
    lf_sum,
    negate,
    subst_poly,
)
from bllp.record import _TABLE
from bllp.syntax import parse_formula, parse_lf, parse_poly, print_formula, print_lf

P = parse_poly


BOUNDS = ("1", "x", "x + 2", "bin(x,2)")


@st.composite
def formulas(draw, depth=3, bounds=BOUNDS):
    if depth == 0 or draw(st.booleans()):
        return draw(
            st.sampled_from(
                [F.Atom("V"), F.NegAtom("V"), F.Atom("W"), F.ONE_F, F.BOTTOM]
            )
        )
    kind = draw(st.sampled_from(["tensor", "par", "bang", "whynot"]))
    a = draw(formulas(depth=depth - 1, bounds=bounds))
    bound = P(draw(st.sampled_from(bounds)))
    match kind:
        case "tensor":
            return F.Tensor(a, draw(formulas(depth=depth - 1, bounds=bounds)))
        case "par":
            return F.Par(a, draw(formulas(depth=depth - 1, bounds=bounds)))
        case "bang":
            return F.Bang("y", bound, a if O.is_negative(a) else negate(a))
        case "whynot":
            return F.WhyNot("y", bound, a if O.is_positive(a) else negate(a))


def test_negate_units_and_atoms():
    assert negate(F.ONE_F) == F.BOTTOM
    assert negate(F.Atom("V")) == F.NegAtom("V")
    assert negate(parse_formula("!{x<p} ~V")) == parse_formula("?{x<p} V")


@settings(max_examples=80)
@given(formulas())
def test_negate_involutive_and_flips_polarity(f):
    assert negate(negate(f)) == f
    assert f.positive != negate(f).positive


@settings(max_examples=200, deadline=None)
@given(formulas(), st.sampled_from(["x", F.VACUOUS]), st.sampled_from(["0", "q", "q + 1"]))
def test_stored_facts_equal_their_definitions_and_are_computed_once(f, binder, label):
    # A structural copy holds no stored fact, so the first read below computes each one.
    f = O.negate(O.negate(f))
    names = repr(R._counter), repr(L._gen)
    for g in (f, negate(f)):
        assert g.positive == O.is_positive(g)
        assert negate(g) == O.negate(g) and negate(g) is negate(g)
        assert negate(negate(g)) == g
        # A dual is built through the intern hook, so the dual of a dual is
        # the table's node: ``g`` itself unless ``g`` is the bare copy ``f``
        # or a unit, whose dual is shared.
        assert negate(negate(g)) is g or g is f or type(g) in (F.One, F.Bottom)
        assert negate(negate(negate(negate(g)))) is negate(negate(g))
        assert free_rvars(g) == O.free_rvars(g) and free_rvars(g) is free_rvars(g)
        assert classify(g) == O.classify_walk(g) == O.classify(g)
        assert g._rvars is free_rvars(g) and g._kind is classify(g)
    a = lf(f, binder, P(label))
    assert lf_neg(a).formula is negate(a.formula) and lf_neg(lf_neg(a)) == a
    assert lf_neg(a).formula.positive != a.formula.positive == O.lf_positive(a)
    assert (repr(R._counter), repr(L._gen)) == names


def test_subst_identity():
    f = parse_formula("?{y<x} V")
    assert subst_poly(f, "x", R.pvar("x")) == f


def test_subst_simple():
    assert subst_poly(parse_formula("?{y<x} V"), "x", P("3")) == parse_formula(
        "?{y<3} V"
    )


def test_subst_shadowed_binder():
    f = parse_formula("!{x<p} ?{z<x} V")
    assert alpha_eq(subst_poly(f, "x", P("7")), f)


def test_subst_capture_avoided():
    f = parse_formula("!{y<p} ?{z<x + y} V")
    g = subst_poly(f, "x", P("y"))
    inner = g.body
    assert g.var != "y"
    assert "y" in inner.bound.free_vars()


def test_formula_leq_reflexive():
    f = parse_formula("!{x<p} (~V par ?{y<x} W)")
    assert formula_leq(f, f)


def test_formula_leq_bang_contravariant():
    assert formula_leq(parse_formula("!{x<p + 1} ~V"), parse_formula("!{x<p} ~V"))
    assert not formula_leq(parse_formula("!{x<p} ~V"), parse_formula("!{x<p + 1} ~V"))


def test_formula_leq_whynot_covariant():
    assert formula_leq(parse_formula("?{x<p} V"), parse_formula("?{x<p + 1} V"))


def test_lf_leq_negative_contravariant_label():
    n1 = parse_lf("<~V>[p + 1]")
    n2 = parse_lf("<~V>[p]")
    assert lf_leq(n1, n2)
    assert not lf_leq(n2, n1)


def test_lf_leq_positive_covariant_label():
    p1 = parse_lf("<V>[p]")
    p2 = parse_lf("<V>[p + 1]")
    assert lf_leq(p1, p2)
    assert not lf_leq(p2, p1)


def test_lf_leq_polarity_mismatch():
    with pytest.raises(ShapeMismatch):
        lf_leq(parse_lf("<V>[1]"), parse_lf("<~V>[1]"))


@settings(max_examples=80)
@given(formulas(), st.sampled_from(["0", "1", "q", "q + 1"]), st.sampled_from(["0", "2", "q"]))
def test_lf_leq_duality(f, l1, l2):
    a = lf(f, F.VACUOUS, P(l1))
    b = lf(f, F.VACUOUS, P(l2))
    assert lf_leq(a, b) == lf_leq(lf_neg(b), lf_neg(a))


def test_lf_sum_constant():
    a = parse_lf("<bot>[p]")
    b = parse_lf("<bot>[q]")
    assert lf_sum(a, b) == parse_lf("<bot>[p + q]")


def test_lf_sum_shifted():
    a = parse_lf("<?{z<x} V>[x<1]")
    b = lf_shift(a, "y")
    assert b.formula == parse_formula("?{z<y + 1} V")
    total = lf_sum(a, b)
    assert total.label == P("2")
    assert alpha_eq(total.formula, a.formula)


def test_lf_sum_shape_mismatch():
    a = parse_lf("<?{z<x} V>[x<1]")
    b = parse_lf("<?{z<y} V>[y<1]")
    with pytest.raises(ShapeMismatch):
        lf_sum(a, b)


def test_lf_sum_associative_where_defined():
    a = parse_lf("<~V>[p]")
    b = parse_lf("<~V>[q]")
    c = parse_lf("<~V>[1]")
    assert lf_sum(lf_sum(a, b), c) == lf_sum(a, lf_sum(b, c))


def test_bounded_sum_constant_family():
    fam = parse_lf("<~V>[r]")
    out = lf_bounded_sum("z", P("q"), fam)
    assert out == parse_lf("<~V>[r*q]")


def test_bounded_sum_needs_witness():
    with pytest.raises(ShapeMismatch):
        lf_bounded_sum("z", P("q"), lf(parse_formula("?{u<z} V"), F.VACUOUS, P("1")))
    with pytest.raises(ShapeMismatch):
        lf_bounded_sum("z", P("q"), lf(parse_formula("?{u<x} V"), "x", P("1")))


def test_verify_bounded_sum_wrong_label():
    fam = parse_lf("<~V>[r]")
    assert O.verify_bounded_sum(parse_lf("<~V>[r*q]"), "z", P("q"), fam)
    assert not O.verify_bounded_sum(parse_lf("<~V>[r*q + 1]"), "z", P("q"), fam)


def test_bounded_sum_witnessed_shift_family():
    # family M = N{x/y + sum(u<z, 1)} with N = ?{w<x} V, per-index label 1
    base = parse_formula("?{w<x} V")
    fam_formula = parse_formula("?{w<y + z} V")
    fam = lf(fam_formula, "y", P("1"))
    out = lf_bounded_sum("z", P("q"), fam, witness=(base, "x"))
    assert out.binder == "x"
    assert alpha_eq(out.formula, base)
    assert out.label == P("q")


def test_lemma_singleton_sum_collapses():
    # sum over z<1 of a constant family is subsumed by the z:=0 instance
    fam = parse_lf("<~V>[r]")
    total = lf_bounded_sum("z", P("1"), fam)
    inst = F.lf_subst(fam, "z", R.ZERO)
    assert lf_leq(total, inst)


def test_lf_instance_is_the_body_and_bound_at_zero():
    w = parse_formula("?{z<y + 1} (!{v<y + z} ~V)")
    assert F.lf_instance(w, "y") == parse_lf("<!{v<z} ~V>[z<1]")
    assert F.lf_instance(w, F.VACUOUS) == LF(w.body, "z", P("y + 1"))
    # A binder left unused at zero becomes vacuous.
    assert F.lf_instance(parse_formula("?{z<y} (!{v<1} ~V)"), "y") == parse_lf("<!{v<1} ~V>[0]")


def test_classify():
    assert classify(parse_formula("bot")) == "typing"
    assert classify(parse_formula("~X")) == "typing"
    assert classify(parse_formula("~X -[x<p]-> bot")) == "typing"
    assert classify(parse_formula("?{x<p} X")) == "modal"
    assert classify(parse_formula("V * V")) == "neither"
    assert classify(parse_formula("?{x<p} (X * X)")) == "neither"


@settings(max_examples=60)
@given(formulas())
def test_subst_commutes_with_negate(f):
    q = P("q + 1")
    assert alpha_eq(negate(subst_poly(f, "x", q)), subst_poly(negate(f), "x", q))


@settings(max_examples=60)
@given(formulas(), st.sampled_from(["0", "1", "q"]))
def test_lf_leq_antisymmetric(f, l):
    a = lf(f, F.VACUOUS, P(l))
    b = lf(f, F.VACUOUS, P(l) + P("1"))
    if O.is_negative(f):
        assert lf_leq(b, a) and not lf_leq(a, b)
    else:
        assert lf_leq(a, b) and not lf_leq(b, a)


def test_substitution_monotone():
    # a ⊒ b implies the shifted instances remain comparable
    a = parse_formula("?{z<x + 1} V")
    b = parse_formula("?{z<x} V")
    assert formula_leq(b, a)
    shift = P("y + 3")
    assert formula_leq(subst_poly(b, "x", shift), subst_poly(a, "x", shift))


# -- equal-operand exits against the long way ----------------------------------

# Bounds that also mention the binder ``y`` of an enclosing modality, so
# renaming binders changes the formula.
BINDER_BOUNDS = BOUNDS + ("y", "y + x", "bin(y,2) + 1")


def rename_binders(f):
    """A copy of ``f`` with every non-vacuous binder renamed to a new name."""
    match f:
        case F.Tensor(l, r) | F.Par(l, r):
            return type(f)(rename_binders(l), rename_binders(r))
        case F.Bang(x, p, n) | F.WhyNot(x, p, n):
            if x != F.VACUOUS:
                x2 = R.fresh_var(x)
                n = subst_poly(n, x, R.pvar(x2))
                x = x2
            return type(f)(x, p, rename_binders(n))
    return f


@st.composite
def formula_pairs(draw):
    """Pairs that are identical, equal copies, renamed, shifted or unrelated."""
    a = draw(formulas(bounds=BINDER_BOUNDS))
    kind = draw(st.sampled_from(["same", "copy", "renamed", "shifted", "unrelated"]))
    match kind:
        case "same":
            b = a
        case "copy":
            b = parse_formula(print_formula(a))
            assert b == a
        case "renamed":
            b = rename_binders(a)
        case "shifted":
            b = subst_poly(a, "x", P(draw(st.sampled_from(["x + 1", "2*x", "0"]))))
        case "unrelated":
            b = draw(formulas(bounds=BINDER_BOUNDS))
    return (b, a) if draw(st.booleans()) else (a, b)


@st.composite
def lf_pairs(draw):
    a, b = draw(formula_pairs())
    labels = st.sampled_from(["0", "1", "q", "q + 1", "2*q"])
    la = lf(a, draw(st.sampled_from(["x", F.VACUOUS])), P(draw(labels)))
    if draw(st.booleans()):
        return la, lf(b, la.binder, la.label)
    return la, lf(b, draw(st.sampled_from(["x", "z", F.VACUOUS])), P(draw(labels)))


def outcome(fn, a, b):
    try:
        return fn(a, b)
    except ShapeMismatch:
        return ShapeMismatch


@settings(max_examples=200, deadline=None)
@given(formula_pairs())
def test_formula_comparisons_agree_with_the_long_way(pair):
    a, b = pair
    assert alpha_eq(a, b) == O.alpha_eq(a, b)
    assert formula_leq(a, b) == O.formula_leq(a, b)


@settings(max_examples=200, deadline=None)
@given(lf_pairs())
def test_lf_comparisons_agree_with_the_long_way(pair):
    a, b = pair
    assert lf_alpha_eq(a, b) == O.lf_alpha_eq(a, b)
    assert outcome(lf_leq, a, b) == outcome(O.lf_leq, a, b)


# Binder names that recur and a vacuous one; ``p`` is never bound.
NAMES = ("x", "y", "z", F.VACUOUS)
NAME_BOUNDS = ("1", "p", "x", "y + 1", "x + z", "bin(y,2) + p")


@st.composite
def named_formulas(draw, depth=3):
    """Formulas whose binders reuse the names of :data:`NAMES`."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([F.Atom("V"), F.NegAtom("V"), F.ONE_F, F.BOTTOM]))
    kind = draw(st.sampled_from(["tensor", "par", "bang", "whynot"]))
    a = draw(named_formulas(depth=depth - 1))
    if kind in ("tensor", "par"):
        return (F.Tensor if kind == "tensor" else F.Par)(a, draw(named_formulas(depth=depth - 1)))
    x, bound = draw(st.sampled_from(NAMES)), P(draw(st.sampled_from(NAME_BOUNDS)))
    if kind == "bang":
        return F.Bang(x, bound, a if O.is_negative(a) else negate(a))
    return F.WhyNot(x, bound, a if O.is_positive(a) else negate(a))


def rename_to(f, draw):
    """``f`` with each used binder renamed to ``x``, ``y``, ``z`` or ``u``,
    which may capture a free variable of the same name."""
    match f:
        case F.Tensor(l, r) | F.Par(l, r):
            return type(f)(rename_to(l, draw), rename_to(r, draw))
        case F.Bang(x, p, n) | F.WhyNot(x, p, n):
            x2 = draw(st.sampled_from(("x", "y", "z", "u")))
            if x != F.VACUOUS:
                n, x = subst_poly(n, x, R.pvar(x2)), x2
            return type(f)(x, p, rename_to(n, draw))
    return f


def bump(f):
    """``f`` with one added to the bound of its first modality in pre-order."""
    match f:
        case F.Tensor(l, r) | F.Par(l, r):
            l2 = bump(l)
            return type(f)(l2, bump(r) if l2 == l else r)
        case F.Bang(x, p, n) | F.WhyNot(x, p, n):
            return type(f)(x, p + 1, n)
    return f


@st.composite
def binder_pairs(draw):
    """``(a, b, (x, y))``: ``a`` under a binder ``x`` and ``b`` under ``y``;
    ``b`` may be ``a`` itself, under another binder."""
    a, x, y = draw(named_formulas()), draw(st.sampled_from(NAMES)), draw(st.sampled_from(NAMES))
    kind = draw(st.sampled_from(["same", "renamed", "bumped", "unrelated"]))
    if kind == "unrelated":
        return a, draw(named_formulas()), (x, y)
    b = a
    if kind != "same":
        if x != F.VACUOUS and y != F.VACUOUS:
            b = subst_poly(b, x, R.pvar(y))
        b = rename_to(b, draw)
    if kind == "bumped":
        b = bump(b)
    return (a, b, (x, y)) if draw(st.booleans()) else (b, a, (y, x))


def pf(text):
    return parse_formula(text)


@settings(max_examples=400, deadline=None)
@given(binder_pairs(), st.sampled_from(["1", "q", "q + 1"]), st.sampled_from(["1", "q + 1"]))
# An inner binder that shadows a paired one, on one side and on both.
@example((pf("!{x<1} ?{w<x} V"), pf("!{z<1} ?{w<y} V"), ("x", "y")), "1", "1")
@example((pf("!{x<1} ?{w<x} V"), pf("!{z<1} ?{w<z} V"), ("x", "y")), "1", "1")
@example((pf("!{x<x} ?{w<x} V"), pf("!{y<y} ?{w<y} V"), ("x", "y")), "1", "1")
# A free variable named like the other side's binder.
@example((pf("?{w<y} V"), pf("?{w<y} V"), ("x", "y")), "q", "q")
@example((pf("!{y<1} ?{w<x} V"), pf("!{x<1} ?{w<x} V"), (F.VACUOUS, F.VACUOUS)), "1", "1")
# A vacuous binder against an unused and against a used one.
@example((pf("?{w<1} V"), pf("?{w<1} V"), (F.VACUOUS, "y")), "1", "1")
@example((pf("?{w<y} V"), pf("?{w<y} V"), (F.VACUOUS, "y")), "1", "1")
@example((pf("!{_<1} ?{w<p} V"), pf("!{x<1} ?{w<x + p} V"), ("z", "z")), "1", "1")
# Three nested binders that reuse names, α-equal and not.
@example((pf("!{x<1} ?{x<x} !{x<x + 1} ~V"), pf("!{y<1} ?{z<y} !{y<z + 1} ~V"), ("x", "y")), "q", "q")
@example((pf("!{x<1} ?{x<x} !{x<x + 1} ~V"), pf("!{y<1} ?{z<y} !{y<y + 1} ~V"), ("x", "y")), "q", "q")
def test_comparisons_under_binder_pairs_agree_with_the_oracle(case, la, lb):
    a, b, binders = case
    assert alpha_eq(a, b, binders) == O.alpha_eq(a, b, binders)
    assert formula_leq(a, b, binders) == O.formula_leq(a, b, binders)
    x, y = binders
    fa, fb = LF(a, x, P(la)), LF(b, y, P(lb))
    assert lf_alpha_eq(fa, fb) == O.lf_alpha_eq(fa, fb)
    assert outcome(lf_leq, fa, fb) == outcome(O.lf_leq, fa, fb)


def test_binder_pair_cases_have_the_expected_answers():
    shadowed = pf("!{x<1} ?{w<x} V")
    assert alpha_eq(shadowed, pf("!{z<1} ?{w<z} V"), ("x", "y"))
    assert not alpha_eq(shadowed, pf("!{z<1} ?{w<y} V"), ("x", "y"))
    assert not alpha_eq(pf("?{w<y} V"), pf("?{w<y} V"), ("x", "y"))
    shared = pf("?{w<y} V")  # one object on both sides, read under x and y
    assert not alpha_eq(F.Par(shared, shared), F.Par(shared, shared), ("x", "y"))
    assert alpha_eq(F.Par(shared, shared), F.Par(shared, shared), ("y", "y"))
    assert alpha_eq(pf("?{w<1} V"), pf("?{w<1} V"), (F.VACUOUS, "y"))
    assert not alpha_eq(pf("?{w<y} V"), pf("?{w<y} V"), (F.VACUOUS, "y"))
    nested = pf("!{x<1} ?{x<x} !{x<x + 1} ~V")
    assert alpha_eq(nested, pf("!{y<1} ?{z<y} !{y<z + 1} ~V"))
    assert not alpha_eq(nested, pf("!{y<1} ?{z<y} !{y<y + 1} ~V"))
    assert formula_leq(pf("?{w<x} V"), pf("?{w<y + 1} V"), ("x", "y"))
    assert not formula_leq(pf("?{w<y + 1} V"), pf("?{w<x} V"), ("y", "x"))


def test_renamed_and_copied_formulas_compare_equal():
    f = parse_formula("!{y<x} (~V par ?{z<y + 1} W)")
    for g in (f, parse_formula(print_formula(f)), rename_binders(f)):
        assert alpha_eq(f, g) and formula_leq(f, g) and formula_leq(g, f)
    assert rename_binders(f) != f


def test_lf_leq_polarity_mismatch_raises_on_any_operands():
    a = parse_lf("<V>[1]")
    with pytest.raises(ShapeMismatch):
        lf_leq(a, lf_neg(a))
    with pytest.raises(ShapeMismatch):
        lf_leq(lf_neg(a), a)


@st.composite
def typing_shapes(draw, depth=3):
    """Formulas built mostly from arrows, so every outcome of ``classify`` occurs."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(formulas(depth=1))
    n = draw(typing_shapes(depth=depth - 1))
    m = draw(typing_shapes(depth=depth - 1))
    return F.arrow(n, "y", P(draw(st.sampled_from(BOUNDS))), m)


@settings(max_examples=200, deadline=None)
@given(st.one_of(formulas(), typing_shapes()))
def test_classify_agrees_with_the_former_definition(f):
    for g in (f, negate(f), F.WhyNot("y", P("x"), negate(f)), F.WhyNot("y", P("x"), f)):
        assert classify(g) == O.classify(g)


def test_classify_reads_the_negation_off_its_operand():
    typing = parse_formula("~X -[x<p]-> bot")
    assert classify(typing) == "typing"
    assert classify(negate(typing)) == "neither"
    assert classify(F.WhyNot("y", P("1"), negate(typing))) == "modal"
    assert classify(F.WhyNot("y", P("1"), typing)) == "neither"
    assert classify(F.arrow(typing, "y", 1, typing)) == "typing"
    assert classify(F.arrow(F.Atom("X"), "y", 1, typing)) == "neither"


def test_negate_and_free_rvars_of_depth_10_4_chains_need_no_recursion():
    depth = 10_000
    assert depth > sys.getrecursionlimit()
    text = "!{1} " * depth + "X"
    f = parse_formula(text)
    for g in (negate(f), parse_formula("~" + text)):
        node = g
        for _ in range(depth):
            assert type(node) is F.WhyNot and node.var == F.VACUOUS
            node = node.body
        assert type(node) is F.NegAtom and node.name == "X"
    assert negate(negate(f)) is f
    assert free_rvars(f) == frozenset()
    chain = "!{y<x} " * depth + "X"
    assert free_rvars(parse_formula(chain)) == {"x"}
    # The label binder is kept only where the formula reads it.
    assert parse_lf("<" + "!{x<1} " * depth + "X>[x<1]").binder == F.VACUOUS
    assert parse_lf("<" + chain + ">[x<1]").binder == "x"


def test_depth_10_4_formulas_and_labelled_formulas_compare_and_hash():
    """The intern hook stores each node's hash, computed from its children's
    stored ones, so neither ``==`` nor ``hash`` walks a built formula."""
    depth = 10_000
    assert depth > sys.getrecursionlimit()
    t = "!{1} " * depth + "X"
    assert parse_formula(t) == parse_formula(t)
    assert hash(parse_formula(t)) == hash(parse_formula(t))
    s = "<" + "!{x<1} " * depth + "X>[x<1]"
    assert parse_lf(s) == parse_lf(s)
    assert hash(parse_lf(s)) == hash(parse_lf(s))
    # The stored hash is the field-tuple hash, which a bare copy (built by
    # the class calls, outside the table) computes by walking.
    for text in ("!{1} " * 300 + "X", "?{x<y + 1} (V * ~W) par bot", "1 * !{z<y} ~V"):
        f = parse_formula(text)
        bare = O.negate(O.negate(f))
        assert bare is not f and bare == f and hash(bare) == hash(f)
        a = lf(f, "y", P("q"))
        assert hash(a) == hash(F.LF(bare, a.binder, a.label)) == hash((a.formula, a.binder, a.label))


def test_formulas_over_equal_but_distinct_polynomials_are_one_object():
    """Each parse builds its own ``y + 1``; the table keys a polynomial by
    value, so the two depth-10⁴ chains are one object and compare at once."""
    t = "!{x<y + 1} " * 10_000 + "X"
    a, b = parse_formula(t), parse_formula(t)
    assert a.bound is not P("y + 1") and a is b and a == b


@pytest.mark.parametrize("call", ["parse_lf", "lf_subst", "print_lf"])
def test_repeated_symbolic_calls_leave_the_intern_table_as_it_was(call):
    """Each call builds its polynomials afresh: parsing a bound, substituting
    a label variable, renaming a generated binder for printing."""
    a = parse_lf("<!{x<y + 1} X>[z<y]")
    shifted = lf_shift(lf(parse_formula("!{x<y + 1} X"), "y", R.pvar("q")), R.fresh_var("y"))
    assert shifted.binder.startswith("#")
    run = {
        "parse_lf": lambda: parse_lf("<!{x<y + 1} X>[z<y]"),
        "lf_subst": lambda: lf_subst(a, "y", R.pvar("w")),
        "print_lf": lambda: print_lf(shifted),
    }[call]
    run()
    size = len(_TABLE)
    for _ in range(1000):
        run()
    assert len(_TABLE) == size


def _from_counter(start: int, fn, *args):
    """``fn(*args)`` with the fresh-name counter set to ``start``, and the
    counter's next value after it."""
    saved = R._counter
    R._counter = itertools.count(start)
    try:
        return fn(*args), next(R._counter)
    finally:
        R._counter = saved


@settings(max_examples=300, deadline=None)
@given(named_formulas(depth=4), st.sampled_from(NAMES), st.sampled_from(NAME_BOUNDS + ("0", "x + y + z")))
def test_subst_poly_agrees_with_the_recursion_on_formula_and_fresh_names(f, var, q):
    assert _from_counter(1, subst_poly, f, var, P(q)) == _from_counter(1, O.subst_poly, f, var, P(q))


def test_subst_poly_renames_a_capturing_binder_before_entering_it():
    f = pf("!{x<y} (?{y<x} V par !{x<y} ~V)")
    got, after = _from_counter(7, subst_poly, f, "y", R.pvar("x"))
    assert (got, after) == _from_counter(7, O.subst_poly, f, "y", R.pvar("x"))
    # !{#x7<x} (?{y<#x7} V par !{#x8<x} ~V)
    assert got.var == "#x7" and got.bound == R.pvar("x") and after == 9
    assert got.body.left == F.WhyNot("y", R.pvar("#x7"), F.Atom("V"))
    assert got.body.right == F.Bang("#x8", R.pvar("x"), F.NegAtom("V"))


def test_subst_poly_of_depth_10_4_chains_needs_no_recursion():
    depth = 10_000
    assert depth > sys.getrecursionlimit()
    # every binder captures the substituted ``x`` and is renamed
    g = subst_poly(parse_formula("!{x<1} " * depth + "X"), "y", R.pvar("x"))
    names, node = set(), g
    for _ in range(depth):
        assert type(node) is F.Bang and node.bound == R.ONE and node.var.startswith("#x")
        names.add(node.var)
        node = node.body
    assert node == F.Atom("X") and len(names) == depth
    # every bound mentions the substituted variable
    node = subst_poly(parse_formula("?{y<x} " * depth + "~X"), "x", P("2"))
    for _ in range(depth):
        assert type(node) is F.WhyNot and node.var == "y" and node.bound == R.const(2)
        node = node.body
    assert node == F.NegAtom("X")
