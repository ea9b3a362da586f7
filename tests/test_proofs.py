import random

import pytest

from bllp import corpus as C
from bllp import formula as F
from bllp import proofs as P
from bllp.formula import LF, lf, lf_alpha_eq, lf_leq, lf_neg
from bllp.proofs import (
    Proof,
    check_proof,
    classify_occurrence,
    erase,
    expose_logical,
    fire_logical,
    m_parsplit,
    m_split,
    m_subst,
    m_subtype,
    map_derivation,
    mk_ax,
    mk_bot,
    mk_cut,
    mk_one,
    mk_qw,
    mk_tensor,
    normalize,
    preweight,
    proof_sim,
    step_special,
    weight,
)
from bllp.respoly import ONE, ZERO, const, eval_poly, poly_leq, pvar
from bllp.syntax import parse_lf, parse_poly
from bllp.typecheck import add_to_mult

PL = parse_poly

X = F.NegAtom("X")
AX1 = mk_ax((lf(F.Atom("X"), F.VACUOUS, 1), lf(X, F.VACUOUS, 1)), lf(X, F.VACUOUS, 1))


def one_bot_proof(l1=1, l2=1):
    unit = mk_one(lf(F.ONE_F, F.VACUOUS, l1))
    return mk_bot(unit, 1, lf(F.BOTTOM, F.VACUOUS, l2))


def mapped(name):
    return map_derivation(add_to_mult(C.by_name(name).derivation))


def zero_eval(p):
    return eval_poly(p, {v: 0 for v in p.free_vars()})


# -- checking ----------------------------------------------------------------------


def test_axiom_accepts():
    assert check_proof(AX1).ok


def test_one_then_bot_accepts():
    assert check_proof(one_bot_proof()).ok


def test_tensor_label_condition():
    a1 = mk_ax((lf(F.Atom("V"), F.VACUOUS, 1), lf(F.NegAtom("V"), F.VACUOUS, 1)),
               lf(F.NegAtom("V"), F.VACUOUS, 1))
    good = mk_tensor(a1, AX1, 0, 0, lf(F.Tensor(F.Atom("V"), F.Atom("X")), F.VACUOUS, 1))
    assert check_proof(good).ok
    bad = mk_tensor(a1, AX1, 0, 0, lf(F.Tensor(F.Atom("V"), F.Atom("X")), F.VACUOUS, 2))
    assert not check_proof(bad).ok


def test_two_positives_rejected():
    bad = Proof("qw", (lf(F.Atom("V"), F.VACUOUS, 1), lf(F.Atom("W"), F.VACUOUS, 1)),
                (mk_one(lf(F.ONE_F, F.VACUOUS, 1)),), {"idx": 0})
    assert not check_proof(bad).ok


@pytest.mark.parametrize("name", [e.name for e in C.entries() if e.derivation])
def test_mapped_corpus_proofs_check(name):
    assert check_proof(mapped(name)).ok


def test_var_image_shape():
    pf = mapped("kappa").premise(0)
    # the hypothesis leaf maps to a dereliction over an axiom
    node = pf
    while node.premises:
        node = node.premise(0)
    assert node.rule == "ax"


def test_mu_name_image_is_bot_rule():
    m = add_to_mult(C.by_name("aleph").derivation)
    pf = map_derivation(m)
    rules = set()

    def visit(p):
        rules.add(p.rule)
        for q in p.premises:
            visit(q)

    visit(pf)
    assert "bot" in rules and "one" in rules and "cut" in rules


# -- erasure -----------------------------------------------------------------------


def test_proof_sim_reflexive():
    pf = mapped("identity-app")
    assert proof_sim(pf, pf)


def test_proof_sim_after_substitution():
    from bllp.respoly import add, mul

    r, s = pvar("r"), pvar("s")
    k = add(r, mul(s, r)) + const(1)
    pf = map_derivation(add_to_mult(C.kappa_derivation(r, s, k)))
    assert proof_sim(pf, m_subst(pf, "r", const(1)))


def test_different_trees_not_similar():
    assert not proof_sim(AX1, one_bot_proof())


# -- weights -----------------------------------------------------------------------


def test_weight_of_axiom_is_zero():
    assert weight(AX1) == ZERO


def test_weight_of_unit_rule_is_zero():
    assert weight(mk_one(lf(F.ONE_F, F.VACUOUS, 5))) == ZERO


def test_weight_of_unit_cut_is_one_and_drops():
    cut = mk_cut(one_bot_proof(), mk_one(lf(F.ONE_F, F.VACUOUS, 1)), 1, 0)
    assert check_proof(cut).ok
    assert weight(cut) == ONE
    reduct = fire_logical(cut, ())
    assert check_proof(reduct).ok
    assert weight(reduct) == ZERO


@pytest.mark.parametrize("n", [32, 64])
def test_weight_of_large_church_application(n):
    pf = map_derivation(add_to_mult(C.church_applied_derivation(n)))
    assert zero_eval(weight(pf)) == 8 * n + 3


def test_preweight_sets_are_disjoint():
    pw = preweight(mapped("kappa-callcc"))
    seen = set()
    for s in pw.sets:
        assert not (s & seen)
        seen |= s


# -- malleability -------------------------------------------------------------------


def test_m_subtype_weakens_conclusion():
    target = lf(X, F.VACUOUS, 2)
    out = m_subtype(AX1, 1, target)
    assert check_proof(out).ok and proof_sim(out, AX1)
    assert lf_alpha_eq(out.concl[1], target)


def test_m_subtype_rejects_incomparable():
    with pytest.raises(P.ProofError):
        m_subtype(AX1, 1, lf(F.NegAtom("Y"), F.VACUOUS, 1))


def test_m_subst_substitutes_throughout():
    pf = mk_ax(
        (lf(F.Atom("X"), F.VACUOUS, PL("r")), lf(X, F.VACUOUS, PL("r"))),
        lf(X, F.VACUOUS, PL("r")),
    )
    out = m_subst(pf, "r", const(4))
    assert check_proof(out).ok and proof_sim(out, pf)
    assert out.concl[0].label == const(4)


def test_m_split_axiom():
    a = mk_ax((lf(F.Atom("X"), F.VACUOUS, 2), lf(X, F.VACUOUS, 2)), lf(X, F.VACUOUS, 2))
    rho, sigma = m_split(a, ONE, ONE)
    for piece in (rho, sigma):
        assert check_proof(piece).ok and proof_sim(piece, a)
        assert all(x.label == ONE for x in piece.concl)


def test_m_split_needs_budget():
    with pytest.raises(P.ProofError):
        m_split(AX1, ONE, ONE)


def test_m_split_context_recombines():
    a = mk_ax((lf(F.Atom("X"), F.VACUOUS, 3), lf(X, F.VACUOUS, 3)), lf(X, F.VACUOUS, 3))
    rho, sigma = m_split(a, ONE, const(2))
    merged = F.lf_sum(rho.concl[1], sigma.concl[1])
    assert lf_leq(a.concl[1], merged)


def test_m_parsplit_singleton():
    a = mk_ax((lf(F.Atom("X"), F.VACUOUS, 2), lf(X, F.VACUOUS, 2)), lf(X, F.VACUOUS, 2))
    rho = m_parsplit(a, ONE, const(2))
    assert check_proof(rho).ok and proof_sim(rho, a)
    summed = F.lf_bounded_sum("b", ONE, rho.concl[1])
    assert lf_leq(summed, a.concl[1])


def test_m_parsplit_box():
    pf = mapped("identity-app")
    boxes = []

    def visit(p):
        if p.rule == "bang":
            boxes.append(p)
        for q in p.premises:
            visit(q)

    visit(pf)
    assert boxes
    box = boxes[0]
    rho = m_parsplit(box, ONE, box.concl[box.data["idx"]].label)
    assert check_proof(rho).ok and proof_sim(rho, box)


def _inflate(a: LF, rng: random.Random) -> LF:
    return LF(a.formula, a.binder, a.label + const(rng.randint(1, 3)))


def test_malleability_random_suite():
    rng = random.Random(7)
    pool = [mapped(e.name) for e in C.entries() if e.derivation]
    checked = 0
    for _ in range(100):
        pf = rng.choice(pool)
        idx = rng.randrange(len(pf.concl))
        a = pf.concl[idx]
        if F.lf_positive(a):
            continue
        out = m_subtype(pf, idx, _inflate(a, rng))
        assert check_proof(out).ok and proof_sim(out, pf)
        out2 = m_subst(out, "q", const(rng.randint(0, 3)))
        assert check_proof(out2).ok and proof_sim(out2, out)
        checked += 1
    assert checked >= 60


def test_split_suite_on_boxes():
    rng = random.Random(11)
    boxes = []

    def visit(p):
        if p.rule == "bang":
            boxes.append(p)
        for q in p.premises:
            visit(q)

    for e in C.entries():
        if e.derivation:
            visit(mapped(e.name))
    assert boxes
    from bllp.respoly import sub_checked

    for _ in range(40):
        box = rng.choice(boxes)
        idx = box.data["idx"]
        q = box.concl[idx].label
        rest = sub_checked(q, ONE)
        if rest is None:
            continue
        rho, sigma = m_split(box, ONE, rest)
        for piece in (rho, sigma):
            assert check_proof(piece).ok and proof_sim(piece, box)


# -- occurrences and cut elimination --------------------------------------------------


def test_classify_cut_formula_active():
    cut = mk_cut(one_bot_proof(), mk_one(lf(F.ONE_F, F.VACUOUS, 1)), 1, 0)
    assert classify_occurrence(cut, (0,), 1) == "active"
    assert classify_occurrence(cut, (0,), 0) == "passive"
    assert classify_occurrence(cut, (), 0) == "passive"


def test_expose_identity_on_logical_cut():
    cut = mk_cut(one_bot_proof(), mk_one(lf(F.ONE_F, F.VACUOUS, 1)), 1, 0)
    assert expose_logical(cut, ()) == cut


def test_expose_commutes_weakening():
    inner = mk_qw(one_bot_proof(), 2, lf(F.NegAtom("W"), F.VACUOUS, 1))
    cut = mk_cut(inner, mk_one(lf(F.ONE_F, F.VACUOUS, 1)), 1, 0)
    exposed = expose_logical(cut, ())
    assert weight(exposed) == weight(cut)
    node = exposed
    path = ()
    while node.rule != "cut":
        path = path + (0,)
        node = node.premise(0)
    assert node.premise(0).rule == "bot"


def test_expose_preserves_weight_everywhere():
    for name in ("kappa-callcc", "church-2-app"):
        pf = mapped(name)
        hit = step_special(pf)
        while hit is not None:
            assert weight(hit.exposed) == weight(pf)
            pf = hit.result
            hit = step_special(pf)


def test_special_steps_strictly_decrease_weight():
    for e in C.entries():
        if e.derivation is None:
            continue
        pf = mapped(e.name)
        hit = step_special(pf)
        while hit is not None:
            w0, w1 = weight(hit.exposed), weight(hit.result)
            assert poly_leq(w1, w0) and w0 != w1
            assert check_proof(hit.result).ok
            pf = hit.result
            hit = step_special(pf)


def test_normalize_within_weight():
    for e in C.entries():
        if e.derivation is None:
            continue
        pf = mapped(e.name)
        budget = zero_eval(weight(pf))
        nf, steps, exhausted = normalize(pf, fuel=budget + 1)
        assert not exhausted and steps <= budget
        assert step_special(nf) is None
        assert check_proof(nf).ok


def test_normal_form_conclusion_is_preserved():
    pf = mapped("church-1-app")
    nf, _, _ = normalize(pf)
    before = sorted(str(a) for a in pf.concl)
    after = sorted(str(a) for a in nf.concl)
    assert before == after


def test_expose_commutes_par_below_cut():
    # a par between the cut and the bottom introduction commutes away
    ax = mk_ax((lf(F.Atom("X"), F.VACUOUS, 1), lf(X, F.VACUOUS, 1)), lf(X, F.VACUOUS, 1))
    b1 = mk_bot(ax, 2, lf(F.BOTTOM, F.VACUOUS, 1))
    b2 = mk_bot(b1, 3, lf(F.BOTTOM, F.VACUOUS, 1))
    par = P.mk_par(b2, 1, 2, lf(F.Par(X, F.BOTTOM), F.VACUOUS, 1))
    assert check_proof(par).ok
    cut = mk_cut(par, mk_one(lf(F.ONE_F, F.VACUOUS, 1)), 2, 0)
    assert check_proof(cut).ok
    exposed = expose_logical(cut, ())
    assert exposed.rule == "par"
    inner = exposed.premise(0)
    assert inner.rule == "cut" and inner.premise(0).rule == "bot"
    assert weight(exposed) == weight(cut)
    assert check_proof(exposed).ok


def test_m_subst_commutes_for_disjoint_variables():
    pf = mk_ax(
        (lf(F.Atom("X"), F.VACUOUS, PL("r + s")), lf(X, F.VACUOUS, PL("r + s"))),
        lf(X, F.VACUOUS, PL("r + s")),
    )
    a = m_subst(m_subst(pf, "r", const(2)), "s", const(3))
    b = m_subst(m_subst(pf, "s", const(3)), "r", const(2))
    assert a == b


def test_expose_shortens_axiom_path():
    # the negative cut formula sits above a weakening, on an axiom conclusion
    ax = mk_ax((lf(F.Atom("X"), F.VACUOUS, 1), lf(X, F.VACUOUS, 1)), lf(X, F.VACUOUS, 1))
    wrapped = mk_qw(ax, 2, lf(F.NegAtom("W"), F.VACUOUS, 1))
    partner = mk_ax(
        (lf(F.Atom("X"), F.VACUOUS, 1), lf(X, F.VACUOUS, 1)), lf(X, F.VACUOUS, 1)
    )
    cut = mk_cut(wrapped, partner, 1, 0)
    assert check_proof(cut).ok
    exposed = expose_logical(cut, ())
    node = exposed
    while node.rule != "cut":
        node = node.premise(0)
    assert node.premise(0).rule == "ax"
    assert weight(exposed) == weight(cut)
    hit = step_special(cut)
    assert hit is not None and hit.kind == "axiom"
    assert check_proof(hit.result).ok


def test_every_step_kind_fires_on_the_corpus():
    kinds = set()
    for e in C.entries():
        if e.derivation is None:
            continue
        pf = mapped(e.name)
        while (hit := step_special(pf)) is not None:
            kinds.add(hit.kind)
            pf = hit.result
    assert kinds == {
        "multiplicative",
        "axiom",
        "dereliction",
        "units",
        "weakening",
        "contraction",
        "digging",
    }


def test_m_split_with_live_binder_shifts_the_copy():
    from bllp.syntax import parse_formula

    neg = lf(parse_formula("?{z<x} V"), "x", const(2))
    pos = lf(parse_formula("!{z<x} ~V"), "x", const(2))
    ax = mk_ax((neg, pos), neg)
    assert check_proof(ax).ok
    rho, sigma = m_split(ax, ONE, ONE)
    for piece in (rho, sigma):
        assert check_proof(piece).ok and proof_sim(piece, ax)
    assert lf_leq(ax.concl[0], F.lf_sum(rho.concl[0], sigma.concl[0]))
    shifted = sigma.concl[0].formula
    assert isinstance(shifted, F.WhyNot)
    assert sigma.concl[0].binder in shifted.bound.free_vars()


def test_box_with_witnessed_context_sum():
    from bllp.formula import VACUOUS
    from bllp.syntax import parse_formula

    fam = lf(parse_formula("?{w<u + y} V"), "u", ONE)
    dual = lf(parse_formula("!{w<u + y} ~V"), "u", ONE)
    ax = mk_ax((fam, dual), fam)
    qd = P.mk_qd(
        ax, 1, dual.formula, "u", ONE, VACUOUS,
        lf(F.WhyNot("u", ONE, dual.formula), VACUOUS, ONE),
    )
    assert check_proof(qd).ok
    banged = qd.concl[1]
    box_out = lf(F.Bang(banged.binder, banged.label, banged.formula), "y", pvar("q"))
    box = P.mk_bang(
        qd, 1, box_out, {}, witnesses={0: (parse_formula("?{w<x} V"), "x")}
    )
    assert check_proof(box).ok
    assert str(box.concl[0]) == "<?{w<x} V>[x<q]"
    unwitnessed = Proof("bang", box.concl, box.premises, {"idx": 1})
    assert not check_proof(unwitnessed).ok


def test_checker_rejects_malformed_nodes():
    from bllp.formula import VACUOUS
    from bllp.syntax import parse_formula

    ax2 = mk_ax(
        (lf(F.Atom("X"), VACUOUS, 2), lf(X, VACUOUS, 2)), lf(X, VACUOUS, 2)
    )
    assert not check_proof(mk_cut(AX1, ax2, 1, 0)).ok  # label mismatch
    axv = mk_ax(
        (lf(parse_formula("V"), VACUOUS, 1), lf(parse_formula("~V"), VACUOUS, 1)),
        lf(parse_formula("~V"), VACUOUS, 1),
    )
    under = P.mk_qd(
        axv, 0, parse_formula("V"), VACUOUS, ONE, VACUOUS,
        lf(F.WhyNot(VACUOUS, ONE, parse_formula("V")), VACUOUS, ZERO),
    )
    assert not check_proof(under).ok  # dereliction below one use
    assert not check_proof(
        mk_ax((lf(F.Atom("X"), VACUOUS, 3), lf(X, VACUOUS, 1)), lf(X, VACUOUS, 2))
    ).ok  # positive side above the dual witness
    wk = mk_qw(
        mk_qw(mk_one(lf(F.ONE_F, VACUOUS, 1)), 1, lf(X, VACUOUS, 1)),
        2,
        lf(X, VACUOUS, 1),
    )
    assert not check_proof(P.mk_qc(wk, 1, 2, lf(X, VACUOUS, 1))).ok
    assert check_proof(P.mk_qc(wk, 1, 2, lf(X, VACUOUS, 2))).ok


def test_normalize_reports_exhaustion_distinctly():
    cut = mk_cut(one_bot_proof(), mk_one(lf(F.ONE_F, F.VACUOUS, 1)), 1, 0)
    nf, steps, exhausted = normalize(cut, fuel=0)
    assert exhausted and steps == 0
    nf, steps, exhausted = normalize(cut, fuel=5)
    assert not exhausted and steps == 1
