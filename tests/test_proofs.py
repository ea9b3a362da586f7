import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import proofs_oracle as O
from bllp import corpus as C
from bllp import formula as F
from bllp import lammu as L
from bllp import proofs as P
from bllp import respoly as R
from bllp.formula import LF, lf, lf_alpha_eq, lf_leq, lf_neg
from bllp.proofs import (
    Proof,
    check_proof,
    classify_occurrence,
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
    step_special,
    weight,
)
from bllp.record import replace
from bllp.respoly import ONE, ZERO, const, eval_poly, fresh_var, poly_leq, pvar
from bllp.syntax import parse_lf, parse_poly, proof_from_obj, proof_to_obj
from bllp.typecheck import (
    Report,
    add_to_mult,
    check_additive,
    check_mult,
    subject_reduce,
    subst_derivation,
)
from proofs_oracle import erase, expose_logical, proof_sim
from respoly_oracle import sub_checked

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


@pytest.mark.parametrize("n", [32, 64, 128])
def test_weight_of_large_church_application(n):
    pf = map_derivation(add_to_mult(C.church_applied_derivation(n)))
    assert weight(pf) == const(8 * n + 3)


def test_preweight_sets_are_disjoint():
    pw = O.preweight(mapped("kappa-callcc"))
    seen = set()
    for s in pw.sets:
        assert not (s & seen)
        seen |= s


DERIVED = [e.name for e in C.entries() if e.derivation]


@pytest.mark.parametrize("name", DERIVED)
def test_weight_and_cut_order_match_the_oracle_along_special_steps(name):
    pf = mapped(name)
    assert weight(pf) == O.weight(pf)
    assert list(P._cut_paths(pf)) == O.cut_paths(pf)
    for hit in P.special_steps(pf):
        for q in (hit.exposed, hit.result):
            assert weight(q) == O.weight(q)
            assert list(P._cut_paths(q)) == O.cut_paths(q)


@pytest.mark.parametrize("name", DERIVED)
def test_weight_matches_the_oracle_along_subject_reduction(name):
    d = add_to_mult(C.by_name(name).derivation)
    pf = map_derivation(d)
    assert weight(pf) == O.weight(pf)
    while L.step(d.concl.subject, "head") is not None:
        d = subject_reduce(d)
        pf = map_derivation(d)
        assert weight(pf) == O.weight(pf)


@settings(max_examples=16, deadline=None)
@given(st.integers(min_value=0, max_value=16))
def test_weight_of_small_church_applications_matches_the_oracle(n):
    pf = map_derivation(add_to_mult(C.church_applied_derivation(n)))
    assert weight(pf) == O.weight(pf)


@pytest.mark.parametrize("n", [32, 48, 64])
def test_weight_of_large_church_applications_matches_the_oracle(n):
    pf = map_derivation(add_to_mult(C.church_applied_derivation(n)))
    assert weight(pf) == O.weight(pf)


def _derelicted_axiom() -> Proof:
    """``<?X>[1], <~X>[1]``: an axiom whose positive side is derelicted."""
    why = lf(F.WhyNot(F.VACUOUS, ONE, F.Atom("X")), F.VACUOUS, ONE)
    return P.mk_qd(AX1, 0, F.Atom("X"), F.VACUOUS, ONE, F.VACUOUS, why)


def _box(prem: Proof, label) -> Proof:
    body = prem.concl[1]
    out = lf(F.Bang(body.binder, body.label, body.formula), F.VACUOUS, label)
    return P.mk_bang(prem, 1, out, {})


def test_weight_multiplies_through_nested_symbolic_boxes():
    q, r = pvar("q"), pvar("r")
    inner = _box(_derelicted_axiom(), q)
    door = lf_neg(inner.concl[1])
    cut = mk_cut(mk_qw(_derelicted_axiom(), 2, door), inner, 2, 1)
    outer = _box(cut, r)
    assert check_proof(outer).ok
    # the weakened door is cut inside the outer box (r), and so is the
    # inner box's axiom (r * q)
    assert weight(outer) == r + r * q == O.weight(outer)


def _deep_chain(rounds: int) -> Proof:
    """Weakenings and bottoms over an axiom, each contracted into the last.

    ``2 + 4 * rounds`` nodes deep, with a conclusion of four formulas
    ``<X>, <~X>, <~W>[rounds + 1], <bot>[rounds + 1]`` at every depth.
    """
    w, bot = lf(F.NegAtom("W"), F.VACUOUS, 1), lf(F.BOTTOM, F.VACUOUS, 1)
    pf = mk_bot(mk_qw(AX1, 2, w), 3, bot)

    def contract(pf: Proof, k: int) -> Proof:
        have = pf.concl[k]
        return P.mk_qc(pf, k, 4, lf(have.formula, F.VACUOUS, have.label + 1))

    for _ in range(rounds):
        pf = contract(mk_bot(contract(mk_qw(pf, 4, w), 2), 4, bot), 3)
    return pf


def _cut_bottom(pf: Proof) -> Proof:
    return mk_cut(pf, mk_one(lf(F.ONE_F, F.VACUOUS, pf.concl[3].label)), 3, 0)


def test_weight_of_a_small_chain_matches_the_oracle():
    pf = _deep_chain(3)
    assert check_proof(pf).ok and check_proof(_cut_bottom(pf)).ok
    assert weight(pf) == O.weight(pf) == ZERO
    # every bottom and every contraction of bottoms is cut: 4 + 3
    assert weight(_cut_bottom(pf)) == O.weight(_cut_bottom(pf)) == const(7)


def test_deep_chain_is_weighed_and_scanned_without_recursion_error():
    rounds = 2500  # 10 002 nodes deep
    pf = _deep_chain(rounds)
    assert weight(pf) == ZERO
    assert step_special(pf) is None
    assert weight(_cut_bottom(pf)) == const(2 * rounds + 1)
    assert len(erase(pf)) == 3 + 4 * rounds  # one entry per node
    assert proof_sim(m_subst(pf, "r", ONE), pf)
    # the negative atom at position 1 passes through every rule up to the axiom
    out = m_subtype(pf, 1, lf(X, F.VACUOUS, 2))
    axiom = out.at((0,) * (2 + 4 * rounds))
    assert axiom.rule == "ax" and lf_alpha_eq(axiom.concl[1], out.concl[1])
    assert proof_sim(out, pf) and check_proof(out).ok


def test_weight_leaves_the_global_name_supply_alone():
    pf = mapped("church-2-app")
    before = fresh_var("n")
    weight(pf)
    after = fresh_var("n")
    assert int(after[2:]) == int(before[2:]) + 1


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
        if a.formula.positive:
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


def test_a_restricted_cut_whose_context_is_cut_below_it_waits():
    """Exposing the dereliction cut hoists the cut of the box's door below
    it, so the cut's right context is active there and the axiom cut on
    the door fires first."""
    why = lf(F.WhyNot(F.VACUOUS, ONE, F.Atom("X")), F.VACUOUS, 1)
    der = P.mk_qd(AX1, 0, F.Atom("X"), F.VACUOUS, ONE, F.VACUOUS, why)
    box = P.mk_bang(der, 1, lf(F.Bang(F.VACUOUS, ONE, X), F.VACUOUS, 1), {})
    door = box.concl[0]
    pf = mk_cut(der, mk_cut(box, mk_ax((lf_neg(door), door), door), 0, 0), 0, 0)
    assert check_proof(pf).ok
    exposed, path = P._expose(pf, ())
    assert path == (0,) and exposed.at(path).premise(0).rule == "qd"
    assert classify_occurrence(exposed, path, 1) == "active"
    steps = [(hit.kind, hit.path) for hit in P.special_steps(pf)]
    assert steps == [("axiom", (1,)), ("dereliction", ()), ("axiom", (0,))]

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


def _why_x(label) -> LF:
    return lf(F.WhyNot(F.VACUOUS, ONE, F.Atom("X")), F.VACUOUS, label)


_DER = P.mk_qd(AX1, 0, F.Atom("X"), F.VACUOUS, ONE, F.VACUOUS, _why_x(1))  # ?X, ~X


def _box_with_two_doors(label) -> Proof:
    wide = mk_qw(_DER, 2, lf(F.NegAtom("W"), F.VACUOUS, 1))
    return P.mk_bang(wide, 1, lf(F.Bang(F.VACUOUS, ONE, X), F.VACUOUS, label), {})


def test_contraction_and_digging_carry_every_door_of_the_right_box():
    """No corpus step fires a contraction or a digging against a box with
    context doors.  Each step's proof JSON is pinned by a SHA-256 prefix, as
    the former per-rule position arithmetic gave it, with its kind, path and
    conclusion."""
    import hashlib
    import json

    twice = P.mk_qc(mk_qw(_DER, 2, _why_x(1)), 0, 2, _why_x(2))
    cases = {
        "contraction": mk_cut(twice, _box_with_two_doors(2), 0, 1),
        "digging": mk_cut(_box_with_two_doors(1), _box_with_two_doors(1), 0, 1),
    }
    want = {
        "contraction": [
            ("contraction", (), "~X 1|?{1} X 2|~W 2", "36a708c24dfbd704"),
            ("weakening", (0, 0, 0), "~X 1|?{1} X 2|~W 2", "89c50cd81ea44cd7"),
            ("dereliction", (0, 0, 0, 0), "?{1} X 2|~W 2|~X 1", "aa635c6a58e1ab19"),
            ("axiom", (0, 0, 0, 0, 0, 0), "?{1} X 2|~X 1|~W 2", "b37248007a239c50"),
        ],
        "digging": [("digging", (), "!{1} ~X 1|~W 1|?{1} X 1|~W 1", "505093a6e3c4b4fa")],
    }
    for name, pf in cases.items():
        assert check_proof(pf).ok
        got = []
        for hit in P.special_steps(pf):
            assert check_proof(hit.result).ok
            concl = "|".join(f"{a.formula} {a.label}" for a in hit.result.concl)
            text = json.dumps(proof_to_obj(hit.result)).encode()
            got.append((hit.kind, hit.path, concl, hashlib.sha256(text).hexdigest()[:16]))
        assert got == want[name], name

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


def _neg(name: str, label=1) -> LF:
    return lf(F.NegAtom(name), F.VACUOUS, label)


def _ax_of(name: str) -> Proof:
    return mk_ax((lf(F.Atom(name), F.VACUOUS, 1), _neg(name)), _neg(name))


_BASE = mk_qw(mk_qw(_ax_of("X"), 2, _neg("W")), 3, _neg("V"))  # X, ~X, ~W, ~V
_WHY = lf(F.WhyNot(F.VACUOUS, ONE, F.Atom("X")), F.VACUOUS, 1)
# One checked node per rule whose conclusion the checker compares with its
# premises; each has two distinct formulas that the rule only passes on.
ORDERED = {
    "par": P.mk_par(_BASE, 1, 2, lf(F.Par(X, F.NegAtom("W")), F.VACUOUS, 1)),
    "qc": P.mk_qc(mk_qw(_BASE, 4, _neg("W")), 2, 4, _neg("W", 2)),
    "qw": mk_qw(_BASE, 1, _neg("U")),
    "bot": mk_bot(_BASE, 1, lf(F.BOTTOM, F.VACUOUS, 1)),
    "qd": P.mk_qd(_BASE, 0, F.Atom("X"), F.VACUOUS, ONE, F.VACUOUS, _WHY),
    "cut": mk_cut(_BASE, _ax_of("W"), 2, 0),
    "tensor": mk_tensor(_BASE, _ax_of("Y"), 0, 0, lf(F.Tensor(F.Atom("X"), F.Atom("Y")), F.VACUOUS, 1)),
    "bang": P.mk_bang(
        mk_qw(P.mk_qd(_ax_of("X"), 0, F.Atom("X"), F.VACUOUS, ONE, F.VACUOUS, _WHY), 2, _neg("W")),
        1,
        lf(F.Bang(F.VACUOUS, ONE, X), F.VACUOUS, pvar("q")),
        {},
    ),
}
_MISPLACED = "root: conclusion position {} does not match the premise"
_LENGTH = "root: conclusion length does not fit the rule"
# (rule, edit): the report of the root's sequent edited in its file form.
# "permute" swaps the first and the last passed-on formula, "drop" deletes
# the last one, "add" repeats it right after itself.  A box compares its
# length before it reads its doors.
ORDER_REPORTS = {
    **{
        (rule, "permute"): f"{_MISPLACED.format(i)}\n{_MISPLACED.format(j)}"
        for rule, i, j in [
            ("par", 0, 2), ("qc", 0, 3), ("qw", 0, 4), ("bot", 0, 4),
            ("qd", 1, 3), ("cut", 0, 3), ("tensor", 0, 3),
        ]
    },
    **{
        (rule, "drop"): f"{_MISPLACED.format(last)}\n{_LENGTH}"
        for rule, last in [
            ("par", 2), ("qc", 3), ("qw", 4), ("bot", 4), ("qd", 3), ("cut", 3), ("tensor", 3),
        ]
    },
    **{(rule, "add"): _LENGTH for rule in ("par", "qc", "qw", "bot", "qd", "cut", "tensor")},
    ("bang", "permute"): (
        "root: box context 0 exceeds its replicated budget\n"
        "root: box context 2 exceeds its replicated budget"
    ),
    ("bang", "drop"): "root: box conclusion length does not fit the rule",
    ("bang", "add"): "root: box conclusion length does not fit the rule",
}


@pytest.mark.parametrize("rule,edit", sorted(ORDER_REPORTS))
def test_the_checker_compares_a_file_conclusion_with_its_premises(rule, edit):
    node = ORDERED[rule]
    assert check_proof(node).ok
    made = {node.data["idx"]} if rule == "bang" else set(P.created(node))
    passed = [k for k in range(len(node.concl)) if k not in made]
    first, last = passed[0], passed[-1]
    obj = proof_to_obj(node)
    seq = obj["tree"]["sequent"]
    assert seq[first] != seq[last]
    if edit == "permute":
        seq[first], seq[last] = seq[last], seq[first]
    elif edit == "drop":
        del seq[last]
    else:
        seq.insert(last + 1, seq[last])
    assert str(check_proof(proof_from_obj(obj))) == ORDER_REPORTS[rule, edit]


@pytest.mark.parametrize(
    "rule,which,key",
    [(rule, which, key) for rule in ("cut", "par", "tensor", "qc", "qd", "bang")
     for which, keys in enumerate(P._PREMISE_FIELDS[rule]) for key in keys],
)
def test_a_premise_position_past_its_file_premise_is_named(rule, which, key):
    """A file premise cut short before the position ``key`` reads: the
    report names the field, its value and the premise's length.  A box
    compares its length before it reads its door, so its conclusion is
    cut short too."""
    node = ORDERED[rule]
    i = node.data[key]
    obj = proof_to_obj(node)
    tree = obj["tree"]
    for short in (tree["premises"][which],) + ((tree,) if rule == "bang" else ()):
        short["sequent"] = short["sequent"][:i]
    assert P._node_errors(proof_from_obj(obj)) == [
        f"malformed node: {key} {i} is out of range for premise {which} of length {i}"
    ]


@pytest.mark.parametrize("rule", ["qw", "bot"])
def test_a_conclusion_position_past_its_file_sequent_is_named(rule):
    """A ``qw`` or ``bot`` whose ``idx`` is past its own file sequent: the
    report names the field, its value and the conclusion's length."""
    obj = proof_to_obj(ORDERED[rule])
    n = len(obj["tree"]["sequent"])
    obj["tree"]["data"]["idx"] = n
    assert P._node_errors(proof_from_obj(obj)) == [
        f"malformed node: idx {n} is out of range for the conclusion of length {n}"
    ]


def test_par_and_tensor_pair_the_binders_of_their_components():
    """A component under the conclusion's binder ``v`` matches a premise
    formula under ``u`` when it reads ``v`` where the premise reads ``u``."""
    under_u = lf(F.WhyNot("w", pvar("u"), F.Atom("V")), "u", 1)
    assert under_u.binder == "u"
    prem = mk_qw(mk_qw(mk_one(lf(F.ONE_F, F.VACUOUS, 1)), 1, under_u), 2, lf(X, F.VACUOUS, 1))

    def par(bound, binder):
        out = LF(F.Par(F.WhyNot("w", bound, F.Atom("V")), X), binder, const(1))
        return P.mk_par(prem, 1, 2, out)

    assert check_proof(par(pvar("v"), "v")).ok  # an α-variant
    assert check_proof(par(pvar("u"), "u")).ok
    bad = check_proof(par(pvar("u"), "v")).errors  # u is free under v
    assert bad == [("root", "par left component mismatch")]

    def ax(binder):
        pos = lf(F.Bang("w", pvar(binder), X), binder, 1)
        return mk_ax((pos, lf_neg(pos)), lf_neg(pos))

    def tensor(binder, left, right):
        bangs = (F.Bang("w", pvar(left), X), F.Bang("w", pvar(right), X))
        return mk_tensor(ax("u"), ax("t"), 0, 0, LF(F.Tensor(*bangs), binder, const(1)))

    assert check_proof(tensor("v", "v", "v")).ok  # u and t both read as v
    assert ("root", "tensor component mismatch") in check_proof(tensor("v", "u", "v")).errors
    assert ("root", "tensor component mismatch") in check_proof(tensor("v", "v", "t")).errors


def test_duality_checks_accept_alpha_variants_and_subtyping():
    """The cut check accepts an α-variant of the dual, and the axiom check
    a positive side strictly below the dual witness."""
    ax = mk_ax((lf(F.Atom("X"), F.VACUOUS, 1), lf(X, F.VACUOUS, 2)), lf(X, F.VACUOUS, 2))
    assert ax.concl[0] != lf_neg(ax.data["witness"]) and check_proof(ax).ok
    pf = mapped("kappa")
    cuts, stack = [], [pf]
    while stack:
        q = stack.pop()
        stack.extend(q.premises)
        if q.rule == "cut":
            f = q.premise(1).concl[q.data["right_idx"]].formula
            if isinstance(f, F.Tensor) and isinstance(f.left, F.Bang):
                cuts.append(q)
    cut = cuts[0]
    left = cut.premise(0).concl[cut.data["left_idx"]]
    ri = cut.data["right_idx"]
    right = cut.premise(1)
    dual = right.concl[ri]
    bang = dual.formula.left
    assert bang.var == F.VACUOUS

    def with_right(bound, var):
        new = F.Tensor(F.Bang(var, bound, bang.body), dual.formula.right)
        concl = right.concl[:ri] + (LF(new, dual.binder, dual.label),) + right.concl[ri + 1 :]
        return Proof("cut", cut.concl, (cut.premise(0), Proof(right.rule, concl, right.premises, right.data)), cut.data)

    variant = with_right(bang.bound, "q")  # a binder with no occurrence: α-equal
    assert variant.premise(1).concl[ri] != lf_neg(left)
    assert P._node_errors(cut) == P._node_errors(variant) == []
    assert P._node_errors(with_right(R.const(2), "q")) == ["cut formulas are not dual at the same label"]


def test_normalize_reports_exhaustion_distinctly():
    cut = mk_cut(one_bot_proof(), mk_one(lf(F.ONE_F, F.VACUOUS, 1)), 1, 0)
    nf, steps, exhausted = normalize(cut, fuel=0)
    assert exhausted and steps == 0
    nf, steps, exhausted = normalize(cut, fuel=5)
    assert not exhausted and steps == 1


@pytest.mark.parametrize("fuel", [0, 1, 3, 10_000])
def test_normalize_drains_special_steps(fuel):
    for e in C.entries():
        if e.derivation is None:
            continue
        pf = mapped(e.name)
        hits = list(P.special_steps(pf, fuel))
        nf, n, exhausted = normalize(pf, fuel)
        assert n == len(hits) <= fuel
        assert nf == (hits[-1].result if hits else pf)
        assert exhausted == (n == fuel and step_special(nf) is not None)
        prev = pf
        for hit in hits:
            assert hit.result == step_special(prev).result
            prev = hit.result


# -- cost guard ----------------------------------------------------------------------


def test_check_proof_decides_equal_operands_without_rebuilding(monkeypatch):
    """Checking the church-12 proof and each proof along its special steps
    renames no polynomial in the formula walk (its only builder) and builds
    no polynomial inside ``poly_leq``."""
    pf = map_derivation(add_to_mult(C.church_applied_derivation(12)))
    proofs = [pf] + [q for hit in P.special_steps(pf) for q in (hit.exposed, hit.result)]
    calls = {"rename": 0, "poly_leq": 0, "_poly in poly_leq": 0}
    inside = [0]

    real_rename = R.rename

    def rename(p, names):
        calls["rename"] += 1
        return real_rename(p, names)

    def leq(p, q):
        calls["poly_leq"] += 1
        inside[0] += 1
        try:
            return poly_leq(p, q)
        finally:
            inside[0] -= 1

    real_poly = R._poly

    def poly(table):
        calls["_poly in poly_leq"] += inside[0] > 0
        return real_poly(table)

    monkeypatch.setattr(R, "rename", rename)
    monkeypatch.setattr(R, "_poly", poly)
    # Every module that imported ``poly_leq`` by name calls the wrapper.
    for name, mod in list(sys.modules.items()):
        if name.startswith("bllp") and getattr(mod, "poly_leq", None) is poly_leq:
            monkeypatch.setattr(mod, "poly_leq", leq)

    for q in proofs:
        assert check_proof(q).ok
    assert len(proofs) > 1 and calls["poly_leq"] > 0
    assert calls["rename"] == 0 and calls["_poly in poly_leq"] == 0, calls


@pytest.mark.parametrize("name", ["church-12"] + DERIVED)
def test_the_pipeline_builds_the_dual_of_each_formula_object_once(name, monkeypatch):
    """One pass from ``check_additive`` to ``weight`` negates no formula object
    twice: every call after the first reads the stored dual."""
    d = C.church_applied_derivation(12) if name == "church-12" else C.by_name(name).derivation
    built = []  # the negated objects themselves, so no id is reused
    calls = [0]
    real = F.negate

    def negate(f):
        # A unit's dual is a shared constant, never built.
        calls[0] += 1
        if f._dual is None and type(f) not in (F.One, F.Bottom):
            built.append(f)
        return real(f)

    # Every module that imported ``negate`` calls the spy; a call negates the
    # children it meets itself and stores their duals too.
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("bllp") and getattr(mod, "negate", None) is real:
            monkeypatch.setattr(mod, "negate", negate)
    assert check_additive(d).ok
    m = add_to_mult(d)
    assert check_mult(m).ok
    pf = map_derivation(m)
    assert check_proof(pf).ok
    weight(pf)
    assert calls[0] > 0 and len({id(f) for f in built}) == len(built)


# -- stored verdicts -------------------------------------------------------------------


def _reference(p: Proof):
    """The report of a walk that checks every node afresh."""
    return Report.walk(p, P._node_errors)


def _node_ids(p: Proof) -> set[int]:
    out, stack = set(), [p]
    while stack:
        node = stack.pop()
        out.add(id(node))
        stack.extend(node.premises)
    return out


VERDICT_PROOFS = [(name, lambda name=name: mapped(name)) for name in DERIVED] + [
    (f"church-{n}", lambda n=n: map_derivation(add_to_mult(C.church_applied_derivation(n))))
    for n in range(1, 13)
]


@pytest.mark.parametrize("name,build", VERDICT_PROOFS, ids=[n for n, _ in VERDICT_PROOFS])
def test_stored_verdicts_give_the_report_of_a_fresh_walk_at_every_special_step(name, build):
    pf = build()
    proofs = [pf] + [q for hit in P.special_steps(pf) for q in (hit.exposed, hit.result)]
    for q in proofs:
        assert check_proof(q) == _reference(q) == check_proof(q)


@pytest.mark.parametrize("name", ["church-12", "kappa-callcc"])
def test_check_proof_checks_only_the_nodes_a_special_step_built(name, monkeypatch):
    pf = dict(VERDICT_PROOFS)[name]()
    calls = [0]
    real = P._node_errors

    def counted(p):
        calls[0] += 1
        return real(p)

    monkeypatch.setattr(P, "_node_errors", counted)
    assert check_proof(pf).ok and calls[0] == len(_node_ids(pf))
    calls[0] = 0
    assert check_proof(pf).ok and calls[0] == 0
    prev = pf
    for steps, hit in enumerate(P.special_steps(pf), 1):
        calls[0] = 0
        assert check_proof(hit.result).ok
        assert calls[0] == len(_node_ids(hit.result) - _node_ids(prev)) > 0
        prev = hit.result
    assert steps > 1


def _rebuilt(p: Proof, path: tuple[int, ...], node: Proof) -> Proof:
    """``p`` with the subproof at ``path`` replaced, its ancestors rebuilt by ``replace``."""
    ancestors = [p]
    for i in path[:-1]:
        ancestors.append(ancestors[-1].premises[i])
    for parent, i in zip(reversed(ancestors), reversed(path)):
        prems = list(parent.premises)
        prems[i] = node
        node = replace(parent, premises=tuple(prems))
    return node


def _paths(p: Proof) -> list[tuple[int, ...]]:
    """The path of every node of ``p``."""
    out, stack = [], [((), p)]
    while stack:
        path, node = stack.pop()
        out.append(path)
        stack.extend((path + (i,), q) for i, q in enumerate(node.premises))
    return out


def test_a_node_replaced_from_a_checked_one_is_checked_again():
    pf = mapped("kappa-callcc")
    assert check_proof(pf).ok
    paths = _paths(pf)
    assert len(paths) > 10
    for path in paths:
        node = pf.at(path)
        assert node.verdict == ()
        shorter = replace(node, concl=node.concl[1:])
        undone = replace(node, data={})
        for bad in (shorter, undone) if node.data else (shorter,):
            assert bad.verdict is None
            q = _rebuilt(pf, path, bad)
            report = check_proof(q)
            assert report == _reference(q)
            where = "root" + "".join(f".{k}" for k in path)
            assert where in [at for at, _ in report.errors], (where, str(report))


def test_proof_data_is_read_only():
    box_prem = mk_qw(AX1, 2, lf(X, F.VACUOUS, 1))
    witnesses = {1: (F.Atom("X"), "y")}
    data = {"idx": 0, "sum_witness": witnesses}
    box = Proof("bang", box_prem.concl, (box_prem,), data)
    with pytest.raises(TypeError):
        box.data["idx"] = 1
    with pytest.raises(TypeError):
        box.data["sum_witness"][1] = (F.Atom("Y"), "y")
    # The node holds copies: the caller's dicts no longer reach it.
    data["idx"] = 1
    witnesses[1] = (F.Atom("Y"), "y")
    assert box.data["idx"] == 0 and box.data["sum_witness"][1] == (F.Atom("X"), "y")
    with pytest.raises(TypeError):
        AX1.data["witness"] = None
    assert replace(box, concl=box.concl).data is box.data


def test_equality_and_hash_of_church_400_trees_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    m = add_to_mult(C.church_applied_derivation(400))
    pf = map_derivation(m)
    again = proof_from_obj(proof_to_obj(pf))
    assert again == pf and hash(again) == hash(pf)
    same = subst_derivation(m, "zz", ZERO)
    assert same == m and hash(same) == hash(m)
    # A difference at the deepest leaf is found.
    path = max(_paths(pf), key=len)
    assert len(path) > 1000
    leaf = pf.at(path)
    other = _rebuilt(pf, path, replace(leaf, concl=leaf.concl[::-1]))
    assert other != pf and pf != other


def test_equality_leaves_out_data_and_verdicts():
    checked = mk_qw(AX1, 2, lf(X, F.VACUOUS, 1))
    assert check_proof(checked).ok
    fresh = Proof(checked.rule, checked.concl, checked.premises, {"idx": 2, "note": 1})
    assert fresh == checked and hash(fresh) == hash(checked) and fresh.verdict is None
    assert mk_qw(AX1, 0, lf(X, F.VACUOUS, 1)) != checked
