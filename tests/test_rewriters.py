"""The stack-safe rewriters give exactly what the plain recursive ones gave,
the one-table commutation what the former per-rule one gave, and the
library's layout table what the former per-rule layouts and builders gave.
The translation `_hoist` composes from layouts equals the former traced
one, the weight counted by multiplier object equals the former one counted
by value, and the special steps give the pinned files, weights and names.

``typecheck_oracle`` and ``proofs_oracle`` keep the former definitions.
Library code calls its rewriters through module globals, so patching the
oracle functions in gives the former pipeline.  Both runs start from the
same state of the global name supplies and are compared through their JSON
forms, which carry the ``ann``/``data`` that ``==`` ignores.
"""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import proofs_oracle as PO
import typecheck_oracle as TO
from bllp import corpus as C
from bllp import formula as F
from bllp import lammu as L
from bllp import proofs as P
from bllp import respoly as R
from bllp import typecheck as T
from bllp.formula import lf
from bllp.record import replace
from bllp.respoly import const, pvar
from bllp.syntax import derivation_to_obj, parse_formula, print_poly, proof_from_obj, proof_to_obj

# (module, attribute, the former definition)
FORMER = [
    (T, "subst_derivation", TO.subst_derivation),
    (T, "rename_free", TO._rename_entry),
    (T, "lower_type", TO.lower_type),
    (T, "drop_mu_entry", TO.drop_mu_entry),
    (T, "add_to_mult", TO.add_to_mult),
    (T, "_subst_walk", TO._subst_walk),
    (T, "subject_reduce", TO.subject_reduce),
    (T, "lam_subst_derivation", TO.lam_subst_derivation),
    (T, "mu_subst_derivation", TO.mu_subst_derivation),
    (T, "_replay_structurals", TO._replay_structurals),
    (T, "_fire_theta", TO._fire_theta),
    (P, "_map_deriv", PO._map_deriv),
    (P, "m_subtype", PO.m_subtype),
    (P, "m_subst", PO.m_subst),
    (P, "_split", PO._split),
    (P, "_parsplit", PO._parsplit),
    (P, "_tensor_purge_path", PO._tensor_purge_path),
    (P, "_splice", lambda *args: PO._splice(*args)[0]),
    (P, "_hoist", PO._hoist),
    (P, "_refit", PO._refit),
]


def _mu_redexes() -> dict:
    """``(mu a. [a] f) (mu b. [b] g)`` and ``(mu a. [a] mu c. [a] f) (mu b. [b] g)``.

    Both sides of each application draw fresh names in ``add_to_mult``, and
    the subject reductions feed the argument to one, two and no namings.
    """
    fx = F.arrow(C.X, F.VACUOUS, const(1), C.X)

    def at(ty, label):
        return lf(ty, F.VACUOUS, label)

    def named(x, a, ty):
        ctx = [(x, C.modal(ty, 1, 1))]
        d = C.node("var", C.jm(ctx, L.Var(x), at(ty, 1), [(a, at(ty, 0))]))
        bot = at(F.BOTTOM, 0)
        d = C.node("mu_name", C.jm(ctx, L.Named(a, d.concl.subject), bot, [(a, at(ty, 1))]), d)
        return C.node("mu_abs", C.jm(ctx, L.Mu(a, d.concl.subject), at(ty, 1)), d)

    ctx = [("f", C.modal(fx, 1, 1))]
    d = C.node("var", C.jm(ctx, L.Var("f"), at(fx, 1), [("a", at(fx, 0)), ("c", at(fx, 0))]))
    mu = [("a", at(fx, 1)), ("c", at(fx, 0))]
    d = C.node("mu_name", C.jm(ctx, L.Named("a", d.concl.subject), at(F.BOTTOM, 0), mu), d)
    d = C.node("mu_abs", C.jm(ctx, L.Mu("c", d.concl.subject), at(fx, 0), mu[:1]), d)
    d = C.node("mu_name", C.jm(ctx, L.Named("a", d.concl.subject), at(F.BOTTOM, 0), mu[:1]), d)
    twice = C.node("mu_abs", C.jm(ctx, L.Mu("a", d.concl.subject), at(fx, 1)), d)
    arg = named("g", "b", C.X)
    ctx = [("f", C.modal(fx, 1, 1)), ("g", C.modal(C.X, 1, 1))]
    out = {}
    for name, fn in (("mu-once", named("f", "a", fx)), ("mu-twice", twice)):
        subject = L.App(fn.concl.subject, arg.concl.subject)
        out[name] = C.node("app", C.jm(ctx, subject, at(C.X, 1)), fn, arg, h=const(1))
    return out


DERIVATIONS = {e.name: e.derivation for e in C.entries() if e.derivation}
DERIVATIONS.update(_mu_redexes())
DERIVATIONS.update({f"church-applied-{n}": C.church_applied_derivation(n) for n in range(1, 13)})
DERIVATIONS["kappa-generic"] = C.kappa_derivation(
    pvar("r"), pvar("s"), R.add(pvar("r"), R.mul(pvar("s"), pvar("r"))) + const(1)
)


def _pipeline(d) -> list:
    """JSON forms of every rewrite of ``d``: the elaboration, each subject
    reduct and its renamings and substitutions, its proof, and each
    special step of that proof."""
    chain = [T.add_to_mult(d)]
    while L.step(chain[-1].concl.subject, "head") is not None:
        chain.append(T.subject_reduce(chain[-1]))
    out = []
    for m in chain:
        rewrites = [m, T.subst_derivation(m, "r", const(2))]
        for side in ("lam", "mu"):
            for v, _ in getattr(m.concl, side):
                rewrites.append(T.rename_free(m, side, v, L.fresh_tvar(v)))
        out += [derivation_to_obj(r, "multiplicative") for r in rewrites]
        pf = P.map_derivation(m)
        out += [proof_to_obj(pf), proof_to_obj(P.m_subst(pf, "r", const(2)))]
        for hit in P.special_steps(pf):
            out += [proof_to_obj(hit.exposed), proof_to_obj(hit.result), hit.path, hit.kind]
    return out


@pytest.mark.parametrize("name", sorted(DERIVATIONS))
def test_pipeline_output_equals_the_recursive_definitions(name, monkeypatch):
    start = next(L._gen), next(R._counter)

    def run() -> list:
        L._gen, R._counter = itertools.count(start[0]), itertools.count(start[1])
        return _pipeline(DERIVATIONS[name])

    new = run()
    with monkeypatch.context() as patch:
        for module, attr, fn in FORMER:
            patch.setattr(module, attr, fn)
        old = run()
    assert new == old


def _at(f: F.Formula, label=1) -> F.LF:
    return lf(f, F.VACUOUS, label)


def _ax(name: str, label=1) -> P.Proof:
    neg = _at(F.NegAtom(name), label)
    return P.mk_ax((_at(F.Atom(name), label), neg), neg)


def _cut_right(right: P.Proof) -> P.Proof:
    """``right`` cut on its positive formula against an axiom."""
    return P.mk_cut(_ax("X"), right, 1, P.positives(right.concl)[0])


def _tensor_cut(left: P.Proof, right: P.Proof) -> P.Proof:
    """A contraction of ``~V par ~W`` cut against ``left * right``: exposing it
    purges the rule that keeps ``left * right`` from being a tensor tree."""
    pf = P.mk_one(_at(F.ONE_F))
    par = F.Par(F.NegAtom("V"), F.NegAtom("W"))
    pf = P.mk_qc(P.mk_qw(P.mk_qw(pf, 1, _at(par)), 2, _at(par)), 1, 2, _at(par, 2))
    li, ri = P.positives(left.concl)[0], P.positives(right.concl)[0]
    tens = P.mk_tensor(left, right, li, ri, _at(F.Tensor(F.Atom("V"), F.Atom("W")), 2))
    return P.mk_cut(pf, tens, 1, len(tens.concl) - 1)


def _derelicted() -> P.Proof:
    why = _at(F.WhyNot(F.VACUOUS, const(1), F.Atom("X")))
    return P.mk_qd(_ax("X"), 0, F.Atom("X"), F.VACUOUS, const(1), F.VACUOUS, why)


def _boxed_cut() -> P.Proof:
    """A box over a cut whose left weakening commutes below it."""
    bang = F.Bang(F.VACUOUS, const(1), F.NegAtom("X"))
    inner = P.mk_bang(_derelicted(), 1, _at(bang, pvar("q")), {})
    left = P.mk_qw(P.mk_qw(_derelicted(), 2, F.lf_neg(inner.concl[1])), 3, _at(F.NegAtom("W")))
    return P.mk_bang(P.mk_cut(left, inner, 2, 1), 1, _at(bang, pvar("r")), {})


def _witnessed_box() -> P.Proof:
    """A box with a witnessed door that the commutation below moves."""
    fam = lf(parse_formula("?{w<u + y} V"), "u", const(1))
    dual = lf(parse_formula("!{w<u + y} ~V"), "u", const(1))
    why = lf(F.WhyNot("u", const(1), dual.formula), F.VACUOUS, const(1))
    qd = P.mk_qd(P.mk_ax((fam, dual), fam), 1, dual.formula, "u", const(1), F.VACUOUS, why)
    left = P.mk_qw(P.mk_qw(qd, 2, _at(F.NegAtom("X"))), 0, _at(F.NegAtom("W")))
    cut = P.mk_cut(left, _ax("X"), 3, 0)
    body = cut.concl[2]
    out = lf(F.Bang(body.binder, body.label, body.formula), "y", pvar("q"))
    return P.mk_bang(cut, 2, out, {}, witnesses={1: (parse_formula("?{w<x} V"), "x")})


_W, _BOT = _at(F.NegAtom("W")), _at(F.BOTTOM)
_BOTS = P.mk_bot(P.mk_bot(_ax("X"), 2, _BOT), 3, _BOT)
_BOX = _boxed_cut()
# name: (proof, path of the cut to expose, hoists (parent rule, premise, child
# rule) and refitted rules the exposure must reach)
COMMUTED = {
    "right-qw": (_cut_right(P.mk_qw(_ax("X"), 2, _W)), (), {("cut", 1, "qw")}),
    "right-bot": (_cut_right(P.mk_bot(_ax("X"), 0, _BOT)), (), {("cut", 1, "bot")}),
    "right-par": (
        _cut_right(P.mk_par(_BOTS, 2, 3, _at(F.Par(F.BOTTOM, F.BOTTOM)))),
        (),
        {("cut", 1, "par"), "par"},
    ),
    "right-qc": (
        _cut_right(P.mk_qc(P.mk_qw(P.mk_qw(_ax("X"), 2, _W), 3, _W), 2, 3, _at(F.NegAtom("W"), 2))),
        (),
        {("cut", 1, "qc")},
    ),
    "right-cut": (_cut_right(P.mk_cut(_ax("X"), _ax("X"), 1, 0)), (), {("cut", 1, "cut")}),
    "tensor-left": (
        _tensor_cut(P.mk_qw(_ax("V", 2), 2, _W), _ax("W", 2)),
        (),
        {("tensor", 0, "qw"), ("cut", 1, "qw")},
    ),
    "tensor-right": (
        _tensor_cut(_ax("V", 2), P.mk_bot(_ax("W", 2), 2, _BOT)),
        (),
        {("tensor", 1, "bot"), ("cut", 1, "bot")},
    ),
    "box": (_BOX, (0,), {("cut", 0, "qw"), "bang"}),
    "box-empty-witness": (
        P.Proof("bang", _BOX.concl, _BOX.premises, {"idx": 1, "sum_witness": {}}),
        (0,),
        {"bang"},
    ),
    "box-witnessed": (_witnessed_box(), (0,), {"bang"}),
}


@pytest.mark.parametrize("name", sorted(COMMUTED))
def test_commutations_no_derivation_reaches_equal_the_former_definitions(name, monkeypatch):
    """Hoists from the right premise of a cut, below a tensor and inside a
    box, which no mapped derivation makes, against the former ``_hoist`` and
    ``_refit``: the exposed proof and the normal form, exactly."""
    pf, path, reach = COMMUTED[name]
    assert P.check_proof(pf).ok
    start = next(L._gen), next(R._counter)

    def run() -> list:
        L._gen, R._counter = itertools.count(start[0]), itertools.count(start[1])
        exposed = PO.expose_logical(pf, path)
        assert P.check_proof(exposed).ok
        nf, steps, _ = P.normalize(pf)
        return [proof_to_obj(exposed), proof_to_obj(nf), steps]

    seen = set()
    hoist, refit = P._hoist, P._refit

    def spy_hoist(parent, which):
        seen.add((parent.rule, which, parent.premises[which].rule))
        return hoist(parent, which)

    def spy_refit(parent, which, child, t):
        seen.add(parent.rule)
        return refit(parent, which, child, t)

    with monkeypatch.context() as patch:
        patch.setattr(P, "_hoist", spy_hoist)
        patch.setattr(P, "_refit", spy_refit)
        new = run()
    assert reach <= seen
    with monkeypatch.context() as patch:
        for module, attr, fn in FORMER:
            patch.setattr(module, attr, fn)
        old = run()
    assert new == old


@pytest.mark.parametrize("name", ["aleph-applied", "kappa-callcc", "church-applied-3"])
def test_tensor_trees_agree_with_the_recursive_definitions(name):
    pf = P.map_derivation(T.add_to_mult(DERIVATIONS[name]))
    stack = [pf]
    while stack:
        q = stack.pop()
        stack.extend(q.premises)
        assert P._tensor_purge_path(q) == PO._tensor_purge_path(q)
        assert (P._tensor_purge_path(q) is None) == PO.is_tensor_tree(q)


@pytest.mark.parametrize("name", ["mu-once", "mu-twice"])
def test_the_mu_redexes_check_along_their_reductions(name):
    d = DERIVATIONS[name]
    assert T.check_additive(d).ok
    m = T.add_to_mult(d)
    steps = 0
    while L.step(m.concl.subject, "head") is not None:
        m = T.subject_reduce(m)
        assert T.check_mult(m).ok
        steps += 1
    assert steps == 2


# -- the layout table against the former per-rule definitions ---------------------------

_MADE = lf(F.Atom("M"), F.VACUOUS, const(1))


def _stand_in(w: int, n: int) -> P.Proof:
    """A premise ``w`` concluding ``n`` distinct formulas; only its
    conclusion is read."""
    return P.Proof("one", tuple(lf(F.Atom(f"P{w}x{k}"), F.VACUOUS, const(1)) for k in range(n)))


def _former_and_new(rule: str, data) -> tuple[P.Proof, P.Proof]:
    """One node of ``rule`` over stand-in premises of drawn lengths at drawn
    positions, built by the former builder and by the library's."""
    least = {"par": 2, "qc": 2, "qw": 0, "bot": 0}.get(rule, 1)
    prem = _stand_in(0, data.draw(st.integers(least, 6), label="length"))
    n = len(prem.concl)

    def pos(k: int) -> int:
        return data.draw(st.integers(0, k - 1), label="position")

    match rule:
        case "ax":
            return (P.mk_ax((_MADE, F.lf_neg(_MADE)), F.lf_neg(_MADE)),) * 2
        case "one":
            return (P.mk_one(_MADE),) * 2
        case "bang":
            i = pos(n)
            ctx = {k: a for k, a in enumerate(prem.concl) if k != i}
            return (P.mk_bang(prem, i, _MADE, ctx),) * 2
        case "cut" | "tensor":
            right = _stand_in(1, data.draw(st.integers(1, 6), label="right length"))
            args = (prem, right, pos(n), pos(len(right.concl)))
        case "par" | "qc":
            i = pos(n)
            j = data.draw(st.integers(0, n - 1).filter(lambda k: k != i), label="position")
            args = (prem, i, j)
        case "qw" | "bot":
            args = (prem, pos(n + 1))
        case "qd":
            args = (prem, pos(n), F.Atom("X"), F.VACUOUS, const(1), F.VACUOUS)
    if rule != "cut":
        args += (_MADE,)
    return getattr(PO, f"mk_{rule}")(*args), getattr(P, f"mk_{rule}")(*args)


@pytest.mark.parametrize("rule", P.RULES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_builders_and_layouts_equal_the_former_per_rule_definitions(rule, data):
    former, new = _former_and_new(rule, data)
    assert new.concl == former.concl and new.premises == former.premises
    assert dict(new.data) == dict(former.data)
    expected = _former_table(former)
    for node in (new, former):
        assert (P.layout(node), P.created(node)) == expected


def _former_table(p: P.Proof) -> tuple:
    """The former per-rule ``layout`` and ``created`` of ``p``, as tuples."""
    return tuple(map(tuple, PO.layout(p))), tuple(PO.created(p))


def _assert_tables_fresh(p: P.Proof, seen: set[int]) -> None:
    """Every node's table, stored or computed on first use, equals a fresh
    `_layout` and the former per-rule layout; and a node of a rule that
    `_build` builds is built again as the former assembly built it."""
    stack = [p]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.premises)
        fresh = P._layout(node.rule, node.data, tuple(len(q.concl) for q in node.premises))
        assert (P.layout(node), P.created(node)) == fresh == _former_table(node)
        assert node.table == fresh
        if node.rule in BUILT:
            made = [node.concl[k] for k in P.created(node)]
            _assert_gathered_as_formerly(node.rule, node.premises, node.data, made)


# The rules whose conclusion `_build` gathers.
BUILT = ("cut", "tensor", "par", "qc", "qd", "qw", "bot")


def _assert_gathered_as_formerly(rule: str, premises: tuple, data, made) -> None:
    """`_build` and the former assembly put the same objects at each
    position, and the node's table equals `_layout`'s and the former one."""
    new, former = P._build(rule, premises, data, *made), PO.assemble(rule, premises, data, *made)
    assert len(new.concl) == len(former.concl)
    assert all(a is b for a, b in zip(new.concl, former.concl))
    lens = tuple(len(q.concl) for q in premises)
    assert new.table == P._layout(rule, data, lens) == _former_table(new)


def _drawn_shape(rule: str, data) -> tuple[tuple[P.Proof, ...], dict, tuple]:
    """Stand-in premises of drawn lengths 1-8 for ``rule``, its data at drawn
    positions in range, and the formulas it makes."""
    lens = [data.draw(st.integers(2 if rule in ("par", "qc") else 1, 8), label="length")]
    if rule in ("cut", "tensor"):
        lens.append(data.draw(st.integers(1, 8), label="right length"))

    def pos(n: int) -> int:
        return data.draw(st.integers(0, n - 1), label="position")

    match rule:
        case "cut" | "tensor":
            d = {"left_idx": pos(lens[0]), "right_idx": pos(lens[1])}
        case "par" | "qc":
            i = pos(lens[0])
            j = data.draw(st.integers(0, lens[0] - 1).filter(lambda k: k != i), label="position")
            d = {"left": i, "right": j}
        case "qd":
            d = {"idx": pos(lens[0]), "P": F.Atom("X"), "x": F.VACUOUS, "p": const(1), "y": F.VACUOUS}
        case "qw" | "bot":
            d = {"idx": pos(lens[0] + 1)}
    premises = tuple(_stand_in(w, n) for w, n in enumerate(lens))
    return premises, d, () if rule == "cut" else (_MADE,)


@pytest.mark.parametrize("rule", BUILT)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_gathered_conclusion_holds_the_objects_of_the_former_assembly(rule, data):
    _assert_gathered_as_formerly(rule, *_drawn_shape(rule, data))


@pytest.mark.parametrize("name", sorted(DERIVATIONS))
def test_stored_tables_equal_a_fresh_layout_along_the_special_steps(name):
    pf = P.map_derivation(T.add_to_mult(DERIVATIONS[name]))
    seen: set[int] = set()
    proofs = [pf] + [q for hit in P.special_steps(pf) for q in (hit.exposed, hit.result)]
    for q in proofs:
        _assert_tables_fresh(q, seen)
        for copy in (P.m_subst(q, "zz", const(0)), proof_from_obj(proof_to_obj(q))):
            assert copy.table is None  # rebuilt node by node, computed on first use
            _assert_tables_fresh(copy, seen)


def test_a_node_replaced_over_a_longer_premise_computes_its_own_table():
    node = P.mk_qw(_ax("X"), 1, _W)
    assert node.table is not None
    longer = P.mk_qw(node.premise(0), 0, _W)
    moved = replace(node, premises=(longer,))
    assert moved.table is None
    assert P.layout(moved) == _former_table(moved)[0] == ((0, 2, 3),) != P.layout(node)


def test_every_node_of_a_mapped_church_proof_is_gathered_as_formerly():
    seen: set[int] = set()
    for n in range(1, 49):
        _assert_tables_fresh(P.map_derivation(T.add_to_mult(C.church_applied_derivation(n))), seen)


def test_nodes_of_one_shape_share_one_table_and_a_table_with_a_hole_is_refused():
    node = P.mk_qw(_ax("X"), 1, _W)
    assert P.mk_bot(_ax("Y"), 1, _BOT).table == node.table
    assert P.mk_qw(_ax("Y"), 1, _W).table is node.table
    moved = replace(node, premises=(_ax("Z"),))
    assert moved.table is None and P.layout(moved) is node.table[0] and moved.table is node.table
    for rule, out in (("qw", _W), ("bot", _BOT)):  # an axiom concludes two formulas
        getattr(P, f"mk_{rule}")(_ax("X"), 2, out)
        with pytest.raises(P.ProofError, match="leaves a position empty"):
            getattr(P, f"mk_{rule}")(_ax("X"), 3, out)


# -- the gate: special steps give what the former commutation gave --------------------

GATE_INPUTS = {
    **{e.name: e.name for e in C.entries() if e.derivation},
    **{f"church-applied-{n}": n for n in range(1, 13)},
}


def _special_steps_digest(which, monkeypatch) -> str:
    """SHA-256 over the special steps of one input's mapped proof: its
    weight, and each step's kind, path, printed weight and the files of its
    exposed and result proofs, then where both name supplies stopped.  The
    input is built after both supplies restart at 1, so the digest does not
    depend on what ran before."""
    monkeypatch.setattr(L, "_gen", itertools.count(1))
    monkeypatch.setattr(R, "_counter", itertools.count(1))
    d = C.by_name(which).derivation if isinstance(which, str) else C.church_applied_derivation(which)
    pf = P.map_derivation(T.add_to_mult(d))
    out: list = [print_poly(P.weight(pf))]
    for hit in P.special_steps(pf):
        out.append([hit.kind, list(hit.path), print_poly(P.weight(hit.result)),
                    proof_to_obj(hit.exposed), proof_to_obj(hit.result)])
    out.append([next(L._gen), next(R._counter)])
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


# Computed at the commit before the layout-composed `_hoist` translation.
GATE_DIGESTS = {
    "identity-app": "0e48a280a56c20ddaf197edd8777f9991e395686befdff565c94b1b7a91c737a",
    "kappa": "99a568a23f1fb26e919c6541bc41b15891d4e5b6a9465dfc7560c8106c8ee5ec",
    "kappa-callcc": "5af1fb6279987464cc54bf5afaca3f70945cdc36c24a7976f166d6e30db9a3a1",
    "aleph": "f34dd5493193e952ab20a6eb7aba6babace67631bea44bb37f14f5d38ab4bf8c",
    "aleph-invoke-0": "5f59ff0a9fd94f7dff1b53e74b78582fcda614d2858cbbc5e8dde25ac6bd4b71",
    "aleph-applied": "6f60b08ab060091b3cd316543943695ab818b67f58351941852ba746cbd6f1b5",
    "church-0": "76dcc6e9b88a2e2752e5871fab45ba5e4add860c7569c98466c9b3e214092155",
    "church-1": "fec26bb6d6d77bc47b853b8168b19a15036d397ac48544c09826e37c18bdfa0d",
    "church-2": "72b1bf7526edb98e133c6a4d436b7c6a60650f4e09fbc11c2a46b6858c0a2a7f",
    "church-3": "d0df80e2a167e65830ff35e13ea4b219f6a39c698c1197b002f7fa343d49666a",
    "church-1-app": "522296651b9ef86d49a5fec8f64fe3a77dac753629e856fdc79d3fbd97d14489",
    "church-2-app": "e5699fd821deb44d471f3764e3c2566354a070026f02caeb4ca81f1ca7088832",
    "church-applied-1": "522296651b9ef86d49a5fec8f64fe3a77dac753629e856fdc79d3fbd97d14489",
    "church-applied-2": "e5699fd821deb44d471f3764e3c2566354a070026f02caeb4ca81f1ca7088832",
    "church-applied-3": "cae156f7cbba80ebe90f4c2fb9552c0dd860d8540bede5e5a59b8dbf4f3cf2ae",
    "church-applied-4": "cf443de0b12f59bab717174a69ff7828d959f1ff0db6e8c9131118565ffc33b5",
    "church-applied-5": "0616a3a97d3dd05a6c42a23c23272fd48d3f1a7554ac8d4e730dfe0f47fcc50b",
    "church-applied-6": "df8a7ccf4bf1532c412fd96e9f81b42b246c1190c1d335f5d92b4c618678d147",
    "church-applied-7": "b18cbffb02e1f2cff9f92205d1671170ccf54bed3692176aed3f71e558bc9d57",
    "church-applied-8": "0c956ae4c3da2b6ba1c4654a59cf23c8598a41ca253bc5ca662d58a51b2d83c0",
    "church-applied-9": "69a8645347fdce49cba04af45a964959602a60736727c72abe5f1454e09ad3e3",
    "church-applied-10": "fd5e7af4d431b6a54b38bcd79a97e7228fbfa5cb66bd6584f04945af7f82ee66",
    "church-applied-11": "138c243ec7b3ef22c38e50c8ea359bebf74472861bbad9746f9fb7de6c6af7e9",
    "church-applied-12": "f8fc9d7619ba40cc3042d6e3caca02cf76b8635ea075d4d9fc72d4e1ce6a7716",
}


@pytest.mark.parametrize("name", sorted(GATE_INPUTS))
def test_special_steps_give_the_pinned_files_weights_and_names(name, monkeypatch):
    assert _special_steps_digest(GATE_INPUTS[name], monkeypatch) == GATE_DIGESTS[name]


# -- the composed hoist translation and the weight against their former definitions ----


def _scaled_proofs() -> list[P.Proof]:
    """The mapped proofs of every derivation above and of church n = 13-24."""
    ds = [*DERIVATIONS.values(), *(C.church_applied_derivation(n) for n in range(13, 25))]
    return [P.map_derivation(T.add_to_mult(d)) for d in ds]


def test_each_hoist_translation_equals_the_traced_one(monkeypatch):
    """The translation `_hoist` composes from the layouts of the parent, the
    child and the two rebuilt nodes equals the former one, which traces each
    conclusion position up to a reused subproof, on every hoist of every
    special step above and of every commutation no derivation reaches."""
    hoist, seen = P._hoist, []

    def compared(parent, which):
        node, tr, rel = hoist(parent, which)
        child = parent.premises[which]
        assert tr == PO._derive_trans(parent, node, [*child.premises, parent.premises[1 - which]])
        seen.append((parent.rule, child.rule))
        return node, tr, rel

    monkeypatch.setattr(P, "_hoist", compared)
    for pf in _scaled_proofs():
        P.normalize(pf)
    for pf, path, _ in COMMUTED.values():
        PO.expose_logical(pf, path)
    assert len(seen) > 619
    assert {c for _, c in seen} == {"par", "qc", "qd", "qw", "bot", "cut", "tensor"}
    assert {p for p, _ in seen} == {"cut", "tensor"}


def test_weight_equals_the_former_definition_along_the_special_steps():
    """On every mapped proof above and on each special step's exposed and
    result proofs, the weight counted by multiplier object equals the former
    one, counted by multiplier value."""
    for pf in _scaled_proofs():
        for q in [pf, *(q for hit in P.special_steps(pf) for q in (hit.exposed, hit.result))]:
            assert P.weight(q) == PO.fate_weight(q)


def test_weight_adds_the_counts_of_equal_multipliers_held_by_distinct_objects():
    """Two boxes whose labels are equal polynomials but distinct objects,
    each over a cut and a box of its own: the counts under each label, and
    under each product of labels, are added as one."""
    left, right = _boxed_cut(), _boxed_cut()
    labels = [box.concl[1].label for box in (left, right)]
    assert labels[0] == labels[1] and labels[0] is not labels[1]
    tensor = F.Tensor(left.concl[1].formula, right.concl[1].formula)
    pf = P.mk_tensor(left, right, 1, 1, _at(tensor, pvar("r")))
    assert P.check_proof(pf).ok
    r, q = pvar("r"), pvar("q")
    assert P.weight(pf) == PO.fate_weight(pf) == PO.weight(pf) == 2 * r * q + 2 * r
    cut = P.mk_cut(P.mk_qw(_ax("X"), 2, F.lf_neg(pf.concl[-1])), pf, 2, len(pf.concl) - 1)
    assert P.weight(cut) == PO.fate_weight(cut) == PO.weight(cut)


def test_an_axiom_without_one_positive_side_weighs_as_before():
    """A file axiom with no positive side raises what the former weight
    raised; one with two positive sides gives what it gave."""

    def cut_against(*sides: str) -> P.Proof:
        concl = tuple(_at(parse_formula(s)) for s in sides)
        return P.mk_cut(P.mk_qw(_ax("Y"), 2, concl[0]), P.mk_ax(concl, concl[0]), 2, 0)

    negative = cut_against("~X", "~X")
    for weigh in (PO.fate_weight, P.weight):
        with pytest.raises(IndexError):
            weigh(negative)
    positive = cut_against("X", "X")
    assert P.weight(positive) == PO.fate_weight(positive) == const(1)
