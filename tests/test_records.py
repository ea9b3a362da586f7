"""The records of the checking path behave as the frozen dataclasses they were.

Polynomials and monomials, formulas and labelled formulas, judgments,
derivations and proofs are immutable records in ``__slots__``
(``record.Frozen``): no field can be assigned or deleted, a node has no
``__dict__``, ``repr`` is the dataclass form, and ``==`` and ``hash`` read
the fields and require the exact class.  Derivations and proofs compare as
trees, leaving out ``ann`` and ``data``.  The ``repr`` strings below were
printed by the dataclasses.
"""

import pytest

from bllp import corpus as C
from bllp import formula as F
from bllp import lammu as L
from bllp import respoly as R
from bllp.formula import LF
from bllp.proofs import Proof, check_proof, map_derivation, mk_ax
from bllp.record import replace
from bllp.respoly import Mono, Poly, const, pvar
from bllp.typecheck import Derivation, Judgment, add_to_mult

X, Y = F.Atom("X"), F.Atom("Y")
ONE_LF = LF(F.NegAtom("X"), F.VACUOUS, const(1))
ENTRY = C.modal(C.X, 1, const(1))


def _judgment(subject: str = "x") -> Judgment:
    return Judgment((("x", ENTRY),), L.Var(subject), ONE_LF, ())


# Per class: a node, built afresh on each call; nodes that differ from it in
# one field each (or, for the trees, in one of rule, conclusion and
# premises); the stored facts that are not fields; and its pinned ``repr``.
RECORDS = {
    "Mono": (
        lambda: Mono((("x", 1), ("y", 2))),
        [Mono((("x", 1), ("y", 3))), Mono((("x", 1),))],
        ("_vars",),
        "Mono(factors=(('x', 1), ('y', 2)))",
    ),
    "Poly": (
        lambda: Poly(((Mono(()), 1), (Mono((("x", 1),)), 2))),
        [Poly(((Mono(()), 1), (Mono((("x", 1),)), 3))), Poly(((Mono((("x", 1),)), 2),))],
        ("_vars",),
        "Poly(terms=((Mono(factors=()), 1), (Mono(factors=(('x', 1),)), 2)))",
    ),
    "Atom": (lambda: F.Atom("X"), [F.Atom("Y")], (), "Atom(name='X')"),
    "NegAtom": (lambda: F.NegAtom("X"), [F.NegAtom("Y")], (), "NegAtom(name='X')"),
    "One": (lambda: F.One(), [], (), "One()"),
    "Bottom": (lambda: F.Bottom(), [], (), "Bottom()"),
    "Tensor": (
        lambda: F.Tensor(X, F.One()),
        [F.Tensor(Y, F.One()), F.Tensor(X, X)],
        (),
        "Tensor(left=Atom(name='X'), right=One())",
    ),
    "Par": (
        lambda: F.Par(F.NegAtom("X"), F.Bottom()),
        [F.Par(F.NegAtom("Y"), F.Bottom()), F.Par(F.NegAtom("X"), F.NegAtom("X"))],
        (),
        "Par(left=NegAtom(name='X'), right=Bottom())",
    ),
    "Bang": (
        lambda: F.Bang("x", pvar("p"), X),
        [F.Bang("y", pvar("p"), X), F.Bang("x", pvar("q"), X), F.Bang("x", pvar("p"), Y)],
        (),
        "Bang(var='x', bound=Poly(terms=((Mono(factors=(('p', 1),)), 1),)), body=Atom(name='X'))",
    ),
    "WhyNot": (
        lambda: F.WhyNot("x", pvar("p"), X),
        [F.WhyNot("y", pvar("p"), X), F.WhyNot("x", pvar("q"), X), F.WhyNot("x", pvar("p"), Y)],
        (),
        "WhyNot(var='x', bound=Poly(terms=((Mono(factors=(('p', 1),)), 1),)), body=Atom(name='X'))",
    ),
    "LF": (
        lambda: LF(X, F.VACUOUS, const(1)),
        [LF(Y, F.VACUOUS, const(1)), LF(X, "x", const(1)), LF(X, F.VACUOUS, const(2))],
        (),
        "LF(formula=Atom(name='X'), binder='_', label=Poly(terms=((Mono(factors=()), 1),)))",
    ),
    "Judgment": (
        _judgment,
        [
            Judgment((), L.Var("x"), ONE_LF, ()),
            _judgment("y"),
            Judgment((("x", ENTRY),), L.Var("x"), LF(F.NegAtom("X"), F.VACUOUS, const(2)), ()),
            Judgment((("x", ENTRY),), L.Var("x"), ONE_LF, (("a", ONE_LF),)),
        ],
        (),
        "Judgment(lam=(('x', LF(formula=WhyNot(var='_', bound=Poly(terms=((Mono(factors=()), 1),)), "
        "body=Atom(name='X')), binder='_', label=Poly(terms=((Mono(factors=()), 1),)))),), "
        "subject=Var(name='x'), type=LF(formula=NegAtom(name='X'), binder='_', "
        "label=Poly(terms=((Mono(factors=()), 1),))), mu=())",
    ),
    "Derivation": (
        lambda: Derivation("var_m", _judgment(), (), {"note": 1}),
        [
            Derivation("var", _judgment()),
            Derivation("var_m", _judgment("y")),
            Derivation("var_m", _judgment(), (Derivation("var_m", _judgment()),)),
        ],
        (),
        "Derivation(rule='var_m', concl=Judgment(lam=(('x', LF(formula=WhyNot(var='_', "
        "bound=Poly(terms=((Mono(factors=()), 1),)), body=Atom(name='X')), binder='_', "
        "label=Poly(terms=((Mono(factors=()), 1),)))),), subject=Var(name='x'), "
        "type=LF(formula=NegAtom(name='X'), binder='_', label=Poly(terms=((Mono(factors=()), 1),))), "
        "mu=()), premises=(), ann={'note': 1})",
    ),
    "Proof": (
        lambda: Proof("ax", (ONE_LF, F.lf_neg(ONE_LF)), (), {"witness": ONE_LF}),
        [
            Proof("one", (ONE_LF, F.lf_neg(ONE_LF)), (), {"witness": ONE_LF}),
            Proof("ax", (F.lf_neg(ONE_LF), ONE_LF), (), {"witness": ONE_LF}),
            Proof("ax", (ONE_LF, F.lf_neg(ONE_LF)), (Proof("one", ()),), {"witness": ONE_LF}),
        ],
        ("verdict", "table"),
        "Proof(rule='ax', concl=(LF(formula=NegAtom(name='X'), binder='_', "
        "label=Poly(terms=((Mono(factors=()), 1),))), LF(formula=Atom(name='X'), binder='_', "
        "label=Poly(terms=((Mono(factors=()), 1),)))), premises=(), "
        "data=mappingproxy({'witness': LF(formula=NegAtom(name='X'), binder='_', "
        "label=Poly(terms=((Mono(factors=()), 1),)))}))",
    ),
}
NAMES = sorted(RECORDS)
FORMULAS = {"Atom", "NegAtom", "One", "Bottom", "Tensor", "Par", "Bang", "WhyNot"}


def _stored(name: str) -> tuple[str, ...]:
    return RECORDS[name][2] + (("_dual", "_rvars", "_kind") if name in FORMULAS else ())


def _fields(node) -> list:
    return [getattr(node, f) for f in type(node).__match_args__]


@pytest.mark.parametrize("name", NAMES)
def test_no_field_of_a_record_can_be_assigned_or_deleted(name):
    node = RECORDS[name][0]()
    assert type(node).__name__ == name
    before = _fields(node)
    for key in (*type(node).__match_args__, *_stored(name), "other"):
        with pytest.raises(AttributeError):
            setattr(node, key, before[0] if before else None)
        with pytest.raises(AttributeError):
            delattr(node, key)
    assert all(a is b for a, b in zip(_fields(node), before))
    assert repr(node) == RECORDS[name][3]


@pytest.mark.parametrize("name", NAMES)
def test_a_record_has_no_instance_dict_and_its_stored_facts_start_empty(name):
    node = RECORDS[name][0]()
    assert not hasattr(node, "__dict__")
    assert all(getattr(node, key) is None for key in _stored(name))


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_read_the_fields_and_require_the_exact_class(name):
    make, variants, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    for other in variants:
        assert a != other and other != a
    sub = type("Sub", (type(a),), {"__slots__": ()})(*_fields(a))
    assert a != sub and sub != a
    if name in ("Derivation", "Proof"):  # a tree leaves out ``ann`` and ``data``
        bare = type(a)(a.rule, a.concl, a.premises, {})
        assert a == bare and hash(a) == hash(bare)


def test_stored_facts_of_a_formula_are_no_fields():
    for name in sorted(FORMULAS):
        a, b = RECORDS[name][0](), RECORDS[name][0]()
        F.negate(a), F.free_rvars(a), F.classify(a)
        assert a._kind is not None and b._kind is None
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_the_pairs_of_a_shape_differ_by_class():
    for pos, neg in (("Atom", "NegAtom"), ("One", "Bottom"), ("Tensor", "Par"), ("Bang", "WhyNot")):
        a = RECORDS[pos][0]()
        b = getattr(F, neg)(*_fields(a))
        assert a != b and b != a and a.positive and not b.positive


def test_a_polynomial_stores_its_variables_as_one_frozenset():
    p = R.add(pvar("y"), R.mul(pvar("x"), R.binom("y", 2)))
    assert p._vars is None
    vs = p.free_vars()
    assert type(vs) is frozenset and vs == {"x", "y"} and p.free_vars() is vs
    (m,) = [m for m, _ in p.terms if len(m.factors) == 2]
    assert m.vars() == {"x", "y"} and m.vars() is m.vars()
    assert R.ZERO.free_vars() == frozenset() and R.const(3).free_vars() == frozenset()


def test_replace_keeps_data_and_drops_the_stored_verdict_and_table():
    pf = map_derivation(add_to_mult(C.church_applied_derivation(2)))
    assert check_proof(pf).ok
    assert pf.verdict == () and pf.table is not None
    again = replace(pf, concl=pf.concl)
    assert again.verdict is None and again.table is None and again.data is pf.data
    assert again == pf and check_proof(again).ok and again.verdict == ()
    ax = mk_ax((ONE_LF, F.lf_neg(ONE_LF)), ONE_LF)
    assert replace(ax, rule="ax").data is ax.data


def test_replace_rebuilds_through_the_constructor_and_its_checks():
    a = LF(X, F.VACUOUS, pvar("x"))
    with pytest.raises(F.ShapeMismatch):
        replace(a, binder="x")
    with pytest.raises(TypeError):
        replace(a, colour="red")
    d = Derivation("var_m", _judgment(), (), {"note": 1})
    moved = replace(d, concl=replace(d.concl, subject=None))
    assert moved.ann is d.ann and moved.concl.subject is None and moved.concl.lam is d.concl.lam


def test_repr_of_a_deep_derivation_and_of_its_proof_writes_the_premises_from_the_stack():
    """The premises of a tree are a tuple: church-400's elaborated
    derivation is 804 nodes deep and its proof 1605, past the recursion
    limit, and each node is written once per position."""
    m = add_to_mult(C.church_applied_derivation(400))
    for tree in (m, map_derivation(m)):
        positions, stack = 0, [tree]
        while stack:
            t = stack.pop()
            positions += 1
            stack += t.premises
        head = f"{type(tree).__name__}(rule="
        text = repr(tree)
        assert text.startswith(head) and text.count(head) == positions
