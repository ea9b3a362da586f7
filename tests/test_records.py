"""The records of every layer behave as the frozen dataclasses they were.

Polynomials and monomials, formulas and labelled formulas, judgments,
derivations and proofs, terms and the machine's nodes are immutable records
in ``__slots__`` (``record.Frozen``): no field can be assigned or deleted, a
node has no ``__dict__``, ``repr`` is the dataclass form, and ``==`` and
``hash`` read the fields and require the exact class.  Derivations and
proofs compare as trees, leaving out ``ann`` and ``data``.  The ``repr``
strings below were printed by the dataclasses.  The machine's nodes hold
dictionaries, so their ``hash`` fails, as the dataclasses' did.

``Frozen`` writes each class's constructor, ``==`` and ``hash`` when the
class is created; the last tests check that generator on classes declared
here.
"""

import dataclasses
from types import MappingProxyType

import pytest

from bllp import corpus as C
from bllp import formula as F
from bllp import lammu as L
from bllp import respoly as R
from bllp.formula import LF
from bllp.proofs import Proof, check_proof, map_derivation, mk_ax, weight
from bllp.machine import EMPTY, Closure, Config, Env
from bllp.record import Frozen, replace
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
        ("verdict", "table", "form"),
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
    assert check_proof(pf).ok and weight(pf) is not None
    assert pf.verdict == () and pf.table is not None and pf.form is not None
    again = replace(pf, concl=pf.concl)
    assert again.verdict is None and again.table is None and again.form is None and again.data is pf.data
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


# -- terms: as above; ``==`` and ``hash`` are ``Term``'s own pre-order walk -------------

TERMS = {
    "Var": (lambda: L.Var("x"), [L.Var("y")], ("_fv", "_fmv"), "Var(name='x')"),
    "Lam": (
        lambda: L.Lam("x", L.Var("x")),
        [L.Lam("y", L.Var("x")), L.Lam("x", L.Var("y"))],
        ("_fv", "_fmv"),
        "Lam(var='x', body=Var(name='x'))",
    ),
    "Mu": (
        lambda: L.Mu("a", L.Named("a", L.Var("x"))),
        [L.Mu("b", L.Named("a", L.Var("x"))), L.Mu("a", L.Var("x"))],
        ("_fv", "_fmv"),
        "Mu(mvar='a', body=Named(mvar='a', body=Var(name='x')))",
    ),
    "Named": (
        lambda: L.Named("a", L.Var("x")),
        [L.Named("b", L.Var("x")), L.Named("a", L.Var("y")), L.Mu("a", L.Var("x"))],
        ("_fv", "_fmv"),
        "Named(mvar='a', body=Var(name='x'))",
    ),
    "App": (
        lambda: L.App(L.Var("f"), L.Var("x")),
        [L.App(L.Var("g"), L.Var("x")), L.App(L.Var("f"), L.Var("y")), L.App(L.Var("x"), L.Var("f"))],
        ("_fv", "_fmv"),
        "App(fn=Var(name='f'), arg=Var(name='x'))",
    ),
}


@pytest.mark.parametrize("name", sorted(TERMS))
def test_a_term_is_an_immutable_record_whose_stored_facts_start_empty(name):
    make, _, stored, text = TERMS[name]
    node = make()
    assert type(node).__name__ == name and not hasattr(node, "__dict__")
    assert all(getattr(node, key) is None for key in stored)
    before = _fields(node)
    for key in (*type(node).__match_args__, *stored, "other"):
        with pytest.raises(AttributeError):
            setattr(node, key, before[0])
        with pytest.raises(AttributeError):
            delattr(node, key)
    assert all(a is b for a, b in zip(_fields(node), before))
    assert repr(node) == text


@pytest.mark.parametrize("name", sorted(TERMS))
def test_term_equality_and_hash_read_the_whole_term(name):
    make, variants, _, _ = TERMS[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    for other in variants:
        assert a != other and other != a
    assert a.__eq__(repr(a)) is NotImplemented
    a.fv, a.fmv
    assert a._fv is not None and b._fv is None and a == b and hash(a) == hash(b)
    # A subclass's node answers by its exact class, as a root and as a subterm.
    Sub = type("Sub", (type(a),), {"__slots__": ()})
    sub, sub2 = Sub(*_fields(a)), Sub(*_fields(a))
    assert a != sub and sub != a and a.__eq__(sub) is NotImplemented
    assert sub == sub2 and hash(sub) == hash(sub2) and hash(sub) != hash(a)
    assert L.App(L.Var("f"), sub) != L.App(L.Var("f"), a)
    assert L.App(L.Var("f"), sub) == L.App(L.Var("f"), sub2)
    assert hash(L.App(L.Var("f"), sub)) == hash(L.App(L.Var("f"), sub2))


# -- the machine's nodes: as above, but their dictionaries make ``hash`` fail --------

MACHINE = {
    "Env": (
        lambda: Env({"x": Closure(L.Var("z"), EMPTY)}, {}),
        [Env(), Env({"x": Closure(L.Var("z"), EMPTY)}, {"a": ()}), Env({"y": Closure(L.Var("z"), EMPTY)})],
        "Env(lam={'x': Closure(term=Var(name='z'), env=Env(lam={}, mu={}))}, mu={})",
    ),
    "Closure": (
        lambda: Closure(L.Var("x"), Env({"y": Closure(L.Var("z"), EMPTY)})),
        [Closure(L.Var("w"), Env({"y": Closure(L.Var("z"), EMPTY)})), Closure(L.Var("x"), EMPTY)],
        "Closure(term=Var(name='x'), env=Env(lam={'y': Closure(term=Var(name='z'), "
        "env=Env(lam={}, mu={}))}, mu={}))",
    ),
    "Config": (
        lambda: Config(Closure(L.Var("x"), EMPTY), (Closure(L.Var("u"), EMPTY),)),
        [Config(Closure(L.Var("x"), EMPTY), ()), Config(Closure(L.Var("y"), EMPTY), (Closure(L.Var("u"), EMPTY),))],
        "Config(closure=Closure(term=Var(name='x'), env=Env(lam={}, mu={})), "
        "stack=(Closure(term=Var(name='u'), env=Env(lam={}, mu={})),))",
    ),
}


@pytest.mark.parametrize("name", sorted(MACHINE))
def test_a_machine_node_is_an_immutable_record_without_a_dict(name):
    make, _, text = MACHINE[name]
    node = make()
    assert type(node).__name__ == name and not hasattr(node, "__dict__")
    before = _fields(node)
    for key in (*type(node).__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(node, key, before[0])
        with pytest.raises(AttributeError):
            delattr(node, key)
    assert all(a is b for a, b in zip(_fields(node), before))
    assert repr(node) == text


@pytest.mark.parametrize("name", sorted(MACHINE))
def test_machine_node_equality_reads_the_fields_and_hash_fails_on_a_dict(name):
    make, variants, _ = MACHINE[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    for other in variants:
        assert a != other and other != a
    sub = type("Sub", (type(a),), {"__slots__": ()})(*_fields(a))
    assert a != sub and sub != a
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(a)


# -- the generator of ``record.Frozen``, on classes declared here --------------------


class Pair(Frozen):
    __slots__ = ("left", "right", "_seen")
    __match_args__ = ("left", "right")


@dataclasses.dataclass(frozen=True)
class PairDC:
    left: object
    right: object


class Checked(Frozen):
    __slots__ = ("n",)
    __match_args__ = ("n",)

    def _check(self) -> None:
        if self.n < 0:
            raise ValueError("negative")


def test_a_declared_record_gets_the_dataclass_constructor_eq_hash_and_repr():
    a = Pair(1, right=(2, "b"))
    assert a == Pair(left=1, right=(2, "b")) == Pair(1, (2, "b")) and a._seen is None
    assert a != Pair(1, (2, "c")) and a != Pair(0, (2, "b")) and a != PairDC(1, (2, "b"))
    assert a.__eq__(PairDC(1, (2, "b"))) is NotImplemented and a.__eq__(a) is True
    assert hash(a) == hash((1, (2, "b"))) == hash(PairDC(1, (2, "b")))
    assert repr(a) == repr(PairDC(1, (2, "b"))).replace("PairDC", "Pair") == "Pair(left=1, right=(2, 'b'))"
    assert not hasattr(a, "__dict__") and replace(a, right=3) == Pair(1, 3)
    for bad in ((), (1,), (1, 2, 3)):
        with pytest.raises(TypeError):
            Pair(*bad)
    with pytest.raises(TypeError):
        Pair(1, 2, colour="red")
    for key in ("left", "_seen"):
        with pytest.raises(AttributeError):
            setattr(a, key, 0)
    assert Pair.__init__.__qualname__ == "Pair.__init__" and Pair.__eq__.__module__ == __name__


def test_a_raising_check_aborts_construction_also_through_replace_and_a_subclass():
    assert Checked(0).n == 0
    with pytest.raises(ValueError, match="negative"):
        Checked(-1)
    with pytest.raises(ValueError, match="negative"):
        replace(Checked(2), n=-2)
    Sub = type("Sub", (Checked,), {"__slots__": ()})
    with pytest.raises(ValueError, match="negative"):
        Sub(-1)
    with pytest.raises(F.ShapeMismatch):
        LF(X, "x", pvar("x"))
    with pytest.raises(AssertionError):
        Mono((("y", 1), ("x", 1)))


def test_a_method_written_by_hand_in_the_class_or_a_record_base_wins():
    wit = {"x": const(1)}
    data = {"witness": ONE_LF, "sum_witness": wit}
    SubProof = type("Sub", (Proof,), {"__slots__": ()})
    p = SubProof("ax", (ONE_LF, F.lf_neg(ONE_LF)), (), data)
    assert type(p.data) is MappingProxyType and type(p.data["sum_witness"]) is MappingProxyType
    data["other"], wit["y"] = 1, const(2)
    assert set(p.data) == {"witness", "sum_witness"} and set(p.data["sum_witness"]) == {"x"}
    assert p.verdict is None and p.table is None and SubProof.__init__ is Proof.__init__
    for slots in ((), ("extra",)):
        SubVar = type("Sub", (L.Var,), {"__slots__": slots})
        assert SubVar.__eq__ is L.Term.__eq__ and SubVar.__hash__ is L.Term.__hash__
        v = SubVar("x")
        assert v.name == "x" and v._fv is None and v == v and v.__eq__("x") is NotImplemented
    assert type("Sub", (L.Var,), {"__slots__": ("extra",)})("x").extra is None

    class Loose(Pair):
        __slots__ = ()

        def __eq__(self, other: object) -> bool:  # Python sets ``__hash__ = None`` beside this
            return isinstance(other, Pair) and self.left == other.left

    assert Loose(1, 2) == Pair(1, 3) and hash(Loose(1, 2)) == hash((1, 2))


def test_a_class_that_adds_no_slot_shares_its_base_functions():
    for base, subs in (
        (F._Named, (F.Atom, F.NegAtom)),
        (F.Formula, (F._Unit, F.One, F.Bottom)),
        (F._Binary, (F.Tensor, F.Par)),
        (F._Bounded, (F.Bang, F.WhyNot)),
    ):
        for cls in subs:
            assert all(getattr(cls, m) is getattr(base, m) for m in ("__init__", "__eq__", "__hash__"))
    Same = type("Same", (Pair,), {"__slots__": ()})
    assert (Same.__init__, Same.__eq__, Same.__hash__) == (Pair.__init__, Pair.__eq__, Pair.__hash__)
    More = type("More", (Pair,), {"__slots__": ("_more",)})
    assert More.__init__ is not Pair.__init__ and More(1, 2)._more is None
    assert Same(1, 2) != Pair(1, 2) and Same(1, 2) == Same(1, 2)
