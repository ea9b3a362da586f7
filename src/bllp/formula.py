"""Polarized formulas, labelled formulas, subtyping and sum constructions.

Positive formulas are built from atoms, tensor, 1 and the bounded bang;
negative ones from negated atoms, par, bottom and the bounded whynot.
A labelled formula ``<A>[x<p]`` binds the resource variable ``x`` in ``A``
and carries the budget polynomial ``p``.  The binder name ``_`` stands for
a variable with no occurrences.

The comparisons ``alpha_eq``, ``lf_alpha_eq``, ``formula_leq`` and
``lf_leq`` return at once when their operands are equal (``==``, which also
covers one object passed twice): α-equality contains equality and ⊑ is
reflexive.  Unequal operands are decided by one pairwise walk that reads
each bound variable as the number of its binder pair (after de Bruijn) and
builds a polynomial only to rename a bound that mentions one.  Only this
module matches binders: a caller that compares two bodies under their own
binders passes the pair of names, and one that moves a body to another
binder calls ``with_binder``.

Formulas and labelled formulas are immutable records in ``__slots__``
(``record.Frozen``, which writes their constructors, ``==`` and ``hash``).
A positive and a negative class share a shape and its functions, and
``==`` requires the exact class.  ``LF._check`` rejects a binder that
occurs in its own label.  A formula node holds its structural facts.  Its
polarity ``positive`` is a constant of its class.  :func:`negate`, :func:`free_rvars` and
:func:`classify` compute their answer on a node's first query and store it
in one of three slots that start as ``None``, as ``lammu.Term`` keeps
``fv``; they are not fields, so ``==``, ``hash`` and ``repr`` ignore them.
``negate`` stores the dual on both nodes, so ``negate(negate(f))`` is
``f`` itself; a unit's dual is the shared ``BOTTOM`` or ``ONE_F``.
``free_rvars`` returns a shared ``frozenset``.  No fact draws a fresh name.
``negate`` and ``free_rvars`` walk an explicit stack, so a formula of any
depth has them; ``subst_poly`` and the generated ``==`` and ``hash`` still
recurse.
"""

from __future__ import annotations

from typing import ClassVar

from . import respoly
from .record import Frozen
from .respoly import ZERO, Poly, VarId, bounded_sum, compose, fresh_var, poly_leq, pvar

VACUOUS = "_"


class ShapeMismatch(Exception):
    """Operands do not have the required shapes (skeletons or shifts)."""


class Formula(Frozen):
    positive: ClassVar[bool]

    # The stored dual, free resource variables and class: ``None`` until
    # the first query of :func:`negate`, :func:`free_rvars` or :func:`classify`.
    __slots__ = ("_dual", "_rvars", "_kind")

    def __str__(self) -> str:
        from .syntax import print_formula

        return print_formula(self)


_set_dual, _set_rvars, _set_kind = Formula._dual.__set__, Formula._rvars.__set__, Formula._kind.__set__


# The shapes of formula, each shared by a positive and a negative class.
# Their ``==`` requires the exact class, as a dataclass's does.


class _Named(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)


class _Unit(Formula):
    __slots__ = ()


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")


class _Bounded(Formula):
    __slots__ = ("var", "bound", "body")
    __match_args__ = ("var", "bound", "body")


class Atom(_Named):
    positive = True
    __slots__ = ()


class NegAtom(_Named):
    positive = False
    __slots__ = ()


class One(_Unit):
    positive = True
    __slots__ = ()


class Bottom(_Unit):
    positive = False
    __slots__ = ()


class Tensor(_Binary):
    positive = True
    __slots__ = ()


class Par(_Binary):
    positive = False
    __slots__ = ()


class Bang(_Bounded):
    positive = True
    __slots__ = ()


class WhyNot(_Bounded):
    positive = False
    __slots__ = ()


ONE_F = One()
BOTTOM = Bottom()
_NO_RVARS: frozenset[VarId] = frozenset()


# The class of each non-unit class's dual, and the shared dual of each unit.
_DUAL_CLASS = {Atom: NegAtom, NegAtom: Atom, Tensor: Par, Par: Tensor, Bang: WhyNot, WhyNot: Bang}
_UNIT_DUAL = {One: BOTTOM, Bottom: ONE_F}


def negate(f: Formula) -> Formula:
    """The De Morgan dual of ``f``, built on the first query and stored on
    ``f``, with ``f`` stored on it; the dual of a unit is the shared one,
    stored on the unit only.

    Post-order on an explicit stack, so a formula of any depth is negated;
    a subformula whose dual is stored is not entered.
    """
    g = f._dual
    if g is not None:
        return g
    stack = [f]
    # Type tests, not ``match``: the parsers negate about one atom per entry.
    while stack:
        node = stack[-1]
        if node._dual is not None:
            stack.pop()
            continue
        cls = type(node)
        if cls is Atom or cls is NegAtom:
            g = _DUAL_CLASS[cls](node.name)
        elif cls is Tensor or cls is Par:
            l, r = node.left._dual, node.right._dual
            if l is None or r is None:
                if l is None:
                    stack.append(node.left)
                if r is None:
                    stack.append(node.right)
                continue
            g = _DUAL_CLASS[cls](l, r)
        elif cls is Bang or cls is WhyNot:
            n = node.body._dual
            if n is None:
                stack.append(node.body)
                continue
            g = _DUAL_CLASS[cls](node.var, node.bound, n)
        elif cls is One or cls is Bottom:
            _set_dual(node, _UNIT_DUAL[cls])
            stack.pop()
            continue
        else:
            raise TypeError(node)
        _set_dual(node, g)
        _set_dual(g, node)
        stack.pop()
    return f._dual


def free_rvars(f: Formula) -> frozenset[VarId]:
    """The free resource variables of ``f``, computed on the first query
    and stored on ``f`` and on every subformula lacking them; a node shares
    its child's set when they agree.

    Post-order on an explicit stack, as :func:`negate`.
    """
    fv = f._rvars
    if fv is not None:
        return fv
    stack = [f]
    while stack:
        node = stack[-1]
        if node._rvars is not None:
            stack.pop()
            continue
        cls = type(node)
        if cls is Tensor or cls is Par:
            fl, fr = node.left._rvars, node.right._rvars
            if fl is None or fr is None:
                if fl is None:
                    stack.append(node.left)
                if fr is None:
                    stack.append(node.right)
                continue
            fv = fl if fr <= fl else fr if fl <= fr else fl | fr
        elif cls is Bang or cls is WhyNot:
            fv = node.body._rvars
            if fv is None:
                stack.append(node.body)
                continue
            x = node.var
            if x in fv:
                fv = fv - {x}
            pv = node.bound.free_vars()
            if not pv <= fv:
                fv = fv | pv
        elif cls is Atom or cls is NegAtom or cls is One or cls is Bottom:
            fv = _NO_RVARS
        else:
            raise TypeError(node)
        _set_rvars(node, fv)
        stack.pop()
    return f._rvars


def subst_poly(f: Formula, var: VarId, q: Poly) -> Formula:
    """Capture-avoiding substitution in every polynomial position."""
    if var == VACUOUS:
        return f
    match f:
        case Atom() | NegAtom() | One() | Bottom():
            return f
        case Tensor(l, r):
            return Tensor(subst_poly(l, var, q), subst_poly(r, var, q))
        case Par(l, r):
            return Par(subst_poly(l, var, q), subst_poly(r, var, q))
        case Bang(x, p, n) | WhyNot(x, p, n):
            cls = type(f)
            p2 = compose(p, var, q)
            if x == var:
                return cls(x, p2, n)
            if x != VACUOUS and x in q.free_vars():
                x2 = fresh_var(x)
                n = subst_poly(n, x, pvar(x2))
                x = x2
            return cls(x, p2, subst_poly(n, var, q))
    raise TypeError(f)


def alpha_eq(a: Formula, b: Formula, binders: tuple[VarId, VarId] | None = None) -> bool:
    """α-equality; ``binders`` pairs a binder ``x`` around ``a`` with ``y``
    around ``b`` (say, their label binders), read as one bound variable."""
    return (binders is None or binders[0] == binders[1]) and a == b or _walk(a, b, binders, False)


def formula_leq(a: Formula, b: Formula, binders: tuple[VarId, VarId] | None = None) -> bool:
    """Subtyping ``a ⊑ b``: same skeleton, ``!`` bounds contravariant and
    ``?`` bounds covariant; ``binders`` as in :func:`alpha_eq`."""
    return (binders is None or binders[0] == binders[1]) and a == b or _walk(a, b, binders, True)


def _walk(a: Formula, b: Formula, binders: tuple[VarId, VarId] | None, leq: bool) -> bool:
    """Decide :func:`alpha_eq`, or :func:`formula_leq` if ``leq``, in one pairwise walk.

    The k-th binder entered on one side pairs with the k-th on the other
    (``binders`` is pair 0), and each side reads a bound variable as the
    name ``^k`` of its pair, which neither the parser nor ``fresh_var``
    produces.  A bound that mentions a bound variable is renamed so by
    ``respoly.rename``, the walk's one builder; a subformula shared by both
    sides is skipped while the two sides read every name alike.
    """
    # Each side's map from a bound name to the name of its binder pair; a
    # binder pair replaces both maps, and its undo entry restores them.
    left, right = ({binders[0]: "^0"}, {binders[1]: "^0"}) if binders else ({}, {})
    pairs = 1
    # Entries are a pair of subformulas, or (None, the maps to restore).
    stack: list = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is None:
            left, right = b
            continue
        if a is b and left == right:
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Tensor or cls is Par:
            stack += ((a.right, b.right), (a.left, b.left))
        elif cls is Bang or cls is WhyNot:
            p, q = _read(a.bound, left), _read(b.bound, right)
            ok = (poly_leq(q, p) if cls is Bang else poly_leq(p, q)) if leq else p == q
            if not ok:
                return False
            stack.append((None, (left, right)))
            left, right = {**left, a.var: f"^{pairs}"}, {**right, b.var: f"^{pairs}"}
            pairs += 1
            stack.append((a.body, b.body))
        elif cls is Atom or cls is NegAtom:
            if a.name != b.name:
                return False
        elif cls is not One and cls is not Bottom:
            raise TypeError(a)
    return True


def _read(p: Poly, side: dict[VarId, str]) -> Poly:
    """``p`` with each bound variable read as the name of its binder pair."""
    if side and not side.keys().isdisjoint(p.free_vars()):
        return respoly.rename(p, side)
    return p


# -- labelled formulas --------------------------------------------------------


class LF(Frozen):
    """Labelled formula ``<formula>[binder < label]``."""

    __slots__ = ("formula", "binder", "label")
    __match_args__ = ("formula", "binder", "label")

    def _check(self) -> None:
        if self.binder != VACUOUS and self.binder in self.label.free_vars():
            raise ShapeMismatch(f"label binder {self.binder!r} occurs in its own label")

    def __str__(self) -> str:
        from .syntax import print_lf

        return print_lf(self)


def lf(formula: Formula, binder: VarId, label: Poly | int) -> LF:
    label = label if isinstance(label, Poly) else respoly.const(label)
    if binder != VACUOUS and binder not in free_rvars(formula):
        binder = VACUOUS
    return LF(formula, binder, label)


def lf_neg(a: LF) -> LF:
    return LF(negate(a.formula), a.binder, a.label)


def lf_subst(a: LF, var: VarId, q: Poly) -> LF:
    """Resource-variable substitution under the label binder."""
    if var == a.binder or var == VACUOUS:
        return a
    binder, formula = a.binder, a.formula
    if binder != VACUOUS and binder in q.free_vars():
        b2 = fresh_var(binder)
        formula = subst_poly(formula, binder, pvar(b2))
        binder = b2
    return LF(subst_poly(formula, var, q), binder, compose(a.label, var, q))


def lf_alpha_eq(a: LF, b: LF) -> bool:
    return a == b or a.label == b.label and alpha_eq(a.formula, b.formula, (a.binder, b.binder))


def lf_leq(a: LF, b: LF) -> bool:
    """Subtyping on labelled formulas: contravariant labels on negatives."""
    if a.formula.positive != b.formula.positive:
        raise ShapeMismatch("polarity mismatch in labelled comparison")
    if a == b:
        return True
    if not formula_leq(a.formula, b.formula, (a.binder, b.binder)):
        return False
    if a.formula.positive:
        return poly_leq(a.label, b.label)
    return poly_leq(b.label, a.label)


def lf_instance(w: WhyNot, binder: VarId) -> LF:
    """The instance at 0 of ``<?{x<p} P>[binder<…]``: ``<P{binder:=0}>[x<p{binder:=0}]``."""
    bound = compose(w.bound, binder, ZERO) if binder != VACUOUS else w.bound
    return lf(subst_poly(w.body, binder, ZERO), w.var, bound)


def lf_shift(a: LF, new_binder: VarId) -> LF:
    """The summand shape ``<A{x/y+p}>[y<q]`` that pairs with ``a`` in ⊎."""
    shifted = (
        subst_poly(a.formula, a.binder, pvar(new_binder) + a.label)
        if a.binder != VACUOUS
        else a.formula
    )
    return LF(shifted, new_binder if new_binder in free_rvars(shifted) else VACUOUS, a.label)


def with_binder(f: Formula, b_old: VarId, b_new: VarId) -> Formula:
    """Transport ``f`` from the label binder ``b_old`` to ``b_new``."""
    if b_old == b_new or b_old == VACUOUS or b_old not in free_rvars(f):
        return f
    if b_new == VACUOUS:
        raise ShapeMismatch("cannot erase a label binder still in use")
    return subst_poly(f, b_old, pvar(b_new))


def lf_sum(a: LF, b: LF) -> LF:
    """The sum ``a ⊎ b``; ``b`` must be the label-shifted copy of ``a``."""
    if a.binder != VACUOUS and a.binder in b.label.free_vars():
        raise ShapeMismatch("first binder occurs in second label")
    if b.binder != VACUOUS and b.binder in a.label.free_vars():
        raise ShapeMismatch("second binder occurs in first label")
    if a.binder == VACUOUS:
        if not alpha_eq(a.formula, b.formula):
            raise ShapeMismatch("summands differ beyond the label shift")
    else:
        expect = subst_poly(a.formula, a.binder, pvar(b.binder) + a.label)
        if not alpha_eq(expect, b.formula):
            raise ShapeMismatch("second summand is not the shifted first")
    return LF(a.formula, a.binder, a.label + b.label)


def lf_bounded_sum(
    z: VarId,
    bound: Poly,
    fam: LF,
    witness: tuple[Formula, VarId] | None = None,
) -> LF:
    """Bounded sum over ``z < bound`` of the labelled-formula family ``fam``.

    Without a witness the family's formula must not mention ``z`` nor its
    own binder; otherwise the witness supplies the base formula and its
    binder, and the defining shift equation is verified.
    """
    if z in bound.free_vars():
        raise ShapeMismatch(f"sum variable {z!r} occurs in the bound")
    if witness is None:
        fv = free_rvars(fam.formula)
        if z in fv:
            raise ShapeMismatch(
                f"family formula mentions sum variable {z!r}: witness needed"
            )
        if fam.binder != VACUOUS and fam.binder in fv:
            raise ShapeMismatch("family formula mentions its binder: witness needed")
        return LF(fam.formula, VACUOUS, bounded_sum(z, bound, fam.label))
    base, base_binder = witness
    fvn = free_rvars(base)
    if z in fvn or (fam.binder != VACUOUS and fam.binder in fvn - {base_binder}):
        raise ShapeMismatch("witness violates the freeness side conditions")
    u = fresh_var("u")
    prefix = bounded_sum(u, pvar(z), compose(fam.label, z, pvar(u)))
    expect = subst_poly(base, base_binder, pvar(fam.binder) + prefix)
    if not alpha_eq(expect, fam.formula):
        raise ShapeMismatch("witness does not reproduce the family formula")
    return LF(base, base_binder, bounded_sum(z, bound, fam.label))


# -- typing / modal classification --------------------------------------------


def arrow(n: Formula, binder: VarId, bound: Poly | int, m: Formula) -> Formula:
    """The implication sugar: ``?{binder<bound}~N par M``."""
    bound = bound if isinstance(bound, Poly) else respoly.const(bound)
    return Par(WhyNot(binder, bound, negate(n)), m)


def arrow_parts(f: Formula) -> tuple[Formula, VarId, Poly, Formula] | None:
    match f:
        case Par(WhyNot(x, p, body), m):
            return negate(body), x, p, m
    return None


def classify(f: Formula) -> str:
    """One of ``typing``, ``modal`` or ``neither``.

    Typing formulas are ⊥, negated atoms and arrows ``?{x<p}~N par M``
    with ``N`` and ``M`` typing; modal ones are ``?{x<p}~N`` with ``N``
    typing.  The walk reads ``~N`` off ``N`` by a polarity flag instead of
    building the negation; its answer is stored on ``f``.
    """
    kind = f._kind
    if kind is not None:
        return kind
    if _typing(f, False):
        kind = "typing"
    elif type(f) is WhyNot and _typing(f.body, True):
        kind = "modal"
    else:
        kind = "neither"
    _set_kind(f, kind)
    return kind


def _typing(f: Formula, negated: bool) -> bool:
    """Whether ``f``, or ``negate(f)`` if ``negated``, is a typing formula."""
    todo = [(f, negated)]
    while todo:
        f, negated = todo.pop()
        # Under negation ⊥ is read off 1, ¬X off X, ⅋ off ⊗ and ? off !.
        bottom, neg_atom, par, why_not = (
            (One, Atom, Tensor, Bang) if negated else (Bottom, NegAtom, Par, WhyNot)
        )
        cls = type(f)
        if cls is bottom or cls is neg_atom:
            continue
        if cls is not par or type(f.left) is not why_not:
            return False
        todo.append((f.left.body, not negated))
        todo.append((f.right, negated))
    return True
