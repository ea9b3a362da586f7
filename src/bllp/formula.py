"""Polarized formulas, labelled formulas, subtyping and sum constructions.

Positive formulas are built from atoms, tensor, 1 and the bounded bang;
negative ones from negated atoms, par, bottom and the bounded whynot.
A labelled formula ``<A>[x<p]`` binds the resource variable ``x`` in ``A``
and carries the budget polynomial ``p``.  The binder name ``_`` stands for
a variable with no occurrences.

The comparisons ``alpha_eq``, ``lf_alpha_eq``, ``formula_leq`` and
``lf_leq`` return at once when their operands are equal (``==``, which also
covers one object passed twice): α-equality contains equality and ⊑ is
reflexive.  Only unequal operands get canonical copies or matched binders.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import respoly
from .respoly import Poly, VarId, bounded_sum, compose, fresh_var, poly_leq, pvar

VACUOUS = "_"


class ShapeMismatch(Exception):
    """Operands do not have the required shapes (skeletons or shifts)."""


class Formula:
    def __str__(self) -> str:
        from .syntax import print_formula

        return print_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class NegAtom(Formula):
    name: str


@dataclass(frozen=True)
class One(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Tensor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Par(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Bang(Formula):
    var: VarId
    bound: Poly
    body: Formula


@dataclass(frozen=True)
class WhyNot(Formula):
    var: VarId
    bound: Poly
    body: Formula


ONE_F = One()
BOTTOM = Bottom()


def is_positive(f: Formula) -> bool:
    return isinstance(f, (Atom, One, Tensor, Bang))


def is_negative(f: Formula) -> bool:
    return not is_positive(f)


def negate(f: Formula) -> Formula:
    match f:
        case Atom(name):
            return NegAtom(name)
        case NegAtom(name):
            return Atom(name)
        case One():
            return BOTTOM
        case Bottom():
            return ONE_F
        case Tensor(l, r):
            return Par(negate(l), negate(r))
        case Par(l, r):
            return Tensor(negate(l), negate(r))
        case Bang(x, p, n):
            return WhyNot(x, p, negate(n))
        case WhyNot(x, p, n):
            return Bang(x, p, negate(n))
    raise TypeError(f)


def free_rvars(f: Formula) -> set[VarId]:
    match f:
        case Atom() | NegAtom() | One() | Bottom():
            return set()
        case Tensor(l, r) | Par(l, r):
            return free_rvars(l) | free_rvars(r)
        case Bang(x, p, n) | WhyNot(x, p, n):
            return p.free_vars() | (free_rvars(n) - {x})
    raise TypeError(f)


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


def _canon(f: Formula, counter: list[int]) -> Formula:
    """Rename binders positionally; vacuous binders become ``_``."""
    match f:
        case Atom() | NegAtom() | One() | Bottom():
            return f
        case Tensor(l, r):
            return Tensor(_canon(l, counter), _canon(r, counter))
        case Par(l, r):
            return Par(_canon(l, counter), _canon(r, counter))
        case Bang(x, p, n) | WhyNot(x, p, n):
            cls = type(f)
            if x != VACUOUS and x in free_rvars(n):
                counter[0] += 1
                x2 = f"#c{counter[0]}"
                n = subst_poly(n, x, pvar(x2))
            else:
                x2 = VACUOUS
            return cls(x2, p, _canon(n, counter))
    raise TypeError(f)


def alpha_canon(f: Formula) -> Formula:
    return _canon(f, [0])


def alpha_eq(a: Formula, b: Formula) -> bool:
    return a == b or alpha_canon(a) == alpha_canon(b)


def formula_leq(a: Formula, b: Formula) -> bool:
    """Subtyping ``a ⊑ b``: same skeleton, polynomials compared in place."""
    return a == b or _formula_leq(a, b)


def _formula_leq(a: Formula, b: Formula) -> bool:
    match a, b:
        case (Atom(n1), Atom(n2)) | (NegAtom(n1), NegAtom(n2)):
            return n1 == n2
        case (One(), One()) | (Bottom(), Bottom()):
            return True
        case (Tensor(l1, r1), Tensor(l2, r2)) | (Par(l1, r1), Par(l2, r2)):
            return _formula_leq(l1, l2) and _formula_leq(r1, r2)
        case (Bang(x1, p1, n1), Bang(x2, p2, n2)):
            n1, n2 = _match_binders(x1, n1, x2, n2)
            return poly_leq(p2, p1) and _formula_leq(n1, n2)
        case (WhyNot(x1, p1, n1), WhyNot(x2, p2, n2)):
            n1, n2 = _match_binders(x1, n1, x2, n2)
            return poly_leq(p1, p2) and _formula_leq(n1, n2)
    return False


def _match_binders(x1: VarId, n1: Formula, x2: VarId, n2: Formula):
    if x1 == x2:
        return n1, n2
    c = fresh_var("m")
    if x1 != VACUOUS:
        n1 = subst_poly(n1, x1, pvar(c))
    if x2 != VACUOUS:
        n2 = subst_poly(n2, x2, pvar(c))
    return n1, n2


# -- labelled formulas --------------------------------------------------------


@dataclass(frozen=True)
class LF:
    """Labelled formula ``<formula>[binder < label]``."""

    formula: Formula
    binder: VarId
    label: Poly

    def __post_init__(self) -> None:
        if self.binder != VACUOUS and self.binder in self.label.free_vars():
            raise ShapeMismatch(
                f"label binder {self.binder!r} occurs in its own label"
            )

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


def lf_positive(a: LF) -> bool:
    return is_positive(a.formula)


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
    if a == b:
        return True
    if a.label != b.label:
        return False
    fa, fb = _match_binders(a.binder, a.formula, b.binder, b.formula)
    return alpha_eq(fa, fb)


def lf_leq(a: LF, b: LF) -> bool:
    """Subtyping on labelled formulas: contravariant labels on negatives."""
    if lf_positive(a) != lf_positive(b):
        raise ShapeMismatch("polarity mismatch in labelled comparison")
    if a == b:
        return True
    fa, fb = _match_binders(a.binder, a.formula, b.binder, b.formula)
    if not formula_leq(fa, fb):
        return False
    if lf_positive(a):
        return poly_leq(a.label, b.label)
    return poly_leq(b.label, a.label)


def lf_shift(a: LF, new_binder: VarId) -> LF:
    """The summand shape ``<A{x/y+p}>[y<q]`` that pairs with ``a`` in ⊎."""
    shifted = (
        subst_poly(a.formula, a.binder, pvar(new_binder) + a.label)
        if a.binder != VACUOUS
        else a.formula
    )
    return LF(shifted, new_binder if new_binder in free_rvars(shifted) else VACUOUS, a.label)


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
        got = b.formula
        if b.binder == VACUOUS and b.binder not in free_rvars(expect):
            ok = alpha_eq(expect, got)
        else:
            e, g = _match_binders(b.binder, expect, b.binder, got)
            ok = alpha_eq(e, g)
        if not ok:
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


def verify_bounded_sum(
    candidate: LF,
    z: VarId,
    bound: Poly,
    fam: LF,
    witness: tuple[Formula, VarId] | None = None,
) -> bool:
    try:
        return lf_alpha_eq(candidate, lf_bounded_sum(z, bound, fam, witness))
    except ShapeMismatch:
        return False


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
    building the negation.
    """
    if _typing(f, False):
        return "typing"
    if type(f) is WhyNot and _typing(f.body, True):
        return "modal"
    return "neither"


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
