"""Reference formula definitions for the tests: the definitions that
``bllp.formula`` replaced, and ``classify`` before its polarity walk.

Every comparison here goes the long way and has no equal-operand exit.
``alpha_eq`` compares canonical copies, in which every used binder is
renamed by its position and every unused one becomes ``_``.
``formula_leq``, ``lf_alpha_eq`` and ``lf_leq`` match two binders by
substituting one fresh variable for both in the bodies, then compare; the
polynomial order is read off the checked difference ``sub_checked``.
``bllp.formula`` decides all four by one pairwise walk that reads bound
variables as binder numbers, and ``bllp.respoly.poly_leq`` walks the two
term tuples without building anything; ``bllp.formula.classify`` reads a
negation off its operand by a polarity flag instead of building it.  The
tests check that both give these answers.

The facts that ``bllp.formula`` stores on a node are defined here as they
were before: ``negate`` builds a fresh dual on every call, ``free_rvars``
rebuilds its sets recursively, ``classify_walk`` (with ``_typing``) walks
the formula on every call, and ``is_positive`` tests the class against a
tuple.  ``subst_poly`` is the plain recursion that ``bllp.formula`` runs on
an explicit stack; the tests check that both draw the same fresh names.
``is_negative`` and ``verify_bounded_sum`` moved here from ``bllp.formula``,
where only tests called them.
"""

from __future__ import annotations

from bllp import formula as F
from bllp.formula import LF, VACUOUS, ShapeMismatch
from bllp.respoly import Poly, VarId, compose, fresh_var, pvar
from respoly_oracle import sub_checked


def subst_poly(f: F.Formula, var: VarId, q: Poly) -> F.Formula:
    """Capture-avoiding substitution in every polynomial position."""
    if var == VACUOUS:
        return f
    match f:
        case F.Atom() | F.NegAtom() | F.One() | F.Bottom():
            return f
        case F.Tensor(l, r):
            return F.Tensor(subst_poly(l, var, q), subst_poly(r, var, q))
        case F.Par(l, r):
            return F.Par(subst_poly(l, var, q), subst_poly(r, var, q))
        case F.Bang(x, p, n) | F.WhyNot(x, p, n):
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


def is_positive(f: F.Formula) -> bool:
    return isinstance(f, (F.Atom, F.One, F.Tensor, F.Bang))


def is_negative(f: F.Formula) -> bool:
    return not is_positive(f)


def lf_positive(a: LF) -> bool:
    return is_positive(a.formula)


def negate(f: F.Formula) -> F.Formula:
    match f:
        case F.Atom(name):
            return F.NegAtom(name)
        case F.NegAtom(name):
            return F.Atom(name)
        case F.One():
            return F.BOTTOM
        case F.Bottom():
            return F.ONE_F
        case F.Tensor(l, r):
            return F.Par(negate(l), negate(r))
        case F.Par(l, r):
            return F.Tensor(negate(l), negate(r))
        case F.Bang(x, p, n):
            return F.WhyNot(x, p, negate(n))
        case F.WhyNot(x, p, n):
            return F.Bang(x, p, negate(n))
    raise TypeError(f)


def free_rvars(f: F.Formula) -> set[VarId]:
    match f:
        case F.Atom() | F.NegAtom() | F.One() | F.Bottom():
            return set()
        case F.Tensor(l, r) | F.Par(l, r):
            return free_rvars(l) | free_rvars(r)
        case F.Bang(x, p, n) | F.WhyNot(x, p, n):
            return p.free_vars() | (free_rvars(n) - {x})
    raise TypeError(f)


def _canon(f: F.Formula, counter: list[int]) -> F.Formula:
    """Rename binders positionally; vacuous binders become ``_``."""
    match f:
        case F.Atom() | F.NegAtom() | F.One() | F.Bottom():
            return f
        case F.Tensor(l, r):
            return F.Tensor(_canon(l, counter), _canon(r, counter))
        case F.Par(l, r):
            return F.Par(_canon(l, counter), _canon(r, counter))
        case F.Bang(x, p, n) | F.WhyNot(x, p, n):
            cls = type(f)
            if x != VACUOUS and x in free_rvars(n):
                counter[0] += 1
                x2 = f"#c{counter[0]}"
                n = subst_poly(n, x, pvar(x2))
            else:
                x2 = VACUOUS
            return cls(x2, p, _canon(n, counter))
    raise TypeError(f)


def alpha_canon(f: F.Formula) -> F.Formula:
    return _canon(f, [0])


def match_binders(x1: VarId, n1: F.Formula, x2: VarId, n2: F.Formula):
    """``n1`` and ``n2`` with their binders ``x1`` and ``x2`` renamed to one
    fresh variable (a vacuous binder is left alone)."""
    if x1 == x2:
        return n1, n2
    c = fresh_var("m")
    if x1 != VACUOUS:
        n1 = subst_poly(n1, x1, pvar(c))
    if x2 != VACUOUS:
        n2 = subst_poly(n2, x2, pvar(c))
    return n1, n2


def poly_leq(p: Poly, q: Poly) -> bool:
    return sub_checked(q, p) is not None


def alpha_eq(a: F.Formula, b: F.Formula, binders: tuple[VarId, VarId] | None = None) -> bool:
    if binders is not None:
        a, b = match_binders(binders[0], a, binders[1], b)
    return alpha_canon(a) == alpha_canon(b)


def formula_leq(a: F.Formula, b: F.Formula, binders: tuple[VarId, VarId] | None = None) -> bool:
    if binders is not None:
        a, b = match_binders(binders[0], a, binders[1], b)
    match a, b:
        case (F.Atom(n1), F.Atom(n2)) | (F.NegAtom(n1), F.NegAtom(n2)):
            return n1 == n2
        case (F.One(), F.One()) | (F.Bottom(), F.Bottom()):
            return True
        case (F.Tensor(l1, r1), F.Tensor(l2, r2)) | (F.Par(l1, r1), F.Par(l2, r2)):
            return formula_leq(l1, l2) and formula_leq(r1, r2)
        case (F.Bang(x1, p1, n1), F.Bang(x2, p2, n2)):
            n1, n2 = match_binders(x1, n1, x2, n2)
            return poly_leq(p2, p1) and formula_leq(n1, n2)
        case (F.WhyNot(x1, p1, n1), F.WhyNot(x2, p2, n2)):
            n1, n2 = match_binders(x1, n1, x2, n2)
            return poly_leq(p1, p2) and formula_leq(n1, n2)
    return False


def lf_alpha_eq(a: LF, b: LF) -> bool:
    return a.label == b.label and alpha_eq(a.formula, b.formula, (a.binder, b.binder))


def lf_leq(a: LF, b: LF) -> bool:
    if lf_positive(a) != lf_positive(b):
        raise ShapeMismatch("polarity mismatch in labelled comparison")
    if not formula_leq(a.formula, b.formula, (a.binder, b.binder)):
        return False
    if lf_positive(a):
        return poly_leq(a.label, b.label)
    return poly_leq(b.label, a.label)


def classify(f: F.Formula) -> str:
    """The former definition: negates the body at every arrow and ``?``."""
    match f:
        case F.Bottom() | F.NegAtom():
            return "typing"
        case F.Par(F.WhyNot(_, _, body), m):
            if classify(negate(body)) == "typing" and classify(m) == "typing":
                return "typing"
            return "neither"
        case F.WhyNot(_, _, body):
            if classify(negate(body)) == "typing":
                return "modal"
            return "neither"
    return "neither"


def classify_walk(f: F.Formula) -> str:
    """``classify`` by one walk that reads ``~N`` off ``N`` by a polarity flag."""
    if _typing(f, False):
        return "typing"
    if type(f) is F.WhyNot and _typing(f.body, True):
        return "modal"
    return "neither"


def _typing(f: F.Formula, negated: bool) -> bool:
    """Whether ``f``, or ``negate(f)`` if ``negated``, is a typing formula."""
    todo = [(f, negated)]
    while todo:
        f, negated = todo.pop()
        # Under negation ⊥ is read off 1, ¬X off X, ⅋ off ⊗ and ? off !.
        bottom, neg_atom, par, why_not = (
            (F.One, F.Atom, F.Tensor, F.Bang) if negated else (F.Bottom, F.NegAtom, F.Par, F.WhyNot)
        )
        cls = type(f)
        if cls is bottom or cls is neg_atom:
            continue
        if cls is not par or type(f.left) is not why_not:
            return False
        todo.append((f.left.body, not negated))
        todo.append((f.right, negated))
    return True


def verify_bounded_sum(
    candidate: LF,
    z: VarId,
    bound: Poly,
    fam: LF,
    witness: tuple[F.Formula, VarId] | None = None,
) -> bool:
    try:
        return F.lf_alpha_eq(candidate, F.lf_bounded_sum(z, bound, fam, witness))
    except ShapeMismatch:
        return False
