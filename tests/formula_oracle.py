"""Reference formula comparisons for the tests: the definitions before the
equal-operand exits, and ``classify`` before its polarity walk.

Every comparison here goes the long way: ``alpha_eq`` compares canonical
copies, ``formula_leq`` matches binders and compares polynomials at every
level, and the polynomial order is read off the checked difference
``sub_checked``.  ``bllp.formula`` returns at once on equal operands and
``bllp.respoly.poly_leq`` walks the two term tuples without building
anything; ``bllp.formula.classify`` reads a negation off its operand by
a polarity flag instead of building it.  The tests check that both give
these answers.
"""

from __future__ import annotations

from bllp import formula as F
from bllp.formula import LF, ShapeMismatch, _match_binders, alpha_canon, lf_positive
from bllp.respoly import Poly, sub_checked


def poly_leq(p: Poly, q: Poly) -> bool:
    return sub_checked(q, p) is not None


def alpha_eq(a: F.Formula, b: F.Formula) -> bool:
    return alpha_canon(a) == alpha_canon(b)


def formula_leq(a: F.Formula, b: F.Formula) -> bool:
    match a, b:
        case (F.Atom(n1), F.Atom(n2)) | (F.NegAtom(n1), F.NegAtom(n2)):
            return n1 == n2
        case (F.One(), F.One()) | (F.Bottom(), F.Bottom()):
            return True
        case (F.Tensor(l1, r1), F.Tensor(l2, r2)) | (F.Par(l1, r1), F.Par(l2, r2)):
            return formula_leq(l1, l2) and formula_leq(r1, r2)
        case (F.Bang(x1, p1, n1), F.Bang(x2, p2, n2)):
            n1, n2 = _match_binders(x1, n1, x2, n2)
            return poly_leq(p2, p1) and formula_leq(n1, n2)
        case (F.WhyNot(x1, p1, n1), F.WhyNot(x2, p2, n2)):
            n1, n2 = _match_binders(x1, n1, x2, n2)
            return poly_leq(p1, p2) and formula_leq(n1, n2)
    return False


def lf_alpha_eq(a: LF, b: LF) -> bool:
    if a.label != b.label:
        return False
    fa, fb = _match_binders(a.binder, a.formula, b.binder, b.formula)
    return alpha_eq(fa, fb)


def lf_leq(a: LF, b: LF) -> bool:
    if lf_positive(a) != lf_positive(b):
        raise ShapeMismatch("polarity mismatch in labelled comparison")
    fa, fb = _match_binders(a.binder, a.formula, b.binder, b.formula)
    if not formula_leq(fa, fb):
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
            if classify(F.negate(body)) == "typing" and classify(m) == "typing":
                return "typing"
            return "neither"
        case F.WhyNot(_, _, body):
            if classify(F.negate(body)) == "typing":
                return "modal"
            return "neither"
    return "neither"
