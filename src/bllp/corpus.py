"""Bundled terms and hand-built typing derivations.

Entries pair a λμ-term with its expected behavior under each reduction
strategy and, where stated, an additive typing derivation.  The two
control-operator encodings come with their derivations instantiated at
small polynomial values; Church numerals carry linear-logic style types.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as F
from . import respoly as R
from .formula import LF, VACUOUS, arrow, lf
from .lammu import App, Lam, Mu, Named, Term, Var, app_spine
from .respoly import Poly, const, mul
from .syntax import parse_term
from .typecheck import Derivation, Judgment

X = F.NegAtom.intern("X")
Y = F.NegAtom.intern("Y")
Z = F.NegAtom.intern("Z")

KAPPA: Term = parse_term(r"\x. mu a. [a] (x) \y. mu b. [a] y")
ALEPH: Term = parse_term(r"\f. mu a. (f) \x. [a] x")


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    term: Term
    derivation: Derivation | None
    # strategy -> (normal form, step count); None when the strategy diverges
    # or is deliberately unspecified for the entry.
    expected: dict


def modal(n: F.Formula, bound: Poly | int, label: Poly | int) -> LF:
    """Labelled modal hypothesis ``<?{bound} ~n>[label]``."""
    bound = bound if isinstance(bound, Poly) else const(bound)
    return lf(F.WhyNot.intern(VACUOUS, bound, F.negate(n)), VACUOUS, label)


def jm(lam: list[tuple[str, LF]], subject: Term, ty: LF, mu: list[tuple[str, LF]] = ()) -> Judgment:
    return Judgment(tuple(lam), subject, ty, tuple(mu))


def node(rule: str, concl: Judgment, *premises: Derivation, **ann) -> Derivation:
    return Derivation(rule, concl, tuple(premises), ann)


# -- the callcc encoding ---------------------------------------------------------


def kappa_derivation(r: Poly, s: Poly, k: Poly) -> Derivation:
    """Typing of the callcc term against an instance of Pierce's law."""
    xy = arrow(X, VACUOUS, s, Y)  # X -[s]-> Y
    fun = arrow(xy, VACUOUS, const(1), X)  # (X -[s]-> Y) -[1]-> X
    x_entry = modal(fun, r, 1)
    y_entry = modal(X, s, 1)

    d_y = node(
        "var",
        jm([("y", y_entry)], Var("y"), lf(X, VACUOUS, s),
           mu=[("a", lf(X, VACUOUS, 0)), ("b", lf(Y, VACUOUS, 0))]),
    )
    d_name_inner = node(
        "mu_name",
        jm([("y", y_entry)], Named("a", Var("y")), lf(F.BOTTOM, VACUOUS, 0),
           mu=[("a", lf(X, VACUOUS, s)), ("b", lf(Y, VACUOUS, 0))]),
        d_y,
    )
    d_mu_b = node(
        "mu_abs",
        jm([("y", y_entry)], Mu("b", Named("a", Var("y"))), lf(Y, VACUOUS, 0),
           mu=[("a", lf(X, VACUOUS, s))]),
        d_name_inner,
    )
    lam_y = Lam("y", Mu("b", Named("a", Var("y"))))
    d_abs_y = node(
        "abs",
        jm([], lam_y, lf(xy, VACUOUS, 1), mu=[("a", lf(X, VACUOUS, s))]),
        d_mu_b,
    )
    d_x = node(
        "var",
        jm([("x", x_entry)], Var("x"), lf(fun, VACUOUS, r),
           mu=[("a", lf(X, VACUOUS, 0))]),
    )
    sr = mul(s, r)
    d_app = node(
        "app",
        jm([("x", x_entry)], App(Var("x"), lam_y), lf(X, VACUOUS, r),
           mu=[("a", lf(X, VACUOUS, sr))]),
        d_x,
        d_abs_y,
        h=r,
    )
    d_name = node(
        "mu_name",
        jm([("x", x_entry)], Named("a", App(Var("x"), lam_y)),
           lf(F.BOTTOM, VACUOUS, 1), mu=[("a", lf(X, VACUOUS, k))]),
        d_app,
    )
    body = Mu("a", Named("a", App(Var("x"), lam_y)))
    d_mu_a = node(
        "mu_abs",
        jm([("x", x_entry)], body, lf(X, VACUOUS, k)),
        d_name,
    )
    return node(
        "abs",
        jm([], Lam("x", body), lf(arrow(fun, VACUOUS, r, X), VACUOUS, k)),
        d_mu_a,
    )


def kappa_applied_derivation() -> Derivation:
    """``(kappa) \\k. y0`` at r = s = 1, k = 2, with a free variable y0."""
    r = s = const(1)
    k = const(2)
    d_kappa = kappa_derivation(r, s, k)
    xy = arrow(X, VACUOUS, s, Y)
    fun = arrow(xy, VACUOUS, const(1), X)
    y0_entry = modal(X, 1, 1)
    k_entry = modal(xy, 1, 0)
    d_y0 = node(
        "var",
        jm([("y0", y0_entry), ("k", k_entry)], Var("y0"), lf(X, VACUOUS, 1)),
    )
    arg = Lam("k", Var("y0"))
    d_arg = node(
        "abs",
        jm([("y0", y0_entry)], arg, lf(fun, VACUOUS, r)),
        d_y0,
    )
    return node(
        "app",
        jm([("y0", modal(X, 1, 2))], App(KAPPA, arg), lf(X, VACUOUS, 2)),
        d_kappa,
        d_arg,
        h=k,
    )


# -- the Felleisen-operator encoding ----------------------------------------------


def aleph_derivation(h: Poly, r: Poly, k: Poly, base: F.Formula = X) -> Derivation:
    """Typing of the control-operator term; ``base`` instantiates the atom."""
    not_r = arrow(base, VACUOUS, r, F.BOTTOM)
    not_not = arrow(not_r, VACUOUS, const(1), F.BOTTOM)
    x_entry = modal(base, r, 1)
    f_entry = modal(not_not, h, 1)

    d_x = node(
        "var",
        jm([("x", x_entry)], Var("x"), lf(base, VACUOUS, r),
           mu=[("a", lf(base, VACUOUS, 0))]),
    )
    d_name = node(
        "mu_name",
        jm([("x", x_entry)], Named("a", Var("x")), lf(F.BOTTOM, VACUOUS, 0),
           mu=[("a", lf(base, VACUOUS, r))]),
        d_x,
    )
    lam_x = Lam("x", Named("a", Var("x")))
    d_abs_x = node(
        "abs",
        jm([], lam_x, lf(not_r, VACUOUS, 1), mu=[("a", lf(base, VACUOUS, r))]),
        d_name,
    )
    d_f = node(
        "var",
        jm([("f", f_entry)], Var("f"), lf(not_not, VACUOUS, h),
           mu=[("a", lf(base, VACUOUS, 0))]),
    )
    rh = mul(r, h)
    d_app = node(
        "app",
        jm([("f", f_entry)], App(Var("f"), lam_x), lf(F.BOTTOM, VACUOUS, h),
           mu=[("a", lf(base, VACUOUS, rh))]),
        d_f,
        d_abs_x,
        h=h,
    )
    body = Mu("a", App(Var("f"), lam_x))
    d_mu = node(
        "mu_abs",
        jm([("f", f_entry)], body, lf(base, VACUOUS, rh)),
        d_app,
    )
    return node(
        "abs",
        jm([], Lam("f", body), lf(arrow(not_not, VACUOUS, h, base), VACUOUS, k)),
        d_mu,
    )


def aleph_invoke_derivation() -> Derivation:
    """``(aleph) w`` at h = r = k = 1."""
    h = r = k = const(1)
    d_aleph = aleph_derivation(h, r, k)
    not_r = arrow(X, VACUOUS, r, F.BOTTOM)
    not_not = arrow(not_r, VACUOUS, const(1), F.BOTTOM)
    w_entry = modal(not_not, h, 1)
    d_w = node(
        "var",
        jm([("w", w_entry)], Var("w"), lf(not_not, VACUOUS, h)),
    )
    return node(
        "app",
        jm([("w", modal(not_not, h, 1))], App(ALEPH, Var("w")), lf(X, VACUOUS, k)),
        d_aleph,
        d_w,
        h=k,
    )


def aleph_applied_derivation() -> Derivation:
    """``(aleph) w t1`` with the result atom instantiated to an arrow."""
    h = r = k = const(1)
    base = arrow(Z, VACUOUS, const(1), F.BOTTOM)  # Z -[1]-> bot
    d_aleph = aleph_derivation(h, r, k, base=base)
    not_r = arrow(base, VACUOUS, r, F.BOTTOM)
    not_not = arrow(not_r, VACUOUS, const(1), F.BOTTOM)
    w_entry = modal(not_not, h, 1)
    d_w = node(
        "var",
        jm([("w", w_entry)], Var("w"), lf(not_not, VACUOUS, h)),
    )
    d_invoke = node(
        "app",
        jm([("w", w_entry)], App(ALEPH, Var("w")), lf(base, VACUOUS, k)),
        d_aleph,
        d_w,
        h=k,
    )
    t1_entry = modal(Z, 1, 1)
    d_t1 = node(
        "var",
        jm([("t1", t1_entry)], Var("t1"), lf(Z, VACUOUS, 1)),
    )
    return node(
        "app",
        jm([("w", w_entry), ("t1", modal(Z, 1, 1))],
           App(App(ALEPH, Var("w")), Var("t1")), lf(F.BOTTOM, VACUOUS, 1)),
        d_invoke,
        d_t1,
        h=k,
    )


# -- Church numerals ---------------------------------------------------------------


def church_term(n: int) -> Term:
    body: Term = Var("z")
    for _ in range(n):
        body = App(Var("s"), body)
    return Lam("s", Lam("z", body))


def church_derivation(n: int) -> Derivation:
    """``c_n : (X -[1]-> X) -[1]-> X -[1]-> X`` with use-counting labels."""
    a = arrow(X, VACUOUS, const(1), X)
    s_entry1 = modal(a, 1, 1)
    z_entry = modal(X, 1, 1)

    if n == 0:
        d = node(
            "var",
            jm([("z", z_entry), ("s", modal(a, 1, 0))], Var("z"), lf(X, VACUOUS, 1)),
        )
        body: Term = Var("z")
        s_label = const(0)
    else:
        d = node("var", jm([("z", z_entry)], Var("z"), lf(X, VACUOUS, 1)))
        body = Var("z")
        s_label = R.ZERO
        for _ in range(n):
            d_s = node("var", jm([("s", s_entry1)], Var("s"), lf(a, VACUOUS, 1)))
            new_lam: list[tuple[str, LF]] = [("s", modal(a, 1, s_label + 1))]
            if "z" in {v for v, _ in d.concl.lam}:
                new_lam.append(("z", z_entry))
            body = App(Var("s"), body)
            d = node(
                "app",
                jm(new_lam, body, lf(X, VACUOUS, 1)),
                d_s,
                d,
                h=const(1),
            )
            s_label = s_label + 1
    d_abs_z = node(
        "abs",
        jm([("s", modal(a, 1, s_label))], Lam("z", body), lf(a, VACUOUS, 1)),
        d if n else node(
            "var",
            jm([("z", z_entry), ("s", modal(a, 1, 0))], Var("z"), lf(X, VACUOUS, 1)),
        ),
    )
    top_label = s_label if n else const(1)
    if not R.poly_leq(const(1), top_label):
        top_label = const(1)
    return node(
        "abs",
        jm([], church_term(n), lf(arrow(a, VACUOUS, const(1), a), VACUOUS, top_label)),
        d_abs_z,
    )


def church_applied_derivation(n: int) -> Derivation:
    """``((c_n) f) z0`` fully applied to typed free variables."""
    a = arrow(X, VACUOUS, const(1), X)
    d_cn = church_derivation(n)
    q = d_cn.concl.type.label
    d_f = node("var", jm([("f", modal(a, 1, 1))], Var("f"), lf(a, VACUOUS, 1)))
    d_cf = node(
        "app",
        jm([("f", modal(a, 1, q))], App(church_term(n), Var("f")), lf(a, VACUOUS, q)),
        d_cn,
        d_f,
        h=q,
    )
    d_z = node("var", jm([("z0", modal(X, 1, 1))], Var("z0"), lf(X, VACUOUS, 1)))
    return node(
        "app",
        jm([("f", modal(a, 1, q)), ("z0", modal(X, 1, q))],
           App(App(church_term(n), Var("f")), Var("z0")), lf(X, VACUOUS, q)),
        d_cf,
        d_z,
        h=q,
    )


# -- identity ----------------------------------------------------------------------


def identity_applied_derivation() -> Derivation:
    d_x = node("var", jm([("x", modal(X, 1, 1))], Var("x"), lf(X, VACUOUS, 1)))
    d_id = node(
        "abs",
        jm([], Lam("x", Var("x")), lf(arrow(X, VACUOUS, const(1), X), VACUOUS, 1)),
        d_x,
    )
    d_y = node("var", jm([("y0", modal(X, 1, 1))], Var("y0"), lf(X, VACUOUS, 1)))
    return node(
        "app",
        jm([("y0", modal(X, 1, 1))], App(Lam("x", Var("x")), Var("y0")),
           lf(X, VACUOUS, 1)),
        d_id,
        d_y,
        h=const(1),
    )


# -- the corpus ----------------------------------------------------------------------


def _aleph_invoked(k: int) -> Term:
    return app_spine(ALEPH, Var("w"), *[Var(f"t{i}") for i in range(1, k + 1)])


def _aleph_normal(k: int) -> Term:
    args = [Var(f"t{i}") for i in range(1, k + 1)]
    return Mu("a", App(Var("w"), Lam("x", Named("a", app_spine(Var("x"), *args)))))


def entries() -> list[CorpusEntry]:
    kappa_arg = Lam("k", Var("y0"))
    kappa_stalled = Mu(
        "a",
        Named("a", App(kappa_arg, Lam("y", Mu("b", Named("a", Var("y")))))),
    )
    out = [
        CorpusEntry(
            "identity-app",
            App(Lam("x", Var("x")), Var("y0")),
            identity_applied_derivation(),
            {
                "head": (Var("y0"), 1),
                "weak": (Var("y0"), 1),
                "machine": (Var("y0"), 1),
            },
        ),
        CorpusEntry("kappa", KAPPA, kappa_derivation(const(1), const(1), const(2)),
                    {"head": (KAPPA, 0), "weak": (KAPPA, 0), "machine": (KAPPA, 0)}),
        CorpusEntry(
            "kappa-callcc",
            App(KAPPA, kappa_arg),
            kappa_applied_derivation(),
            {
                "head": (Var("y0"), 3),
                "weak": (kappa_stalled, 1),
                "machine": (Var("y0"), 3),
            },
        ),
        CorpusEntry("aleph", ALEPH, aleph_derivation(const(1), const(1), const(1)),
                    {"head": (ALEPH, 0), "weak": (ALEPH, 0), "machine": (ALEPH, 0)}),
        CorpusEntry(
            "aleph-invoke-0",
            _aleph_invoked(0),
            aleph_invoke_derivation(),
            {"head": (_aleph_normal(0), 1), "machine": (_aleph_normal(0), 1)},
        ),
        CorpusEntry(
            "aleph-applied",
            App(_aleph_invoked(0), Var("t1")),
            aleph_applied_derivation(),
            {"head": (_aleph_normal(1), 2), "machine": (_aleph_normal(1), 2)},
        ),
    ]
    for k in (1, 2, 3):
        out.append(
            CorpusEntry(
                f"aleph-invoke-{k}",
                _aleph_invoked(k),
                None,
                {"head": (_aleph_normal(k), 1 + k), "machine": (_aleph_normal(k), 1 + k)},
            )
        )
    for n in range(4):
        out.append(
            CorpusEntry(
                f"church-{n}",
                church_term(n),
                church_derivation(n),
                {"head": (church_term(n), 0), "machine": (church_term(n), 0)},
            )
        )
    for n in (1, 2):
        body: Term = Var("z0")
        for _ in range(n):
            body = App(Var("f"), body)
        out.append(
            CorpusEntry(
                f"church-{n}-app",
                App(App(church_term(n), Var("f")), Var("z0")),
                church_applied_derivation(n),
                {"head": (body, 2), "machine": (body, 2)},
            )
        )
    return out


def by_name(name: str) -> CorpusEntry:
    for e in entries():
        if e.name == name:
            return e
    raise KeyError(name)
