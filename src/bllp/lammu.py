"""λμ-terms and the weak, head and machine notions of reduction.

The calculus has two disjoint variable families: λ-variables bound by
``\\x.`` and μ-variables bound by ``mu a.``; ``[a] t`` names a term.
μ-abstraction is unrestricted (bodies need not be named terms).  The three
strategies are deterministic: a root redex fires first, then descent
follows the congruences of the chosen strategy.  :func:`trace` is the one
step iterator; :func:`step` and :func:`reduce` are built on it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

_gen = itertools.count(1)


def fresh_tvar(base: str = "v") -> str:
    return f"{base.split('%')[0]}%{next(_gen)}"


class Term:
    def __str__(self) -> str:
        from .syntax import print_term

        return print_term(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class Mu(Term):
    mvar: str
    body: Term


@dataclass(frozen=True)
class Named(Term):
    mvar: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


def app_spine(fn: Term, *args: Term) -> Term:
    out = fn
    for a in args:
        out = App(out, a)
    return out


def free_vars(t: Term) -> set[str]:
    match t:
        case Var(x):
            return {x}
        case Lam(x, b):
            return free_vars(b) - {x}
        case Mu(_, b) | Named(_, b):
            return free_vars(b)
        case App(f, a):
            return free_vars(f) | free_vars(a)
    raise TypeError(t)


def free_mvars(t: Term) -> set[str]:
    match t:
        case Var(_):
            return set()
        case Lam(_, b):
            return free_mvars(b)
        case Mu(a, b):
            return free_mvars(b) - {a}
        case Named(a, b):
            return free_mvars(b) | {a}
        case App(f, a):
            return free_mvars(f) | free_mvars(a)
    raise TypeError(t)


def subst(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding substitution of ``u`` for the λ-variable ``x``."""
    match t:
        case Var(y):
            return u if y == x else t
        case Lam(y, b):
            if y == x:
                return t
            if y in free_vars(u):
                y2 = fresh_tvar(y)
                b = subst(b, y, Var(y2))
                y = y2
            return Lam(y, subst(b, x, u))
        case Mu(a, b):
            if a in free_mvars(u):
                a2 = fresh_tvar(a)
                b = rename_mvar(b, a, a2)
                a = a2
            return Mu(a, subst(b, x, u))
        case Named(a, b):
            return Named(a, subst(b, x, u))
        case App(f, a):
            return App(subst(f, x, u), subst(a, x, u))
    raise TypeError(t)


def rename_mvar(t: Term, a: str, b: str) -> Term:
    """Rename the free μ-variable ``a`` to ``b`` (β must not capture)."""
    match t:
        case Var(_):
            return t
        case Lam(x, body):
            return Lam(x, rename_mvar(body, a, b))
        case Mu(c, body):
            if c == a:
                return t
            if c == b:
                c2 = fresh_tvar(c)
                body = rename_mvar(body, c, c2)
                c = c2
            return Mu(c, rename_mvar(body, a, b))
        case Named(c, body):
            return Named(b if c == a else c, rename_mvar(body, a, b))
        case App(f, arg):
            return App(rename_mvar(f, a, b), rename_mvar(arg, a, b))
    raise TypeError(t)


def mu_subst(t: Term, alpha: str, u: Term) -> Term:
    """Structural substitution: every ``[alpha]v`` becomes ``[alpha](v')u``.

    The rewriting is bottom-up, so nested occurrences inside ``v`` are
    processed first.  Occurrences of ``alpha`` inside ``u`` are untouched.
    """
    match t:
        case Var(_):
            return t
        case Lam(x, b):
            if x in free_vars(u):
                x2 = fresh_tvar(x)
                b = subst(b, x, Var(x2))
                x = x2
            return Lam(x, mu_subst(b, alpha, u))
        case Mu(a, b):
            if a == alpha:
                return t
            if a in free_mvars(u):
                a2 = fresh_tvar(a)
                b = rename_mvar(b, a, a2)
                a = a2
            return Mu(a, mu_subst(b, alpha, u))
        case Named(a, b):
            b2 = mu_subst(b, alpha, u)
            if a == alpha:
                return Named(a, App(b2, u))
            return Named(a, b2)
        case App(f, a):
            return App(mu_subst(f, alpha, u), mu_subst(a, alpha, u))
    raise TypeError(t)


# -- alpha equivalence ---------------------------------------------------------


def _nameless(t: Term, lenv: dict[str, int], menv: dict[str, int], depth: int):
    match t:
        case Var(x):
            return ("v", lenv.get(x, x))
        case Lam(x, b):
            return ("l", _nameless(b, {**lenv, x: depth}, menv, depth + 1))
        case Mu(a, b):
            return ("m", _nameless(b, lenv, {**menv, a: depth}, depth + 1))
        case Named(a, b):
            return ("n", menv.get(a, a), _nameless(b, lenv, menv, depth))
        case App(f, a):
            return (
                "a",
                _nameless(f, lenv, menv, depth),
                _nameless(a, lenv, menv, depth),
            )
    raise TypeError(t)


def nameless(t: Term):
    """Canonical de Bruijn-style key; used for α-equality."""
    return _nameless(t, {}, {}, 0)


def alpha_eq(t: Term, u: Term) -> bool:
    return nameless(t) == nameless(u)


# -- reduction -----------------------------------------------------------------

Position = tuple[str, ...]


def root_step(t: Term) -> tuple[Term, str] | None:
    """Fire a β or μ redex at the root, if present."""
    match t:
        case App(Lam(x, b), u):
            return subst(b, x, u), "beta"
        case App(Mu(a, b), u):
            if a in free_mvars(u):
                a2 = fresh_tvar(a)
                b = rename_mvar(b, a, a2)
                a = a2
            return Mu(a, mu_subst(b, a, u)), "mu"
    return None


def theta_step(t: Term) -> Term | None:
    """μα.[α]u → u, fireable only when α is not free in u."""
    match t:
        case Mu(a, Named(b, body)) if a == b and a not in free_mvars(body):
            return body
    return None


def _step(t: Term, strategy: str) -> tuple[Term, str, Position] | None:
    """Deterministic step: root β/μ first, then leftmost descent, then θ."""
    hit = root_step(t)
    if hit is not None:
        reduct, kind = hit
        return reduct, kind, ()
    inner = "weak" if strategy == "head" else strategy
    match t:
        case App(f, a):
            sub = _step(f, inner)
            if sub is not None:
                f2, kind, pos = sub
                return App(f2, a), kind, ("appL",) + pos
        case Named(a, b):
            sub = _step(b, inner)
            if sub is not None:
                b2, kind, pos = sub
                return Named(a, b2), kind, ("named",) + pos
        case Lam(x, b) if strategy == "head":
            sub = _step(b, strategy)
            if sub is not None:
                b2, kind, pos = sub
                return Lam(x, b2), kind, ("lam",) + pos
        case Mu(a, b) if strategy in ("head", "machine"):
            sub = _step(b, strategy)
            if sub is not None:
                b2, kind, pos = sub
                return Mu(a, b2), kind, ("mu",) + pos
    out = theta_step(t)
    if out is not None:
        # Weak reduction never looks inside the μ-scope, so it may simplify
        # the named body away only once that body is itself weakly stuck.
        if strategy == "weak" and _step(t.body.body, "weak") is not None:
            return None
        return out, "theta", ()
    return None


STRATEGIES = ("weak", "head", "machine")


def step(t: Term, strategy: str) -> tuple[Term, str, Position] | None:
    """One step of ``strategy`` as (reduct, kind, position), or ``None``.

    ``None`` means ``t`` is stuck: a normal form of the strategy.  Weak
    reduction fires a β or μ redex at the root first; otherwise it descends
    only into the function side of an application and into the body of a
    named term ``[a] u``, never under a λ- or μ-binder.  θ (``mu a.[a]u →
    u``) fires only once the named body ``u`` is itself weakly stuck.  So
    ``mu a.[a]((\\k.y) v)`` is weakly stuck: its redex lies inside the
    μ-scope.  Head reduction also enters the λ- and μ-binders around the
    head, machine reduction the μ-binders (see :func:`_step`).
    """
    for kind, pos, reduct in trace(t, strategy, 1):
        return reduct, kind, pos
    return None


def trace(t: Term, strategy: str, fuel: int = 10_000) -> Iterator[tuple[str, Position, Term]]:
    """Lazily yield (kind, position, reduct) per step, at most ``fuel`` steps.

    An unknown strategy raises ``ValueError`` here, before the first step.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

    def steps(t: Term):
        for _ in range(fuel):
            hit = _step(t, strategy)
            if hit is None:
                return
            t, kind, pos = hit
            yield kind, pos, t

    return steps(t)


def reduce(t: Term, strategy: str, fuel: int = 10_000):
    """Drain :func:`trace`; returns (term, steps, exhausted).

    ``exhausted`` holds when the fuel ran out and ``t`` can still step.
    """
    steps = 0
    for steps, (_, _, t) in enumerate(trace(t, strategy, fuel), 1):
        pass
    return t, steps, steps == fuel and _step(t, strategy) is not None
