"""Reference λμ-term operations for the tests: plain recursive definitions.

These recompute free variables at every node, rebuild every subterm they
pass and recurse along the descent path of a step, so they are simple and
slow, and deep terms exhaust the recursion limit.  ``bllp.lammu`` caches
free variables per node, shares unchanged subterms and steps on a zipper
that keeps the descent path between steps; the tests check that both give
the same results up to α-equivalence (both draw fresh names from
``lammu.fresh_tvar``).  ``alpha_eq`` here compares recursive nameless keys;
``bllp.lammu.alpha_eq`` walks both terms in one pairwise pass instead.

The library's step kernels, which dispatch on ``type()``, are compared with
former ``match`` definitions: ``root_step`` here, given the library's own
rewrites so that from one state of the fresh-name counter both draw the
same names, and ``machine_step`` in the last section.
"""

from __future__ import annotations

from bllp import lammu as L
from bllp import machine as M
from bllp.lammu import App, Lam, Mu, Named, Term, Var, fresh_tvar


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


def root_step(
    t: Term, subst=subst, rename_mvar=rename_mvar, mu_subst=mu_subst
) -> tuple[Term, str] | None:
    """Fire a β or μ redex at the root, if present, with the given rewrites
    (this module's by default)."""
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


def step(t: Term, strategy: str) -> tuple[Term, str, tuple[str, ...]] | None:
    """Deterministic step: root β/μ first, then leftmost descent, then θ."""
    hit = root_step(t)
    if hit is not None:
        reduct, kind = hit
        return reduct, kind, ()
    inner = "weak" if strategy == "head" else strategy
    match t:
        case App(f, a):
            sub = step(f, inner)
            if sub is not None:
                f2, kind, pos = sub
                return App(f2, a), kind, ("appL",) + pos
        case Named(a, b):
            sub = step(b, inner)
            if sub is not None:
                b2, kind, pos = sub
                return Named(a, b2), kind, ("named",) + pos
        case Lam(x, b) if strategy == "head":
            sub = step(b, strategy)
            if sub is not None:
                b2, kind, pos = sub
                return Lam(x, b2), kind, ("lam",) + pos
        case Mu(a, b) if strategy in ("head", "machine"):
            sub = step(b, strategy)
            if sub is not None:
                b2, kind, pos = sub
                return Mu(a, b2), kind, ("mu",) + pos
    out = theta_step(t)
    if out is not None:
        # Weak reduction never looks inside the μ-scope, so it may simplify
        # the named body away only once that body is itself weakly stuck.
        if strategy == "weak" and step(t.body.body, "weak") is not None:
            return None
        return out, "theta", ()
    return None


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
    """Canonical de Bruijn-style key: a bound name becomes its binder's depth."""
    return _nameless(t, {}, {}, 0)


def alpha_eq(t: Term, u: Term) -> bool:
    """The former α-equality: compare the nameless keys of both terms."""
    return t is u or nameless(t) == nameless(u)


# -- the former match kernel of bllp.machine --------------------------------------


def machine_step(c: M.Config) -> tuple[M.Config, str] | None:
    """``bllp.machine.step`` as a ``match``."""
    t, env = c.closure.term, c.closure.env
    match t:
        case Var(x):
            if x in env.lam:
                return M.Config(env.lam[x], c.stack), "lookup"
            return None  # free variable in head position: final
        case Lam(x, body):
            if not c.stack:
                return None  # abstraction awaiting an argument: final
            top, rest = c.stack[0], c.stack[1:]
            return M.Config(M.Closure(body, env.bind_lam(x, top)), rest), "bind"
        case App(fn, arg):
            return M.Config(M.Closure(fn, env), (M.Closure(arg, env),) + c.stack), "push"
        case Mu(a, body):
            return M.Config(M.Closure(body, env.bind_mu(a, c.stack)), ()), "capture"
        case Named(a, body):
            if c.stack:
                raise M.StuckState("naming reached with a non-empty stack")
            if a in env.mu:
                return M.Config(M.Closure(body, env), env.mu[a]), "restore"
            return None  # free name: final
    raise TypeError(t)
