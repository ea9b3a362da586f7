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
same names, and ``machine_step`` further down.  The last section keeps the
former kernels that read every free-name set through the ``fv``/``fmv``
properties (``FORMER_KERNELS``), which whole reductions are compared with.
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


# -- the former free-name readers of bllp.lammu's step kernels -------------------
#
# The step kernels as they were before they read the ``_fv``/``_fmv`` slots
# directly: every set is read through the ``fv``/``fmv`` properties, and a
# variable argument's sets are built like any other.  Swapped into
# ``bllp.lammu`` for ``_rewrite``, ``_cache_free``, ``root_step`` and
# ``theta_step``, they must give the same terms, names included.


def former_cache_free(t: Term, lam: bool) -> frozenset[str]:
    slot = Term._fv if lam else Term._fmv
    get, put = slot.__get__, slot.__set__
    stack = [t]
    while stack:
        node = stack[-1]
        if get(node) is not None:
            stack.pop()
            continue
        cls = type(node)
        if cls is App:
            fs, as_ = get(node.fn), get(node.arg)
            if fs is None or as_ is None:
                if fs is None:
                    stack.append(node.fn)
                if as_ is None:
                    stack.append(node.arg)
                continue
            put(node, L._union(fs, as_))
        elif cls is Var:
            put(node, frozenset((node.name,)) if lam else L._EMPTY)
        else:
            b = get(node.body)
            if b is None:
                stack.append(node.body)
                continue
            if cls is Lam:
                if lam and node.var in b:
                    b = b - {node.var}
            elif not lam:
                a = node.mvar
                if cls is Mu:
                    b = b - {a} if a in b else b
                elif a not in b:
                    b = b | {a}
            put(node, b)
        stack.pop()
    return get(t)


def former_rewrite(t: Term, kind: str, name: str, u) -> Term:
    lam = kind == "subst"
    if name not in (t.fv if lam else t.fmv):
        return t
    if (type(u) is Var and u.name == name) if lam else (kind == "rename" and u == name):
        return t
    on, lren, mren = True, {}, {}
    out: list[Term] = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is App:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
            continue
        cls = type(s)
        if cls is tuple:
            if s[0] is None:
                _, on, lren, mren = s
            else:
                out[-1] = s[0](s[1], App(out[-1], u) if s[2] else out[-1])
            continue
        main = on and name in (s.fv if lam else s.fmv)
        if not main:
            if not (lren and not s.fv.isdisjoint(lren) or mren and not s.fmv.isdisjoint(mren)):
                out.append(s)
                continue
            if on:
                todo.append((None, on, lren, mren))
                on = False
        if cls is App:
            todo += (App, s.arg, s.fn)
        elif cls is Var:
            out.append(u if main else Var(lren[s.name]))
        elif cls is Named:
            a = s.mvar
            if main and a == name and not lam:
                todo += ((Named, a, True) if kind == "mu" else (Named, u, False), s.body)
            else:
                todo += ((Named, mren.get(a, a), False), s.body)
        else:
            mu = cls is Mu
            x, scope = (s.mvar, mren) if mu else (s.var, lren)
            if kind == "rename":
                captures = main and mu and x == u
            else:
                captures = main and x in (u.fmv if mu else u.fv)
            if captures or x in scope:
                todo.append((None, on, lren, mren))
                scope = {k: v for k, v in scope.items() if k != x}
                if captures:
                    scope[x] = x = fresh_tvar(x)
                lren, mren = (lren, scope) if mu else (scope, mren)
            todo += ((cls, x, False), s.body)
    return out[0]


def former_root_step(t: Term) -> tuple[Term, str] | None:
    if type(t) is App:
        f, u = t.fn, t.arg
        cls = type(f)
        if cls is Lam:
            return L.subst(f.body, f.var, u), "beta"
        if cls is Mu:
            a, b = f.mvar, f.body
            if a in u.fmv:
                a2 = fresh_tvar(a)
                b = L.rename_mvar(b, a, a2)
                a = a2
            return Mu(a, L.mu_subst(b, a, u)), "mu"
    return None


def former_theta_step(t: Term) -> Term | None:
    if type(t) is Mu:
        n = t.body
        if type(n) is Named and n.mvar == t.mvar and t.mvar not in n.body.fmv:
            return n.body
    return None


FORMER_KERNELS = {
    "_cache_free": former_cache_free,
    "_rewrite": former_rewrite,
    "root_step": former_root_step,
    "theta_step": former_theta_step,
}
