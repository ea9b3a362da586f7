"""Environment machine for λμ-terms.

Configurations pair a closure with a stack; environments map λ-variables
to closures and μ-variables to stacks.  Five transitions drive evaluation:
variable lookup, binding under λ, argument push, stack capture at μ, and
stack restoration at a naming.  ``readback`` unloads a configuration into
a term, used to compare runs against the machine reduction strategy.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import lammu as L
from .lammu import App, Lam, Mu, Named, Term, Var
from .record import Frozen


class StuckState(Exception):
    """No transition applies and the configuration is not final."""


class Env(Frozen):
    __slots__ = ("lam", "mu")
    __match_args__ = ("lam", "mu")

    # By hand: a missing map defaults to a new empty dict.
    def __init__(self, lam: dict | None = None, mu: dict | None = None) -> None:
        _set_lam(self, {} if lam is None else lam)
        _set_mu(self, {} if mu is None else mu)

    def bind_lam(self, x: str, c: "Closure") -> "Env":
        return Env({**self.lam, x: c}, self.mu)

    def bind_mu(self, a: str, s: "Stack") -> "Env":
        return Env(self.lam, {**self.mu, a: s})


_set_lam, _set_mu = Env.lam.__set__, Env.mu.__set__


class Closure(Frozen):
    __slots__ = ("term", "env")
    __match_args__ = ("term", "env")


Stack = tuple[Closure, ...]


class Config(Frozen):
    __slots__ = ("closure", "stack")
    __match_args__ = ("closure", "stack")


EMPTY = Env()


def load(t: Term) -> Config:
    return Config(Closure(t, EMPTY), ())


def step(c: Config) -> tuple[Config, str] | None:
    """One transition with its rule name; None when the machine is final."""
    t, env = c.closure.term, c.closure.env
    cls = type(t)
    if cls is App:
        return Config(Closure(t.fn, env), (Closure(t.arg, env),) + c.stack), "push"
    if cls is Var:  # a free variable in head position is final
        hit = env.lam.get(t.name)
        return None if hit is None else (Config(hit, c.stack), "lookup")
    if cls is Lam:
        if not c.stack:
            return None  # abstraction awaiting an argument: final
        return Config(Closure(t.body, env.bind_lam(t.var, c.stack[0])), c.stack[1:]), "bind"
    if cls is Mu:
        return Config(Closure(t.body, env.bind_mu(t.mvar, c.stack)), ()), "capture"
    if cls is Named:
        if c.stack:
            raise StuckState("naming reached with a non-empty stack")
        hit = env.mu.get(t.mvar)
        return None if hit is None else (Config(Closure(t.body, env), hit), "restore")
    raise TypeError(t)


def machine_trace(c: Config, fuel: int = 100_000) -> Iterator[tuple[str, Config]]:
    """Lazily yield (rule, configuration) per transition, at most ``fuel``."""
    for _ in range(fuel):
        hit = step(c)
        if hit is None:
            return
        c, rule = hit
        yield rule, c


def run(c: Config, fuel: int = 100_000) -> tuple[Config, int, bool]:
    """Drain :func:`machine_trace`; returns (config, transitions, exhausted)."""
    steps = 0
    for steps, (_, c) in enumerate(machine_trace(c, fuel), 1):
        pass
    return c, steps, steps == fuel and step(c) is not None


def readback(c: Config) -> Term:
    """Unload a configuration into a term.

    λ-variables resolve through their environments; a naming whose variable
    is machine-bound re-applies the captured stack under one fresh
    top-level name, and the whole term is re-abstracted over that name.
    The surrounding stack becomes iterated application.  Pre-order on an
    explicit stack, so fresh names come in the order of a recursion.
    """
    top = _fresh_top(c)
    used = False
    out: list[Term] = []
    # Entries: a term to read, ``App`` (build an application from ``out``),
    # (class, name), or (None, env, depth) to switch to an environment reached
    # through ``depth`` closures: a closure's before its term, or back after.
    todo: list = []
    for cl in reversed(c.stack):
        todo += (App, cl.term, (None, cl.env, 0))
    todo += (c.closure.term, (None, c.closure.env, 0))
    while todo:
        t = todo.pop()
        if t is App:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif type(t) is tuple:
            if t[0] is not None:
                out[-1] = t[0](t[1], out[-1])
            elif t[2] > 5_000:
                raise AssertionError("cyclic environment")
            else:
                _, env, depth = t
        elif type(t) is Var:
            cl = env.lam.get(t.name)
            if cl is None:
                out.append(t)
            else:
                todo += ((None, env, depth), cl.term, (None, cl.env, depth + 1))
        elif type(t) is Lam:
            x2 = L.fresh_tvar(t.var)
            inner = Env({k: v for k, v in env.lam.items() if k != t.var}, env.mu)
            body = L.subst(t.body, t.var, Var(x2))
            todo += ((Lam, x2), (None, env, depth), body, (None, inner, depth))
        elif type(t) is Mu:
            inner = Env(env.lam, {k: v for k, v in env.mu.items() if k != t.mvar})
            a2 = L.fresh_tvar(t.mvar)
            body = L.rename_mvar(t.body, t.mvar, a2)
            todo += ((Mu, a2), (None, env, depth), body, (None, inner, depth))
        elif type(t) is Named:
            if t.mvar in env.mu:
                used = True
                todo += ((Named, top), (None, env, depth))
                for cl in reversed(env.mu[t.mvar]):
                    todo += (App, cl.term, (None, cl.env, depth + 1))
            else:
                todo.append((Named, t.mvar))
            todo.append(t.body)
        elif type(t) is App:
            todo += (App, t.arg, t.fn)
        else:
            raise TypeError(t)
    return Mu(top, out[0]) if used else out[0]


def _fresh_top(c: Config) -> str:
    avoid = set()
    # Level by level: the closures reached through ``depth`` environments.
    level, depth = [c.closure, *c.stack], 0
    while level:
        if depth > 5_000:
            raise AssertionError("cyclic environment")
        below: list[Closure] = []
        for cl in level:
            avoid.update(L.free_mvars(cl.term))
            below += cl.env.lam.values()
            for stack in cl.env.mu.values():
                below += stack
        level, depth = below, depth + 1
    k = 0
    while f"k{k}" in avoid:
        k += 1
    return f"k{k}"
