"""Environment machine for λμ-terms.

Configurations pair a closure with a stack; environments map λ-variables
to closures and μ-variables to stacks.  Five transitions drive evaluation:
variable lookup, binding under λ, argument push, stack capture at μ, and
stack restoration at a naming.  ``readback`` unloads a configuration into
a term, used to compare runs against the machine reduction strategy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from . import lammu as L
from .lammu import App, Lam, Mu, Named, Term, Var


class StuckState(Exception):
    """No transition applies and the configuration is not final."""


@dataclass(frozen=True)
class Env:
    lam: dict = field(default_factory=dict)
    mu: dict = field(default_factory=dict)

    def bind_lam(self, x: str, c: "Closure") -> "Env":
        return Env({**self.lam, x: c}, dict(self.mu))

    def bind_mu(self, a: str, s: "Stack") -> "Env":
        return Env(dict(self.lam), {**self.mu, a: s})


@dataclass(frozen=True)
class Closure:
    term: Term
    env: Env


Stack = tuple[Closure, ...]


@dataclass(frozen=True)
class Config:
    closure: Closure
    stack: Stack


EMPTY = Env()


def load(t: Term) -> Config:
    return Config(Closure(t, EMPTY), ())


def step(c: Config) -> tuple[Config, str] | None:
    """One transition with its rule name; None when the machine is final."""
    t, env = c.closure.term, c.closure.env
    match t:
        case Var(x):
            if x in env.lam:
                return Config(env.lam[x], c.stack), "lookup"
            return None  # free variable in head position: final
        case Lam(x, body):
            if not c.stack:
                return None  # abstraction awaiting an argument: final
            top, rest = c.stack[0], c.stack[1:]
            return Config(Closure(body, env.bind_lam(x, top)), rest), "bind"
        case App(fn, arg):
            return (
                Config(Closure(fn, env), (Closure(arg, env),) + c.stack),
                "push",
            )
        case Mu(a, body):
            return Config(Closure(body, env.bind_mu(a, c.stack)), ()), "capture"
        case Named(a, body):
            if c.stack:
                raise StuckState("naming reached with a non-empty stack")
            if a in env.mu:
                return Config(Closure(body, env), env.mu[a]), "restore"
            return None  # free name: final
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
    The surrounding stack becomes iterated application.
    """
    top = _fresh_top(c)
    used = [False]
    t = _read_closure(c.closure, top, used, 0)
    for cl in c.stack:
        t = App(t, _read_closure(cl, top, used, 0))
    if used[0]:
        t = Mu(top, t)
    return t


def _fresh_top(c: Config) -> str:
    avoid = set()

    def scan(cl: Closure, depth: int) -> None:
        if depth > 5_000:
            raise AssertionError("cyclic environment")
        avoid.update(L.free_mvars(cl.term))
        for sub in cl.env.lam.values():
            scan(sub, depth + 1)
        for stack in cl.env.mu.values():
            for sub in stack:
                scan(sub, depth + 1)

    scan(c.closure, 0)
    for cl in c.stack:
        scan(cl, 0)
    k = 0
    while f"k{k}" in avoid:
        k += 1
    return f"k{k}"


def _read_closure(cl: Closure, top: str, used: list[bool], depth: int) -> Term:
    if depth > 5_000:
        raise AssertionError("cyclic environment")
    return _read(cl.term, cl.env, top, used, depth)


def _read(t: Term, env: Env, top: str, used: list[bool], depth: int) -> Term:
    match t:
        case Var(x):
            if x in env.lam:
                return _read_closure(env.lam[x], top, used, depth + 1)
            return t
        case Lam(x, body):
            x2 = L.fresh_tvar(x)
            inner = Env({k: v for k, v in env.lam.items() if k != x}, env.mu)
            return Lam(
                x2, _read(L.subst(body, x, Var(x2)), inner, top, used, depth)
            )
        case Mu(a, body):
            inner = Env(env.lam, {k: v for k, v in env.mu.items() if k != a})
            a2 = L.fresh_tvar(a)
            return Mu(
                a2, _read(L.rename_mvar(body, a, a2), inner, top, used, depth)
            )
        case Named(a, body):
            inner = _read(body, env, top, used, depth)
            if a in env.mu:
                used[0] = True
                out = inner
                for cl in env.mu[a]:
                    out = App(out, _read_closure(cl, top, used, depth + 1))
                return Named(top, out)
            return Named(a, inner)
        case App(fn, arg):
            return App(
                _read(fn, env, top, used, depth),
                _read(arg, env, top, used, depth),
            )
    raise TypeError(t)
