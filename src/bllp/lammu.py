"""λμ-terms and the weak, head and machine notions of reduction.

The calculus has two separate variable families: λ-variables bound by
``\\x.`` and μ-variables bound by ``mu a.``; ``[a] t`` names a term.
μ-abstraction is unrestricted (bodies need not be named terms).  The three
strategies are deterministic: a root redex fires first, then descent
follows the congruences of the chosen strategy.

One step engine runs every strategy on a zipper (Huet, "The Zipper", JFP
1997): a focus and the stack of its ancestors as frames.  After a step,
descent resumes at the redex's parent instead of at the root, so a step
costs the size of its reduct and not the depth of its redex, and a
reduction stays linear in its steps.  :func:`reduce` drains the engine and
rebuilds the term once at the end; :func:`trace`, the one public step
iterator, also rebuilds the whole reduct and its position at every step;
:func:`step` is the first element of :func:`trace`.

Terms are immutable records in ``__slots__`` (``record.Frozen``), with no
instance ``__dict__``; ``==`` and ``hash``, written here and not by
``record``, read the whole structure in pre-order, names and exact classes
included.  A node's free λ- and μ-variables, ``fv`` and ``fmv``, are kept
in two more slots that start as ``None``: the first read of one stores it
on the node and on every subterm lacking it, in one walk
(:func:`_cache_free`), the one way a set is filled.  The step kernels read
the slots themselves and call that walk only on an empty one, and a
variable argument answers their capture and μ-freshness tests by its
name; ``fv``, ``fmv``, :func:`free_vars` and :func:`free_mvars` are the
public reads.  Substitution, μ-renaming and Parigot's structural
μ-substitution (LPAR 1992) are one walk, :func:`_rewrite`, that rebuilds
only the nodes above a change and shares every other subterm.  Every walk
here runs on an explicit stack, so a term of any depth is an ordinary
input.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .record import Frozen

_gen = itertools.count(1)


def fresh_tvar(base: str = "v") -> str:
    return f"{base.split('%')[0]}%{next(_gen)}"


class Term(Frozen):
    # The stored free λ- and μ-variables: ``None`` until first read.
    __slots__ = ("_fv", "_fmv")

    def __str__(self) -> str:
        from .syntax import print_term

        return print_term(self)

    # By hand: ``==`` and ``hash`` walk a pre-order on an explicit stack, so
    # a term of any depth compares and hashes.
    def __eq__(self, other: object) -> bool:
        """Structural equality, names and exact classes included."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        # No term's pre-order is a proper prefix of another's, so zip suffices.
        return self is other or all(x == y for x, y in zip(_preorder(self), _preorder(other)))

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

    @property
    def fv(self) -> frozenset[str]:
        """The free λ-variables, stored on the first read."""
        s = self._fv
        return _cache_free(self, True) if s is None else s

    @property
    def fmv(self) -> frozenset[str]:
        """The free μ-variables, stored on the first read."""
        s = self._fmv
        return _cache_free(self, False) if s is None else s


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)


class Lam(Term):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")


class Mu(Term):
    __slots__ = ("mvar", "body")
    __match_args__ = ("mvar", "body")


class Named(Term):
    __slots__ = ("mvar", "body")
    __match_args__ = ("mvar", "body")


class App(Term):
    __slots__ = ("fn", "arg")
    __match_args__ = ("fn", "arg")


def _preorder(t: Term) -> Iterator[tuple[type, str | None]]:
    """Each node's exact class and name (None for ``App``) in pre-order; as
    the classes fix the arities, equal sequences are equal terms.  A node of
    a subclass of a term class is read by its fields."""
    stack = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is App:
            yield cls, None
            stack += (t.arg, t.fn)
        elif cls is Var:
            yield cls, t.name
        elif cls is Lam:
            yield cls, t.var
            stack.append(t.body)
        elif cls is Mu or cls is Named:
            yield cls, t.mvar
            stack.append(t.body)
        else:
            fields = [getattr(t, f) for f in cls.__match_args__]
            yield cls, next((x for x in fields if type(x) is str), None)
            stack += reversed([x for x in fields if isinstance(x, Term)])


def app_spine(fn: Term, *args: Term) -> Term:
    out = fn
    for a in args:
        out = App(out, a)
    return out


_EMPTY: frozenset[str] = frozenset()


# The (read, write) accessors of the ``_fv`` and ``_fmv`` slots.
_SLOT_FV = Term._fv.__get__, Term._fv.__set__
_SLOT_FMV = Term._fmv.__get__, Term._fmv.__set__


def _union(p: frozenset[str], q: frozenset[str]) -> frozenset[str]:
    return p if q <= p else q if p <= q else p | q


def _cache_free(t: Term, lam: bool) -> frozenset[str]:
    """Store ``fv`` (``lam``) or ``fmv`` on ``t`` and on every subterm lacking
    it, and return ``t``'s.

    Post-order with an explicit stack, so deep terms add no recursion; a
    subterm that already holds its set is not entered.  The two sets are
    stored apart, so a walk that asks only for one never builds the other.
    This is the one way a set is filled: a reader that finds a slot
    ``None`` calls it.  A node's set is stored after its subterms', so every
    subterm of a node that holds a set holds its own.

    It does what ``record.fill`` does, which fills every stored fact of a
    formula and a proof, but by hand, as the one fill on a hot path: the
    step kernels call it on every new term.  Routed through ``record.fill``
    with a per-node rule, 100 ``reduce`` ops of the benchmark took 0.77-1.25 s
    of CPU time (median 0.90) against 0.73-0.90 s (median 0.80) by hand,
    over 8 alternated in-process rounds on a shared 2-core host.
    """
    get, put = _SLOT_FV if lam else _SLOT_FMV
    stack = [t]
    # Type tests, not ``match``: this loop runs at most twice per node stored.
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
            put(node, _union(fs, as_))
        elif cls is Var:
            put(node, frozenset((node.name,)) if lam else _EMPTY)
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


def free_vars(t: Term) -> frozenset[str]:
    return t.fv


def free_mvars(t: Term) -> frozenset[str]:
    return t.fmv


def subst(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding substitution of ``u`` for the λ-variable ``x``."""
    return _rewrite(t, "subst", x, u)


def rename_mvar(t: Term, a: str, b: str) -> Term:
    """Rename the free μ-variable ``a`` to ``b``."""
    return _rewrite(t, "rename", a, b)


def mu_subst(t: Term, alpha: str, u: Term) -> Term:
    """Structural substitution: every ``[alpha]v`` becomes ``[alpha](v')u``,
    occurrences inside ``v`` first; ``alpha`` inside ``u`` is untouched."""
    return _rewrite(t, "mu", alpha, u)


def _rewrite(t: Term, kind: str, name: str, u) -> Term:
    """The walk of :func:`subst` (``kind`` "subst"), :func:`rename_mvar`
    ("rename", ``u`` a name) and :func:`mu_subst` ("mu"): pre-order, function
    side first, on an explicit stack.  A binder that would capture a free
    name of ``u`` (for "rename", a μ-binder named ``u``) gets a fresh name,
    carried into its body; a subterm with neither ``name`` nor a carried
    name free is shared, and so is ``t`` when ``u`` is ``name`` itself.

    Sets are read off the ``_fv``/``_fmv`` slots, and :func:`_cache_free`
    is called only for an empty one.  A variable ``u`` answers the capture
    test by its name: its only free name is its own.
    """
    lam = kind == "subst"
    fs = t._fv if lam else t._fmv
    if name not in (_cache_free(t, lam) if fs is None else fs):
        return t
    # Only a variable (for "subst") or a name (for "rename") can be ``name``.
    uvar = u.name if type(u) is Var else None
    if uvar == name if lam else (kind == "rename" and u == name):
        return t
    # Whether ``name`` is free in the parent, and the carried renamings.
    on, lren, mren = True, {}, {}
    out: list[Term] = []
    # Entries: a node, ``App`` (build an application from ``out``), (class,
    # binder, whether to apply ``u``), or (None, on, lren, mren) to restore.
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
        # The entry read stored the walked kind's set on every subterm of ``t``.
        main = on and name in (s._fv if lam else s._fmv)
        if not main:
            renames = False
            if lren:
                fs = s._fv
                renames = not (_cache_free(s, True) if fs is None else fs).isdisjoint(lren)
            if mren and not renames:
                fs = s._fmv
                renames = not (_cache_free(s, False) if fs is None else fs).isdisjoint(mren)
            if not renames:
                out.append(s)
                continue
            if on:  # ``name`` is bound here: the subtree only renames
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
            if not main:
                captures = False
            elif kind == "rename":
                captures = mu and x == u
            elif uvar is not None:
                captures = not mu and x == uvar
            else:
                fs = u._fmv if mu else u._fv
                captures = x in (_cache_free(u, not mu) if fs is None else fs)
            if captures or x in scope:
                todo.append((None, on, lren, mren))
                scope = {k: v for k, v in scope.items() if k != x}
                if captures:
                    scope[x] = x = fresh_tvar(x)
                lren, mren = (lren, scope) if mu else (scope, mren)
            todo += ((cls, x, False), s.body)
    return out[0]


# -- alpha equivalence ---------------------------------------------------------


def _rebind(scope: tuple[dict, dict, set], x: str, y: str, at_x, at_y) -> None:
    """Bind ``x`` on the left and ``y`` on the right of ``scope`` to the
    binder numbers ``at_x`` and ``at_y`` (``None`` unbinds, and on the right
    a name restores a renaming), and keep its set of the names the two
    sides read differently up to date."""
    left, right, differ = scope
    for side, name, at in ((left, x, at_x), (right, y, at_y)):
        if at is None:
            side.pop(name, None)
        else:
            side[name] = at
    for name in (x, y):
        if left.get(name) == right.get(name):
            differ.discard(name)
        else:
            differ.add(name)


def alpha_eq(
    t: Term,
    u: Term,
    lam_renaming: dict[str, str] | None = None,
    mu_renaming: dict[str, str] | None = None,
) -> bool:
    """α-equivalence, decided by one pairwise walk that builds no term.

    Both terms are walked in step, and the k-th binder entered on one side
    pairs with the k-th on the other.  Each side maps a bound name to the
    number of its binder (λ- and μ-names in separate maps), so two
    occurrences match when both point at paired binders, or both are free
    with the same name.  The walk also keeps the names the two sides read
    differently, so a subterm shared by both sides (``a is b``) is decided
    without entering it: equal exactly when none of its free names is in
    that set.  Binders are undone on an explicit stack, so a term of any
    depth is walked without recursion.

    ``lam_renaming`` and ``mu_renaming`` rename free λ- and μ-names of
    ``u``: the answer is that of ``alpha_eq(t, u')`` where ``u'`` is ``u``
    with each free ``x`` replaced by ``renaming[x]`` by :func:`subst` or
    :func:`rename_mvar`, but ``u'`` is never built.  A renamed name starts
    out in ``u``'s map with its new name as value, so a binder of ``u``
    shadows it and a free occurrence reads the new name.  A binder of ``t``
    maps to a number, never to a name, so an occurrence of the new name
    that ``t`` binds does not match, just as :func:`subst` would have
    renamed that binder away.
    """
    renames = lam_renaming or mu_renaming
    if t is u and not renames:
        return True
    lam: tuple[dict, dict, set] = ({}, {}, set())
    mu: tuple[dict, dict, set] = ({}, {}, set())
    if renames:
        for scope, renaming in ((lam, lam_renaming), (mu, mu_renaming)):
            for x, y in (renaming or {}).items():
                if x != y:
                    scope[1][x] = y
                    scope[2].add(x)
    binders = 0
    # Entries are a pair of subterms, or (None, binder to undo).
    stack: list = [(t, u)]
    while stack:
        a, b = stack.pop()
        if a is None:
            _rebind(*b)
            continue
        if a is b:
            if (lam[2] and not lam[2].isdisjoint(a.fv)) or (mu[2] and not mu[2].isdisjoint(a.fmv)):
                return False
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is App:
            stack.append((a.arg, b.arg))
            stack.append((a.fn, b.fn))
        elif cls is Var:
            x, y = a.name, b.name
            if lam[0].get(x, x) != lam[1].get(y, y):
                return False
        elif cls is Named:
            x, y = a.mvar, b.mvar
            if mu[0].get(x, x) != mu[1].get(y, y):
                return False
            stack.append((a.body, b.body))
        elif cls is Lam or cls is Mu:
            scope, x, y = (lam, a.var, b.var) if cls is Lam else (mu, a.mvar, b.mvar)
            stack.append((None, (scope, x, y, scope[0].get(x), scope[1].get(y))))
            _rebind(scope, x, y, binders, binders)
            binders += 1
            stack.append((a.body, b.body))
        else:
            raise TypeError(a)
    return True


# -- reduction -----------------------------------------------------------------

Position = tuple[str, ...]


def root_step(t: Term) -> tuple[Term, str] | None:
    """Fire a β or μ redex at the root, if present."""
    if type(t) is App:
        f, u = t.fn, t.arg
        cls = type(f)
        if cls is Lam:
            return subst(f.body, f.var, u), "beta"
        if cls is Mu:
            a, b = f.mvar, f.body
            # A variable has no free μ-variable.
            fs = _EMPTY if type(u) is Var else u._fmv
            if a in (_cache_free(u, False) if fs is None else fs):
                a2 = fresh_tvar(a)
                b = rename_mvar(b, a, a2)
                a = a2
            return Mu(a, mu_subst(b, a, u)), "mu"
    return None


def theta_step(t: Term) -> Term | None:
    """μα.[α]u → u, fireable only when α is not free in u."""
    if type(t) is Mu:
        n = t.body
        if type(n) is Named and n.mvar == t.mvar:
            b = n.body
            fs = b._fmv
            if t.mvar not in (_cache_free(b, False) if fs is None else fs):
                return b
    return None


# The strategy below an application or a naming.
_INNER = {"weak": "weak", "head": "weak", "machine": "machine"}

# A zipper frame is (node class, sibling or binder, strategy at that node):
# the argument of an ``App`` entered on its function side, or the bound name
# of a ``Lam``, ``Mu`` or ``Named``.  It holds no old node, so a stack of
# frames pins no stale subtree.
_Frame = tuple[type, "Term | str", str]


def _descend(t: Term, strategy: str, frames: list[_Frame]) -> tuple[Term, str]:
    """Descend from ``t`` as ``strategy`` does, pushing a frame per node passed.

    Returns the node where descent stops and the strategy there: the first
    root β/μ redex, or where the strategy may not descend further.  It stops
    at an application only at a redex.
    """
    # Type tests, not ``match``: this loop runs once per node on the path.
    while True:
        cls = type(t)
        if cls is App and type(t.fn) not in (Lam, Mu):
            frames.append((App, t.arg, strategy))
            t, strategy = t.fn, _INNER[strategy]
        elif cls is Named:
            frames.append((Named, t.mvar, strategy))
            t, strategy = t.body, _INNER[strategy]
        elif cls is Lam and strategy == "head":
            frames.append((Lam, t.var, strategy))
            t = t.body
        elif cls is Mu and strategy != "weak":
            frames.append((Mu, t.mvar, strategy))
            t = t.body
        else:
            return t, strategy


def _up(t: Term, frames: list[_Frame]) -> tuple[Term, str]:
    """Pop the innermost frame and plug ``t`` into it: (the node, its strategy)."""
    cls, x, strategy = frames.pop()
    return (App(t, x) if cls is App else cls(x, t)), strategy


def _whole(t: Term, frames: list[_Frame]) -> Term:
    """``t`` plugged into every frame up to the root; ``frames`` is kept."""
    rest = frames[:]
    while rest:
        t, _ = _up(t, rest)
    return t


def _weakly_steps(t: Term) -> bool:
    """Whether weak reduction can step ``t``.

    A θ-redex where weak descent stops fires only if its own named body is
    weakly stuck, so the answer flips once per such redex passed.
    """
    steps = True
    while True:
        t, _ = _descend(t, "weak", [])
        if type(t) is App:
            return steps
        if theta_step(t) is None:
            return not steps
        t, steps = t.body.body, not steps


def _fires(t: Term, strategy: str, frames: list[_Frame]) -> Iterator[tuple[str | None, Term]]:
    """Fire the redexes of ``strategy`` in order on a zipper over ``t``.

    The zipper is a focus and ``frames``, the ancestors above it.  Yields
    (kind, reduct) after each step, with the reduct at the focus and the
    redex's ancestors in ``frames``; once the term is stuck, yields (None,
    the whole term) with ``frames`` empty, and stops.  A step is a root β/μ
    redex where descent stops, or else θ at the innermost node of the path
    where it fires.  After a step only the redex's parent can decide
    otherwise (an ``App`` whose function became a λ or μ is now a redex),
    so descent resumes there: one step costs the reduct, not the depth.
    """
    while True:
        t, strategy = _descend(t, strategy, frames)
        hit = root_step(t)
        while hit is None:
            out = theta_step(t)
            # Weak reduction never looks inside the μ-scope, so it may simplify
            # the named body away only once that body is itself weakly stuck.
            if out is not None and not (strategy == "weak" and _weakly_steps(out)):
                hit = out, "theta"
            elif frames:
                t, strategy = _up(t, frames)
            else:
                yield None, t
                return
        t, kind = hit
        yield kind, t
        if frames:
            t, strategy = _up(t, frames)


_POSITION = {App: "appL", Named: "named", Lam: "lam", Mu: "mu"}

STRATEGIES = ("weak", "head", "machine")


def _zipper(t: Term, strategy: str) -> tuple[list[_Frame], Iterator[tuple[str | None, Term]]]:
    """The frames and the step engine (:func:`_fires`) of ``strategy`` on ``t``."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    frames: list[_Frame] = []
    return frames, _fires(t, strategy, frames)


def step(t: Term, strategy: str) -> tuple[Term, str, Position] | None:
    """One step of ``strategy`` as (reduct, kind, position), or ``None``.

    ``None`` means ``t`` is stuck: a normal form of the strategy.  Weak
    reduction fires a β or μ redex at the root first; otherwise it descends
    only into the function side of an application and into the body of a
    named term ``[a] u``, never under a λ- or μ-binder.  θ (``mu a.[a]u →
    u``) fires only once the named body ``u`` is itself weakly stuck.  So
    ``mu a.[a]((\\k.y) v)`` is weakly stuck: its redex lies inside the
    μ-scope.  Head reduction also enters the λ- and μ-binders around the
    head, machine reduction the μ-binders.  This is the first element of
    :func:`trace`.
    """
    for kind, pos, reduct in trace(t, strategy, 1):
        return reduct, kind, pos
    return None


def trace(t: Term, strategy: str, fuel: int = 10_000) -> Iterator[tuple[str, Position, Term]]:
    """Lazily yield (kind, position, reduct) per step, at most ``fuel`` steps.

    A view of the step engine that :func:`reduce` drains: each element
    rebuilds the whole reduct and the position from the zipper, so it costs
    the depth of the redex.  An unknown strategy raises ``ValueError`` here,
    before the first step.
    """
    frames, fires = _zipper(t, strategy)

    def steps():
        for _, (kind, focus) in zip(range(fuel), fires):
            if kind is None:
                return
            yield kind, tuple(_POSITION[cls] for cls, _, _ in frames), _whole(focus, frames)

    return steps()


def reduce(t: Term, strategy: str, fuel: int = 10_000):
    """At most ``fuel`` steps of ``strategy``; returns (term, steps, exhausted).

    The steps of :func:`trace`, with the term rebuilt once at the end
    instead of at every step.  ``exhausted`` holds when the fuel ran out
    and ``t`` can still step.
    """
    frames, fires = _zipper(t, strategy)
    steps = 0
    while steps < fuel:
        kind, t = next(fires)
        if kind is None:
            return t, steps, False
        steps += 1
    return _whole(t, frames), steps, steps == fuel and next(fires)[0] is not None
