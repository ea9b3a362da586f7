"""Checker for annotated typing derivations over λμ-terms.

Two rule systems share the judgment shape ``Γ ⊢ t : N | Δ`` where Γ assigns
labelled modal formulas to λ-variables and Δ assigns labelled typing
formulas to μ-variables:

* the additive system (rules ``var``, ``abs``, ``app``, ``mu_name``,
  ``mu_abs``) folds structural bookkeeping into leaves and side conditions;
* the multiplicative system (``var_m``, ``app_m``, ``mu_name_m`` plus
  explicit ``w_lam``/``c_lam``/``w_mu``/``c_mu`` and the shared ``abs``,
  ``mu_abs``) makes weakening and contraction explicit.

Derivations carry every polynomial the side conditions mention; checking
is literal.  ``add_to_mult`` elaborates the first system into the second,
and ``subject_reduce`` rebuilds a multiplicative derivation along one head
step of its subject.

What a rule is, apart from its side conditions, is stated once, in
:data:`RULES`: its systems, the class of the subject it builds, and the
context and the judgments of the name it introduces.  The checker's system,
arity, class and context-shape checks, :func:`introduced` and
:func:`subject_of` read it, and ``_node`` builds the conclusion a rule draws
from its premises for the rewriters.

Judgments and derivations are immutable records in ``__slots__``
(``record.Frozen``); ``record.replace`` makes a changed copy.  A
judgment's ``==`` and ``hash`` are ``record``'s, over its fields.  Two
derivations are equal when their trees agree on rules and conclusions
(:class:`Tree`, which proofs share), whatever their ``ann``.  A context
that names a hypothesis twice is reported at its node.

A node's subject follows from its rule, its premises' subjects and the name
the rule introduces, so the nodes the rewriters build store none: a subject
is stored where it was written (corpus, tests, files) and at the root a
public rewriter returns, and :func:`subject_of` rebuilds any other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import formula as F
from . import lammu as L
from .formula import (
    LF,
    ShapeMismatch,
    VACUOUS,
    arrow_parts,
    classify,
    lf,
    lf_alpha_eq,
    lf_bounded_sum,
    lf_leq,
    lf_shift,
    lf_subst,
    lf_sum,
)
from .lammu import App, Lam, Mu, Named, Term, Var
from .record import Frozen, replace
from .respoly import ONE, ZERO, Poly, fresh_var, poly_leq

Ctx = tuple[tuple[str, LF], ...]
SIDES = ("lam", "mu")


class DerivationError(Exception):
    """A transformation could not produce a valid derivation."""


class Judgment(Frozen):
    # ``subject`` is None on a node the library built below a root.
    __slots__ = ("lam", "subject", "type", "mu")
    __match_args__ = ("lam", "subject", "type", "mu")

    def lam_get(self, x: str) -> LF | None:
        return ctx_get(self.lam, x)

    def mu_get(self, a: str) -> LF | None:
        return ctx_get(self.mu, a)

    def __str__(self) -> str:
        lam = ", ".join(f"{x}: {a}" for x, a in self.lam)
        mu = ", ".join(f"{x}: {a}" for x, a in self.mu)
        return f"{lam} |- {self.subject} : {self.type} | {mu}"


class Tree(Frozen):
    """``==`` and ``hash`` of the trees of derivations and of proofs, by hand
    because they leave fields out and walk a stack.

    Two trees are equal when their nodes agree, pair by pair in pre-order,
    on rule, conclusion and number of premises; ``ann`` and ``data`` are
    left out.  A pair of identical subtrees is skipped, and the pairs left
    to compare wait on a list, so a tree of any depth compares.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.rule != b.rule or len(a.premises) != len(b.premises) or a.concl != b.concl:
                return False
            stack += zip(a.premises, b.premises)
        return True

    def __hash__(self) -> int:
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append((node.rule, node.concl, len(node.premises)))
            stack += node.premises
        return hash(tuple(out))


class Derivation(Tree):
    __slots__ = ("rule", "concl", "premises", "ann")
    __match_args__ = ("rule", "concl", "premises", "ann")

    # By hand: ``premises`` defaults to none and ``ann`` to a new empty dict.
    def __init__(
        self, rule: str, concl: Judgment, premises: tuple["Derivation", ...] = (), ann: dict | None = None
    ) -> None:
        _set_rule(self, rule)
        _set_concl(self, concl)
        _set_premises(self, premises)
        _set_ann(self, {} if ann is None else ann)

    def premise(self, i: int = 0) -> "Derivation":
        return self.premises[i]


_set_rule, _set_concl = Derivation.rule.__set__, Derivation.concl.__set__
_set_premises, _set_ann = Derivation.premises.__set__, Derivation.ann.__set__


@dataclass
class Report:
    """The errors of a checked tree, as (path, message) in pre-order.

    Paths read ``root.i.j``: premise ``j`` of premise ``i`` of the root.
    Derivations and sequent proofs share this report and its walk.
    """

    errors: list[tuple[str, str]]

    @classmethod
    def walk(cls, root, node_errors) -> "Report":
        """Check every node of a tree with ``.premises`` by ``node_errors``.

        The walk keeps the premise indices from the root to the current
        node in one list, so a node's path is spelled out only when it has
        errors.
        """
        errors: list[tuple[str, str]] = []
        trail: list[int] = []
        # Entries: (node, its depth, its index among its siblings).
        stack = [(root, 0, 0)]
        while stack:
            node, depth, i = stack.pop()
            if depth:
                del trail[depth - 1 :]
                trail.append(i)
            msgs = node_errors(node)
            if msgs:
                path = "root" + "".join(f".{k}" for k in trail)
                errors.extend((path, msg) for msg in msgs)
            kids = node.premises
            for k in range(len(kids) - 1, -1, -1):
                stack.append((kids[k], depth + 1, k))
        return cls(errors)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"{path}: {msg}" for path, msg in self.errors)


def stack_safe(step):
    """Run the generator function ``step`` as a recursive function.

    Inside ``step`` a recursive call is written ``(yield args)``: it runs
    ``step(*args)`` to its ``return`` and evaluates to the returned value.
    The pending calls live on a list, not on the interpreter's stack, so the
    depth of the recursion is bounded by memory, not by the recursion
    limit.  The calls run in the order they are yielded, as in the plain
    recursion.
    """

    @functools.wraps(step)
    def run(*args, **kwargs):
        stack = [step(*args, **kwargs)]
        value = None
        while True:
            try:
                args = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
            else:
                stack.append(step(*args))
                value = None

    return run


# -- context helpers -----------------------------------------------------------


def ctx_get(ctx: Ctx, name: str) -> LF | None:
    for n, a in ctx:
        if n == name:
            return a
    return None


def ctx_dom(ctx: Ctx) -> set[str]:
    return {n for n, _ in ctx}


def ctx_remove(ctx: Ctx, *names: str) -> Ctx:
    return tuple((n, a) for n, a in ctx if n not in names)


def ctx_eq(c1: Ctx, c2: Ctx) -> bool:
    """Whether two contexts give the same names α-equal entries.  A context
    that names a hypothesis twice equals none, so the order of the two
    arguments never matters."""
    d1, d2 = dict(c1), dict(c2)
    if not len(c1) == len(d1) == len(d2) == len(c2) or d1.keys() != d2.keys():
        return False
    return all(lf_alpha_eq(a, d2[n]) for n, a in d1.items())


def ctx_map(ctx: Ctx, fn) -> Ctx:
    return tuple((n, fn(a)) for n, a in ctx)


def _sum_ctx_entry(bound: Poly, entry: LF, witness=None) -> LF:
    """``Σ_{b<bound} entry`` for a fresh summation variable."""
    return lf_bounded_sum(fresh_var("b"), bound, entry, witness)


def fits_uplus(target: LF, parts: list[LF]) -> bool:
    """target ⊑ parts[0] ⊎ parts[1] ⊎ ..."""
    if not parts:
        return False
    acc = parts[0]
    for p in parts[1:]:
        acc = lf_sum(acc, p)
    return lf_leq(target, acc)


# -- judgment well-formedness ----------------------------------------------------


def _judgment_errors(j: Judgment) -> list[str]:
    errs = []
    for x, a in j.lam:
        if classify(a.formula) != "modal":
            errs.append(f"λ-context entry {x} is not a labelled modal formula")
    errs += _named_twice(j.lam, "λ")
    if classify(j.type.formula) != "typing":
        errs.append("subject type is not a typing formula")
    for a, b in j.mu:
        if classify(b.formula) != "typing":
            errs.append(f"μ-context entry {a} is not a labelled typing formula")
    errs += _named_twice(j.mu, "μ")
    return errs


def _named_twice(ctx: Ctx, tag: str) -> list[str]:
    """An error for each name ``ctx`` holds more than once, in the order
    of their second entries: :func:`ctx_eq` reads such a context as equal
    to none, so no other check of the node would name it."""
    if len(ctx) < 2 or len(ctx_dom(ctx)) == len(ctx):
        return []
    seen, twice = set(), {}
    for n, _ in ctx:
        if n in seen:
            twice[n] = None
        seen.add(n)
    return [f"{tag}-context names {n} twice" for n in twice]


# -- the rules ------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """What a typing rule is, but for its side conditions.

    ``cls`` is the class of the subject it builds around the name it
    introduces and its premises' subjects, or None for a structural rule,
    whose subject is its premise's, renamed by a contraction.  A written
    subject of another class is reported as ``wrong_class``, one its
    premises' subjects do not build as ``wrong_subject``.  ``side`` is the
    context (``lam``/``mu``) of the name it introduces, and ``holds`` the
    judgments that hold the name: ``premise``, ``conclusion`` or ``both``.
    """

    systems: tuple[str, ...]
    cls: type | None
    wrong_class: str | None
    wrong_subject: str | None
    side: str | None
    holds: str = "conclusion"


_A, _M = ("additive",), ("multiplicative",)
_VAR = (Var, "var subject must be a variable", None)
_ABS = (Lam, "abs subject must be a λ-abstraction", "premise subject is not the abstraction body")
_APP = (App, "app subject must be an application", "premise subjects do not match the application")
_NAMED = (Named, "mu_name subject must be a named term", "premise subject is not the named body")
_MU = (Mu, "mu_abs subject must be a μ-abstraction", "premise subject is not the abstraction body")
_WEAKEN = (None, None, "weakening must preserve subject and type")
_CONTRACT = (None, None, "contraction must rename the subject accordingly")

RULES = {
    "var": Rule(_A, *_VAR, "lam"),
    "var_m": Rule(_M, *_VAR, "lam"),
    "abs": Rule(_A + _M, *_ABS, "lam", "premise"),
    "app": Rule(_A, *_APP, None),
    "app_m": Rule(_M, *_APP, None),
    "mu_name": Rule(_A, *_NAMED, "mu", "both"),
    "mu_name_m": Rule(_M, *_NAMED, "mu"),
    "mu_abs": Rule(_A + _M, *_MU, "mu", "premise"),
    "w_lam": Rule(_M, *_WEAKEN, "lam"),
    "w_mu": Rule(_M, *_WEAKEN, "mu"),
    "c_lam": Rule(_M, *_CONTRACT, "lam"),
    "c_mu": Rule(_M, *_CONTRACT, "mu"),
}
STRUCTURAL = frozenset(name for name, rule in RULES.items() if rule.cls is None)


def introduced(d: Derivation) -> str:
    """The name the rule of ``d`` introduces: the variable of ``var`` and
    ``var_m``, the binder of ``abs`` and ``mu_abs``, the μ-variable of
    ``mu_name`` and ``mu_name_m``, or the hypothesis a weakening adds.

    A written subject holds it; otherwise the contexts do: it is the one
    hypothesis of a leaf, the one the premise has and the conclusion lacks
    (a binder), or the other way round.
    """
    rule = RULES[d.rule]
    s = d.concl.subject
    if s is not None and rule.cls is not None:
        return s.name if type(s) is Var else s.var if type(s) is Lam else s.mvar
    here = getattr(d.concl, rule.side)
    if not d.premises:
        return here[0][0]
    there = getattr(d.premise().concl, rule.side)
    more, fewer = (there, here) if rule.holds == "premise" else (here, there)
    (name,) = ctx_dom(more) - ctx_dom(fewer)
    return name


def _pending(c: Derivation, renaming: dict, ctx: Ctx) -> dict:
    """The renaming pending at the premise of the contraction ``c``: its two
    names become ``into``, then ``renaming`` applies.  Only the names of the
    premise's context ``ctx`` are kept, so the map stays as small as it."""
    left, right, into = c.ann["left"], c.ann["right"], c.ann["into"]
    into = renaming.get(into, into)
    out = {}
    for v, _ in ctx:
        w = into if v == left or v == right else renaming.get(v, v)
        if w != v:
            out[v] = w
    return out


def subject_of(d: Derivation) -> Term:
    """The subject of ``d``: the one it stores, or the one its rules build.

    A contraction is a pending renaming of its premise's subject, as in
    Abadi, Cardelli, Curien and Lévy, "Explicit Substitutions" (JFP 1991).
    So one walk down the tree builds the subject: it carries the pending λ-
    and μ-renamings, and applies them at the variables and namings it meets.
    A node that stores a subject while no renaming is pending gives it
    whole.  A binder shadows the name it binds; one that a renamed name of
    its premise's context would be captured by gets a fresh name, carried
    into its body, as ``lammu.subst`` does.  It renames no term.
    """
    out: list[Term] = []
    # Entries: (node, λ-renaming, μ-renaming) to visit, or (class, name) to
    # build a term from the last one or two of ``out``.
    todo: list = [(d, {}, {})]
    while todo:
        item = todo.pop()
        if len(item) == 2:
            cls, name = item
            if cls is App:
                arg = out.pop()
                out[-1] = App(out[-1], arg)
            else:
                out[-1] = cls(name, out[-1])
            continue
        node, lren, mren = item
        cls = RULES[node.rule].cls
        if node.concl.subject is not None and not (lren or mren):
            out.append(node.concl.subject)
        elif cls is Var:
            x = introduced(node)
            out.append(Var(lren.get(x, x)))
        elif cls is App:
            fn, arg = node.premises
            todo += ((App, None), (arg, lren, mren), (fn, lren, mren))
        elif cls is None:
            prem = node.premise()
            if node.rule == "c_lam":
                lren = _pending(node, lren, prem.concl.lam)
            elif node.rule == "c_mu":
                mren = _pending(node, mren, prem.concl.mu)
            todo.append((prem, lren, mren))
        else:
            x = introduced(node)
            if cls is Named:
                x = mren.get(x, x)
            elif cls is Lam and lren:
                lren, x = _bind(lren, x, node.premise().concl.lam)
            elif cls is Mu and mren:
                mren, x = _bind(mren, x, node.premise().concl.mu)
            todo += ((cls, x), (node.premise(), lren, mren))
    return out[0]


def _bind(renaming: dict, x: str, ctx: Ctx) -> tuple[dict, str]:
    """The renaming pending in the body of a binder of ``x`` whose premise
    has the context ``ctx``, and the binder's name.  ``x`` shadows a pending
    renaming of ``x``; if a name of ``ctx`` (so possibly free in the body)
    would be renamed to ``x``, the binder gets a fresh name instead."""
    renaming = {k: v for k, v in renaming.items() if k != x}
    if any(renaming.get(k) == x for k, _ in ctx):
        renaming[x] = x = L.fresh_tvar(x)
    return renaming, x


def _rooted(d: Derivation) -> Derivation:
    """``d`` storing its subject, as the root a public rewriter returns."""
    return replace(d, concl=replace(d.concl, subject=subject_of(d)))


def _subject_errors(d: Derivation) -> list[str]:
    """A written subject against the one the rule builds from the premises'
    subjects, decided by α-equality (up to the renaming of a contraction).

    Only a node whose premises store subjects too is compared: below a root
    that a rewriter returns, the library built the nodes and stored none.
    """
    s = d.concl.subject
    below = [p.concl.subject for p in d.premises]
    if s is None or not below or any(t is None for t in below):
        return []
    rule = RULES[d.rule]
    cls = rule.cls
    want = below[0] if cls is None else App(*below) if cls is App else cls(introduced(d), below[0])
    renaming = {}
    if d.rule in ("c_lam", "c_mu"):
        renaming = {d.ann["left"]: d.ann["into"], d.ann["right"]: d.ann["into"]}
    renamings = (renaming, None) if rule.side == "lam" else (None, renaming)
    return [] if L.alpha_eq(s, want, *renamings) else [rule.wrong_subject]


# -- rule validation --------------------------------------------------------------


def _check_var_conditions(entry: LF, ty: LF) -> list[str]:
    """A variable's type ``ty`` against its entry ``<?{z<r} ~N>[y<p]``: the
    entry covers one use, and ``ty`` fits ``<N{y:=0}>[z<r{y:=0}]``."""
    errs = []
    assert isinstance(entry.formula, F.WhyNot)
    inst = F.lf_instance(entry.formula, entry.binder)
    if not poly_leq(ONE, entry.label):
        errs.append(f"variable budget must cover one use: 1 ⋢ {entry.label}")
    if not poly_leq(inst.label, ty.label):
        errs.append(f"inner bound exceeds the type label: {inst.label} ⋢ {ty.label}")
    if not F.formula_leq(ty.formula, F.negate(inst.formula), (ty.binder, inst.binder)):
        errs.append("type is not a subtype of the hypothesis instance")
    return errs


def _validate(d: Derivation, system: str) -> list[str]:
    errs = _judgment_errors(d.concl)
    j = d.concl
    rule = RULES.get(d.rule)
    if rule is None or system not in rule.systems:
        return errs + [f"rule {d.rule!r} not part of the {system} system"]
    arity = {Var: 0, App: 2}.get(rule.cls, 1)
    if len(d.premises) != arity:
        return errs + [f"{d.rule} expects {arity} premises, found {len(d.premises)}"]
    if j.subject is not None and rule.cls is not None and not isinstance(j.subject, rule.cls):
        return errs + [rule.wrong_class]

    try:
        wrong_subject = _subject_errors(d)
        errs += wrong_subject
        if rule.cls not in (None, App):
            x = introduced(d)
        if rule.cls is Var:
            entry = j.lam_get(x)
            if entry is None:
                return errs + [f"variable {x} missing from the context"]
            if d.rule == "var_m" and (len(j.lam) != 1 or j.mu):
                errs.append("multiplicative var carries exactly its own hypothesis")
            errs += _check_var_conditions(entry, j.type)

        elif rule.cls is Lam:
            p0 = d.premise().concl
            parts = arrow_parts(j.type.formula)
            if parts is None:
                return errs + ["abs type must be an arrow"]
            n_f, z, s, m_f = parts
            entry = p0.lam_get(x)
            if entry is None:
                return errs + [f"premise does not bind {x}"]
            want_entry = F.WhyNot.intern(z, s, F.negate(n_f))
            if not F.alpha_eq(entry.formula, want_entry, (entry.binder, j.type.binder)):
                errs.append("hypothesis formula does not match the arrow source")
            if not F.alpha_eq(p0.type.formula, m_f, (p0.type.binder, j.type.binder)):
                errs.append("premise type does not match the arrow target")
            if not poly_leq(p0.type.label, j.type.label):
                errs.append(f"arrow label too small: {p0.type.label} ⋢ {j.type.label}")
            if not poly_leq(entry.label, j.type.label):
                errs.append(f"arrow label below hypothesis budget: {entry.label} ⋢ {j.type.label}")

        elif rule.cls is App:
            jt, ju = d.premise(0).concl, d.premise(1).concl
            parts = arrow_parts(jt.type.formula)
            if parts is None:
                return errs + ["function premise must have an arrow type"]
            n_f, xhat, phat, m_f = parts
            if not lf_alpha_eq(ju.type, lf(n_f, xhat, phat)):
                errs.append("argument type does not match the arrow source")
            if not F.alpha_eq(j.type.formula, m_f, (j.type.binder, jt.type.binder)):
                errs.append("result type does not match the arrow target")
            q = jt.type.label
            h = d.ann.get("h", q)
            k = j.type.label
            if not poly_leq(q, h):
                errs.append(f"replication bound too small: {q} ⋢ {h}")
            if not poly_leq(q, k):
                errs.append(f"result label too small: {q} ⋢ {k}")
            merge = _check_additive_merge if d.rule == "app" else _check_mult_merge
            errs += merge(j.lam, jt.lam, ju.lam, h, d.ann.get("sum_witness_lam", {}), "λ")
            errs += merge(j.mu, jt.mu, ju.mu, h, d.ann.get("sum_witness_mu", {}), "μ")

        elif d.rule == "mu_name":
            p0 = d.premise().concl
            if not isinstance(j.type.formula, F.Bottom):
                errs.append("naming must conclude at type bot")
            merged = j.mu_get(x)
            old = p0.mu_get(x)
            if merged is None or old is None:
                return errs + [f"μ-variable {x} must appear in premise and conclusion"]
            if not fits_uplus(merged, [p0.type, old]):
                errs.append(f"entry for {x} is not below the merged types")

        elif d.rule == "mu_name_m":
            p0 = d.premise().concl
            if p0.mu_get(x) is not None:
                errs.append(f"μ-variable {x} must be fresh for the premise")
            if not isinstance(j.type.formula, F.Bottom):
                errs.append("naming must conclude at type bot")
            entry = j.mu_get(x)
            if entry is None or not lf_alpha_eq(entry, p0.type):
                errs.append(f"conclusion must move the type onto {x}")

        elif rule.cls is Mu:
            p0 = d.premise().concl
            if not isinstance(p0.type.formula, F.Bottom):
                errs.append("premise type must be bot")
            entry = p0.mu_get(x)
            if entry is None:
                return errs + [f"premise must bind {x}"]
            if not lf_alpha_eq(entry, j.type):
                errs.append("conclusion type must be the bound μ-entry")

        elif d.rule in ("w_lam", "w_mu"):
            p0 = d.premise().concl
            side, other = rule.side, "mu" if rule.side == "lam" else "lam"
            cur, prev = getattr(j, side), getattr(p0, side)
            extra = ctx_dom(cur) - ctx_dom(prev)
            if len(extra) != 1 or not ctx_eq(ctx_remove(cur, *extra), prev):
                errs.append("weakening must add exactly one hypothesis")
            if not ctx_eq(getattr(j, other), getattr(p0, other)):
                errs.append("weakening must preserve the other context")
            if not (wrong_subject or lf_alpha_eq(j.type, p0.type)):
                errs.append("weakening must preserve subject and type")

        else:  # a contraction
            p0 = d.premise().concl
            x1, x2, z = d.ann["left"], d.ann["right"], d.ann["into"]
            side, other = rule.side, "mu" if rule.side == "lam" else "lam"
            cur, prev = getattr(j, side), getattr(p0, side)
            n1, n2 = ctx_get(prev, x1), ctx_get(prev, x2)
            merged = ctx_get(cur, z)
            if n1 is None or n2 is None or merged is None:
                return errs + ["contraction endpoints missing from the contexts"]
            if not fits_uplus(merged, [n1, n2]):
                errs.append(f"contracted entry for {z} is not below the sum")
            if not ctx_eq(ctx_remove(cur, z), ctx_remove(prev, x1, x2)):
                errs.append("contraction must preserve the remaining context")
            if not ctx_eq(getattr(j, other), getattr(p0, other)):
                errs.append("contraction must preserve the other context")
            if not lf_alpha_eq(j.type, p0.type):
                errs.append("contraction must preserve the type")

        if rule.cls in (Lam, Mu, Named):
            errs += _binder_context_errors(d, rule, x)

    except (ShapeMismatch, AssertionError, LookupError, ValueError) as exc:
        errs.append(f"malformed node: {exc}")
    return errs


def _binder_context_errors(d: Derivation, rule: Rule, x: str) -> list[str]:
    """The context shape of a rule with one premise that introduces ``x``:
    its conclusion's contexts are its premise's, but for ``x`` in the
    judgments that hold it.  A rule runs this after its side conditions."""
    errs = []
    p0 = d.premise().concl
    for side, tag in zip(SIDES, "λμ"):
        here, there, remaining = getattr(d.concl, side), getattr(p0, side), ""
        if side == rule.side:
            remaining = "remaining "
            if rule.holds != "premise":
                here = ctx_remove(here, x)
            if rule.holds != "conclusion":
                there = ctx_remove(there, x)
        if not ctx_eq(here, there):
            errs.append(f"{d.rule.removesuffix('_m')} must preserve the {remaining}{tag}-context")
    return errs


def _check_additive_merge(gamma: Ctx, theta: Ctx, xi: Ctx, h: Poly, wit, tag) -> list[str]:
    errs = []
    if ctx_dom(gamma) != ctx_dom(theta) | ctx_dom(xi):
        return [f"{tag}-context domains do not merge"]
    for v, target in gamma:
        parts = []
        t = ctx_get(theta, v)
        if t is not None:
            parts.append(t)
        u = ctx_get(xi, v)
        if u is not None:
            parts.append(_sum_ctx_entry(h, u, wit.get(v)))
        try:
            if not fits_uplus(target, parts):
                errs.append(f"{tag}-context entry {v} exceeds its merged budget")
        except ShapeMismatch as exc:
            errs.append(f"{tag}-context entry {v}: {exc}")
    return errs


def _check_mult_merge(concl: Ctx, gamma: Ctx, theta: Ctx, h: Poly, wit, tag) -> list[str]:
    errs = []
    if ctx_dom(gamma) & ctx_dom(theta):
        return [f"{tag}-contexts of the premises must be disjoint"]
    if ctx_dom(concl) != ctx_dom(gamma) | ctx_dom(theta):
        return [f"{tag}-context does not split over the premises"]
    for v, target in concl:
        g = ctx_get(gamma, v)
        if g is not None:
            if not lf_alpha_eq(target, g):
                errs.append(f"{tag}-context entry {v} must pass through unchanged")
            continue
        u = ctx_get(theta, v)
        try:
            if not lf_leq(target, _sum_ctx_entry(h, u, wit.get(v))):
                errs.append(f"{tag}-context entry {v} exceeds its replicated budget")
        except ShapeMismatch as exc:
            errs.append(f"{tag}-context entry {v}: {exc}")
    return errs


def check_additive(d: Derivation) -> Report:
    return Report.walk(d, lambda node: _validate(node, "additive"))


def check_mult(d: Derivation) -> Report:
    return Report.walk(d, lambda node: _validate(node, "multiplicative"))


# -- derivation transformations ---------------------------------------------------
#
# The rewriters below rebuild derivation trees.  A rewriter that recurses over
# ``.premises`` runs on ``stack_safe`` and writes each recursive call as
# ``(yield args)``; one that follows a single path is a loop.  So the depth of
# a derivation costs heap, not interpreter frames, and the calls run in the
# order written, which fixes the order the global name supplies are drawn in.
# The nodes they build store no subject; a public rewriter stores one at the
# root it returns.  Validity of the results is re-checked by the callers (and
# the test suite) via check_mult.


@stack_safe
def subst_derivation(d: Derivation, var: str, value: Poly) -> Derivation:
    """Substitute a resource variable throughout a derivation."""
    if var == VACUOUS:
        return d
    j = d.concl

    def sub(a: LF) -> LF:
        return lf_subst(a, var, value)

    concl = Judgment(ctx_map(j.lam, sub), j.subject, sub(j.type), ctx_map(j.mu, sub))
    ann = dict(d.ann)
    if "h" in ann:
        ann["h"] = ann["h"].subst(var, value)
    premises = []
    for p in d.premises:
        premises.append((yield (p, var, value)))
    return Derivation(d.rule, concl, tuple(premises), ann)


def rename_free(d: Derivation, side: str, old: str, new: str) -> Derivation:
    """Rename a free λ-variable (``side`` "lam") or μ-variable ("mu") of a
    multiplicative derivation.  The root returned stores its subject: the
    root's own, renamed, as no other node's changes."""
    out = _rename_free(d, side, old, new)
    if out is d:
        return d
    s = subject_of(d)
    s = L.subst(s, old, Var(new)) if side == "lam" else L.rename_mvar(s, old, new)
    return replace(out, concl=replace(out.concl, subject=s))


def _restated(j: Judgment, side: str, ctx: Ctx) -> Judgment:
    """``j`` with ``ctx`` as its ``side`` context, and without a subject."""
    return Judgment(ctx, None, j.type, j.mu) if side == "lam" else Judgment(j.lam, None, j.type, ctx)


def _node(rule: str, premises: tuple, type: LF, name=None, h=None, witnesses=None, keep=None) -> Derivation:
    """The ``rule`` node over ``premises`` concluding ``type``, its contexts
    drawn from its premises': an ``abs`` or ``mu_abs`` binds ``name``, a
    ``mu_name_m`` moves its premise's type onto it, and an ``app_m`` keeps
    the function's contexts and sums the argument's under ``h``, with the
    per-side ``witnesses`` by the argument's names.  It stores no subject.

    ``keep`` is an ``app_m`` node this one rebuilds: an argument entry that
    ``keep``'s argument premise held, α-equal, keeps ``keep``'s summed entry,
    so no summation variable is drawn for it.  So the cost of a rebuilt
    ``app_m`` is the size of its own contexts."""
    p = premises[0].concl
    if rule == "app_m":
        arg, wit = premises[1].concl, witnesses or {}
        lam, mu = (getattr(p, side) + _summed(getattr(arg, side), h, wit.get(side, {}), keep, side) for side in SIDES)
        return Derivation(rule, Judgment(lam, None, type, mu), premises, {"h": h})
    side, holds = RULES[rule].side, RULES[rule].holds
    ctx = ctx_remove(getattr(p, side), name) if holds == "premise" else ((name, p.type),) + getattr(p, side)
    lam, mu = (ctx if s == side else getattr(p, s) for s in SIDES)
    return Derivation(rule, Judgment(lam, None, type, mu), premises)


def _summed(ctx: Ctx, h: Poly, wit: dict, keep: Derivation | None, side: str) -> Ctx:
    """The argument context ``ctx`` of an ``app_m`` summed under ``h``, on
    ``side``; the entries ``keep`` held are read off its conclusion."""
    if keep is None:
        return tuple((v, _sum_ctx_entry(h, a, wit.get(v))) for v, a in ctx)
    held, summed = dict(getattr(keep.premise(1).concl, side)), dict(getattr(keep.concl, side))
    return tuple((v, summed[v] if v in held and lf_alpha_eq(a, held[v]) else _sum_ctx_entry(h, a, wit.get(v)))
                 for v, a in ctx)


@stack_safe
def _rename_free(d: Derivation, side: str, old: str, new: str) -> Derivation:
    """:func:`rename_free` in the contexts and contraction names.

    A node whose context does not hold ``old`` is returned itself: its
    subject does not mention ``old`` free, and a premise that does (the
    endpoint of a contraction, the hypothesis of a binder, a fresh naming)
    is bound below this node, not free in the derivation.
    """
    j = d.concl
    ctx = getattr(j, side)
    if old == new or ctx_get(ctx, old) is None:
        return d
    ctx = tuple((new if n == old else n, a) for n, a in ctx)
    ann = dict(d.ann)
    for key in ("left", "right", "into"):
        if ann.get(key) == old:
            ann[key] = new
    premises = []
    for p in d.premises:
        premises.append((yield (p, side, old, new)))
    return Derivation(d.rule, _restated(j, side, ctx), tuple(premises), ann)


def weaken(d: Derivation, side: str, var: str, entry: LF) -> Derivation:
    ctx = getattr(d.concl, side) + ((var, entry),)
    return Derivation(f"w_{side}", _restated(d.concl, side, ctx), (d,))


def contract(d: Derivation, side: str, v1: str, v2: str, into: str, target: LF) -> Derivation:
    """Contract the hypotheses ``v1`` and ``v2`` into ``into``: a pending
    renaming of the subject, which :func:`subject_of` carries out."""
    ctx = ctx_remove(getattr(d.concl, side), v1, v2) + ((into, target),)
    ann = {"left": v1, "right": v2, "into": into}
    return Derivation(f"c_{side}", _restated(d.concl, side, ctx), (d,), ann)


def ctx_lower(d: Derivation, side: str, var: str, target: LF) -> Derivation:
    """Lower one context entry to a ⊑-smaller labelled formula.

    Realised multiplicatively by weakening in a zero-labelled shifted copy
    and contracting it away, so no recursion into the tree is needed.
    """
    cur = ctx_get(getattr(d.concl, side), var)
    if cur is None:
        raise DerivationError(f"no {side}-entry {var} to lower")
    if lf_alpha_eq(cur, target):
        return d
    if not lf_leq(target, cur):
        raise DerivationError(f"{target} is not below {cur}")
    ghost = L.fresh_tvar(var)
    shifted = lf_shift(cur, fresh_var("g"))
    zero = LF.intern(shifted.formula, shifted.binder, ZERO)
    return contract(weaken(d, side, ghost, zero), side, var, ghost, var, target)


@stack_safe
def lower_type(d: Derivation, target: LF) -> Derivation:
    """Rebuild a multiplicative derivation with a ⊑-smaller subject type."""
    if lf_alpha_eq(d.concl.type, target):
        return d
    if not lf_leq(target, d.concl.type):
        raise DerivationError(f"type {target} is not below {d.concl.type}")
    premises = d.premises
    match d.rule:
        case "abs":
            n_f, z, s, m_f = arrow_parts(target.formula)
            x = introduced(d)
            p0 = d.premise()
            entry = p0.concl.lam_get(x)
            f_entry = F.with_binder(
                F.WhyNot.intern(z, s, F.negate(n_f)), target.binder, entry.binder
            )
            prem = ctx_lower(p0, "lam", x, lf(f_entry, entry.binder, entry.label))
            ty0 = prem.concl.type
            m_new = F.with_binder(m_f, target.binder, ty0.binder)
            premises = ((yield (prem, lf(m_new, ty0.binder, ty0.label))),)
        case "app_m" | "app":
            fn = d.premise(0)
            fnlf = fn.concl.type
            n_f, xh, ph, _ = arrow_parts(fnlf.formula)
            if fnlf.binder == VACUOUS and target.binder != VACUOUS:
                m_new, binder = target.formula, target.binder
            else:
                m_new, binder = F.with_binder(target.formula, target.binder, fnlf.binder), fnlf.binder
            new_arrow = lf(F.Par.intern(F.WhyNot.intern(xh, ph, F.negate(n_f)), m_new), binder, fnlf.label)
            premises = ((yield (fn, new_arrow)), d.premise(1))
        case "mu_abs":
            premises = (ctx_lower(d.premise(), "mu", introduced(d), target),)
        case "w_lam" | "w_mu" | "c_lam" | "c_mu":
            premises = ((yield (d.premise(), target)),)
        case "var_m" | "var" | "mu_name_m" | "mu_name":
            pass
        case _:
            raise DerivationError(f"cannot lower the type of a {d.rule} node")
    return Derivation(d.rule, replace(d.concl, type=target), premises, dict(d.ann))


@stack_safe
def drop_mu_entry(d: Derivation, var: str) -> Derivation:
    """Remove an unused μ-hypothesis (never named in the subject)."""
    j = d.concl
    if j.mu_get(var) is None:
        return d
    if d.rule == "w_mu" and introduced(d) == var:
        return d.premise()
    if d.rule == "c_mu" and d.ann["into"] == var:
        prem = yield (d.premise(), d.ann["left"])
        return (yield (prem, d.ann["right"]))
    premises = []
    for p in d.premises:
        premises.append((yield (p, var)))
    return Derivation(d.rule, replace(j, mu=ctx_remove(j.mu, var)), tuple(premises), dict(d.ann))


# -- elaboration into the multiplicative system -------------------------------------


def _merge_side(d: Derivation, side: str, target: Ctx, left: Ctx, summed: dict) -> Derivation:
    """Contract/weaken/lower premise-derived entries down to ``target``."""
    for v, want in target:
        have_left = ctx_get(left, v) is not None
        have_right = v in summed
        if have_left and have_right:
            ghost = summed[v]
            d = contract(d, side, v, ghost, v, want)
        elif have_left or have_right:
            if have_right:
                d = _rename_free(d, side, summed[v], v)
            cur = ctx_get(getattr(d.concl, side), v)
            if not lf_alpha_eq(cur, want):
                d = ctx_lower(d, side, v, want)
        else:
            d = weaken(d, side, v, want)
    return d


def add_to_mult(d: Derivation) -> Derivation:
    """Elaborate an additive derivation into the multiplicative system.

    The root keeps ``d``'s subject, which elaboration does not change.
    """
    out = _elaborate(d)
    return replace(out, concl=replace(out.concl, subject=d.concl.subject))


@stack_safe
def _elaborate(d: Derivation) -> Derivation:
    """:func:`add_to_mult`, below its root."""
    j = d.concl
    concl = replace(j, subject=None)
    match d.rule:
        case "var":
            x = introduced(d)
            out = Derivation("var_m", Judgment(((x, j.lam_get(x)),), None, j.type, ()))
            for side in SIDES:
                for v, a in getattr(j, side):
                    if (side, v) != ("lam", x):
                        out = weaken(out, side, v, a)
            return replace(out, concl=concl)
        case "abs" | "mu_abs":
            prem = yield (d.premise(),)
            return Derivation(d.rule, concl, (prem,), dict(d.ann))
        case "mu_name":
            prem = yield (d.premise(),)
            a = introduced(d)
            gamma = L.fresh_tvar(a)
            named = _node("mu_name_m", (prem,), j.type, gamma)
            return replace(contract(named, "mu", gamma, a, a, j.mu_get(a)), concl=concl)
        case "app":
            fn = yield (d.premise(0),)
            arg = yield (d.premise(1),)
            h = d.ann.get("h", fn.concl.type.label)
            ren, wit = {}, {}
            for side in SIDES:
                # The names the premises share, renamed apart in the argument
                # in the function's context order: the fresh names are drawn
                # in this order, so it must not follow string hashing.
                ren[side] = {}
                for v, _ in getattr(fn.concl, side):
                    if ctx_get(getattr(arg.concl, side), v) is not None:
                        ren[side][v] = L.fresh_tvar(v)
                        arg = _rename_free(arg, side, v, ren[side][v])
                if written := d.ann.get(f"sum_witness_{side}"):
                    back = {v2: v1 for v1, v2 in ren[side].items()}
                    wit[side] = {v: written.get(back.get(v, v)) for v, _ in getattr(arg.concl, side)}
            out = _node("app_m", (fn, arg), j.type, h=h, witnesses=wit)
            for side in SIDES:
                summed = {v: ren[side].get(v, v) for v, _ in getattr(d.premise(1).concl, side)}
                out = _merge_side(out, side, getattr(j, side), getattr(fn.concl, side), summed)
            return replace(out, concl=concl)
    raise DerivationError(f"not an additive rule: {d.rule}")


# -- constructive subject reduction --------------------------------------------------


@dataclass
class _Sub:
    """One variable copy awaiting substitution of the argument derivation."""

    rho: Derivation
    binder: str  # label binder of the original hypothesis
    shift: Poly
    kind: str  # "lam" or "mu"
    root: str = ""  # original variable this copy descends from


def _instantiate(sub: _Sub, groups: dict) -> Derivation:
    """A fresh-named instance of the argument derivation at the copy's
    shift.  Each renamed hypothesis is appended to its group in ``groups``,
    per side, under the argument's name for it."""
    inst = sub.rho
    if sub.binder != VACUOUS:
        inst = subst_derivation(inst, sub.binder, sub.shift)
    for side in SIDES:
        for v, _ in getattr(inst.concl, side):
            new = L.fresh_tvar(v)
            inst = _rename_free(inst, side, v, new)
            groups[side].setdefault(v, []).append(new)
    return inst


@stack_safe
def _subst_walk(d: Derivation, subs: dict[str, _Sub], groups: dict) -> Derivation:
    """Replace every use of the tracked variable copies by the argument.

    Returns the rebuilt derivation.  Each fresh copy it inserts is appended,
    in walk order, to ``groups`` (``{"lam": {}, "mu": {}}``): under the
    original argument-context variable it copies, or for a μ-copy's new
    naming under ``("copy", root)``.  A node's tracked copies are found by
    looking the names of its own contexts up in ``subs``, and an ``app_m``
    keeps the summed entries its argument did not change (``_node``), so
    the cost of the walk follows the size of the reduct it builds.
    """
    j = d.concl
    live = {v: subs[v] for side in SIDES for v, _ in getattr(j, side) if v in subs and subs[v].kind == side}
    if not live:
        return d
    rule = d.rule

    if rule == "var_m":
        (sub,) = live.values()
        return lower_type(_instantiate(sub, groups), j.type)

    if rule in ("w_lam", "w_mu") and introduced(d) in live:
        # the copy is unused: no argument inserted
        return (yield (d.premise(), subs, groups))

    if rule in ("c_lam", "c_mu") and d.ann["into"] in live:
        x1, x2, z = d.ann["left"], d.ann["right"], d.ann["into"]
        sub = live[z]
        p1 = ctx_get(getattr(d.premise().concl, RULES[rule].side), x1).label
        subs2 = {v: s for v, s in subs.items() if v != z}
        subs2[x1] = _Sub(sub.rho, sub.binder, sub.shift, sub.kind, sub.root)
        subs2[x2] = _Sub(sub.rho, sub.binder, sub.shift + p1, sub.kind, sub.root)
        return (yield (d.premise(), subs2, groups))

    if rule in STRUCTURAL:
        return _replay_structurals((yield (d.premise(), subs, groups)), [d])

    if rule == "mu_name_m" and introduced(d) in live:
        gamma = introduced(d)
        sub = live[gamma]
        prem = yield (d.premise(), subs, groups)
        entry = j.mu_get(gamma)
        n_f, xh, ph, m_f = arrow_parts(entry.formula)
        inst = lower_type(_instantiate(sub, groups), lf(n_f, xh, ph))
        gamma2 = L.fresh_tvar(gamma)
        groups["mu"].setdefault(("copy", sub.root), []).append(gamma2)
        app = _node("app_m", (prem, inst), lf(m_f, entry.binder, entry.label), h=entry.label)
        return _node("mu_name_m", (app,), j.type, gamma2)

    # congruence cases: rebuild the node around the processed premises
    new_prems = []
    for p in d.premises:
        new_prems.append((yield (p, subs, groups)))
    if rule in ("abs", "mu_abs", "mu_name_m"):
        return _node(rule, tuple(new_prems), j.type, introduced(d))
    if rule == "app_m":
        return _node(rule, tuple(new_prems), j.type, h=d.ann["h"], keep=d)
    raise DerivationError(f"substitution hit an unexpected {rule} node")


def _close_groups(d: Derivation, groups: dict, side: str) -> Derivation:
    """Contract fresh argument copies together and restore original names."""
    for orig, copies in groups.items():
        cur = copies[0]
        for nxt in copies[1:]:
            e1 = ctx_get(getattr(d.concl, side), cur)
            e2 = ctx_get(getattr(d.concl, side), nxt)
            merged = lf_sum(e1, e2)
            ghost = L.fresh_tvar(orig)
            d = contract(d, side, cur, nxt, ghost, merged)
            cur = ghost
        d = _rename_free(d, side, cur, orig)
    return d


def lam_subst_derivation(pi: Derivation, x: str, rho: Derivation) -> Derivation:
    """Replace the hypothesis ``x`` by the argument derivation ``rho``; the
    root returned stores its subject."""
    return _rooted(_lam_subst(pi, x, rho))


def _lam_subst(pi: Derivation, x: str, rho: Derivation) -> Derivation:
    entry = pi.concl.lam_get(x)
    if entry is None:
        raise DerivationError(f"{x} is not bound in the premise")
    groups: dict = {"lam": {}, "mu": {}}
    out = _subst_walk(pi, {x: _Sub(rho, entry.binder, ZERO, "lam", x)}, groups)
    out = _close_groups(out, groups["lam"], "lam")
    return _close_groups(out, groups["mu"], "mu")


def mu_subst_derivation(pi: Derivation, alpha: str, rho: Derivation) -> Derivation:
    """Feed the argument to every naming of ``alpha`` (the μ-redex lemma);
    the root returned stores its subject."""
    return _rooted(_mu_subst(pi, alpha, rho))


def _mu_subst(pi: Derivation, alpha: str, rho: Derivation) -> Derivation:
    entry = pi.concl.mu_get(alpha)
    if entry is None:
        raise DerivationError(f"{alpha} is not bound in the premise")
    _, _, _, m_f = arrow_parts(entry.formula)
    target = lf(m_f, entry.binder, entry.label)
    groups: dict = {"lam": {}, "mu": {}}
    out = _subst_walk(pi, {alpha: _Sub(rho, entry.binder, ZERO, "mu", alpha)}, groups)
    copies = groups["mu"].pop(("copy", alpha), [])
    out = _close_groups(out, groups["lam"], "lam")
    out = _close_groups(out, groups["mu"], "mu")
    if not copies:
        return weaken(out, "mu", alpha, target)
    out = _close_groups(out, {alpha: copies}, "mu")
    if not lf_alpha_eq(out.concl.mu_get(alpha), target):
        out = ctx_lower(out, "mu", alpha, target)
    return out


def _adjust_to(d: Derivation, target: Judgment) -> Derivation:
    """Weaken and lower contexts until the conclusion is ``target``'s, but
    for the subject."""
    d = lower_type(d, target.type)
    for side in SIDES:
        have, want = getattr(d.concl, side), getattr(target, side)
        extra = ctx_dom(have) - ctx_dom(want)
        if extra:
            raise DerivationError(f"cannot drop hypotheses {sorted(extra)}")
        d = _merge_side(d, side, want, have, {})
    return replace(d, concl=replace(target, subject=None))


def _replay_structurals(out: Derivation, wrappers: list[Derivation]) -> Derivation:
    """Re-apply peeled weakenings and contractions below ``out``."""
    for node in reversed(wrappers):
        side = RULES[node.rule].side
        if node.rule in ("w_lam", "w_mu"):
            ev = introduced(node)
            out = weaken(out, side, ev, ctx_get(getattr(node.concl, side), ev))
        else:
            z = node.ann["into"]
            out = contract(
                out, side, node.ann["left"], node.ann["right"], z,
                ctx_get(getattr(node.concl, side), z),
            )
    return out


def _bare_redex_app(d: Derivation) -> tuple[Derivation, list[Derivation]]:
    """Peel structural rules off the function premise of an application."""
    assert d.rule == "app_m"
    fn, arg = d.premises
    wrappers = []
    while fn.rule in STRUCTURAL:
        wrappers.append(fn)
        fn = fn.premise()
    if not wrappers:
        return d, []
    return _node("app_m", (fn, arg), d.concl.type, h=d.ann.get("h"), keep=d), wrappers


def _fire_beta(d: Derivation) -> Derivation:
    fn, rho = d.premises
    if fn.rule != "abs":
        raise DerivationError("β-redex derivation must end in an abstraction")
    return _adjust_to(_lam_subst(fn.premise(), introduced(fn), rho), d.concl)


def _fire_mu(d: Derivation) -> Derivation:
    fn, rho = d.premises
    if fn.rule != "mu_abs":
        raise DerivationError("μ-redex derivation must end in a μ-abstraction")
    beta = introduced(fn)
    out = _mu_subst(fn.premise(), beta, rho)
    return _adjust_to(_node("mu_abs", (out,), out.concl.mu_get(beta), beta), d.concl)


def _fire_theta(d: Derivation) -> Derivation:
    # subject is mu a. [a] t with a not free in t
    alpha = introduced(d)
    aliases = {alpha}
    replay: list[Derivation] = []
    cur = d.premise()
    while True:
        if cur.rule == "c_mu" and cur.ann["into"] in aliases:
            aliases |= {cur.ann["left"], cur.ann["right"]}
            cur = cur.premise()
        elif cur.rule == "w_mu":
            if introduced(cur) not in aliases:
                replay.append(cur)
            cur = cur.premise()
        elif cur.rule in ("c_lam", "w_lam", "c_mu"):
            replay.append(cur)
            cur = cur.premise()
        elif cur.rule == "mu_name_m" and introduced(cur) in aliases:
            pi = cur.premise()
            break
        else:
            raise DerivationError("θ-redex derivation has an unexpected shape")
    for a in sorted(aliases):
        if pi.concl.mu_get(a) is not None:
            pi = drop_mu_entry(pi, a)
    return _adjust_to(_replay_structurals(pi, replay), d.concl)


# Congruences of subject reduction: position step -> (rule, subject field of
# the premise it descends into, always premise 0).
_CONGRUENCES = {
    "appL": ("app_m", "fn"),
    "lam": ("abs", "body"),
    "mu": ("mu_abs", "body"),
    "named": ("mu_name_m", "body"),
}


def subject_reduce(d: Derivation, position: tuple[str, ...] | None = None) -> Derivation:
    """Rebuild a multiplicative derivation along one head step of its subject.

    ``position`` defaults to the head-redex position of the subject; passing
    a non-redex position is an error.  The walk follows ``position`` down the
    tree and the root's subject together, so the redex is read off that
    subject and no node's subject is rebuilt on the way.  The root returned
    stores the subject its tree builds, the reduct.

    Its cost follows the size of the reduct's derivation, which holds Θ(n²)
    context entries after one step on elaborated church n: ``_subst_walk``
    reads each entry of a node it rebuilds a bounded number of times.
    """
    t = subject_of(d)
    if position is None:
        hit = L.step(t, "head")
        if hit is None:
            raise DerivationError("subject is head-normal")
        position = hit[2]
    # The nodes passed, root first: the structural ones and the congruences.
    path = []
    node, rest = d, position
    while True:
        # At the redex every node, structural ones too, runs root_step first:
        # it may draw fresh names, and later names depend on that order.
        root = L.root_step(t) if rest == () else None
        if node.rule in STRUCTURAL:
            path.append(node)
        elif rest == ():
            break
        else:
            step, rest = rest[0], rest[1:]
            rule, part = _CONGRUENCES.get(step, (None, None))
            if node.rule != rule:
                raise DerivationError(f"derivation rule {node.rule} does not match step {step!r}")
            path.append(node)
            t = getattr(t, part)
        node = node.premise()
    if root is not None and root[1] in ("beta", "mu"):
        bare, wrappers = _bare_redex_app(node)
        out = _fire_beta(bare) if root[1] == "beta" else _fire_mu(bare)
        out = _replay_structurals(out, wrappers)
    elif L.theta_step(t) is not None:
        out = _fire_theta(node)
    else:
        raise DerivationError("no redex at the requested position")
    for node in reversed(path):
        if node.rule in STRUCTURAL:
            out = _replay_structurals(out, [node])
        else:
            concl = replace(node.concl, subject=None)
            out = Derivation(node.rule, concl, (out,) + node.premises[1:], dict(node.ann))
    return _rooted(out)
