"""Sequent-calculus kernel: proofs, weights, malleability, cut elimination.

A sequent is a tuple of labelled formulas with at most one positive member.
Proof nodes store their conclusion and rule-specific data (indices into
premise conclusions, polynomial witnesses); checking is local and literal.
A node is an immutable record in ``__slots__`` (``record.Frozen``), and
its ``data`` is a read-only copy.  A rewrite rebuilds only the path to its
change, and every other subproof of its result is the same object as
before.  So a fact that depends on a subproof alone is stored on the
subproof's root, in a slot that ``record.replace`` does not carry over, and
computed once.  Three are stored; each one's worth is given in CPU time
on a shared 2-core host, the median of four best-of-15 runs, for draining
the special steps of church-1..12 and the corpus with a check and a weight
after each step (31 ms with all three):

- the verdict, a node's own errors, which read only the node and its
  premises' conclusions.  It is `CLEAN` when no node of the subproof has
  an error, so `check_proof` decides a checked proof at its root, and
  checks the result of a cut only at the nodes the cut built.  With no
  verdict stored the drain takes 70 ms.
- the table, where the rule puts each premise formula: the `_plan` its
  shape shares, so it costs a node one reference.  With no table stored,
  `layout` and `created` look the plan up by shape, and the drain takes
  40 ms.
- the weight form, the weight as an affine function of the fates of the
  conclusion formulas (see `weight`), so weighing the result of a cut
  computes forms only for the nodes the cut built.  Weighing after every
  special cut of church-64, as ``cut-eliminate --trace`` does, costs 1.5×
  `normalize`, and 4.6× when the weight is walked from the root each time.

The weight of a proof bounds the number of special cut-elimination steps.
It is the symbolic pre-weight with its variables substituted: each axiom,
unary rule and box door holds one variable, which becomes 1 when its
formula occurrence is eventually cut and 0 when the occurrence reaches the
root.  That value is its fate, and substituting a constant commutes with +
and ×, so a subproof's weight is affine in the fates of its conclusion
positions, and a node's form follows from its premises'.

Where a rule puts each premise formula is stated once, in `_layout`.  A
table depends only on a node's shape, its rule, position fields and
premise lengths, so `_plan` derives one plan per shape from it and keeps
it: the table, and a gather that picks the conclusion out of the premises'
conclusions followed by the formulas the rule makes.  Every builder but
the box's gathers its conclusion by its shape's plan, every node keeps
that shared table, the checker compares a conclusion with its premises by
the gather before it compares them position by position, and every
position translation, a commutation's too, is composed from the tables
before and after a rewrite.

What a rule is, but for its layout and side conditions, is stated once,
in `RULES` (see `ProofRule`); the checker, the shape key, the weight
forms, the commutations, the choice of a firing function and the file
reader's position fields read it.

A special cut is exposed by commuting the rules above it, then fired.
Commuting a rule only moves it: the cut moves onto the premise that holds
its formula, and the rule is rebuilt below it. Both, and every ancestor of
a rewritten subproof, are rebuilt by `_rebuild` through `_build`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter, itemgetter
from types import MappingProxyType

from . import formula as F
from . import typecheck as T
from .formula import (
    LF,
    ShapeMismatch,
    VACUOUS,
    arrow_parts,
    lf,
    lf_alpha_eq,
    lf_bounded_sum,
    lf_leq,
    lf_neg,
    lf_shift,
    lf_subst,
    lf_sum,
    negate,
)
from .record import replace
from .respoly import ONE, ZERO, Poly, bounded_sum, const, fresh_var, poly_leq, pvar
from .typecheck import SIDES, Report, Tree, ctx_get, introduced, stack_safe

Sequent = tuple[LF, ...]
Path = tuple[int, ...]
# Per premise, each position's conclusion position; and the positions made.
Table = tuple[tuple[tuple[int | None, ...], ...], tuple[int, ...]]


@dataclass(frozen=True)
class ProofRule:
    """What a sequent rule is, but for its layout and side conditions.

    ``premises`` names, per premise, the data fields that hold a position
    in it, so it gives the premise count; ``at`` names the field of the
    conclusion position where the rule inserts its formula.  ``own``: every
    conclusion position is the rule's own, so it is never commuted and is a
    tensor-tree leaf.  ``weighs``: its created position has a weight
    variable.  ``kind``: the special cut it forms on the left of a cut,
    ``restricted`` to a passive right context, or needing a ``tree`` right
    premise.  ``key`` reads the ``shape``, every position field."""

    premises: tuple[tuple[str, ...], ...]
    at: str | None = None
    own: bool = False
    weighs: bool = False
    kind: str | None = None
    restricted: bool = False
    tree: bool = False
    shape: tuple[str, ...] = field(init=False)
    key: Callable[[Mapping], object] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = sum(self.premises, ()) + ((self.at,) if self.at else ())
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "key", itemgetter(*shape) if shape else lambda d: ())


_CUT, _PAIR, _DOOR = (("left_idx",), ("right_idx",)), (("left", "right"),), (("idx",),)
RULES = {
    "ax": ProofRule((), own=True, kind="axiom"),
    "cut": ProofRule(_CUT),
    "par": ProofRule(_PAIR, weighs=True, kind="multiplicative"),
    "tensor": ProofRule(_CUT),
    "bang": ProofRule(_DOOR, own=True, kind="digging", restricted=True, tree=True),
    "qd": ProofRule(_DOOR, weighs=True, kind="dereliction", restricted=True),
    "qw": ProofRule(((),), "idx", weighs=True, kind="weakening"),
    "qc": ProofRule(_PAIR, weighs=True, kind="contraction", restricted=True, tree=True),
    "bot": ProofRule(((),), "idx", weighs=True, kind="units"),
    "one": ProofRule((), own=True),
}


class ProofError(Exception):
    pass


class Proof(Tree):
    # Besides the fields, three stored facts, None until first computed and
    # left behind by `replace`: `verdict`, the node's own errors, stored by
    # `check_proof` (`CLEAN` when no node of its subtree has one); `table`,
    # its shape's shared `_layout` table (a `_Plan`), stored by `_build` or
    # on first use; and `form`, its weight form, stored by `weight`.
    __slots__ = ("rule", "concl", "premises", "data", "verdict", "table", "form")
    __match_args__ = ("rule", "concl", "premises", "data")

    # By hand: ``premises`` defaults to none and ``data`` becomes a read-only copy.
    def __init__(
        self, rule: str, concl: Sequent, premises: tuple["Proof", ...] = (), data: Mapping | None = None
    ) -> None:
        # A read-only copy of `data` (and of its `sum_witness`), so that the
        # stored verdict cannot go stale.  A proxy is stored as it is: another
        # node's copy, or the one `_rebuild` wraps, its `sum_witness` too.
        if type(data) is not MappingProxyType:
            d = {} if data is None else dict(data)
            wit = d.get("sum_witness")
            if wit is not None and type(wit) is not MappingProxyType:
                d["sum_witness"] = MappingProxyType(dict(wit))
            data = MappingProxyType(d)
        _set_proof_rule(self, rule)
        _set_proof_concl(self, concl)
        _set_proof_premises(self, premises)
        _set_proof_data(self, data)
        _set_verdict(self, None)
        _set_table(self, None)
        _set_form(self, None)

    def premise(self, i: int = 0) -> "Proof":
        return self.premises[i]

    def at(self, path: Path) -> "Proof":
        node = self
        for i in path:
            node = node.premises[i]
        return node


_set_proof_rule, _set_proof_concl = Proof.rule.__set__, Proof.concl.__set__
_set_proof_premises, _set_proof_data = Proof.premises.__set__, Proof.data.__set__
_set_verdict, _set_table, _set_form = Proof.verdict.__set__, Proof.table.__set__, Proof.form.__set__


def _fill(
    p: Proof,
    get: Callable[[Proof], object],
    make: Callable[[Proof], object],
    put: Callable[[Proof, object], None],
) -> object:
    """``get(p)``, after storing ``make(node)`` by ``put`` on every node of
    ``p`` whose fact ``get`` finds unset, premises first.  A node whose fact
    is set is not entered: every node of its subproof has the fact already."""
    unset, stack = [], [p]
    while stack:
        node = stack.pop()
        if get(node) is None:
            unset.append(node)
            stack += node.premises
    # Pre-order, so reversed it puts premises first; a shared subproof met
    # twice is listed twice, and filled once.
    for node in reversed(unset):
        if get(node) is None:
            put(node, make(node))
    return get(p)


def positives(seq: Sequent) -> list[int]:
    return [i for i, a in enumerate(seq) if a.formula.positive]


# -- index layouts ------------------------------------------------------------------
#
# One table per rule says where each premise formula goes: `_layout` maps
# each premise position to its conclusion position (None = consumed by a
# cut) and lists the conclusion positions the rule fills in itself.  A
# `par` or `qc` merges its pair into the first one's position, `qd` and
# `bang` work in place, `qw` and `bot` insert at `idx`, and `cut` and
# `tensor` append the right premise's formulas to the left's.  A table
# depends only on the node's shape: its rule, the data fields that its
# `ProofRule.shape` names and its premises' lengths.  `_plan` keeps one table
# per shape, with the gather that `_build` assembles a conclusion by and
# the checker compares one through, so a node's table costs it one
# reference.


def _layout(rule: str, d: Mapping, lens: tuple[int, ...]) -> Table:
    match rule:
        case "ax":
            return (), (0, 1)
        case "one":
            return (), (0,)
        case "cut" | "tensor":
            li, ri = d["left_idx"], d["right_idx"]
            nl, nr = lens
            end = None if rule == "cut" else nl + nr - 2  # the tensor formula
            # a formula after a removed one moves down by one
            left = tuple([end if i == li else i - (i > li) for i in range(nl)])
            right = tuple([end if i == ri else nl - 1 + i - (i > ri) for i in range(nr)])
            return (left, right), () if end is None else (end,)
        case "par" | "qc":
            i, j = d["left"], d["right"]
            out = i - (i > j)
            return (tuple([out if k == j else k - (k > j) for k in range(lens[0])]),), (out,)
        case "bang" | "qd":
            return (tuple(range(lens[0])),), (d["idx"],)
        case "qw" | "bot":
            i = d["idx"]
            return (tuple([k + (k >= i) for k in range(lens[0])]),), (i,)
    raise ProofError(f"unknown rule {rule!r}")


class _Plan(tuple):
    """A shape's `Table`, shared by every node of the shape, with its
    ``gather``: the ``itemgetter`` that picks the conclusion, in order, out
    of the premises' conclusions followed by the formulas the rule makes.
    ``gather`` is None when the table does not fill each conclusion
    position exactly once.  A tuple subclass cannot add slots, so each
    plan has an instance dict for ``gather``."""


@lru_cache(maxsize=512)
def _plan(rule: str, key: object, lens: tuple[int, ...]) -> _Plan:
    """The plan of a shape: ``key`` holds the values of the rule's
    `ProofRule.shape` fields, a single one bare.  Kept per shape: with no memo,
    each node derives its own plan and the drain of the module docstring
    takes 47 ms.  Shapes are few (164 over 1 500 seed-7 `preservation` ops
    of the benchmark, 25 over as many `polystep` ops), so 512 keep them all."""
    fields = RULES[rule].shape
    plan = _Plan(_layout(rule, dict(zip(fields, key if len(fields) > 1 else (key,))), lens))
    lays, made = plan
    picks, base = [], 0  # (conclusion position, source position)
    for n, lay in zip(lens, lays):
        picks += [(t, base + i) for i, t in enumerate(lay) if t is not None and t not in made]
        base += n
    picks += [(t, base + m) for m, t in enumerate(made)]
    picks.sort()
    src = [s for _, s in picks]
    if len(lays) != len(lens) or [t for t, _ in picks] != list(range(len(picks))):
        plan.gather = None
    elif len(src) > 1:
        plan.gather = itemgetter(*src)
    else:  # of one index `itemgetter` gives the item, of a slice a tuple
        plan.gather = itemgetter(slice(src[0], src[0] + 1) if src else slice(0))
    return plan


def _table(p: Proof) -> _Plan:
    """The shared table of a node not built by `_build`, stored."""
    plan = _plan(p.rule, RULES[p.rule].key(p.data), tuple([len(q.concl) for q in p.premises]))
    _set_table(p, plan)
    return plan


def layout(p: Proof) -> tuple[tuple[int | None, ...], ...]:
    return (p.table or _table(p))[0]


def created(p: Proof) -> tuple[int, ...]:
    return (p.table or _table(p))[1]


def _build(rule: str, premises: tuple[Proof, ...], data: Mapping, *made: LF) -> Proof:
    """The ``rule`` node over one or two ``premises``: the plan of its shape
    gathers the premise formulas its table passes on, and ``made`` at the
    positions the rule fills in, and the node keeps the plan as its table.
    A table that leaves a conclusion position empty is an error."""
    if len(premises) == 1:
        (q,) = premises
        lens, src = (len(q.concl),), q.concl + made
    else:
        left, right = premises
        lens, src = (len(left.concl), len(right.concl)), left.concl + right.concl + made
    plan = _plan(rule, RULES[rule].key(data), lens)
    if plan.gather is None:
        raise ProofError(f"the {rule} table over premises of lengths {lens} leaves a position empty")
    node = Proof(rule, plan.gather(src), premises, data)
    _set_table(node, plan)
    return node


# -- checking ------------------------------------------------------------------------


def _out_of_range(p: Proof, rule: ProofRule) -> str | None:
    """The first position in ``p``'s data that the sequent it indexes lacks
    (a premise's, or for ``rule.at`` the node's own conclusion), named with
    that sequent's length; read only once a check hit an ``IndexError``."""
    places = [(f"premise {which}", q.concl, keys) for which, (q, keys) in enumerate(zip(p.premises, rule.premises))]
    if rule.at:
        places.append(("the conclusion", p.concl, (rule.at,)))
    for where, seq, keys in places:
        for key in keys:
            i = p.data.get(key)
            if isinstance(i, int) and not 0 <= i < len(seq):
                return f"{key} {i} is out of range for {where} of length {len(seq)}"
    return None


def _node_errors(p: Proof) -> list[str]:
    errs: list[str] = []
    seq = p.concl
    if len(positives(seq)) > 1:
        errs.append("sequent has more than one positive formula")
    # A wrong premise count is reported before any rule reads a premise or
    # `_plan` derives a table for an impossible shape.
    rule = RULES.get(p.rule)
    if rule is None:
        return errs + [f"unknown rule {p.rule!r}"]
    if len(p.premises) != len(rule.premises):
        return errs + [f"{p.rule} expects {len(rule.premises)} premises, found {len(p.premises)}"]
    d = p.data
    try:
        match p.rule:
            case "ax":
                if len(seq) != 2:
                    return errs + ["axiom concludes exactly two formulas"]
                w = d["witness"]
                pos = positives(seq)
                if len(pos) != 1:
                    return errs + ["axiom needs one positive and one negative side"]
                neg = seq[1 - pos[0]]
                if w.formula.positive:
                    errs.append("axiom witness must be negative")
                if not lf_leq(neg, w):
                    errs.append("negative conclusion is not below the witness")
                if not lf_leq(seq[pos[0]], lf_neg(w)):
                    errs.append("positive conclusion is not below the dual witness")
            case "one":
                if len(seq) != 1 or not isinstance(seq[0].formula, F.One):
                    errs.append("the unit rule concludes exactly <1>")
            case "cut":
                li, ri = d["left_idx"], d["right_idx"]
                lseq, rseq = p.premise(0).concl, p.premise(1).concl
                cutf = lseq[li]
                if cutf.formula.positive:
                    errs.append("left cut formula must be negative")
                if not lf_alpha_eq(lf_neg(cutf), rseq[ri]):
                    errs.append("cut formulas are not dual at the same label")
                if positives(tuple(a for k, a in enumerate(rseq) if k != ri)):
                    errs.append("right cut context must be all negative")
            case "par":
                i, j = d["left"], d["right"]
                pseq = p.premise(0).concl
                out = seq[created(p)[0]]
                a, b = pseq[i], pseq[j]
                fo = out.formula
                if not isinstance(fo, F.Par):
                    return errs + ["par must introduce a par formula"]
                if not F.alpha_eq(fo.left, a.formula, (out.binder, a.binder)):
                    errs.append("par left component mismatch")
                if not F.alpha_eq(fo.right, b.formula, (out.binder, b.binder)):
                    errs.append("par right component mismatch")
                if not (poly_leq(a.label, out.label) and poly_leq(b.label, out.label)):
                    errs.append("par label must dominate both premise labels")
            case "tensor":
                li, ri = d["left_idx"], d["right_idx"]
                a = p.premise(0).concl[li]
                b = p.premise(1).concl[ri]
                out = seq[-1]
                fo = out.formula
                if not (a.formula.positive and b.formula.positive):
                    errs.append("tensor premises must distinguish positive formulas")
                if not isinstance(fo, F.Tensor):
                    return errs + ["tensor must introduce a tensor formula"]
                if not (
                    F.alpha_eq(fo.left, a.formula, (out.binder, a.binder))
                    and F.alpha_eq(fo.right, b.formula, (out.binder, b.binder))
                ):
                    errs.append("tensor component mismatch")
                if not (poly_leq(out.label, a.label) and poly_leq(out.label, b.label)):
                    errs.append("tensor label must be below both premise labels")
            case "bang":
                i = d["idx"]
                pseq = p.premise(0).concl
                if len(seq) != len(pseq):
                    return errs + ["box conclusion length does not fit the rule"]
                body = pseq[i]
                out = seq[i]
                if positives(pseq):
                    errs.append("box premise must be all negative")
                fo = out.formula
                if not isinstance(fo, F.Bang):
                    return errs + ["bang must introduce a bang formula"]
                if not F.alpha_eq(fo, F.Bang.intern(body.binder, body.label, body.formula)):
                    errs.append("bang body mismatch")
                wit = d.get("sum_witness", {})
                for k, ctx in enumerate(pseq):
                    if k == i:
                        continue
                    summed = _box_sum(out, ctx, wit.get(k))
                    if not lf_leq(seq[k], summed):
                        errs.append(f"box context {k} exceeds its replicated budget")
            case "qd":
                i = d["idx"]
                why, y = F.WhyNot.intern(d["x"], d["p"], d["P"]), d["y"]
                if not lf_alpha_eq(p.premise(0).concl[i], F.lf_instance(why, y)):
                    errs.append("dereliction premise has the wrong instance shape")
                if not lf_leq(seq[i], lf(why, y, ONE)):
                    errs.append("dereliction conclusion exceeds the one-use bound")
            case "qw":
                if seq[d["idx"]].formula.positive:
                    errs.append("weakening must introduce a negative formula")
            case "qc":
                i, j = d["left"], d["right"]
                pseq = p.premise(0).concl
                out = seq[created(p)[0]]
                if not lf_leq(out, lf_sum(pseq[i], pseq[j])):
                    errs.append("contraction target is not below the sum")
            case "bot":
                if not isinstance(seq[d["idx"]].formula, F.Bottom):
                    errs.append("bot must introduce a bottom formula")
    except (KeyError, IndexError, ShapeMismatch) as exc:
        why = isinstance(exc, IndexError) and _out_of_range(p, rule)
        return errs + [f"malformed node: {why or f'{type(exc).__name__}: {exc}'}"]

    # unless the rule makes every position, the conclusion must agree with
    # the premises through the layout: first as a whole by the plan's
    # gather, since ``==`` (identity first) implies α-equality; only then
    # position by position, which words the errors
    if rule.own:
        return errs
    plan = p.table or _table(p)
    lay, at = plan
    own = tuple([seq[k] for k in at if k < len(seq)])
    if plan.gather is not None and len(own) == len(at):
        if plan.gather(sum([q.concl for q in p.premises], ()) + own) == seq:
            return errs
    made = set(at)
    seen: dict[int, LF] = {}
    for which, prem in enumerate(p.premises):
        for i, a in enumerate(prem.concl):
            tgt = lay[which][i]
            if tgt is None or tgt in made:
                continue
            seen[tgt] = a
    for tgt, a in seen.items():
        if tgt >= len(seq) or not lf_alpha_eq(seq[tgt], a):
            errs.append(f"conclusion position {tgt} does not match the premise")
    if len(seq) != len(seen) + len(made):
        errs.append("conclusion length does not fit the rule")
    return errs


def _box_sum(principal: LF, entry: LF, witness=None) -> LF:
    var = principal.binder if principal.binder != VACUOUS else fresh_var("y")
    return lf_bounded_sum(var, principal.label, entry, witness)


class _Clean(tuple):
    __slots__ = ()


# The verdict of a node whose subproof has no error: ``== ()``, told apart by identity.
CLEAN = _Clean()


def _verdict(p: Proof) -> tuple[str, ...]:
    """``_node_errors(p)``, or `CLEAN` if that is empty and every premise is clean."""
    errs = tuple(_node_errors(p))
    if errs:
        return errs
    for q in p.premises:
        if q.verdict is not CLEAN:
            return errs
    return CLEAN


_get_verdict = attrgetter("verdict")


def check_proof(p: Proof) -> Report:
    """The errors of ``p`` in pre-order.  The root is decided by storing a
    verdict on each node that has none, premises first; only when it is not
    `CLEAN` does the pre-order walk read the stored verdicts for the report."""
    if _fill(p, _get_verdict, _verdict, _set_verdict) is CLEAN:
        return Report([])
    return Report.walk(p, _get_verdict)


# -- weights -------------------------------------------------------------------------


# A weight form ``(c0, cs)``: the weight of a subproof with no box above it
# is ``c0 + Σ_k f_k · cs[k]`` when its conclusion position ``k`` has fate
# ``f_k``.  A coefficient is an int until a box with a symbolic label scales
# it, then a `Poly`; a form of ints is a tuple of ints, which the garbage
# collector stops tracking, as it does the tables.
Form = tuple[int | Poly, tuple[int | Poly, ...]]
_AXIOM_FORMS = ((0, (0, 1)), (0, (1, 0)))


def _form(node: Proof) -> Form:
    """``node``'s weight form, from its premises' stored ones."""
    rule = node.rule
    if rule == "ax":  # the negative side's variable, by the first positive side
        return _AXIOM_FORMS[positives(node.concl)[0]]
    if rule == "bang":  # the premise scaled by the label, and one per door
        c0, cs = node.premises[0].form
        i = node.data["idx"]
        label = node.concl[i].label
        if not label.free_vars():
            label = label.constant_part()
        scaled = [label * c if c else 0 for c in cs]
        doors = [c if k == i else c + 1 for k, c in enumerate(scaled)]
        return (label * c0 if c0 else 0), tuple(doors)
    lays, made = node.table or _table(node)
    c0 = 0
    cs = [0] * len(node.concl)
    for q, lay in zip(node.premises, lays):
        q0, qcs = q.form
        if q0:
            c0 += q0
        for t, c in zip(lay, qcs):
            if c:
                if t is None:  # a cut formula: fate 1
                    c0 += c
                else:
                    cs[t] += c
    if RULES[rule].weighs:
        cs[made[0]] += 1
    return c0, tuple(cs)


_get_form = attrgetter("form")


def weight(p: Proof) -> Poly:
    """Σ over the weight variables of their fate × the labels of the boxes above.

    The pre-weight of Girard, Scedrov and Scott gives a variable to each
    axiom (on its negative side), each unary rule (on the formula it
    creates) and each door of a box context, and multiplies the pre-weight
    of a box premise by the box's label. A cut sets the variables of its
    two cut formulas to 1; the weight sets the ones left at the root to 0.
    So each variable's value is its fate: 1 if its formula occurrence is
    eventually cut, 0 if it reaches the root. Substitution commutes with +
    and ×, so the pre-weight of a subproof, with its own cuts' variables
    set to 1, is affine in the fates of its conclusion positions: that is
    its form (`Form`), which depends on the subproof alone.  Each node's
    form is computed from its premises' and stored on it, and a node whose
    form is stored is not entered, so weighing the result of a cut computes
    forms only for the nodes the cut built.  Every root fate is 0, so the
    weight is the root's ``c0``.
    """
    c0 = _fill(p, _get_form, _form, _set_form)[0]
    return const(c0) if type(c0) is int else c0


# -- smart constructors ----------------------------------------------------------------


def mk_ax(concl: Sequent, witness: LF) -> Proof:
    return Proof("ax", concl, (), {"witness": witness})


def mk_one(unit: LF) -> Proof:
    return Proof("one", (unit,))


def mk_bot(prem: Proof, idx: int, out: LF) -> Proof:
    return _build("bot", (prem,), {"idx": idx}, out)


def mk_qw(prem: Proof, idx: int, out: LF) -> Proof:
    return _build("qw", (prem,), {"idx": idx}, out)


def mk_par(prem: Proof, i: int, j: int, out: LF) -> Proof:
    return _build("par", (prem,), {"left": i, "right": j}, out)


def mk_qc(prem: Proof, i: int, j: int, out: LF) -> Proof:
    return _build("qc", (prem,), {"left": i, "right": j}, out)


def mk_qd(prem: Proof, idx: int, P: F.Formula, x: str, p: Poly, y: str, out: LF) -> Proof:
    return _build("qd", (prem,), {"idx": idx, "P": P, "x": x, "p": p, "y": y}, out)


def mk_bang(prem: Proof, idx: int, out: LF, ctx: dict[int, LF], witnesses=None) -> Proof:
    seq = []
    for k, a in enumerate(prem.concl):
        if k == idx:
            seq.append(out)
        elif k in ctx:
            seq.append(ctx[k])
        else:
            seq.append(_box_sum(out, a, (witnesses or {}).get(k)))
    data = {"idx": idx}
    if witnesses:
        data["sum_witness"] = witnesses
    return Proof("bang", tuple(seq), (prem,), data)


def mk_tensor(left: Proof, right: Proof, li: int, ri: int, out: LF) -> Proof:
    return _build("tensor", (left, right), {"left_idx": li, "right_idx": ri}, out)


def mk_cut(left: Proof, right: Proof, li: int, ri: int) -> Proof:
    return _build("cut", (left, right), {"left_idx": li, "right_idx": ri})


# -- mapping multiplicative derivations into proofs --------------------------------------


def map_derivation(d) -> Proof:
    """The image proof of a multiplicative typing derivation."""
    proof, _ = _map_deriv(d)
    return proof


def _through(node: Proof, which: int, pos: dict) -> dict:
    lay = layout(node)[which]
    return {key: lay[i] for key, i in pos.items() if lay[i] is not None}


@stack_safe
def _map_deriv(d) -> tuple[Proof, dict]:
    j = d.concl
    match d.rule:
        case "var_m":
            x, entry = j.lam[0]
            w = entry.formula  # entry = <?{z<r} P>[y<p]; the axiom is on its instance at 0
            pos_inst = F.lf_instance(w, entry.binder)
            ax = mk_ax((pos_inst, j.type), lf_neg(pos_inst))
            out = mk_qd(ax, 0, w.body, w.var, w.bound, entry.binder, entry)
            return out, {("lam", x): 0, ("type",): 1}
        case "abs":
            prem, pos = yield (d.premise(),)
            x = introduced(d)
            i, t = pos[("lam", x)], pos[("type",)]
            node = mk_par(prem, i, t, j.type)
            newpos = _through(node, 0, {k: v for k, v in pos.items() if k != ("lam", x)})
            newpos[("type",)] = layout(node)[0][i]
            return node, newpos
        case "app_m":
            fn, arg = d.premises
            rt, post = yield (fn,)
            ru, posu = yield (arg,)
            n_f, xh, ph, m_f = arrow_parts(fn.concl.type.formula)
            y, q = fn.concl.type.binder, fn.concl.type.label
            h = d.ann.get("h", q)
            k = j.type.label
            ctx: dict[int, LF] = {}
            for side in SIDES:
                for v, a in getattr(j, side):
                    if (side, v) in posu:
                        ctx[posu[(side, v)]] = a
            box_out = lf(F.Bang.intern(xh, ph, n_f), y, h)
            box = mk_bang(ru, posu[("type",)], box_out, ctx)
            m_lf = lf(F.with_binder(m_f, y, j.type.binder), j.type.binder, k)
            ax = mk_ax((m_lf, lf_neg(m_lf)), m_lf)
            tens = mk_tensor(
                box,
                ax,
                posu[("type",)],
                1,
                lf(F.Tensor.intern(box_out.formula, negate(m_f)), y, q),
            )
            cut = mk_cut(rt, tens, post[("type",)], len(tens.concl) - 1)
            newpos = _through(cut, 0, {k2: v for k2, v in post.items() if k2 != ("type",)})
            tens_pos = _through(tens, 0, {k2: v for k2, v in posu.items() if k2 != ("type",)})
            tens_pos[("type",)] = len(tens.concl) - 2  # the Ax result formula
            for k2, v in _through(cut, 1, tens_pos).items():
                newpos[k2] = v
            return cut, newpos
        case "mu_name_m":
            prem, pos = yield (d.premise(),)
            a = introduced(d)
            node = mk_bot(prem, len(prem.concl), j.type)
            newpos = _through(node, 0, pos)
            newpos[("mu", a)] = newpos.pop(("type",))
            newpos[("type",)] = len(node.concl) - 1
            return node, newpos
        case "mu_abs":
            prem, pos = yield (d.premise(),)
            b = introduced(d)
            botf = d.premise().concl.type
            unit = mk_one(lf(F.ONE_F, botf.binder, botf.label))
            node = mk_cut(prem, unit, pos[("type",)], 0)
            newpos = _through(node, 0, {k: v for k, v in pos.items() if k != ("type",)})
            newpos[("type",)] = newpos.pop(("mu", b))
            return node, newpos
        case "w_lam" | "w_mu":
            prem, pos = yield (d.premise(),)
            side, ev = T.RULES[d.rule].side, introduced(d)
            entry = ctx_get(getattr(j, side), ev)
            node = mk_qw(prem, len(prem.concl), entry)
            newpos = _through(node, 0, pos)
            newpos[(side, ev)] = len(node.concl) - 1
            return node, newpos
        case "c_lam" | "c_mu":
            prem, pos = yield (d.premise(),)
            side = T.RULES[d.rule].side
            x1, x2, z = d.ann["left"], d.ann["right"], d.ann["into"]
            i, jj = pos[(side, x1)], pos[(side, x2)]
            entry = ctx_get(getattr(j, side), z)
            node = mk_qc(prem, i, jj, entry)
            drop = {k for k in ((side, x1), (side, x2))}
            newpos = _through(node, 0, {k: v for k, v in pos.items() if k not in drop})
            newpos[(side, z)] = layout(node)[0][i]
            return node, newpos
    raise ProofError(f"cannot map rule {d.rule!r}")


# -- malleability -----------------------------------------------------------------------


def _set_concl(p: Proof, idx: int, value: LF) -> Proof:
    seq = list(p.concl)
    seq[idx] = value
    return replace(p, concl=tuple(seq))


@stack_safe
def m_subtype(p: Proof, idx: int, target: LF) -> Proof:
    """Replace a conclusion formula by a ⊑-smaller one, structure intact."""
    cur = p.concl[idx]
    if lf_alpha_eq(cur, target):
        return p
    if not lf_leq(target, cur):
        raise ProofError(f"{target} is not below {cur}")
    if p.rule == "bang" and idx != p.data["idx"]:
        # auxiliary doors only need target ⊑ concl ⊑ replicated premise
        return _set_concl(p, idx, target)
    if idx not in created(p):
        which, src = _origin(p, idx)
        prem = yield (p.premises[which], src, target)
        prems = tuple(prem if w == which else q for w, q in enumerate(p.premises))
        return replace(p, premises=prems, concl=_set_concl(p, idx, target).concl)
    match p.rule:
        case "ax" | "one" | "bot" | "qw" | "qc" | "qd":
            return _set_concl(p, idx, target)
        case "par":
            i, j = p.data["left"], p.data["right"]
            fo = target.formula
            prem = p.premise(0)
            a, b = prem.concl[i], prem.concl[j]
            na = lf(F.with_binder(fo.left, target.binder, a.binder), a.binder, a.label)
            nb = lf(F.with_binder(fo.right, target.binder, b.binder), b.binder, b.label)
            prem = yield (prem, i, na)
            prem = yield (prem, j, nb)
            return mk_par(prem, i, j, target)
        case "tensor":
            li, ri = p.data["left_idx"], p.data["right_idx"]
            fo = target.formula
            lp, rp = p.premises
            a, b = lp.concl[li], rp.concl[ri]
            lp = yield (lp, li, lf(fo.left, a.binder, a.label))
            rp = yield (rp, ri, lf(fo.right, b.binder, b.label))
            return mk_tensor(lp, rp, li, ri, target)
        case "bang":
            i = p.data["idx"]
            fo = target.formula
            prem = p.premise(0)
            body = prem.concl[i]
            prem = yield (prem, i, lf(fo.body, body.binder, fo.bound))
            ctx = {k: a for k, a in enumerate(p.concl) if k != i}
            return mk_bang(prem, i, target, ctx, p.data.get("sum_witness"))
    raise ProofError(f"cannot subtype a {p.rule} conclusion")


@stack_safe
def m_subst(p: Proof, var: str, value: Poly) -> Proof:
    """Substitute a resource variable for a polynomial throughout a proof."""
    if var == VACUOUS:
        return p
    concl = tuple(lf_subst(a, var, value) for a in p.concl)
    data = dict(p.data)
    if p.rule == "qd":
        data["p"] = data["p"].subst(var, value)
        data["P"] = F.subst_poly(data["P"], var, value)
    if p.rule == "ax":
        data["witness"] = lf_subst(data["witness"], var, value)
    premises = []
    for q in p.premises:
        premises.append((yield (q, var, value)))
    return Proof(p.rule, concl, tuple(premises), data)


def m_split(p: Proof, r: Poly, s: Poly) -> tuple[Proof, Proof]:
    """Split a tensor tree's positive budget into ``r`` and ``s``."""
    if _tensor_purge_path(p) is not None:
        raise ProofError("only tensor trees can be split")
    pos = positives(p.concl)[0]
    target = p.concl[pos]
    if not poly_leq(r + s, target.label):
        raise ProofError("split amounts exceed the available label")
    return _split(p, pos, r, s)


def _relabel(a: LF, label: Poly) -> LF:
    return LF.intern(a.formula, a.binder, label)


@stack_safe
def _split(p: Proof, pos: int, r: Poly, s: Poly) -> tuple[Proof, Proof]:
    y = fresh_var("y")
    match p.rule:
        case "ax":
            w = p.data["witness"]
            rho = mk_ax(
                tuple(_relabel(a, r) for a in p.concl), _relabel(w, r)
            )
            sigma_concl = tuple(
                _relabel(lf_shift(_relabel(a, r), y), s) for a in p.concl
            )
            sigma = mk_ax(sigma_concl, _relabel(lf_shift(_relabel(w, r), y), s))
            return rho, sigma
        case "one":
            return (
                mk_one(_relabel(p.concl[0], r)),
                mk_one(_relabel(lf_shift(_relabel(p.concl[0], r), y), s)),
            )
        case "tensor":
            li, ri = p.data["left_idx"], p.data["right_idx"]
            l_r, l_s = yield (p.premise(0), li, r, s)
            r_r, r_s = yield (p.premise(1), ri, r, s)
            out = p.concl[pos]
            rho = mk_tensor(l_r, r_r, li, ri, _relabel(out, r))
            sig_out = _relabel(lf_shift(_relabel(out, r), y), s)
            sigma = mk_tensor(l_s, r_s, li, ri, sig_out)
            return rho, sigma
        case "bang":
            i = p.data["idx"]
            out = p.concl[i]
            prem = p.premise(0)
            rho = mk_bang(prem, i, _relabel(out, r), {}, p.data.get("sum_witness"))
            if out.binder != VACUOUS:
                prem_s = m_subst(prem, out.binder, pvar(y) + r)
            else:
                prem_s = prem
            sig_out = _relabel(lf_shift(_relabel(out, r), y), s)
            sigma = mk_bang(prem_s, i, sig_out, {}, p.data.get("sum_witness"))
            return rho, sigma
    raise ProofError(f"{p.rule} cannot appear in a tensor tree")


def m_parsplit(p: Proof, r: Poly, s: Poly) -> Proof:
    """Parametric splitting: a copy at label ``s`` whose context sums cover."""
    if _tensor_purge_path(p) is not None:
        raise ProofError("only tensor trees can be split")
    pos = positives(p.concl)[0]
    need = bounded_sum(fresh_var("b"), r, s)
    if not poly_leq(need, p.concl[pos].label):
        raise ProofError("parametric split exceeds the available label")
    return _parsplit(p, pos, s)


@stack_safe
def _parsplit(p: Proof, pos: int, s: Poly) -> Proof:
    match p.rule:
        case "ax":
            return mk_ax(
                tuple(_relabel(a, s) for a in p.concl), _relabel(p.data["witness"], s)
            )
        case "one":
            return mk_one(_relabel(p.concl[0], s))
        case "tensor":
            li, ri = p.data["left_idx"], p.data["right_idx"]
            lp = yield (p.premise(0), li, s)
            rp = yield (p.premise(1), ri, s)
            return mk_tensor(lp, rp, li, ri, _relabel(p.concl[pos], s))
        case "bang":
            i = p.data["idx"]
            return mk_bang(
                p.premise(0), i, _relabel(p.concl[i], s), {}, p.data.get("sum_witness")
            )
    raise ProofError(f"{p.rule} cannot appear in a tensor tree")


# -- occurrence tracing and special cuts ---------------------------------------------


def _ancestors(p: Proof, path: Path) -> list[Proof]:
    """The nodes at ``path[:k]`` for ``k < len(path)``, root first."""
    out = []
    for i in path:
        out.append(p)
        p = p.premises[i]
    return out


def classify_occurrence(p: Proof, path: Path, *idxs: int) -> str:
    """Trace formula occurrences downward, together in one walk: ``active``
    when one of them ends at a cut, else ``passive``."""
    for parent, which in zip(reversed(_ancestors(p, path)), reversed(path)):
        lay = layout(parent)[which]
        idxs = [lay[k] for k in idxs]
        if None in idxs:
            return "active"
    return "passive"


Trans = dict[int, int] | tuple | None  # position translation (None: identity)


def _apply_trans(t: Trans, k: int) -> int:
    return k if t is None else t[k]


def _origin(node: Proof, pos: int) -> tuple[int, int] | None:
    """Premise origin of a conclusion position (None when rule-created)."""
    if pos in created(node):
        return None
    for w, lay in enumerate(layout(node)):
        if pos in lay:
            return (w, lay.index(pos))
    raise ProofError(f"position {pos} has no origin")


def _rebuild(
    parent: Proof, which: int, new_child: Proof, t: Trans, last: int | None = None
) -> Proof:
    """Rebuild ``parent`` over premise ``which`` replaced by ``new_child``.

    ``t`` moves the premise's positions to the new one's. A rule with an
    ``at`` field puts its formula at ``last`` if given, else where it was;
    a box, whose conclusion is its own, keeps its doors, permuted by ``t``.
    The new data is copied once, here, and wrapped read-only, so the node
    stores it as it is.
    """
    rule = RULES[parent.rule]
    d = dict(parent.data)
    for key in rule.premises[which]:
        d[key] = _apply_trans(t, d[key])
    prems = list(parent.premises)
    prems[which] = new_child
    if rule.own:
        if d.get("sum_witness"):
            wit = {_apply_trans(t, k): v for k, v in d["sum_witness"].items()}
            d["sum_witness"] = MappingProxyType(wit)
        seq = [None] * len(parent.concl)
        for k, a in enumerate(parent.concl):
            seq[_apply_trans(t, k)] = a
        return Proof(parent.rule, tuple(seq), (new_child,), MappingProxyType(d))
    if last is not None and rule.at:
        d[rule.at] = last
    made = [parent.concl[k] for k in created(parent)]
    return _build(parent.rule, tuple(prems), MappingProxyType(d), *made)


def _refit(parent: Proof, which: int, new_child: Proof, t: Trans) -> tuple[Proof, Trans]:
    """Rebuild a parent around a reordered premise; returns the translation."""
    node = _rebuild(parent, which, new_child, t)
    # old conclusion position -> new: what the rule made stays made, and a
    # premise formula goes where the new layout puts its moved position
    tr = dict(zip(created(parent), created(node)))
    for w, (old, new) in enumerate(zip(layout(parent), layout(node))):
        for k, o in enumerate(old):
            if o is not None and o not in tr:
                tr[o] = new[_apply_trans(t, k) if w == which else k]
    return node, tr


def _splice(p: Proof, path: Path, node: Proof, t: Trans) -> Proof:
    """Replace the subproof at ``path`` and refit every ancestor."""
    for parent, which in zip(reversed(_ancestors(p, path)), reversed(path)):
        node, t = _refit(parent, which, node, t)
    return node


def _hoist(parent: Proof, which: int) -> tuple[Proof, Trans, Path]:
    """Commute the last rule of one premise below a cut or tensor node.

    The parent moves onto the child's premise ``w`` that holds its active
    formula, and the child is rebuilt over it; a ``qw`` or ``bot`` puts its
    formula last. Returns the rewritten subtree, the conclusion
    translation, and the new relative path ``(w,)`` of the parent.
    """
    child = parent.premises[which]
    if RULES[child.rule].own:
        raise ProofError(f"cannot commute a {child.rule} node")
    (key,) = RULES[parent.rule].premises[which]
    pa = parent.data[key]
    w, src = _origin(child, pa)
    inner = _rebuild(parent, which, child.premises[w], {pa: src})
    node = _rebuild(child, w, inner, layout(inner)[which], len(inner.concl))
    # old conclusion position -> new, for each formula of the child's
    # premises and of the other premise (through `inner` if it moved into
    # it); what the child made stays made
    old, into, down = layout(parent)[which], layout(inner), layout(node)
    tr = {old[c]: n for c, n in zip(created(child), created(node))}
    for v, lay in enumerate(layout(child)):
        for k, c in enumerate(lay):
            if c is not None and old[c] is not None:
                tr[old[c]] = down[v][into[which][k]] if v == w else down[v][k]
    for k, o in enumerate(layout(parent)[1 - which]):
        if o is not None:
            tr[o] = down[w][into[1 - which][k]]
    return node, tr, (w,)


def _introduces(node: Proof, idx: int) -> bool:
    return idx in created(node) or RULES[node.rule].own


@stack_safe
def _tensor_purge_path(p: Proof) -> Path | None:
    """Path (through tensor premises) to a rule blocking tensor-tree shape.

    ``None`` when ``p`` is a tensor tree (tensors over ax, one and bang).
    """
    if RULES[p.rule].own:
        return None
    if p.rule == "tensor":
        for w, q in enumerate(p.premises):
            sub = yield (q,)
            if sub is not None:
                return (w,) + sub
        return None
    return ()


def _firing(cut: Proof) -> ProofRule:
    """The rule whose facts decide the special cut ``cut``: an axiom's on
    either side, else the left premise's."""
    left, right = cut.premises
    return RULES["ax" if right.rule == "ax" else left.rule]


def _expose(p: Proof, path: Path) -> tuple[Proof, Path]:
    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise ProofError("exposure did not terminate")
        node = p.at(path)
        assert node.rule == "cut"
        li, ri = node.data["left_idx"], node.data["right_idx"]
        left, right = node.premises
        if not _introduces(left, li):
            sub, tr, rel = _hoist(node, 0)
            p = _splice(p, path, sub, tr)
            path = path + rel
            continue
        if not _introduces(right, ri):
            sub, tr, rel = _hoist(node, 1)
            p = _splice(p, path, sub, tr)
            path = path + rel
            continue
        if _firing(node).tree:
            sub = _tensor_purge_path(right)
            if sub is not None:
                if sub == ():
                    raise ProofError("positive side cannot become a tensor tree")
                tpath = path + (1,) + sub[:-1]
                tnode = p.at(tpath)
                hoisted, tr, _ = _hoist(tnode, sub[-1])
                p = _splice(p, tpath, hoisted, tr)
                continue
        return p, path


# -- logical cut-elimination steps ----------------------------------------------------


def _fire_ax(node: Proof) -> tuple[Proof, Trans]:
    idx = node.data["left_idx"], node.data["right_idx"]
    a = 0 if node.premise(0).rule == "ax" else 1  # the axiom's side
    keep = node.premise(1 - a)
    reduct = m_subtype(keep, idx[1 - a], node.premise(a).concl[1 - idx[a]])
    # the other premise keeps its positions; the axiom's other formula takes the cut one's
    lay = layout(node)
    tr = {o: k for k, o in enumerate(lay[1 - a]) if o is not None}
    tr[lay[a][1 - idx[a]]] = idx[1 - a]
    return reduct, tr


def _fire_multiplicative(node: Proof) -> tuple[Proof, Trans]:
    li, ri = node.data["left_idx"], node.data["right_idx"]
    left, right = node.premises
    t = left.concl[li].label
    i, j = left.data["left"], left.data["right"]
    prem = left.premise(0)
    a, b = prem.concl[i], prem.concl[j]
    prem = m_subtype(m_subtype(prem, i, _relabel(a, t)), j, _relabel(b, t))
    ti, tj = right.data["left_idx"], right.data["right_idx"]
    r0 = m_subtype(right.premise(0), ti, _relabel(right.premise(0).concl[ti], t))
    r1 = m_subtype(right.premise(1), tj, _relabel(right.premise(1).concl[tj], t))
    cut1 = mk_cut(prem, r0, i, ti)
    cut2 = mk_cut(cut1, r1, layout(cut1)[0][j], tj)
    return cut2, None


def _fire_units(node: Proof) -> tuple[Proof, Trans]:
    return node.premise(0).premise(0), None


def _fire_weakening(node: Proof) -> tuple[Proof, Trans]:
    ri = node.data["right_idx"]
    left, right = node.premises
    out = left.premise(0)
    for k, a in enumerate(right.concl):
        if k != ri:
            out = mk_qw(out, len(out.concl), a)
    return out, None


def _fire_dereliction(node: Proof) -> tuple[Proof, Trans]:
    li, ri = node.data["left_idx"], node.data["right_idx"]
    left, right = node.premises  # left: qd, right: bang
    bi = right.data["idx"]
    box_out = right.concl[ri]
    yb = box_out.binder
    lam = right.premise(0)
    lam0 = m_subst(lam, yb, ZERO) if yb != VACUOUS else lam
    sigma = lam0
    for k in range(len(lam0.concl)):
        if k != bi:
            sigma = m_subtype(sigma, k, right.concl[k])
    inner = sigma.concl[bi]
    pd = left.premise(0)  # a dereliction keeps its positions
    lam2 = m_subtype(pd, li, lf_neg(inner))
    reduct = mk_cut(sigma, lam2, bi, li)
    # the premises swap sides, each keeping its positions and its cut one
    old, new = layout(node), layout(reduct)
    tr = dict(zip(old[0] + old[1], new[1] + new[0]))
    del tr[None]
    return reduct, tr


def _fire_contraction(node: Proof) -> tuple[Proof, Trans]:
    li, ri = node.data["left_idx"], node.data["right_idx"]
    left, right = node.premises  # left: qc, right: tensor tree
    i, j = left.data["left"], left.data["right"]
    prem = left.premise(0)
    n1, n2 = prem.concl[i], prem.concl[j]
    r2 = m_subtype(right, ri, lf_neg(lf_sum(n1, n2)))
    rho, sigma = m_split(r2, n1.label, n2.label)
    rho = m_subtype(rho, ri, lf_neg(n1))
    sigma = m_subtype(sigma, ri, lf_neg(n2))
    cut1 = mk_cut(prem, rho, i, ri)
    lay1 = layout(cut1)
    cut2 = mk_cut(cut1, sigma, lay1[0][j], ri)
    # where the two copies of each context formula sit, moved on by each contraction
    lay2 = layout(cut2)
    copies = [[None if t is None else lay2[0][t] for t in lay1[1]], lay2[1]]
    out = cut2
    for k, a in enumerate(right.concl):
        if k != ri:
            out = mk_qc(out, copies[0][k], copies[1][k], a)
            lay = layout(out)[0]
            copies = [[None if t is None else lay[t] for t in c] for c in copies]
    return out, None


def _fire_digging(node: Proof) -> tuple[Proof, Trans]:
    li, ri = node.data["left_idx"], node.data["right_idx"]
    left, right = node.premises  # left: bang with an auxiliary door at li
    bi = left.data["idx"]
    lam = left.premise(0)
    base = lam.concl[li]
    box_out = left.concl[bi]
    r2 = m_subtype(right, ri, lf_neg(base))
    sigma = m_parsplit(r2, box_out.label, base.label)
    newprem = mk_cut(lam, sigma, li, ri)
    # both contexts keep their doors, where the new cut puts them
    lay = layout(newprem)
    ctx = {lay[0][k]: a for k, a in enumerate(left.concl) if k not in (li, bi)}
    ctx.update((lay[1][k], a) for k, a in enumerate(right.concl) if k != ri)
    wit = left.data.get("sum_witness")
    if wit:
        wit = {lay[0][k]: v for k, v in wit.items() if k != li}
    return mk_bang(newprem, lay[0][bi], box_out, ctx, wit), None


# Each special-cut kind with its firing function.
_FIRE = {
    "axiom": _fire_ax, "multiplicative": _fire_multiplicative, "units": _fire_units,
    "weakening": _fire_weakening, "dereliction": _fire_dereliction,
    "contraction": _fire_contraction, "digging": _fire_digging,
}


def fire_logical(p: Proof, path: Path) -> Proof:
    """Fire an exposed logical cut in place."""
    node = p.at(path)
    assert node.rule == "cut"
    fire = _FIRE.get(_firing(node).kind)
    if fire is None:
        raise ProofError(f"cut is not logical: left rule {node.premise(0).rule}")
    return _splice(p, path, *fire(node))


# -- the special-cut strategy ----------------------------------------------------------


@dataclass
class SpecialStep:
    result: Proof
    exposed: Proof
    path: Path
    kind: str


def _cut_paths(p: Proof) -> Iterator[Path]:
    """Lazily yield the paths of the cuts outside every box, in pre-order."""
    stack: list[tuple[Proof, Path]] = [(p, ())]
    while stack:
        node, path = stack.pop()
        if node.rule == "bang":
            continue
        if node.rule == "cut":
            yield path
        for i in reversed(range(len(node.premises))):
            stack.append((node.premises[i], path + (i,)))


def _eligible(p: Proof, path: Path) -> bool:
    """Whether the right context of the cut at ``path`` is passive."""
    node = p.at(path)
    ri = node.data["right_idx"]
    ctx = [t for k, t in enumerate(layout(node)[1]) if k != ri]
    return classify_occurrence(p, path, *ctx) == "passive"


def step_special(p: Proof) -> SpecialStep | None:
    """One external special-cut step, or None when no cut may fire."""
    for path in _cut_paths(p):
        try:
            exposed, epath = _expose(p, path)
        except ProofError:
            continue
        rule = _firing(exposed.at(epath))
        if rule.restricted and not _eligible(exposed, epath):
            continue
        result = fire_logical(exposed, epath)
        return SpecialStep(result, exposed, epath, rule.kind)
    return None


def special_steps(p: Proof, fuel: int = 10_000) -> Iterator[SpecialStep]:
    """Lazily yield one :class:`SpecialStep` per special cut, at most ``fuel``."""
    for _ in range(fuel):
        hit = step_special(p)
        if hit is None:
            return
        p = hit.result
        yield hit


def normalize(p: Proof, fuel: int = 10_000) -> tuple[Proof, int, bool]:
    """Drain :func:`special_steps`; returns (proof, steps, exhausted)."""
    steps = 0
    for steps, hit in enumerate(special_steps(p, fuel), 1):
        p = hit.result
    return p, steps, steps == fuel and step_special(p) is not None
