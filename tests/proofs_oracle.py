"""Reference sequent-proof operations for the tests, and the plain recursive
definitions that ``bllp.proofs`` replaced.

``preweight`` builds the symbolic pre-weight of Girard, Scedrov and Scott:
every axiom, unary rule and box-context position gets a fresh weight
variable, a cut sets the variables of its two cut formulas to 1, and
``weight`` sets every variable left in a conclusion set to 0.  It recurses
on the proof and copies the polynomial at every node, so it is simple and
slow, and deep proofs exhaust the recursion limit.  ``fate_weight`` fixes
each variable's value (its fate) top-down in one walk from the root and
counts under each multiplier by its value: it is the former
``bllp.proofs.weight`` before the library stored an affine form in the
fates on each node, computed bottom-up.  The tests check that all three
give the same polynomial.  ``cut_paths`` is the recursive
pre-order listing of the cuts outside every box.

``erase`` is the polynomial-free skeleton of a proof, flat in pre-order,
and ``proof_sim`` compares two skeletons: the tests check that each
rewrite of a proof keeps its shape.  ``expose_logical`` makes a designated
cut logical by commutations alone.  The library only exposes a cut on its
way to firing it, so these three live with the tests.

The rest are the plain recursive rewriters that ``bllp.proofs`` runs on
``stack_safe`` or as loops: each recurses through its own name, and
``_splice`` also returns the translation of the root's conclusion, which no
caller reads.  ``_refit`` and ``_hoist`` are the former per-rule
commutations: ``_refit`` has one branch per rule, and ``_hoist`` one case
per commuted rule over ``_rebuild_parent`` and ``_inv``, where
``bllp.proofs`` rebuilds every rule through one table.  The
tests check that both give the same proofs from the same state of the
global name supplies.  ``_split`` shifts a copy by the former helper
``_shift_lf(a, y, r)``, where ``bllp.proofs`` calls ``formula.lf_shift``.

The oracle also keeps the former index layouts: ``layout`` and ``created``
with one case per rule, the builders ``mk_bot``, ``mk_qw``, ``mk_par``,
``mk_qc``, ``mk_qd``, ``mk_tensor`` and ``mk_cut``, each slicing its
conclusion by hand, and ``_through``, ``_origin`` and ``_derive_trans`` over
them; ``_derive_trans`` is also the former translation of ``_hoist``, which
the library composes from the layouts instead.  Every definition here reads
those, never the library's one table, so a change to that table cannot move
the reference with it.  The one exception is ``assemble``, the former
assembly of ``bllp.proofs._build``: it places the premise formulas that the
library's `_layout` passes on one at a time, where ``_build`` now picks its
conclusion by the gather of a plan shared per shape.  The tests check that
both give the same objects from the same table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from bllp import formula as F
from bllp import typecheck as T
from bllp.formula import (
    LF,
    VACUOUS,
    arrow_parts,
    lf,
    lf_alpha_eq,
    lf_leq,
    lf_neg,
    lf_subst,
    negate,
)
from bllp.proofs import (
    Path,
    Proof,
    ProofError,
    Sequent,
    Trans,
    _apply_trans,
    _expose,
    _layout,
    _relabel,
    _set_concl,
    mk_ax,
    mk_bang,
    mk_one,
    positives,
)
from bllp.record import replace
from bllp.respoly import ONE, ZERO, Mono, Poly, _poly, fresh_var, pvar, specialize

# -- the former index layouts and builders --------------------------------------------
#
# One `match` per rule in `layout` and in `created`, and each builder slices
# its conclusion by hand; ``bllp.proofs`` reads all of them off one table.


def _del_shift(idx: int, removed: int) -> int:
    return idx - (1 if idx > removed else 0)


def layout(p: Proof) -> list[list[int | None]]:
    d = p.data
    match p.rule:
        case "ax" | "one":
            return []
        case "cut":
            li, ri = d["left_idx"], d["right_idx"]
            nl = len(p.premise(0).concl)
            left = [None if i == li else _del_shift(i, li) for i in range(nl)]
            off = nl - 1
            right = [
                None if i == ri else off + _del_shift(i, ri)
                for i in range(len(p.premise(1).concl))
            ]
            return [left, right]
        case "par" | "qc":
            i, j = d["left"], d["right"]
            out = []
            for k in range(len(p.premise(0).concl)):
                if k == j:
                    out.append(_del_shift(i, j))
                elif k == i:
                    out.append(_del_shift(i, j))
                else:
                    out.append(_del_shift(k, j))
            return [out]
        case "tensor":
            li, ri = d["left_idx"], d["right_idx"]
            nl = len(p.premise(0).concl)
            nr = len(p.premise(1).concl)
            last = nl + nr - 2
            left = [last if i == li else _del_shift(i, li) for i in range(nl)]
            right = [
                last if i == ri else nl - 1 + _del_shift(i, ri) for i in range(nr)
            ]
            return [left, right]
        case "bang" | "qd":
            return [list(range(len(p.premise(0).concl)))]
        case "qw" | "bot":
            i = d["idx"]
            return [
                [k + (1 if k >= i else 0) for k in range(len(p.premise(0).concl))]
            ]
    raise ProofError(f"unknown rule {p.rule!r}")


def created(p: Proof) -> list[int]:
    d = p.data
    match p.rule:
        case "ax":
            return [0, 1]
        case "one":
            return [0]
        case "cut":
            return []
        case "par" | "qc":
            return [_del_shift(d["left"], d["right"])]
        case "tensor":
            return [len(p.concl) - 1]
        case "bang" | "qd":
            return [d["idx"]]
        case "qw" | "bot":
            return [d["idx"]]
    raise ProofError(f"unknown rule {p.rule!r}")


def mk_bot(prem: Proof, idx: int, out: LF) -> Proof:
    seq = prem.concl[:idx] + (out,) + prem.concl[idx:]
    return Proof("bot", seq, (prem,), {"idx": idx})


def mk_qw(prem: Proof, idx: int, out: LF) -> Proof:
    seq = prem.concl[:idx] + (out,) + prem.concl[idx:]
    return Proof("qw", seq, (prem,), {"idx": idx})


def _merge_seq(prem: Sequent, i: int, j: int, out: LF) -> Sequent:
    seq = list(prem)
    seq[i] = out
    del seq[j]
    return tuple(seq)


def mk_par(prem: Proof, i: int, j: int, out: LF) -> Proof:
    return Proof("par", _merge_seq(prem.concl, i, j, out), (prem,), {"left": i, "right": j})


def mk_qc(prem: Proof, i: int, j: int, out: LF) -> Proof:
    return Proof("qc", _merge_seq(prem.concl, i, j, out), (prem,), {"left": i, "right": j})


def mk_qd(prem: Proof, idx: int, P: F.Formula, x: str, p: Poly, y: str, out: LF) -> Proof:
    seq = prem.concl[:idx] + (out,) + prem.concl[idx + 1 :]
    return Proof("qd", seq, (prem,), {"idx": idx, "P": P, "x": x, "p": p, "y": y})


def mk_tensor(left: Proof, right: Proof, li: int, ri: int, out: LF) -> Proof:
    seq = (
        left.concl[:li]
        + left.concl[li + 1 :]
        + right.concl[:ri]
        + right.concl[ri + 1 :]
        + (out,)
    )
    return Proof("tensor", seq, (left, right), {"left_idx": li, "right_idx": ri})


def mk_cut(left: Proof, right: Proof, li: int, ri: int) -> Proof:
    seq = (
        left.concl[:li]
        + left.concl[li + 1 :]
        + right.concl[:ri]
        + right.concl[ri + 1 :]
    )
    return Proof("cut", seq, (left, right), {"left_idx": li, "right_idx": ri})


def assemble(rule: str, premises: tuple[Proof, ...], data, *made: LF) -> Proof:
    """The former ``bllp.proofs._build``: the premise formulas `_layout`
    passes on, in premise order, with ``made`` inserted at the positions
    the rule fills in."""
    lays, at = _layout(rule, data, tuple(len(q.concl) for q in premises))
    seq = [
        a
        for q, lay in zip(premises, lays)
        for a, t in zip(q.concl, lay)
        if t is not None and t not in at
    ]
    for k, a in zip(at, made):
        seq.insert(k, a)
    return Proof(rule, tuple(seq), premises, data)


def _through(node: Proof, which: int, pos: dict) -> dict:
    lay = layout(node)[which]
    return {key: lay[i] for key, i in pos.items() if lay[i] is not None}


def _origin(node: Proof, pos: int) -> tuple[int, int] | None:
    """Premise origin of a conclusion position (None when rule-created)."""
    if pos in created(node):
        return None
    for w, lay in enumerate(layout(node)):
        for k, tgt in enumerate(lay):
            if tgt == pos:
                return (w, k)
    raise ProofError(f"position {pos} has no origin")


def _derive_trans(old: Proof, new: Proof, leaves: list[Proof]) -> Trans:
    stop = {id(q): i for i, q in enumerate(leaves)}
    new_keys = {_source_key(new, n, stop): n for n in range(len(new.concl))}
    return {o: new_keys[_source_key(old, o, stop)] for o in range(len(old.concl))}


# -- weights -------------------------------------------------------------------------

# The oracle's own name supply; the library's fresh names are untouched.
_names = itertools.count(1)


def weight_var() -> str:
    return f"@w{next(_names)}"


@dataclass(frozen=True)
class PreWeight:
    poly: Poly
    sets: tuple[frozenset[str], ...]


def _ones(poly: Poly, vars: frozenset[str]) -> Poly:
    return specialize(poly, dict.fromkeys(vars, 1))


def preweight(p: Proof) -> PreWeight:
    pws = [preweight(q) for q in p.premises]
    d = p.data
    match p.rule:
        case "ax":
            y = weight_var()
            pos = positives(p.concl)[0]
            sets = [frozenset(), frozenset()]
            sets[1 - pos] = frozenset({y})
            return PreWeight(pvar(y), tuple(sets))
        case "one":
            return PreWeight(ZERO, (frozenset(),))
        case "cut":
            li, ri = d["left_idx"], d["right_idx"]
            lpw, rpw = pws
            poly = _ones(lpw.poly, lpw.sets[li]) + _ones(rpw.poly, rpw.sets[ri])
            sets = [None] * len(p.concl)
            lay = layout(p)
            for which, pw in enumerate(pws):
                for i, s in enumerate(pw.sets):
                    tgt = lay[which][i]
                    if tgt is not None:
                        sets[tgt] = s
            return PreWeight(poly, tuple(sets))
        case "par" | "qc" | "qd" | "bot" | "qw":
            (pw,) = pws
            y = weight_var()
            lay = layout(p)[0]
            out = created(p)[0]
            sets = [frozenset() for _ in p.concl]
            for i, s in enumerate(pw.sets):
                sets[lay[i]] = sets[lay[i]] | s
            sets[out] = sets[out] | {y}
            return PreWeight(pw.poly + pvar(y), tuple(sets))
        case "tensor":
            lpw, rpw = pws
            sets = [frozenset() for _ in p.concl]
            lay = layout(p)
            for which, pw in enumerate(pws):
                for i, s in enumerate(pw.sets):
                    tgt = lay[which][i]
                    sets[tgt] = sets[tgt] | s
            return PreWeight(lpw.poly + rpw.poly, tuple(sets))
        case "bang":
            (pw,) = pws
            i = d["idx"]
            q = p.concl[i].label
            poly = q * pw.poly
            sets = []
            for k in range(len(p.concl)):
                if k == i:
                    sets.append(pw.sets[k])
                else:
                    y = weight_var()
                    poly = poly + pvar(y)
                    sets.append(pw.sets[k] | {y})
            return PreWeight(poly, tuple(sets))
    raise ProofError(f"unknown rule {p.rule!r}")


def weight(p: Proof) -> Poly:
    """The pre-weight polynomial with every conclusion-set variable zeroed."""
    pw = preweight(p)
    return specialize(pw.poly, {v: 0 for s in pw.sets for v in s})


def linear_sum(counts: dict[Poly, int]) -> Poly:
    """The sum of ``n * p`` over the pairs ``(p, n)`` of ``counts``: the
    former ``bllp.respoly.linear_sum``, which only ``fate_weight`` calls."""
    table: dict[Mono, int] = {}
    for p, n in counts.items():
        for m, c in p.terms:
            table[m] = table.get(m, 0) + n * c
    return _poly(table)


def fate_weight(p: Proof) -> Poly:
    """The former ``bllp.proofs.weight``: the same walk from the root with
    each position's fate, counting under each multiplier by its value, so
    that every count hashes its multiplier."""
    counts: dict[Poly, int] = {}
    stack = [(p, (0,) * len(p.concl), ONE)]
    while stack:
        node, fates, mult = stack.pop()
        n, inner = 0, mult
        match node.rule:
            case "ax":
                n = fates[1 - positives(node.concl)[0]]
            case "bang":
                i = node.data["idx"]
                n = sum(fates) - fates[i]
                inner = mult * node.concl[i].label
            case "par" | "qc" | "qd" | "bot" | "qw":
                n = fates[created(node)[0]]
        if n:
            counts[mult] = counts.get(mult, 0) + n
        for q, lay in zip(node.premises, layout(node)):
            stack.append((q, tuple(1 if t is None else fates[t] for t in lay), inner))
    return linear_sum(counts)


def cut_paths(p: Proof, path: Path = (), inside_box: bool = False) -> list[Path]:
    out = []
    if p.rule == "cut" and not inside_box:
        out.append(path)
    for i, q in enumerate(p.premises):
        out.extend(cut_paths(q, path + (i,), inside_box or p.rule == "bang"))
    return out


# -- erasure, similarity and exposure -----------------------------------------------


@T.stack_safe
def _skel_formula(f: F.Formula):
    match f:
        case F.Atom(n):
            return ("+", n)
        case F.NegAtom(n):
            return ("-", n)
        case F.One():
            return ("1",)
        case F.Bottom():
            return ("bot",)
        case F.Tensor(l, r):
            return ("*", (yield (l,)), (yield (r,)))
        case F.Par(l, r):
            return ("par", (yield (l,)), (yield (r,)))
        case F.Bang(_, _, n):
            return ("!", (yield (n,)))
        case F.WhyNot(_, _, n):
            return ("?", (yield (n,)))
    raise TypeError(f)


def erase(p: Proof) -> tuple:
    """The underlying polynomial-free skeleton, flat in pre-order.

    One entry per node: its rule, integer data, formula shapes and number
    of premises.  Being flat, two skeletons compare without recursion.
    """
    out, stack = [], [p]
    while stack:
        node = stack.pop()
        idxs = tuple(sorted((k, v) for k, v in node.data.items() if isinstance(v, int)))
        concl = tuple(_skel_formula(a.formula) for a in node.concl)
        out.append((node.rule, idxs, concl, len(node.premises)))
        stack.extend(reversed(node.premises))
    return tuple(out)


def proof_sim(p: Proof, q: Proof) -> bool:
    """Whether ``p`` and ``q`` differ only in their polynomials."""
    return erase(p) == erase(q)


def expose_logical(p: Proof, path: Path) -> Proof:
    """A commutation-equivalent proof in which the designated cut is logical."""
    out, _ = _expose(p, path)
    return out


def _map_deriv(d) -> tuple[Proof, dict]:
    j = d.concl
    match d.rule:
        case "var_m":
            x, entry = j.lam[0]
            w = entry.formula
            z, r, pb = w.var, w.bound, w.body  # entry = <? {z<r} pb>[y<p]
            y = entry.binder
            r0 = r.subst(y, ZERO) if y != VACUOUS else r
            pos_inst = lf(F.subst_poly(pb, y, ZERO), z, r0)
            wit = lf(negate(F.subst_poly(pb, y, ZERO)), z, r0)
            ax = mk_ax((pos_inst, j.type), wit)
            out = mk_qd(ax, 0, pb, z, r, y, entry)
            return out, {("lam", x): 0, ("type",): 1}
        case "abs":
            prem, pos = _map_deriv(d.premise())
            x = j.subject.var
            i, t = pos[("lam", x)], pos[("type",)]
            node = mk_par(prem, i, t, j.type)
            newpos = _through(node, 0, {k: v for k, v in pos.items() if k != ("lam", x)})
            newpos[("type",)] = layout(node)[0][i]
            return node, newpos
        case "app_m":
            fn, arg = d.premises
            rt, post = _map_deriv(fn)
            ru, posu = _map_deriv(arg)
            n_f, xh, ph, m_f = arrow_parts(fn.concl.type.formula)
            y, q = fn.concl.type.binder, fn.concl.type.label
            h = d.ann.get("h", q)
            k = j.type.label
            ctx: dict[int, LF] = {}
            for v, a in j.lam:
                key = ("lam", v)
                if key in posu:
                    ctx[posu[key]] = a
            for v, a in j.mu:
                key = ("mu", v)
                if key in posu:
                    ctx[posu[key]] = a
            box_out = lf(F.Bang(xh, ph, n_f), y, h)
            box = mk_bang(ru, posu[("type",)], box_out, ctx)
            m_lf = lf(F.with_binder(m_f, y, j.type.binder), j.type.binder, k)
            ax = mk_ax((m_lf, lf_neg(m_lf)), m_lf)
            tens = mk_tensor(
                box,
                ax,
                posu[("type",)],
                1,
                lf(F.Tensor(box_out.formula, negate(m_f)), y, q),
            )
            cut = mk_cut(rt, tens, post[("type",)], len(tens.concl) - 1)
            newpos = _through(cut, 0, {k2: v for k2, v in post.items() if k2 != ("type",)})
            tens_pos = _through(tens, 0, {k2: v for k2, v in posu.items() if k2 != ("type",)})
            tens_pos[("type",)] = len(tens.concl) - 2  # the Ax result formula
            for k2, v in _through(cut, 1, tens_pos).items():
                newpos[k2] = v
            return cut, newpos
        case "mu_name_m":
            prem, pos = _map_deriv(d.premise())
            a = j.subject.mvar
            node = mk_bot(prem, len(prem.concl), j.type)
            newpos = _through(node, 0, pos)
            newpos[("mu", a)] = newpos.pop(("type",))
            newpos[("type",)] = len(node.concl) - 1
            return node, newpos
        case "mu_abs":
            prem, pos = _map_deriv(d.premise())
            b = j.subject.mvar
            botf = d.premise().concl.type
            unit = mk_one(lf(F.ONE_F, botf.binder, botf.label))
            node = mk_cut(prem, unit, pos[("type",)], 0)
            newpos = _through(node, 0, {k: v for k, v in pos.items() if k != ("type",)})
            newpos[("type",)] = newpos.pop(("mu", b))
            return node, newpos
        case "w_lam" | "w_mu":
            prem, pos = _map_deriv(d.premise())
            side = "lam" if d.rule == "w_lam" else "mu"
            prev = d.premise().concl
            (ev,) = {v for v, _ in getattr(j, side)} - {v for v, _ in getattr(prev, side)}
            entry = T.ctx_get(getattr(j, side), ev)
            node = mk_qw(prem, len(prem.concl), entry)
            newpos = _through(node, 0, pos)
            newpos[(side, ev)] = len(node.concl) - 1
            return node, newpos
        case "c_lam" | "c_mu":
            prem, pos = _map_deriv(d.premise())
            side = "lam" if d.rule == "c_lam" else "mu"
            x1, x2, z = d.ann["left"], d.ann["right"], d.ann["into"]
            i, jj = pos[(side, x1)], pos[(side, x2)]
            entry = T.ctx_get(getattr(j, side), z)
            node = mk_qc(prem, i, jj, entry)
            drop = {k for k in ((side, x1), (side, x2))}
            newpos = _through(node, 0, {k: v for k, v in pos.items() if k not in drop})
            newpos[(side, z)] = layout(node)[0][i]
            return node, newpos
    raise ProofError(f"cannot map rule {d.rule!r}")


def _inv(node: Proof, which: int, concl_pos: int) -> int:
    lay = layout(node)[which]
    hits = [i for i, tgt in enumerate(lay) if tgt == concl_pos]
    if len(hits) != 1:
        raise ProofError(f"position {concl_pos} has no unique premise origin")
    return hits[0]


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
        which = next(
            w for w, lay in enumerate(layout(p)) if idx in lay
        )
        src = _inv(p, which, idx)
        prem = m_subtype(p.premises[which], src, target)
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
            na = lf(F.subst_poly(fo.left, target.binder, pvar(a.binder))
                    if target.binder != VACUOUS and a.binder != VACUOUS and target.binder != a.binder
                    else fo.left, a.binder, a.label)
            nb = lf(F.subst_poly(fo.right, target.binder, pvar(b.binder))
                    if target.binder != VACUOUS and b.binder != VACUOUS and target.binder != b.binder
                    else fo.right, b.binder, b.label)
            prem = m_subtype(m_subtype(prem, i, na), j, nb)
            return mk_par(prem, i, j, target)
        case "tensor":
            li, ri = p.data["left_idx"], p.data["right_idx"]
            fo = target.formula
            lp, rp = p.premises
            a, b = lp.concl[li], rp.concl[ri]
            lp = m_subtype(lp, li, lf(fo.left, a.binder, a.label))
            rp = m_subtype(rp, ri, lf(fo.right, b.binder, b.label))
            return mk_tensor(lp, rp, li, ri, target)
        case "bang":
            i = p.data["idx"]
            fo = target.formula
            prem = p.premise(0)
            body = prem.concl[i]
            prem = m_subtype(prem, i, lf(fo.body, body.binder, fo.bound))
            ctx = {k: a for k, a in enumerate(p.concl) if k != i}
            return mk_bang(prem, i, target, ctx, p.data.get("sum_witness"))
    raise ProofError(f"cannot subtype a {p.rule} conclusion")


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
    return Proof(p.rule, concl, tuple(m_subst(q, var, value) for q in p.premises), data)


def is_tensor_tree(p: Proof) -> bool:
    if p.rule in ("ax", "one", "bang"):
        return True
    if p.rule == "tensor":
        return all(is_tensor_tree(q) for q in p.premises)
    return False


def _shift_lf(a: LF, new_binder: str, amount: Poly) -> LF:
    """``<A{x/y+amount}>[y<label]`` - the formula shifted, label kept."""
    if a.binder == VACUOUS:
        return a
    shifted = F.subst_poly(a.formula, a.binder, pvar(new_binder) + amount)
    return LF(shifted, new_binder if new_binder in F.free_rvars(shifted) else VACUOUS, a.label)


def _split(p: Proof, pos: int, r: Poly, s: Poly) -> tuple[Proof, Proof]:
    y = fresh_var("y")
    match p.rule:
        case "ax":
            w = p.data["witness"]
            rho = mk_ax(
                tuple(_relabel(a, r) for a in p.concl), _relabel(w, r)
            )
            sigma_concl = tuple(
                _relabel(_shift_lf(_relabel(a, r), y, r), s) for a in p.concl
            )
            sigma = mk_ax(sigma_concl, _relabel(_shift_lf(_relabel(w, r), y, r), s))
            return rho, sigma
        case "one":
            return (
                mk_one(_relabel(p.concl[0], r)),
                mk_one(_relabel(_shift_lf(_relabel(p.concl[0], r), y, r), s)),
            )
        case "tensor":
            li, ri = p.data["left_idx"], p.data["right_idx"]
            l_r, l_s = _split(p.premise(0), li, r, s)
            r_r, r_s = _split(p.premise(1), ri, r, s)
            out = p.concl[pos]
            rho = mk_tensor(l_r, r_r, li, ri, _relabel(out, r))
            sig_out = _relabel(_shift_lf(_relabel(out, r), y, r), s)
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
            sig_out = _relabel(_shift_lf(_relabel(out, r), y, r), s)
            sigma = mk_bang(prem_s, i, sig_out, {}, p.data.get("sum_witness"))
            return rho, sigma
    raise ProofError(f"{p.rule} cannot appear in a tensor tree")


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
            lp = _parsplit(p.premise(0), li, s)
            rp = _parsplit(p.premise(1), ri, s)
            return mk_tensor(lp, rp, li, ri, _relabel(p.concl[pos], s))
        case "bang":
            i = p.data["idx"]
            return mk_bang(
                p.premise(0), i, _relabel(p.concl[i], s), {}, p.data.get("sum_witness")
            )
    raise ProofError(f"{p.rule} cannot appear in a tensor tree")


def _refit(parent: Proof, which: int, new_child: Proof, t: Trans) -> tuple[Proof, Trans]:
    """Rebuild a parent around a reordered premise; returns the translation."""
    d = dict(parent.data)
    prems = list(parent.premises)
    prems[which] = new_child
    if parent.rule == "cut":
        key = "left_idx" if which == 0 else "right_idx"
        d[key] = _apply_trans(t, d[key])
        node = mk_cut(prems[0], prems[1], d["left_idx"], d["right_idx"])
    elif parent.rule == "tensor":
        key = "left_idx" if which == 0 else "right_idx"
        d[key] = _apply_trans(t, d[key])
        node = mk_tensor(
            prems[0], prems[1], d["left_idx"], d["right_idx"],
            parent.concl[created(parent)[0]],
        )
    elif parent.rule in ("par", "qc"):
        i2, j2 = _apply_trans(t, d["left"]), _apply_trans(t, d["right"])
        out = parent.concl[created(parent)[0]]
        mk = mk_par if parent.rule == "par" else mk_qc
        node = mk(prems[0], i2, j2, out)
    elif parent.rule in ("qw", "bot"):
        out = parent.concl[created(parent)[0]]
        mk = mk_qw if parent.rule == "qw" else mk_bot
        node = mk(prems[0], d["idx"], out)
    elif parent.rule == "qd":
        i2 = _apply_trans(t, d["idx"])
        seq = [None] * len(parent.concl)
        for k in range(len(parent.concl)):
            seq[_apply_trans(t, k)] = parent.concl[k]
        node = Proof("qd", tuple(seq), (prems[0],), {**d, "idx": i2})
    elif parent.rule == "bang":
        i2 = _apply_trans(t, d["idx"])
        wit = d.get("sum_witness")
        if wit:
            wit = {_apply_trans(t, k): v for k, v in wit.items()}
            d["sum_witness"] = wit
        seq = [None] * len(parent.concl)
        for k in range(len(parent.concl)):
            seq[_apply_trans(t, k)] = parent.concl[k]
        node = Proof("bang", tuple(seq), (prems[0],), {**d, "idx": i2})
    else:
        raise ProofError(f"cannot refit a {parent.rule} node")
    # translation: old conclusion position -> new conclusion position
    tr: dict[int, int] = {}
    old_created = created(parent)
    new_created = created(node)
    for o in range(len(parent.concl)):
        org = _origin(parent, o)
        if org is None:
            tr[o] = new_created[old_created.index(o)]
        else:
            w, k = org
            k2 = _apply_trans(t, k) if w == which else k
            tr[o] = layout(node)[w][k2]
    return node, tr


def _splice(p: Proof, path: Path, node: Proof, t: Trans) -> tuple[Proof, Trans]:
    """Replace the subproof at ``path`` and refit every ancestor."""
    if not path:
        return node, t
    parent = p.at(path[:-1])
    which = path[-1]
    new_parent, t2 = _refit(parent, which, node, t)
    return _splice(p, path[:-1], new_parent, t2)


def _source_key(node: Proof, pos: int, stop: dict[int, int]):
    """Trace a conclusion position up to a reused subproof or a created slot."""
    if id(node) in stop:
        return ("leaf", stop[id(node)], pos)
    org = _origin(node, pos)
    if org is None:
        return ("created", node.rule, created(node).index(pos))
    w, k = org
    return _source_key(node.premises[w], k, stop)


def _tensor_purge_path(p: Proof) -> Path | None:
    """Path (through tensor premises) to a rule blocking tensor-tree shape."""
    if p.rule in ("ax", "one", "bang"):
        return None
    if p.rule == "tensor":
        for w, q in enumerate(p.premises):
            sub = _tensor_purge_path(q)
            if sub is not None:
                return (w,) + sub
        return None
    return ()


def _rebuild_parent(parent: Proof, which: int, new_child: Proof, new_pos: int) -> Proof:
    li, ri = parent.data["left_idx"], parent.data["right_idx"]
    if parent.rule == "cut":
        if which == 0:
            return mk_cut(new_child, parent.premise(1), new_pos, ri)
        return mk_cut(parent.premise(0), new_child, li, new_pos)
    out = parent.concl[-1]
    if which == 0:
        return mk_tensor(new_child, parent.premise(1), new_pos, ri, out)
    return mk_tensor(parent.premise(0), new_child, li, new_pos, out)


def _hoist(parent: Proof, which: int) -> tuple[Proof, Trans, Path]:
    """Commute the last rule of one premise below a cut or tensor node.

    Returns the rewritten subtree, the conclusion translation, and the new
    relative path of the (relocated) parent node.
    """
    child = parent.premises[which]
    other = parent.premises[1 - which]
    pa = parent.data["left_idx"] if which == 0 else parent.data["right_idx"]
    match child.rule:
        case "par" | "qc":
            i, j = child.data["left"], child.data["right"]
            src = _inv(child, 0, pa)
            inner = _rebuild_parent(parent, which, child.premise(0), src)
            i2 = layout(inner)[which][i]
            j2 = layout(inner)[which][j]
            out = child.concl[created(child)[0]]
            mk = mk_par if child.rule == "par" else mk_qc
            node = mk(inner, i2, j2, out)
            leaves = [child.premise(0), other]
            rel: Path = (0,)
        case "qw" | "bot":
            src = _inv(child, 0, pa)
            inner = _rebuild_parent(parent, which, child.premise(0), src)
            mk = mk_qw if child.rule == "qw" else mk_bot
            node = mk(inner, len(inner.concl), child.concl[created(child)[0]])
            leaves = [child.premise(0), other]
            rel = (0,)
        case "qd":
            src = _inv(child, 0, pa)
            d = child.data
            inner = _rebuild_parent(parent, which, child.premise(0), src)
            i2 = layout(inner)[which][d["idx"]]
            node = mk_qd(
                inner, i2, d["P"], d["x"], d["p"], d["y"], child.concl[d["idx"]]
            )
            leaves = [child.premise(0), other]
            rel = (0,)
        case "cut":
            al, ar = child.data["left_idx"], child.data["right_idx"]
            lay = layout(child)
            if pa in lay[0]:
                src = _inv(child, 0, pa)
                inner = _rebuild_parent(parent, which, child.premise(0), src)
                node = mk_cut(
                    inner, child.premise(1), layout(inner)[which][al], ar
                )
                rel = (0,)
            else:
                src = _inv(child, 1, pa)
                inner = _rebuild_parent(parent, which, child.premise(1), src)
                node = mk_cut(
                    child.premise(0), inner, al, layout(inner)[which][ar]
                )
                rel = (1,)
            leaves = [child.premise(0), child.premise(1), other]
        case "tensor":
            ti, tj = child.data["left_idx"], child.data["right_idx"]
            out = child.concl[-1]
            lay = layout(child)
            if pa in lay[0]:
                src = _inv(child, 0, pa)
                inner = _rebuild_parent(parent, which, child.premise(0), src)
                node = mk_tensor(
                    inner, child.premise(1), layout(inner)[which][ti], tj, out
                )
                rel = (0,)
            else:
                src = _inv(child, 1, pa)
                inner = _rebuild_parent(parent, which, child.premise(1), src)
                node = mk_tensor(
                    child.premise(0), inner, ti, layout(inner)[which][tj], out
                )
                rel = (1,)
            leaves = [child.premise(0), child.premise(1), other]
        case _:
            raise ProofError(f"cannot commute a {child.rule} node")
    return node, _derive_trans(parent, node, leaves), rel
