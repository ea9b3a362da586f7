"""Sequent-calculus kernel: proofs, weights, malleability, cut elimination.

A sequent is a tuple of labelled formulas with at most one positive member.
Proof nodes store their conclusion and rule-specific data (indices into
premise conclusions, polynomial witnesses); checking is local and literal.

The pre-weight of a proof is a resource polynomial together with one set of
reserved variables per conclusion formula; the weight substitutes zero for
those variables and bounds the number of special cut-elimination steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import formula as F
from .formula import (
    LF,
    ShapeMismatch,
    VACUOUS,
    lf,
    lf_alpha_eq,
    lf_bounded_sum,
    lf_leq,
    lf_neg,
    lf_positive,
    lf_subst,
    lf_sum,
)
from .respoly import ONE, ZERO, Poly, fresh_var, poly_leq, pvar, specialize, weight_var

Sequent = tuple[LF, ...]
Path = tuple[int, ...]

RULES = ("ax", "cut", "par", "tensor", "bang", "qd", "qw", "qc", "bot", "one")


class ProofError(Exception):
    pass


@dataclass(frozen=True)
class Proof:
    rule: str
    concl: Sequent
    premises: tuple["Proof", ...] = ()
    data: dict = field(default_factory=dict, compare=False)

    def premise(self, i: int = 0) -> "Proof":
        return self.premises[i]

    def at(self, path: Path) -> "Proof":
        node = self
        for i in path:
            node = node.premises[i]
        return node


@dataclass
class Report:
    errors: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(f"{p}: {m}" for p, m in self.errors)


def positives(seq: Sequent) -> list[int]:
    return [i for i, a in enumerate(seq) if lf_positive(a)]


# -- index layouts ------------------------------------------------------------------
#
# For each rule, `layout` maps premise positions to conclusion positions
# (None = consumed by a cut); `created` lists conclusion positions the rule
# itself fills in.


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


# -- checking ------------------------------------------------------------------------


def _node_errors(p: Proof) -> list[str]:
    errs: list[str] = []
    seq = p.concl
    if len(positives(seq)) > 1:
        errs.append("sequent has more than one positive formula")
    d = p.data
    try:
        match p.rule:
            case "ax":
                if len(seq) != 2 or len(p.premises) != 0:
                    return errs + ["axiom concludes exactly two formulas"]
                w = d["witness"]
                pos = positives(seq)
                if len(pos) != 1:
                    return errs + ["axiom needs one positive and one negative side"]
                neg = seq[1 - pos[0]]
                if lf_positive(w):
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
                if lf_positive(cutf):
                    errs.append("left cut formula must be negative")
                if not lf_alpha_eq(lf_neg(cutf), rseq[ri]):
                    errs.append("cut formulas are not dual at the same label")
                if positives(tuple(a for k, a in enumerate(rseq) if k != ri)):
                    errs.append("right cut context must be all negative")
            case "par":
                i, j = d["left"], d["right"]
                pseq = p.premise(0).concl
                out = seq[_del_shift(i, j)]
                a, b = pseq[i], pseq[j]
                fo = out.formula
                if not isinstance(fo, F.Par):
                    return errs + ["par must introduce a par formula"]
                la, ra = F._match_binders(out.binder, fo.left, a.binder, a.formula)
                if not F.alpha_eq(la, ra):
                    errs.append("par left component mismatch")
                lb, rb = F._match_binders(out.binder, fo.right, b.binder, b.formula)
                if not F.alpha_eq(lb, rb):
                    errs.append("par right component mismatch")
                if not (poly_leq(a.label, out.label) and poly_leq(b.label, out.label)):
                    errs.append("par label must dominate both premise labels")
            case "tensor":
                li, ri = d["left_idx"], d["right_idx"]
                a = p.premise(0).concl[li]
                b = p.premise(1).concl[ri]
                out = seq[-1]
                fo = out.formula
                if not (lf_positive(a) and lf_positive(b)):
                    errs.append("tensor premises must distinguish positive formulas")
                if not isinstance(fo, F.Tensor):
                    return errs + ["tensor must introduce a tensor formula"]
                la, ra = F._match_binders(out.binder, fo.left, a.binder, a.formula)
                lb, rb = F._match_binders(out.binder, fo.right, b.binder, b.formula)
                if not (F.alpha_eq(la, ra) and F.alpha_eq(lb, rb)):
                    errs.append("tensor component mismatch")
                if not (poly_leq(out.label, a.label) and poly_leq(out.label, b.label)):
                    errs.append("tensor label must be below both premise labels")
            case "bang":
                i = d["idx"]
                pseq = p.premise(0).concl
                body = pseq[i]
                out = seq[i]
                if positives(pseq):
                    errs.append("box premise must be all negative")
                fo = out.formula
                if not isinstance(fo, F.Bang):
                    return errs + ["bang must introduce a bang formula"]
                want = F.Bang(body.binder, body.label, body.formula)
                got, exp = F._match_binders(out.binder, fo, out.binder, want)
                if not F.alpha_eq(got, exp):
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
                pf, x, y, bound = d["P"], d["x"], d["y"], d["p"]
                pseq = p.premise(0).concl
                inner = lf(
                    F.subst_poly(pf, y, ZERO),
                    x,
                    bound.subst(y, ZERO) if y != VACUOUS else bound,
                )
                if not lf_alpha_eq(pseq[i], inner):
                    errs.append("dereliction premise has the wrong instance shape")
                if not lf_leq(seq[i], lf(F.WhyNot(x, bound, pf), y, ONE)):
                    errs.append("dereliction conclusion exceeds the one-use bound")
            case "qw":
                if lf_positive(seq[d["idx"]]):
                    errs.append("weakening must introduce a negative formula")
            case "qc":
                i, j = d["left"], d["right"]
                pseq = p.premise(0).concl
                out = seq[_del_shift(i, j)]
                if not lf_leq(out, lf_sum(pseq[i], pseq[j])):
                    errs.append("contraction target is not below the sum")
            case "bot":
                if not isinstance(seq[d["idx"]].formula, F.Bottom):
                    errs.append("bot must introduce a bottom formula")
            case _:
                errs.append(f"unknown rule {p.rule!r}")
    except (KeyError, IndexError, ShapeMismatch) as exc:
        return errs + [f"malformed node: {type(exc).__name__}: {exc}"]

    # conclusion must agree with the premises through the layout
    if p.rule == "bang":
        if len(p.concl) != len(p.premise(0).concl):
            errs.append("box conclusion length does not fit the rule")
    elif p.rule in ("par", "qc", "bot", "qw", "qd", "cut", "tensor"):
        lay = layout(p)
        made = set(created(p))
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


def _walk(p: Proof, path: str, out: list[tuple[str, str]]) -> None:
    for msg in _node_errors(p):
        out.append((path, msg))
    for i, q in enumerate(p.premises):
        _walk(q, f"{path}.{i}", out)


def check_proof(p: Proof) -> Report:
    out: list[tuple[str, str]] = []
    _walk(p, "root", out)
    return Report(out)


def must_check(p: Proof) -> Proof:
    rep = check_proof(p)
    if not rep.ok:
        raise ProofError(str(rep))
    return p


# -- erasure and similarity ----------------------------------------------------------


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
            return ("*", _skel_formula(l), _skel_formula(r))
        case F.Par(l, r):
            return ("par", _skel_formula(l), _skel_formula(r))
        case F.Bang(_, _, n):
            return ("!", _skel_formula(n))
        case F.WhyNot(_, _, n):
            return ("?", _skel_formula(n))
    raise TypeError(f)


def erase(p: Proof):
    """The underlying polynomial-free skeleton."""
    idxs = tuple(
        sorted((k, v) for k, v in p.data.items() if isinstance(v, int))
    )
    return (
        p.rule,
        idxs,
        tuple(_skel_formula(a.formula) for a in p.concl),
        tuple(erase(q) for q in p.premises),
    )


def proof_sim(p: Proof, q: Proof) -> bool:
    return erase(p) == erase(q)


# -- pre-weights ----------------------------------------------------------------------


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


# -- smart constructors ----------------------------------------------------------------


def mk_ax(concl: Sequent, witness: LF) -> Proof:
    return Proof("ax", concl, (), {"witness": witness})


def mk_one(unit: LF) -> Proof:
    return Proof("one", (unit,))


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


# -- mapping multiplicative derivations into proofs --------------------------------------


def map_derivation(d) -> Proof:
    """The image proof of a multiplicative typing derivation."""
    proof, _ = _map_deriv(d)
    return proof


def _through(node: Proof, which: int, pos: dict) -> dict:
    lay = layout(node)[which]
    return {key: lay[i] for key, i in pos.items() if lay[i] is not None}


def _map_deriv(d) -> tuple[Proof, dict]:
    from . import typecheck as T
    from .formula import arrow_parts, negate

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
            m_lf = lf(T._with_binder(m_f, y, j.type.binder), j.type.binder, k)
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


# -- malleability -----------------------------------------------------------------------


def _inv(node: Proof, which: int, concl_pos: int) -> int:
    lay = layout(node)[which]
    hits = [i for i, tgt in enumerate(lay) if tgt == concl_pos]
    if len(hits) != 1:
        raise ProofError(f"position {concl_pos} has no unique premise origin")
    return hits[0]


def _set_concl(p: Proof, idx: int, value: LF) -> Proof:
    seq = list(p.concl)
    seq[idx] = value
    return replace(p, concl=tuple(seq))


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


def m_split(p: Proof, r: Poly, s: Poly) -> tuple[Proof, Proof]:
    """Split a tensor tree's positive budget into ``r`` and ``s``."""
    if not is_tensor_tree(p):
        raise ProofError("only tensor trees can be split")
    pos = positives(p.concl)[0]
    target = p.concl[pos]
    if not poly_leq(r + s, target.label):
        raise ProofError("split amounts exceed the available label")
    return _split(p, pos, r, s)


def _relabel(a: LF, label: Poly) -> LF:
    return LF(a.formula, a.binder, label)


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


def m_parsplit(p: Proof, r: Poly, s: Poly) -> Proof:
    """Parametric splitting: a copy at label ``s`` whose context sums cover."""
    if not is_tensor_tree(p):
        raise ProofError("only tensor trees can be split")
    pos = positives(p.concl)[0]
    from .respoly import bounded_sum

    need = bounded_sum(fresh_var("b"), r, s)
    if not poly_leq(need, p.concl[pos].label):
        raise ProofError("parametric split exceeds the available label")
    return _parsplit(p, pos, s)


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


# -- occurrence tracing and special cuts ---------------------------------------------


def classify_occurrence(p: Proof, path: Path, idx: int) -> str:
    """Trace a formula occurrence downward: ``active`` ends at a cut."""
    while path:
        parent = p.at(path[:-1])
        which = path[-1]
        tgt = layout(parent)[which][idx]
        if tgt is None:
            return "active"
        idx = tgt
        path = path[:-1]
    return "passive"


def _replace_at(p: Proof, path: Path, node: Proof) -> Proof:
    if not path:
        return node
    i = path[0]
    prems = tuple(
        _replace_at(q, path[1:], node) if k == i else q
        for k, q in enumerate(p.premises)
    )
    return replace(p, premises=prems)


Trans = dict[int, int] | None  # conclusion-position translation (None: identity)


def _apply_trans(t: Trans, k: int) -> int:
    return k if t is None else t[k]


def _origin(node: Proof, pos: int) -> tuple[int, int] | None:
    """Premise origin of a conclusion position (None when rule-created)."""
    if pos in created(node):
        return None
    for w, lay in enumerate(layout(node)):
        for k, tgt in enumerate(lay):
            if tgt == pos:
                return (w, k)
    raise ProofError(f"position {pos} has no origin")


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


def _inv_perm(t: Trans, n: int) -> list[int]:
    if t is None:
        return list(range(n))
    out = [0] * n
    for old, new in t.items():
        out[new] = old
    return out


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


def _derive_trans(old: Proof, new: Proof, leaves: list[Proof]) -> Trans:
    stop = {id(q): i for i, q in enumerate(leaves)}
    new_keys = {
        _source_key(new, n, stop): n for n in range(len(new.concl))
    }
    return {
        o: new_keys[_source_key(old, o, stop)] for o in range(len(old.concl))
    }


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


def _introduces(node: Proof, idx: int) -> bool:
    return idx in created(node) or node.rule in ("ax", "bang")


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
            p, _ = _splice(p, path, sub, tr)
            path = path + rel
            continue
        if not _introduces(right, ri):
            sub, tr, rel = _hoist(node, 1)
            p, _ = _splice(p, path, sub, tr)
            path = path + rel
            continue
        if left.rule in ("qc", "bang") and right.rule != "ax":
            sub = _tensor_purge_path(right)
            if sub is not None:
                if sub == ():
                    raise ProofError("positive side cannot become a tensor tree")
                tpath = path + (1,) + sub[:-1]
                tnode = p.at(tpath)
                hoisted, tr, _ = _hoist(tnode, sub[-1])
                p, _ = _splice(p, tpath, hoisted, tr)
                continue
        return p, path


def expose_logical(p: Proof, path: Path) -> Proof:
    """A commutation-equivalent proof in which the designated cut is logical."""
    out, _ = _expose(p, path)
    return out


# -- logical cut-elimination steps ----------------------------------------------------


def _fire_ax(node: Proof) -> tuple[Proof, Trans]:
    li, ri = node.data["left_idx"], node.data["right_idx"]
    left, right = node.premises
    if left.rule == "ax":
        other = left.concl[1 - li]
        reduct = m_subtype(right, ri, other)
        tr = {0: ri}
        for k in range(len(right.concl)):
            if k != ri:
                tr[1 + _del_shift(k, ri)] = k
        return reduct, tr
    other = right.concl[1 - ri]
    reduct = m_subtype(left, li, other)
    tr = {len(left.concl) - 1: li}
    for k in range(len(left.concl)):
        if k != li:
            tr[_del_shift(k, li)] = k
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
    cut2 = mk_cut(cut1, r1, _del_shift(j, i), tj)
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
    pd = left.premise(0)
    src = _inv(left, 0, li)
    lam2 = m_subtype(pd, src, lf_neg(inner))
    reduct = mk_cut(sigma, lam2, bi, src)
    n_o = len(pd.concl) - 1
    n_m = len(right.concl) - 1
    tr = {k: n_m + k for k in range(n_o)}
    tr.update({n_o + k: k for k in range(n_m)})
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
    cut2 = mk_cut(cut1, sigma, _del_shift(j, i), ri)
    tags: list = []
    for k in range(len(prem.concl)):
        if k not in (i, j):
            tags.append(("P", k))
    for k in range(len(rho.concl)):
        if k != ri:
            tags.append(("M1", k))
    for k in range(len(sigma.concl)):
        if k != ri:
            tags.append(("M2", k))
    out = cut2
    for k in range(len(right.concl)):
        if k == ri:
            continue
        a = tags.index(("M1", k))
        b = tags.index(("M2", k))
        out = mk_qc(out, a, b, right.concl[k])
        tags[a] = ("RC", k)
        del tags[b]
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
    bi2 = _del_shift(bi, li)
    ctx: dict[int, LF] = {}
    for k in range(len(left.concl)):
        if k in (li, bi):
            continue
        ctx[_del_shift(k, li)] = left.concl[k]
    off = len(lam.concl) - 1
    for k in range(len(sigma.concl)):
        if k != ri:
            ctx[off + _del_shift(k, ri)] = right.concl[k]
    wit = left.data.get("sum_witness")
    if wit:
        wit = {_del_shift(k, li): v for k, v in wit.items() if k != li}
    return mk_bang(newprem, bi2, box_out, ctx, wit), None


def fire_logical(p: Proof, path: Path) -> Proof:
    """Fire an exposed logical cut in place."""
    out, _ = _fire(p, path)
    return out


def _fire(p: Proof, path: Path) -> tuple[Proof, Trans]:
    node = p.at(path)
    assert node.rule == "cut"
    left, right = node.premises
    if left.rule == "ax" or right.rule == "ax":
        reduct, tr = _fire_ax(node)
    elif left.rule == "par":
        reduct, tr = _fire_multiplicative(node)
    elif left.rule == "bot":
        reduct, tr = _fire_units(node)
    elif left.rule == "qw":
        reduct, tr = _fire_weakening(node)
    elif left.rule == "qd":
        reduct, tr = _fire_dereliction(node)
    elif left.rule == "qc":
        reduct, tr = _fire_contraction(node)
    elif left.rule == "bang":
        reduct, tr = _fire_digging(node)
    else:
        raise ProofError(f"cut is not logical: left rule {left.rule}")
    return _splice(p, path, reduct, tr)


# -- the special-cut strategy ----------------------------------------------------------


@dataclass
class SpecialStep:
    result: Proof
    exposed: Proof
    path: Path
    kind: str


RESTRICTED = {"qd", "qc", "bang"}
KINDS = {
    "par": "multiplicative",
    "bot": "units",
    "qw": "weakening",
    "qd": "dereliction",
    "qc": "contraction",
    "bang": "digging",
}


def _cut_paths(p: Proof, path: Path = (), inside_box: bool = False) -> list[Path]:
    out = []
    if p.rule == "cut" and not inside_box:
        out.append(path)
    for i, q in enumerate(p.premises):
        out.extend(_cut_paths(q, path + (i,), inside_box or p.rule == "bang"))
    return out


def _eligible(p: Proof, path: Path) -> bool:
    node = p.at(path)
    ri = node.data["right_idx"]
    lay = layout(node)[1]
    for k in range(len(node.premise(1).concl)):
        if k == ri:
            continue
        if classify_occurrence(p, path, lay[k]) != "passive":
            return False
    return True


def step_special(p: Proof) -> SpecialStep | None:
    """One external special-cut step, or None when no cut may fire."""
    for path in _cut_paths(p):
        try:
            exposed, epath = _expose(p, path)
        except ProofError:
            continue
        node = exposed.at(epath)
        left, right = node.premises
        if left.rule == "ax" or right.rule == "ax":
            kind = "axiom"
        else:
            kind = KINDS[left.rule]
        if left.rule in RESTRICTED and right.rule != "ax" and not _eligible(exposed, epath):
            continue
        result, _ = _fire(exposed, epath)
        return SpecialStep(result, exposed, epath, kind)
    return None


def normalize(p: Proof, fuel: int = 10_000) -> tuple[Proof, int, bool]:
    """Iterate special steps; returns (proof, steps, exhausted)."""
    steps = 0
    while steps < fuel:
        hit = step_special(p)
        if hit is None:
            return p, steps, False
        p = hit.result
        steps += 1
    return p, steps, step_special(p) is not None
