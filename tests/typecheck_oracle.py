"""Reference derivation rewriters for the tests: the former pipeline.

Each rewriter here recurses on ``.premises`` through its own name, so a
derivation a few hundred rules deep exhausts the recursion limit.
``bllp.typecheck`` runs the same bodies on ``stack_safe`` (a recursive call
is ``(yield args)``) and merges the λ- and μ-renamers into ``rename_free``.
The substitution lemmas, ``_replay_structurals`` and ``_fire_theta`` are
kept here as they were before that change, with the copy contraction and
the weakened-variable lookup they repeat.

Every node a rewriter here builds stores its whole subject, renamed by
``lammu.subst`` and ``rename_mvar`` where a contraction or a renaming asks
for it, as the library did before a subject was stored only at a root.  So
``contract``, ``weaken``, ``ctx_lower``, ``present`` and the helpers of
elaboration and subject reduction that build subjects are kept here too.
The tests check that both give the same derivations, names included, from
the same state of the global name supplies.  The other helpers are the
library's own.

The checker's per-rule code, ``introduced`` and the congruence conclusions
of subject reduction are kept at the end as they were before the library
read each rule's facts off its one table, ``RULES``.
"""

from __future__ import annotations


from bllp import formula as F
from bllp import lammu as L
from bllp import typecheck as T
from bllp.formula import LF, VACUOUS, arrow_parts, lf, lf_alpha_eq, lf_leq, lf_subst, lf_sum
from bllp.lammu import App, Lam, Mu, Named, Var
from bllp.record import replace
from bllp.respoly import ZERO, Poly, fresh_var, poly_leq
from bllp.typecheck import (
    Ctx,
    Derivation,
    DerivationError,
    Judgment,
    _Sub,
    _sum_ctx_entry,
    ctx_dom,
    ctx_eq,
    ctx_get,
    ctx_map,
    ctx_remove,
)


def weaken(d: Derivation, side: str, var: str, entry: LF) -> Derivation:
    j = d.concl
    if side == "lam":
        concl = Judgment(j.lam + ((var, entry),), j.subject, j.type, j.mu)
        return Derivation("w_lam", concl, (d,))
    concl = Judgment(j.lam, j.subject, j.type, j.mu + ((var, entry),))
    return Derivation("w_mu", concl, (d,))


def contract(d: Derivation, side: str, v1: str, v2: str, into: str, target: LF) -> Derivation:
    j = d.concl
    if side == "lam":
        lam = ctx_remove(j.lam, v1, v2) + ((into, target),)
        subject = L.subst(L.subst(j.subject, v1, Var(into)), v2, Var(into))
        concl = Judgment(lam, subject, j.type, j.mu)
        return Derivation("c_lam", concl, (d,), {"left": v1, "right": v2, "into": into})
    mu = ctx_remove(j.mu, v1, v2) + ((into, target),)
    subject = L.rename_mvar(L.rename_mvar(j.subject, v1, into), v2, into)
    concl = Judgment(j.lam, subject, j.type, mu)
    return Derivation("c_mu", concl, (d,), {"left": v1, "right": v2, "into": into})


def ctx_lower(d: Derivation, side: str, var: str, target: LF) -> Derivation:
    """Lower one context entry to a ⊑-smaller labelled formula."""
    cur = ctx_get(getattr(d.concl, side), var)
    if cur is None:
        raise DerivationError(f"no {side}-entry {var} to lower")
    if lf_alpha_eq(cur, target):
        return d
    if not lf_leq(target, cur):
        raise DerivationError(f"{target} is not below {cur}")
    ghost = L.fresh_tvar(var)
    shifted = F.lf_shift(cur, fresh_var("g"))
    zero = LF(shifted.formula, shifted.binder, ZERO)
    return contract(weaken(d, side, ghost, zero), side, var, ghost, var, target)


def present(d: Derivation, concl: Judgment) -> Derivation:
    """Re-state the conclusion (contexts reordered, subjects α-renamed)."""
    j = d.concl
    assert ctx_eq(j.lam, concl.lam) and ctx_eq(j.mu, concl.mu)
    assert L.alpha_eq(j.subject, concl.subject) and lf_alpha_eq(j.type, concl.type)
    return replace(d, concl=concl)


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
                d = _rename_entry(d, side, summed[v], v)
            cur = ctx_get(getattr(d.concl, side), v)
            if not lf_alpha_eq(cur, want):
                d = ctx_lower(d, side, v, want)
        else:
            d = weaken(d, side, v, want)
    return d


def subst_derivation(d: Derivation, var: str, value: Poly) -> Derivation:
    """Substitute a resource variable throughout a derivation."""
    if var == VACUOUS:
        return d
    j = d.concl
    concl = Judgment(
        ctx_map(j.lam, lambda a: lf_subst(a, var, value)),
        j.subject,
        lf_subst(j.type, var, value),
        ctx_map(j.mu, lambda a: lf_subst(a, var, value)),
    )
    ann = dict(d.ann)
    if "h" in ann:
        ann["h"] = ann["h"].subst(var, value)
    return Derivation(
        d.rule, concl, tuple(subst_derivation(p, var, value) for p in d.premises), ann
    )


def rename_free_lamvar(d: Derivation, old: str, new: str) -> Derivation:
    """Rename a free λ-variable in subject and contexts of a derivation."""
    j = d.concl
    lam = tuple((new if n == old else n, a) for n, a in j.lam)
    concl = Judgment(lam, L.subst(j.subject, old, Var(new)), j.type, j.mu)
    ann = dict(d.ann)
    for key in ("left", "right", "into"):
        if ann.get(key) == old:
            ann[key] = new
    if d.rule == "abs" and d.concl.subject.var == old:
        # bound here: nothing to rename above
        return d
    return Derivation(
        d.rule, concl, tuple(rename_free_lamvar(p, old, new) for p in d.premises), ann
    )


def rename_free_muvar(d: Derivation, old: str, new: str) -> Derivation:
    j = d.concl
    mu = tuple((new if n == old else n, a) for n, a in j.mu)
    concl = Judgment(j.lam, L.rename_mvar(j.subject, old, new), j.type, mu)
    ann = dict(d.ann)
    for key in ("left", "right", "into"):
        if ann.get(key) == old:
            ann[key] = new
    if d.rule == "mu_abs" and d.concl.subject.mvar == old:
        return d
    if d.rule == "mu_name_m" and d.concl.subject.mvar == old:
        # the naming introduced it fresh; premise does not mention it
        prem = d.premises
    else:
        prem = tuple(rename_free_muvar(p, old, new) for p in d.premises)
    return Derivation(d.rule, concl, prem, ann)


def lower_type(d: Derivation, target: LF) -> Derivation:
    """Rebuild a multiplicative derivation with a ⊑-smaller subject type."""
    if lf_alpha_eq(d.concl.type, target):
        return d
    if not lf_leq(target, d.concl.type):
        raise DerivationError(f"type {target} is not below {d.concl.type}")
    j = d.concl
    match d.rule:
        case "var_m" | "var":
            return Derivation(d.rule, replace(j, type=target), (), dict(d.ann))
        case "mu_name_m" | "mu_name":
            return Derivation(d.rule, replace(j, type=target), d.premises, dict(d.ann))
        case "abs":
            n_f, z, s, m_f = arrow_parts(target.formula)
            x = j.subject.var
            p0 = d.premise()
            entry = p0.concl.lam_get(x)
            f_entry = F.with_binder(
                F.WhyNot(z, s, F.negate(n_f)), target.binder, entry.binder
            )
            prem = ctx_lower(p0, "lam", x, lf(f_entry, entry.binder, entry.label))
            ty0 = prem.concl.type
            m_new = F.with_binder(m_f, target.binder, ty0.binder)
            prem = lower_type(prem, lf(m_new, ty0.binder, ty0.label))
            return Derivation("abs", replace(j, type=target), (prem,), dict(d.ann))
        case "app_m" | "app":
            fn = d.premise(0)
            fnlf = fn.concl.type
            n_f, xh, ph, m_f = arrow_parts(fnlf.formula)
            if fnlf.binder == VACUOUS and target.binder != VACUOUS:
                new_arrow = lf(
                    F.Par(F.WhyNot(xh, ph, F.negate(n_f)), target.formula),
                    target.binder,
                    fnlf.label,
                )
            else:
                m_new = F.with_binder(target.formula, target.binder, fnlf.binder)
                new_arrow = lf(
                    F.Par(F.WhyNot(xh, ph, F.negate(n_f)), m_new),
                    fnlf.binder,
                    fnlf.label,
                )
            fn2 = lower_type(fn, new_arrow)
            return Derivation(
                d.rule, replace(j, type=target), (fn2, d.premise(1)), dict(d.ann)
            )
        case "mu_abs":
            b = j.subject.mvar
            prem = ctx_lower(d.premise(), "mu", b, target)
            return Derivation("mu_abs", replace(j, type=target), (prem,), dict(d.ann))
        case "w_lam" | "w_mu" | "c_lam" | "c_mu":
            prem = lower_type(d.premise(), target)
            return Derivation(d.rule, replace(j, type=target), (prem,), dict(d.ann))
    raise DerivationError(f"cannot lower the type of a {d.rule} node")


def drop_mu_entry(d: Derivation, var: str) -> Derivation:
    """Remove an unused μ-hypothesis (never named in the subject)."""
    j = d.concl
    if j.mu_get(var) is None:
        return d
    if d.rule == "w_mu":
        prev = d.premise()
        extra = ctx_dom(j.mu) - ctx_dom(prev.concl.mu)
        if extra == {var}:
            return prev
        prem = drop_mu_entry(prev, var)
        return Derivation("w_mu", replace(j, mu=ctx_remove(j.mu, var)), (prem,), dict(d.ann))
    if d.rule == "c_mu" and d.ann["into"] == var:
        prem = drop_mu_entry(drop_mu_entry(d.premise(), d.ann["left"]), d.ann["right"])
        return prem
    new_prems = []
    for p in d.premises:
        if p.concl.mu_get(var) is not None:
            new_prems.append(drop_mu_entry(p, var))
        else:
            new_prems.append(p)
    return Derivation(d.rule, replace(j, mu=ctx_remove(j.mu, var)), tuple(new_prems), dict(d.ann))


def _rename_entry(d: Derivation, side: str, old: str, new: str) -> Derivation:
    if old == new:
        return d
    if side == "lam":
        return rename_free_lamvar(d, old, new)
    return rename_free_muvar(d, old, new)


def add_to_mult(d: Derivation) -> Derivation:
    """Elaborate an additive derivation into the multiplicative system."""
    j = d.concl
    match d.rule:
        case "var":
            entry = j.lam_get(j.subject.name)
            core = Derivation(
                "var_m",
                Judgment(((j.subject.name, entry),), j.subject, j.type, ()),
            )
            out = core
            for v, a in j.lam:
                if v != j.subject.name:
                    out = weaken(out, "lam", v, a)
            for v, a in j.mu:
                out = weaken(out, "mu", v, a)
            return present(out, j)
        case "abs":
            prem = add_to_mult(d.premise())
            return Derivation("abs", j, (prem,), dict(d.ann))
        case "mu_abs":
            prem = add_to_mult(d.premise())
            return Derivation("mu_abs", j, (prem,), dict(d.ann))
        case "mu_name":
            prem = add_to_mult(d.premise())
            a = j.subject.mvar
            gamma = L.fresh_tvar(a)
            named = Derivation(
                "mu_name_m",
                Judgment(
                    prem.concl.lam,
                    Named(gamma, prem.concl.subject),
                    j.type,
                    ((gamma, prem.concl.type),) + prem.concl.mu,
                ),
                (prem,),
            )
            out = contract(named, "mu", gamma, a, a, j.mu_get(a))
            return present(out, j)
        case "app":
            fn = add_to_mult(d.premise(0))
            arg = add_to_mult(d.premise(1))
            h = d.ann.get("h", fn.concl.type.label)
            shared_l = ctx_dom(fn.concl.lam) & ctx_dom(arg.concl.lam)
            shared_m = ctx_dom(fn.concl.mu) & ctx_dom(arg.concl.mu)
            ren_l, ren_m = {}, {}
            for v in shared_l:
                ren_l[v] = L.fresh_tvar(v)
                arg = rename_free_lamvar(arg, v, ren_l[v])
            for v in shared_m:
                ren_m[v] = L.fresh_tvar(v)
                arg = rename_free_muvar(arg, v, ren_m[v])
            wit_l = d.ann.get("sum_witness_lam", {})
            wit_m = d.ann.get("sum_witness_mu", {})

            def summed(ctx: Ctx, wit, ren) -> Ctx:
                back = {v2: v1 for v1, v2 in ren.items()}
                return tuple(
                    (v, _sum_ctx_entry(h, a, wit.get(back.get(v, v)))) for v, a in ctx
                )

            node = Derivation(
                "app_m",
                Judgment(
                    fn.concl.lam + summed(arg.concl.lam, wit_l, ren_l),
                    App(fn.concl.subject, arg.concl.subject),
                    j.type,
                    fn.concl.mu + summed(arg.concl.mu, wit_m, ren_m),
                ),
                (fn, arg),
                {"h": h},
            )
            summed_l = {v: ren_l.get(v, v) for v, _ in d.premise(1).concl.lam}
            summed_m = {v: ren_m.get(v, v) for v, _ in d.premise(1).concl.mu}
            out = _merge_side(node, "lam", j.lam, fn.concl.lam, summed_l)
            out = _merge_side(out, "mu", j.mu, fn.concl.mu, summed_m)
            return present(out, j)
    raise DerivationError(f"not an additive rule: {d.rule}")


def _merge_groups(a: dict, b: dict) -> dict:
    out = {k: list(v) for k, v in a.items()}
    for k, v in b.items():
        out.setdefault(k, []).extend(v)
    return out


def _instantiate(sub: _Sub) -> tuple[Derivation, dict, dict]:
    """A fresh-named instance of the argument derivation at the copy's shift."""
    inst = sub.rho
    if sub.binder != VACUOUS:
        inst = subst_derivation(inst, sub.binder, sub.shift)
    ren_l = {v: L.fresh_tvar(v) for v, _ in inst.concl.lam}
    ren_m = {v: L.fresh_tvar(v) for v, _ in inst.concl.mu}
    for old, new in ren_l.items():
        inst = _rename_entry(inst, "lam", old, new)
    for old, new in ren_m.items():
        inst = _rename_entry(inst, "mu", old, new)
    return inst, ren_l, ren_m


def _subst_walk(d: Derivation, subs: dict[str, _Sub]) -> tuple[Derivation, dict, dict]:
    """Replace every use of the tracked variable copies by the argument.

    Returns the rebuilt derivation together with groups mapping each
    original argument-context variable to the fresh copies inserted.
    """
    j = d.concl
    live = {
        v: s
        for v, s in subs.items()
        if (j.lam_get(v) if s.kind == "lam" else j.mu_get(v)) is not None
    }
    if not live:
        return d, {}, {}
    rule = d.rule

    if rule == "var_m":
        (v, sub), = live.items()
        inst, ren_l, ren_m = _instantiate(sub)
        inst = lower_type(inst, j.type)
        return inst, {o: [n] for o, n in ren_l.items()}, {o: [n] for o, n in ren_m.items()}

    if rule in ("w_lam", "w_mu"):
        prev = d.premise()
        side = "lam" if rule == "w_lam" else "mu"
        extra = ctx_dom(getattr(j, side)) - ctx_dom(getattr(prev.concl, side))
        (ev,) = extra
        if ev in live:
            # the copy is unused: no argument inserted
            return _subst_walk(prev, subs)
        prem, gl, gm = _subst_walk(prev, subs)
        out = weaken(prem, side, ev, ctx_get(getattr(j, side), ev))
        return out, gl, gm

    if rule in ("c_lam", "c_mu"):
        side = "lam" if rule == "c_lam" else "mu"
        x1, x2, z = d.ann["left"], d.ann["right"], d.ann["into"]
        if z in live:
            sub = live[z]
            prev = d.premise()
            p1 = ctx_get(getattr(prev.concl, side), x1).label
            subs2 = {v: s for v, s in subs.items() if v != z}
            subs2[x1] = _Sub(sub.rho, sub.binder, sub.shift, sub.kind, sub.root)
            subs2[x2] = _Sub(sub.rho, sub.binder, sub.shift + p1, sub.kind, sub.root)
            return _subst_walk(prev, subs2)
        prem, gl, gm = _subst_walk(d.premise(), subs)
        target = ctx_get(getattr(j, side), z)
        out = contract(prem, side, x1, x2, z, target)
        return out, gl, gm

    if rule == "mu_name_m" and j.subject.mvar in live:
        gamma = j.subject.mvar
        sub = live[gamma]
        prem, gl, gm = _subst_walk(d.premise(), subs)
        entry = j.mu_get(gamma)
        n_f, xh, ph, m_f = arrow_parts(entry.formula)
        inst, ren_l, ren_m = _instantiate(sub)
        inst = lower_type(inst, lf(n_f, xh, ph))
        app_node = Derivation(
            "app_m",
            Judgment(
                prem.concl.lam + tuple(
                    (v, _sum_ctx_entry(entry.label, a)) for v, a in inst.concl.lam
                ),
                App(prem.concl.subject, inst.concl.subject),
                lf(m_f, entry.binder, entry.label),
                prem.concl.mu + tuple(
                    (v, _sum_ctx_entry(entry.label, a)) for v, a in inst.concl.mu
                ),
            ),
            (prem, inst),
            {"h": entry.label},
        )
        out = Derivation(
            "mu_name_m",
            Judgment(
                app_node.concl.lam,
                Named(gamma, app_node.concl.subject),
                j.type,
                ((gamma, lf(m_f, entry.binder, entry.label)),) + app_node.concl.mu,
            ),
            (app_node,),
        )
        gl = _merge_groups(gl, {o: [n] for o, n in ren_l.items()})
        gm = _merge_groups(gm, {o: [n] for o, n in ren_m.items()})
        gamma2 = L.fresh_tvar(gamma)
        out = rename_free_muvar(out, gamma, gamma2)
        gm = _merge_groups(gm, {("copy", sub.root): [gamma2]})
        return out, gl, gm

    # congruence cases: rebuild the node around the processed premises
    new_prems = []
    gl: dict = {}
    gm: dict = {}
    for p in d.premises:
        p2, gl2, gm2 = _subst_walk(p, subs)
        new_prems.append(p2)
        gl = _merge_groups(gl, gl2)
        gm = _merge_groups(gm, gm2)

    if rule == "abs":
        (prem,) = new_prems
        x = j.subject.var
        concl = Judgment(
            ctx_remove(prem.concl.lam, x),
            Lam(x, prem.concl.subject),
            j.type,
            prem.concl.mu,
        )
        return Derivation("abs", concl, (prem,), dict(d.ann)), gl, gm
    if rule == "mu_abs":
        (prem,) = new_prems
        b = j.subject.mvar
        concl = Judgment(
            prem.concl.lam,
            Mu(b, prem.concl.subject),
            j.type,
            ctx_remove(prem.concl.mu, b),
        )
        return Derivation("mu_abs", concl, (prem,), dict(d.ann)), gl, gm
    if rule == "mu_name_m":
        (prem,) = new_prems
        a = j.subject.mvar
        concl = Judgment(
            prem.concl.lam,
            Named(a, prem.concl.subject),
            j.type,
            ((a, prem.concl.type),) + prem.concl.mu,
        )
        return Derivation("mu_name_m", concl, (prem,), dict(d.ann)), gl, gm
    if rule == "app_m":
        fn, arg = new_prems
        h = d.ann["h"]
        old_fn, old_arg = d.premises
        lam = list(fn.concl.lam)
        for v, a in arg.concl.lam:
            old = ctx_get(old_arg.concl.lam, v)
            if old is not None and ctx_get(j.lam, v) is not None and lf_alpha_eq(a, old):
                lam.append((v, ctx_get(j.lam, v)))
            else:
                lam.append((v, _sum_ctx_entry(h, a)))
        mu = list(fn.concl.mu)
        for v, a in arg.concl.mu:
            old = ctx_get(old_arg.concl.mu, v)
            if old is not None and ctx_get(j.mu, v) is not None and lf_alpha_eq(a, old):
                mu.append((v, ctx_get(j.mu, v)))
            else:
                mu.append((v, _sum_ctx_entry(h, a)))
        concl = Judgment(
            tuple(lam),
            App(fn.concl.subject, arg.concl.subject),
            j.type,
            tuple(mu),
        )
        return Derivation("app_m", concl, (fn, arg), {"h": h}), gl, gm
    raise DerivationError(f"substitution hit an unexpected {rule} node")


def subject_reduce(d: Derivation, position: tuple[str, ...] | None = None) -> Derivation:
    """Rebuild a multiplicative derivation along one head step of its subject.

    ``position`` defaults to the head-redex position of the subject; passing
    a non-redex position is an error.
    """
    if position is None:
        hit = L.step(d.concl.subject, "head")
        if hit is None:
            raise DerivationError("subject is head-normal")
        position = hit[2]
    if position == ():
        root = L.root_step(d.concl.subject)
        if d.rule in ("w_lam", "w_mu", "c_lam", "c_mu"):
            return _through_structural(d, position)
        if root is not None and root[1] in ("beta", "mu"):
            bare, wrappers = _bare_redex_app(d)
            out = _fire_beta(bare) if root[1] == "beta" else _fire_mu(bare)
            return _replay_structurals(out, wrappers)
        if L.theta_step(d.concl.subject) is not None:
            return _fire_theta(d)
        raise DerivationError("no redex at the requested position")
    if d.rule in ("w_lam", "w_mu", "c_lam", "c_mu"):
        return _through_structural(d, position)
    step, rest = position[0], position[1:]
    if step == "appL" and d.rule == "app_m":
        fn = subject_reduce(d.premise(0), rest)
        concl = replace(d.concl, subject=App(fn.concl.subject, d.concl.subject.arg))
        return Derivation("app_m", concl, (fn, d.premise(1)), dict(d.ann))
    if step == "lam" and d.rule == "abs":
        prem = subject_reduce(d.premise(), rest)
        concl = replace(d.concl, subject=Lam(d.concl.subject.var, prem.concl.subject))
        return Derivation("abs", concl, (prem,), dict(d.ann))
    if step == "mu" and d.rule == "mu_abs":
        prem = subject_reduce(d.premise(), rest)
        concl = replace(d.concl, subject=Mu(d.concl.subject.mvar, prem.concl.subject))
        return Derivation("mu_abs", concl, (prem,), dict(d.ann))
    if step == "named" and d.rule == "mu_name_m":
        prem = subject_reduce(d.premise(), rest)
        concl = replace(
            d.concl, subject=Named(d.concl.subject.mvar, prem.concl.subject)
        )
        return Derivation("mu_name_m", concl, (prem,), dict(d.ann))
    raise DerivationError(f"derivation rule {d.rule} does not match step {step!r}")


def _through_structural(d: Derivation, position) -> Derivation:
    prem = subject_reduce(d.premise(), position)
    j = d.concl
    if d.rule in ("w_lam", "w_mu"):
        side = "lam" if d.rule == "w_lam" else "mu"
        extra = ctx_dom(getattr(j, side)) - ctx_dom(getattr(d.premise().concl, side))
        (ev,) = extra
        return weaken(prem, side, ev, ctx_get(getattr(j, side), ev))
    side = "lam" if d.rule == "c_lam" else "mu"
    z = d.ann["into"]
    return contract(
        prem, side, d.ann["left"], d.ann["right"], z, ctx_get(getattr(j, side), z)
    )


def _close_groups(d: Derivation, groups: dict, side: str, source: Ctx) -> Derivation:
    """Contract fresh argument copies together and restore original names."""
    for orig, copies in groups.items():
        if not copies:
            continue
        cur = copies[0]
        for nxt in copies[1:]:
            e1 = ctx_get(getattr(d.concl, side), cur)
            e2 = ctx_get(getattr(d.concl, side), nxt)
            merged = lf_sum(e1, e2)
            ghost = L.fresh_tvar(orig)
            d = contract(d, side, cur, nxt, ghost, merged)
            cur = ghost
        d = _rename_entry(d, side, cur, orig)
    return d


def lam_subst_derivation(pi: Derivation, x: str, rho: Derivation) -> Derivation:
    """Replace the hypothesis ``x`` by the argument derivation ``rho``."""
    entry = pi.concl.lam_get(x)
    if entry is None:
        raise DerivationError(f"{x} is not bound in the premise")
    sub = _Sub(rho, entry.binder, ZERO, "lam", x)
    out, gl, gm = _subst_walk(pi, {x: sub})
    out = _close_groups(out, gl, "lam", rho.concl.lam)
    out = _close_groups(out, gm, "mu", rho.concl.mu)
    return out


def mu_subst_derivation(pi: Derivation, alpha: str, rho: Derivation) -> Derivation:
    """Feed the argument to every naming of ``alpha`` (the μ-redex lemma)."""
    entry = pi.concl.mu_get(alpha)
    if entry is None:
        raise DerivationError(f"{alpha} is not bound in the premise")
    _, _, _, m_f = arrow_parts(entry.formula)
    target = lf(m_f, entry.binder, entry.label)
    sub = _Sub(rho, entry.binder, ZERO, "mu", alpha)
    out, gl, gm = _subst_walk(pi, {alpha: sub})
    copies = gm.pop(("copy", alpha), [])
    out = _close_groups(out, gl, "lam", rho.concl.lam)
    out = _close_groups(out, gm, "mu", rho.concl.mu)
    if not copies:
        out = weaken(out, "mu", alpha, target)
    else:
        cur = copies[0]
        for nxt in copies[1:]:
            e1 = out.concl.mu_get(cur)
            e2 = out.concl.mu_get(nxt)
            ghost = L.fresh_tvar(alpha)
            out = contract(out, "mu", cur, nxt, ghost, lf_sum(e1, e2))
            cur = ghost
        cur_entry = out.concl.mu_get(cur)
        out = rename_free_muvar(out, cur, alpha)
        if not lf_alpha_eq(cur_entry, target):
            out = ctx_lower(out, "mu", alpha, target)
    return out


def _adjust_to(d: Derivation, target: Judgment) -> Derivation:
    """Weaken and lower contexts until the conclusion matches ``target``."""
    d = lower_type(d, target.type)
    for side in ("lam", "mu"):
        have = getattr(d.concl, side)
        want = getattr(target, side)
        extra = ctx_dom(have) - ctx_dom(want)
        if extra:
            raise DerivationError(f"cannot drop hypotheses {sorted(extra)}")
        for v, a in want:
            cur = ctx_get(getattr(d.concl, side), v)
            if cur is None:
                d = weaken(d, side, v, a)
            elif not lf_alpha_eq(cur, a):
                d = ctx_lower(d, side, v, a)
    return present(d, target)


def _bare_redex_app(d: Derivation) -> tuple[Derivation, list[Derivation]]:
    """Peel structural rules off the function premise of an application."""
    assert d.rule == "app_m"
    fn, arg = d.premises
    wrappers = []
    while fn.rule in ("w_lam", "w_mu", "c_lam", "c_mu"):
        wrappers.append(fn)
        fn = fn.premise()
    if not wrappers:
        return d, []
    lam = fn.concl.lam + tuple(
        (v, ctx_get(d.concl.lam, v)) for v, _ in arg.concl.lam
    )
    mu = fn.concl.mu + tuple((v, ctx_get(d.concl.mu, v)) for v, _ in arg.concl.mu)
    bare = Derivation(
        "app_m",
        Judgment(lam, App(fn.concl.subject, arg.concl.subject), d.concl.type, mu),
        (fn, arg),
        dict(d.ann),
    )
    return bare, wrappers


def _fire_beta(d: Derivation) -> Derivation:
    fn, rho = d.premises
    if fn.rule != "abs":
        raise DerivationError("β-redex derivation must end in an abstraction")
    pi = fn.premise()
    x = fn.concl.subject.var
    out = lam_subst_derivation(pi, x, rho)
    reduct = L.subst(pi.concl.subject, x, rho.concl.subject)
    out = _adjust_to(out, replace(d.concl, subject=out.concl.subject))
    if not L.alpha_eq(out.concl.subject, reduct):
        raise DerivationError("substitution produced the wrong subject")
    return replace(out, concl=replace(out.concl, subject=reduct))


def _fire_mu(d: Derivation) -> Derivation:
    fn, rho = d.premises
    if fn.rule != "mu_abs":
        raise DerivationError("μ-redex derivation must end in a μ-abstraction")
    pi = fn.premise()
    beta = fn.concl.subject.mvar
    out = mu_subst_derivation(pi, beta, rho)
    node = Derivation(
        "mu_abs",
        Judgment(
            out.concl.lam,
            Mu(beta, out.concl.subject),
            out.concl.mu_get(beta),
            ctx_remove(out.concl.mu, beta),
        ),
        (out,),
    )
    return _adjust_to(node, replace(d.concl, subject=node.concl.subject))


def _replay_structurals(out: Derivation, wrappers: list[Derivation]) -> Derivation:
    """Re-apply peeled weakenings and contractions below ``out``."""
    for node in reversed(wrappers):
        if node.rule in ("w_lam", "w_mu"):
            side = "lam" if node.rule == "w_lam" else "mu"
            extra = ctx_dom(getattr(node.concl, side)) - ctx_dom(
                getattr(node.premise().concl, side)
            )
            (ev,) = extra
            out = weaken(out, side, ev, ctx_get(getattr(node.concl, side), ev))
        else:
            side = "lam" if node.rule == "c_lam" else "mu"
            z = node.ann["into"]
            out = contract(
                out, side, node.ann["left"], node.ann["right"], z,
                ctx_get(getattr(node.concl, side), z),
            )
    return out


def _fire_theta(d: Derivation) -> Derivation:
    # subject is mu a. [a] t with a not free in t
    alpha = d.concl.subject.mvar
    aliases = {alpha}
    replay: list[Derivation] = []
    cur = d.premise()
    while True:
        if cur.rule == "c_mu" and cur.ann["into"] in aliases:
            aliases |= {cur.ann["left"], cur.ann["right"]}
            cur = cur.premise()
        elif cur.rule == "w_mu":
            extra = ctx_dom(cur.concl.mu) - ctx_dom(cur.premise().concl.mu)
            (ev,) = extra
            if ev in aliases:
                cur = cur.premise()
            else:
                replay.append(cur)
                cur = cur.premise()
        elif cur.rule in ("c_lam", "w_lam", "c_mu"):
            replay.append(cur)
            cur = cur.premise()
        elif cur.rule == "mu_name_m" and cur.concl.subject.mvar in aliases:
            pi = cur.premise()
            break
        else:
            raise DerivationError("θ-redex derivation has an unexpected shape")
    for a in sorted(aliases):
        if pi.concl.mu_get(a) is not None:
            pi = drop_mu_entry(pi, a)
    out = _replay_structurals(pi, replay)
    return _adjust_to(out, replace(d.concl, subject=out.concl.subject))


# -- the per-rule definitions that the rule table replaced -----------------------
#
# ``bllp.typecheck.RULES`` states each rule's systems, subject class and
# messages, the context of the name it introduces and which judgments hold
# that name.  Before it, ``former_validate`` restated them rule by rule, with
# two hand-written context-shape checks per binder, and ``former_introduced``
# and ``former_congruence`` read the rule name.  ``former_validate`` compares
# contexts by the library's ``ctx_eq``, which no longer depends on the order
# of its arguments; ``former_ctx_eq`` is the one it replaced.

ADDITIVE_RULES = {"var", "abs", "app", "mu_name", "mu_abs"}
MULT_RULES = {"var_m", "abs", "app_m", "mu_name_m", "mu_abs", "w_lam", "c_lam", "w_mu", "c_mu"}
STRUCTURAL = ("w_lam", "w_mu", "c_lam", "c_mu")
SUBJECTS = {
    "var": (Var, "var subject must be a variable", None),
    "var_m": (Var, "var subject must be a variable", None),
    "abs": (Lam, "abs subject must be a λ-abstraction", "premise subject is not the abstraction body"),
    "app": (App, "app subject must be an application", "premise subjects do not match the application"),
    "app_m": (App, "app subject must be an application", "premise subjects do not match the application"),
    "mu_name": (Named, "mu_name subject must be a named term", "premise subject is not the named body"),
    "mu_name_m": (Named, "mu_name subject must be a named term", "premise subject is not the named body"),
    "mu_abs": (Mu, "mu_abs subject must be a μ-abstraction", "premise subject is not the abstraction body"),
    "w_lam": (None, None, "weakening must preserve subject and type"),
    "w_mu": (None, None, "weakening must preserve subject and type"),
    "c_lam": (None, None, "contraction must rename the subject accordingly"),
    "c_mu": (None, None, "contraction must rename the subject accordingly"),
}


def former_ctx_eq(c1: Ctx, c2: Ctx) -> bool:
    """Read each name of ``c1`` in ``c2``, first entry first: the answer
    could depend on the order of the two when one names a hypothesis twice."""
    if ctx_dom(c1) != ctx_dom(c2):
        return False
    return all(lf_alpha_eq(a, ctx_get(c2, n)) for n, a in c1)


def former_introduced(d: Derivation) -> str:
    s = d.concl.subject
    if s is not None and d.rule not in STRUCTURAL:
        return s.name if type(s) is Var else s.var if type(s) is Lam else s.mvar
    side = "mu" if d.rule in ("mu_abs", "mu_name_m", "w_mu") else "lam"
    here = getattr(d.concl, side)
    if not d.premises:
        return here[0][0]
    there = getattr(d.premise().concl, side)
    more, fewer = (there, here) if d.rule in ("abs", "mu_abs") else (here, there)
    (name,) = ctx_dom(more) - ctx_dom(fewer)
    return name


def _former_subject_errors(d: Derivation) -> list[str]:
    s = d.concl.subject
    below = [p.concl.subject for p in d.premises]
    if s is None or not below or any(t is None for t in below):
        return []
    cls, _, message = SUBJECTS[d.rule]
    want = below[0] if cls is None else App(*below) if cls is App else cls(former_introduced(d), below[0])
    renaming = {}
    if d.rule in ("c_lam", "c_mu"):
        renaming = {d.ann["left"]: d.ann["into"], d.ann["right"]: d.ann["into"]}
    renamings = (renaming, None) if d.rule == "c_lam" else (None, renaming)
    return [] if L.alpha_eq(s, want, *renamings) else [message]


def former_validate(d: Derivation, system: str) -> list[str]:
    errs = T._judgment_errors(d.concl)
    j = d.concl
    rule = d.rule
    allowed = ADDITIVE_RULES if system == "additive" else MULT_RULES
    if rule not in allowed:
        return errs + [f"rule {rule!r} not part of the {system} system"]
    cls, wrong_class, _ = SUBJECTS[rule]
    arity = {Var: 0, App: 2}.get(cls, 1)
    if len(d.premises) != arity:
        return errs + [f"{rule} expects {arity} premises, found {len(d.premises)}"]
    if j.subject is not None and cls is not None and not isinstance(j.subject, cls):
        return errs + [wrong_class]

    try:
        wrong_subject = _former_subject_errors(d)
        errs += wrong_subject
        if rule in ("var", "var_m"):
            x = former_introduced(d)
            entry = j.lam_get(x)
            if entry is None:
                return errs + [f"variable {x} missing from the context"]
            if rule == "var_m" and (len(j.lam) != 1 or j.mu):
                errs.append("multiplicative var carries exactly its own hypothesis")
            errs += T._check_var_conditions(entry, j.type)

        elif rule == "abs":
            p0 = d.premise().concl
            x = former_introduced(d)
            parts = arrow_parts(j.type.formula)
            if parts is None:
                return errs + ["abs type must be an arrow"]
            n_f, z, s, m_f = parts
            entry = p0.lam_get(x)
            if entry is None:
                return errs + [f"premise does not bind {x}"]
            want_entry = F.WhyNot(z, s, F.negate(n_f))
            if not F.alpha_eq(entry.formula, want_entry, (entry.binder, j.type.binder)):
                errs.append("hypothesis formula does not match the arrow source")
            if not F.alpha_eq(p0.type.formula, m_f, (p0.type.binder, j.type.binder)):
                errs.append("premise type does not match the arrow target")
            if not poly_leq(p0.type.label, j.type.label):
                errs.append(f"arrow label too small: {p0.type.label} ⋢ {j.type.label}")
            if not poly_leq(entry.label, j.type.label):
                errs.append(f"arrow label below hypothesis budget: {entry.label} ⋢ {j.type.label}")
            if not ctx_eq(ctx_remove(p0.lam, x), j.lam):
                errs.append("abs must preserve the remaining λ-context")
            if not ctx_eq(p0.mu, j.mu):
                errs.append("abs must preserve the μ-context")

        elif rule in ("app", "app_m"):
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
            lam_w = d.ann.get("sum_witness_lam", {})
            mu_w = d.ann.get("sum_witness_mu", {})
            if rule == "app":
                errs += T._check_additive_merge(j.lam, jt.lam, ju.lam, h, lam_w, "λ")
                errs += T._check_additive_merge(j.mu, jt.mu, ju.mu, h, mu_w, "μ")
            else:
                errs += T._check_mult_merge(j.lam, jt.lam, ju.lam, h, lam_w, "λ")
                errs += T._check_mult_merge(j.mu, jt.mu, ju.mu, h, mu_w, "μ")

        elif rule == "mu_name":
            p0 = d.premise().concl
            a = former_introduced(d)
            if not isinstance(j.type.formula, F.Bottom):
                errs.append("naming must conclude at type bot")
            merged = j.mu_get(a)
            old = p0.mu_get(a)
            if merged is None or old is None:
                return errs + [f"μ-variable {a} must appear in premise and conclusion"]
            if not T.fits_uplus(merged, [p0.type, old]):
                errs.append(f"entry for {a} is not below the merged types")
            if not ctx_eq(j.lam, p0.lam):
                errs.append("mu_name must preserve the λ-context")
            if not ctx_eq(ctx_remove(j.mu, a), ctx_remove(p0.mu, a)):
                errs.append("mu_name must preserve the remaining μ-context")

        elif rule == "mu_name_m":
            p0 = d.premise().concl
            a = former_introduced(d)
            if p0.mu_get(a) is not None:
                errs.append(f"μ-variable {a} must be fresh for the premise")
            if not isinstance(j.type.formula, F.Bottom):
                errs.append("naming must conclude at type bot")
            entry = j.mu_get(a)
            if entry is None or not lf_alpha_eq(entry, p0.type):
                errs.append(f"conclusion must move the type onto {a}")
            if not ctx_eq(j.lam, p0.lam):
                errs.append("mu_name must preserve the λ-context")
            if not ctx_eq(ctx_remove(j.mu, a), p0.mu):
                errs.append("mu_name must preserve the remaining μ-context")

        elif rule == "mu_abs":
            p0 = d.premise().concl
            b = former_introduced(d)
            if not isinstance(p0.type.formula, F.Bottom):
                errs.append("premise type must be bot")
            entry = p0.mu_get(b)
            if entry is None:
                return errs + [f"premise must bind {b}"]
            if not lf_alpha_eq(entry, j.type):
                errs.append("conclusion type must be the bound μ-entry")
            if not ctx_eq(j.lam, p0.lam):
                errs.append("mu_abs must preserve the λ-context")
            if not ctx_eq(j.mu, ctx_remove(p0.mu, b)):
                errs.append("mu_abs must preserve the remaining μ-context")

        elif rule in ("w_lam", "w_mu"):
            p0 = d.premise().concl
            side, other = ("lam", "mu") if rule == "w_lam" else ("mu", "lam")
            cur, prev = getattr(j, side), getattr(p0, side)
            extra = ctx_dom(cur) - ctx_dom(prev)
            if len(extra) != 1 or not ctx_eq(ctx_remove(cur, *extra), prev):
                errs.append("weakening must add exactly one hypothesis")
            if not ctx_eq(getattr(j, other), getattr(p0, other)):
                errs.append("weakening must preserve the other context")
            if not (wrong_subject or lf_alpha_eq(j.type, p0.type)):
                errs.append("weakening must preserve subject and type")

        elif rule in ("c_lam", "c_mu"):
            p0 = d.premise().concl
            x1, x2, z = d.ann["left"], d.ann["right"], d.ann["into"]
            side = "lam" if rule == "c_lam" else "mu"
            cur, prev = getattr(j, side), getattr(p0, side)
            n1, n2 = ctx_get(prev, x1), ctx_get(prev, x2)
            merged = ctx_get(cur, z)
            if n1 is None or n2 is None or merged is None:
                return errs + ["contraction endpoints missing from the contexts"]
            if not T.fits_uplus(merged, [n1, n2]):
                errs.append(f"contracted entry for {z} is not below the sum")
            if not ctx_eq(ctx_remove(cur, z), ctx_remove(prev, x1, x2)):
                errs.append("contraction must preserve the remaining context")
            other = "mu" if side == "lam" else "lam"
            if not ctx_eq(getattr(j, other), getattr(p0, other)):
                errs.append("contraction must preserve the other context")
            if not lf_alpha_eq(j.type, p0.type):
                errs.append("contraction must preserve the type")

    except (F.ShapeMismatch, AssertionError, LookupError, ValueError) as exc:
        errs.append(f"malformed node: {exc}")
    return errs


def former_congruence(d: Derivation, prem: Derivation) -> Derivation:
    """The ``abs``, ``mu_abs`` or ``mu_name_m`` node ``d`` rebuilt over the
    rewritten premise ``prem``, as subject reduction's congruences built it."""
    j = d.concl
    if d.rule == "abs":
        x = former_introduced(d)
        concl = Judgment(ctx_remove(prem.concl.lam, x), None, j.type, prem.concl.mu)
        return Derivation("abs", concl, (prem,), dict(d.ann))
    if d.rule == "mu_abs":
        b = former_introduced(d)
        concl = Judgment(prem.concl.lam, None, j.type, ctx_remove(prem.concl.mu, b))
        return Derivation("mu_abs", concl, (prem,), dict(d.ann))
    a = former_introduced(d)
    concl = Judgment(prem.concl.lam, None, j.type, ((a, prem.concl.type),) + prem.concl.mu)
    return Derivation("mu_name_m", concl, (prem,))
