"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 2's weak count is 1: after the root β the only redex left sits under
the μ-binder, which weak reduction never enters (see ``lammu.step``).
"""

import random
import time

import pytest

from bllp import corpus as C
from bllp import formula as F
from bllp import lammu as L
from bllp import machine as M
from bllp import proofs as P
from bllp import respoly as R
from bllp.lammu import App, Lam, Mu, Named, Var
from bllp.machine import EMPTY, Closure, Config
from bllp.syntax import parse_term
from bllp.typecheck import add_to_mult, check_additive, check_mult, subject_reduce
from proofs_oracle import proof_sim
from respoly_oracle import fd_oracle, sub_checked

DERIVED = [e for e in C.entries() if e.derivation is not None]


def verdict(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    return ok


def zeros(p: R.Poly) -> int:
    return R.eval_poly(p, {v: 0 for v in p.free_vars()})


def mapped(entry):
    return P.map_derivation(add_to_mult(entry.derivation))


# -- 1. polynomial oracle equivalence -------------------------------------------------


def _random_poly(rng, vars, max_terms=3, max_total_degree=4, max_coeff=5):
    p = R.ZERO
    for _ in range(rng.randint(0, max_terms)):
        term = R.const(rng.randint(1, max_coeff))
        budget = max_total_degree
        for v in vars:
            d = rng.randint(0, min(2, budget))
            budget -= d
            if d:
                term = R.mul(term, R.binom(v, d))
        p = R.add(p, term)
    return p


def _sample_env(rng, vars, hi=5):
    return {v: rng.randint(0, hi) for v in vars}


def test_criterion_1_polynomial_oracles():
    rng = random.Random(20260808)
    start = time.monotonic()
    failures = []
    for i in range(80):  # products
        p = _random_poly(rng, ["x", "y", "z"])
        q = _random_poly(rng, ["x", "y", "z"])
        got = R.mul(p, q)
        vs = p.free_vars() | q.free_vars()
        bounds = {v: p.degree(v) + q.degree(v) for v in vs}
        ref = fd_oracle(
            lambda e: R.eval_poly(p, e) * R.eval_poly(q, e), vs, bounds
        )
        if got != ref:
            failures.append(("mul", p, q))
        env = _sample_env(rng, ["x", "y", "z"])
        if R.eval_poly(got, env) != R.eval_poly(p, env) * R.eval_poly(q, env):
            failures.append(("mul-eval", p, q))
    for i in range(60):  # compositions
        p = _random_poly(rng, ["x", "y"], max_total_degree=3)
        q = _random_poly(rng, ["y", "z"], max_terms=2, max_total_degree=2)
        got = R.compose(p, "x", q)
        vs = (p.free_vars() - {"x"}) | q.free_vars()
        bounds = {
            v: p.degree("x") * q.degree(v) + p.degree(v) for v in vs
        }
        ref = fd_oracle(
            lambda e: R.eval_poly(p, {**e, "x": R.eval_poly(q, e)}), vs, bounds
        )
        if got != ref:
            failures.append(("compose", p, q))
        env = _sample_env(rng, ["x", "y", "z"])
        if R.eval_poly(got, env) != R.eval_poly(
            p, {**env, "x": R.eval_poly(q, env)}
        ):
            failures.append(("compose-eval", p, q))
    for i in range(60):  # bounded sums
        body = _random_poly(rng, ["z", "x"], max_total_degree=3)
        bound = _random_poly(rng, ["y"], max_terms=2, max_total_degree=2)
        got = R.bounded_sum("z", bound, body)

        def brute(e):
            return sum(
                R.eval_poly(body, {**e, "z": k})
                for k in range(R.eval_poly(bound, e))
            )

        vs = (body.free_vars() - {"z"}) | bound.free_vars()
        bounds = {
            v: bound.degree(v) * (body.degree("z") + 1) + body.degree(v)
            for v in vs
        }
        ref = fd_oracle(brute, vs, bounds)
        if got != ref:
            failures.append(("sum", bound, body))
        env = _sample_env(rng, ["x", "y"], hi=4)
        if R.eval_poly(got, env) != brute(env):
            failures.append(("sum-eval", bound, body))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    assert verdict(
        "criterion 1: polynomial oracle equivalence",
        ok,
        f"200 instances, {elapsed:.2f}s, {len(failures)} mismatches",
    )


# -- 2. callcc behavior ----------------------------------------------------------------


def test_criterion_2_callcc_behavior():
    term = App(C.KAPPA, Lam("k", Var("y")))
    head_nf, head_steps, _ = L.reduce(term, "head", 50)
    head_ok = head_nf == Var("y") and head_steps == 3
    # One root β exposes mu a.[a]((\k.y) \y.mu b.[a]y); its only redex is
    # under the μ-binder, so weak reduction stalls there.  Two steps would
    # reach mu a.[a]y, which θ reduces to y (the head count of 3 relies on it).
    stalled_at = Mu(
        "a", Named("a", App(Lam("k", Var("y")), Lam("y", Mu("b", Named("a", Var("y"))))))
    )
    weak_nf, weak_steps, _ = L.reduce(term, "weak", 50)
    weak_trace = [(kind, pos) for kind, pos, _ in L.trace(term, "weak", 50)]
    stalled = L.step(weak_nf, "weak") is None and L.alpha_eq(weak_nf, stalled_at)
    declared_steps = C.by_name("kappa-callcc").expected["weak"][1]
    weak_ok = (
        stalled
        and weak_steps == 1
        and weak_trace == [("beta", ())]
        and weak_steps == declared_steps
    )
    ok = head_ok and weak_ok
    assert verdict(
        "criterion 2: callcc behavior",
        ok,
        f"head=(y,{head_steps}), weak trace={weak_trace}, stalled at the μ-named"
        f" term={stalled} after {weak_steps} step(s) (corpus declares {declared_steps})",
    )


# -- 3. the control-operator spine ------------------------------------------------------


def test_criterion_3_control_spine():
    ok = True
    details = []
    for k in range(4):
        args = [Var(f"t{i}") for i in range(1, k + 1)]
        term = L.app_spine(C.ALEPH, Var("w"), *args)
        expected = Mu(
            "a", App(Var("w"), Lam("x", Named("a", L.app_spine(Var("x"), *args))))
        )
        nf, steps, _ = L.reduce(term, "head", 100)
        good = L.alpha_eq(nf, expected) and steps == 1 + k
        ok = ok and good
        details.append(f"k={k}:{steps}")
    assert verdict("criterion 3: control-operator spine", ok, " ".join(details))


# -- 4. the two figure derivations -------------------------------------------------------


def test_criterion_4_figure_derivations():
    results = []
    for name in ("kappa", "aleph"):
        d = C.by_name(name).derivation
        add_ok = check_additive(d).ok
        m = add_to_mult(d)
        mult_ok = check_mult(m).ok
        proof_ok = P.check_proof(P.map_derivation(m)).ok
        results.append((name, add_ok, mult_ok, proof_ok))
    ok = all(a and b and c for _, a, b, c in results)
    assert verdict(
        "criterion 4: figure derivations",
        ok,
        "; ".join(f"{n}: additive={a} mult={b} proof={c}" for n, a, b, c in results),
    )


# -- 5. subject reduction ---------------------------------------------------------------


def test_criterion_5_subject_reduction():
    ok = True
    details = []
    for e in DERIVED:
        d = add_to_mult(e.derivation)
        weights = [P.weight(P.map_derivation(d))]
        while L.step(d.concl.subject, "head") is not None:
            d = subject_reduce(d)
            if not check_mult(d).ok:
                ok = False
                details.append(f"{e.name}: check fails")
                break
            weights.append(P.weight(P.map_derivation(d)))
        else:
            strict = all(
                R.poly_leq(b, a) and a != b for a, b in zip(weights, weights[1:])
            )
            if not strict:
                ok = False
                details.append(f"{e.name}: weights not strictly decreasing")
    assert verdict(
        "criterion 5: subject reduction with decreasing weights",
        ok,
        "; ".join(details) or f"{len(DERIVED)} entries",
    )


# -- 6. polystep soundness ----------------------------------------------------------------


def test_criterion_6_polystep_soundness():
    ok = True
    details = []
    for e in DERIVED:
        w = zeros(P.weight(mapped(e)))
        _, n, exhausted = L.reduce(e.term, "head", w + 1)
        if exhausted or n > w:
            ok = False
            details.append(f"{e.name}: {n} > {w}")
        else:
            details.append(f"{e.name}:{n}<={w}")
    assert verdict("criterion 6: polystep soundness", ok, " ".join(details))


# -- 7. cut elimination -------------------------------------------------------------------


def test_criterion_7_cut_elimination():
    start = time.monotonic()
    ok = True
    details = []
    for e in DERIVED:
        pf = mapped(e)
        budget = zeros(P.weight(pf))
        steps = 0
        while True:
            w_before = P.weight(pf)
            hit = P.step_special(pf)
            if hit is None:
                break
            if P.weight(hit.exposed) != w_before:
                ok = False
                details.append(f"{e.name}: commutation changed the weight")
                break
            w_after = P.weight(hit.result)
            if not (R.poly_leq(w_after, w_before) and w_after != w_before):
                ok = False
                details.append(f"{e.name}: no strict decrease")
                break
            pf = hit.result
            steps += 1
            if steps > budget:
                ok = False
                details.append(f"{e.name}: exceeded weight budget {budget}")
                break
        if not P.check_proof(pf).ok:
            ok = False
            details.append(f"{e.name}: normal form fails checking")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    assert verdict(
        "criterion 7: cut elimination",
        ok,
        "; ".join(details) or f"{len(DERIVED)} proofs in {elapsed:.2f}s",
    )


# -- 8. machine agreement -------------------------------------------------------------------


def test_criterion_8_machine_agreement():
    ok = True
    details = []
    for e in C.entries():
        nf, _, exhausted = L.reduce(e.term, "machine", 1000)
        if exhausted:
            continue
        final, _, run_exhausted = M.run(M.load(e.term))
        if run_exhausted or not L.alpha_eq(M.readback(final), nf):
            ok = False
            details.append(f"{e.name}: readback disagrees")
    # golden traces for the three transition rows
    env = EMPTY.bind_lam("v", Closure(Var("z"), EMPTY))
    out, rule = M.step(Config(Closure(App(Var("t"), Var("u")), env), ()))
    ok &= rule == "push" and out == Config(
        Closure(Var("t"), env), (Closure(Var("u"), env),)
    )
    stack = (Closure(Var("u"), EMPTY),)
    out, rule = M.step(Config(Closure(Mu("a", Var("t")), EMPTY), stack))
    ok &= rule == "capture" and out.stack == () and out.closure.env.mu["a"] == stack
    env2 = EMPTY.bind_mu("a", stack)
    out, rule = M.step(Config(Closure(Named("a", Var("t")), env2), ()))
    ok &= rule == "restore" and out == Config(Closure(Var("t"), env2), stack)
    assert verdict(
        "criterion 8: machine agreement", bool(ok), "; ".join(details) or "all entries"
    )


# -- 9. malleability ---------------------------------------------------------------------


def test_criterion_9_malleability():
    rng = random.Random(99)
    pool = [mapped(e) for e in DERIVED]
    boxes = []

    def visit(p):
        if p.rule == "bang":
            boxes.append(p)
        for q in p.premises:
            visit(q)

    for pf in pool:
        visit(pf)
    bad = 0
    done = 0
    while done < 100:
        mode = rng.choice(["subtype", "subst", "split", "parsplit"])
        if mode == "subtype":
            pf = rng.choice(pool)
            idx = rng.randrange(len(pf.concl))
            a = pf.concl[idx]
            if a.formula.positive:
                continue
            out = P.m_subtype(
                pf, idx, F.LF(a.formula, a.binder, a.label + R.const(rng.randint(1, 3)))
            )
        elif mode == "subst":
            pf = rng.choice(pool)
            out = P.m_subst(pf, "q", R.const(rng.randint(0, 4)))
        else:
            box = rng.choice(boxes)
            q = box.concl[box.data["idx"]].label
            rest = sub_checked(q, R.ONE)
            if rest is None:
                continue
            if mode == "split":
                rho, sigma = P.m_split(box, R.ONE, rest)
                pf, out = box, rho
                if not (P.check_proof(sigma).ok and proof_sim(sigma, box)):
                    bad += 1
            else:
                pf, out = box, P.m_parsplit(box, R.ONE, q)
        if not (P.check_proof(out).ok and proof_sim(out, pf)):
            bad += 1
        done += 1
    assert verdict("criterion 9: malleability suite", bad == 0, f"{done} perturbations, {bad} failures")


# -- supporting check: the bundled corpus matches its declared behavior ---------------------


def test_corpus_declared_expectations():
    for e in C.entries():
        for strategy, expected in e.expected.items():
            if expected is None:
                continue
            nf, steps, exhausted = L.reduce(e.term, strategy, 1000)
            assert not exhausted, f"{e.name}/{strategy} exhausted"
            want_nf, want_steps = expected
            assert L.alpha_eq(nf, want_nf), f"{e.name}/{strategy} normal form"
            assert steps == want_steps, f"{e.name}/{strategy}: {steps} != {want_steps}"
