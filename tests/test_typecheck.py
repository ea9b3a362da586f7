import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import typecheck_oracle as TO
from bllp import corpus as C
from bllp import formula as F
from bllp import lammu as L
from bllp import respoly as R
from bllp import typecheck as T
from bllp.formula import LF, lf
from bllp.proofs import check_proof, map_derivation, weight
from bllp.record import replace
from bllp.respoly import const, poly_leq, pvar
from bllp.syntax import derivation_from_obj, derivation_to_obj, parse_lf, parse_poly
from bllp.typecheck import (
    Derivation,
    DerivationError,
    add_to_mult,
    check_additive,
    check_mult,
    ctx_lower,
    lower_type,
    subject_reduce,
    subst_derivation,
)

P = parse_poly


def chain(entry):
    d = add_to_mult(entry.derivation)
    out = [d]
    while L.step(out[-1].concl.subject, "head") is not None:
        out.append(subject_reduce(out[-1]))
    return out


# -- acceptance of the bundled derivations ------------------------------------


@pytest.mark.parametrize("name", [e.name for e in C.entries() if e.derivation])
def test_corpus_derivations_check(name):
    d = C.by_name(name).derivation
    assert check_additive(d).ok


def test_kappa_accepts_at_the_stated_instance():
    assert check_additive(C.kappa_derivation(const(1), const(1), const(2))).ok


def test_kappa_rejects_zero_budget():
    rep = check_additive(C.kappa_derivation(const(1), const(1), const(0)))
    assert not rep.ok


def test_kappa_generic_parameters():
    r, s = pvar("r"), pvar("s")
    from bllp.respoly import add, mul

    k = add(r, mul(s, r)) + const(1)
    assert check_additive(C.kappa_derivation(r, s, k)).ok


def test_aleph_accepts_and_needs_one_use():
    assert check_additive(C.aleph_derivation(const(1), const(1), const(1))).ok
    assert not check_additive(C.aleph_derivation(const(1), const(1), const(0))).ok


def test_var_requires_entry():
    d = C.node(
        "var",
        C.jm([("x", C.modal(C.X, 1, 1))], L.Var("y"), lf(C.X, F.VACUOUS, 1)),
    )
    assert not check_additive(d).ok


def test_var_requires_budget():
    d = C.node(
        "var",
        C.jm([("x", C.modal(C.X, 1, 0))], L.Var("x"), lf(C.X, F.VACUOUS, 1)),
    )
    rep = check_additive(d)
    assert not rep.ok and "one use" in str(rep)


# -- elaboration ----------------------------------------------------------------


@pytest.mark.parametrize("name", [e.name for e in C.entries() if e.derivation])
def test_add_to_mult_checks(name):
    m = add_to_mult(C.by_name(name).derivation)
    assert check_mult(m).ok


def test_multiplicative_var_rejects_extra_context():
    d = Derivation(
        "var_m",
        C.jm(
            [("x", C.modal(C.X, 1, 1)), ("y", C.modal(C.X, 1, 1))],
            L.Var("x"),
            lf(C.X, F.VACUOUS, 1),
        ),
    )
    assert not check_mult(d).ok


def test_elaborated_var_inserts_weakenings():
    d = C.node(
        "var",
        C.jm(
            [("x", C.modal(C.X, 1, 1)), ("y", C.modal(C.Y, 1, 1))],
            L.Var("x"),
            lf(C.X, F.VACUOUS, 1),
        ),
    )
    m = add_to_mult(d)
    rules = []
    cur = m
    while cur.premises:
        rules.append(cur.rule)
        cur = cur.premise()
    rules.append(cur.rule)
    assert rules == ["w_lam", "var_m"]
    assert check_mult(m).ok


def test_elaborated_shared_variable_contracts():
    m = add_to_mult(C.church_derivation(2))

    def rules(d):
        yield d.rule
        for q in d.premises:
            yield from rules(q)

    assert "c_lam" in set(rules(m))


def test_identity_elaboration_shape():
    d_id = C.identity_applied_derivation().premise(0)
    m = add_to_mult(d_id)
    assert m.rule == "abs" and m.premise().rule == "var_m"


ELABORATED = {e.name: e.derivation for e in C.entries() if e.derivation}
ELABORATED.update({f"church-{n}": C.church_derivation(n) for n in (1, 2, 8, 48)})


@pytest.mark.parametrize("name", sorted(ELABORATED))
def test_mult_contraction_renames_subject(name):
    """The elaboration's root keeps the additive subject, names included,
    though its contractions rename the copies of shared variables below."""
    d = ELABORATED[name]
    assert add_to_mult(d).concl.subject == d.concl.subject


# -- subject reduction ------------------------------------------------------------


@pytest.mark.parametrize("name", [e.name for e in C.entries() if e.derivation])
def test_subject_reduction_chain(name):
    entry = C.by_name(name)
    ds = chain(entry)
    term = entry.term
    for k, d in enumerate(ds):
        assert check_mult(d).ok, f"step {k} fails"
        assert L.alpha_eq(d.concl.subject, term)
        nxt = L.step(term, "head")
        if k + 1 < len(ds):
            term = nxt[0]
    assert L.step(ds[-1].concl.subject, "head") is None


def test_subject_reduction_preserves_judgment():
    entry = C.by_name("kappa-callcc")
    ds = chain(entry)
    first, last = ds[0].concl, ds[-1].concl
    assert {v for v, _ in first.lam} == {v for v, _ in last.lam}
    assert F.lf_alpha_eq(first.type, last.type)


def test_subject_reduce_rejects_normal_forms():
    d = add_to_mult(C.by_name("kappa").derivation)
    with pytest.raises(DerivationError):
        subject_reduce(d)


def test_subject_reduce_rejects_non_redex_position():
    d = add_to_mult(C.by_name("identity-app").derivation)
    with pytest.raises(DerivationError):
        subject_reduce(d, ("mu",))


def test_theta_case_via_kappa():
    entry = C.by_name("kappa-callcc")
    ds = chain(entry)
    assert isinstance(ds[2].concl.subject, L.Mu)
    assert isinstance(ds[3].concl.subject, L.Var)


# -- malleability at the derivation level ------------------------------------------


def test_lower_type_label_inflation():
    m = add_to_mult(C.by_name("kappa").derivation)
    t = m.concl.type
    target = LF(t.formula, t.binder, t.label + const(3))
    out = lower_type(m, target)
    assert check_mult(out).ok
    assert out.concl.type.label == t.label + const(3)


def test_ctx_lower_label_inflation():
    m = add_to_mult(C.by_name("identity-app").derivation)
    cur = m.concl.lam_get("y0")
    target = LF(cur.formula, cur.binder, cur.label + const(2))
    out = ctx_lower(m, "lam", "y0", target)
    assert check_mult(out).ok


def test_subst_derivation_keeps_validity():
    r, s = pvar("r"), pvar("s")
    from bllp.respoly import add, mul

    k = add(r, mul(s, r)) + const(1)
    d = add_to_mult(C.kappa_derivation(r, s, k))
    inst = subst_derivation(subst_derivation(d, "r", const(2)), "s", const(3))
    assert check_mult(inst).ok


def test_subst_derivation_commutes_for_disjoint_vars():
    r, s = pvar("r"), pvar("s")
    from bllp.respoly import add, mul

    k = add(r, mul(s, r)) + const(1)
    d = add_to_mult(C.kappa_derivation(r, s, k))
    a = subst_derivation(subst_derivation(d, "r", const(2)), "s", const(3))
    b = subst_derivation(subst_derivation(d, "s", const(3)), "r", const(2))
    assert a.concl == b.concl


def test_contraction_sum_condition_rejected():
    prem = Derivation(
        "var_m",
        C.jm([("x1", C.modal(C.X, 1, 1))], L.Var("x1"), lf(C.X, F.VACUOUS, 1)),
    )
    prem = Derivation(
        "w_lam",
        C.jm(
            [("x1", C.modal(C.X, 1, 1)), ("x2", C.modal(C.X, 1, 1))],
            L.Var("x1"),
            lf(C.X, F.VACUOUS, 1),
        ),
        (prem,),
    )
    bad = Derivation(
        "c_lam",
        C.jm([("x", C.modal(C.X, 1, 1))], L.Var("x"), lf(C.X, F.VACUOUS, 1)),
        (prem,),
        {"left": "x1", "right": "x2", "into": "x"},
    )
    rep = check_mult(bad)
    assert not rep.ok and "below the sum" in str(rep)
    good = Derivation(
        "c_lam",
        C.jm([("x", C.modal(C.X, 1, 2))], L.Var("x"), lf(C.X, F.VACUOUS, 1)),
        (prem,),
        {"left": "x1", "right": "x2", "into": "x"},
    )
    assert check_mult(good).ok


def test_elaboration_equivalence_under_label_perturbation():
    from bllp.respoly import add, mul

    for bump in (0, 1, 3):
        r, s = const(1), const(1)
        k = add(const(2), const(bump))
        d = C.kappa_derivation(r, s, k)
        assert check_additive(d).ok
        assert check_mult(add_to_mult(d)).ok
    bad = C.kappa_derivation(const(1), const(1), const(1))
    assert not check_additive(bad).ok


def test_symbolic_parameters_through_the_whole_pipeline():
    from bllp.proofs import check_proof, map_derivation, step_special, weight
    from bllp.respoly import add, mul

    r, s = pvar("r"), pvar("s")
    k = add(add(r, mul(s, r)), const(1))
    d = C.kappa_derivation(r, s, k)
    assert check_additive(d).ok
    m = add_to_mult(d)
    assert check_mult(m).ok
    pf = map_derivation(m)
    assert check_proof(pf).ok
    weights = [weight(pf)]
    while (hit := step_special(pf)) is not None:
        pf = hit.result
        assert check_proof(pf).ok
        weights.append(weight(pf))
    assert len(weights) > 1
    assert all(poly_leq(b, a) and a != b for a, b in zip(weights, weights[1:]))
    assert {"r"} <= weights[0].free_vars()


def _replace_node(tree, path, **changes):
    if not path:
        return replace(tree, **changes)
    prems = list(tree.premises)
    prems[path[0]] = _replace_node(prems[path[0]], path[1:], **changes)
    return replace(tree, premises=tuple(prems))


def test_derivations_and_proofs_share_one_checker_and_its_paths():
    from bllp import proofs

    assert proofs.Report is T.Report
    d = C.by_name("kappa").derivation
    d = _replace_node(d, (0, 0), rule="bogus")
    d = _replace_node(d, (0, 0, 0, 1), rule="var")
    assert str(check_additive(d)) == (
        "root.0.0: rule 'bogus' not part of the additive system\n"
        "root.0.0.0.1: var expects 0 premises, found 1"
    )
    pf = proofs.map_derivation(add_to_mult(C.by_name("identity-app").derivation))
    flipped = pf.at((0, 0)).concl[::-1]
    pf = _replace_node(pf, (0, 0), concl=flipped)
    pf = _replace_node(pf, (1, 0), rule="bogus")
    assert str(proofs.check_proof(pf)) == (
        "root.0: par left component mismatch\n"
        "root.0: par right component mismatch\n"
        "root.0.0: dereliction conclusion exceeds the one-use bound\n"
        "root.0.0: conclusion position 1 does not match the premise\n"
        "root.1.0: unknown rule 'bogus'"
    )


def _path(text: str) -> tuple[int, ...]:
    return tuple(int(k) for k in text.split(".")[1:])


def _node(tree, path):
    for k in path:
        tree = tree.premises[k]
    return tree


# Church-2: (checker, path, the entry at that node, its corruption, message).
# The two par messages are pinned by the shared-checker test above.
CHURCH_2_CORRUPTIONS = [
    ("proof", "root.0.0.0.0.0.1", "<!{1} ~X * X>[1]", "<!{2} ~X * X>[1]", "tensor component mismatch"),
    ("proof", "root.0.0.0.0.0.1.0", "<!{1} ~X>[1]", "<!{1} ~Y>[1]", "bang body mismatch"),
    (
        "mult", "root.0.0.0", "<?{1} X par ~X>[1]", "<?{2} X par ~X>[1]",
        "hypothesis formula does not match the arrow source",
    ),
    (
        "mult", "root.0.0.0", "<?{1} X par ~X>[1]", "<?{1} X par ~Y>[1]",
        "premise type does not match the arrow target",
    ),
    ("mult", "root.0.0.0.0.0.1", "<~X>[1]", "<~Y>[1]", "result type does not match the arrow target"),
    ("mult", "root.0.0.0.0.0.1.1", "<~X>[1]", "<~Y>[1]", "type is not a subtype of the hypothesis instance"),
]


@pytest.mark.parametrize("checker, path, entry, corrupted, message", CHURCH_2_CORRUPTIONS)
def test_a_corrupted_formula_is_reported_at_its_node(checker, path, entry, corrupted, message):
    """One conclusion entry (proofs) or type (derivations) of the checked
    church-2 tree is changed; the node reports exactly that comparison."""
    from bllp import proofs

    tree = add_to_mult(C.church_applied_derivation(2))
    if checker == "proof":
        tree, check = proofs.map_derivation(tree), proofs.check_proof
    else:
        check = check_mult
    assert check(tree).ok
    node = _node(tree, _path(path))
    if checker == "proof":
        k = [str(a) for a in node.concl].index(entry)
        change = {"concl": node.concl[:k] + (parse_lf(corrupted),) + node.concl[k + 1 :]}
    else:
        assert str(node.concl.type) == entry
        change = {"concl": replace(node.concl, type=parse_lf(corrupted))}
    errors = check(_replace_node(tree, _path(path), **change)).errors
    assert [msg for p, msg in errors if p == path] == [message]


def test_a_variable_type_is_compared_under_its_own_binder_and_the_entry_binder():
    """The hypothesis instance ``N`` is under the entry's ``?`` binder ``z``,
    the type under its label binder: a type under ``v`` that reads ``v``
    where ``N`` reads ``z`` fits, one that reads a free ``v`` does not."""
    n = F.arrow(F.NegAtom("X"), "w", pvar("z"), F.BOTTOM)  # ?{w<z} X par bot
    entry = lf(F.WhyNot("z", const(1), F.negate(n)), F.VACUOUS, 1)

    def var(ty):
        return Derivation("var_m", T.Judgment((("x", entry),), L.Var("x"), ty, ()), ())

    assert check_mult(var(LF(F.arrow(F.NegAtom("X"), "w", pvar("v"), F.BOTTOM), "v", const(1)))).ok
    bad = LF(F.arrow(F.NegAtom("X"), "w", pvar("v"), F.BOTTOM), "q", const(1))
    assert check_mult(var(bad)).errors == [("root", "type is not a subtype of the hypothesis instance")]


def test_a_contraction_of_summands_that_are_no_shift_is_reported_at_its_node():
    """The contracted entries of church-2's ``c_lam`` are summed by ``⊎``;
    giving the first a used binder makes the second no shift of it."""
    tree = add_to_mult(C.church_applied_derivation(2))
    node = _node(tree, _path("root.0.0.0.0"))
    assert node.rule == "c_lam"
    prem = node.premise().concl
    x1 = node.ann["left"]
    used = parse_lf("<?{y} (!{1} ~X * X)>[y<1]")
    lam = tuple((x, used if x == x1 else a) for x, a in prem.lam)
    bad = _replace_node(tree, _path("root.0.0.0.0.0"), concl=replace(prem, lam=lam))
    errors = check_mult(bad).errors
    assert ("root.0.0.0.0", "malformed node: second summand is not the shifted first") in errors


def _former_walk(root, node_errors) -> list[tuple[str, str]]:
    """The report walk that spelled out every node's path: the reference."""
    errors = []
    stack = [(root, "root")]
    while stack:
        node, path = stack.pop()
        errors.extend((path, msg) for msg in node_errors(node))
        kids = [(q, f"{path}.{i}") for i, q in enumerate(node.premises)]
        stack.extend(reversed(kids))
    return errors


def test_report_paths_of_a_deep_failing_tree_equal_the_former_walk():
    from bllp import proofs

    d = C.church_applied_derivation(40)
    m = add_to_mult(d)

    def validate(system):
        return lambda node: T._validate(node, system)

    # Checked in the other system, almost every node of either tree fails.
    for tree, report, system in ((d, check_mult, "multiplicative"), (m, check_additive, "additive")):
        got = report(tree)
        assert got.errors == _former_walk(tree, validate(system))
        assert len(got.errors) > 40
    deep = _deep_chain(150)  # 301 rules deep, failing only at its leaf
    deep = _replace_node(deep, (0,) * 300, rule="bogus")
    got = check_mult(deep)
    assert got.errors == _former_walk(deep, validate("multiplicative"))
    assert str(got) == "root" + ".0" * 300 + ": rule 'bogus' not part of the multiplicative system"
    pf = proofs.map_derivation(m)
    pf = _replace_node(pf, (1, 0), rule="bogus")
    assert proofs.check_proof(pf).errors == _former_walk(pf, proofs._node_errors)
    assert proofs.check_proof(pf).errors[0][0] == "root.1.0"


def test_the_checkers_neither_substitute_nor_rebuild_subjects(monkeypatch):
    """On church-16 the pipeline's bounded sums all have a closed form.  The
    elaboration renames no term: a contraction is a pending renaming of its
    premise's subject.  And ``check_mult`` compares no subject: below the
    root, which alone stores one, the library built every node."""
    from bllp import proofs

    calls: dict[str, int] = {}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(R, "_substitute")
    d = C.church_applied_derivation(16)
    assert check_additive(d).ok
    spy(L, "subst")
    spy(L, "rename_mvar")
    m = add_to_mult(d)
    pf = proofs.map_derivation(m)
    assert proofs.check_proof(pf).ok
    spy(L, "alpha_eq")
    assert check_mult(m).ok
    assert calls == {}
    assert any(node.rule in ("c_lam", "c_mu") for node in _nodes(m))


# -- stack safety ---------------------------------------------------------------------


def _deep_chain(rounds: int) -> Derivation:
    """A ``var_m`` under ``rounds`` pairs of ``w_lam`` and ``c_lam``.

    Each pair weakens in a zero-labelled copy of ``x`` and contracts it back
    into ``x``, so the derivation is ``2 * rounds + 1`` rules deep while the
    context stays ``x`` and the subject stays the variable ``x``.
    """
    entry = C.modal(C.X, 1, pvar("r") + const(1))
    d = Derivation("var_m", C.jm([("x", entry)], L.Var("x"), lf(C.X, F.VACUOUS, 1)))
    shifted = F.lf_shift(entry, "g")
    ghost = LF(shifted.formula, shifted.binder, const(0))
    for k in range(rounds):
        d = T.contract(T.weaken(d, "lam", f"g{k}", ghost), "lam", f"g{k}", "x", "x", entry)
    return d


def test_deep_multiplicative_chain_is_rewritten_without_recursion_error():
    d = _deep_chain(5000)  # 10 001 rules deep
    assert check_mult(d).ok
    renamed = T.rename_free(d, "lam", "x", "y")
    assert check_mult(renamed).ok and renamed.concl.subject == L.Var("y")
    assert [v for v, _ in renamed.concl.lam] == ["y"]
    substituted = subst_derivation(d, "r", const(2))
    assert check_mult(substituted).ok and substituted.concl.lam[0][1].label == const(3)
    lowered = lower_type(d, lf(C.X, F.VACUOUS, 2))
    assert check_mult(lowered).ok and lowered.concl.type.label == const(2)
    pf = map_derivation(d)
    assert check_proof(pf).ok and len(pf.concl) == 2


def test_church_256_runs_through_the_pipeline_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    d = C.church_applied_derivation(256)
    assert check_additive(d).ok
    m = add_to_mult(d)
    assert check_mult(m).ok
    pf = map_derivation(m)
    assert check_proof(pf).ok
    assert weight(pf) == const(2051)


# -- elaboration: renaming stops where the name is not free -------------------------


def _nodes(d: Derivation) -> list[Derivation]:
    out, stack = [], [d]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.premises)
    return out


@pytest.mark.parametrize("name", [e.name for e in C.entries() if e.derivation])
def test_rename_free_of_a_name_outside_the_context_returns_the_node_itself(name):
    for d in chain(C.by_name(name)):
        for node in _nodes(d):
            for side in ("lam", "mu"):
                assert T.rename_free(node, side, "absent", "other") is node
                bound_below = {v for p in node.premises for v, _ in getattr(p.concl, side)}
                for v in bound_below - T.ctx_dom(getattr(node.concl, side)):
                    assert T.rename_free(node, side, v, "other") is node


@pytest.mark.parametrize("n", [32, 64, 128])
def test_add_to_mult_of_church_n_equals_the_output_of_the_former_renaming(n, monkeypatch):
    """The former elaboration stores a subject at every node and renames it
    with each contraction, and its renamers walk every node of the argument;
    the output, subjects, names and annotations included, is the same."""
    d = C.church_applied_derivation(n)
    start = next(L._gen), next(R._counter)

    def run() -> str:
        monkeypatch.setattr(L, "_gen", itertools.count(start[0]))
        monkeypatch.setattr(R, "_counter", itertools.count(start[1]))
        return json.dumps(derivation_to_obj(T.add_to_mult(d), "multiplicative"))

    new = run()
    monkeypatch.setattr(T, "add_to_mult", TO.add_to_mult)
    assert run() == new


def _contracted(M, captures: bool) -> Derivation:
    """An application elaborated, and its ``x1`` and ``x2`` contracted into
    ``z`` by the module ``M``'s ``contract``.  Capturing, it is
    ``(λz. x1) x2``: the renamed ``x1`` would be captured by the binder
    ``z``, so the subject is ``(λz'. z) z``.  Otherwise it is ``(λz. z) x1``
    with ``x2`` weakened in: no renamed name is free under the binder, which
    keeps its name, ``(λz. z) z``."""
    one, ty = C.modal(C.X, 1, 1), lf(C.X, F.VACUOUS, 1)
    arrow = lf(F.arrow(C.X, F.VACUOUS, const(1), C.X), F.VACUOUS, 1)
    if captures:
        body = C.node("var", C.jm([("x1", one), ("z", one)], L.Var("x1"), ty))
        fn_ctx, arg = [("x1", one)], C.node("var", C.jm([("x2", one)], L.Var("x2"), ty))
    else:
        body = C.node("var", C.jm([("z", one)], L.Var("z"), ty))
        fn_ctx, arg = [], C.node("var", C.jm([("x1", one), ("x2", one)], L.Var("x1"), ty))
    fn = C.node("abs", C.jm(fn_ctx, L.Lam("z", body.concl.subject), arrow), body)
    subject = L.App(fn.concl.subject, arg.concl.subject)
    d = C.node("app", C.jm([("x1", one), ("x2", one)], subject, ty), fn, arg, h=const(1))
    assert check_additive(d).ok
    m = M.add_to_mult(d)
    merged = F.lf_sum(m.concl.lam_get("x1"), m.concl.lam_get("x2"))
    return M.contract(m, "lam", "x1", "x2", "z", merged)


def _stripped(d: Derivation) -> Derivation:
    premises = tuple(_stripped(p) for p in d.premises)
    return replace(d, concl=replace(d.concl, subject=None), premises=premises)


@pytest.mark.parametrize("rename", [None, "z"], ids=["written", "renamed"])
@pytest.mark.parametrize("captures", [True, False], ids=["capturing", "keeping"])
def test_a_binder_that_a_contraction_would_capture_gets_a_fresh_name(captures, rename, monkeypatch):
    """The subject the tree builds renames a binder only where a renamed
    name free in its body would be captured, as ``lammu.subst`` does.
    Written out, it equals the former pipeline's, fresh names and the name
    counters included, and it reads back and checks."""
    start = next(L._gen), next(R._counter)

    def run(M, rename_free) -> tuple:
        monkeypatch.setattr(L, "_gen", itertools.count(start[0]))
        monkeypatch.setattr(R, "_counter", itertools.count(start[1]))
        d = _contracted(M, captures)
        if rename:
            d = rename_free(d, "lam", rename, "w")
        obj = derivation_to_obj(d, "multiplicative")
        return d, json.dumps(obj), next(L._gen), next(R._counter)

    new, *written = run(T, T.rename_free)
    old, *former = run(TO, TO._rename_entry)
    assert written == former
    assert check_mult(new).ok and check_mult(old).ok
    read, system = derivation_from_obj(json.loads(written[0]))
    assert system == "multiplicative" and check_mult(read).ok
    built = T.subject_of(_stripped(old))
    assert L.alpha_eq(built, old.concl.subject)
    kept = L.App(L.Lam("z", L.Var("z")), L.Var(rename and "w" or "z"))
    assert (built != kept) if captures else (built == kept)
    # A stored subject with no renaming pending is taken whole.
    below = T.weaken(old, "lam", "v", C.modal(C.X, 1, 1))
    assert T.subject_of(below) is old.concl.subject


REDUCED = {e.name: e.derivation for e in C.entries() if e.derivation}
REDUCED.update({f"church-applied-{n}": C.church_applied_derivation(n) for n in range(1, 13)})


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_subject_reduce_stores_the_reduct_its_tree_builds(name):
    """Each root ``subject_reduce`` returns stores the subject its rebuilt
    tree implies; it is the head reduct of the previous one, names included."""
    m = add_to_mult(REDUCED[name])
    while (hit := L.step(m.concl.subject, "head")) is not None:
        m = subject_reduce(m)
        assert m.concl.subject == hit[0]
        assert T.subject_of(replace(m, concl=replace(m.concl, subject=None))) == hit[0]


# ``s z`` with both premises holding s and z: two shared λ-names at one app.
TWO_SHARED = """\
import json
from bllp import corpus as C, typecheck as T
from bllp.formula import VACUOUS, arrow, lf
from bllp.lammu import App, Var
from bllp.respoly import const
from bllp.syntax import derivation_to_obj

a = arrow(C.X, VACUOUS, const(1), C.X)
ctx = lambda s, z: [("s", C.modal(a, 1, s)), ("z", C.modal(C.X, 1, z))]
fn = C.node("var", C.jm(ctx(1, 0), Var("s"), lf(a, VACUOUS, 1)))
arg = C.node("var", C.jm(ctx(0, 1), Var("z"), lf(C.X, VACUOUS, 1)))
d = C.node("app", C.jm(ctx(1, 1), App(Var("s"), Var("z")), lf(C.X, VACUOUS, 1)), fn, arg,
           h=const(1))
assert T.check_additive(d).ok
m = T.add_to_mult(d)
assert T.check_mult(m).ok
print(json.dumps(derivation_to_obj(m, "multiplicative")))
"""


def test_add_to_mult_names_do_not_depend_on_string_hashing():
    """The shared names are renamed, and their fresh names drawn, in the
    function premise's context order under every ``PYTHONHASHSEED``."""
    src = str(Path(T.__file__).resolve().parents[1])
    outs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", TWO_SHARED], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


# -- the context-shape checks, one perturbed corpus node per message ------------


def _concl(node: Derivation, **changes) -> Derivation:
    return replace(node, concl=replace(node.concl, **changes))


def _with_premise(node: Derivation, **changes) -> Derivation:
    return replace(node, premises=(_concl(node.premise(), **changes),) + node.premises[1:])


def _relabelled(ctx, name: str, label: int):
    return tuple((v, lf(a.formula, a.binder, label) if v == name else a) for v, a in ctx)


_EXTRA_MU = ("c", parse_lf("<~X>[1]"))

# (system, corpus entry, node path, its rule, the perturbation, the node's
# messages).  ``{x}`` in a message is the name the unperturbed node
# introduces.  The multiplicative trees are the entries' elaborations, which
# store no subject below the root, so ``introduced`` reads their contexts; a
# perturbation that leaves the contexts no single such name stores the
# node's subject.
CONTEXT_SHAPES = [
    ("additive", "kappa", "root", "abs",
     lambda n: _concl(n, lam=n.concl.lam + n.premise().concl.lam),
     ["abs must preserve the remaining λ-context"]),
    ("additive", "kappa", "root", "abs",
     lambda n: _concl(n, mu=n.concl.mu + (_EXTRA_MU,)),
     ["abs must preserve the μ-context"]),
    ("additive", "kappa", "root.0", "mu_abs",
     lambda n: _concl(n, lam=()),
     ["mu_abs must preserve the λ-context"]),
    ("additive", "kappa", "root.0", "mu_abs",
     lambda n: _concl(n, mu=n.premise().concl.mu),
     ["mu_abs must preserve the remaining μ-context"]),
    ("additive", "kappa", "root.0.0", "mu_name",
     lambda n: _concl(n, lam=()),
     ["mu_name must preserve the λ-context"]),
    ("additive", "kappa", "root.0.0", "mu_name",
     lambda n: _concl(n, mu=n.concl.mu + (_EXTRA_MU,)),
     ["mu_name must preserve the remaining μ-context"]),
    ("multiplicative", "kappa", "root", "abs",
     lambda n: _with_premise(n, mu=(_EXTRA_MU,)),
     ["abs must preserve the μ-context"]),
    ("multiplicative", "kappa", "root.0.0.0", "mu_name_m",
     lambda n: _concl(n, lam=()),
     ["mu_name must preserve the λ-context"]),
    ("multiplicative", "kappa", "root.0.0.0", "mu_name_m",
     lambda n: _concl(n, mu=_relabelled(n.concl.mu, n.premise().concl.mu[0][0], 2)),
     ["mu_name must preserve the remaining μ-context"]),
    ("multiplicative", "kappa", "root.0.0.0", "mu_name_m",
     lambda n: _concl(n, mu=_relabelled(n.concl.mu, T.introduced(n), 2)),
     ["conclusion must move the type onto {x}"]),
    ("multiplicative", "kappa", "root.0.0.0", "mu_name_m",
     lambda n: _with_premise(
         _concl(n, subject=T.subject_of(n)),
         mu=n.premise().concl.mu + ((T.introduced(n), n.premise().concl.type),),
     ),
     ["μ-variable {x} must be fresh for the premise", "mu_name must preserve the remaining μ-context"]),
    ("multiplicative", "kappa", "root.0", "mu_abs",
     lambda n: _concl(n, subject=T.subject_of(n), mu=n.premise().concl.mu),
     ["mu_abs must preserve the remaining μ-context"]),
    ("multiplicative", "church-0", "root.0.0", "w_lam",
     lambda n: _concl(n, lam=n.concl.lam + (("extra", n.concl.lam[0][1]),)),
     ["weakening must add exactly one hypothesis"]),
    ("multiplicative", "church-2", "root.0.0", "c_lam",
     lambda n: replace(n, ann={**n.ann, "left": "nowhere"}),
     ["contraction endpoints missing from the contexts"]),
]


@pytest.mark.parametrize(
    "system, name, path, rule, perturb, messages",
    CONTEXT_SHAPES,
    ids=[f"{c[0][:4]}-{c[3]}-{c[5][-1].split(' must')[0]}-{k}" for k, c in enumerate(CONTEXT_SHAPES)],
)
def test_a_context_of_the_wrong_shape_is_reported_at_its_node(system, name, path, rule, perturb, messages):
    tree = C.by_name(name).derivation
    check = check_additive
    if system == "multiplicative":
        tree, check = add_to_mult(tree), check_mult
    node = _node(tree, _path(path))
    assert node.rule == rule and check(tree).ok
    x = T.introduced(node) if any("{x}" in m for m in messages) else None
    bad = perturb(node)
    errors = check(_replace_node(tree, _path(path), concl=bad.concl, premises=bad.premises, ann=bad.ann)).errors
    assert [msg for p, msg in errors if p == path] == [m.format(x=x) for m in messages]


def test_a_binder_whose_conclusion_keeps_its_bound_name_is_rejected():
    """``λx.…`` with ``x`` left in the conclusion's λ-context: only the
    premise holds the name an abstraction binds."""
    d = C.by_name("kappa").derivation
    kept = _concl(d, lam=d.concl.lam + d.premise().concl.lam)
    assert str(check_additive(kept)) == "root: abs must preserve the remaining λ-context"


# -- the layer's outputs, pinned -------------------------------------------------

PINNED_INPUTS = [(e.name, e.derivation) for e in C.entries() if e.derivation]
PINNED_INPUTS += [(f"church-applied-{n}", n) for n in range(49)]


def _layer_digest() -> str:
    """SHA-256 over what the typing layer gives on the corpus and on
    church-applied n = 0-48: both checkers' reports, the elaboration's file,
    its root subject, its mapped proof's file and weight, and, for the
    corpus and n ≤ 12, each step of the subject reduction chain to normal
    form, then where both name supplies stopped.  The supplies restart at
    1 before the inputs are built."""
    from bllp.syntax import print_poly, print_term, proof_to_obj

    out: list = []
    for name, d in PINNED_INPUTS:
        if isinstance(d, int):
            n, d = d, C.church_applied_derivation(d)
        else:
            n = 0
        m = add_to_mult(d)
        pf = map_derivation(m)
        out.append([name, str(check_additive(d)), str(check_mult(m)), derivation_to_obj(m, "multiplicative"),
                    print_term(T.subject_of(m)), proof_to_obj(pf), print_poly(weight(pf))])
        while n <= 12 and L.step(m.concl.subject, "head") is not None:
            m = subject_reduce(m)
            out.append([str(check_mult(m)), derivation_to_obj(m, "multiplicative")])
    out.append([next(L._gen), next(R._counter)])
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


# Computed at the commit before the typing rules were read off one table; the
# name supplies stopped at 1328 and 8431.
LAYER_DIGEST = "8c4a1521325a0622032ae24e877d8d8ab595a219a522d0b14ca3945ada8070a0"


def test_the_layer_gives_the_pinned_reports_files_weights_reducts_and_names(monkeypatch):
    monkeypatch.setattr(L, "_gen", itertools.count(1))
    monkeypatch.setattr(R, "_counter", itertools.count(1))
    assert _layer_digest() == LAYER_DIGEST


# -- the rule table against the former per-rule code -----------------------------


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the two versions must fail alike
        return type(exc).__name__, str(exc)


@functools.cache
def _pinned_trees() -> tuple[Derivation, ...]:
    """The pinned inputs, their elaborations and, for the corpus and n ≤ 12,
    the subject reduction chains of those."""
    out = []
    for _, d in PINNED_INPUTS:
        small = not isinstance(d, int) or d <= 12
        d = C.church_applied_derivation(d) if isinstance(d, int) else d
        out += [d, add_to_mult(d)]
        while small and L.step(out[-1].concl.subject, "head") is not None:
            out.append(subject_reduce(out[-1]))
    return tuple(out)


# The rules ``introduced`` was written for.  An application introduces no
# name, and a contraction's is its ``into``, which nothing asked ``introduced``
# for: the former one read a ``c_mu``'s λ-context.
_NAMING = ("var", "var_m", "abs", "mu_abs", "mu_name", "mu_name_m", "w_lam", "w_mu")


def _assert_table_agrees(node: Derivation) -> None:
    for system in ("additive", "multiplicative"):
        assert T._validate(node, system) == TO.former_validate(node, system)
    if node.rule in _NAMING:
        x = _outcome(T.introduced, node)
        assert x == _outcome(TO.former_introduced, node)
        if node.rule in ("abs", "mu_abs", "mu_name_m") and isinstance(x, str):
            built = T._node(node.rule, node.premises, node.concl.type, x)
            former = TO.former_congruence(node, node.premise())
            assert built == former and built.concl == former.concl


def test_the_table_agrees_with_the_former_per_rule_code_on_every_pinned_node():
    """Each node of every pinned tree, checked in both systems, gets the
    former checker's messages, its rule introduces the former name, and a
    binder's conclusion drawn from its premise is the former congruence's."""
    seen: set[int] = set()
    for tree in _pinned_trees():
        for node in _nodes(tree):
            if id(node) not in seen:
                seen.add(id(node))
                _assert_table_agrees(node)


@functools.cache
def _small_trees() -> list[list[Derivation]]:
    """The nodes of each pinned tree of fewer than 200 rules."""
    return [nodes for t in _pinned_trees() if len(nodes := _nodes(t)) < 200]


def _perturbed_ctx(data, ctx, names: list[str], entries: list) -> tuple:
    """``ctx`` with one entry dropped, one added or one renamed, drawn."""
    ops = ["add"] + (["drop", "rename"] if ctx else [])
    op = data.draw(st.sampled_from(ops), label="operation")
    if op == "add":
        entry = (data.draw(st.sampled_from(names), label="name"), data.draw(st.sampled_from(entries)))
        k = data.draw(st.integers(0, len(ctx)), label="at")
        return ctx[:k] + (entry,) + ctx[k:]
    k = data.draw(st.integers(0, len(ctx) - 1), label="entry")
    if op == "drop":
        return ctx[:k] + ctx[k + 1 :]
    return ctx[:k] + ((data.draw(st.sampled_from(names), label="name"), ctx[k][1]),) + ctx[k + 1 :]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_table_agrees_with_the_former_per_rule_code_on_perturbed_nodes(data):
    """A drawn node of a pinned tree (n ≤ 12), with one context entry of
    its conclusion or of one premise's dropped, added or renamed; the names
    and entries drawn are the node's own, the one it introduces among them,
    and a fresh one.  Checked in both systems."""
    nodes = data.draw(st.sampled_from(_small_trees()), label="tree")
    node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
    judgments = [node.concl] + [p.concl for p in node.premises]
    names = sorted({v for j in judgments for side in (j.lam, j.mu) for v, _ in side} | {"fresh"})
    k = data.draw(st.integers(0, len(judgments) - 1), label="judgment")
    side = data.draw(st.sampled_from(["lam", "mu"]), label="side")
    entries = [a for j in judgments for v, a in getattr(j, side)] or [judgments[0].type]
    j = replace(judgments[k], **{side: _perturbed_ctx(data, getattr(judgments[k], side), names, entries)})
    if k == 0:
        node = replace(node, concl=j)
    else:
        premises = list(node.premises)
        premises[k - 1] = replace(premises[k - 1], concl=j)
        node = replace(node, premises=tuple(premises))
    _assert_table_agrees(node)


_NAMES = st.sampled_from(["x", "y", "z"])
_ENTRIES = st.sampled_from([parse_lf("<~X>[1]"), parse_lf("<~X>[2]"), parse_lf("<~Y>[1]")])
_CONTEXTS = st.lists(st.tuples(_NAMES, _ENTRIES), max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(c1=_CONTEXTS, c2=_CONTEXTS)
def test_contexts_compare_alike_in_either_order(c1, c2):
    """Without a repeated name, two contexts compare as they did; a context
    that names a hypothesis twice equals none."""
    assert T.ctx_eq(c1, c2) == T.ctx_eq(c2, c1)
    if any(len(T.ctx_dom(c)) < len(c) for c in (c1, c2)):
        assert not T.ctx_eq(c1, c2)
    else:
        assert T.ctx_eq(c1, c2) == TO.former_ctx_eq(c1, c2)


def test_a_context_that_names_a_hypothesis_twice_is_compared_in_either_order():
    """The former comparison read each name of its first argument in the
    second, first entry first, so it could accept a pair in one order only."""
    one, two = parse_lf("<~X>[1]"), parse_lf("<~X>[2]")
    twice, once = (("x", one), ("x", two)), (("x", one),)
    assert TO.former_ctx_eq(once, twice) and not TO.former_ctx_eq(twice, once)
    assert not T.ctx_eq(once, twice) and not T.ctx_eq(twice, once)


def test_a_context_that_names_a_hypothesis_twice_is_reported_at_its_node():
    """:func:`ctx_eq` reads such a context as equal to none, so a node whose
    other checks only compare contexts, like a leaf, said nothing of it."""
    c = parse_lf("<~X>[1]")

    def with_mu(d: Derivation) -> Derivation:
        concl = replace(d.concl, mu=(("c", c), ("c", c)))
        return replace(d, concl=concl, premises=tuple(map(with_mu, d.premises)))

    report = check_additive(with_mu(C.by_name("identity-app").derivation))
    twice = [(path, msg) for path, msg in report.errors if "twice" in msg]
    assert twice == [(path, "μ-context names c twice") for path in ("root", "root.0", "root.0.0", "root.1")]

    entry = C.modal(C.X, 1, const(1))
    leaf = Derivation("var_m", C.jm([("x", entry), ("y", entry), ("x", entry)], L.Var("x"), lf(C.X, F.VACUOUS, 1)))
    assert ("root", "λ-context names x twice") in check_mult(leaf).errors
