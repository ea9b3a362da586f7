import json
import sys

import pytest

from bllp import cli, machine
from bllp import corpus as C
from bllp import formula as F
from bllp import lammu as L
from bllp.proofs import map_derivation
from bllp.record import replace
from bllp.syntax import derivation_to_obj, parse_term, proof_to_obj
from bllp.typecheck import Derivation, add_to_mult


def run(*argv):
    return cli.main(list(argv))


def test_check_entry_ok(capsys):
    assert run("check", "--entry", "kappa") == 0
    assert "ok" in capsys.readouterr().out


def test_check_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(derivation_to_obj(C.by_name("kappa").derivation, "additive")))
    assert run("check", "--file", str(path)) == 0


def test_check_failure_exit_code(tmp_path):
    from bllp.respoly import const

    bad = C.kappa_derivation(const(1), const(1), const(0))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(derivation_to_obj(bad, "additive")))
    assert run("check", "--file", str(path)) == 1


def test_parse_error_exit_code(capsys):
    assert run("reduce", "(t") == 3
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    ["check", "weight", "reduce", "machine-run", "to-proof", "cut-eliminate", "verify-polystep"],
)
def test_unknown_entry_is_one_line_and_exit_3(capsys, command):
    assert run(command, "--entry", "nope") == 3
    assert capsys.readouterr() == ("", "unknown corpus entry 'nope'\n")


@pytest.mark.parametrize("command", ["check", "cut-eliminate"])
@pytest.mark.parametrize("what", ["truncated", "directory", "missing"])
def test_unreadable_file_is_one_line_and_exit_3(tmp_path, capsys, command, what):
    path = tmp_path / "input.json"
    if what == "truncated":
        path.write_text('{"format": "bllp-')
    elif what == "directory":
        path.mkdir()
    assert run(command, "--file", str(path)) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    if what == "truncated":
        assert err == "parse error: at offset 11: Unterminated string starting at\n"
    else:
        assert str(path) in err


@pytest.mark.parametrize(
    "command, kind", [("check", "derivation"), ("cut-eliminate", "proof")]
)
@pytest.mark.parametrize(
    "value, message",
    [
        ([], "not a {kind} file"),
        ("text", "not a {kind} file"),
        ({"format": "bllp-{kind}", "version": 1}, "malformed {kind} file: no 'tree'"),
        (
            {"format": "bllp-{kind}", "version": 1, "tree": []},
            "malformed {kind} file: 'tree' is an array, not an object",
        ),
        (
            {"format": "bllp-{kind}", "version": 1, "tree": {"rule": "ax"}},
            "malformed {kind} file: no '{field}'",
        ),
        (
            {"format": "bllp-{kind}", "version": 1, "tree": {"rule": 3, "premises": {}}},
            "malformed {kind} file: 'premises' is an object, not an array",
        ),
        (
            {"format": "bllp-{kind}", "version": 1, "tree": {"rule": 3}},
            "malformed {kind} file: 'rule' is a number, not a string",
        ),
    ],
)
def test_json_of_the_wrong_shape_is_one_parse_error_and_exit_3(
    tmp_path, capsys, command, kind, value, message
):
    field = "judgment" if kind == "derivation" else "sequent"
    if isinstance(value, dict):
        value = {k: v.format(kind=kind) if k == "format" else v for k, v in value.items()}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value))
    assert run(command, "--file", str(path)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: at offset 0: {message.format(kind=kind, field=field)}\n"


@pytest.mark.parametrize(
    "command, node, message",
    [
        ("check", {"judgment": []}, "'judgment' is an array, not an object"),
        (
            "check",
            {"judgment": {"lam": [["x"]], "subject": "x", "type": "1", "mu": []}},
            "'lam' holds an array, not a [name, type] pair",
        ),
        ("check", {"judgment": {"lam": [], "subject": 7}}, "'subject' is a number, not a string"),
        (
            "check",
            {"judgment": {"lam": [], "subject": "x", "type": "<1>[1]", "mu": [["a", None]]}},
            "expected text, found null",
        ),
        ("cut-eliminate", {"sequent": ["<1>[1]", ["1"]]}, "'sequent' holds an array, not a string"),
        ("cut-eliminate", {"sequent": ["<1>[1]"], "data": []}, "'data' is an array, not an object"),
        ("cut-eliminate", {"sequent": ["<1>[1]"], "data": {"witness": []}}, "expected text, found an array"),
        ("cut-eliminate", {"sequent": ["<1>[1]"], "data": {"P": 3}}, "expected text, found a number"),
        ("cut-eliminate", {"sequent": ["<1>[1]"], "data": {"p": {}}}, "expected text, found an object"),
    ],
)
def test_a_node_field_of_the_wrong_shape_is_one_parse_error_and_exit_3(
    tmp_path, capsys, command, node, message
):
    kind = "derivation" if command == "check" else "proof"
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"format": f"bllp-{kind}", "version": 1, "tree": {"rule": "ax", **node}}))
    assert run(command, "--file", str(path)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    if message.startswith("expected"):
        assert err == f"parse error: at offset 0: {message}\n"
    else:
        assert err == f"parse error: at offset 0: malformed {kind} file: {message}\n"


@pytest.mark.parametrize(
    "command, fields, message",
    [
        ("cut-eliminate", {"idx": "x"}, "'idx' is a string, not an integer"),
        ("cut-eliminate", {"left_idx": True}, "'left_idx' is a boolean, not an integer"),
        ("cut-eliminate", {"right_idx": 1.5}, "'right_idx' is a number, not an integer"),
        ("cut-eliminate", {"left": "0"}, "'left' is a string, not an integer"),
        ("cut-eliminate", {"right": None}, "'right' is null, not an integer"),
        ("cut-eliminate", {"x": 3}, "'x' is a number, not a string"),
        ("cut-eliminate", {"y": []}, "'y' is an array, not a string"),
        ("cut-eliminate", {"sum_witness": []}, "'sum_witness' is an array, not an object"),
        (
            "cut-eliminate",
            {"sum_witness": {"a": ["V", "x"]}},
            "'sum_witness' has the key 'a', not a position",
        ),
        (
            "cut-eliminate",
            {"sum_witness": {"0": ["V", 5]}},
            "'sum_witness' holds an array, not a [formula, binder] pair",
        ),
        ("check", {"left": 1}, "'left' is a number, not a string"),
        ("check", {"right": True}, "'right' is a boolean, not a string"),
        ("check", {"into": None}, "'into' is null, not a string"),
        (
            "check",
            {"sum_witness_lam": {"x": "V"}},
            "'sum_witness_lam' holds a string, not a [formula, binder] pair",
        ),
        (
            "check",
            {"sum_witness_mu": {"a": ["V"]}},
            "'sum_witness_mu' holds an array, not a [formula, binder] pair",
        ),
    ],
)
def test_a_value_of_the_wrong_shape_in_ann_or_data_is_one_parse_error_and_exit_3(
    tmp_path, capsys, command, fields, message
):
    if command == "check":
        kind = "derivation"
        judgment = {"lam": [], "subject": "x", "type": "<bot>[1]", "mu": []}
        node = {"rule": "var", "judgment": judgment, "ann": fields}
    else:
        kind, node = "proof", {"rule": "ax", "sequent": ["<1>[1]"], "data": fields}
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"format": f"bllp-{kind}", "version": 1, "tree": node}))
    assert run(command, "--file", str(path)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: at offset 0: malformed {kind} file: {message}\n"


@pytest.mark.parametrize("command", ["check", "cut-eliminate"])
def test_a_premise_that_is_not_an_object_is_one_parse_error_and_exit_3(tmp_path, capsys, command):
    d = C.by_name("kappa").derivation
    if command == "check":
        kind, obj = "derivation", derivation_to_obj(d, "additive")
    else:
        kind, obj = "proof", proof_to_obj(map_derivation(add_to_mult(d)))
    obj["tree"]["premises"][-1] = "ax"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert run(command, "--file", str(path)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: at offset 0: malformed {kind} file: a string where an object belongs\n"


def _contracted_chain():
    """``μa.[a] z`` from ``x``: var_m, w_lam of ``x2``, c_lam of ``x`` and
    ``x2`` into ``z``, mu_name_m of ``a``, mu_abs of ``a``."""
    one, two = C.modal(C.X, 1, 1), C.modal(C.X, 1, 2)
    ty = F.lf(C.X, F.VACUOUS, 1)
    d = Derivation("var_m", C.jm([("x", one)], L.Var("x"), ty))
    d = Derivation("w_lam", C.jm([("x", one), ("x2", one)], L.Var("x"), ty), (d,))
    d = Derivation("c_lam", C.jm([("z", two)], L.Var("z"), ty), (d,), {"left": "x", "right": "x2", "into": "z"})
    bot = F.lf(F.BOTTOM, F.VACUOUS, 0)
    d = Derivation("mu_name_m", C.jm([("z", two)], L.Named("a", L.Var("z")), bot, [("a", ty)]), (d,))
    return Derivation("mu_abs", C.jm([("z", two)], L.Mu("a", L.Named("a", L.Var("z"))), ty), (d,))


def _resubject(d, path, term):
    """``d`` with the subject at ``path`` replaced by ``term``, and each
    ancestor's subject rebuilt around it, so only the node at ``path``
    disagrees with its premise.  A variable subject stays: in the chain it
    is the contraction's ``z``, into which ``x2`` is renamed as well."""
    if not path:
        return replace(d, concl=replace(d.concl, subject=term))
    k = path[0]
    prems = list(d.premises)
    prems[k] = _resubject(prems[k], path[1:], term)
    s = d.concl.subject
    if not isinstance(s, L.Var):
        fields = {f: getattr(s, f) for f in s.__match_args__}
        fields[("fn", "arg")[k] if isinstance(s, L.App) else "body"] = prems[k].concl.subject
        s = type(s)(**fields)
    return replace(d, concl=replace(d.concl, subject=s), premises=tuple(prems))


# rule, the derivation and its system, the path of a node of that rule, its
# new subject, and what ``bllp check --file`` prints.
_KAPPA = (lambda: C.by_name("kappa").derivation, "additive")
_CHAIN = (_contracted_chain, "multiplicative")
WRONG_SUBJECTS = [
    ("abs", _KAPPA, "root.0.0.0.1", "\\y. y", "root.0.0.0.1: premise subject is not the abstraction body"),
    ("app", _KAPPA, "root.0.0.0", "x x", "root.0.0.0: premise subjects do not match the application"),
    ("mu_name", _KAPPA, "root.0.0", "[a] x", "root.0.0: premise subject is not the named body"),
    ("mu_abs", _KAPPA, "root.0", "mu a. [a] x", "root.0: premise subject is not the abstraction body"),
    ("mu_name_m", _CHAIN, "root.0", "[a] y", "root.0: premise subject is not the named body"),
    ("w_lam", _CHAIN, "root.0.0.0", "x2", "root.0.0.0: weakening must preserve subject and type"),
    ("c_lam", _CHAIN, "root.0.0", "y", "root.0.0: contraction must rename the subject accordingly"),
]


@pytest.mark.parametrize(
    "rule, source, path, subject, message", WRONG_SUBJECTS, ids=[c[0] for c in WRONG_SUBJECTS]
)
def test_an_interior_subject_that_disagrees_with_its_premise_is_reported_at_its_node(
    tmp_path, capsys, rule, source, path, subject, message
):
    build, system = source
    d = build()
    where = tuple(int(k) for k in path.split(".")[1:])
    node = d
    for k in where:
        node = node.premises[k]
    assert node.rule == rule
    file = tmp_path / "input.json"
    file.write_text(json.dumps(derivation_to_obj(_resubject(d, where, parse_term(subject)), system)))
    assert run("check", "--file", str(file)) == 1
    assert capsys.readouterr() == (message + "\n", "")
    file.write_text(json.dumps(derivation_to_obj(d, system)))
    assert run("check", "--file", str(file)) == 0


def test_unwritable_out_is_one_line_and_exit_3(tmp_path, capsys):
    assert run("cut-eliminate", "--entry", "church-1-app", "--out", str(tmp_path)) == 3
    out, err = capsys.readouterr()
    assert out == "steps: 8\n" and len(err.splitlines()) == 1 and str(tmp_path) in err


def test_reduce_counts(capsys):
    assert run("reduce", "--entry", "kappa-callcc") == 0
    out = capsys.readouterr().out
    assert "steps: 3" in out and "y0" in out


def test_weak_strategy(capsys):
    assert run("reduce", "--entry", "kappa-callcc", "--strategy", "weak") == 0
    assert "steps: 1" in capsys.readouterr().out


def test_machine_run(capsys):
    assert run("machine-run", "--entry", "identity-app") == 0
    out = capsys.readouterr().out
    assert "transitions: 3" in out


def test_weight_and_polystep(capsys):
    assert run("weight", "--entry", "identity-app") == 0
    assert capsys.readouterr().out.strip() == "4"
    assert run("verify-polystep") == 0
    out = capsys.readouterr().out
    assert "BOUND VIOLATED" not in out
    names = [line.split(":")[0] for line in out.splitlines()]
    assert names == sorted(names)


def test_to_proof_then_cut_eliminate(tmp_path, capsys):
    assert run("to-proof", "--entry", "church-1-app") == 0
    blob = capsys.readouterr().out
    path = tmp_path / "proof.json"
    path.write_text(blob)
    assert run("cut-eliminate", "--file", str(path), "--trace") == 0
    out = capsys.readouterr().out
    assert "steps: 8" in out and "weight=" in out


def test_cut_eliminate_checks_a_file_proof_before_rewriting_it(tmp_path, capsys):
    """A dereliction cut against a box whose file sequent lost its door entry:
    the checker's report and exit 1, not a crash inside the rewriter."""
    from bllp import proofs as P
    from bllp.formula import lf
    from bllp.respoly import ONE

    def at(f):
        return lf(f, F.VACUOUS, 1)

    ax = P.mk_ax((at(F.Atom("X")), at(F.NegAtom("X"))), at(F.NegAtom("X")))
    why = at(F.WhyNot(F.VACUOUS, ONE, F.Atom("X")))
    der = P.mk_qd(ax, 0, F.Atom("X"), F.VACUOUS, ONE, F.VACUOUS, why)  # ?X, ~X
    box = P.mk_bang(der, 1, at(F.Bang(F.VACUOUS, ONE, F.NegAtom("X"))), {})  # ?X, !~X
    obj = proof_to_obj(P.mk_cut(der, box, 0, 1))
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(obj))
    assert run("cut-eliminate", "--file", str(path)) == 0
    assert capsys.readouterr().out == "steps: 2\n"
    del obj["tree"]["premises"][1]["sequent"][0]  # the box's door
    path.write_text(json.dumps(obj))
    assert run("cut-eliminate", "--file", str(path), "--trace") == 1
    out, err = capsys.readouterr()
    assert out == (
        "root: malformed node: right_idx 1 is out of range for premise 1 of length 1\n"
        "root.1: box conclusion length does not fit the rule\n"
    )
    assert err == ""


def test_cut_eliminate_reports_a_file_node_that_lost_its_premise(tmp_path, capsys):
    """A weakening whose file lost its only premise: the checker's report
    and exit 1, not an ``IndexError`` from the layout of its shape."""
    from bllp import proofs as P
    from bllp.syntax import parse_lf

    obj = proof_to_obj(P.mk_qw(P.mk_one(parse_lf("<1>[1]")), 1, parse_lf("<~W>[1]")))
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(obj))
    assert run("cut-eliminate", "--file", str(path)) == 0
    assert capsys.readouterr().out == "steps: 0\n"
    obj["tree"]["premises"] = []
    path.write_text(json.dumps(obj))
    assert run("cut-eliminate", "--file", str(path)) == cli.EXIT_CHECK == 1
    assert capsys.readouterr() == ("root: qw expects 1 premises, found 0\n", "")


def _church_1_file(tmp_path, change=None):
    obj = derivation_to_obj(C.by_name("church-1").derivation, "additive")
    if change:
        change(obj)
    path = tmp_path / "church-1.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("command", ["weight", "to-proof"])
def test_weight_and_to_proof_check_a_file_derivation_before_elaborating_it(tmp_path, capsys, command):
    """The inner abstraction's premise lost its λ-context: the checker's
    report and exit 1, as ``check`` gives, not a crash inside elaboration."""

    def empty(obj):
        obj["tree"]["premises"][0]["judgment"]["lam"] = []

    path = _church_1_file(tmp_path, empty)
    report = "root: premise does not bind s\nroot.0: abs must preserve the remaining λ-context\n"
    assert run("check", "--file", str(path)) == 1
    assert capsys.readouterr() == (report, "")
    assert run(command, "--file", str(path)) == 1  # as for an entry that has no derivation
    assert capsys.readouterr() == (report, "")


@pytest.mark.parametrize("command", ["check", "weight", "to-proof", "cut-eliminate"])
def test_an_entry_without_a_derivation_returns_exit_1(capsys, command):
    assert run(command, "--entry", "aleph-invoke-1") == 1
    assert capsys.readouterr() == ("", "corpus entry aleph-invoke-1 has no derivation\n")


def test_a_checked_file_gives_what_its_corpus_entry_gives(tmp_path, capsys, monkeypatch):
    """Checking a file first changes nothing of what ``to-proof`` and
    ``weight`` print for a valid one, fresh names included."""
    import itertools

    from bllp import respoly as R

    path = tmp_path / "church-3.json"
    path.write_text(json.dumps(derivation_to_obj(C.by_name("church-3").derivation, "additive")))
    outs = []
    for source in (("--entry", "church-3"), ("--file", str(path))):
        monkeypatch.setattr(L, "_gen", itertools.count(1))
        monkeypatch.setattr(R, "_counter", itertools.count(1))
        assert run("to-proof", *source) == 0 and run("weight", *source) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("system", ["multiplicativ", "Additive", 1, None])
def test_an_unknown_system_is_one_parse_error_and_exit_3(tmp_path, capsys, system):
    path = _church_1_file(tmp_path, lambda obj: obj.update(system=system))
    assert run("check", "--file", str(path)) == 3
    out, err = capsys.readouterr()
    why = f"unknown system {system!r}" if isinstance(system, str) else "'system' is"
    assert out == "" and err.startswith("parse error: ") and why in err and len(err.splitlines()) == 1


def test_a_file_that_names_no_system_is_additive(tmp_path, capsys):
    path = _church_1_file(tmp_path, lambda obj: obj.pop("system"))
    assert run("check", "--file", str(path)) == 0
    assert capsys.readouterr() == ("ok\n", "")


def test_poly_commands(capsys):
    assert run("poly-canon", "sum(z < y, z)") == 0
    assert capsys.readouterr().out.strip() == "bin(y,2)"
    assert run("poly-leq", "x + 1", "x") == 1
    assert run("poly-leq", "x", "x + 1") == 0


@pytest.mark.parametrize(
    "source, canonical",
    [
        ("sum(z < x + y, z)", "x*y + bin(x,2) + bin(y,2)"),
        (
            "sum(z < bin(x,2) + y, z*w)",
            "w*bin(x,2)*y + 3*w*bin(x,3) + 3*w*bin(x,4) + w*bin(y,2)",
        ),
        (
            "sum(z < x*y + 2, bin(z,2))",
            "x*y + 2*x*bin(y,2) + x*bin(y,3) + 2*bin(x,2)*y + 8*bin(x,2)*bin(y,2)"
            " + 6*bin(x,2)*bin(y,3) + bin(x,3)*y + 6*bin(x,3)*bin(y,2) + 6*bin(x,3)*bin(y,3)",
        ),
    ],
)
def test_poly_canon_of_a_sum_over_a_compound_bound(capsys, source, canonical):
    """A bound that is neither a constant nor a bare variable: ``choose(q, n)``
    for a general polynomial ``q``."""
    assert run("poly-canon", source) == 0
    assert capsys.readouterr().out == canonical + "\n"


EXHAUSTED = "fuel exhausted after 1 steps"


@pytest.mark.parametrize("trace", [(), ("--trace",)])
def test_reduce_reports_fuel_exhaustion(capsys, trace):
    assert run("reduce", "--entry", "kappa-callcc", "--fuel", "1", *trace) == 0
    out, err = capsys.readouterr()
    assert err.strip() == EXHAUSTED
    assert "steps: 1" in out
    assert ("   1 beta  at root: " in out) == bool(trace)


def test_reduce_at_normal_form_is_silent(capsys):
    assert run("reduce", "--entry", "kappa-callcc", "--fuel", "3", "--trace") == 0
    out, err = capsys.readouterr()
    assert err == "" and "steps: 3" in out


@pytest.mark.parametrize("fuel", ["1", "3"])
def test_machine_run_trace_runs_the_machine_once(capsys, monkeypatch, fuel):
    calls = []
    step = machine.step

    def counted(cfg):
        calls.append(cfg)
        return step(cfg)

    monkeypatch.setattr(machine, "step", counted)
    assert run("machine-run", "--entry", "identity-app", "--trace", "--fuel", fuel) == 0
    out, err = capsys.readouterr()
    n = int(fuel)
    assert f"transitions: {n}" in out
    assert len([line for line in out.splitlines() if line.startswith("   ")]) == n
    assert err.strip() == (EXHAUSTED if n == 1 else "")
    assert len(calls) == n + 1  # n transitions, then one look for another


def test_cut_eliminate_reports_fuel_exhaustion(capsys):
    assert run("cut-eliminate", "--entry", "church-2-app", "--fuel", "1", "--trace") == 0
    out, err = capsys.readouterr()
    assert err.strip() == EXHAUSTED
    assert "steps: 1" in out and out.count("weight=") == 1


VERIFY_POLYSTEP = """\
aleph: ok  head steps 0 <= weight 5 (5)
aleph-applied: ok  head steps 2 <= weight 16 (16)
aleph-invoke-0: ok  head steps 1 <= weight 14 (14)
church-0: ok  head steps 0 <= weight 0 (0)
church-1: ok  head steps 0 <= weight 2 (2)
church-1-app: ok  head steps 2 <= weight 11 (11)
church-2: ok  head steps 0 <= weight 4 (4)
church-2-app: ok  head steps 2 <= weight 19 (19)
church-3: ok  head steps 0 <= weight 6 (6)
identity-app: ok  head steps 1 <= weight 4 (4)
kappa: ok  head steps 0 <= weight 6 (6)
kappa-callcc: ok  head steps 3 <= weight 22 (22)
"""

CUT_ELIMINATE_CHURCH_2_APP = """\
   1 axiom          at (1, 1) weight=18
   2 multiplicative at () weight=17
   3 multiplicative at (0,) weight=16
   4 contraction    at (0, 0) weight=15
   5 axiom          at (0, 0, 0, 0, 1, 1) weight=14
   6 digging        at (0, 0, 0, 1, 0) weight=12
   7 digging        at (0, 0, 1, 0) weight=11
   8 dereliction    at (0, 0) weight=10
   9 axiom          at (0, 1) weight=9
  10 axiom          at (0, 0) weight=7
steps: 10
"""


def test_verify_polystep_output_is_pinned(capsys):
    assert run("verify-polystep") == 0
    assert capsys.readouterr().out == VERIFY_POLYSTEP


def test_cut_eliminate_trace_output_is_pinned(capsys):
    assert run("cut-eliminate", "--trace", "--entry", "church-2-app") == 0
    assert capsys.readouterr().out == CUT_ELIMINATE_CHURCH_2_APP


ALEPH_5 = r"(\f. mu a. f (\x. [a] x)) w t1 t2 t3 t4 t5"

ALEPH_5_TRACE = """\
   1 beta  at appL/appL/appL/appL/appL: (mu a. w (\\x. [a] x)) t1 t2 t3 t4 t5
   2 mu    at appL/appL/appL/appL: (mu a. w (\\x. [a] x t1)) t2 t3 t4 t5
   3 mu    at appL/appL/appL: (mu a. w (\\x. [a] x t1 t2)) t3 t4 t5
   4 mu    at appL/appL: (mu a. w (\\x. [a] x t1 t2 t3)) t4 t5
   5 mu    at appL: (mu a. w (\\x. [a] x t1 t2 t3 t4)) t5
   6 mu    at root: mu a. w (\\x. [a] x t1 t2 t3 t4 t5)
"""

ALEPH_5_NF = """\
mu a. w (\\x. [a] x t1 t2 t3 t4 t5)
steps: 6
"""

ALEPH_5_FUEL_1 = """\
(mu a. w (\\x. [a] x)) t1 t2 t3 t4 t5
steps: 1
"""


@pytest.mark.parametrize("strategy", ["weak", "head", "machine"])
@pytest.mark.parametrize("trace", [False, True])
def test_reduce_output_is_pinned(capsys, strategy, trace):
    flags = ("--trace",) if trace else ()
    assert run("reduce", ALEPH_5, "--strategy", strategy, *flags) == 0
    assert capsys.readouterr() == ((ALEPH_5_TRACE if trace else "") + ALEPH_5_NF, "")


@pytest.mark.parametrize("trace", [False, True])
def test_reduce_on_fuel_1_output_is_pinned(capsys, trace):
    flags = ("--trace",) if trace else ()
    assert run("reduce", ALEPH_5, "--fuel", "1", *flags) == 0
    first = ALEPH_5_TRACE.splitlines(keepends=True)[0] if trace else ""
    assert capsys.readouterr() == (first + ALEPH_5_FUEL_1, EXHAUSTED + "\n")


KAPPA_CALLCC_HEAD = """\
   1 beta  at root: mu a. [a] (\\k. y0) (\\y. mu b. [a] y)
   2 beta  at mu/named: mu a. [a] y0
   3 theta at root: y0
y0
steps: 3
"""

NESTED_THETA = r"mu b. [b] (\x. mu a. [a] (\y. y) x) z"

THETA_TRACES = {
    ("kappa-callcc", "weak"): """\
   1 beta  at root: mu a. [a] (\\k. y0) (\\y. mu b. [a] y)
mu a. [a] (\\k. y0) (\\y. mu b. [a] y)
steps: 1
""",
    ("kappa-callcc", "head"): KAPPA_CALLCC_HEAD,
    ("kappa-callcc", "machine"): KAPPA_CALLCC_HEAD,
    (NESTED_THETA, "head"): """\
   1 beta  at mu/named: mu b. [b] mu a. [a] (\\y. y) z
   2 theta at root: mu a. [a] (\\y. y) z
   3 beta  at mu/named: mu a. [a] z
   4 theta at root: z
z
steps: 4
""",
    (NESTED_THETA, "machine"): """\
   1 beta  at mu/named: mu b. [b] mu a. [a] (\\y. y) z
   2 beta  at mu/named/mu/named: mu b. [b] mu a. [a] z
   3 theta at mu/named: mu b. [b] z
   4 theta at root: z
z
steps: 4
""",
}


@pytest.mark.parametrize("term, strategy", THETA_TRACES)
def test_reduce_trace_through_theta_is_pinned(capsys, term, strategy):
    source = ("--entry", term) if term == "kappa-callcc" else (term,)
    assert run("reduce", *source, "--strategy", strategy, "--trace") == 0
    assert capsys.readouterr() == (THETA_TRACES[term, strategy], "")


def test_reduce_prints_the_normal_form_of_a_spine_of_10_4_arguments(capsys):
    """Printing walks the term on a stack: the 10^4-argument aleph spine
    reduces and prints at the default recursion limit."""
    assert sys.getrecursionlimit() <= 1000
    k = 10_000
    args = " ".join(f"t{i}" for i in range(1, k + 1))
    aleph = rf"(\f. mu a. f (\x. [a] x)) w {args}"
    assert run("reduce", aleph, "--fuel", str(k + 1)) == 0
    assert capsys.readouterr() == (rf"mu a. w (\x. [a] x {args})" + f"\nsteps: {k + 1}\n", "")
