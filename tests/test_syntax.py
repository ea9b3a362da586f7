import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import formula_oracle as O
import syntax_oracle as SO
from bllp import corpus as C
from bllp import formula as F
from bllp import lammu as L
from bllp import syntax as S
from bllp.proofs import check_proof, map_derivation, special_steps, weight
from bllp.respoly import add, binom, const, fresh_var, mul, pvar
from bllp.syntax import (
    ParseError,
    derivation_from_obj,
    derivation_to_obj,
    parse_formula,
    parse_lf,
    parse_poly,
    parse_term,
    print_formula,
    print_lf,
    print_poly,
    print_term,
    proof_from_obj,
    proof_to_obj,
)
from bllp.typecheck import add_to_mult, check_additive


@st.composite
def polys(draw):
    p = const(draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 3))):
        coeff = const(draw(st.integers(1, 3)))
        term = coeff
        for v in draw(st.sets(st.sampled_from(["x", "y", "z"]), max_size=2)):
            term = mul(term, binom(v, draw(st.integers(1, 3))))
        p = add(p, term)
    return p


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([F.Atom("V"), F.NegAtom("W"), F.ONE_F, F.BOTTOM]))
    kind = draw(st.sampled_from(["atom", "tensor", "par", "bang", "whynot", "arrow"]))
    sub = formulas(depth=depth - 1)
    match kind:
        case "atom":
            return draw(st.sampled_from([F.Atom("V"), F.NegAtom("W")]))
        case "tensor":
            return F.Tensor(draw(sub), draw(sub))
        case "par":
            return F.Par(draw(sub), draw(sub))
        case "bang":
            a = draw(sub)
            return F.Bang("v", draw(polys()), a if O.is_negative(a) else F.negate(a))
        case "whynot":
            a = draw(sub)
            return F.WhyNot("v", draw(polys()), a if O.is_positive(a) else F.negate(a))
        case "arrow":
            a, b = draw(sub), draw(sub)
            return F.arrow(
                a if O.is_negative(a) else F.negate(a),
                "v",
                draw(polys()),
                b if O.is_negative(b) else F.negate(b),
            )


@st.composite
def terms(draw, depth=3):
    if depth == 0:
        return L.Var(draw(st.sampled_from(["x", "y", "f"])))
    kind = draw(st.sampled_from(["var", "lam", "mu", "named", "app"]))
    sub = terms(depth=depth - 1)
    match kind:
        case "var":
            return L.Var(draw(st.sampled_from(["x", "y", "f"])))
        case "lam":
            return L.Lam(draw(st.sampled_from(["x", "y"])), draw(sub))
        case "mu":
            return L.Mu(draw(st.sampled_from(["a", "b"])), draw(sub))
        case "named":
            return L.Named(draw(st.sampled_from(["a", "b"])), draw(sub))
        case "app":
            return L.App(draw(sub), draw(sub))


@settings(max_examples=150)
@given(polys())
def test_poly_roundtrip(p):
    assert parse_poly(print_poly(p)) == p


@settings(max_examples=150)
@given(formulas())
def test_formula_roundtrip(f):
    assert F.alpha_eq(parse_formula(print_formula(f)), f)


@settings(max_examples=100)
@given(formulas())
def test_a_formula_with_no_generated_binder_is_displayed_as_itself(f):
    assert S._display_formula(f, F.free_rvars(f)) is f


def test_generated_binders_print_plain():
    """A generated binder (one with '#') gets a plain name, also when its
    body does not read it, and avoids the free names below it."""
    used = F.Bang("x#4", pvar("n"), F.WhyNot("y", pvar("x#4"), F.Atom("X")))
    unused = F.Bang("x#9", const(1), F.Tensor(F.Atom("Y"), F.ONE_F))
    assert print_formula(F.Par(used, unused)) == "!{x<n} ?{y<x} X par !{x<1} (Y * 1)"
    assert print_formula(F.Tensor(F.Bang("x#4", pvar("x"), F.Atom("X")), F.Atom("Z"))) == "!{x1<x} X * Z"


@settings(max_examples=100)
@given(formulas(), polys())
def test_labelled_roundtrip(f, p):
    a = F.lf(f, "v" if "v" in F.free_rvars(f) else F.VACUOUS, p)
    assert F.lf_alpha_eq(parse_lf(print_lf(a)), a)


@settings(max_examples=150)
@given(terms())
def test_term_roundtrip(t):
    assert L.alpha_eq(parse_term(print_term(t)), t)


def test_paper_terms_parse():
    kappa = parse_term(r"\x. mu a. [a] (x) \y. mu b. [a] y")
    assert L.alpha_eq(kappa, C.KAPPA)
    aleph = parse_term(r"\f. mu a. (f) \x. [a] x")
    assert L.alpha_eq(aleph, C.ALEPH)


def test_poly_examples():
    assert print_poly(parse_poly("bin(x,1) + 2*bin(x,2)")) == "x + 2*bin(x,2)"
    assert parse_poly("sum(z < y, 1)") == pvar("y")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse_term("(t")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_poly("bin(x, y)")
    with pytest.raises(ParseError):
        parse_formula("V **")
    # a malformed binder before a bound: in a modality, an arrow and a label
    for parse, src, offset, message in [
        (parse_formula, "?{_ p} V", 4, "expected '<', found 'p'"),
        (parse_formula, "~X -[v<]-> ~Y", 7, "expected a polynomial, found ']->'"),
        (parse_lf, "<bot>[q<1", 9, "expected ']', found 'end of input'"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.offset == offset
        assert str(exc.value) == f"at offset {offset}: {message}"


def test_arrow_sugar():
    f = parse_formula("~X -[v<r]-> ~Y")
    assert f == F.arrow(F.NegAtom("X"), "v", pvar("r"), F.NegAtom("Y"))
    g = parse_formula("~X -[1]-> bot")
    assert g == F.arrow(F.NegAtom("X"), F.VACUOUS, const(1), F.BOTTOM)


def test_vacuous_and_named_bounds():
    assert parse_formula("?{x<p} V") == F.WhyNot("x", pvar("p"), F.Atom("V"))
    assert parse_formula("?{p} V") == F.WhyNot(F.VACUOUS, pvar("p"), F.Atom("V"))
    assert parse_lf("<bot>[q]").binder == F.VACUOUS


@pytest.mark.parametrize("name", [e.name for e in C.entries() if e.derivation])
def test_derivation_files_roundtrip(name):
    d = C.by_name(name).derivation
    blob = json.dumps(derivation_to_obj(d, "additive"))
    d2, system = derivation_from_obj(json.loads(blob))
    assert system == "additive"
    assert check_additive(d2).ok
    assert L.alpha_eq(d2.concl.subject, d.concl.subject)
    assert F.lf_alpha_eq(d2.concl.type, d.concl.type)


def _node_texts(obj: dict) -> list[str]:
    """A file's header, then each node of its tree in pre-order as JSON, with
    the number of its premises in place of them.

    The ``json`` encoder and decoder recurse, so a deep tree is serialized a
    node at a time.
    """
    out = [json.dumps({k: v for k, v in obj.items() if k != "tree"})]
    stack = [obj["tree"]]
    while stack:
        node = stack.pop()
        out.append(json.dumps({**node, "premises": len(node["premises"])}))
        stack.extend(reversed(node["premises"]))
    return out


def _rules(tree) -> list[str]:
    """The rules of a derivation or proof in pre-order, premises left to right."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node.rule)
        stack.extend(reversed(node.premises))
    return out


def test_church_500_files_round_trip_at_the_default_recursion_limit():
    d = C.church_applied_derivation(500)
    obj = derivation_to_obj(d, "additive")
    assert [json.loads(s)["rule"] for s in _node_texts(obj)[1:]] == _rules(d)
    d2, system = derivation_from_obj(obj)
    assert system == "additive"
    assert _node_texts(derivation_to_obj(d2, "additive")) == _node_texts(obj)
    assert d2 == d and hash(d2) == hash(d)
    assert check_additive(d2).ok
    pf = map_derivation(add_to_mult(d))
    obj = proof_to_obj(pf)
    assert [json.loads(s)["rule"] for s in _node_texts(obj)[1:]] == _rules(pf)
    p2 = proof_from_obj(obj)
    assert _node_texts(proof_to_obj(p2)) == _node_texts(obj)
    assert p2 == pf and hash(p2) == hash(pf)
    assert check_proof(p2).ok


def test_proof_files_print_each_sequent_entry_object_once(monkeypatch):
    """The file of a proof along its special steps equals the one printed
    node by node, and ``print_formula`` runs once per distinct formula
    object and ``print_poly`` once per distinct label object of the file:
    those of the sequent entries and of the ``data`` fields (an axiom's
    witness, a dereliction's ``P`` and ``p``, a box's witnessed doors).  A
    witness is printed as an entry is, never by ``print_lf``."""
    pf = map_derivation(add_to_mult(C.church_applied_derivation(6)))
    proofs = [pf] + [hit.result for hit in special_steps(pf)]
    formulas, labels, witnesses, inside = [], [], [], [False]

    def counted_formula(f):
        formulas.append(f)
        inside[0] = True  # the bounds in a formula are not labels
        try:
            return print_formula(f)
        finally:
            inside[0] = False

    def counted_poly(q):
        if not inside[0]:
            labels.append(q)
        return print_poly(q)

    def counted_lf(a):
        witnesses.append(a)
        return print_lf(a)

    monkeypatch.setattr(S, "print_formula", counted_formula)
    monkeypatch.setattr(S, "print_poly", counted_poly)
    monkeypatch.setattr(S, "print_lf", counted_lf)
    for q in proofs:
        formulas.clear()
        labels.clear()
        obj = proof_to_obj(q)
        nodes, entries = [], {}
        stack = [q]
        while stack:
            node = stack.pop()
            nodes.append(node)
            entries.update((id(a), a) for a in node.concl)
            stack.extend(reversed(node.premises))
        data = [node.data for node in nodes]
        ax = [d["witness"] for d in data if "witness" in d]
        assert ax and witnesses == []
        formula_objs = {id(a.formula) for a in [*entries.values(), *ax]}
        formula_objs |= {id(d["P"]) for d in data if "P" in d}
        formula_objs |= {id(b) for d in data for b, _ in d.get("sum_witness", {}).values()}
        label_objs = {id(a.label) for a in [*entries.values(), *ax]}
        label_objs |= {id(d["p"]) for d in data if "p" in d}
        assert sorted(map(id, formulas)) == sorted(formula_objs)
        assert sorted(map(id, labels)) == sorted(label_objs)
        assert len({id(a.formula) for a in entries.values()}) < len(entries)
        assert len({id(a.label) for a in entries.values()}) < len(entries)
        sequents = [[print_lf(a) for a in node.concl] for node in nodes]
        assert [json.loads(t)["sequent"] for t in _node_texts(obj)[1:]] == sequents


def test_proof_files_parse_each_distinct_text_once(monkeypatch):
    """Reading a proof file parses each distinct sequent entry and witness,
    each distinct ``P`` and each distinct ``p`` text once."""
    pf = map_derivation(add_to_mult(C.church_applied_derivation(6)))
    obj = json.loads(json.dumps(proof_to_obj(pf)))
    fields = {"parse_lf": "witness", "parse_formula": "P", "parse_poly": "p"}
    texts = {name: [] for name in fields}
    stack = [obj["tree"]]
    while stack:
        node = stack.pop()
        stack.extend(node["premises"])
        texts["parse_lf"] += node["sequent"]
        for name, key in fields.items():
            if key in node["data"]:
                texts[name].append(node["data"][key])
    calls = {name: [] for name in fields}
    for name in fields:
        monkeypatch.setattr(S, name, lambda s, parse=getattr(S, name), name=name: (
            calls[name].append(s) or parse(s)
        ))
    assert proof_from_obj(obj) == pf
    for name, seen in texts.items():
        assert sorted(calls[name]) == sorted(set(seen)) and len(set(seen)) < len(seen), name


def test_proof_files_roundtrip():
    pf = map_derivation(add_to_mult(C.by_name("kappa-callcc").derivation))
    blob = json.dumps(proof_to_obj(pf))
    p2 = proof_from_obj(json.loads(blob))
    assert check_proof(p2).ok
    assert weight(p2) == weight(pf)


@pytest.mark.parametrize("name", [e.name for e in C.entries() if e.derivation])
def test_proof_round_trip_along_special_steps(name):
    pf = map_derivation(add_to_mult(C.by_name(name).derivation))
    proofs = [pf] + [q for hit in special_steps(pf) for q in (hit.exposed, hit.result)]
    for q in proofs:
        q2 = proof_from_obj(json.loads(json.dumps(proof_to_obj(q))))
        assert q2 == q
        seen = {}
        stack = [q2]
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            for a in node.concl:
                assert seen.setdefault(print_lf(a), a) is a


def test_proof_format_and_version_enforced():
    obj = proof_to_obj(map_derivation(add_to_mult(C.by_name("kappa").derivation)))
    with pytest.raises(ParseError):
        proof_from_obj({**obj, "format": "bllp-derivation"})
    with pytest.raises(ParseError):
        proof_from_obj({**obj, "version": 99})


def test_an_internal_error_while_reading_a_file_is_not_a_parse_error(monkeypatch):
    """Only the shape of the JSON value is checked as input; an exception
    raised by the parsers or constructors themselves propagates as it is."""
    import bllp.syntax as S

    d_obj = derivation_to_obj(C.by_name("kappa").derivation, "additive")
    p_obj = proof_to_obj(map_derivation(add_to_mult(C.by_name("kappa").derivation)))

    def broken(src):
        raise TypeError("internal")

    monkeypatch.setattr(S, "parse_lf", broken)
    with pytest.raises(TypeError, match="internal"):
        derivation_from_obj(d_obj)
    with pytest.raises(TypeError, match="internal"):
        proof_from_obj(p_obj)


def test_format_version_enforced():
    obj = derivation_to_obj(C.by_name("kappa").derivation, "additive")
    obj["version"] = 99
    with pytest.raises(ParseError):
        derivation_from_obj(obj)


# -- the lexer, parsers and formula printer against their former definitions --------
#
# ``syntax_oracle`` keeps the one-object-per-token lexer, the recursive
# parsers and the two-walk formula printer.  Valid texts must parse to
# equal values, a text with one character inserted, deleted or replaced
# must fail with the same error at the same offset (or parse to the same
# value), and every formula must print to the same text.

NAMES = ["X", "Y", "a'b_1", "x", "y", "v"]


@st.composite
def poly_texts(draw, depth=2):
    leaf = st.sampled_from(["0", "1", "12", "x", "y", "bin(x,2)", "bin(y, 1)", "007"])
    if depth == 0:
        return draw(leaf)
    kind = draw(st.sampled_from(["leaf", "sum", "product", "parens", "bounded"]))
    sub = poly_texts(depth=depth - 1)
    if kind == "leaf":
        return draw(leaf)
    if kind == "sum":
        return f"{draw(sub)} + {draw(sub)}"
    if kind == "product":
        return f"{draw(sub)}*{draw(sub)}"
    if kind == "parens":
        return f"({draw(sub)})"
    return f"sum(z < {draw(sub)}, {draw(sub)} + z)"


@st.composite
def bound_texts(draw):
    return draw(st.sampled_from(["", "v<", "_<", "x<"])) + draw(poly_texts())


@st.composite
def formula_texts(draw, depth=3):
    leaf = st.sampled_from(NAMES + ["1", "bot", "~X"])
    if depth == 0:
        return draw(leaf)
    kind = draw(st.sampled_from(["leaf", "neg", "bang", "whynot", "tensor", "par", "arrow", "parens"]))
    sub = formula_texts(depth=depth - 1)
    match kind:
        case "leaf":
            return draw(leaf)
        case "neg":
            return f"~{draw(sub)}"
        case "bang" | "whynot":
            return f"{'!' if kind == 'bang' else '?'}{{{draw(bound_texts())}}} {draw(sub)}"
        case "tensor":
            return f"{draw(sub)} * {draw(sub)}"
        case "par":
            return f"{draw(sub)} par {draw(sub)}"
        case "arrow":
            return f"{draw(sub)} -[{draw(bound_texts())}]-> {draw(sub)}"
        case "parens":
            return f"({draw(sub)})"


@st.composite
def lf_texts(draw):
    return f"<{draw(formula_texts())}>[{draw(bound_texts())}]"


@st.composite
def term_texts(draw, depth=3):
    leaf = st.sampled_from(["x", "y", "f", "t1"])
    if depth == 0:
        return draw(leaf)
    kind = draw(st.sampled_from(["leaf", "lam", "mu", "named", "app", "parens"]))
    sub = term_texts(depth=depth - 1)
    match kind:
        case "leaf":
            return draw(leaf)
        case "lam":
            return f"\\{draw(leaf)}. {draw(sub)}"
        case "mu":
            return f"mu a. {draw(sub)}"
        case "named":
            return f"[a] {draw(sub)}"
        case "app":
            return f"{draw(sub)} {draw(sub)}"
        case "parens":
            return f"({draw(sub)})"


PARSERS = {
    "poly": (poly_texts(), S.parse_poly, SO.parse_poly),
    "formula": (formula_texts(), S.parse_formula, SO.parse_formula),
    "lf": (lf_texts(), S.parse_lf, SO.parse_lf),
    "term": (term_texts(), S.parse_term, SO.parse_term),
}


def _outcome(parse, src):
    """What ``parse(src)`` gives: ("ok", value) or the exception's class,
    message and offset."""
    try:
        return "ok", parse(src)
    except Exception as e:  # the two parsers must fail alike, whatever the failure
        return type(e).__name__, str(e), getattr(e, "offset", None)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_valid_texts_parse_as_the_former_parsers_parse_them(kind, data):
    texts, parse, former = PARSERS[kind]
    src = data.draw(texts)
    got = _outcome(parse, src)
    assert got == _outcome(former, src)
    if got[0] == "ok":
        spaced = data.draw(st.sampled_from(["  ", "\t", "\n "])).join(src.split(" "))
        assert _outcome(parse, spaced) == got


# Characters a token may hold, whitespace, and characters no token starts
# with: an ASCII one, a non-ASCII letter, a superscript and an Arabic-Indic digit.
EDITS = list("(){}[]<>,+*~!?._\\-=' 09aZ") + ["\t", " ", "é", "²", "٣"]


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_an_edited_text_fails_as_the_former_parsers_fail(kind, data):
    texts, parse, former = PARSERS[kind]
    src = data.draw(texts)
    at = data.draw(st.integers(0, len(src)))
    op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    c = data.draw(st.sampled_from(EDITS))
    if op == "insert":
        src = src[:at] + c + src[at:]
    elif op == "delete":
        src = src[:at] + src[at + 1 :]
    else:
        src = src[:at] + c + src[at + 1 :]
    assert _outcome(parse, src) == _outcome(former, src)


@pytest.mark.parametrize("value", [None, 7, 1.5, True, ["X"], {"X": 1}, b"X"])
def test_a_value_that_is_not_text_fails_as_the_former_parsers_fail(value):
    for _, parse, former in PARSERS.values():
        got = _outcome(parse, value)
        assert got[0] == "ParseError" and got == _outcome(former, value)


@st.composite
def generated_formulas(draw):
    """A formula, maybe with binders named by ``fresh_var`` (``#``): a new
    modality whose body reads its binder, a binder ``v`` that
    ``subst_poly`` renames to avoid capturing a substituted ``v``, or a
    label binder that ``lf_subst`` renames, bound again by a modality."""
    f = draw(formulas())
    if draw(st.booleans()):
        x = fresh_var("v")
        f = F.Bang(x, draw(polys()), F.Tensor(F.Bang("w", pvar(x), F.Atom("X")), F.negate(f)))
    if draw(st.booleans()):
        f = F.subst_poly(f, "x", pvar("v"))
    if draw(st.booleans()):
        a = F.lf(F.Par(F.WhyNot("u", pvar("v"), F.NegAtom("Y")), f), "v", draw(polys()))
        a = F.lf_subst(a, "y", pvar("v"))
        f = F.WhyNot(a.binder, a.label, a.formula)
    return f


@settings(max_examples=150, deadline=None)
@given(generated_formulas())
def test_formulas_print_as_the_former_two_walk_printer_prints_them(f):
    assert print_formula(f) == SO.print_formula(f)


def test_a_generated_binder_is_renamed_before_printing():
    x = fresh_var("v")
    f = F.Tensor(F.Atom("Z"), F.Bang(x, pvar("v"), F.WhyNot("w", pvar(x), F.Atom("X"))))
    assert "#" in x and print_formula(f) == SO.print_formula(f) == "Z * !{v1<v} ?{w<v1} X"


def _same_formula(f: F.Formula, g: F.Formula) -> bool:
    """``f == g`` on an explicit stack (``==`` itself recurses)."""
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        for name in type(a).__match_args__:
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(x, F.Formula):
                stack.append((x, y))
            elif x != y:
                return False
    return True


def test_chains_of_ten_thousand_print_and_parse_at_the_default_recursion_limit():
    depth = 10_000
    assert depth > sys.getrecursionlimit()
    bangs, arrows = F.Atom("X"), F.NegAtom("X")
    for _ in range(depth):
        bangs = F.Bang(F.VACUOUS, const(1), bangs)
        arrows = F.arrow(F.NegAtom("Y"), F.VACUOUS, const(1), arrows)
    for f, start in ((bangs, "!{1} " * 3), (arrows, "?{1} Y par (" * 3)):
        text = print_formula(f)
        assert text.startswith(start)
        assert _same_formula(parse_formula(text), f)
    texts = {
        "~" * depth + "X": F.Atom("X"),
        "?{1} " * depth + "X": None,
        "~Y -[1]-> " * depth + "bot": None,
        "(" * depth + "X" + ")" * depth: F.Atom("X"),
    }
    for text, want in texts.items():
        got = parse_formula(text)
        assert print_formula(parse_formula(print_formula(got))) == print_formula(got)
        if want is not None:
            assert got == want
