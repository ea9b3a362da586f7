"""Concrete syntax: tokenizer, parsers and printers.

Grammars are documented in FORMATS.md.  Parse errors carry the character
offset of the offending token.  Printing composed with parsing is the
identity up to α-renaming and polynomial canonicalisation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import formula as F
from . import lammu as L
from . import respoly as R


class ParseError(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<nat>\d+)"
    r"|(?P<punct><=|-\[|\]->|[()<>,+*~!?\[\]{}.\\_])"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9'_]*))"
)

KEYWORDS = {"bin", "sum", "par", "bot", "mu"}


@dataclass
class Token:
    kind: str  # nat | punct | ident | eof
    text: str
    offset: int


def tokenize(src: str) -> list[Token]:
    if not isinstance(src, str):
        raise ParseError(0, f"expected text, found {_json_name(src)}")
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(len(src) - len(stripped), f"unexpected character {stripped[0]!r}")
        if m.lastgroup is None:
            pos = m.end()
            continue
        text = m.group(m.lastgroup)
        out.append(Token(m.lastgroup, text, m.start(m.lastgroup)))
        pos = m.end()
    out.append(Token("eof", "", len(src)))
    return out


class _Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(t.offset, f"expected {text!r}, found {t.text or 'end of input'!r}")
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def ident(self, what: str = "identifier") -> str:
        t = self.next()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise ParseError(t.offset, f"expected {what}, found {t.text or 'end of input'!r}")
        return t.text

    def done(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(t.offset, f"trailing input {t.text!r}")


# -- polynomials ---------------------------------------------------------------


def _parse_poly(p: _Parser) -> R.Poly:
    out = _parse_poly_term(p)
    while p.eat("+"):
        out = R.add(out, _parse_poly_term(p))
    return out


def _parse_poly_term(p: _Parser) -> R.Poly:
    out = _parse_poly_factor(p)
    while p.eat("*"):
        out = R.mul(out, _parse_poly_factor(p))
    return out


def _parse_poly_factor(p: _Parser) -> R.Poly:
    t = p.peek()
    if t.kind == "nat":
        p.next()
        return R.const(int(t.text))
    if t.text == "(":
        p.next()
        out = _parse_poly(p)
        p.expect(")")
        return out
    if t.text == "bin":
        p.next()
        p.expect("(")
        v = p.ident("variable")
        p.expect(",")
        n = p.next()
        if n.kind != "nat":
            raise ParseError(n.offset, "expected a degree")
        p.expect(")")
        return R.binom(v, int(n.text))
    if t.text == "sum":
        p.next()
        p.expect("(")
        v = p.ident("sum variable")
        p.expect("<")
        bound = _parse_poly(p)
        p.expect(",")
        body = _parse_poly(p)
        p.expect(")")
        return R.bounded_sum(v, bound, body)
    if t.kind == "ident" and t.text not in KEYWORDS:
        p.next()
        return R.pvar(t.text)
    raise ParseError(t.offset, f"expected a polynomial, found {t.text or 'end of input'!r}")


def parse_poly(src: str) -> R.Poly:
    p = _Parser(src)
    out = _parse_poly(p)
    p.done()
    return out


def print_poly(q: R.Poly) -> str:
    if q.is_zero():
        return "0"
    parts = []
    for mono, coeff in q.terms:
        factors = [f"bin({v},{n})" if n > 1 else v for v, n in mono.factors]
        if coeff != 1 or not factors:
            factors = [str(coeff)] + factors
        parts.append("*".join(factors))
    return " + ".join(parts)


# -- formulas ------------------------------------------------------------------


def _parse_bound(p: _Parser, close: str) -> tuple[str, R.Poly]:
    """``x<p``, ``_<p`` or ``p``, then ``close``: the bound of a modality
    ``{x<p}``, of an arrow ``-[x<p]->`` or of a labelled formula ``[x<p]``."""
    save = p.i
    binder = F.VACUOUS
    if p.peek().kind == "ident" and p.peek().text not in KEYWORDS:
        binder = p.next().text
        if not p.eat("<"):
            p.i = save
            binder = F.VACUOUS
    elif p.eat("_"):
        p.expect("<")
    bound = _parse_poly(p)
    p.expect(close)
    return binder, bound


def _parse_formula(p: _Parser) -> F.Formula:
    left = _parse_par(p)
    if p.eat("-["):
        binder, bound = _parse_bound(p, "]->")
        right = _parse_formula(p)
        return F.arrow(left, binder, bound, right)
    return left


def _parse_par(p: _Parser) -> F.Formula:
    out = _parse_tensor(p)
    while p.at("par"):
        p.next()
        out = F.Par(out, _parse_tensor(p))
    return out


def _parse_tensor(p: _Parser) -> F.Formula:
    out = _parse_atom_formula(p)
    while p.eat("*"):
        out = F.Tensor(out, _parse_atom_formula(p))
    return out


def _parse_atom_formula(p: _Parser) -> F.Formula:
    t = p.peek()
    if t.text == "(":
        p.next()
        out = _parse_formula(p)
        p.expect(")")
        return out
    if t.text == "1":
        p.next()
        return F.ONE_F
    if t.text == "bot":
        p.next()
        return F.BOTTOM
    if t.text == "~":
        p.next()
        return F.negate(_parse_atom_formula(p))
    if t.text == "!":
        p.next()
        p.expect("{")
        v, bound = _parse_bound(p, "}")
        return F.Bang(v, bound, _parse_atom_formula(p))
    if t.text == "?":
        p.next()
        p.expect("{")
        v, bound = _parse_bound(p, "}")
        return F.WhyNot(v, bound, _parse_atom_formula(p))
    if t.kind == "ident" and t.text not in KEYWORDS:
        p.next()
        return F.Atom(t.text)
    raise ParseError(t.offset, f"expected a formula, found {t.text or 'end of input'!r}")


def parse_formula(src: str) -> F.Formula:
    p = _Parser(src)
    out = _parse_formula(p)
    p.done()
    return out


def _print_bound(var: str, bound: R.Poly) -> str:
    if var == F.VACUOUS:
        return "{" + print_poly(bound) + "}"
    return "{" + var + "<" + print_poly(bound) + "}"


def print_formula(f: F.Formula) -> str:
    f = _display_formula(f, F.free_rvars(f))
    return _print_formula(f)


def _print_formula(f: F.Formula) -> str:
    match f:
        case F.Atom(n):
            return n
        case F.NegAtom(n):
            return f"~{n}"
        case F.One():
            return "1"
        case F.Bottom():
            return "bot"
        case F.Tensor(l, r):
            return f"{_paren_mult(l)} * {_paren_mult(r)}"
        case F.Par(l, r):
            return f"{_paren_mult(l)} par {_paren_mult(r)}"
        case F.Bang(v, p, n):
            return f"!{_print_bound(v, p)} {_paren_mult(n)}"
        case F.WhyNot(v, p, n):
            return f"?{_print_bound(v, p)} {_paren_mult(n)}"
    raise TypeError(f)


def _paren_mult(f: F.Formula) -> str:
    if isinstance(f, (F.Tensor, F.Par)):
        return f"({_print_formula(f)})"
    return _print_formula(f)


def parse_lf(src: str) -> F.LF:
    p = _Parser(src)
    out = _parse_lf(p)
    p.done()
    return out


def _parse_lf(p: _Parser) -> F.LF:
    p.expect("<")
    f = _parse_formula(p)
    p.expect(">")
    p.expect("[")
    binder, label = _parse_bound(p, "]")
    return F.lf(f, binder, label)


def print_lf(a: F.LF) -> str:
    return _lf_text(print_formula(a.formula), a.binder, print_poly(a.label))


def _lf_text(formula: str, binder: str, label: str) -> str:
    """The text of a labelled formula from its printed formula and label."""
    if binder == F.VACUOUS:
        return f"<{formula}>[{label}]"
    return f"<{formula}>[{binder}<{label}]"


# -- display renaming ----------------------------------------------------------
#
# Internally generated names carry '%' (terms) or '#' (formulas) so they can
# never collide with parsed input; they are renamed to plain names on output.


def _pretty_name(base: str, avoid: set[str]) -> str:
    root = base.split("%")[0].split("#")[0].lstrip("#@%") or "v"
    if root not in avoid:
        return root
    k = 1
    while f"{root}{k}" in avoid:
        k += 1
    return f"{root}{k}"


def _display_formula(f: F.Formula, avoid: frozenset[str]) -> F.Formula:
    """``f`` with each generated binder made plain; a node with none below it
    is returned itself, not rebuilt."""
    match f:
        case F.Atom(_) | F.NegAtom(_) | F.One() | F.Bottom():
            return f
        case F.Tensor(l, r) | F.Par(l, r):
            l2, r2 = _display_formula(l, avoid), _display_formula(r, avoid)
            return f if l2 is l and r2 is r else type(f)(l2, r2)
        case F.Bang(x, p, n) | F.WhyNot(x, p, n):
            if x != F.VACUOUS and ("#" in x or "%" in x):
                x2 = _pretty_name(x, avoid | F.free_rvars(n) | p.free_vars())
                n = F.subst_poly(n, x, R.pvar(x2))
                x = x2
            n2 = _display_formula(n, avoid | {x})
            return f if x is f.var and n2 is f.body else type(f)(x, p, n2)
    raise TypeError(f)


# -- terms ---------------------------------------------------------------------


_TERM_BINDERS = {"\\": (L.Lam, "λ-variable", "."), "mu": (L.Mu, "μ-variable", "."),
                 "[": (L.Named, "μ-variable", "]")}


def _parse_term(p: _Parser) -> L.Term:
    """Binders and namings, then an application of atoms that may end in one
    more binder or naming.  Each construct waiting for its last term is a
    frame: (binder class, name), (L.App, function) before a binder or naming
    as last argument, or (None, the application before a "(", or None)."""
    frames: list = []
    head = None  # the application parsed so far; None at the start of a term
    while True:
        t = p.peek()
        if t.text in _TERM_BINDERS:
            if head is not None:
                frames.append((L.App, head))
                head = None
            cls, what, close = _TERM_BINDERS[p.next().text]
            frames.append((cls, p.ident(what)))
            p.expect(close)
        elif t.text == "(":
            p.next()
            frames.append((None, head))
            head = None
        elif t.kind == "ident" and t.text not in KEYWORDS:
            p.next()
            head = L.Var(t.text) if head is None else L.App(head, L.Var(t.text))
        elif head is None:
            raise ParseError(t.offset, f"expected a term, found {t.text or 'end of input'!r}")
        else:
            out = head
            while frames:
                cls, x = frames.pop()
                if cls is None:
                    p.expect(")")
                    head = out if x is None else L.App(x, out)
                    break
                out = L.App(x, out) if cls is L.App else cls(x, out)
            else:
                return out


def parse_term(src: str) -> L.Term:
    p = _Parser(src)
    out = _parse_term(p)
    p.done()
    return out


_PREFIX = {L.Lam: "\\{}. ", L.Mu: "mu {}. ", L.Named: "[{}] "}


def print_term(t: L.Term) -> str:
    """The text of ``t``, with every generated binder name (one with '%')
    made plain.

    A binder's new name avoids the free names of ``t`` (computed only once
    a binder needs a new name), the names of the binders and namings
    around it and the free names of its body.  One pre-order walk on an
    explicit stack, function side first, renames each binder before its
    body and emits the pieces in reading order, joined once at the end; so
    the renamings, and the fresh names ``L.subst`` may draw, come in the
    order of a left-to-right recursion, at any depth.
    """
    outer: set[str] | None = None
    scope: set[str] = set()
    out: list[str] = []
    # Entries are a term, a piece of text, or (name,) to leave its scope.
    stack: list = [t]
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is str:
            out.append(item)
        elif cls is tuple:
            scope.discard(item[0])
        elif cls is L.Var:
            out.append(item.name)
        elif cls is L.App:
            f, a = item.fn, item.arg
            stack += [" " + a.name] if type(a) is L.Var else [")", a, " ("]
            stack += [")", f, "("] if type(f) in _PREFIX else [f]
        elif cls in _PREFIX:
            name, body = (item.var if cls is L.Lam else item.mvar), item.body
            if "%" in name and cls is not L.Named:
                if outer is None:
                    outer = L.free_vars(t) | L.free_mvars(t)
                if cls is L.Lam:
                    fresh = _pretty_name(name, outer | scope | L.free_vars(body))
                    body = L.subst(body, name, L.Var(fresh))
                else:
                    fresh = _pretty_name(name, outer | scope | L.free_mvars(body))
                    body = L.rename_mvar(body, name, fresh)
                name = fresh
            out.append(_PREFIX[cls].format(name))
            if name not in scope:
                scope.add(name)
                stack.append((name,))
            stack.append(body)
        else:
            raise TypeError(item)
    return "".join(out)


# -- derivation and proof files --------------------------------------------------------
#
# JSON layouts are documented in FORMATS.md; both carry a format tag and a
# version field.

DERIVATION_FORMAT = "bllp-derivation"
PROOF_FORMAT = "bllp-proof"
FORMAT_VERSION = 1


def judgment_to_obj(j, subject) -> dict:
    return {
        "lam": [[x, print_lf(a)] for x, a in j.lam],
        "subject": print_term(subject),
        "type": print_lf(j.type),
        "mu": [[x, print_lf(a)] for x, a in j.mu],
    }


def judgment_from_obj(obj: dict):
    from .typecheck import Judgment

    return Judgment(
        tuple((x, parse_lf(s)) for x, s in _context(obj, "lam")),
        parse_term(_field(obj, "subject", str, "derivation")),
        parse_lf(_field(obj, "type", str, "derivation")),
        tuple((x, parse_lf(s)) for x, s in _context(obj, "mu")),
    )


def _printer():
    """``once(x, show)``: ``show(x)``, computed once per object ``x`` for the
    life of this printer.  A file writer makes one per call; the tree it
    prints keeps every object alive, so no two share an id."""
    texts: dict[int, str] = {}

    def once(x, show) -> str:
        s = texts.get(id(x))
        if s is None:
            s = texts[id(x)] = show(x)
        return s

    return once


def _print_fields(fields: dict, once) -> dict:
    """A derivation node's ``ann`` or a proof node's ``data``, printed; keys
    of neither are dropped.  Each formula and label object goes through
    the file writer's ``once`` (see :func:`_printer`); a witness is printed
    as its formula and label."""
    out = {}
    for k, v in fields.items():
        if k in ("left", "right", "into", "left_idx", "right_idx", "idx", "x", "y"):
            out[k] = v
        elif k in ("h", "p"):
            out[k] = once(v, print_poly)
        elif k == "witness":
            out[k] = _lf_text(once(v.formula, print_formula), v.binder, once(v.label, print_poly))
        elif k == "P":
            out[k] = once(v, print_formula)
        elif k in ("sum_witness", "sum_witness_lam", "sum_witness_mu"):
            out[k] = {str(i): [once(b, print_formula), binder] for i, (b, binder) in v.items()}
    return out


def _ann_from_obj(obj: dict) -> dict:
    out = {}
    for k, v in obj.items():
        if k == "h":
            out[k] = parse_poly(v)
        elif k in ("left", "right", "into"):
            out[k] = _field(obj, k, str, "derivation")
        elif k in ("sum_witness_lam", "sum_witness_mu"):
            out[k] = _sum_witnesses(obj, k, "derivation", positions=False)
    return out


def _sum_witnesses(fields: dict, key: str, what: str, positions: bool) -> dict:
    """The ``sum_witness*`` object ``fields[key]``: [formula, binder] pairs of
    strings, under context names, or under premise positions (decimal
    digits, read as integers) if ``positions``."""
    out = {}
    for name, pair in _field(fields, key, dict, what).items():
        if positions and not name.isdecimal():
            raise ParseError(0, f"malformed {what} file: {key!r} has the key {name!r}, not a position")
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            shape = _json_name(pair)
            raise ParseError(0, f"malformed {what} file: {key!r} holds {shape}, not a [formula, binder] pair")
        out[int(name) if positions else name] = (parse_formula(pair[0]), pair[1])
    return out


def _map_tree(root, kids, pre, post):
    """The image of a tree's root, a node ``x``'s being ``post(pre(x), [images
    of its children])``, on an explicit stack.  ``pre`` meets the nodes in
    pre-order, so what printing a node draws comes in the order of a recursion.
    """
    out: list = []
    # Entries: (node, None) to visit, or (pre value, number of children).
    todo: list = [(root, None)]
    while todo:
        x, n = todo.pop()
        if n is None:
            children = kids(x)
            todo.append((pre(x), len(children)))
            todo += [(q, None) for q in reversed(children)]
        else:
            out[len(out) - n:] = [post(x, out[len(out) - n:])]
    return out[0]


def derivation_to_obj(d, system: str) -> dict:
    """The version-1 file of ``d``, which holds every node's whole subject.

    A node the library built stores none, so ``typecheck.subject_of``
    rebuilds each by a walk of the node's subtree down to the stored
    subjects.  Writing such a tree takes nodes × depth, the order of the
    file's own size.
    """
    from .typecheck import subject_of

    once = _printer()
    tree = _map_tree(
        d,
        lambda x: x.premises,
        lambda x: {
            "rule": x.rule,
            "judgment": judgment_to_obj(x.concl, subject_of(x)),
            "ann": _print_fields(x.ann, once),
        },
        lambda obj, premises: obj | {"premises": premises},
    )
    return {"format": DERIVATION_FORMAT, "version": FORMAT_VERSION, "system": system, "tree": tree}


def _check_header(obj, fmt: str, what: str) -> None:
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise ParseError(0, f"not a {what} file")
    if obj.get("version") != FORMAT_VERSION:
        raise ParseError(0, f"unsupported {what} format version {obj.get('version')!r}")


_JSON_NAMES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "a number",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _json_name(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _field(node, key: str, kind: type, what: str, default=None):
    """``node[key]`` in a ``what`` file, checked to be a JSON value of type
    ``kind``; ``default``, when given, stands for an absent key.  The
    readers take a node apart only through this, so a file of the wrong
    shape is a :class:`ParseError` before any of it is parsed or built."""
    if not isinstance(node, dict):
        raise ParseError(0, f"malformed {what} file: {_json_name(node)} where an object belongs")
    if key not in node:
        if default is None:
            raise ParseError(0, f"malformed {what} file: no {key!r}")
        return default
    value = node[key]
    # JSON true and false load as Python ints, and are not integers here.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        want = "an integer" if kind is int else _JSON_NAMES[kind]
        raise ParseError(0, f"malformed {what} file: {key!r} is {_json_name(value)}, not {want}")
    return value


def _array(node, key: str, what: str, item_ok, item: str) -> list:
    """The array ``node[key]`` of a ``what`` file, each of whose entries
    must satisfy ``item_ok``; ``item`` names such an entry in the error."""
    entries = _field(node, key, list, what)
    for x in entries:
        if not item_ok(x):
            raise ParseError(0, f"malformed {what} file: {key!r} holds {_json_name(x)}, not {item}")
    return entries


def _context(judgment: dict, key: str) -> list:
    """A judgment's ``lam`` or ``mu`` context, an array of [name, type] pairs."""
    return _array(
        judgment,
        key,
        "derivation",
        lambda x: isinstance(x, list) and len(x) == 2 and isinstance(x[0], str),
        "a [name, type] pair",
    )


def derivation_from_obj(obj: dict):
    """The derivation in a version-1 file, and its system (``additive``
    when the file names none)."""
    from .typecheck import RULES, Derivation

    what = "derivation"
    _check_header(obj, DERIVATION_FORMAT, what)
    system = _field(obj, "system", str, what, "additive")
    if not any(system in rule.systems for rule in RULES.values()):
        raise ParseError(0, f"malformed {what} file: unknown system {system!r}")
    tree = _map_tree(
        _field(obj, "tree", dict, what),
        lambda x: _field(x, "premises", list, what, []),
        lambda x: (
            _field(x, "rule", str, what),
            judgment_from_obj(_field(x, "judgment", dict, what)),
            _ann_from_obj(_field(x, "ann", dict, what, {})),
        ),
        lambda head, premises: Derivation(head[0], head[1], tuple(premises), head[2]),
    )
    return tree, system


def proof_to_obj(p) -> dict:
    # Each sequent entry object is printed once per call, and so is each
    # formula and label object: nodes share them, entries share their parts,
    # and the ``data`` fields share both.
    print_once = _printer()

    def entry(a: F.LF) -> str:
        formula, label = print_once(a.formula, print_formula), print_once(a.label, print_poly)
        return _lf_text(formula, a.binder, label)

    tree = _map_tree(
        p,
        lambda x: x.premises,
        lambda x: {
            "rule": x.rule,
            "sequent": [print_once(a, entry) for a in x.concl],
            "data": _print_fields(x.data, print_once),
        },
        lambda obj, premises: obj | {"premises": premises},
    )
    return {"format": PROOF_FORMAT, "version": FORMAT_VERSION, "tree": tree}


def proof_from_obj(obj: dict):
    from .proofs import Proof

    what = "proof"
    _check_header(obj, PROOF_FORMAT, what)
    # Each distinct text is parsed once per call, by each parser that reads
    # it, so equal sequent entries, ``P`` and ``p`` fields come back as one
    # object.  A value that is not text goes to the parser, which reports it.
    parsed: dict[tuple, object] = {}

    def parse_once(parse, s):
        if not isinstance(s, str):
            return parse(s)
        key = parse, s
        if key not in parsed:
            parsed[key] = parse(s)
        return parsed[key]

    def data_from(d: dict) -> dict:
        out = {}
        for k, v in d.items():
            if k in ("left_idx", "right_idx", "left", "right", "idx"):
                out[k] = _field(d, k, int, what)
            elif k == "witness":
                out[k] = parse_once(parse_lf, v)
            elif k == "P":
                out[k] = parse_once(parse_formula, v)
            elif k in ("x", "y"):
                out[k] = _field(d, k, str, what)
            elif k == "p":
                out[k] = parse_once(parse_poly, v)
            elif k == "sum_witness":
                out[k] = _sum_witnesses(d, k, what, positions=True)
        return out

    return _map_tree(
        _field(obj, "tree", dict, what),
        lambda x: _field(x, "premises", list, what, []),
        lambda x: (
            _field(x, "rule", str, what),
            tuple(
                parse_once(parse_lf, s)
                for s in _array(x, "sequent", what, lambda s: isinstance(s, str), "a string")
            ),
            data_from(_field(x, "data", dict, what, {})),
        ),
        lambda head, premises: Proof(head[0], head[1], tuple(premises), head[2]),
    )
