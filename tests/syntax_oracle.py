"""Reference syntax definitions for the tests: the lexer, parsers and
formula printer that ``bllp.syntax`` replaced.

``tokenize`` builds one ``Token`` per token, with its kind and character
offset, by one regular-expression match per token; ``_Parser`` reads that
list, and the formula, polynomial, labelled-formula and term parsers take
it apart by recursive descent (the term parser on its explicit stack of
frames, as before).  ``print_formula`` walks each formula twice: once to
rename generated binders (``bllp.syntax._display_formula``, which the
library still uses) and once, recursively, to print it.

``bllp.syntax`` splits a text into token strings with one ``findall``,
works offsets out again only for a parse error, parses formulas on an
explicit stack and prints a formula in one walk.  The tests check that
both give equal values, the same errors at the same offsets, and the same
text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from bllp import formula as F
from bllp import lammu as L
from bllp import respoly as R
from bllp.syntax import KEYWORDS, ParseError, _display_formula, _json_name, print_poly

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<nat>\d+)"
    r"|(?P<punct><=|-\[|\]->|[()<>,+*~!?\[\]{}.\\_])"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9'_]*))"
)


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


# -- formulas ------------------------------------------------------------------


def _parse_bound(p: _Parser, close: str) -> tuple[str, R.Poly]:
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


# -- terms ---------------------------------------------------------------------


_TERM_BINDERS = {"\\": (L.Lam, "λ-variable", "."), "mu": (L.Mu, "μ-variable", "."),
                 "[": (L.Named, "μ-variable", "]")}


def _parse_term(p: _Parser) -> L.Term:
    frames: list = []
    head = None
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
