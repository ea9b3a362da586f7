"""Concrete syntax: lexer, parsers and printers; the grammars and the
token set are in FORMATS.md.

The lexer is one token pattern.  ``findall`` splits a text into token
strings, and the text is accepted when they hold all its characters but
whitespace; a token's kind is read off its first character.  Tokens keep
no offsets: an error works them out again with ``finditer``, so it carries
the character offset of the offending token or character (the text's
length at its end).

Formulas and terms are parsed, and formulas printed, on explicit stacks;
only polynomials and the renaming of generated binders recurse.  A file
writer prints each formula, label and sequent entry object once per file,
and a reader parses each distinct text once per file.  Printing composed
with parsing is the identity up to α-renaming and polynomial
canonicalisation.
"""

from __future__ import annotations

import re
from types import MappingProxyType

from . import formula as F
from . import lammu as L
from . import respoly as R


class ParseError(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset


# A punctuation mark (``<=``, ``-[`` and ``]->`` have more than one character), an identifier or a natural.
_TOKENS = re.compile(r"[()>,+*~!?\[{}.\\_]|[A-Za-z][A-Za-z0-9'_]*|<=?|\](?:->)?|-\[|\d+")

KEYWORDS = {"bin", "sum", "par", "bot", "mu"}


def _is_name(tok: str) -> bool:
    """An identifier that is no keyword (the end of input is ``""``)."""
    return tok[:1].isalpha() and tok not in KEYWORDS


class _Parser:
    """The tokens of a text, read left to right, then ``""`` for its end."""

    __slots__ = ("src", "toks", "i")

    def __init__(self, src: str):
        if not isinstance(src, str):
            raise ParseError(0, f"expected text, found {_json_name(src)}")
        self.src, self.toks, self.i = src, _TOKENS.findall(src), 0
        # ``findall`` skips what no token matches: the text is tokens between
        # whitespace when they hold all its other characters.
        if len("".join(self.toks)) != len("".join(src.split())):
            inside = {i for m in _TOKENS.finditer(src) for i in range(*m.span())}
            pos = next(i for i, c in enumerate(src) if not (i in inside or c.isspace()))
            raise ParseError(pos, f"unexpected character {src[pos]!r}")
        self.toks.append("")

    def fail(self, message: str) -> ParseError:
        """A parse error at the current token, its offset worked out again."""
        starts = [m.start() for m in _TOKENS.finditer(self.src)] + [len(self.src)]
        return ParseError(starts[self.i], message)

    def wanted(self, what: str) -> ParseError:
        """A parse error: ``what`` was expected at the current token."""
        return self.fail(f"expected {what}, found {self.toks[self.i] or 'end of input'!r}")

    def expect(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self.wanted(repr(text))
        self.i += 1

    def ident(self, what: str) -> str:
        t = self.toks[self.i]
        if not _is_name(t):
            raise self.wanted(what)
        self.i += 1
        return t


def _whole(src: str, read):
    """What ``read`` takes from the start of ``src``, which must be all of it."""
    p = _Parser(src)
    out = read(p)
    if p.toks[p.i]:
        raise p.fail(f"trailing input {p.toks[p.i]!r}")
    return out


# -- polynomials ---------------------------------------------------------------


def _parse_poly(p: _Parser) -> R.Poly:
    """Terms joined by ``+``, each of factors joined by ``*``; a factor in
    parentheses or a bounded sum is read by a recursive call."""
    toks, out, term = p.toks, None, None
    while True:
        t = toks[p.i]
        p.i += 1
        if t.isdecimal():
            f = R.const(int(t))
        elif t == "(":
            f = _parse_poly(p)
            p.expect(")")
        elif t == "bin":
            p.expect("(")
            v = p.ident("variable")
            p.expect(",")
            n = toks[p.i]
            if not n.isdecimal():
                raise p.fail("expected a degree")
            p.i += 1
            p.expect(")")
            f = R.binom(v, int(n))
        elif t == "sum":
            p.expect("(")
            v = p.ident("sum variable")
            p.expect("<")
            bound = _parse_poly(p)
            p.expect(",")
            body = _parse_poly(p)
            p.expect(")")
            f = R.bounded_sum(v, bound, body)
        elif _is_name(t):
            f = R.pvar(t)
        else:
            p.i -= 1
            raise p.wanted("a polynomial")
        term = f if term is None else R.mul(term, f)
        t = toks[p.i]
        if t == "*":
            p.i += 1
            continue
        out = term if out is None else R.add(out, term)
        if t != "+":
            return out
        p.i += 1
        term = None


def parse_poly(src: str) -> R.Poly:
    return _whole(src, _parse_poly)


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
    t, binder = p.toks[p.i], F.VACUOUS
    if _is_name(t) and p.toks[p.i + 1] == "<":
        binder = t
        p.i += 2
    elif t == "_":
        p.i += 1
        p.expect("<")
    bound = _parse_poly(p)
    p.expect(close)
    return binder, bound


_UNITS = {"1": F.ONE_F, "bot": F.BOTTOM}
_MODALITIES = {"!": F.Bang, "?": F.WhyNot}


def _parse_formula(p: _Parser) -> F.Formula:
    """A formula, read in one loop.  Each open parenthesis starts a level:
    the arrows whose right side it waits for, its par-form and tensor-form
    so far and the prefixes (``~`` as None, or a modality and its bound) of
    the atom-form it reads; the levels around it wait on a stack."""
    toks, levels = p.toks, []
    arrows, par, tensor, prefixes = [], None, None, []
    while True:
        t = toks[p.i]
        if t == "~":
            p.i += 1
            prefixes.append(None)
            continue
        if t in _MODALITIES:
            p.i += 1
            p.expect("{")
            prefixes.append((_MODALITIES[t], *_parse_bound(p, "}")))
            continue
        if t == "(":
            p.i += 1
            levels.append((arrows, par, tensor, prefixes))
            arrows, par, tensor, prefixes = [], None, None, []
            continue
        if t in _UNITS:
            f = _UNITS[t]
        elif _is_name(t):
            f = F.Atom(t)
        else:
            raise p.wanted("a formula")
        p.i += 1
        # ``f`` ends an atom-form: close what it ends, up to a connective.
        while True:
            while prefixes:
                pre = prefixes.pop()
                f = F.negate(f) if pre is None else pre[0](pre[1], pre[2], f)
            tensor = f if tensor is None else F.Tensor(tensor, f)
            t = toks[p.i]
            p.i += 1
            if t == "*":
                break
            par = tensor if par is None else F.Par(par, tensor)
            tensor = None
            if t == "par":
                break
            if t == "-[":
                arrows.append((par, *_parse_bound(p, "]->")))
                par = None
                break
            p.i -= 1
            f = par
            while arrows:
                left, binder, bound = arrows.pop()
                f = F.arrow(left, binder, bound, f)
            if not levels:
                return f
            p.expect(")")
            arrows, par, tensor, prefixes = levels.pop()


def parse_formula(src: str) -> F.Formula:
    return _whole(src, _parse_formula)


_BINARY = {F.Tensor: " * ", F.Par: " par "}
_MODAL_TEXT = {F.Bang: "!{", F.WhyNot: "?{"}


def print_formula(f: F.Formula) -> str:
    """The text of ``f``: one walk on an explicit stack of formulas and
    pieces of text, bounds printed by :func:`print_poly`, a tensor or par
    below another node parenthesised.  A formula with a generated binder
    (one with ``#`` or ``%``) is printed as :func:`_display_formula` renames it."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        x = stack.pop()
        cls = type(x)
        if cls is str:
            out.append(x)
        elif cls in _BINARY:
            left, right = x.left, x.right
            stack += (")", right, "(") if type(right) in _BINARY else (right,)
            stack.append(_BINARY[cls])
            stack += (")", left, "(") if type(left) in _BINARY else (left,)
        elif cls is F.Atom:
            out.append(x.name)
        elif cls is F.NegAtom:
            out.append("~" + x.name)
        elif cls in _MODAL_TEXT:
            v, body = x.var, x.body
            if "#" in v or "%" in v:  # start again from the renamed formula
                out, stack = [], [_display_formula(f, F.free_rvars(f))]
                continue
            bound = print_poly(x.bound)
            out.append(f"{_MODAL_TEXT[cls]}{bound}}} " if v == F.VACUOUS else f"{_MODAL_TEXT[cls]}{v}<{bound}}} ")
            stack += (")", body, "(") if type(body) in _BINARY else (body,)
        elif cls is F.One:
            out.append("1")
        elif cls is F.Bottom:
            out.append("bot")
        else:
            raise TypeError(x)
    return "".join(out)


def parse_lf(src: str) -> F.LF:
    return _whole(src, _parse_lf)


def _parse_lf(p: _Parser) -> F.LF:
    p.expect("<")
    f = _parse_formula(p)
    p.expect(">")
    p.expect("[")
    binder, label = _parse_bound(p, "]")
    return F.lf(f, binder, label)


def print_lf(a: F.LF) -> str:
    formula, binder = _display_lf(a)
    return _lf_text(print_formula(formula), binder, print_poly(a.label))


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


def _display_lf(a: F.LF) -> tuple[F.Formula, str]:
    """``a``'s formula and label binder, a generated binder made plain as
    :func:`_display_formula` makes a formula binder plain: avoiding the
    formula's other free variables and the label's."""
    x = a.binder
    if "#" not in x and "%" not in x:
        return a.formula, x
    x2 = _pretty_name(x, F.free_rvars(a.formula) | a.label.free_vars())
    return F.subst_poly(a.formula, x, R.pvar(x2)), x2


# -- terms ---------------------------------------------------------------------


_TERM_BINDERS = {"\\": (L.Lam, "λ-variable", "."), "mu": (L.Mu, "μ-variable", "."),
                 "[": (L.Named, "μ-variable", "]")}


def _parse_term(p: _Parser) -> L.Term:
    """Binders and namings, then an application of atoms that may end in one
    more binder or naming.  Each construct waiting for its last term is a
    frame: (binder class, name), (L.App, function) before a binder or naming
    as last argument, or (None, the application before a "(", or None)."""
    toks, frames = p.toks, []
    head = None  # the application parsed so far; None at the start of a term
    while True:
        t = toks[p.i]
        if t in _TERM_BINDERS:
            if head is not None:
                frames.append((L.App, head))
                head = None
            p.i += 1
            cls, what, close = _TERM_BINDERS[t]
            frames.append((cls, p.ident(what)))
            p.expect(close)
        elif t == "(":
            p.i += 1
            frames.append((None, head))
            head = None
        elif _is_name(t):
            p.i += 1
            head = L.Var(t) if head is None else L.App(head, L.Var(t))
        elif head is None:
            raise p.wanted("a term")
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
    return _whole(src, _parse_term)


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


def _print_entry(a: F.LF, once) -> str:
    """The text of the labelled formula ``a``, its formula and label printed
    through the file writer's ``once``; a generated label binder is renamed
    as :func:`print_lf` renames it."""
    formula, binder = _display_lf(a)
    # A renamed formula is built here and dies with the call, so its id
    # could come back: it is printed without the cache.
    text = once(formula, print_formula) if formula is a.formula else print_formula(formula)
    return _lf_text(text, binder, once(a.label, print_poly))


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
            out[k] = _print_entry(v, once)
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


def _write_tree(root, node) -> dict:
    """The file object of a tree: ``node(x)`` for each node ``x``, with its
    premises' objects under ``"premises"``.  ``node`` meets the nodes in
    pre-order, so what printing draws comes in the order of a recursion."""
    top: list[dict] = []
    todo = [(root, top)]
    while todo:
        x, siblings = todo.pop()
        obj = node(x)
        obj["premises"] = premises = []
        siblings.append(obj)
        todo += [(q, premises) for q in reversed(x.premises)]
    return top[0]


def _read_tree(root, what: str, head, cls):
    """The tree in a ``what`` file: ``cls(rule, conclusion, premises, fields)``
    for each node object ``x``, ``head(x)`` giving the other three.  ``head``
    meets the nodes in pre-order, each after its premises are checked, so a
    file's first fault is the one a recursive reader would report."""
    heads: list[tuple] = []
    todo = [root]
    while todo:
        x = todo.pop()
        premises = x.get("premises") if type(x) is dict else None
        if type(premises) is not list:
            premises = _field(x, "premises", list, what, [])
        heads.append((*head(x), len(premises)))
        todo += reversed(premises)
    built: list = []
    for rule, concl, fields, n in reversed(heads):
        # The last n built are this node's premises, the first on top.
        premises = tuple(built[: -n - 1 : -1]) if n else ()
        del built[len(built) - n :]
        built.append(cls(rule, concl, premises, fields))
    return built[0]


def derivation_to_obj(d, system: str) -> dict:
    """The version-1 file of ``d``, which holds every node's whole subject.

    A node the library built stores none, so ``typecheck.subject_of``
    rebuilds each by a walk of the node's subtree down to the stored
    subjects.  Writing such a tree takes nodes × depth, the order of the
    file's own size.
    """
    from .typecheck import subject_of

    once = _printer()
    tree = _write_tree(
        d,
        lambda x: {
            "rule": x.rule,
            "judgment": judgment_to_obj(x.concl, subject_of(x)),
            "ann": _print_fields(x.ann, once),
        },
    )
    return {"format": DERIVATION_FORMAT, "version": FORMAT_VERSION, "system": system, "tree": tree}


def _check_header(obj, fmt: str, what: str) -> None:
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise ParseError(0, f"not a {what} file")
    if obj.get("version") != FORMAT_VERSION:
        raise ParseError(0, f"unsupported {what} format version {obj.get('version')!r}")


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


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

    def derivation_head(x: dict) -> tuple:
        rule = _field(x, "rule", str, what)
        judgment = judgment_from_obj(_field(x, "judgment", dict, what))
        return rule, judgment, _ann_from_obj(_field(x, "ann", dict, what, {}))

    return _read_tree(_field(obj, "tree", dict, what), what, derivation_head, Derivation), system


def proof_to_obj(p) -> dict:
    # Each sequent entry object is printed once per call, and so is each
    # formula and label object: nodes share them, entries share their parts,
    # and the ``data`` fields share both.
    print_once = _printer()

    def entry(a: F.LF) -> str:
        return _print_entry(a, print_once)

    tree = _write_tree(
        p,
        lambda x: {
            "rule": x.rule,
            "sequent": [print_once(a, entry) for a in x.concl],
            "data": _print_fields(x.data, print_once),
        },
    )
    return {"format": PROOF_FORMAT, "version": FORMAT_VERSION, "tree": tree}


# The ``data`` fields of a proof node that are read as they are.
_PROOF_PLAIN_FIELDS = dict.fromkeys(("left_idx", "right_idx", "left", "right", "idx"), int) | {"x": str, "y": str}


def proof_from_obj(obj: dict):
    """The proof in a version-1 file.  A node of the right shape is read by
    direct type checks; ``_field`` and ``_array`` are called on a field only
    to word the error it holds."""
    from .proofs import Proof

    what = "proof"
    _check_header(obj, PROOF_FORMAT, what)
    # Each distinct text is parsed once per call, by each parser that reads
    # it, so equal sequent entries, ``P`` and ``p`` fields come back as one
    # object.  A value that is not text goes to the parser, which reports it.
    parsers = {"witness": parse_lf, "P": parse_formula, "p": parse_poly}
    parsed = {parse: {} for parse in parsers.values()}
    lfs = parsed[parse_lf]

    def parse_once(parse, s):
        if not isinstance(s, str):
            return parse(s)
        texts = parsed[parse]
        if s not in texts:
            texts[s] = parse(s)
        return texts[s]

    def proof_head(x: dict) -> tuple:
        rule = x.get("rule")
        if type(rule) is not str:
            rule = _field(x, "rule", str, what)
        entries = x.get("sequent")
        if type(entries) is not list:
            entries = _field(x, "sequent", list, what)
        try:
            concl = tuple([lfs[s] for s in entries])
        except (KeyError, TypeError):  # a text not parsed yet, or no text
            if not all(type(s) is str for s in entries):
                _array(x, "sequent", what, lambda s: isinstance(s, str), "a string")
            concl = tuple([parse_once(parse_lf, s) for s in entries])
        d = x.get("data", {})
        if type(d) is not dict:
            d = _field(x, "data", dict, what)
        out = {}
        for k, v in d.items():
            kind = _PROOF_PLAIN_FIELDS.get(k)
            if kind is not None:
                out[k] = v if type(v) is kind else _field(d, k, kind, what)
            elif k in parsers:
                out[k] = parse_once(parsers[k], v)
            elif k == "sum_witness":
                out[k] = MappingProxyType(_sum_witnesses(d, k, what, positions=True))
        # Read-only already, as ``Proof`` would otherwise copy it.
        return rule, concl, MappingProxyType(out)

    return _read_tree(_field(obj, "tree", dict, what), what, proof_head, Proof)
