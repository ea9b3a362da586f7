"""No module of the library reads an underscore name of another one, and
only ``typecheck`` reads a judgment's subject.

A name that starts with ``_`` (and is not a dunder) is private to the
module that defines it.  The guard reads the ``ast`` of every module in
``src/bllp``: a read is an import of such a name from another ``bllp``
module, or an attribute ``M._name`` where ``M`` names an imported ``bllp``
module.  The few reads left are pinned, and the list may only shrink.

A node the library builds stores no subject: only ``typecheck`` knows how
a rule builds one.  Another module asks it, by ``subject_of`` or
``introduced``, instead of reading an attribute ``.subject``.

What a typing rule is (its systems, subject class, the name it introduces
and where that name is held) is read off ``typecheck.RULES``.  What a
sequent rule is (its premise count, position fields, whether its
conclusion is all its own, its weight variable and the special cut it
forms) is read off ``proofs.RULES``.  The rule names ``typecheck`` and
``proofs`` still compare with literals are counted, and each count may
only shrink.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "bllp"

PINNED: set[str] = set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bllp_module(node: ast.ImportFrom) -> str | None:
    """The ``bllp`` module an import reads from, or None for another package."""
    if node.level == 1:
        return node.module or ""
    if node.module == "bllp" or (node.module or "").startswith("bllp."):
        return node.module.removeprefix("bllp").lstrip(".")
    return None


def _private_reads(mod: str, source: str) -> set[str]:
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> bllp module it stands for
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (base := _bllp_module(node)) is not None:
            for alias in node.names:
                if base == "":  # ``from . import formula as F``
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.add(f"{mod} <- {base}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
            and modules[node.value.id] != mod
        ):
            reads.add(f"{mod} <- {modules[node.value.id]}.{node.attr}")
    return reads


def test_the_guard_sees_imports_and_attribute_reads():
    source = (
        "from . import formula as F\n"
        "from .typecheck import _side, ctx_get\n"
        "from bllp.respoly import _poly\n"
        "import json\n"
        "def f(x):\n"
        "    from .lammu import __doc__\n"
        "    return F._walk(x), F.alpha_eq(x, x), json._default_decoder, x._y\n"
    )
    assert _private_reads("m", source) == {
        "m <- typecheck._side",
        "m <- respoly._poly",
        "m <- formula._walk",
    }


def test_no_module_reads_a_private_name_of_another_but_the_pinned_ones():
    reads = set()
    for path in sorted(LIBRARY.glob("*.py")):
        reads |= _private_reads(path.stem, path.read_text())
    assert reads == PINNED


def _subject_reads(mod: str, source: str) -> set[str]:
    """Each function of ``mod`` (or ``<module>``) that reads ``x.subject``."""
    reads = set()
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "subject" and isinstance(node.ctx, ast.Load):
                reads.add(f"{mod}.{where}")
    return reads


def test_the_subject_guard_sees_attribute_reads_only():
    source = (
        "def f(d, subject):\n"
        "    return Judgment((), subject, None, ()), d.concl.subject\n"
        "def g(j):\n"
        "    return replace(j, subject=None)\n"
        "x = y.subject\n"
    )
    assert _subject_reads("m", source) == {"m.f", "m.<module>"}


def test_only_typecheck_reads_a_subject():
    reads = set()
    for path in sorted(LIBRARY.glob("*.py")):
        if path.stem != "typecheck":
            reads |= _subject_reads(path.stem, path.read_text())
    assert reads == set()


def _is_rule(e: ast.expr) -> bool:
    return (isinstance(e, ast.Name) and e.id == "rule") or (isinstance(e, ast.Attribute) and e.attr == "rule")


def _is_rule_names(e: ast.expr) -> bool:
    if isinstance(e, (ast.Tuple, ast.List, ast.Set)):
        return bool(e.elts) and all(map(_is_rule_names, e.elts))
    return isinstance(e, ast.Constant) and isinstance(e.value, str)


def _rule_dispatch(source: str) -> int:
    """How often ``source`` compares a rule name with literals: a comparison
    of ``rule`` or ``x.rule`` with a string or a tuple of strings, and each
    non-wildcard ``case`` of a ``match`` on one."""
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            n += any(map(_is_rule, operands)) and any(map(_is_rule_names, operands))
        elif isinstance(node, ast.Match) and _is_rule(node.subject):
            n += sum(not (isinstance(c.pattern, ast.MatchAs) and c.pattern.pattern is None) for c in node.cases)
    return n


def test_the_dispatch_guard_counts_comparisons_and_cases_on_a_rule_name():
    source = (
        "def f(d, rule, RULES):\n"
        "    if d.rule == 'abs' or rule in ('w_lam', 'w_mu') or 'x' != d.rule:\n"
        "        pass\n"
        "    if RULES[d.rule].cls is None or d.kind == 'abs' or rule == other:\n"
        "        pass\n"
        "    match d.rule:\n"
        "        case 'var' | 'var_m':\n"
        "            pass\n"
        "        case 'abs':\n"
        "            pass\n"
        "        case _:\n"
        "            pass\n"
    )
    assert _rule_dispatch(source) == 5


# Rule-name comparisons left in ``typecheck.py``; the number may only shrink.
TYPECHECK_RULE_DISPATCH = 34


def test_typecheck_compares_rule_names_no_more_often_than_pinned():
    assert _rule_dispatch((LIBRARY / "typecheck.py").read_text()) == TYPECHECK_RULE_DISPATCH


# Rule-name comparisons left in ``proofs.py``; the number may only shrink.
PROOFS_RULE_DISPATCH = 48


def test_proofs_compares_rule_names_no_more_often_than_pinned():
    assert _rule_dispatch((LIBRARY / "proofs.py").read_text()) == PROOFS_RULE_DISPATCH
