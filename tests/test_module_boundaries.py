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
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "bllp"

PINNED = {
    "proofs <- typecheck._side",
}


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
