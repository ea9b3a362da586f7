"""Every module-level function of the library is used somewhere, and all
but a pinned few are reached from an entry point.

A function counts as used when its name is loaded, read as an attribute or
imported anywhere in ``src/``, ``tests/`` or ``bench/``, apart from the body
of its own ``def`` (a recursive call alone keeps nothing alive).

A function counts as reached when a chain of such names leads to it from
``cli.py``, from ``bench/`` or from module-level code of the library.  A
function that only tests reach is a reference and belongs in a test
oracle, unless it is one of the pinned public lemmas.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "bllp"


def _names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def test_every_library_function_is_referenced():
    defined: set[tuple[Path, str]] = set()
    used: set[str] = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in tree.body:
                if path.parent == LIBRARY and isinstance(node, ast.FunctionDef):
                    defined.add((path, node.name))
                    used |= _names(node) - {node.name}
                else:
                    used |= _names(node)
    unused = sorted(f"{p.stem}.{name}" for p, name in defined if name not in used)
    assert not unused, f"module-level functions referenced nowhere: {unused}"


# -- reachability from the entry points ------------------------------------------

# Public lemmas that only tests exercise, and the derivation file writer.
# The list may only shrink.
UNREACHED = {
    "proofs.normalize",
    "syntax.derivation_to_obj",
    "syntax.judgment_to_obj",
    "typecheck.lam_subst_derivation",
    "typecheck.mu_subst_derivation",
    "typecheck.rename_free",
}


def _unreached(library: dict[str, str], roots: list[str]) -> set[str]:
    """The module-level functions of ``library`` (module -> source) that no
    root reaches.

    The roots are the sources in ``roots`` and every module-level statement
    of ``library`` that is not a function.  A name that a reached body
    loads, reads as an attribute or imports reaches every library function
    of that name.
    """
    defs: dict[str, list[tuple[str, ast.FunctionDef]]] = {}
    todo: set[str] = set()
    for source in roots:
        todo |= _names(ast.parse(source))
    for mod, source in library.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((mod, node))
            else:
                todo |= _names(node)
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for _, node in defs.get(name, ()):
                todo |= _names(node)
    return {f"{mod}.{name}" for name, nodes in defs.items() if name not in seen for mod, _ in nodes}


def test_the_reachability_pass_follows_names_from_the_roots():
    library = {
        "m": (
            "X = helper\n"
            "def helper():\n    return M.inner()\n"
            "def inner():\n    return 1\n"
            "def lemma():\n    return inner()\n"
            "def loop():\n    return loop()\n"
        ),
        "n": "from .m import inner\ndef lemma():\n    return 2\ndef entry():\n    return 3\n",
    }
    assert _unreached(library, ["from bllp.n import entry\n"]) == {"m.lemma", "n.lemma", "m.loop"}


def test_every_library_function_is_reached_from_the_cli_the_bench_or_module_code():
    library = {p.stem: p.read_text() for p in sorted(LIBRARY.glob("*.py")) if p.name != "cli.py"}
    roots = [(LIBRARY / "cli.py").read_text()]
    roots += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert _unreached(library, roots) == UNREACHED
