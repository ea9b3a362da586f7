"""Every module-level function of the library is used somewhere.

A function counts as used when its name is loaded, read as an attribute or
imported anywhere in ``src/``, ``tests/`` or ``bench/``, apart from the body
of its own ``def`` (a recursive call alone keeps nothing alive).
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
