"""The term layer's step kernels dispatch on ``type()``, not on ``match``.

A ``match`` on class patterns runs an ``isinstance`` test and reads the
matched attributes for every pattern it tries; the functions listed here
run once per step, or once per node of a walk, so they test ``type(t) is
C`` instead.  ``lammu`` has no ``functools.cached_property`` either: its
``__get__`` takes a lock on every miss, while ``fv`` and ``fmv`` are plain
node attributes that ``Term.__getattr__`` fills on a miss.  The guard reads
the ``ast`` of the two modules.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "bllp"

KERNELS = {
    "lammu": ("root_step", "theta_step", "_descend", "_fires", "_rewrite", "_cache_free"),
    "machine": ("step",),
}


def _with_match(source: str, names: tuple[str, ...]) -> list[str]:
    """The module-level functions ``names`` of ``source`` that hold a
    ``match`` statement; a name ``source`` does not define is an error."""
    defs = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }
    missing = [name for name in names if name not in defs]
    assert not missing, f"no such function: {missing}"
    return [name for name in names if any(isinstance(n, ast.Match) for n in ast.walk(defs[name]))]


def _reads_cached_property(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "cached_property":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "cached_property":
            return True
        if isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "cached_property":
            return True
    return False


def test_the_guard_sees_a_match_and_a_cached_property():
    source = (
        "def f(t):\n    match t:\n        case _:\n            return 1\n"
        "def g(t):\n    def inner():\n        match t:\n            case _:\n                pass\n"
        "def h(t):\n    return type(t) is int\n"
    )
    assert _with_match(source, ("f", "g", "h")) == ["f", "g"]
    assert _reads_cached_property("import functools\nx = functools.cached_property\n")
    assert _reads_cached_property("from functools import cached_property\n")
    assert not _reads_cached_property("from functools import cache\n")


def test_the_step_kernels_hold_no_match_statement():
    found = {
        mod: _with_match((LIBRARY / f"{mod}.py").read_text(), names) for mod, names in KERNELS.items()
    }
    assert found == {"lammu": [], "machine": []}


def test_lammu_has_no_cached_property():
    assert not _reads_cached_property((LIBRARY / "lammu.py").read_text())
