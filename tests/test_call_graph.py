"""No function of the tree-rewriting modules reaches itself.

``typecheck`` and ``proofs`` recurse over derivations, proofs and formulas
only through ``typecheck.stack_safe`` (a recursive call is ``(yield args)``)
or in loops, so a tree of any depth stays within the recursion limit.  The
call graph is read from the ``ast``: an edge f -> g when the body of the
module-level function f names g, as a plain name or as an attribute.  The
graph must have no cycle.  In ``lammu`` and ``machine`` the step engines are
loops too, and the recursive functions left are pinned: the list may only
shrink.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "bllp"


def _recursive(sources: list[str]) -> list[str]:
    """The module-level functions of ``sources`` that reach themselves."""
    bodies: dict[str, ast.FunctionDef] = {}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                assert node.name not in bodies, f"{node.name} is defined twice"
                bodies[node.name] = node
    graph = {}
    for name, node in bodies.items():
        named = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                named.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                named.add(sub.attr)
        graph[name] = named & bodies.keys()
    out = []
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            g = todo.pop()
            if g not in seen:
                seen.add(g)
                todo.extend(graph[g])
        if start in seen:
            out.append(start)
    return sorted(out)


def test_the_guard_sees_direct_and_mutual_recursion():
    source = (
        "def f(x):\n    return f(x)\n"
        "def g(x):\n    return M.h(x)\n"
        "def h(x):\n    return [g(y) for y in x]\n"
        "def k(x):\n    return f(x)\n"
    )
    assert _recursive([source]) == ["f", "g", "h"]


def test_typecheck_and_proofs_have_no_recursive_function():
    sources = [(LIBRARY / f"{mod}.py").read_text() for mod in ("typecheck", "proofs")]
    assert _recursive(sources) == []


def test_lammu_and_machine_recurse_only_in_their_pinned_functions():
    recursive = {
        mod: _recursive([(LIBRARY / f"{mod}.py").read_text()]) for mod in ("lammu", "machine")
    }
    assert recursive == {
        "lammu": ["mu_subst", "rename_mvar", "subst"],
        "machine": ["_read", "_read_closure"],
    }
