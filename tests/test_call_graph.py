"""No function of the tree- and term-walking modules reaches itself.

``typecheck`` and ``proofs`` recurse over derivations, proofs and formulas
only through ``typecheck.stack_safe`` (a recursive call is ``(yield args)``)
or in loops; ``lammu`` and ``machine`` walk terms and environments on
explicit stacks; so a tree or term of any depth stays within the recursion
limit.  The call graph is read from the ``ast``: an edge f -> g when the
body of the function f (module-level or nested in one) names g, as a plain
name or as an attribute.  The graph must have no cycle.  ``syntax`` parses
and prints terms, formulas and files on explicit stacks too, the renaming
of generated formula binders included; its polynomial parser (into
parentheses and bounded sums) still recurses, as deep as a bound, not a
formula, and it is pinned: the list may only shrink.  ``formula`` fills
its stored facts through ``record.fill`` and substitutes on an explicit
stack (``subst_poly``), so its pinned list is empty; ``respoly``,
``corpus`` and ``cli`` have none.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "bllp"


def _recursive(sources: list[str]) -> list[str]:
    """The functions of ``sources``, nested ones included, that reach themselves.

    A function's body includes the bodies of the functions nested in it.
    """
    bodies: dict[str, ast.FunctionDef] = {}
    for source in sources:
        for top in ast.parse(source).body:
            if not isinstance(top, ast.FunctionDef):
                continue
            for node in ast.walk(top):
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
        "def outer(x):\n    def node(y):\n        return [node(z) for z in y]\n    return node(x)\n"
    )
    assert _recursive([source]) == ["f", "g", "h", "node"]


def test_typecheck_and_proofs_have_no_recursive_function():
    sources = [(LIBRARY / f"{mod}.py").read_text() for mod in ("typecheck", "proofs")]
    assert _recursive(sources) == []


def test_lammu_and_machine_recurse_only_in_their_pinned_functions():
    recursive = {
        mod: _recursive([(LIBRARY / f"{mod}.py").read_text()]) for mod in ("lammu", "machine")
    }
    assert recursive == {"lammu": [], "machine": []}


def test_syntax_recurses_only_in_its_polynomial_parser():
    assert _recursive([(LIBRARY / "syntax.py").read_text()]) == ["_parse_poly"]


def test_formula_recurses_only_in_its_pinned_functions():
    assert _recursive([(LIBRARY / "formula.py").read_text()]) == []


def test_respoly_corpus_and_cli_have_no_recursive_function():
    recursive = {
        mod: _recursive([(LIBRARY / f"{mod}.py").read_text()]) for mod in ("respoly", "corpus", "cli")
    }
    assert recursive == {"respoly": [], "corpus": [], "cli": []}
