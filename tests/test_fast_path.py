"""The term layer's step kernels dispatch on ``type()``, not on ``match``,
and the nodes of every layer are records in ``__slots__``, not dataclasses.

A ``match`` on class patterns runs an ``isinstance`` test and reads the
matched attributes for every pattern it tries; the functions listed here
run once per step, or once per node of a walk, so they test ``type(t) is
C`` instead.  ``lammu`` has no ``functools.cached_property`` either: its
``__get__`` takes a lock on every miss, while ``fv`` and ``fmv`` are two
slots of each node that start as ``None`` and that the ``fv``/``fmv``
properties fill on the first read.  The step kernels read those slots
themselves and call ``_cache_free`` only on an empty one: none of them
reads the properties, whose call costs more than the slot read behind it
(the properties stay the public way to read the sets).  Every step builds
term and machine nodes, and a frozen dataclass's ``__init__`` sets each
field through ``object.__setattr__``; so ``lammu`` and ``machine`` import no
``dataclasses``, and each node class defines ``__slots__``.  So does every
record the checking path builds by the hundred per derivation: the
polynomials and monomials of ``respoly``, the formulas and labelled
formulas of ``formula``, the judgments and derivations of ``typecheck``
and the proofs of ``proofs``.
None of them is a ``@dataclass``, and ``respoly`` and ``formula`` import
no ``dataclasses``; nor does ``syntax``, whose lexer yields token strings,
not a record per token.  The cold classes of ``typecheck`` and ``proofs``
(``Rule``, ``Report``, a special step) may stay dataclasses.  All share the
base ``record.Frozen``, which writes each class's ``__init__``, ``__eq__``
and ``__hash__`` through the slot descriptors: no module but ``record``
reads the ``__set__`` of a field's slot, and no node class writes one of
the three in its body, but for the pinned exceptions of ``HAND_WRITTEN``
and ``FIELD_WRITERS``, which may only shrink.

Every constant polynomial below ``respoly._SHARED`` is one shared object,
so the checkers' ``==`` on labels mostly meets one object twice.  That
holds only while every constant is built through ``respoly.const``: no
module but ``respoly`` calls ``Poly(``, and in ``respoly`` only the table
at module level and the functions of ``POLY_BUILDERS`` do.  The guard
reads the ``ast`` of the modules.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "bllp"

KERNELS = {
    "lammu": ("root_step", "theta_step", "_descend", "_fires", "_rewrite", "_cache_free"),
    "machine": ("step",),
}

NODE_CLASSES = {
    "record": ("Frozen",),
    "lammu": ("Term", "Var", "Lam", "Mu", "Named", "App"),
    "machine": ("Env", "Closure", "Config"),
}

RECORD_CLASSES = {
    "respoly": ("Mono", "Poly"),
    "formula": (
        "Formula", "_Named", "_Unit", "_Binary", "_Bounded",
        "Atom", "NegAtom", "One", "Bottom", "Tensor", "Par", "Bang", "WhyNot", "LF",
    ),
    "typecheck": ("Judgment", "Tree", "Derivation"),
    "proofs": ("Proof",),
}

# The methods a node class still writes by hand, each for a reason given
# at the class: ``Term`` and ``Tree`` compare on a stack (a tree leaves out
# ``ann`` and ``data``), and three constructors default or copy arguments.
HAND_WRITTEN = {
    "lammu": [("Term", "__eq__"), ("Term", "__hash__")],
    "machine": [("Env", "__init__")],
    "typecheck": [("Tree", "__eq__"), ("Tree", "__hash__"), ("Derivation", "__init__")],
    "proofs": [("Proof", "__init__")],
}

# The field slots whose ``__set__`` a module reads, as (class, field): the
# hand-written constructors of ``HAND_WRITTEN``.
FIELD_WRITERS = {
    "machine": [("Env", "lam"), ("Env", "mu")],
    "typecheck": [("Derivation", "ann"), ("Derivation", "concl"), ("Derivation", "premises"), ("Derivation", "rule")],
    "proofs": [("Proof", "concl"), ("Proof", "data"), ("Proof", "premises"), ("Proof", "rule")],
}

# The functions of ``respoly`` that call ``Poly(``: ``const`` past the
# table, ``_poly`` for a result that is not a constant, ``binom`` for
# ``choose(var, n)`` with ``n >= 1`` and ``_scale`` for a multiple of a
# polynomial that is not a constant.
POLY_BUILDERS = ("_poly", "_scale", "binom", "const")


def _functions(source: str, names: tuple[str, ...]) -> dict[str, ast.FunctionDef]:
    """The module-level functions of ``source``; a name of ``names`` that
    ``source`` does not define is an error."""
    defs = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }
    missing = [name for name in names if name not in defs]
    assert not missing, f"no such function: {missing}"
    return defs


def _with_match(source: str, names: tuple[str, ...]) -> list[str]:
    """The module-level functions ``names`` of ``source`` that hold a
    ``match`` statement."""
    defs = _functions(source, names)
    return [name for name in names if any(isinstance(n, ast.Match) for n in ast.walk(defs[name]))]


def _reads_free_name_properties(source: str, names: tuple[str, ...]) -> list[str]:
    """The module-level functions ``names`` of ``source`` that read an
    attribute ``fv`` or ``fmv``."""
    defs = _functions(source, names)
    return [
        name
        for name in names
        if any(isinstance(n, ast.Attribute) and n.attr in ("fv", "fmv") for n in ast.walk(defs[name]))
    ]


def _reads_cached_property(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "cached_property":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "cached_property":
            return True
        if isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "cached_property":
            return True
    return False


def _reads_dataclasses(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            return True
    return False


def _classes(source: str, names: tuple[str, ...]) -> dict[str, ast.ClassDef]:
    """The module-level classes of ``source``; a name of ``names`` that
    ``source`` does not define is an error."""
    classes = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}
    missing = [name for name in names if name not in classes]
    assert not missing, f"no such class: {missing}"
    return classes


def _without_slots(source: str, names: tuple[str, ...]) -> list[str]:
    """The module-level classes ``names`` of ``source`` whose body assigns no
    ``__slots__``."""
    classes = _classes(source, names)
    return [
        name
        for name in names
        if not any(
            isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
            )
            for stmt in classes[name].body
        )
    ]


def _dataclasses(source: str, names: tuple[str, ...]) -> list[str]:
    """The module-level classes ``names`` of ``source`` decorated with
    ``dataclass``, called or not, imported by name or read off ``dataclasses``."""
    classes = _classes(source, names)

    def is_dataclass(d: ast.expr) -> bool:
        d = d.func if isinstance(d, ast.Call) else d
        return (isinstance(d, ast.Name) and d.id == "dataclass") or (
            isinstance(d, ast.Attribute) and d.attr == "dataclass"
        )

    return [name for name in names if any(map(is_dataclass, classes[name].decorator_list))]


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


def test_the_guard_sees_a_free_name_property_read():
    source = (
        "def f(t):\n    return t.fv\n"
        "def g(t):\n    def inner(u):\n        return u.body.fmv\n    return inner\n"
        "def h(t):\n    s = t._fv\n    return _cache_free(t, True) if s is None else s\n"
        "def k(t, fv):\n    return fv, t.fvs, free_vars(t), getattr(t, 'fmv')\n"
    )
    assert _reads_free_name_properties(source, ("f", "g", "h", "k")) == ["f", "g"]


def test_the_step_kernels_read_the_free_name_slots_not_the_properties():
    source = (LIBRARY / "lammu.py").read_text()
    assert _reads_free_name_properties(source, KERNELS["lammu"]) == []


def test_lammu_has_no_cached_property():
    assert not _reads_cached_property((LIBRARY / "lammu.py").read_text())


def test_the_guard_sees_a_dataclass_import_and_a_class_without_slots():
    assert _reads_dataclasses("import dataclasses\n")
    assert _reads_dataclasses("from dataclasses import dataclass\n")
    assert not _reads_dataclasses("from functools import cache\n")
    source = (
        "class A:\n    __slots__ = ('x',)\n"
        "class B(A):\n    x: int = 0\n"
        "class C(A):\n    def f(self):\n        __slots__ = ()\n"
    )
    assert _without_slots(source, ("A", "B", "C")) == ["B", "C"]


def test_term_and_machine_nodes_are_slotted_classes_not_dataclasses():
    found = {}
    for mod, names in NODE_CLASSES.items():
        source = (LIBRARY / f"{mod}.py").read_text()
        found[mod] = (_reads_dataclasses(source), _without_slots(source, names))
    assert found == {"record": (False, []), "lammu": (False, []), "machine": (False, [])}


def test_the_guard_sees_a_dataclass_decorator_called_or_not():
    source = (
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(eq=False)\nclass C:\n    x: int\n"
        "@functools.total_ordering\nclass D:\n    __slots__ = ()\n"
        "class E:\n    @dataclass\n    class Inner:\n        x: int\n"
    )
    assert _dataclasses(source, ("A", "B", "C", "D", "E")) == ["A", "B", "C"]


def test_checking_path_records_are_slotted_classes_not_dataclasses():
    found = {}
    for mod, names in RECORD_CLASSES.items():
        source = (LIBRARY / f"{mod}.py").read_text()
        found[mod] = (_without_slots(source, names), _dataclasses(source, names))
    assert found == {mod: ([], []) for mod in RECORD_CLASSES}
    modules = ("respoly", "formula", "syntax")
    assert [mod for mod in modules if _reads_dataclasses((LIBRARY / f"{mod}.py").read_text())] == []


def test_the_guard_sees_a_token_dataclass_however_it_is_imported():
    token = "class Token:\n    kind: str\n    text: str\n    offset: int\n"
    for header in ("from dataclasses import dataclass\n@dataclass\n",
                   "import dataclasses as dc\n@dc.dataclass\n",
                   "from dataclasses import dataclass as record\n@record\n"):
        assert _reads_dataclasses(header + token), header
    assert not _reads_dataclasses("import re\nfrom types import MappingProxyType\nTOKEN = re.compile('x')\n")


def _poly_callers(source: str) -> list[str]:
    """The module-level definitions of ``source`` that call ``Poly``, by
    name or as an attribute, sorted and each once; ``<module>`` stands for
    a statement outside any definition."""
    found = set()
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "Poly")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "Poly")
            ):
                found.add(getattr(stmt, "name", "<module>"))
    return sorted(found)


def test_the_guard_sees_each_call_of_poly_and_no_other_mention():
    source = (
        "from .respoly import Poly\n"
        "TABLE = tuple(Poly(()) for _ in range(3))\n"
        "def f(p: Poly) -> Poly:\n    return isinstance(p, Poly)\n"
        "def g():\n    def inner():\n        return Poly(())\n"
        "class C:\n    def m(self):\n        return R.Poly(())\n"
        "def h():\n    return Poly\n"
    )
    assert _poly_callers(source) == ["<module>", "C", "g"]


def test_only_the_builders_of_respoly_call_poly():
    found = {path.stem: _poly_callers(path.read_text()) for path in sorted(LIBRARY.glob("*.py"))}
    assert found.pop("respoly") == sorted(("<module>",) + POLY_BUILDERS)
    assert found == dict.fromkeys(found, [])


def _hand_written(source: str, names: tuple[str, ...]) -> list[tuple[str, str]]:
    """The ``__init__``, ``__eq__`` and ``__hash__`` that the module-level
    classes ``names`` of ``source`` define or assign in their bodies."""
    classes = _classes(source, names)
    found = []
    for name in names:
        for stmt in classes[name].body:
            if isinstance(stmt, ast.FunctionDef):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = [
                    t.id for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                    if isinstance(t, ast.Name)
                ]
            else:
                continue
            found += [(name, t) for t in targets if t in ("__init__", "__eq__", "__hash__")]
    return found


def _fields(source: str) -> set[str]:
    """The names in the ``__match_args__`` of every class of ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__match_args__" for t in stmt.targets)
                    and isinstance(stmt.value, ast.Tuple)
                ):
                    found |= {e.value for e in stmt.value.elts if isinstance(e, ast.Constant)}
    return found


def _field_writers(source: str, fields: set[str]) -> list[tuple[str, str]]:
    """Each ``C.f.__set__`` that ``source`` reads, with ``f`` in ``fields``,
    as (``C``, ``f``), sorted and each once."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__set__"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in fields
        ):
            owner = node.value.value
            found.add((owner.id if isinstance(owner, ast.Name) else ast.unparse(owner), node.value.attr))
    return sorted(found)


def test_the_guard_sees_hand_written_methods_and_field_writers():
    source = (
        "class A(Frozen):\n    __slots__ = ('x', '_f')\n    __match_args__ = ('x',)\n"
        "    def __init__(self, x):\n        pass\n"
        "class B(A):\n    __slots__ = ()\n    __hash__ = None\n    def __eq__(self, o):\n        return 1\n"
        "class C(A):\n    __slots__ = ()\n    def _check(self):\n        def __init__():\n            pass\n"
        "_set_x, _set_f = A.x.__set__, A._f.__set__\n"
        "def g(slot):\n    return slot.__set__, m.A.x.__set__, A.x.__get__\n"
    )
    assert _hand_written(source, ("A", "B", "C")) == [("A", "__init__"), ("B", "__hash__"), ("B", "__eq__")]
    assert _fields(source) == {"x"}
    assert _field_writers(source, {"x"}) == [("A", "x"), ("m.A", "x")]


def test_only_the_pinned_node_methods_are_written_by_hand():
    found = {}
    for mod in sorted({*NODE_CLASSES, *RECORD_CLASSES}):
        names = NODE_CLASSES.get(mod, ()) + RECORD_CLASSES.get(mod, ())
        found[mod] = _hand_written((LIBRARY / f"{mod}.py").read_text(), names)
    assert {mod: pairs for mod, pairs in found.items() if pairs} == HAND_WRITTEN


def test_only_record_and_the_pinned_constructors_write_field_slots():
    sources = {path.stem: path.read_text() for path in sorted(LIBRARY.glob("*.py"))}
    fields = set().union(*map(_fields, sources.values()))
    assert {"name", "fn", "arg", "terms", "formula", "lam", "rule", "data"} <= fields
    found = {mod: _field_writers(source, fields) for mod, source in sources.items() if mod != "record"}
    assert {mod: pairs for mod, pairs in found.items() if pairs} == FIELD_WRITERS
