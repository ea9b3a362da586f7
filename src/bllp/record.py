"""Immutable records in ``__slots__``: the base of every node class.

Terms, machine configurations, polynomials, formulas, judgments,
derivations and proofs are built in great numbers on every path, and a
frozen dataclass's ``__init__`` sets each field through
``object.__setattr__``.  A :class:`Frozen` subclass instead names its
fields in ``__match_args__`` and keeps them in ``__slots__``, so it has no
instance ``__dict__``.  :func:`replace` stands in for
``dataclasses.replace``.

At class creation :class:`Frozen` writes the class's ``__init__``,
``__eq__`` and ``__hash__``, as ``dataclasses`` does: each is compiled
once from source, with the slot descriptors' writers bound as closure
variables.

- ``__init__`` takes the fields by position or keyword, stores each through
  its slot, sets every other slot (a stored fact such as a formula's dual)
  to ``None`` and last calls the class's ``_check(self)``, if it has one,
  for a validation that raises.
- ``==`` is true for one object twice, ``NotImplemented`` unless both have
  the exact class, and otherwise compares the fields in order.
- ``hash`` is the hash of the tuple of fields, the dataclass value.  A
  class that declares a ``_hash`` slot stores it there on first use.

A class declared ``class C(Frozen, interned=True)``, and each subclass of
it, opts in to the intern hook, hash-consing after Filliâtre and Conchon,
"Type-Safe Modular Hash-Consing" (ML 2006).  ``C.intern`` takes the fields
as the constructor does and returns the one node of the table for them,
built through the constructor (and its ``_check``) on the first call.

- The key is the class and the fields: a field whose class is interned,
  a child node, by identity, and any other, a name or a polynomial, by
  value.  So building a node never walks a child, and equal fields give
  one node, over equal but distinct polynomials too; a polynomial stores
  its hash, so it is a cheap key.
- The hook stores the node's hash in the ``_hash`` slot that an interned
  class declares: the field-tuple hash, computed from the children's
  stored hashes.  So a node of any depth hashes at once, and ``==``, the
  field comparison above, meets one object twice at once.
- The table is strong and one for all interned classes; an ``id`` in a key
  names an object the node holds, so it is not reused while the entry
  lives.  ``formula`` gives what it holds and why it is not weak.
- A plain class call still builds a fresh record outside the table, whose
  first ``hash`` walks its fields; the library builds through the hook
  only, and :func:`replace` of an interned record goes through the hook.

A method that the class or a record base between it and :class:`Frozen`
writes by hand is kept (``__hash__ = None``, which Python writes beside a
lone ``__eq__``, counts as not written), and a class that adds no slot, no
``__match_args__`` and no ``_check`` shares its base's functions.  Written
by hand, each with its reason at the class: ``Term``'s and ``Tree``'s
``==`` and ``hash`` (a walk on a stack; a tree leaves ``ann`` and ``data``
out) and the constructors of ``Env``, ``Derivation`` and ``Proof``, which
default or copy their arguments.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import ClassVar

# Every function :class:`Frozen` compiled, to tell them from hand-written ones.
_GENERATED: set[Callable] = set()

# The intern table: each node the hooks built, under its key.
_TABLE: dict[tuple, "Frozen"] = {}
# The classes that opt in to the intern hook; a field of one is keyed by identity.
_INTERNED: set[type] = set()


class Frozen:
    """An immutable record whose fields are the slots named by ``__match_args__``.

    Assigning or deleting an attribute raises ``AttributeError``, and
    ``repr`` is the dataclass form,
    ``App(fn=Var(name='f'), arg=Var(name='x'))``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # True on a class that opts in to the intern hook, and on its subclasses.
    _interned: ClassVar[bool] = False

    def __init_subclass__(cls, interned: bool = False, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if interned:
            cls._interned = True
        own = cls.__dict__
        fresh = bool(own.get("__slots__")) or "__match_args__" in own or "_check" in own
        bases = cls.__mro__[: cls.__mro__.index(Frozen)]
        for name in ("__init__", "__eq__", "__hash__"):
            fn = next((k.__dict__[name] for k in bases if k.__dict__.get(name) is not None), None)
            if fn is None or (fresh and fn in _GENERATED):
                fn = _compile(cls, name)
                _GENERATED.add(fn)
                setattr(cls, name, fn)
            elif own.get(name, fn) is None:  # ``__hash__ = None`` beside a hand-written ``__eq__``
                setattr(cls, name, fn)
        if cls._interned:
            _INTERNED.add(cls)
            cls.intern = staticmethod(_compile(cls, "intern"))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {key!r} of an immutable {type(self).__name__}")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"cannot delete field {key!r} of an immutable {type(self).__name__}")

    def __repr__(self) -> str:
        """Written from an explicit stack of pending records, tuples and
        text, so a term of any depth has a ``repr``, and so has a tree of
        any depth, whose premises are a tuple."""
        out: list[str] = []
        stack: list[Frozen | tuple | str] = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
                continue
            if type(t) is tuple:
                items = ["("]
                for value in t:
                    items += (_pending(value), ", ")
                close = ",)" if len(t) == 1 else ")"
            else:
                items = [f"{type(t).__qualname__}("]
                for f in t.__match_args__:
                    items += (f"{f}=", _pending(getattr(t, f)), ", ")
                close = ")"
            if len(items) > 1:
                items[-1] = close
            else:
                items.append(close)
            stack += reversed(items)
        return "".join(out)


def _compile(cls: type, name: str) -> Callable:
    """``cls``'s method ``name``, or its ``intern`` hook, compiled from
    source with the slot writers, ``_check`` and the table as closure
    variables."""
    fields = cls.__match_args__
    free: dict[str, object] = {}
    if name == "__init__":
        args = ("self", *fields)
        values = dict.fromkeys([s for k in cls.__mro__ for s in k.__dict__.get("__slots__", ())], "None")
        values.update(zip(fields, fields))
        free = {f"_set{i}": getattr(cls, s).__set__ for i, s in enumerate(values)}
        body = [f"_set{i}(self, {v})" for i, v in enumerate(values.values())]
        if hasattr(cls, "_check"):
            free["_check"] = cls._check
            body.append("_check(self)")
    elif name == "__eq__":
        args, same = ("self", "other"), " and ".join(f"self.{f} == other.{f}" for f in fields)
        body = [
            "if self is other: return True",
            "if other.__class__ is not self.__class__: return NotImplemented",
            f"return {same or True}",
        ]
    elif name == "__hash__":
        args, value = ("self",), f"hash({_tuple(fields, 'self.')})"
        body = [f"return {value}"]
        if hasattr(cls, "_hash"):  # stored on first use, unless the hook stored it
            free = {"_set_hash": cls._hash.__set__}
            body = ["h = self._hash", "if h is None:", f" h = {value}", " _set_hash(self, h)", "return h"]
    else:  # the hook: a field of an interned class by identity, any other by value
        args, key = fields, "".join(f"_id({f}) if {f}.__class__ in _interned else {f}, " for f in fields)
        free = {"_cls": cls, "_id": id, "_interned": _INTERNED, "_get": _TABLE.get, "_table": _TABLE}
        body = [
            f"_key = (_cls, {key})",
            "_node = _get(_key)",
            "if _node is None:",
            f" _node = _cls({', '.join(fields)})",
            " hash(_node)",  # stored now, from the children's stored hashes
            " _table[_key] = _node",
            "return _node",
        ]
    lines = "".join(f"\n  {line}" for line in body or ["pass"])
    source = f"def _make({', '.join(free)}):\n def {name}({', '.join(args)}):{lines}\n return {name}"
    scope: dict[str, Callable] = {}
    exec(source, {"__name__": cls.__module__}, scope)
    fn = scope["_make"](**free)
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


def _tuple(fields: tuple[str, ...], prefix: str = "") -> str:
    """Source of the tuple of ``fields``, each read as ``prefix`` + field."""
    return f"({''.join(f'{prefix}{f}, ' for f in fields)})"


def _pending(value: object) -> Frozen | tuple | str:
    """``value`` as an entry of the ``repr`` stack: a record or a tuple is
    written later from the stack, anything else is its ``repr`` text now."""
    return value if isinstance(value, Frozen) or type(value) is tuple else repr(value)


def replace(record: Frozen, /, **changes: object) -> Frozen:
    """A new record of ``record``'s class with the fields ``changes`` names
    replaced, as ``dataclasses.replace`` makes one: through the class's
    constructor, so its checks run and a slot that is not a field (a stored
    fact) starts afresh; of an interned class, through its ``intern`` hook,
    which gives the table's node for the new fields."""
    for f in record.__match_args__:
        if f not in changes:
            changes[f] = getattr(record, f)
    cls = record.__class__
    return (cls.intern if cls._interned else cls)(**changes)
