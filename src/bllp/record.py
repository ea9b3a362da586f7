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
  to ``None`` and last calls the class's ``_check(self)``, if it has one:
  the one hook, for a validation that raises.
- ``==`` is true for one object twice, ``NotImplemented`` unless both have
  the exact class, and otherwise compares the fields in order.
- ``hash`` is the hash of the tuple of fields, the dataclass value.

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

# Every function :class:`Frozen` compiled, to tell them from hand-written ones.
_GENERATED: set[Callable] = set()


class Frozen:
    """An immutable record whose fields are the slots named by ``__match_args__``.

    Assigning or deleting an attribute raises ``AttributeError``, and
    ``repr`` is the dataclass form,
    ``App(fn=Var(name='f'), arg=Var(name='x'))``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
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
    """``cls``'s method ``name``, compiled from source with the slot writers
    and ``_check`` as closure variables."""
    fields = cls.__match_args__
    free: dict[str, object] = {}
    if name == "__init__":
        params = fields
        values = dict.fromkeys([s for k in cls.__mro__ for s in k.__dict__.get("__slots__", ())], "None")
        values.update(zip(fields, fields))
        free = {f"_set{i}": getattr(cls, s).__set__ for i, s in enumerate(values)}
        body = [f"_set{i}(self, {v})" for i, v in enumerate(values.values())]
        if hasattr(cls, "_check"):
            free["_check"] = cls._check
            body.append("_check(self)")
    elif name == "__eq__":
        params, same = ("other",), " and ".join(f"self.{f} == other.{f}" for f in fields)
        body = [
            "if self is other: return True",
            "if other.__class__ is not self.__class__: return NotImplemented",
            f"return {same or True}",
        ]
    else:
        params, body = (), [f"return hash(({''.join(f'self.{f}, ' for f in fields)}))"]
    lines = "".join(f"\n  {line}" for line in body or ["pass"])
    source = f"def _make({', '.join(free)}):\n def {name}({', '.join(['self', *params])}):{lines}\n return {name}"
    scope: dict[str, Callable] = {}
    exec(source, {"__name__": cls.__module__}, scope)
    fn = scope["_make"](**free)
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


def _pending(value: object) -> Frozen | tuple | str:
    """``value`` as an entry of the ``repr`` stack: a record or a tuple is
    written later from the stack, anything else is its ``repr`` text now."""
    return value if isinstance(value, Frozen) or type(value) is tuple else repr(value)


def replace(record: Frozen, /, **changes: object) -> Frozen:
    """A new record of ``record``'s class with the fields ``changes`` names
    replaced, as ``dataclasses.replace`` makes one: through the class's
    constructor, so its checks run and a slot that is not a field (a stored
    fact) starts afresh."""
    for f in record.__match_args__:
        if f not in changes:
            changes[f] = getattr(record, f)
    return record.__class__(**changes)
