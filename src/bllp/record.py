"""Immutable records in ``__slots__``: the base of every node class.

Terms, machine configurations, polynomials, formulas, judgments,
derivations and proofs are built in great numbers on every path, and a
frozen dataclass's ``__init__`` sets each field through
``object.__setattr__``.  A :class:`Frozen` subclass instead names its
fields in ``__match_args__``, keeps them in ``__slots__`` (so it has no
instance ``__dict__``) and writes them in its ``__init__`` through the slot
descriptors, bound once at import (``_set_fn = App.fn.__set__``).
:func:`replace` stands in for ``dataclasses.replace``.
"""

from __future__ import annotations


class Frozen:
    """An immutable record whose fields are the slots named by ``__match_args__``.

    Assigning or deleting an attribute raises ``AttributeError``.  ``==``
    and ``hash`` read the fields, as a frozen dataclass's do (a class on a
    hot path defines a faster ``==`` of the same meaning), and ``repr`` is
    the dataclass form, ``App(fn=Var(name='f'), arg=Var(name='x'))``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {key!r} of an immutable {type(self).__name__}")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"cannot delete field {key!r} of an immutable {type(self).__name__}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

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
