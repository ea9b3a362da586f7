"""Exact arithmetic for resource polynomials in the binomial basis.

A resource monomial is a finite product of binomial coefficients
``choose(x, n)`` over distinct variables; a resource polynomial is a finite
sum of monomials with positive integer coefficients.  The canonical form
used throughout is a mapping from monomials to coefficients, which makes
equality structural and the order ``p ⊑ q`` ("q - p is again a resource
polynomial") a plain coefficient comparison.

Every operation that builds a polynomial (``add``, ``mul``, ``compose``,
``bounded_sum``, ``specialize``) accumulates its coefficients in one
dictionary and canonicalises (checks and sorts) the result once, at the
end, so apart from that one sort its cost is linear in the number of
monomial products it forms.

The constants 0 to ``_SHARED - 1`` (255) are built once, at import, into
one fixed table, and each constant in that range the module returns is the
table's object: ``const``, the canonical form every operation ends in, and
``add``, ``mul`` and ``bounded_sum`` on constants all hand it out.  So
equal labels are mostly one object, and ``==`` on them returns at once.
The table is no memo: nothing is looked up by value, nothing is added to
it after import, a constant past it is a new object each time, and each
result is still computed from its arguments alone.  When both operands are
constants, ``add``, ``mul``, ``bounded_sum`` and ``poly_leq`` work on the
two integers.  That is exact: a constant ``c`` is the one coefficient
``c`` on the empty monomial, and the empty monomial times itself is
itself, so the sum, product and order of two constants are those of their
coefficients, and ``Σ_{z<h} c = h · c``.

``mul`` with a constant factor scales the other factor's coefficients, so
it forms no monomial product and sorts nothing.  ``bounded_sum`` has a
closed form for a body free of the summation variable:
``Σ_{z<h} A = h · A``, a product whose one factor is a constant in every
sum the checkers form.  Only a body that mentions ``z`` goes through the
binomial-basis substitution.

The order ``poly_leq`` builds nothing: one object passed twice, two
constants and equal operands return at once, and otherwise one merge walk
over the two sorted term tuples looks up each coefficient of p in q.
``bin_of_poly`` forms ``choose(q, n)`` exactly, as a falling product
divided by ``n!``, and reads ``choose(x, n)`` for a bare variable off
directly, so renaming a variable with
``compose(p, x, pvar(y))`` forms no product beyond one per monomial.  The
finite-difference oracle that reconstructs a polynomial from its values
is a reference for the tests, in ``tests/respoly_oracle.py``.

Monomials and polynomials are immutable records in ``__slots__``
(``record.Frozen``), whose ``==`` returns at once on one object passed
twice and whose ``_check`` asserts the canonical form.  Each stores its
set of variables as a ``frozenset`` in one more slot on the first read
(``Mono.vars``, ``Poly.free_vars``), so the binder check of every
labelled formula reads a stored set.
"""

from __future__ import annotations

import itertools
from math import comb, factorial
from typing import Mapping

from .record import Frozen

VarId = str

# Reserved first character; the surface parser never produces it, so
# generated names cannot collide with user variables.
_FRESH_MARK = "#"

_counter = itertools.count(1)


def fresh_var(base: str = "x") -> VarId:
    """Return a variable name guaranteed not to clash with parsed input."""
    return f"{_FRESH_MARK}{base.lstrip(_FRESH_MARK)}{next(_counter)}"


class NotResourcePolynomial(Exception):
    """A computation produced a negative binomial-basis coefficient."""


class Mono(Frozen):
    """Product of binomial coefficients; ``factors`` maps var -> degree >= 1."""

    # ``_vars``: the stored variables, ``None`` until first read; ``_hash``
    # likewise, filled by the generated ``hash``.
    __slots__ = ("factors", "_vars", "_hash")
    __match_args__ = ("factors",)

    def _check(self) -> None:
        assert all(n > 0 for _, n in self.factors)
        assert list(self.factors) == sorted(self.factors)

    def degree(self, var: VarId) -> int:
        return dict(self.factors).get(var, 0)

    def vars(self) -> frozenset[VarId]:
        """The variables of the factors, stored on the first call."""
        s = self._vars
        if s is None:
            s = frozenset([v for v, _ in self.factors])
            _set_mono_vars(self, s)
        return s

    def eval(self, env: Mapping[VarId, int]) -> int:
        out = 1
        for v, n in self.factors:
            out *= comb(env[v], n)
        return out


_set_mono_vars = Mono._vars.__set__
MONO_ONE = Mono(())


def _mono(factors: Mapping[VarId, int]) -> Mono:
    return Mono(tuple(sorted((v, n) for v, n in factors.items() if n > 0)))


class Poly(Frozen):
    """Canonical resource polynomial: monomial -> positive coefficient."""

    # ``_vars``: the stored free variables, ``None`` until first read;
    # ``_hash`` likewise, filled by the generated ``hash``.
    __slots__ = ("terms", "_vars", "_hash")
    __match_args__ = ("terms",)

    def _check(self) -> None:
        assert all(c > 0 for _, c in self.terms)

    def coeff(self, m: Mono) -> int:
        for m2, c in self.terms:
            if m2 == m:
                return c
        return 0

    def free_vars(self) -> frozenset[VarId]:
        """The variables of the monomials, stored on the first call."""
        s = self._vars
        if s is None:
            s = frozenset().union(*[m.vars() for m, _ in self.terms])
            _set_poly_vars(self, s)
        return s

    def is_zero(self) -> bool:
        return not self.terms

    def constant_part(self) -> int:
        return self.coeff(MONO_ONE)

    def degree(self, var: VarId) -> int:
        return max((m.degree(var) for m, _ in self.terms), default=0)

    def __add__(self, other: "Poly | int") -> "Poly":
        return add(self, _coerce(other))

    def __radd__(self, other: int) -> "Poly":
        return add(_coerce(other), self)

    def __mul__(self, other: "Poly | int") -> "Poly":
        return mul(self, _coerce(other))

    def __rmul__(self, other: int) -> "Poly":
        return mul(_coerce(other), self)

    def subst(self, var: VarId, value: "Poly | int") -> "Poly":
        return compose(self, var, _coerce(value))

    def __str__(self) -> str:
        from .syntax import print_poly

        return print_poly(self)


_set_poly_vars = Poly._vars.__set__


def _poly(table: Mapping[Mono, int]) -> Poly:
    items = [(m, c) for m, c in table.items() if c != 0]
    if any(c < 0 for _, c in items):
        raise NotResourcePolynomial(f"negative coefficient in {dict(table)!r}")
    if not items:
        return ZERO
    if len(items) == 1 and not items[0][0].factors:
        return const(items[0][1])
    return Poly(tuple(sorted(items, key=lambda mc: mc[0].factors)))


def _coerce(value: Poly | int) -> Poly:
    if isinstance(value, Poly):
        return value
    return const(value)


# The shared constants 0 .. _SHARED - 1, built once; ``const`` returns them.
_SHARED = 256
_CONSTS = (Poly(()),) + tuple(Poly(((MONO_ONE, n),)) for n in range(1, _SHARED))
ZERO, ONE = _CONSTS[0], _CONSTS[1]


def const(n: int) -> Poly:
    """The constant ``n >= 0``: below ``_SHARED``, the table's object."""
    if n < 0:
        raise NotResourcePolynomial(f"negative constant {n}")
    return _CONSTS[n] if n < _SHARED else Poly(((MONO_ONE, n),))


def binom(var: VarId, n: int) -> Poly:
    """The polynomial choose(var, n)."""
    if n == 0:
        return ONE
    return Poly(((_mono({var: n}), 1),))


def pvar(var: VarId) -> Poly:
    return binom(var, 1)


def add(p: Poly, q: Poly) -> Poly:
    a, b = _constant(p), _constant(q)
    if a is not None and b is not None:
        return const(a + b)
    table: dict[Mono, int] = dict(p.terms)
    for m, c in q.terms:
        table[m] = table.get(m, 0) + c
    return _poly(table)


def _bin_product_1var(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """Pairs (k, c_k) with choose(x,a)*choose(x,b) = sum c_k * choose(x,k), c_k > 0.

    Closed form: for j = 0..min(a, b), c_{a+b-j} = (a+b-j)! / (j! (a-j)! (b-j)!),
    the number of pairs of an a-subset and a b-subset, overlapping in j
    elements, that together cover a given set of a+b-j elements.
    """
    out = []
    for j in range(min(a, b) + 1):
        k = a + b - j
        out.append((k, factorial(k) // (factorial(j) * factorial(a - j) * factorial(b - j))))
    return tuple(out)


def _add_product(table: dict[Mono, int], m1: Mono, m2: Mono, coeff: int) -> None:
    """Add ``coeff * m1 * m2``, rewritten in the binomial basis, into ``table``."""
    d2 = dict(m2.factors)
    fixed: dict[VarId, int] = {}
    expansions: list[tuple[VarId, tuple[tuple[int, int], ...]]] = []
    for v, n in m1.factors:
        if v in d2:
            expansions.append((v, _bin_product_1var(n, d2.pop(v))))
        else:
            fixed[v] = n
    fixed.update(d2)
    for picks in itertools.product(*(cs for _, cs in expansions)):
        c = coeff
        factors = dict(fixed)
        for (v, _), (k, ck) in zip(expansions, picks):
            c *= ck
            factors[v] = k
        m = _mono(factors)
        table[m] = table.get(m, 0) + c


def _constant(p: Poly) -> int | None:
    """The value of ``p`` if it is a constant, else None."""
    if not p.terms:
        return 0
    if len(p.terms) > 1:
        return None
    m, c = p.terms[0]
    return None if m.factors else c


def _scale(p: Poly, k: int) -> Poly:
    """``k · p`` for a polynomial ``p`` that is not a constant and an integer
    ``k >= 0``: the monomials and their order stay."""
    if k == 1:
        return p
    return Poly(tuple((m, c * k) for m, c in p.terms)) if k else ZERO


def mul(p: Poly, q: Poly) -> Poly:
    """``p · q``; a constant factor only scales the other's coefficients."""
    a, b = _constant(p), _constant(q)
    if a is not None:
        return _scale(q, a) if b is None else const(a * b)
    if b is not None:
        return _scale(p, b)
    table: dict[Mono, int] = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            _add_product(table, m1, m2, c1 * c2)
    return _poly(table)


def eval_poly(p: Poly, env: Mapping[VarId, int]) -> int:
    missing = p.free_vars() - set(env)
    if missing:
        raise KeyError(f"unassigned resource variables: {sorted(missing)}")
    return sum(c * m.eval(env) for m, c in p.terms)


def bin_of_poly(q: Poly, n: int) -> Poly:
    """choose(q, n) as a resource polynomial in q's variables.

    The falling product ``q·(q-1)·…·(q-n+1)`` is formed in the binomial
    basis on a signed table and divided by ``n!``.  The division is exact:
    ``choose(q, n)`` is integer-valued, so every coefficient of the product
    is ``n!`` times an integer.  ``choose(x, n)`` for a bare variable is
    read off directly.
    """
    if len(q.terms) == 1:
        (m, c), = q.terms
        if c == 1 and len(m.factors) == 1 and m.factors[0][1] == 1:
            return binom(m.factors[0][0], n)
    factor = dict(q.terms)
    c0 = factor.get(MONO_ONE, 0)
    table = {MONO_ONE: 1}
    for k in range(n):
        factor[MONO_ONE] = c0 - k
        product: dict[Mono, int] = {}
        for m1, c1 in table.items():
            for m2, c2 in factor.items():
                if c1 and c2:
                    _add_product(product, m1, m2, c1 * c2)
        table = product
    d = factorial(n)
    return _poly({m: c // d for m, c in table.items()})


def specialize(p: Poly, env: Mapping[VarId, int]) -> Poly:
    """Substitute the constant ``env[v]`` for every variable ``v`` of ``env``.

    One pass over the terms: each factor ``choose(v, n)`` with ``v`` in
    ``env`` becomes the integer ``comb(env[v], n)``, and a monomial whose
    product is 0 is dropped.
    """
    if any(c < 0 for c in env.values()):
        raise NotResourcePolynomial(f"negative constant in {dict(env)!r}")
    table: dict[Mono, int] = {}
    for m, c in p.terms:
        rest = []
        for v, n in m.factors:
            if v in env:
                c *= comb(env[v], n)
            else:
                rest.append((v, n))
        if c:
            if len(rest) < len(m.factors):
                m = Mono(tuple(rest))
            table[m] = table.get(m, 0) + c
    return _poly(table)


def _substitute(p: Poly, var: VarId, q: Poly, shift: int) -> Poly:
    """Replace each ``choose(var, n)`` of ``p`` by ``choose(q, n + shift)``."""
    powers: dict[int, Poly] = {}
    table: dict[Mono, int] = {}
    for m, c in p.terms:
        deg = m.degree(var) + shift
        if deg == 0:
            table[m] = table.get(m, 0) + c
            continue
        if deg not in powers:
            powers[deg] = bin_of_poly(q, deg)
        rest = Mono(tuple((v, n) for v, n in m.factors if v != var))
        for m2, c2 in powers[deg].terms:
            _add_product(table, rest, m2, c * c2)
    return _poly(table)


def compose(p: Poly, var: VarId, q: Poly) -> Poly:
    """Substitute ``q`` for ``var`` in ``p``, renormalising."""
    if not q.free_vars():
        return specialize(p, {var: q.constant_part()})
    return _substitute(p, var, q, 0)


def rename(p: Poly, names: Mapping[VarId, VarId]) -> Poly:
    """``p`` with each variable ``v`` read as ``names.get(v, v)``; the
    renaming must be injective on the variables of ``p``."""
    return _poly({_mono({names.get(v, v): n for v, n in m.factors}): c for m, c in p.terms})


def mentions(p: Poly, var: VarId) -> bool:
    """Whether some monomial of ``p`` has a factor in ``var``."""
    for m, _ in p.terms:
        for v, _ in m.factors:
            if v == var:
                return True
    return False


def bounded_sum(z: VarId, bound: Poly, body: Poly) -> Poly:
    """Canonical form of ``sum over z < bound of body``.

    A body that does not mention ``z`` is the same in every summand, so the
    sum is ``bound · body``.  Otherwise ``body`` is rewritten in the
    binomial basis of ``z`` and ``choose(z, n)`` maps to ``choose(bound, n+1)``.
    """
    h, a = _constant(bound), _constant(body)
    if h is not None and a is not None:
        return const(h * a)
    if mentions(bound, z):
        raise ValueError(f"sum variable {z!r} occurs in its own bound")
    return _substitute(body, z, bound, 1) if mentions(body, z) else mul(body, bound)


def poly_leq(p: Poly, q: Poly) -> bool:
    """The order ``p ⊑ q``: every basis coefficient of p is covered by q.

    Both term tuples are sorted by monomial, so one merge walk finds each
    monomial of p in q or shows that it is missing.
    """
    if p is q:
        return True
    a, b = _constant(p), _constant(q)
    if a is not None and b is not None:
        return a <= b
    if p == q:
        return True
    qt = q.terms
    n = len(qt)
    j = 0
    for m, c in p.terms:
        f = m.factors
        while j < n and qt[j][0].factors < f:
            j += 1
        if j == n or qt[j][0].factors != f or qt[j][1] < c:
            return False
        j += 1
    return True

