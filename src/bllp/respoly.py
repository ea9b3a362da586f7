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
monomial products it forms.  There is no module-level cache: each result
is computed from its arguments alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterable, Mapping

VarId = str

# Reserved first characters; the surface parser never produces these, so
# generated names cannot collide with user variables.
_FRESH_MARK = "#"
_WEIGHT_MARK = "@"

_counter = itertools.count(1)


def fresh_var(base: str = "x") -> VarId:
    """Return a variable name guaranteed not to clash with parsed input."""
    return f"{_FRESH_MARK}{base.lstrip(_FRESH_MARK + _WEIGHT_MARK)}{next(_counter)}"


def weight_var() -> VarId:
    """Fresh variable from the reserved namespace used by proof weights."""
    return f"{_WEIGHT_MARK}w{next(_counter)}"


class NotResourcePolynomial(Exception):
    """A computation produced a negative binomial-basis coefficient."""


@dataclass(frozen=True)
class Mono:
    """Product of binomial coefficients; ``factors`` maps var -> degree >= 1."""

    factors: tuple[tuple[VarId, int], ...]

    def __post_init__(self) -> None:
        assert all(n > 0 for _, n in self.factors)
        assert list(self.factors) == sorted(self.factors)

    def degree(self, var: VarId) -> int:
        return dict(self.factors).get(var, 0)

    def vars(self) -> set[VarId]:
        return {v for v, _ in self.factors}

    def eval(self, env: Mapping[VarId, int]) -> int:
        out = 1
        for v, n in self.factors:
            out *= comb(env[v], n)
        return out


MONO_ONE = Mono(())


def _mono(factors: Mapping[VarId, int]) -> Mono:
    return Mono(tuple(sorted((v, n) for v, n in factors.items() if n > 0)))


@dataclass(frozen=True)
class Poly:
    """Canonical resource polynomial: monomial -> positive coefficient."""

    terms: tuple[tuple[Mono, int], ...]

    def __post_init__(self) -> None:
        assert all(c > 0 for _, c in self.terms)

    def coeff(self, m: Mono) -> int:
        for m2, c in self.terms:
            if m2 == m:
                return c
        return 0

    def free_vars(self) -> set[VarId]:
        out: set[VarId] = set()
        for m, _ in self.terms:
            out |= m.vars()
        return out

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


def _poly(table: Mapping[Mono, int]) -> Poly:
    items = [(m, c) for m, c in table.items() if c != 0]
    if any(c < 0 for _, c in items):
        raise NotResourcePolynomial(f"negative coefficient in {dict(table)!r}")
    return Poly(tuple(sorted(items, key=lambda mc: mc[0].factors)))


def _coerce(value: Poly | int) -> Poly:
    if isinstance(value, Poly):
        return value
    return const(value)


ZERO = Poly(())
ONE = Poly(((MONO_ONE, 1),))


def const(n: int) -> Poly:
    if n < 0:
        raise NotResourcePolynomial(f"negative constant {n}")
    return _poly({MONO_ONE: n})


def binom(var: VarId, n: int) -> Poly:
    """The polynomial choose(var, n)."""
    if n == 0:
        return ONE
    return Poly(((_mono({var: n}), 1),))


def pvar(var: VarId) -> Poly:
    return binom(var, 1)


def add(p: Poly, q: Poly) -> Poly:
    table: dict[Mono, int] = dict(p.terms)
    for m, c in q.terms:
        table[m] = table.get(m, 0) + c
    return _poly(table)


def _iterated_diffs(values: list[int]) -> list[int]:
    """Finite differences at 0: values[k] = f(k) -> [Δ^0 f(0), Δ^1 f(0), ...]."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


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


def mul(p: Poly, q: Poly) -> Poly:
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


def fd_oracle(
    f: Callable[[Mapping[VarId, int]], int],
    variables: Iterable[VarId],
    degree_bounds: Mapping[VarId, int],
) -> Poly:
    """Reconstruct a resource polynomial from its evaluation function.

    The coefficient on ``prod choose(x_i, n_i)`` is the mixed finite
    difference of ``f`` at the all-zero point.  Raises
    :class:`NotResourcePolynomial` if any coefficient comes out negative,
    i.e. the function is not a resource polynomial.
    """
    vs = sorted(set(variables))
    ranges = [range(degree_bounds.get(v, 0) + 1) for v in vs]
    table: dict[tuple[int, ...], int] = {}
    for point in itertools.product(*ranges):
        table[point] = f(dict(zip(vs, point)))
    # Difference along each axis in turn.
    for axis in range(len(vs)):
        new: dict[tuple[int, ...], int] = {}
        for base in itertools.product(
            *(ranges[i] if i != axis else [0] for i in range(len(vs)))
        ):
            slice_vals = []
            for k in ranges[axis]:
                pt = list(base)
                pt[axis] = k
                slice_vals.append(table[tuple(pt)])
            diffs = _iterated_diffs(slice_vals)
            for k, d in enumerate(diffs):
                pt = list(base)
                pt[axis] = k
                new[tuple(pt)] = d
        table = new
    out: dict[Mono, int] = {}
    for point, coeff in table.items():
        if coeff == 0:
            continue
        if coeff < 0:
            raise NotResourcePolynomial(
                f"not a resource polynomial: coefficient {coeff} at {dict(zip(vs, point))}"
            )
        out[_mono(dict(zip(vs, point)))] = coeff
    return _poly(out)


def bin_of_poly(q: Poly, n: int) -> Poly:
    """choose(q, n) as a resource polynomial in q's variables."""
    if n == 0:
        return ONE
    if not q.free_vars():
        return const(comb(q.constant_part(), n))
    bounds = {v: q.degree(v) * n for v in q.free_vars()}
    return fd_oracle(lambda env: comb(eval_poly(q, env), n), q.free_vars(), bounds)


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


def bounded_sum(z: VarId, bound: Poly, body: Poly) -> Poly:
    """Canonical form of ``sum over z < bound of body``.

    Rewrites ``body`` in the binomial basis of ``z`` and maps
    ``choose(z, n)`` to ``choose(bound, n+1)``.
    """
    if z in bound.free_vars():
        raise ValueError(f"sum variable {z!r} occurs in its own bound")
    return _substitute(body, z, bound, 1)


def sub_checked(q: Poly, p: Poly) -> Poly | None:
    """q - p when that is a resource polynomial, else None."""
    table: dict[Mono, int] = dict(q.terms)
    for m, c in p.terms:
        table[m] = table.get(m, 0) - c
    if any(c < 0 for c in table.values()):
        return None
    return _poly({m: c for m, c in table.items() if c})


def poly_leq(p: Poly, q: Poly) -> bool:
    """The order ``p ⊑ q``: every basis coefficient of p is covered by q."""
    return sub_checked(q, p) is not None


def poly_lt(p: Poly, q: Poly) -> bool:
    return p != q and poly_leq(p, q)
