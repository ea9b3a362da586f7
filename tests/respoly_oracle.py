"""Reference resource-polynomial definitions for the tests.

``fd_oracle`` reconstructs a resource polynomial from its values alone: the
coefficient on ``prod choose(x_i, n_i)`` is the mixed finite difference of
the function at the all-zero point, so the oracle shares no arithmetic with
``bllp.respoly`` beyond building the result.  ``fd_bin`` is ``choose(q, n)``
computed that way; ``bllp.respoly.bin_of_poly`` forms the falling product
``q·(q-1)·…·(q-n+1)`` in the binomial basis instead, and the tests check
that both agree.

``sub_checked`` is the difference ``q - p`` when it is a resource
polynomial, and ``poly_lt`` the strict order; ``bllp.respoly.poly_leq``
decides the order without building the difference.

``former_const``, ``former_add``, ``former_mul``, ``former_poly``,
``former_bounded_sum`` and ``former_poly_leq`` are the library's
definitions from before it shared its small constants: each builds a new
polynomial for every result and works on the monomial tables when both
operands are constants too.  ``bllp.respoly`` returns one object per
constant below ``_SHARED`` and adds, multiplies and compares two constants
as integers; the tests require that every result has the same terms.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Callable, Iterable, Mapping

from bllp.respoly import (
    MONO_ONE,
    Mono,
    NotResourcePolynomial,
    Poly,
    VarId,
    _add_product,
    _constant,
    _mono,
    _substitute,
    eval_poly,
    mentions,
    poly_leq,
)


def _iterated_diffs(values: list[int]) -> list[int]:
    """Finite differences at 0: values[k] = f(k) -> [Δ^0 f(0), Δ^1 f(0), ...]."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


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
    return former_poly(out)


def fd_bin(q: Poly, n: int) -> Poly:
    """choose(q, n) the long way: finite differences of its values."""
    vs = q.free_vars()
    return fd_oracle(lambda e: comb(eval_poly(q, e), n), vs, {v: q.degree(v) * n for v in vs})


def sub_checked(q: Poly, p: Poly) -> Poly | None:
    """q - p when that is a resource polynomial, else None."""
    table: dict[Mono, int] = dict(q.terms)
    for m, c in p.terms:
        table[m] = table.get(m, 0) - c
    if any(c < 0 for c in table.values()):
        return None
    return former_poly({m: c for m, c in table.items() if c})


def poly_lt(p: Poly, q: Poly) -> bool:
    return p != q and poly_leq(p, q)


# -- the former constructors and operations -------------------------------------


def former_poly(table: Mapping[Mono, int]) -> Poly:
    items = [(m, c) for m, c in table.items() if c != 0]
    if any(c < 0 for _, c in items):
        raise NotResourcePolynomial(f"negative coefficient in {dict(table)!r}")
    return Poly(tuple(sorted(items, key=lambda mc: mc[0].factors)))


def former_const(n: int) -> Poly:
    if n < 0:
        raise NotResourcePolynomial(f"negative constant {n}")
    return Poly(((MONO_ONE, n),)) if n else Poly(())


def former_add(p: Poly, q: Poly) -> Poly:
    table: dict[Mono, int] = dict(p.terms)
    for m, c in q.terms:
        table[m] = table.get(m, 0) + c
    return former_poly(table)


def _former_scale(p: Poly, k: int) -> Poly:
    if k == 1:
        return p
    return Poly(tuple((m, c * k) for m, c in p.terms)) if k else Poly(())


def former_mul(p: Poly, q: Poly) -> Poly:
    k = _constant(q)
    if k is not None:
        return _former_scale(p, k)
    k = _constant(p)
    if k is not None:
        return _former_scale(q, k)
    table: dict[Mono, int] = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            _add_product(table, m1, m2, c1 * c2)
    return former_poly(table)


def former_bounded_sum(z: VarId, bound: Poly, body: Poly) -> Poly:
    if mentions(bound, z):
        raise ValueError(f"sum variable {z!r} occurs in its own bound")
    return _substitute(body, z, bound, 1) if mentions(body, z) else former_mul(body, bound)


def former_poly_leq(p: Poly, q: Poly) -> bool:
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
