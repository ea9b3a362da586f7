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
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Callable, Iterable, Mapping

from bllp.respoly import Mono, NotResourcePolynomial, Poly, VarId, _mono, _poly, eval_poly, poly_leq


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
    return _poly(out)


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
    return _poly({m: c for m, c in table.items() if c})


def poly_lt(p: Poly, q: Poly) -> bool:
    return p != q and poly_leq(p, q)
