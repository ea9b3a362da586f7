import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bllp.respoly import (
    ONE,
    ZERO,
    NotResourcePolynomial,
    _bin_product_1var,
    add,
    bin_of_poly,
    binom,
    bounded_sum,
    compose,
    const,
    eval_poly,
    fd_oracle,
    mul,
    poly_leq,
    poly_lt,
    pvar,
    specialize,
    sub_checked,
)

X, Y, Z = "x", "y", "z"


def brute_eval_sum(z, bound, body, env):
    return sum(
        eval_poly(body, {**env, z: k}) for k in range(eval_poly(bound, env))
    )


# -- small strategies ---------------------------------------------------------

varnames = st.sampled_from([X, Y, Z])


@st.composite
def polys(draw, vars=(X, Y, Z), max_terms=3, max_degree=3, max_coeff=4):
    n = draw(st.integers(0, max_terms))
    p = ZERO
    for _ in range(n):
        coeff = draw(st.integers(1, max_coeff))
        term = const(coeff)
        for v in vars:
            d = draw(st.integers(0, max_degree))
            if d:
                term = mul(term, binom(v, d))
        p = add(p, term)
    return p


def envs_for(p, lo=0, hi=8):
    vs = sorted(p.free_vars())
    def gen(seed):
        rng = random.Random(seed)
        return {v: rng.randint(lo, hi) for v in vs}
    return [gen(i) for i in range(12)]


# -- add ----------------------------------------------------------------------

def test_add_identity():
    p = add(binom(X, 2), const(3))
    assert add(ZERO, p) == p


def test_add_disjoint_monomials():
    p = add(binom(X, 1), const(1))
    assert p.coeff(binom(X, 1).terms[0][0]) == 1
    assert p.constant_part() == 1


def test_add_merges_coefficients():
    assert add(binom(X, 2), binom(X, 2)) == 2 * binom(X, 2)


# -- mul ----------------------------------------------------------------------

def test_mul_identity():
    p = add(mul(binom(X, 1), binom(Y, 2)), const(2))
    assert mul(ONE, p) == p


def test_mul_distinct_vars_single_monomial():
    p = mul(binom(X, 1), binom(Y, 1))
    assert len(p.terms) == 1


def test_mul_same_var_rebases():
    # n*n = choose(n,1) + 2*choose(n,2), by finite differences of f(n)=n^2.
    expected = fd_oracle(lambda e: e[X] ** 2, [X], {X: 2})
    assert mul(pvar(X), pvar(X)) == expected
    assert expected == add(binom(X, 1), 2 * binom(X, 2))


def test_mul_eval_homomorphic():
    p = add(mul(binom(X, 2), binom(Y, 1)), const(2))
    q = add(binom(X, 1), binom(Y, 2))
    for env in envs_for(add(p, q)):
        assert eval_poly(mul(p, q), env) == eval_poly(p, env) * eval_poly(q, env)


# -- eval ---------------------------------------------------------------------

def test_eval_examples():
    assert eval_poly(add(binom(X, 2), binom(X, 1)), {X: 3}) == 6
    assert eval_poly(ONE, {}) == 1
    assert eval_poly(mul(binom(X, 1), binom(Y, 2)), {X: 2, Y: 4}) == 12


def test_eval_missing_variable():
    with pytest.raises(KeyError):
        eval_poly(pvar(X), {})


# -- bounded sums -------------------------------------------------------------

def test_bounded_sum_of_one_is_bound():
    assert bounded_sum(Z, pvar(Y), ONE) == pvar(Y)


def test_bounded_sum_hockey_stick():
    assert bounded_sum(Z, pvar(Y), binom(Z, 1)) == binom(Y, 2)


def test_bounded_sum_empty():
    assert bounded_sum(Z, ZERO, add(binom(X, 1), const(5))) == ZERO


def test_bounded_sum_rejects_bound_capture():
    with pytest.raises(ValueError):
        bounded_sum(Z, pvar(Z), ONE)


def test_bounded_sum_matches_brute_force():
    body = add(mul(binom(Z, 2), binom(X, 1)), add(binom(Z, 1), const(1)))
    bound = add(pvar(Y), const(1))
    total = bounded_sum(Z, bound, body)
    for env in envs_for(add(pvar(X), pvar(Y)), 0, 6):
        assert eval_poly(total, env) == brute_eval_sum(Z, bound, body, env)


# -- compose ------------------------------------------------------------------

def test_compose_identity_polynomial():
    q = add(binom(Y, 2), const(1))
    assert compose(pvar(X), X, q) == q


def test_compose_constant():
    assert compose(binom(X, 2), X, const(2)) == ONE


def test_compose_eval_commutes():
    p = add(binom(X, 1), binom(X, 2))
    q = add(pvar(Y), const(1))
    result = compose(p, X, q)
    for env in envs_for(pvar(Y), 0, 6):
        assert eval_poly(result, env) == eval_poly(p, {X: eval_poly(q, env)})


# -- specialize ---------------------------------------------------------------

def test_specialize_rejects_negative_constant():
    with pytest.raises(NotResourcePolynomial):
        specialize(pvar(X), {X: -1})


@settings(max_examples=60)
@given(polys(), st.dictionaries(varnames, st.integers(0, 4)),
       st.sampled_from([None, 0, 1]))
def test_specialize_is_iterated_compose(p, env, fill):
    if fill is not None:
        env = dict.fromkeys(env, fill)
    got = specialize(p, env)
    iterated = p
    for v, c in env.items():
        iterated = compose(iterated, v, const(c))
    assert got == iterated
    rest = sorted(p.free_vars() - set(env))
    assert got == fd_oracle(lambda e: eval_poly(p, {**e, **env}), rest,
                            {v: p.degree(v) for v in rest})
    for point in envs_for(p, 0, 5):
        assert eval_poly(got, {v: point[v] for v in rest}) == eval_poly(p, {**point, **env})


# -- fd oracle ----------------------------------------------------------------

def test_fd_oracle_constant():
    assert fd_oracle(lambda e: 5, [], {}) == const(5)


def test_fd_oracle_mixed_product():
    assert fd_oracle(lambda e: e[X] * e[Y], [X, Y], {X: 1, Y: 1}) == mul(
        pvar(X), pvar(Y)
    )


def test_fd_oracle_rejects_non_resource():
    with pytest.raises(NotResourcePolynomial):
        fd_oracle(lambda e: max(0, 3 - e[X]), [X], {X: 3})


def test_bin_product_closed_form_matches_oracle():
    for a in range(7):
        for b in range(7):
            expected = fd_oracle(
                lambda e: math.comb(e[X], a) * math.comb(e[X], b), [X], {X: a + b}
            )
            got = ZERO
            for k, c in _bin_product_1var(a, b):
                got = add(got, c * binom(X, k))
            assert got == expected, (a, b)


def test_bin_of_poly_vandermonde():
    q = add(pvar(X), pvar(Y))
    p = bin_of_poly(q, 2)
    for env in envs_for(q):
        assert eval_poly(p, env) == math.comb(eval_poly(q, env), 2)


# -- order --------------------------------------------------------------------

def test_leq_reflexive():
    p = add(mul(binom(X, 1), binom(Y, 1)), const(2))
    assert poly_leq(p, p)
    assert not poly_lt(p, p)


def test_leq_constant_slack():
    assert poly_leq(binom(X, 1), add(binom(X, 1), const(1)))
    assert not poly_leq(add(binom(X, 1), const(1)), binom(X, 1))


def test_sub_checked():
    p = add(2 * binom(X, 1), const(1))
    q = binom(X, 1)
    assert sub_checked(p, q) == add(binom(X, 1), const(1))
    assert sub_checked(q, p) is None


@settings(max_examples=60)
@given(polys(), polys())
def test_leq_implies_pointwise(p, q):
    if poly_leq(p, q):
        for env in envs_for(add(p, q), 0, 5):
            assert eval_poly(p, env) <= eval_poly(q, env)


@settings(max_examples=60)
@given(polys(), polys())
def test_eval_homomorphisms(p, q):
    for env in envs_for(add(p, q), 0, 5):
        assert eval_poly(add(p, q), env) == eval_poly(p, env) + eval_poly(q, env)
        assert eval_poly(mul(p, q), env) == eval_poly(p, env) * eval_poly(q, env)


@settings(max_examples=40)
@given(polys(vars=(X, Y), max_degree=2), polys(vars=(Y,), max_degree=2))
def test_compose_agrees_with_eval(p, q):
    r = compose(p, X, q)
    for env in envs_for(add(pvar(X), pvar(Y)), 0, 4):
        assert eval_poly(r, env) == eval_poly(p, {**env, X: eval_poly(q, env)})


@settings(max_examples=40)
@given(polys(vars=(X, Y), max_degree=2), polys(vars=(X,), max_degree=2))
def test_order_compatibility(p, q):
    r = add(p, q)
    assert poly_leq(p, r)
    assert poly_leq(mul(p, q), mul(r, add(q, ONE))) or q.is_zero()


@settings(max_examples=30)
@given(polys(vars=(X, Z), max_terms=2, max_degree=2, max_coeff=3))
def test_bounded_sum_property(body):
    bound = add(pvar(Y), const(1))
    total = bounded_sum(Z, bound, body)
    for env in envs_for(add(pvar(X), pvar(Y)), 0, 4):
        assert eval_poly(total, env) == brute_eval_sum(Z, bound, body, env)


@settings(max_examples=40)
@given(polys(vars=(X,), max_degree=2), polys(vars=(X,), max_degree=2, max_terms=2),
       polys(vars=(Y,), max_degree=2), polys(vars=(Y,), max_degree=2, max_terms=2))
def test_compose_monotone(p, dp, q, dq):
    r = add(p, dp)
    s = add(q, dq)
    lhs = compose(q, Y, p)
    rhs = compose(s, Y, r)
    assert poly_leq(lhs, rhs)


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_partial_order_laws(p, d1, d2):
    q = add(p, d1)
    r = add(q, d2)
    assert poly_leq(p, q) and poly_leq(q, r) and poly_leq(p, r)
    if poly_leq(q, p):
        assert p == q
