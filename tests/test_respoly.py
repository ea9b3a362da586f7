import math
import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from bllp import corpus as C
from bllp import respoly
from bllp.proofs import map_derivation, special_steps, weight
from bllp.record import Frozen
from bllp.respoly import (
    MONO_ONE,
    ONE,
    ZERO,
    Mono,
    NotResourcePolynomial,
    Poly,
    _bin_product_1var,
    _constant,
    _poly,
    add,
    bin_of_poly,
    binom,
    bounded_sum,
    compose,
    const,
    eval_poly,
    mul,
    poly_leq,
    pvar,
    specialize,
)
from bllp.typecheck import add_to_mult
from respoly_oracle import (
    fd_bin,
    fd_oracle,
    former_add,
    former_bounded_sum,
    former_const,
    former_mul,
    former_poly,
    former_poly_leq,
    poly_lt,
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

def test_a_polynomial_and_its_monomials_store_their_hash_on_first_use():
    """The intern table keys a formula's polynomials by value, so their
    hashes are read often: the generated ``hash`` stores each one."""
    p = add(pvar("y"), mul(pvar("x"), binom("y", 2)))
    assert p._hash is None
    assert hash(p) == p._hash == hash((p.terms,))
    assert all(m._hash == hash((m.factors,)) for m, _ in p.terms)
    assert Poly(p.terms)._hash is None and hash(Poly(p.terms)) == hash(p)


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


@settings(max_examples=120)
@given(polys(), st.integers(0, 4))
def test_mul_by_a_constant_is_repeated_addition_and_forms_no_product(p, k):
    total = ZERO
    for _ in range(k):
        total = add(total, p)
    real, calls = respoly._add_product, []
    respoly._add_product = lambda *a: calls.append(a) or real(*a)
    try:
        assert mul(p, const(k)).terms == mul(const(k), p).terms == total.terms
    finally:
        respoly._add_product = real
    assert calls == []


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


bounds = st.one_of(
    polys(vars=(X, Y), max_terms=2, max_degree=2),
    st.integers(0, 4).map(const),
)


@settings(max_examples=120)
@given(polys(vars=(X, Y), max_terms=2, max_degree=2), bounds)
def test_bounded_sum_of_a_body_free_of_the_sum_variable_is_the_closed_form(body, bound):
    """Σ_{z<h} A = h · A; the binomial-basis substitution is the reference."""
    total = bounded_sum(Z, bound, body)
    assert total.terms == respoly._substitute(body, Z, bound, 1).terms
    for env in envs_for(add(pvar(X), pvar(Y)), 0, 3):
        assert eval_poly(total, env) == brute_eval_sum(Z, bound, body, env)
    assert bounded_sum(Z, ZERO, body) == ZERO == bounded_sum(Z, bound, ZERO)


def test_bounded_sum_with_a_constant_factor_forms_no_product(monkeypatch):
    body = add(mul(binom(X, 2), pvar(Y)), const(3))
    expected = {
        "constant bound": (const(4), body, mul(const(4), body)),
        "constant body": (add(pvar(X), const(2)), const(5), add(mul(const(5), pvar(X)), const(10))),
        "symbolic": (pvar(X), body, mul(body, pvar(X))),
        "z in the body": (pvar(Y), binom(Z, 1), binom(Y, 2)),
    }
    calls = {"_substitute": 0, "_add_product": 0}
    for name in calls:
        real = getattr(respoly, name)

        def counted(*a, name=name, real=real):
            calls[name] += 1
            return real(*a)

        monkeypatch.setattr(respoly, name, counted)
    seen = {}
    for case, (bound, summand, want) in expected.items():
        assert bounded_sum(Z, bound, summand) == want, case
        seen[case] = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
    assert bounded_sum(Z, const(1), body) is body
    assert seen["constant bound"] == seen["constant body"] == {"_substitute": 0, "_add_product": 0}
    assert seen["symbolic"]["_substitute"] == 0 < seen["symbolic"]["_add_product"]
    assert seen["z in the body"]["_substitute"] == 1


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


@settings(max_examples=60)
@given(polys(), varnames, st.integers(0, 5))
def test_bin_of_poly_shortcuts_match_the_oracle(q, v, n):
    assert bin_of_poly(q, 1) == q == fd_bin(q, 1)
    assert bin_of_poly(pvar(v), n) == binom(v, n) == fd_bin(pvar(v), n)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(0, 5))
def test_bin_of_poly_matches_the_oracle(q, n):
    assert bin_of_poly(q, n) == fd_bin(q, n)


@settings(max_examples=60)
@given(polys(), varnames, varnames)
def test_renaming_matches_the_oracle(p, x, y):
    got = compose(p, x, pvar(y))
    rest = (p.free_vars() - {x}) | {y}
    assert got == fd_oracle(lambda e: eval_poly(p, {**e, x: e[y]}), rest,
                            {v: p.degree(v) + p.degree(x) for v in rest})


def test_renaming_and_vacuous_sums_form_no_falling_product(monkeypatch):
    """``choose(y, n)`` for a bare variable is read off, so renaming forms
    one monomial product per term, as a vacuous sum's ``mul`` does; the
    falling product of the general case would form more."""
    p = add(mul(pvar(X), pvar(X)), mul(const(3), pvar(X)))
    renamed = add(mul(pvar(Y), pvar(Y)), mul(const(3), pvar(Y)))
    summed = mul(p, pvar(Y))
    calls = []
    real = respoly._add_product
    monkeypatch.setattr(respoly, "_add_product", lambda *a: calls.append(a) or real(*a))
    assert compose(p, X, pvar(Y)) == renamed
    assert len(calls) == len(p.terms)
    assert bounded_sum(Z, pvar(Y), p) == summed
    assert len(calls) == 2 * len(p.terms)


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


@st.composite
def poly_pairs(draw):
    """Pairs with ``p == q`` (as one object or a copy), ``q = p + r`` or unrelated."""
    p = draw(polys())
    kind = draw(st.sampled_from(["same", "copy", "above", "below", "unrelated"]))
    match kind:
        case "same":
            return p, p
        case "copy":
            return p, add(p, ZERO)
        case "above":
            return p, add(p, draw(polys()))
        case "below":
            return add(p, draw(polys())), p
        case "unrelated":
            return p, draw(polys())


@settings(max_examples=200)
@given(poly_pairs())
def test_leq_agrees_with_the_checked_difference(pair):
    p, q = pair
    assert poly_leq(p, q) == (sub_checked(q, p) is not None)


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_partial_order_laws(p, d1, d2):
    q = add(p, d1)
    r = add(q, d2)
    assert poly_leq(p, q) and poly_leq(q, r) and poly_leq(p, r)
    if poly_leq(q, p):
        assert p == q


# -- shared constants ---------------------------------------------------------

SHARED = respoly._SHARED
constants = st.integers(0, 2 * SHARED)
operands = st.one_of(
    constants.map(const),
    constants.map(former_const),
    polys(),
    st.tuples(polys(), constants).map(lambda pc: add(pc[0], const(pc[1]))),
)


def _same(got, want):
    """``got`` has ``want``'s terms, ``repr`` and hash, and is the table's
    object if it is a constant the table holds."""
    assert type(got) is Poly and got.terms == want.terms
    assert repr(got) == repr(want) and hash(got) == hash(want)
    k = _constant(got)
    if k is not None and k < SHARED:
        assert got is const(k)


@settings(max_examples=300)
@given(operands, operands, varnames)
def test_the_operations_equal_their_former_definitions(p, q, z):
    """On constants in and past the table, equal constants that are other
    objects, symbolic and mixed operands."""
    _same(add(p, q), former_add(p, q))
    _same(mul(p, q), former_mul(p, q))
    assert poly_leq(p, q) == former_poly_leq(p, q)
    try:
        want = former_bounded_sum(z, q, p)
    except ValueError:
        with pytest.raises(ValueError):
            bounded_sum(z, q, p)
    else:
        _same(bounded_sum(z, q, p), want)


@given(st.integers(-3, 2 * SHARED))
def test_const_equals_its_former_definition_and_rejects_a_negative(n):
    if n < 0:
        with pytest.raises(NotResourcePolynomial):
            former_const(n)
        with pytest.raises(NotResourcePolynomial):
            const(n)
    else:
        _same(const(n), former_const(n))


MONOS = [MONO_ONE, Mono(()), Mono(((X, 1),)), Mono(((X, 1), (Y, 2)))]


@given(st.dictionaries(st.sampled_from(MONOS), st.integers(-2, 2 * SHARED), max_size=3))
def test_canonical_form_equals_its_former_definition_and_rejects_a_negative(table):
    try:
        want = former_poly(table)
    except NotResourcePolynomial:
        with pytest.raises(NotResourcePolynomial):
            _poly(table)
    else:
        _same(_poly(table), want)


def test_each_constant_of_the_table_is_one_shared_object():
    for v in range(SHARED):
        assert const(v) is const(v) is respoly._CONSTS[v]
        assert const(v).terms == former_const(v).terms
    assert const(0) is ZERO and const(1) is ONE
    assert const(SHARED) == const(SHARED) and const(SHARED) is not const(SHARED)


def _polys_in(roots) -> list[Poly]:
    """Every polynomial held by the records ``roots`` or below them: in
    fields, tuples and mappings (a derivation's ``ann``, a proof's
    ``data``), each shared record visited once."""
    out, seen, stack = [], set(), list(roots)
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if isinstance(t, Poly):
            out.append(t)
        elif isinstance(t, Frozen):
            stack += [getattr(t, f) for f in t.__match_args__]
        elif isinstance(t, Mapping):
            stack += t.values()
        elif type(t) is tuple:
            stack += t
    return out


@pytest.mark.parametrize(
    "d",
    [e.derivation for e in C.entries() if e.derivation]
    + [C.church_applied_derivation(n) for n in range(1, 13)],
)
def test_every_constant_label_and_weight_along_the_pipeline_is_the_tables(d):
    """Each constant label, bound and weight of the elaborated derivation,
    of its proof and of every special step's exposed and result proofs."""
    m = add_to_mult(d)
    pf = map_derivation(m)
    proofs = [pf, *(q for hit in special_steps(pf) for q in (hit.exposed, hit.result))]
    found = _polys_in([m, *proofs]) + [weight(q) for q in proofs]
    shared = [(p, v) for p, v in zip(found, map(_constant, found)) if v is not None and v < SHARED]
    assert shared and all(p is const(v) for p, v in shared)
