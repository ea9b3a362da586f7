import functools
import itertools
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import lammu_oracle as O
from bllp import lammu as L
from bllp import machine as M
from bllp.lammu import (
    App,
    Lam,
    Mu,
    Named,
    Var,
    alpha_eq,
    app_spine,
    free_mvars,
    free_vars,
    mu_subst,
    reduce,
    root_step,
    subst,
)
from bllp.syntax import parse_term, print_term

T = parse_term


def _church(n: int) -> str:
    return "(\\s. \\z. " + "s (" * n + "z" + ")" * n + ")"


KAPPA = T(r"\x. mu a. [a] (x) \y. mu b. [a] y")
ALEPH = T(r"\f. mu a. (f) \x. [a] x")


@st.composite
def terms(draw, depth=4, lvars=("x", "y", "z"), mvars=("a", "b")):
    if depth == 0:
        return Var(draw(st.sampled_from(lvars)))
    kind = draw(st.sampled_from(["var", "lam", "mu", "named", "app"]))
    match kind:
        case "var":
            return Var(draw(st.sampled_from(lvars)))
        case "lam":
            return Lam(draw(st.sampled_from(lvars)), draw(terms(depth - 1, lvars, mvars)))
        case "mu":
            return Mu(draw(st.sampled_from(mvars)), draw(terms(depth - 1, lvars, mvars)))
        case "named":
            return Named(draw(st.sampled_from(mvars)), draw(terms(depth - 1, lvars, mvars)))
        case "app":
            return App(draw(terms(depth - 1, lvars, mvars)), draw(terms(depth - 1, lvars, mvars)))


# -- substitution ---------------------------------------------------------------


def test_subst_var():
    assert subst(Var("x"), "x", T("u v")) == T("u v")


def test_subst_capture_avoiding():
    out = subst(T(r"\y. x"), "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.var != "y"
    assert out.body == Var("y")


def test_subst_dropped_when_absent():
    e = T(r"\z. z w")
    assert subst(e, "k", T(r"\y. mu b. [a] y")) == e


def test_mu_subst_single_occurrence():
    out = mu_subst(Named("a", Var("x")), "a", Var("u"))
    assert out == T("[a] x u")


def test_mu_subst_other_name_untouched():
    assert mu_subst(Named("b", Var("x")), "a", Var("u")) == Named("b", Var("x"))


def test_mu_subst_nested_bottom_up():
    t = Named("a", Named("a", Var("x")))
    out = mu_subst(t, "a", Var("u"))
    assert out == Named("a", App(Named("a", App(Var("x"), Var("u"))), Var("u")))


def test_mu_subst_untouched_inside_argument():
    t = Named("a", Var("x"))
    u = Named("a", Var("z"))
    out = mu_subst(t, "a", u)
    assert out == Named("a", App(Var("x"), u))


@settings(max_examples=80)
@given(terms(), terms(depth=2))
def test_subst_preserves_alpha_classes(t, u):
    t2 = L.subst(L.subst(t, "x", Var("x_tmp")), "x_tmp", Var("x"))
    assert alpha_eq(t, t2)
    assert alpha_eq(subst(t, "x", u), subst(t2, "x", u))


# -- steps ----------------------------------------------------------------------


def test_root_beta():
    out = L.step(T(r"(\x. t) u"), "head")[0]
    assert out == Var("t")


def test_step_weak_examples():
    assert L.step(T(r"(\x. x) y"), "weak")[0] == Var("y")
    assert L.step(T(r"mu a. [a] (\x. x) y"), "weak") is None
    assert L.step(T(r"\x. x"), "weak") is None


def test_step_head_normal_forms():
    assert L.step(T(r"\x. x"), "head") is None
    assert L.step(T(r"[a] \x. (\y. y) z"), "head") is None  # λ inside a naming blocks


def test_step_machine_examples():
    assert L.step(T(r"mu a. [a] (\x. x) y"), "machine")[0] == T(r"mu a. [a] y")
    assert L.step(T(r"\x. (\y. y) z"), "machine") is None
    assert L.step(T(r"mu a. [a] t"), "machine")[0] == Var("t")
    assert L.step(T(r"mu a. [a] (\x. x) y"), "head")[0] == T(r"mu a. [a] y")


def test_theta_side_condition():
    blocked = Mu("a", Named("a", Named("a", Var("x"))))
    assert L.theta_step(blocked) is None
    assert L.step(blocked, "head") is None
    ok = Mu("a", Named("a", Var("x")))
    assert L.theta_step(ok) == Var("x")
    assert L.step(ok, "head")[0] == Var("x")


def test_mu_redex():
    out = L.step(T(r"(mu a. [a] x) u"), "head")[0]
    assert alpha_eq(out, T(r"mu a. [a] x u"))


def test_kappa_head_three_steps():
    t, steps, exhausted = reduce(App(KAPPA, T(r"\k. y")), "head", 10)
    assert (t, steps, exhausted) == (Var("y"), 3, False)


def test_kappa_weak_stalls():
    t, steps, exhausted = reduce(App(KAPPA, T(r"\k. y")), "weak", 10)
    assert not exhausted
    assert isinstance(t, Mu) and isinstance(t.body, Named)
    assert steps == 1
    assert L.step(t, "weak") is None


def test_kappa_machine_reaches_head_normal_form():
    t, steps, _ = reduce(App(KAPPA, T(r"\k. y")), "machine", 10)
    assert t == Var("y")
    assert steps == 3


def test_aleph_behavior():
    for k in range(4):
        args = [Var(f"t{i}") for i in range(1, k + 1)]
        t, steps, _ = reduce(app_spine(ALEPH, Var("w"), *args), "head", 100)
        expected = Mu(
            "a",
            App(Var("w"), Lam("x", Named("a", app_spine(Var("x"), *args)))),
        )
        assert alpha_eq(t, expected)
        assert steps == 1 + k


def test_reduce_normal_form_zero_steps():
    t, steps, exhausted = reduce(T(r"\x. x"), "head", 5)
    assert (t, steps, exhausted) == (T(r"\x. x"), 0, False)


@settings(max_examples=120)
@given(terms())
def test_weak_subset_of_head(t):
    w = L.step(t, "weak")
    if w is not None:
        h = L.step(t, "head")
        assert h is not None and alpha_eq(h[0], w[0])


@settings(max_examples=120)
@given(terms())
def test_steps_deterministic_and_theta_guarded(t):
    for strategy in L.STRATEGIES:
        a, b = L.step(t, strategy), L.step(t, strategy)
        assert (a is None) == (b is None)
        if a is not None:
            assert alpha_eq(a[0], b[0])
    out = L.theta_step(t)
    if out is not None:
        assert t.mvar not in free_mvars(out)


@settings(max_examples=80)
@given(terms())
def test_free_vars_shrink_under_steps(t):
    hit = L.step(t, "head")
    if hit is not None:
        out = hit[0]
        assert free_vars(out) <= free_vars(t)
        assert free_mvars(out) <= free_mvars(t)


@settings(max_examples=80)
@given(terms(), terms(depth=2))
def test_mu_subst_preserves_alpha_classes(t, u):
    t2 = L.rename_mvar(L.rename_mvar(t, "a", "a_tmp"), "a_tmp", "a")
    assert alpha_eq(t, t2)
    assert alpha_eq(mu_subst(t, "a", u), mu_subst(t2, "a", u))


def test_unknown_strategy_raises_everywhere():
    t = T(r"(\x. x) y")
    with pytest.raises(ValueError, match="bogus"):
        L.trace(t, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        L.step(t, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        reduce(t, "bogus")


@settings(max_examples=120)
@given(terms(), st.sampled_from(L.STRATEGIES), st.integers(0, 6))
def test_reduce_drains_trace_and_trace_iterates_step(t, strategy, fuel):
    steps = list(L.trace(t, strategy, fuel))
    nf, n, exhausted = reduce(t, strategy, fuel)
    assert n == len(steps) <= fuel
    assert alpha_eq(nf, steps[-1][2] if steps else t)
    assert exhausted == (n == fuel and L.step(nf, strategy) is not None)
    prev = t
    for kind, pos, reduct in steps:
        out, kind2, pos2 = L.step(prev, strategy)
        assert (kind2, pos2) == (kind, pos) and alpha_eq(out, reduct)
        prev = reduct


# -- agreement with the recursive reference (tests/lammu_oracle.py) -------------


def _agree(got, want) -> None:
    """Same (kind, position) and an α-equal reduct, or both stuck."""
    assert (got is None) == (want is None)
    if got is not None:
        assert got[1:] == want[1:] and alpha_eq(got[0], want[0])


@settings(max_examples=300)
@given(
    terms(),
    terms(depth=2),
    st.sampled_from(("x", "y", "z")),
    st.sampled_from(("a", "b")),
    st.sampled_from(("a", "b", "c")),
)
def test_cached_free_variables_and_sharing_substitutions_match_the_oracle(t, u, x, a, b):
    assert free_vars(t) == O.free_vars(t) and free_mvars(t) == O.free_mvars(t)
    out = subst(t, x, u)
    assert alpha_eq(out, O.subst(t, x, u))
    assert (out is t) == (x not in O.free_vars(t) or u == Var(x))
    for got, want in (
        (mu_subst(t, a, u), O.mu_subst(t, a, u)),
        (L.rename_mvar(t, a, b), O.rename_mvar(t, a, b)),
    ):
        assert alpha_eq(got, want)
    for got in (out, mu_subst(t, a, u)):
        assert free_vars(got) == O.free_vars(got) and free_mvars(got) == O.free_mvars(got)
    for strategy in L.STRATEGIES:
        _agree(L.step(t, strategy), O.step(t, strategy))


def _nested_theta(t: L.Term, depth: int) -> L.Term:
    """``t`` under ``depth`` nested θ-candidates ``mu a<i>. [a<i>] …``."""
    for i in range(depth):
        t = Mu(f"a{i}", Named(f"a{i}", t))
    return t


# Steps of the oracle followed before a reduction counts as long.
ORACLE_STEPS = 16


def _agree_along_the_reduction(t: L.Term) -> None:
    """``trace`` and ``reduce`` against the oracle's steps iterated from the root.

    Under each strategy and at fuel 0, 1 and the step count n and n - 1 (or
    ORACLE_STEPS and one less when the reduction is longer): the same
    (kind, position) per step, α-equal reducts, and ``reduce``'s term and
    ``exhausted`` flag.
    """
    for strategy in L.STRATEGIES:
        want = []
        cur = t
        while len(want) <= ORACLE_STEPS and (hit := O.step(cur, strategy)) is not None:
            want.append(hit)
            cur = hit[0]
        n = len(want)
        last = min(n, ORACLE_STEPS)
        for fuel in sorted({0, 1, max(last - 1, 0), last}):
            got = list(L.trace(t, strategy, fuel))
            assert [(kind, pos) for kind, pos, _ in got] == [w[1:] for w in want[:fuel]]
            for (_, _, reduct), (w, _, _) in zip(got, want):
                assert alpha_eq(reduct, w)
            nf, steps, exhausted = reduce(t, strategy, fuel)
            assert steps == min(fuel, n)
            assert alpha_eq(nf, want[steps - 1][0] if steps else t)
            assert exhausted == (fuel < n)


@pytest.mark.parametrize("inner", [r"(\x. x) y", r"\x. (\y. y) z", "[c] y", "x"])
@pytest.mark.parametrize("depth", range(5))
def test_nested_theta_candidates_match_the_oracle(inner, depth):
    """Weak θ fires only on a weakly stuck body; candidates nest ``depth`` deep.

    One step, then whole reductions, also of a redex whose reduct is
    the nest under a further θ-candidate.
    """
    t = _nested_theta(T(inner), depth)
    for strategy in L.STRATEGIES:
        _agree(L.step(t, strategy), O.step(t, strategy))
        _agree(L.step(App(t, Var("w")), strategy), O.step(App(t, Var("w")), strategy))
    for subject in (t, App(t, Var("w")), Mu("b", Named("b", App(Lam("x", t), Var("z"))))):
        _agree_along_the_reduction(subject)


@settings(max_examples=150, deadline=None)
@given(terms(), terms(depth=2), st.integers(0, 3))
def test_whole_reductions_of_random_terms_match_the_oracle(t, u, depth):
    """Random terms, and random redexes under nested θ-candidates, so that
    most reductions take several steps at several depths."""
    _agree_along_the_reduction(t)
    _agree_along_the_reduction(_nested_theta(App(Lam("x", t), u), depth))
    _agree_along_the_reduction(App(Mu("a", _nested_theta(App(t, u), depth)), Var("w")))


# -- stored free-name sets and the type-dispatched step kernels ----------------


def _nodes(t: L.Term) -> list[L.Term]:
    """Every distinct node object of ``t``."""
    out, seen, stack = [], set(), [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            cls = type(node)
            stack += (node.fn, node.arg) if cls is App else () if cls is Var else (node.body,)
    return out


def _check_stored_sets(t: L.Term) -> None:
    """Every ``fv`` and ``fmv`` stored on a node of ``t`` is the oracle's,
    and a node holds one only if its children hold theirs."""
    for node in _nodes(t):
        cls = type(node)
        children = (node.fn, node.arg) if cls is App else () if cls is Var else (node.body,)
        if node._fv is not None:
            assert node._fv == O.free_vars(node)
            assert all(c._fv is not None for c in children)
        if node._fmv is not None:
            assert node._fmv == O.free_mvars(node)
            assert all(c._fmv is not None for c in children)


@settings(max_examples=150, deadline=None)
@given(terms(), terms(depth=2), st.integers(0, 2))
def test_stored_free_name_sets_match_the_oracle_along_traces_and_readbacks(t, u, depth):
    for subject in (t, _nested_theta(App(Lam("x", t), u), depth), App(Mu("a", t), u)):
        for strategy in L.STRATEGIES:
            for _, _, reduct in L.trace(subject, strategy, 12):
                _check_stored_sets(reduct)
        _check_stored_sets(subject)
        try:
            for _, cfg in M.machine_trace(M.load(subject), 40):
                _check_stored_sets(M.readback(cfg))
        except M.StuckState:
            pass


@pytest.mark.parametrize("key,other", [("fmv", "fv"), ("fv", "fmv")])
def test_free_name_sets_are_stored_only_once_asked_and_apart(key, other):
    """A parsed term stores no set; asking for one stores it on every node
    and the other on none."""
    t = T(r"(\x. mu a. [b] x (\y. [a] y z)) w (mu c. [c] v)")
    nodes = _nodes(t)
    assert all(node._fv is None and node._fmv is None for node in nodes)
    assert getattr(t, key) == {"fv": {"w", "z", "v"}, "fmv": {"b"}}[key]
    slot, other_slot = f"_{key}", f"_{other}"
    assert all(getattr(node, slot) is not None and getattr(node, other_slot) is None for node in nodes)
    _check_stored_sets(t)
    with pytest.raises(AttributeError):
        t.fw


def _same_draws(f, g, *args):
    """``f(*args)`` and ``g(*args)`` (or the ``StuckState`` they raise), each
    from the same state of the fresh-name counter; both must draw the same
    number of names."""
    start = next(L._gen)
    outs, ends = [], []
    for fn in (f, g):
        L._gen = itertools.count(start)
        try:
            outs.append(fn(*args))
        except M.StuckState as exc:
            outs.append(str(exc))
        ends.append(next(L._gen))
    assert ends[0] == ends[1]
    L._gen = itertools.count(ends[0] + 1)
    return outs


def _kernels_agree(t: L.Term) -> None:
    former = functools.partial(
        O.root_step, subst=L.subst, rename_mvar=L.rename_mvar, mu_subst=L.mu_subst
    )
    got, want = _same_draws(root_step, former, t)
    assert got == want
    assert L.theta_step(t) == O.theta_step(t)


def _machine_agrees(t: L.Term, fuel: int) -> None:
    """``machine.step`` is the former ``match`` on every configuration of
    ``t``'s run, and so are the λμ kernels on its closure terms."""
    cfg = M.load(t)
    for _ in range(fuel):
        _kernels_agree(cfg.closure.term)
        got, want = _same_draws(M.step, O.machine_step, cfg)
        assert got == want
        if not isinstance(got, tuple):
            return
        cfg = got[0]


@settings(max_examples=200, deadline=None)
@given(terms(), terms(depth=2), st.sampled_from(("x", "y")), st.sampled_from(("a", "b")))
def test_step_kernels_equal_their_former_match_definitions(t, u, x, a):
    for subject in (t, App(t, u), App(Lam(x, t), u), App(Mu(a, t), u), Mu(a, Named(a, t))):
        _kernels_agree(subject)
        _machine_agrees(subject, 30)


@pytest.mark.parametrize(
    "text",
    [f"{_church(k)} {_church(2)} (\\y. y) z0" for k in (2, 3)]
    + [r"(\f. mu a. f (\x. [a] x)) w " + " ".join(f"t{i}" for i in range(1, k + 1)) for k in (1, 4)]
    + [f"{_church(k)} (\\y. y) z0" for k in (10, 12)],
)
def test_step_kernels_equal_their_former_definitions_along_the_reduce_families(text):
    _machine_agrees(T(text), 100_000)


# -- depth 10^4: built directly, since parse_term and == still recurse -----------

DEEP = 10_000


def _shape(t: L.Term) -> list:
    """Pre-order tokens of ``t``, a bound name replaced by its binder's index."""
    out: list = []
    stack = [(t, {}, {})]
    while stack:
        node, lam, mu = stack.pop()
        match node:
            case Var(x):
                out.append(("v", lam.get(x, x)))
            case Lam(x, body):
                stack.append((body, {**lam, x: len(out)}, mu))
                out.append(("l",))
            case Mu(a, body):
                stack.append((body, lam, {**mu, a: len(out)}))
                out.append(("m",))
            case Named(a, body):
                out.append(("n", mu.get(a, a)))
                stack.append((body, lam, mu))
            case App(f, arg):
                out.append(("a",))
                stack += [(arg, lam, mu), (f, lam, mu)]
    return out


def test_free_variables_of_deep_chains():
    t = Var("z")
    for i in range(DEEP):
        t = Lam(f"x{i}", App(t, Var(f"x{i}" if i % 2 else "y")))
    assert free_vars(t) == {"z", "y"}
    assert free_mvars(t) == set()
    m = Var("z")
    for i in range(DEEP):
        m = Mu(f"a{i}", Named(f"a{i}" if i % 2 else "b", m))
    assert free_mvars(m) == {"b"}
    assert free_vars(m) == {"z"}


@pytest.mark.parametrize("strategy", L.STRATEGIES)
def test_step_at_the_foot_of_a_deep_left_spine(strategy):
    args = [Var(f"t{i}") for i in range(1, DEEP + 1)]
    reduct, kind, pos = L.step(app_spine(Mu("a", Named("a", Var("x"))), *args), strategy)
    assert kind == "mu" and pos == ("appL",) * (DEEP - 1)
    want = app_spine(Mu("a", Named("a", App(Var("x"), args[0]))), *args[1:])
    assert _shape(reduct) == _shape(want)


# -- the benchmark's largest reduce sizes: exact counts, no timing ---------------


@pytest.mark.parametrize("strategy", L.STRATEGIES)
def test_largest_aleph_spine_and_church_exponential(strategy):
    k = 400
    names = " ".join(f"t{i}" for i in range(1, k + 1))
    nf, steps, exhausted = reduce(T(rf"(\f. mu a. f (\x. [a] x)) w {names}"), strategy)
    assert (steps, exhausted) == (k + 1, False)
    spine = app_spine(Var("x"), *(Var(f"t{i}") for i in range(1, k + 1)))
    assert alpha_eq(nf, Mu("a", App(Var("w"), Lam("x", Named("a", spine)))))
    assert print_term(nf) == rf"mu a. w (\x. [a] x {names})"
    exp = T(f"{_church(9)} {_church(2)} (\\y. y) z0")
    assert reduce(exp, strategy) == (Var("z0"), 3 * 2**9, False)


def test_machine_on_the_largest_aleph_spine_and_church_exponential():
    k = 400
    aleph = T(r"(\f. mu a. f (\x. [a] x)) w " + " ".join(f"t{i}" for i in range(1, k + 1)))
    cfg, transitions, exhausted = M.run(M.load(aleph), 100_000)
    assert (transitions, exhausted) == (k + 5, False)
    assert alpha_eq(M.readback(cfg), reduce(aleph, "head")[0])
    exp = T(f"{_church(9)} {_church(2)} (\\y. y) z0")
    cfg, transitions, exhausted = M.run(M.load(exp), 100_000)
    assert (transitions, exhausted, M.readback(cfg)) == (12 * 2**9 - 4, False, Var("z0"))


# -- a step costs its reduct, not the depth of its redex: counts, no timing -----


def _count_builds(monkeypatch) -> list[int]:
    """Count every term node built from here on, in ``built[0]``."""
    built = [0]
    for cls in (Var, Lam, Mu, Named, App):

        def counted(self, *args, _init=cls.__init__, **kwargs):
            built[0] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("strategy", L.STRATEGIES)
def test_reducing_the_aleph_spine_builds_linearly_many_nodes(monkeypatch, strategy):
    """About 6 nodes per step: the μ-reduct and the one application above it.

    Rebuilding the path from the root at every step builds k²/2 (82 202 at
    k = 400)."""
    k = 400
    t = app_spine(ALEPH, Var("w"), *(Var(f"t{i}") for i in range(1, k + 1)))
    built = _count_builds(monkeypatch)
    _, steps, exhausted = reduce(t, strategy)
    assert (steps, exhausted) == (k + 1, False)
    assert built[0] <= 6 * k + 8


@pytest.mark.parametrize("strategy", L.STRATEGIES)
def test_a_spine_of_deep_arguments_reduces_in_linear_steps(strategy):
    """``mu a. w (\\x. [a] x t1 … tk)`` at k = 10^4, compared by shape and
    printed, at the default recursion limit."""
    args = [Var(f"t{i}") for i in range(1, DEEP + 1)]
    nf, steps, exhausted = reduce(app_spine(ALEPH, Var("w"), *args), strategy, DEEP + 1)
    assert (steps, exhausted) == (DEEP + 1, False)
    want = Mu("a", App(Var("w"), Lam("x", Named("a", app_spine(Var("x"), *args)))))
    assert _shape(nf) == _shape(want)
    names = " ".join(a.name for a in args)
    assert print_term(nf) == rf"mu a. w (\x. [a] x {names})"


# -- α-equality: the pairwise walk against the former nameless keys ---------------


def _renamed(t: L.Term, fresh) -> L.Term:
    """``t`` with every binder renamed to ``fresh(old name)``: α-equal when
    the new names are unused, possibly capturing otherwise."""
    match t:
        case Var(_):
            return t
        case Lam(x, b):
            y = fresh(x)
            return Lam(y, _renamed(L.subst(b, x, Var(y)) if y not in b.fv else b, fresh))
        case Mu(a, b):
            c = fresh(a)
            return Mu(c, _renamed(L.rename_mvar(b, a, c) if c not in b.fmv else b, fresh))
        case Named(a, b):
            return Named(a, _renamed(b, fresh))
        case App(f, a):
            return App(_renamed(f, fresh), _renamed(a, fresh))
    raise TypeError(t)


@settings(max_examples=300)
@given(terms(), terms(), st.data())
def test_alpha_eq_agrees_with_the_nameless_keys(t, u, data):
    pool = ("x", "y", "z", "a", "b", "c")
    counter = iter(range(10**6))
    unused = _renamed(t, lambda name: f"r{next(counter)}")
    clashing = _renamed(t, lambda name: data.draw(st.sampled_from(pool)))
    assert alpha_eq(t, unused) and O.alpha_eq(t, unused)
    for other in (u, clashing, _renamed(u, lambda name: f"r{next(counter)}")):
        assert alpha_eq(t, other) == O.alpha_eq(t, other)
        assert alpha_eq(other, t) == O.alpha_eq(other, t)


@settings(max_examples=300)
@given(
    terms(),
    st.sampled_from(("x", "y", "z")),
    st.sampled_from(("x", "y", "z")),
    st.sampled_from(("a", "b")),
    st.sampled_from(("a", "b")),
)
def test_alpha_eq_on_one_subterm_shared_under_different_binders(s, x, y, a, b):
    """Both sides hold the same object ``s``; it is equal on both sides only
    if none of its free names is bound differently around it."""
    pairs = [
        (Lam(x, s), Lam(y, s)),
        (Mu(a, s), Mu(b, s)),
        (App(Lam(x, s), s), App(Lam(y, s), s)),
        (Lam(x, Lam(y, s)), Lam(y, Lam(x, s))),
        (Lam(x, Mu(a, App(s, Lam(y, s)))), Lam(y, Mu(b, App(s, Lam(x, s))))),
        (Mu(a, Named(a, Mu(b, s))), Mu(b, Named(b, Mu(a, s)))),
    ]
    for left, right in pairs:
        assert alpha_eq(left, right) == O.alpha_eq(left, right)


def test_alpha_eq_of_a_shared_body_under_renamed_binders():
    body = App(Var("x"), Var("w"))
    assert not alpha_eq(Lam("x", body), Lam("y", body))
    assert alpha_eq(Lam("x", Var("w")), Lam("y", Var("w")))
    assert not alpha_eq(Mu("a", Named("a", body)), Mu("b", Named("a", body)))
    assert alpha_eq(Mu("a", Named("b", body)), Mu("c", Named("b", body)))
    assert alpha_eq(Lam("x", Lam("x", body)), Lam("y", Lam("x", body)))


# -- α-equality up to a renaming of free names -----------------------------------

LNAMES = ("x", "y", "z", "w")
MNAMES = ("a", "b", "c")


def _renaming_cases(u, rename, data, names):
    """Terms to compare with ``u`` under the renaming ``{x1: z, x2: z}``: the
    renamed term itself (it shares every subterm the renaming leaves alone),
    a near miss renamed to another name, an α-variant and unrelated terms."""
    x1, x2, z, other = (data.draw(st.sampled_from(names)) for _ in range(4))
    renamed = rename(rename(u, x1, z), x2, z)
    counter = iter(range(10**6))
    cases = [
        renamed,
        u,
        rename(rename(u, x1, other), x2, z),
        _renamed(renamed, lambda name: f"r{next(counter)}"),
        _renamed(renamed, lambda name: data.draw(st.sampled_from(names))),
        data.draw(terms(3, LNAMES, MNAMES)),
    ]
    return {x1: z, x2: z}, renamed, cases


@settings(max_examples=300)
@given(terms(4, LNAMES, MNAMES), st.data())
def test_alpha_eq_up_to_a_lambda_renaming_agrees_with_substituting(u, data):
    renaming, renamed, cases = _renaming_cases(
        u, lambda t, x, z: subst(t, x, Var(z)), data, LNAMES
    )
    for t in cases:
        want = alpha_eq(t, renamed)
        assert want == O.alpha_eq(t, renamed)
        assert alpha_eq(t, u, lam_renaming=renaming) == want
        assert alpha_eq(t, u, mu_renaming=renaming) == alpha_eq(t, u)
    assert alpha_eq(renamed, u, lam_renaming=renaming)


@settings(max_examples=300)
@given(terms(4, LNAMES, MNAMES), st.data())
def test_alpha_eq_up_to_a_mu_renaming_agrees_with_renaming(u, data):
    renaming, renamed, cases = _renaming_cases(u, L.rename_mvar, data, MNAMES)
    for t in cases:
        want = alpha_eq(t, renamed)
        assert want == O.alpha_eq(t, renamed)
        assert alpha_eq(t, u, mu_renaming=renaming) == want
    assert alpha_eq(renamed, u, mu_renaming=renaming)


def test_alpha_eq_up_to_a_renaming_hand_cases():
    ren = {"x1": "z", "x2": "z"}
    # A binder z of the left side above a renamed occurrence: substituting
    # would rename the right side's binder away, so z is bound on one side only.
    assert not alpha_eq(T(r"\z. z"), T(r"\y. x1"), ren)
    assert not alpha_eq(T(r"\z. z"), T(r"\z. x1"), ren)
    assert alpha_eq(T(r"\w. z"), T(r"\z. x1"), ren)
    assert alpha_eq(T(r"\w. w z"), T(r"\z. z x2"), ren)
    # A subterm shared by both sides holding x1: renamed on the right only,
    # unless a binder of x1 on both sides binds it.
    s = App(Var("x1"), Var("w"))
    assert not alpha_eq(Lam("y", s), Lam("y", s), ren)
    assert not alpha_eq(s, s, ren)
    assert alpha_eq(s, s, {"x1": "x1"})
    assert alpha_eq(Lam("x1", s), Lam("x1", s), ren)
    assert not alpha_eq(Lam("q", s), Lam("x1", s), ren)
    assert alpha_eq(App(Var("z"), Var("w")), s, ren)
    # x1 is the target name itself.
    assert alpha_eq(T("z z"), T("z x2"), {"z": "z", "x2": "z"})
    assert not alpha_eq(T("z x2"), T("z x2"), {"z": "z", "x2": "z"})
    # x1 bound inside the right side: only its free occurrences are renamed.
    assert alpha_eq(T(r"\q. q"), T(r"\x1. x1"), ren)
    assert not alpha_eq(T(r"\q. z"), T(r"\x1. x1"), ren)
    assert alpha_eq(T(r"z (\q. q)"), T(r"x1 (\x1. x1)"), ren)
    # μ-names: the same cases through the μ-maps; λ-names are untouched.
    mren = {"a1": "c", "a2": "c"}
    assert alpha_eq(T("[c] [c] y"), T("[a1] [a2] y"), mu_renaming=mren)
    assert not alpha_eq(T("mu c. [c] y"), T("mu b. [a1] y"), mu_renaming=mren)
    assert alpha_eq(T("mu d. [c] y"), T("mu c. [a1] y"), mu_renaming=mren)
    assert alpha_eq(T("mu d. [d] y"), T("mu a1. [a1] y"), mu_renaming=mren)
    assert not alpha_eq(T("[c] y"), T("[a1] y"), lam_renaming=mren)


def _with_recursion_room(fn, *args):
    """``fn(*args)`` with a raised recursion limit, on a thread with a large stack."""
    out = []
    limit, size = sys.getrecursionlimit(), threading.stack_size(64 * 2**20)
    try:
        sys.setrecursionlimit(4 * DEEP + 1000)
        worker = threading.Thread(target=lambda: out.append(fn(*args)))
        worker.start()
        worker.join()
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    return out[0]


def _deep_term(lnames: tuple[str, ...], mnames: tuple[str, ...], leaf: L.Term) -> L.Term:
    """A chain of DEEP λ-, μ- and application layers around ``leaf``."""
    t = leaf
    for i in range(DEEP):
        x, a = lnames[i // 3 % len(lnames)], mnames[i // 3 % len(mnames)]
        match i % 3:
            case 0:
                t = Mu(a, Named(a, t))
            case 1:
                t = Lam(x, App(t, Var(x)))
            case _:
                t = App(Var("w"), Lam(x, t))
    return t


def _dataclass_repr(t: L.Term) -> str:
    """The ``repr`` a plain dataclass gives, by recursion."""
    match t:
        case Var(x):
            return f"Var(name={x!r})"
        case Lam(x, b):
            return f"Lam(var={x!r}, body={_dataclass_repr(b)})"
        case Mu(a, b):
            return f"Mu(mvar={a!r}, body={_dataclass_repr(b)})"
        case Named(a, b):
            return f"Named(mvar={a!r}, body={_dataclass_repr(b)})"
        case App(f, u):
            return f"App(fn={_dataclass_repr(f)}, arg={_dataclass_repr(u)})"


def test_repr_of_a_depth_10_4_chain_is_the_dataclass_form():
    assert repr(App(Lam("x", Var("x")), Named("a", Var("y'")))) == (
        "App(fn=Lam(var='x', body=Var(name='x')), arg=Named(mvar='a', body=Var(name=\"y'\")))"
    )
    t = _deep_term(("x", "y", "z"), ("a", "b"), App(Var("x"), Named("a", Var("w"))))
    assert repr(t) == _with_recursion_room(_dataclass_repr, t)


def test_alpha_eq_of_depth_10_4_chains_agrees_with_the_nameless_keys():
    leaf = App(Var("x"), Named("a", Var("w")))
    t = _deep_term(("x", "y", "z"), ("a", "b"), leaf)
    cases = {
        "renamed": (_deep_term(("p", "q", "r"), ("c", "d"), App(Var("p"), Named("c", Var("w")))), True),
        "rebuilt": (_deep_term(("x", "y", "z"), ("a", "b"), App(Var("x"), Named("a", Var("w")))), True),
        "shared leaf": (_deep_term(("p", "q", "r"), ("c", "d"), leaf), False),
        "permuted": (_deep_term(("y", "x", "z"), ("a", "b"), leaf), False),
        "other μ": (_deep_term(("x", "y", "z"), ("b", "a"), leaf), False),
    }
    for name, (u, want) in cases.items():
        assert alpha_eq(t, u) == alpha_eq(u, t) == want, name
        assert _with_recursion_room(O.alpha_eq, t, u) == want, name


# -- the one rewriting walk: shared λ/μ alphabets, identity exits, depth 10^4 ----

SHARED = ("x", "y", "a")


@settings(max_examples=300)
@given(
    terms(5, SHARED, SHARED),
    terms(2, SHARED, SHARED),
    st.sampled_from(SHARED),
    st.sampled_from(SHARED),
)
def test_rewrites_match_the_oracle_when_lambda_and_mu_names_overlap(t, u, x, b):
    """One alphabet for both families, so a λ-name may equal a μ-name."""
    for got, want in (
        (subst(t, x, u), O.subst(t, x, u)),
        (mu_subst(t, x, u), O.mu_subst(t, x, u)),
        (L.rename_mvar(t, x, b), O.rename_mvar(t, x, b)),
    ):
        assert alpha_eq(got, want)
        assert free_vars(got) == O.free_vars(want) and free_mvars(got) == O.free_mvars(want)


def test_a_naming_by_the_substituted_lambda_name_is_untouched():
    u = T("u v")
    assert subst(Named("x", Var("x")), "x", u) == Named("x", u)
    assert subst(Mu("x", Named("x", Var("x"))), "x", u) == Mu("x", Named("x", u))
    kept = Named("x", Var("y"))
    assert subst(kept, "x", u) is kept
    assert L.rename_mvar(Lam("a", Var("a")), "a", "b") == Lam("a", Var("a"))
    out = mu_subst(Lam("a", Named("a", Var("a"))), "a", Var("a"))
    assert _shape(out) == _shape(Lam("c", Named("a", App(Var("c"), Var("a")))))


def test_a_binder_in_a_renamed_body_shadows_the_renaming():
    """Two binders capture ``u`` and are renamed; below them, where ``x`` is
    no longer free, a binder of the first name shadows its renaming while
    the second renaming still applies.  Last, a binder of ``x`` itself
    below a renamed binder: its body is only renamed."""
    cases = [
        (T(r"\y. \z. x (\y. y z)"), T("y z")),
        (T(r"mu a. mu c. x (mu a. [a] [c] w)"), T("[a] [c] v")),
        (T(r"\y. x (\x. x y)"), T("y")),
    ]
    for t, u in cases:
        assert alpha_eq(subst(t, "x", u), O.subst(t, "x", u))
    t = T(r"\y. \z. [b] (\y. y z)")
    assert alpha_eq(mu_subst(t, "b", T("y z")), O.mu_subst(t, "b", T("y z")))


@settings(max_examples=200)
@given(terms(5, SHARED, SHARED), st.sampled_from(SHARED))
def test_substituting_a_name_by_itself_returns_the_term(t, x):
    before = repr(L._gen)
    assert subst(t, x, Var(x)) is t
    assert L.rename_mvar(t, x, x) is t
    assert repr(L._gen) == before


def _church_applied(d: int) -> str:
    return f"{_church(d)} (\\y. y) z0"


def test_a_depth_10_4_church_numeral_reduces_and_runs_on_the_machine():
    t = T(_church_applied(DEEP))
    for strategy in L.STRATEGIES:
        assert reduce(t, strategy, 2 * DEEP) == (Var("z0"), DEEP + 2, False)
    cfg, transitions, exhausted = M.run(M.load(t), 5 * DEEP)
    assert (transitions, exhausted) == (4 * DEEP + 5, False)
    assert M.readback(cfg) == Var("z0")


def test_depth_10_4_binder_and_naming_nesting_round_trips_through_the_printer():
    t = Var("z")
    for i in range(DEEP):
        x, a = f"x{i % 7}", f"a{i % 5}"
        match i % 4:
            case 0:
                t = Lam(x, App(Var(x), t))
            case 1:
                t = Mu(a, Named(f"a{(i + 2) % 5}", t))
            case 2:
                t = App(Var("w"), Lam(L.fresh_tvar(x), t))
            case _:
                t = Named(a, App(t, Var(f"x{(i + 3) % 7}")))
    text = print_term(t)
    back = T(text)
    assert _shape(back) == _shape(t)
    assert print_term(back) == text


def test_the_rewrites_of_depth_10_4_chains_have_the_expected_shape():
    u = App(Var("y5"), Var("k"))
    lam, want = Var("x"), u
    for i in range(DEEP):
        lam = Lam(f"y{i % 9}", App(lam, Var("v")))
        # Every binder y5 captures ``u`` and gets a fresh name.
        want = Lam(f"y{i % 9}" if i % 9 != 5 else "r", App(want, Var("v")))
    out = subst(lam, "x", u)
    assert _shape(out) == _shape(want)
    assert free_vars(out) == {"y5", "k", "v"}

    named, want = Var("z"), Var("z")
    for i in range(DEEP):
        named = Mu(f"b{i % 9}", Named("a", named))
        want = Mu(f"b{i % 9}" if i % 9 != 3 else "r", Named("a", App(want, Named("b3", Var("k")))))
    out = mu_subst(named, "a", Named("b3", Var("k")))
    assert _shape(out) == _shape(want)
    assert free_mvars(out) == {"a", "b3"}

    out = L.rename_mvar(named, "a", "b4")
    want = Var("z")
    for i in range(DEEP):
        want = Mu(f"b{i % 9}" if i % 9 != 4 else "r", Named("b4", want))
    assert _shape(out) == _shape(want)
    assert free_mvars(out) == {"b4"}


def _nested(depth: int, leaf: str) -> L.Term:
    """A depth-``depth`` chain through every node class, ending in ``leaf``."""
    t = Var(leaf)
    for i in range(depth):
        match i % 4:
            case 0:
                t = Lam(f"x{i % 7}", t)
            case 1:
                t = Mu(f"a{i % 5}", t)
            case 2:
                t = Named(f"a{i % 3}", t)
            case _:
                t = App(t, Var("w")) if i % 8 == 3 else App(Var("w"), t)
    return t


def test_equality_and_hashing_of_depth_10_4_terms_need_no_recursion():
    from bllp.corpus import church_term

    a, b = church_term(DEEP), church_term(DEEP)
    assert a == b and hash(a) == hash(b) and not a != b
    assert church_term(DEEP) != church_term(DEEP - 1)
    deep, twin, other = _nested(DEEP, "z"), _nested(DEEP, "z"), _nested(DEEP, "y")
    assert deep is not twin and deep == twin and hash(deep) == hash(twin)
    assert deep != other and len({deep, twin, other}) == 2
    # Same names in another class, and a name changed at one node, differ.
    assert Lam("a", Var("z")) != Mu("a", Var("z")) and Mu("a", Var("z")) != Named("a", Var("z"))
    assert App(Var("f"), Var("x")) != App(Var("x"), Var("f"))
    assert Lam("x0", deep) != Lam("x1", deep)


def test_term_equality_with_a_non_term_is_not_implemented():
    assert Var("x").__eq__("x") is NotImplemented
    assert Var("x") != "x" and App(Var("f"), Var("x")) != ("f", "x")


# -- the kernels against their former free-name readers ------------------------


def _copy(t: L.Term) -> L.Term:
    """A copy of the small term ``t`` that shares no node with it, so it
    holds no stored set."""
    cls = type(t)
    if cls is Var:
        return Var(t.name)
    if cls is App:
        return App(_copy(t.fn), _copy(t.arg))
    return cls(t.var if cls is Lam else t.mvar, _copy(t.body))


def _with_former_free_name_readers(make, fuel: int) -> None:
    """``reduce`` and ``trace`` of ``make()`` under every strategy, with the
    library's kernels and with ``O.FORMER_KERNELS`` swapped in, each from
    one state of the fresh-name counter: ``==`` results, names included,
    and the counter left at one value.  Every stored set of every reduct
    is the oracle's."""
    start = next(L._gen)
    runs = []
    for kernels in ({}, O.FORMER_KERNELS):
        L._gen = itertools.count(start)
        with pytest.MonkeyPatch.context() as mp:
            for name, kernel in kernels.items():
                mp.setattr(L, name, kernel)
            got = []
            for strategy in L.STRATEGIES:
                got.append(reduce(make(), strategy, fuel))
                got.append(list(L.trace(make(), strategy, fuel)))
        runs.append((got, next(L._gen)))
    assert runs[0] == runs[1]
    L._gen = itertools.count(runs[0][1] + 1)
    for result in runs[0][0][::2]:
        _check_stored_sets(result[0])
    for steps in runs[0][0][1::2]:
        for _, _, reduct in steps:
            _check_stored_sets(reduct)


# Redexes whose rewrite meets a binder named as a free name of the argument.
CAPTURES = [
    r"(\x. mu a. [a] x) a",  # a λ-argument named as a μ-binder: no capture
    r"(\x. \a. x a) a",  # a λ-binder captured
    r"(\x. mu a. [a] x ([a] y)) ([a] z)",  # a μ-binder captured, its renaming carried past x
    r"(\x. \y. mu a. [a] x y) (y ([a] z))",  # a λ- and a μ-binder captured, both carried
    r"(mu a. [a] \b. [a] b) b",  # a μ-step's variable argument captured by a λ-binder
    r"(mu a. [a] mu b. [a] [b] y) (mu c. [b] c)",  # a μ-step's argument captured by a μ-binder
    r"(mu a. [a] [a] y) ([a] z)",  # a μ-redex whose binder is free in its argument
    r"mu a. [a] mu b. [b] (\x. x) [a] y",  # θ tried on a body with its μ-name free
]


@pytest.mark.parametrize("text", CAPTURES)
def test_captures_equal_those_of_the_former_free_name_readers(text):
    _with_former_free_name_readers(lambda: T(text), 30)
    _with_former_free_name_readers(lambda: _filled(T(text)), 30)


REDUCE_FAMILIES = {
    "exp": lambda k: f"{_church(k)} {_church(2)} (\\y. y) z0",
    "aleph": lambda k: r"(\f. mu a. f (\x. [a] x)) w " + " ".join(f"t{i}" for i in range(1, k + 1)),
    "deep": lambda k: f"{_church(k)} (\\y. y) z0",
}


def _filled(t: L.Term) -> L.Term:
    """``t`` with both of its sets stored on every node."""
    free_vars(t)
    free_mvars(t)
    return t


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(terms(), terms(4, SHARED, SHARED)),
    st.one_of(terms(depth=2), terms(2, SHARED, SHARED)),
    st.sampled_from(SHARED),
    st.sampled_from(SHARED),
    st.integers(0, 2),
)
def test_reductions_equal_those_of_the_former_free_name_readers(t, u, x, a, depth):
    """Random terms, also with λ- and μ-names shared, as the subject or the
    argument of a β- or μ-redex, or under nested θ-candidates; with no set
    stored, and with both stored on every node."""
    for subject in (t, App(Lam(x, t), u), App(Mu(a, t), u), _nested_theta(App(t, u), depth)):
        _with_former_free_name_readers(lambda: _copy(subject), 30)
        _with_former_free_name_readers(lambda: _filled(_copy(subject)), 30)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(REDUCE_FAMILIES)), st.integers(1, 24))
def test_reduce_families_equal_those_of_the_former_free_name_readers(family, k):
    if family == "exp":
        k = 2 + k % 3
    text = REDUCE_FAMILIES[family](k)
    _with_former_free_name_readers(lambda: T(text), 10_000)
