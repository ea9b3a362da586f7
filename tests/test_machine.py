import pytest

from bllp import corpus as C
from bllp import lammu as L
from bllp.lammu import App, Lam, Mu, Named, Var
from bllp.machine import (
    EMPTY,
    Closure,
    Config,
    Env,
    StuckState,
    load,
    machine_trace,
    readback,
    run,
    step,
)
from bllp.syntax import parse_term

T = parse_term


def test_load_shapes():
    for src in ("x", r"\x. x"):
        t = T(src)
        cfg = load(t)
        assert cfg.closure.term == t
        assert cfg.closure.env == EMPTY
        assert cfg.stack == ()



# -- term and machine nodes are immutable records in slots ----------------------

def _config() -> Config:
    """A configuration whose closures hold every term class, built afresh."""
    env = EMPTY.bind_lam("v", Closure(Var("z"), EMPTY))
    term = App(Lam("x", Var("x")), Mu("a", Named("a", Var("v"))))
    return Config(Closure(term, env), (Closure(Var("u"), EMPTY),))


def test_no_field_of_a_term_or_machine_node_can_be_assigned_or_deleted():
    cfg = _config()
    t = cfg.closure.term
    nodes = [t, t.fn, t.fn.body, t.arg, t.arg.body, cfg.closure.env, cfg.closure, cfg]
    assert [type(n).__name__ for n in nodes] == ["App", "Lam", "Var", "Mu", "Named", "Env", "Closure", "Config"]
    for node in nodes:
        assert not hasattr(node, "__dict__")
        fields = type(node).__match_args__
        before = [getattr(node, f) for f in fields]
        for key in (*fields, "fv", "fmv", "_fv", "_fmv", "other"):
            with pytest.raises(AttributeError):
                setattr(node, key, before[0])
            with pytest.raises(AttributeError):
                delattr(node, key)
        assert all(getattr(node, f) is v for f, v in zip(fields, before))
    assert all(n._fv is None and n._fmv is None for n in nodes[:5])


def test_repr_of_a_config_is_the_dataclass_form():
    assert repr(_config()) == (
        "Config(closure=Closure(term=App(fn=Lam(var='x', body=Var(name='x')), "
        "arg=Mu(mvar='a', body=Named(mvar='a', body=Var(name='v')))), "
        "env=Env(lam={'v': Closure(term=Var(name='z'), env=Env(lam={}, mu={}))}, mu={})), "
        "stack=(Closure(term=Var(name='u'), env=Env(lam={}, mu={})),))"
    )
    assert repr(_config().closure.term) == (
        "App(fn=Lam(var='x', body=Var(name='x')), arg=Mu(mvar='a', body=Named(mvar='a', body=Var(name='v'))))"
    )


def test_config_equality_reads_the_fields_and_hashing_fails_on_the_environments():
    """As for the frozen dataclasses these were: ``==`` compares the fields
    of two nodes of one class, and ``hash`` hashes the fields, so it fails on
    the dictionaries every environment holds."""
    a, b = _config(), _config()
    assert a is not b and a == b and a.closure == b.closure and a.closure.env == b.closure.env
    assert Env() == EMPTY and Env(lam={}) == Env({}, {})
    assert a != Config(a.closure, ())
    assert a != Config(Closure(Var("w"), a.closure.env), a.stack)
    assert a != Config(Closure(a.closure.term, EMPTY), a.stack)
    assert a.__eq__(a.closure) is NotImplemented and a.closure.__eq__(a.closure.term) is NotImplemented
    assert a != a.closure and a != "Config"
    for node in (a, a.closure, EMPTY):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(node)


# golden traces for the three headline transitions


def test_application_pushes_argument():
    env = EMPTY.bind_lam("w", Closure(Var("z"), EMPTY))
    tail = (Closure(Var("q"), EMPTY),)
    cfg = Config(Closure(App(Var("t"), Var("u")), env), tail)
    out, rule = step(cfg)
    assert rule == "push"
    assert out == Config(Closure(Var("t"), env), (Closure(Var("u"), env),) + tail)


def test_mu_captures_the_stack():
    stack = (Closure(Var("u"), EMPTY),)
    cfg = Config(Closure(Mu("a", Var("t")), EMPTY), stack)
    out, rule = step(cfg)
    assert rule == "capture"
    assert out.stack == ()
    assert out.closure.term == Var("t")
    assert out.closure.env.mu["a"] == stack


def test_naming_restores_the_stack():
    stack = (Closure(Var("u"), EMPTY),)
    env = EMPTY.bind_mu("a", stack)
    cfg = Config(Closure(Named("a", Var("t")), env), ())
    out, rule = step(cfg)
    assert rule == "restore"
    assert out == Config(Closure(Var("t"), env), stack)


def test_lambda_binds_from_stack():
    cfg = Config(Closure(Lam("x", Var("x")), EMPTY), (Closure(Var("y"), EMPTY),))
    out, rule = step(cfg)
    assert rule == "bind"
    assert out.closure.env.lam["x"].term == Var("y")


def test_final_states():
    assert step(load(Lam("x", Var("x")))) is None
    assert step(load(Var("free"))) is None
    assert step(Config(Closure(Named("a", Var("t")), EMPTY), ())) is None


def test_stuck_on_applied_naming():
    cfg = Config(Closure(Named("a", Var("t")), EMPTY), (Closure(Var("u"), EMPTY),))
    with pytest.raises(StuckState):
        step(cfg)


def test_identity_run_counts():
    final, steps, exhausted = run(load(T(r"(\x. x) y")))
    assert steps == 3 and not exhausted  # push, bind, lookup
    assert readback(final) == Var("y")
    rules = [r for r, _ in machine_trace(load(T(r"(\x. x) y")))]
    assert rules == ["push", "bind", "lookup"]


def test_callcc_run_reads_back_argument_body():
    t = App(C.KAPPA, T(r"\k. y"))
    final, steps, exhausted = run(load(t))
    assert not exhausted
    assert readback(final) == Var("y")


def test_run_on_normal_form_is_immediate():
    final, steps, exhausted = run(load(T(r"\x. x")))
    assert steps == 0 and not exhausted


def test_readback_of_loaded_term_is_identity():
    for e in C.entries():
        assert L.alpha_eq(readback(load(e.term)), e.term)


def test_readback_top_name_avoids_names_free_in_captured_stacks():
    """``k0`` is free only in a closure of a captured stack, so the naming
    re-applying that stack is read back under ``k1``."""
    captured = (Closure(Named("k0", Var("z")), EMPTY),)
    cfg = Config(Closure(Named("a", Var("t")), EMPTY.bind_mu("a", captured)), ())
    assert readback(cfg) == Mu("k1", Named("k1", App(Var("t"), Named("k0", Var("z")))))


@pytest.mark.parametrize("name", [e.name for e in C.entries()])
def test_machine_agrees_with_machine_strategy(name):
    entry = C.by_name(name)
    nf, _, exhausted = L.reduce(entry.term, "machine", 1000)
    if exhausted:
        pytest.skip("machine strategy diverges")
    final, steps, run_exhausted = run(load(entry.term))
    assert not run_exhausted
    assert L.alpha_eq(readback(final), nf)


def test_step_counts_recorded_against_linear_envelope():
    # recorded, not asserted as a theorem: print the observed ratio
    rows = []
    for e in C.entries():
        nf, n, exhausted = L.reduce(e.term, "machine", 1000)
        if exhausted:
            continue
        _, k, _ = run(load(e.term))
        rows.append((e.name, n, k, _size(e.term)))
    for name, n, k, size in rows:
        print(f"{name}: machine-steps={n} transitions={k} size={size}")
    assert all(k <= 4 * (n + size) for _, n, k, size in rows)


def _size(t):
    match t:
        case Var(_):
            return 1
        case Lam(_, b) | Mu(_, b) | Named(_, b):
            return 1 + _size(b)
        case App(f, a):
            return 1 + _size(f) + _size(a)


@pytest.mark.parametrize("fuel", [0, 1, 3, 100_000])
def test_run_drains_machine_trace(fuel):
    for e in C.entries():
        transitions = list(machine_trace(load(e.term), fuel))
        final, n, exhausted = run(load(e.term), fuel)
        assert n == len(transitions) <= fuel
        assert final == (transitions[-1][1] if transitions else load(e.term))
        assert exhausted == (n == fuel and step(final) is not None)
