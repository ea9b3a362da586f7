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
