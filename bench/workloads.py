"""The benchmark's workloads: seeded input schedules, ops and reference answers.

An *op* takes one input to its checked verdict.  Every op compares the
library's output with a reference answer that the library does not compute:
a closed formula in the input size, or the corpus entry's declared
``expected`` result.  A mismatch raises :class:`Mismatch`.

Church sizes (polystep, preservation) are drawn by a randomly shifted
golden-ratio sequence: the seed fixes the shift, the slot pattern and the
corpus order.  Every prefix of such a sequence is spread evenly over the
size range, so runs that finish different numbers of ops, or use different
seeds, see the same size mix.  A reduce run does whole blocks of ops; each
block draws its sizes stratified (one per equal stratum of the range, the
seed fixing the point in each stratum and the order), so every block has
the same size mix.

All library calls go through module attributes (``T.check_mult``, not a
name imported from ``bllp.typecheck``), so the traced phase sees them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from bllp import corpus as C
from bllp import lammu as L
from bllp import machine as M
from bllp import proofs as P
from bllp import respoly as R
from bllp import syntax as S
from bllp import typecheck as T

WORKLOADS = ("polystep", "preservation", "reduce")

# Size ranges per workload and family: (low, high, log-uniform?).
FAMILIES = {
    "polystep": {"church": (1, 48, True)},
    "preservation": {"church": (1, 12, True)},
    "reduce": {"exp": (2, 9, False), "aleph": (1, 400, False), "deep": (10, 2000, True)},
}
# Minimal sizes for the harness's self-test.
SMOKE = {"church": (1, 4, False), "exp": (2, 3, False), "aleph": (1, 3, False),
         "deep": (1, 3, False)}
# One op in CORPUS_EVERY runs a corpus derivation (polystep, preservation).
# Of every DEEP_EVERY ops of reduce, one runs the deep Church family, five
# the aleph spine and four the Church exponential.  The deep sizes are
# DEEP_OPS points spaced evenly in log d (the seed fixes only their order),
# cycled once per block of DEEP_OPS * DEEP_EVERY ops.  Today the largest of
# them raise ``RecursionError``.  So that the failure count and the failed
# share do not depend on the host's speed or the seed, a reduce run does a
# fixed number of whole blocks (see :func:`fixed_ops`) instead of running
# for a fixed time: one block per REDUCE_BLOCK_S seconds asked for, at least
# one.  A block takes about that long on the reference host.
CORPUS_EVERY = 5
DEEP_EVERY = 10
DEEP_OPS = 10
REDUCE_BLOCK_S = 35.0
# Ops generated per schedule; a run that finishes them all starts over.
SCHEDULE_LEN = 4096
# The library's own defaults (``bllp reduce`` and ``bllp machine-run``).
REDUCE_FUEL = 10_000
MACHINE_FUEL = 100_000
STRATEGIES = ("weak", "head", "machine")

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Mismatch(Exception):
    """The library's output differs from the reference answer."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass(frozen=True)
class Op:
    family: str
    size: int
    run: Callable[[dict | None], None]


class _Sizes:
    """Integer sizes in [lo, hi] along a randomly shifted golden-ratio sequence."""

    def __init__(self, rng: random.Random, lo: int, hi: int, log: bool):
        self.u = rng.random()
        self.lo, self.hi, self.log = lo, hi, log

    def next(self) -> int:
        self.u = (self.u + _PHI) % 1.0
        if self.log:
            a, b = math.log(self.lo), math.log(self.hi + 1)
            n = int(math.exp(a + self.u * (b - a)))
        else:
            n = self.lo + int(self.u * (self.hi - self.lo + 1))
        return min(max(n, self.lo), self.hi)


def _stratified(rng: random.Random, lo: int, hi: int, log: bool, count: int) -> list[int]:
    """``count`` sizes in [lo, hi], one in each of ``count`` equal strata, shuffled."""
    a, b = (math.log(lo), math.log(hi + 1)) if log else (lo, hi + 1)
    out = []
    for j in range(count):
        x = a + (j + rng.random()) * (b - a) / count
        out.append(min(max(int(math.exp(x) if log else x), lo), hi))
    rng.shuffle(out)
    return out


# -- reference answers, computed without the library ---------------------------


def _shape(t: L.Term) -> list:
    """Pre-order tokens of ``t``; a bound name becomes its binder's position."""
    out: list = []
    stack = [(t, {}, {})]
    while stack:
        node, lam, mu = stack.pop()
        if isinstance(node, L.Var):
            out.append(("v", lam.get(node.name, node.name)))
        elif isinstance(node, L.Lam):
            stack.append((node.body, {**lam, node.var: len(out)}, mu))
            out.append(("l",))
        elif isinstance(node, L.Mu):
            stack.append((node.body, lam, {**mu, node.mvar: len(out)}))
            out.append(("m",))
        elif isinstance(node, L.Named):
            out.append(("n", mu.get(node.mvar, node.mvar)))
            stack.append((node.body, lam, mu))
        elif isinstance(node, L.App):
            out.append(("a",))
            stack.append((node.arg, lam, mu))
            stack.append((node.fn, lam, mu))
        else:
            raise TypeError(node)
    return out


def same_term(t: L.Term, u: L.Term) -> bool:
    """α-equivalence of λμ-terms."""
    return _shape(t) == _shape(u)


def _coeffs(p: R.Poly) -> dict:
    return {m.factors: c for m, c in p.terms}


def at_zero(p: R.Poly) -> int:
    """Value with every variable 0: only the constant monomial survives."""
    return _coeffs(p).get((), 0)


def strictly_below(p: R.Poly, q: R.Poly) -> bool:
    """``p ⊑ q`` coefficientwise in the binomial basis, and ``p != q``."""
    cp, cq = _coeffs(p), _coeffs(q)
    return cp != cq and all(c <= cq.get(m, 0) for m, c in cp.items())


def _iter_f(n: int) -> L.Term:
    body: L.Term = L.Var("z0")
    for _ in range(n):
        body = L.App(L.Var("f"), body)
    return body


def _church_text(n: int) -> str:
    return "(\\s. \\z. " + "s (" * n + "z" + ")" * n + ")"


def _aleph_nf(k: int) -> L.Term:
    spine: L.Term = L.Var("x")
    for i in range(1, k + 1):
        spine = L.App(spine, L.Var(f"t{i}"))
    return L.Mu("a", L.App(L.Var("w"), L.Lam("x", L.Named("a", spine))))


def size(tree) -> int:
    """Number of nodes of a derivation or proof."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


def _bump(stats: dict | None, key: str, amount: float) -> None:
    if stats is not None:
        stats[key] = stats.get(key, 0) + amount


# -- polystep: check, elaborate, map, weigh, reduce ------------------------------


def _polystep(d, nf, steps_expected: int, bound_expected: int | None):
    def run(stats):
        require(T.check_additive(d).ok, "check_additive rejects the derivation")
        m = T.add_to_mult(d)
        require(T.check_mult(m).ok, "check_mult rejects the elaboration")
        pf = P.map_derivation(m)
        require(P.check_proof(pf).ok, "check_proof rejects the mapped proof")
        w = P.weight(pf)
        bound = R.eval_poly(w, {v: 0 for v in w.free_vars()})
        got, steps, exhausted = L.reduce(d.concl.subject, "head", bound + 1)
        require(not exhausted and steps <= bound, f"head steps {steps} exceed weight {bound}")
        if bound_expected is not None:
            require(bound == bound_expected, f"weight {bound}, expected {bound_expected}")
        require(steps == steps_expected, f"head steps {steps}, expected {steps_expected}")
        require(same_term(got, nf), "head normal form differs")
        if stats is not None:
            _bump(stats, "typecheck.nodes", size(m))
            _bump(stats, "proofs.nodes", size(pf))
            _bump(stats, "lammu.steps", steps)

    return run


# -- preservation: subject reduction, JSON round trip, special cuts ---------------


def _preservation(d, nf, steps_expected: int, weights_expected: list[int] | None):
    def run(stats):
        m = T.add_to_mult(d)
        pf = P.map_derivation(m)
        weights = [P.weight(pf)]
        if stats is not None:
            _bump(stats, "typecheck.nodes", size(m))
            _bump(stats, "proofs.nodes", size(pf))
        for _ in range(steps_expected):
            m = T.subject_reduce(m)
            require(T.check_mult(m).ok, "check_mult rejects a subject reduct")
            weights.append(P.weight(P.map_derivation(m)))
        require(same_term(m.concl.subject, nf), "subject reduction reached another term")
        require(all(strictly_below(b, a) for a, b in zip(weights, weights[1:])),
                "weight does not drop strictly under subject reduction")
        if weights_expected is not None:
            got = [at_zero(w) for w in weights]
            require(got == weights_expected, f"weights {got}, expected {weights_expected}")

        pf2 = S.proof_from_obj(json.loads(json.dumps(S.proof_to_obj(pf))))
        require(pf2 == pf, "JSON round trip changed the proof")

        budget, prev, cuts = at_zero(weights[0]), weights[0], 0
        while (hit := P.step_special(pf2)) is not None:
            pf2 = hit.result
            cuts += 1
            require(cuts <= budget, f"more than {budget} special cuts")
            require(P.check_proof(pf2).ok, f"check_proof rejects the proof after cut {cuts}")
            cur = P.weight(pf2)
            require(strictly_below(cur, prev), f"weight does not drop at cut {cuts}")
            prev = cur
        _bump(stats, "proofs.cuts", cuts)

    return run


# -- reduce: parse, three strategies, the machine, print -------------------------


def _reduce(text: str, nf, steps_expected: int, transitions_expected: int, printed: str):
    def run(stats):
        t = S.parse_term(text)
        head_nf = None
        for strategy in STRATEGIES:
            got, steps, exhausted = L.reduce(t, strategy, REDUCE_FUEL)
            require(not exhausted and steps == steps_expected,
                    f"{strategy}: {steps} steps, expected {steps_expected}")
            require(same_term(got, nf), f"{strategy}: normal form differs")
            _bump(stats, "lammu.steps", steps)
            if strategy == "head":
                head_nf = got
        final, transitions, exhausted = M.run(M.load(t), MACHINE_FUEL)
        require(not exhausted and transitions == transitions_expected,
                f"machine: {transitions} transitions, expected {transitions_expected}")
        require(same_term(M.readback(final), nf), "machine readback differs")
        require(S.print_term(head_nf) == printed, "printed normal form differs")
        _bump(stats, "machine.transitions", transitions)

    return run


def _reduce_op(family: str, k: int) -> Op:
    if family == "exp":
        text = f"{_church_text(k)} {_church_text(2)} (\\y. y) z0"
        steps, transitions, nf, printed = 3 * 2**k, 12 * 2**k - 4, L.Var("z0"), "z0"
    elif family == "aleph":
        args = " ".join(f"t{i}" for i in range(1, k + 1))
        text = f"(\\f. mu a. f (\\x. [a] x)) w {args}"
        steps, transitions, nf = k + 1, k + 5, _aleph_nf(k)
        printed = f"mu a. w (\\x. [a] x {args})"
    else:
        text = f"{_church_text(k)} (\\y. y) z0"
        steps, transitions, nf, printed = k + 2, 4 * k + 5, L.Var("z0"), "z0"
    return Op(family, k, _reduce(text, nf, steps, transitions, printed))


# -- schedules --------------------------------------------------------------------


def _corpus_ops(kind: str) -> list[Op]:
    make = _polystep if kind == "polystep" else _preservation
    return [Op("corpus", 0, make(e.derivation, *e.expected["head"], None))
            for e in C.entries() if e.derivation is not None]


def _church_op(kind: str, n: int) -> Op:
    d = C.church_applied_derivation(n)
    if kind == "polystep":
        return Op("church", n, _polystep(d, _iter_f(n), 2, 8 * n + 3))
    return Op("church", n, _preservation(d, _iter_f(n), 2, [8 * n + 3, 4 * n + 3, 2 * n]))


def fixed_ops(workload: str, seconds: float) -> int | None:
    """Ops a run of ``workload`` does, or None if it runs for ``seconds``."""
    if workload != "reduce":
        return None
    return DEEP_OPS * DEEP_EVERY * max(1, round(seconds / REDUCE_BLOCK_S))


def prepare(workload: str, seed: int, families: dict | None = None,
            length: int = SCHEDULE_LEN) -> list[Op]:
    """Build the op schedule of ``workload`` from ``seed``.

    ``families`` overrides the size ranges of :data:`FAMILIES` (the
    self-test passes :data:`SMOKE`).  Inputs are built once per distinct
    size.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    fams = {name: (families or FAMILIES[workload]).get(name, spec)
            for name, spec in FAMILIES[workload].items()}
    rng = random.Random(seed)
    draws = {"church": _Sizes(rng, *fams["church"])} if "church" in fams else {}
    built: dict[tuple[str, int], Op] = {}

    def op_for(family: str, k: int) -> Op:
        if (family, k) not in built:
            if family == "church":
                built[family, k] = _church_op(workload, k)
            else:
                built[family, k] = _reduce_op(family, k)
        return built[family, k]

    schedule: list[Op] = []
    if workload == "reduce":
        lo, hi, _ = fams["deep"]
        deep = sorted({round(lo * (hi / lo) ** (j / (DEEP_OPS - 1))) for j in range(DEEP_OPS)})
        rng.shuffle(deep)
        phase = rng.randrange(DEEP_EVERY)
        block = DEEP_OPS * DEEP_EVERY
        for start in range(0, length, block):
            slots = [(i, (i + phase) % DEEP_EVERY) for i in range(start, min(start + block, length))]
            kinds = ["deep" if slot == 0 else "aleph" if slot % 2 else "exp" for _, slot in slots]
            sizes = {f: _stratified(rng, *fams[f], kinds.count(f)) for f in ("exp", "aleph")}
            for (i, _), family in zip(slots, kinds):
                k = deep[(i // DEEP_EVERY) % len(deep)] if family == "deep" else sizes[family].pop()
                schedule.append(op_for(family, k))
        return schedule
    corpus = _corpus_ops(workload)
    rng.shuffle(corpus)
    phase = rng.randrange(CORPUS_EVERY)
    for i in range(length):
        if (i + phase) % CORPUS_EVERY == 0:
            schedule.append(corpus[(i // CORPUS_EVERY) % len(corpus)])
        else:
            schedule.append(op_for("church", draws["church"].next()))
    return schedule
