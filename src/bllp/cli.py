"""Command-line front end.

Exit codes: 0 success, 1 check failure, 2 bound violation, 3 unreadable
input (a parse error, a ``--file`` that cannot be opened or is not JSON, or
an unknown ``--entry``) or an ``--out`` that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus, lammu, machine
from . import proofs as P
from . import typecheck as T
from .respoly import eval_poly, poly_leq
from .syntax import (
    ParseError,
    derivation_from_obj,
    parse_poly,
    parse_term,
    print_poly,
    print_term,
    proof_from_obj,
    proof_to_obj,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_BOUND = 2
EXIT_PARSE = 3


class _CheckFailed(Exception):
    """The input failed its check; what went wrong is printed already."""


def _read_file(path: str):
    """The JSON value in a ``--file``; text that is not JSON is a parse error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.pos, exc.msg) from None


def _load_derivation(args) -> tuple:
    if args.entry:
        if args.entry.derivation is None:
            print(f"corpus entry {args.entry.name} has no derivation", file=sys.stderr)
            raise _CheckFailed
        return args.entry.derivation, "additive"
    return derivation_from_obj(_read_file(args.file))


def _check(d, system) -> T.Report:
    return T.check_mult(d) if system == "multiplicative" else T.check_additive(d)


def _mult_derivation(args):
    """The multiplicative derivation of ``args``; a file is checked first,
    as elaboration and mapping trust their input."""
    d, system = _load_derivation(args)
    if args.file and not (rep := _check(d, system)).ok:
        print(rep)
        raise _CheckFailed
    return d if system == "multiplicative" else T.add_to_mult(d)


def _term_arg(args) -> lammu.Term:
    if args.entry:
        return args.entry.term
    return parse_term(args.term)


def cmd_check(args) -> int:
    rep = _check(*_load_derivation(args))
    print(rep)
    return EXIT_OK if rep.ok else EXIT_CHECK


def cmd_weight(args) -> int:
    pf = P.map_derivation(_mult_derivation(args))
    print(print_poly(P.weight(pf)))
    return EXIT_OK


def _note_exhausted(steps: int, exhausted: bool) -> None:
    """Say on stderr when a step iterator stopped on fuel, not on a normal form."""
    if exhausted:
        print(f"fuel exhausted after {steps} steps", file=sys.stderr)


def cmd_reduce(args) -> int:
    t = _term_arg(args)
    if args.trace:
        n = 0
        for n, (kind, pos, t) in enumerate(lammu.trace(t, args.strategy, args.fuel), 1):
            where = "/".join(pos) or "root"
            print(f"{n:4d} {kind:5s} at {where}: {print_term(t)}")
        exhausted = n == args.fuel and lammu.step(t, args.strategy) is not None
    else:
        # ``reduce`` rebuilds the term once, where ``trace`` does at every step.
        t, n, exhausted = lammu.reduce(t, args.strategy, args.fuel)
    _note_exhausted(n, exhausted)
    print(f"{print_term(t)}")
    print(f"steps: {n}")
    return EXIT_OK


def cmd_machine_run(args) -> int:
    cfg = machine.load(_term_arg(args))
    n = 0
    for n, (rule, cfg) in enumerate(machine.machine_trace(cfg, args.fuel), 1):
        if args.trace:
            print(f"{n:4d} {rule:8s} {print_term(cfg.closure.term)} | stack {len(cfg.stack)}")
    _note_exhausted(n, n == args.fuel and machine.step(cfg) is not None)
    print(print_term(machine.readback(cfg)))
    print(f"transitions: {n}")
    return EXIT_OK


def cmd_to_proof(args) -> int:
    pf = P.map_derivation(_mult_derivation(args))
    json.dump(proof_to_obj(pf), sys.stdout, indent=2)
    print()
    return EXIT_OK


def cmd_cut_eliminate(args) -> int:
    if args.entry:
        pf = P.map_derivation(_mult_derivation(args))
    else:
        # The rewriter trusts its input: a file proof is checked first.
        pf = proof_from_obj(_read_file(args.file))
        rep = P.check_proof(pf)
        if not rep.ok:
            print(rep)
            return EXIT_CHECK
    steps = 0
    for steps, hit in enumerate(P.special_steps(pf, args.fuel), 1):
        pf = hit.result
        if args.trace:
            print(f"{steps:4d} {hit.kind:14s} at {hit.path} weight={print_poly(P.weight(pf))}")
    _note_exhausted(steps, steps == args.fuel and P.step_special(pf) is not None)
    print(f"steps: {steps}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(proof_to_obj(pf), fh, indent=2)
    return EXIT_OK


def cmd_verify_polystep(args) -> int:
    worst = EXIT_OK
    chosen = [args.entry] if args.entry else corpus.entries()
    for entry in sorted(chosen, key=lambda e: e.name):
        if entry.derivation is None:
            continue
        name = entry.name
        rep = T.check_additive(entry.derivation)
        if not rep.ok:
            print(f"{name}: derivation FAILS\n{rep}")
            worst = max(worst, EXIT_CHECK)
            continue
        pf = P.map_derivation(T.add_to_mult(entry.derivation))
        w = P.weight(pf)
        bound = eval_poly(w, {v: 0 for v in w.free_vars()})
        _, n, exhausted = lammu.reduce(entry.term, "head", bound + 1)
        if exhausted or n > bound:
            print(f"{name}: BOUND VIOLATED head steps {n} > weight {bound}")
            worst = max(worst, EXIT_BOUND)
        else:
            print(f"{name}: ok  head steps {n} <= weight {bound} ({print_poly(w)})")
    return worst


def cmd_poly_canon(args) -> int:
    print(print_poly(parse_poly(args.poly)))
    return EXIT_OK


def cmd_poly_leq(args) -> int:
    p, q = parse_poly(args.p), parse_poly(args.q)
    ok = poly_leq(p, q)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_CHECK


def _derivation_source(sub) -> None:
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--entry", help="bundled corpus entry name")
    g.add_argument("--file", help="derivation file (JSON)")


def _term_source(sub) -> None:
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--entry", help="bundled corpus entry name")
    g.add_argument("term", nargs="?", help="λμ-term")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bllp", description="bounded polarized linear logic toolkit"
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("check", help="check a typing derivation")
    _derivation_source(s)
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("weight", help="weight of the mapped sequent proof")
    _derivation_source(s)
    s.set_defaults(fn=cmd_weight)

    s = sub.add_parser("reduce", help="reduce a term")
    _term_source(s)
    s.add_argument("--strategy", choices=lammu.STRATEGIES, default="head")
    s.add_argument("--fuel", type=int, default=10_000)
    s.add_argument("--trace", action="store_true")
    s.set_defaults(fn=cmd_reduce)

    s = sub.add_parser("machine-run", help="run the abstract machine")
    _term_source(s)
    s.add_argument("--fuel", type=int, default=100_000)
    s.add_argument("--trace", action="store_true")
    s.set_defaults(fn=cmd_machine_run)

    s = sub.add_parser("to-proof", help="map a derivation to a sequent proof")
    _derivation_source(s)
    s.set_defaults(fn=cmd_to_proof)

    s = sub.add_parser("cut-eliminate", help="normalize a proof under special cuts")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--entry")
    g.add_argument("--file", help="proof file (JSON)")
    s.add_argument("--fuel", type=int, default=10_000)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--out", help="write the normal form here")
    s.set_defaults(fn=cmd_cut_eliminate)

    s = sub.add_parser("verify-polystep", help="head steps vs derivation weight")
    s.add_argument("--entry", help="single corpus entry (default: all)")
    s.set_defaults(fn=cmd_verify_polystep)

    s = sub.add_parser("poly-canon", help="canonical form of a polynomial")
    s.add_argument("poly")
    s.set_defaults(fn=cmd_poly_canon)

    s = sub.add_parser("poly-leq", help="compare two polynomials")
    s.add_argument("p")
    s.add_argument("q")
    s.set_defaults(fn=cmd_poly_leq)

    args = ap.parse_args(argv)
    name = getattr(args, "entry", None)
    if name is not None:
        try:
            args.entry = corpus.by_name(name)
        except KeyError:
            print(f"unknown corpus entry {name!r}", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except (T.DerivationError, P.ProofError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except _CheckFailed:
        return EXIT_CHECK


if __name__ == "__main__":
    raise SystemExit(main())
