"""Reference sequent-proof operations for the tests: plain recursive definitions.

``preweight`` builds the symbolic pre-weight of Girard, Scedrov and Scott:
every axiom, unary rule and box-context position gets a fresh weight
variable, a cut sets the variables of its two cut formulas to 1, and
``weight`` sets every variable left in a conclusion set to 0.  It recurses
on the proof and copies the polynomial at every node, so it is simple and
slow, and deep proofs exhaust the recursion limit.  ``bllp.proofs.weight``
fixes each variable's value (its fate) top-down in one walk; the tests check
that both give the same polynomial.  ``cut_paths`` is the recursive
pre-order listing of the cuts outside every box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from bllp.proofs import Path, Proof, ProofError, created, layout, positives
from bllp.respoly import ZERO, Poly, pvar, specialize

# The oracle's own name supply; the library's fresh names are untouched.
_names = itertools.count(1)


def weight_var() -> str:
    return f"@w{next(_names)}"


@dataclass(frozen=True)
class PreWeight:
    poly: Poly
    sets: tuple[frozenset[str], ...]


def _ones(poly: Poly, vars: frozenset[str]) -> Poly:
    return specialize(poly, dict.fromkeys(vars, 1))


def preweight(p: Proof) -> PreWeight:
    pws = [preweight(q) for q in p.premises]
    d = p.data
    match p.rule:
        case "ax":
            y = weight_var()
            pos = positives(p.concl)[0]
            sets = [frozenset(), frozenset()]
            sets[1 - pos] = frozenset({y})
            return PreWeight(pvar(y), tuple(sets))
        case "one":
            return PreWeight(ZERO, (frozenset(),))
        case "cut":
            li, ri = d["left_idx"], d["right_idx"]
            lpw, rpw = pws
            poly = _ones(lpw.poly, lpw.sets[li]) + _ones(rpw.poly, rpw.sets[ri])
            sets = [None] * len(p.concl)
            lay = layout(p)
            for which, pw in enumerate(pws):
                for i, s in enumerate(pw.sets):
                    tgt = lay[which][i]
                    if tgt is not None:
                        sets[tgt] = s
            return PreWeight(poly, tuple(sets))
        case "par" | "qc" | "qd" | "bot" | "qw":
            (pw,) = pws
            y = weight_var()
            lay = layout(p)[0]
            out = created(p)[0]
            sets = [frozenset() for _ in p.concl]
            for i, s in enumerate(pw.sets):
                sets[lay[i]] = sets[lay[i]] | s
            sets[out] = sets[out] | {y}
            return PreWeight(pw.poly + pvar(y), tuple(sets))
        case "tensor":
            lpw, rpw = pws
            sets = [frozenset() for _ in p.concl]
            lay = layout(p)
            for which, pw in enumerate(pws):
                for i, s in enumerate(pw.sets):
                    tgt = lay[which][i]
                    sets[tgt] = sets[tgt] | s
            return PreWeight(lpw.poly + rpw.poly, tuple(sets))
        case "bang":
            (pw,) = pws
            i = d["idx"]
            q = p.concl[i].label
            poly = q * pw.poly
            sets = []
            for k in range(len(p.concl)):
                if k == i:
                    sets.append(pw.sets[k])
                else:
                    y = weight_var()
                    poly = poly + pvar(y)
                    sets.append(pw.sets[k] | {y})
            return PreWeight(poly, tuple(sets))
    raise ProofError(f"unknown rule {p.rule!r}")


def weight(p: Proof) -> Poly:
    """The pre-weight polynomial with every conclusion-set variable zeroed."""
    pw = preweight(p)
    return specialize(pw.poly, {v: 0 for s in pw.sets for v in s})


def cut_paths(p: Proof, path: Path = (), inside_box: bool = False) -> list[Path]:
    out = []
    if p.rule == "cut" and not inside_box:
        out.append(path)
    for i, q in enumerate(p.premises):
        out.extend(cut_paths(q, path + (i,), inside_box or p.rule == "bang"))
    return out
