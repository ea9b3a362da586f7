"""One benchmark phase in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports the library, builds the workload's inputs, prints
``ready`` (the parent times set-up up to that line), and then, unless
``--probe`` is given, runs ops in a closed loop -- one caller, the next op
only after the previous one finished -- for ``--seconds`` seconds.  The
last line of its output is one JSON object with the phase's figures.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

# A run short of --min-ops keeps going until this multiple of --seconds.
# A workload with ``fixed_ops`` runs exactly that many ops instead.
MAX_STRETCH = 3.0
# Between ops, the host kernel runs every CAL_PERIOD seconds; a set-up probe
# runs it PROBE_KERNELS times after set-up.
CAL_PERIOD = 0.1
PROBE_KERNELS = 15
# Seconds the host kernel takes on the reference host.  An op's time is
# also reported at that speed: scaled by REF_KERNEL_S / the mean kernel time
# within KERNEL_WINDOW seconds of the op, which cancels the drift of a
# shared host's speed within and between runs.
REF_KERNEL_S = 0.0022
KERNEL_WINDOW = 1.0
# Half the width, in quantile, of the window of ranks a percentile averages.
PCT_HALF_WIDTH = 0.05
# Smallest input size per family that enters a growth-exponent fit.
FIT_FROM = {"church": 8, "aleph": 20, "exp": 4, "deep": 20}


def host_kernel() -> float:
    """Seconds taken by a fixed loop of small-integer arithmetic.

    It runs none of the library's code and allocates nothing (small integers
    are preallocated), so its time moves with the speed of the host core --
    which on a shared machine drifts by tens of percent over minutes -- and
    not with the state of the process's heap.  Means of samples, not
    medians, track the speed the ops saw: the host's slow spells are skewed.
    """
    t = perf_counter()
    acc = 0
    for i in range(170):
        for j in range(170):
            acc = (acc ^ i ^ j) & 127
            if acc > 64:
                acc -= 3
    return perf_counter() - t


def local_means(times: list[float], samples: list[tuple[float, float]],
                window: float) -> list[float]:
    """Mean sample value within ``window`` of each time (all samples if none)."""
    at = [t for t, _ in samples]
    prefix = [0.0]
    for _, v in samples:
        prefix.append(prefix[-1] + v)
    out = []
    for t in times:
        lo, hi = bisect.bisect_left(at, t - window), bisect.bisect_right(at, t + window)
        if hi == lo:
            lo, hi = 0, len(samples)
        out.append((prefix[hi] - prefix[lo]) / (hi - lo))
    return out


def percentile(times: list[float], q: float, ceiling: float) -> float:
    """Mean of the times ranked within PCT_HALF_WIDTH of the ``q`` quantile.

    The ends are nearest ranks (with 100 ops, p90 is the mean of ranks 85 to
    95).  One op's time is one sample of the host's noise; the mean of the
    ops around the rank is steadier.  ``inf`` (a failed op, ranked slowest)
    reads as ``ceiling``.
    """
    ranked = sorted(times)
    n = len(ranked)
    lo = max(math.ceil((q - PCT_HALF_WIDTH) * n) - 1, 0)
    hi = max(min(math.ceil((q + PCT_HALF_WIDTH) * n), n), lo + 1)
    return statistics.fmean(ceiling if math.isinf(v) else v for v in ranked[lo:hi])


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares exponent b of y = a * x**b; 0 with fewer than two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def layer_metrics(tracer, records: list[dict], stats: dict, build_s: float) -> dict:
    """Per-layer figures of a traced phase, per op unless the name says otherwise."""
    from tracer import MODULES

    n = len(records)
    total: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
    module_excl: dict[str, float] = {}
    per_op: dict[tuple[int, str], float] = {}
    for (op, name), (calls, incl, self_s, excl) in tracer.agg.items():
        if op < 0:  # building the inputs, before the first op
            continue
        rec = total.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += incl
        rec[2] += self_s
        module = name.split(".", 1)[0]
        module_excl[module] = module_excl.get(module, 0.0) + excl
        per_op[op, name] = incl

    def calls(name):
        return total.get(name, [0])[0] / n

    def secs(*names):
        return sum(total.get(x, [0, 0.0])[1] for x in names) / n

    op_time = secs("bench.op") * n

    out = {}
    for module in MODULES:
        out[f"{module}.self_s"] = module_excl.get(module, 0.0) / n
        out[f"{module}.self_share"] = module_excl.get(module, 0.0) / op_time if op_time else 0.0
    for fn in ("compose", "add", "mul", "bin_of_poly", "fd_oracle", "poly_leq"):
        out[f"respoly.{fn}.calls"] = calls(f"respoly.{fn}")
    for fn in ("check_additive", "add_to_mult", "check_mult", "subject_reduce"):
        out[f"typecheck.{fn}.s"] = secs(f"typecheck.{fn}")
    for fn in ("map_derivation", "check_proof", "step_special"):
        out[f"proofs.{fn}.s"] = secs(f"proofs.{fn}")
    out["proofs.weight.self_s"] = total.get("proofs.weight", [0, 0.0, 0.0])[2] / n
    out["proofs.weight.calls"] = calls("proofs.weight")
    for key in ("typecheck.nodes", "proofs.nodes", "proofs.cuts", "lammu.steps",
                "machine.transitions"):
        out[key] = stats.get(key, 0) / n
    reduce_names = [f"lammu.reduce.{s}" for s in ("weak", "head", "machine")]
    for name in reduce_names:
        out[f"{name}.s"] = secs(name)
    steps = stats.get("lammu.steps", 0)
    out["lammu.step_us"] = 1e6 * secs(*reduce_names) * n / steps if steps else 0.0
    out["lammu.free_vars.calls"] = calls("lammu.free_vars")
    out["machine.run.s"] = secs("machine.run")
    out["machine.readback.s"] = secs("machine.readback")
    out["syntax.parse_term.s"] = secs("syntax.parse_term")
    out["syntax.print_term.s"] = secs("syntax.print_term")
    out["syntax.proof_json.s"] = secs("syntax.proof_to_obj", "syntax.proof_from_obj")
    out["corpus.build.s"] = build_s

    def fit(family, x_of, names):
        # Sizes below FIT_FROM are dominated by fixed per-call costs.
        pts = [(x_of(r["size"]), sum(per_op.get((r["op"], m), 0.0) for m in names))
               for r in records
               if r["family"] == family and r["ok"] and r["size"] >= FIT_FROM[family]]
        return growth_exponent(pts)

    out["proofs.weight.growth_exp"] = fit("church", float, ["proofs.weight"])
    out["lammu.growth_exp"] = fit("aleph", lambda k: k + 1.0, reduce_names)
    out["lammu.growth_exp.exp"] = fit("exp", lambda k: 3.0 * 2**k, reduce_names)
    out["lammu.growth_exp.deep"] = fit("deep", lambda d: d + 2.0, reduce_names)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", help="write spans here as JSON lines and report layer metrics")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal input sizes")
    args = ap.parse_args(argv)

    import bllp
    import workloads as W

    src = os.environ.get("BENCH_SRC", "")
    if not os.path.abspath(bllp.__file__).startswith(os.path.join(src, "")):
        print(f"bllp imported from {bllp.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    t0 = perf_counter()
    schedule = W.prepare(args.workload, args.seed, W.SMOKE if args.smoke else None)
    build_s = perf_counter() - t0
    print("ready", flush=True)
    host_kernel()  # warm-up, not a sample
    if args.probe:
        kernels = [host_kernel() for _ in range(PROBE_KERNELS)]
        print(json.dumps({"kernel_s": statistics.fmean(kernels)}))
        return 0

    stats: dict | None = {} if tracer else None
    records: list[dict] = []
    reasons: dict[str, int] = {}
    mismatched = 0
    kernels: list[tuple[float, float]] = []  # (when, seconds)
    fixed = W.fixed_ops(args.workload, args.seconds)
    start = next_kernel = perf_counter()
    while True:
        now = perf_counter()
        if now >= next_kernel:
            kernels.append((now, host_kernel()))
            next_kernel = now + CAL_PERIOD
        elapsed = now - start
        if fixed is not None:
            if len(records) >= fixed:
                break
        elif elapsed >= args.seconds * MAX_STRETCH or (
                elapsed >= args.seconds and len(records) >= args.min_ops):
            break
        i = len(records)
        op = schedule[i % len(schedule)]
        if tracer:
            tracer.begin_op(i)
        t = perf_counter()
        try:
            op.run(stats)
            ok = True
        except Exception as exc:  # a failed op is counted, not fatal
            ok = False
            mismatched += isinstance(exc, W.Mismatch)
            reason = f"{op.family}: {type(exc).__name__}: {str(exc)[:120]}"
            if reason not in reasons and not isinstance(exc, (W.Mismatch, RecursionError)):
                traceback.print_exc(file=sys.stderr)
            reasons[reason] = reasons.get(reason, 0) + 1
        dt = perf_counter() - t
        if tracer:
            tracer.end_op()
        records.append({"op": i, "family": op.family, "size": op.size, "ok": ok,
                        "t": t, "s": dt})
    wall = perf_counter() - start - sum(k for _, k in kernels)

    local = local_means([r["t"] + r["s"] / 2 for r in records], kernels, KERNEL_WINDOW)
    at_ref = [r["s"] * REF_KERNEL_S / k for r, k in zip(records, local)]
    times = [r["s"] if r["ok"] else math.inf for r in records]
    times_ref = [x if r["ok"] else math.inf for r, x in zip(records, at_ref)]
    good = sum(r["ok"] for r in records)
    result = {
        "attempted": len(records),
        "failed": len(records) - good,
        "mismatched": mismatched,
        "wall_s": wall,
        "ops_per_s": good / wall,
        "op_s.p50": percentile(times, 0.5, wall),
        "op_s.p90": percentile(times, 0.9, wall),
        "at_ref": {
            "ops_per_s": good / sum(at_ref),
            "op_s.p50": percentile(times_ref, 0.5, sum(at_ref)),
            "op_s.p90": percentile(times_ref, 0.9, sum(at_ref)),
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_s": statistics.fmean(k for _, k in kernels),
        "failures": reasons,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, records, stats, build_s)
        tracer.write(args.trace, records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
