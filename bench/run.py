"""Benchmark of the bllp pipeline: one command, three closed-loop workloads.

    python3 bench/run.py --workload polystep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Every phase runs in a fresh interpreter (``worker.py``), so the library's
global caches and name counters start empty, as on every CLI call.

``--trace 0`` reports the end-to-end metrics: set-up is measured
``SETUP_SAMPLES`` times (interpreter start, ``import bllp`` and building the
inputs) and its median reported; then one worker runs ops for ``--seconds``
(``reduce`` does a fixed number of ops instead, see ``workloads.fixed_ops``).
Times are scaled to the reference host speed (see ``worker.REF_KERNEL_S``);
the figures as measured go to standard error.
``--trace 1`` reports the per-layer metrics: one untraced and one traced
worker run for half of ``--seconds`` each; their throughput ratio is
``trace_overhead``.  ``--workload all`` runs both modes on every workload
and prints a table of every metric with its unit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when any op
produced an output that differs from its reference; ops that raise (today:
``RecursionError`` on deep terms) count in ``failed`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

from worker import REF_KERNEL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("polystep", "preservation", "reduce")
SETUP_SAMPLES = 7
MIN_OPS = 100  # p90 leaves 10 ops beyond it
BUDGET_S = 170.0  # every process of one run ends within this

END_TO_END = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(".self_share") or name == "trace_overhead":
        return "ratio"
    if "growth_exp" in name:
        return "exponent"
    if name == "corpus.build.s":
        return "s"
    if name.endswith((".s", ".self_s")):
        return "s/op"
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("step_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "count/op"


def _phase(workload: str, seed: int, seconds: float, deadline: float, env: dict,
           *extra: str) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds until it was ready, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - monotonic(), 1.0))[0]:
            raise BenchError("worker set-up timed out")
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        if first.strip() != "ready":
            raise BenchError(f"worker did not start: {first.strip()!r}")
        try:
            rest, _ = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("worker timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    if not os.path.isfile(os.path.join(SRC, "bllp", "__init__.py")):
        raise BenchError(f"no library sources under {SRC}")
    deadline = monotonic() + BUDGET_S
    env = {**os.environ, "PYTHONPATH": SRC, "BENCH_SRC": SRC,
           "PYTHONHASHSEED": str(seed % 2**32)}
    size = ("--smoke",) if smoke else ()
    if not trace:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            ready, probe = _phase(workload, seed, 0, deadline, env, "--probe", *size)
            setups.append((ready, probe["kernel_s"]))
        ready, res = _phase(workload, seed, seconds, deadline, env,
                            "--min-ops", str(0 if smoke else MIN_OPS), *size)
        setups.append((ready, res["kernel_s"]))
        metrics = {
            **res["at_ref"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
            "setup_s": statistics.median(t * REF_KERNEL_S / k for t, k in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print("as measured: " + ", ".join(
            f"{k}={res[k]:.6g}" for k in ("op_s.p50", "op_s.p90", "ops_per_s"))
            + f", setup_s={statistics.median(t for t, _ in setups):.6g}"
            + f", host kernel {res['kernel_s'] * 1e3:.4g} ms", file=sys.stderr)
        units = END_TO_END
        phases = [res]
    else:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}-{seed}.jsonl")
        _, plain = _phase(workload, seed, seconds / 2, deadline, env, *size)
        _, traced = _phase(workload, seed, seconds / 2, deadline, env, "--trace", path, *size)
        metrics = dict(traced["layers"])
        metrics["host.kernel_ms"] = traced["kernel_s"] * 1e3
        metrics["trace_overhead"] = (plain["at_ref"]["ops_per_s"]
                                     / traced["at_ref"]["ops_per_s"])
        units = {k: layer_unit(k) for k in metrics}
        phases = [plain, traced]
    failures: dict[str, int] = {}
    for res in phases:
        for reason, count in res["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    return {
        "correct": not any(r["mismatched"] for r in phases),
        "attempted": sum(r["attempted"] for r in phases),
        "failed": sum(r["failed"] for r in phases),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": failures,
    }


def _print_table(results: dict[str, dict]) -> None:
    names = list(dict.fromkeys(k for r in results.values() for k in r["metrics"]))
    print(f"{'metric':32s} {'unit':9s} " + " ".join(f"{w:>13s}" for w in results))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results.values() if name in r["metrics"])
        cells = []
        for r in results.values():
            m = r["metrics"].get(name)
            cells.append(f"{m['value']:13.6g}" if m else f"{'-':>13s}")
        print(f"{name:32s} {unit:9s} " + " ".join(cells))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal input sizes and no op minimum (the harness self-test)")
    args = ap.parse_args(argv)
    try:
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.smoke)
            for reason, count in res.pop("failures").items():
                print(f"failed x{count}: {reason}", file=sys.stderr)
            print(json.dumps(res))
            return 0
        results = {}
        for w in WORKLOADS:
            plain = run_workload(w, args.seed, args.seconds, False, args.smoke)
            traced = run_workload(w, args.seed, args.seconds, True, args.smoke)
            metrics = {**plain["metrics"], **traced["metrics"]}
            metrics["failed_frac"] = {"value": plain["failed"] / plain["attempted"],
                                      "unit": "ratio"}
            results[w] = {**plain, "metrics": metrics}
        _print_table(results)
        print(json.dumps({w: {k: r[k] for k in ("correct", "attempted", "failed")}
                          for w, r in results.items()}))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
