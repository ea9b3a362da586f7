"""Self-test of the benchmark harness at minimal sizes (n <= 4, k <= 3).

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads as W  # noqa: E402
from bllp import lammu as L  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_op_matches_its_reference(workload):
    schedule = W.prepare(workload, seed=3, families=W.SMOKE, length=40)
    assert {op.family for op in schedule} == (
        {"exp", "aleph", "deep"} if workload == "reduce" else {"church", "corpus"})
    assert max(op.size for op in schedule) <= 4
    for op in schedule:
        op.run({})


def test_same_seed_same_inputs():
    def sizes(seed):
        return [(op.family, op.size) for op in W.prepare("reduce", seed, W.SMOKE, 30)]

    assert sizes(5) == sizes(5)
    assert sizes(5) != sizes(6)


def test_every_reduce_block_has_the_same_size_mix():
    # failures on deep terms must not depend on the seed or the host's speed
    block = W.fixed_ops("reduce", W.REDUCE_BLOCK_S)

    def deep(seed):
        schedule = W.prepare("reduce", seed, length=2 * block)
        return [op.size for op in schedule if op.family == "deep"]

    a, b = deep(1), deep(2)
    schedule = W.prepare("reduce", 1, length=2 * block)
    for part in (schedule[:block], schedule[block:]):
        exp = sorted(op.size for op in part if op.family == "exp")
        assert exp == sorted(list(range(2, 10)) * 5)
    assert len(a) == 2 * W.DEEP_OPS and a[:W.DEEP_OPS] == a[W.DEEP_OPS:]
    assert sorted(a) == sorted(b) and min(a) == 10 and max(a) == 2000
    assert W.fixed_ops("reduce", 1) == block and W.fixed_ops("reduce", 70) == 2 * block
    assert W.fixed_ops("polystep", 35) is None


def test_percentile_averages_the_ranks_around_it():
    import worker

    times = [float(i) for i in range(1, 101)]
    assert worker.percentile(times, 0.9, 0.0) == sum(range(85, 96)) / 11
    assert worker.percentile(times[:97] + [float("inf")] * 3, 0.9, 0.0) == sum(range(85, 96)) / 11
    assert worker.percentile([2.0], 0.5, 0.0) == 2.0


def test_a_wrong_answer_is_a_mismatch():
    # (\x. x) y takes 3 machine transitions, not 99
    wrong = W.Op("exp", 1, W._reduce("(\\x. x) y", L.Var("y"), 1, 99, "y"))
    with pytest.raises(W.Mismatch):
        wrong.run(None)
    assert W.same_term(L.Lam("x", L.Var("x")), L.Lam("y", L.Var("y")))
    assert not W.same_term(L.Lam("x", L.Var("y")), L.Lam("y", L.Var("y")))


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(workload, trace):
    out = _run("--workload", workload, "--seed", "2", "--seconds", "0.4",
               "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = _spec()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in res["metrics"].items()}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run("--workload", "polystep", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout == ""
