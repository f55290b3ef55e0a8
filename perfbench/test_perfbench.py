"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

Each traced run uses ``--seconds 0``, so it runs only the fixed number of
verdicts whose counts are reported; the whole module takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Counters that must repeat exactly for a given seed.
EXACT = ("lattice.save.bytes", "equations.delta_useful_ratio",
         "clifford.clifford_mul.flops_computed", "clifford.clifford_mul.bytes_computed")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the paths above)


def run(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done):
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.fixture(scope="module")
def traced():
    """Two traced runs with the same seed, per workload."""
    return {w: [result(run(w, 7, 1)) for _ in range(2)] for w in WORKLOADS}


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_prints_every_end_to_end_metric():
    doc = result(run("identity-sweep", 3, 0))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 11
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(traced, workload):
    for doc in traced[workload]:
        assert doc["correct"] and doc["failed"] == 0
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == _units("per_layer")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_for_a_seed(traced, workload):
    first, second = ({k: v["value"] for k, v in doc["metrics"].items()
                      if k.endswith(".calls") or k in EXACT}
                     for doc in traced[workload])
    assert first == second


def test_clifford_product_is_bypassed_by_dk_random(traced):
    calls = {w: traced[w][0]["metrics"]["clifford.clifford_mul.calls"]["value"]
             for w in ("dk-random", "planewave-scan")}
    assert calls["dk-random"] == 0
    assert calls["planewave-scan"] > 0


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_nan_and_inf_fail_a_check():
    from workloads import _fail_above

    failures = []
    for value in (float("nan"), float("inf"), 1.0):
        _fail_above(failures, "x", value, 1e-10)
    assert len(failures) == 3
    _fail_above(failures, "x", 0.0, 1e-10)
    assert len(failures) == 3


def test_tail_has_ten_verdicts_beyond_it():
    from run import tail

    durations = [float(i) for i in range(30)]
    value, pct = tail(durations)
    assert sum(d > value for d in durations) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("identity-sweep", 1, 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
