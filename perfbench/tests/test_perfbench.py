"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Corpus, Flat, Hurkens, Typecheck  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "hurkens": lambda: Hurkens(fuel=2000),
    "flat": lambda: Flat(codes=(1, 2, 9)),
    "typecheck": lambda: Typecheck(hurkens_steps=20, loop_steps=300),
    "corpus": lambda: Corpus(size=200),
}


def test_every_workload_is_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", TINY)
def test_smoke_tiny(name, trace):
    result = run.measure(TINY[name](), seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_answer_is_a_failure(monkeypatch):
    monkeypatch.setitem(workloads.FLAT_STEPS, 2, 400)
    result = run.measure(Flat(codes=(1, 2)), seed=0, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["passes"]
    assert result["attempted"] == 2 * result["passes"]


def test_traced_typecheck_counts_calls_made_from_systems():
    wl = Typecheck(hurkens_steps=20, loop_steps=300)
    run.use_source()
    wl.setup(0)
    tm = sys.modules["ptslab.term"]
    original = tm.step_normal_order
    tracer = Tracer()
    tracer.install()
    try:
        assert wl.run_pass().failed == 0
    finally:
        tracer.uninstall()
    assert tm.step_normal_order is original
    assert sys.modules["ptslab.systems"].step_normal_order is original
    calls, _ = tracer.edges[("systems.subject_reduction_probe",
                             "term.step_normal_order")]
    assert calls == 20 + 300
    assert tracer.contractions["deltaJ-eq"] == 100
    # each J contraction normalises both type arguments, inside the kernel
    assert tracer.nested_normalize >= 2 * tracer.contractions["deltaJ-eq"]


def test_tracer_work_is_not_self_time():
    # the hook run after each step sleeps 10 ms; none of it may land in the
    # self time of the caller or of the step itself
    tracer = Tracer()
    tracer._after_step = lambda args, result: time.sleep(0.01)
    step = tracer._wrap("term.step_normal_order", lambda: (None, (), "beta"))

    def normalize():
        for _ in range(5):
            step()

    tracer._wrap("term.normalize", normalize)()
    assert tracer.calls == {"term.normalize": 1, "term.step_normal_order": 5}
    assert tracer.tracer_s >= 0.05
    assert tracer.self_s["term.normalize"] < 0.005
    assert tracer.self_s["term.step_normal_order"] < 0.005


def test_command_prints_result_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hurkens",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
