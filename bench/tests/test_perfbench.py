"""Tests of the benchmark harness itself, at the tiny scale of its smoke mode.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import EXACT_COUNTS, LAYER_UNITS  # noqa: E402
from workloads import END_TO_END_UNITS, SMOKE_SCALE, CertifyPaper, OpResult  # noqa: E402

# counters each workload must drive (nonzero) and the ones it must bypass (exactly 0)
NONZERO = {
    "certify-paper": [
        "cli.self_s", "game.load_s", "game.validate_calls", "game.phase1_s",
        "game.project_each_calls", "projections.box_simplex_calls", "projections.fista_calls",
        "projections.fista_grad_evals", "resolvents.batched_prox_calls", "engine.dr_init_calls",
        "engine.dr_rounds", "engine.pfb_rounds", "engine.pfb_s", "engine.step_s",
        "engine.coordinator_s", "engine.loop_s", "operators.kkt_calls", "operators.probe_s",
        "benchmark.generate_s", "benchmark.reference_self_s", "benchmark.nash_gap_self_s",
    ],
    "generic-prox": [
        "game.validate_calls", "game.phase1_s", "game.project_each_calls",
        "projections.box_simplex_calls", "projections.fista_calls", "projections.fista_grad_evals",
        "resolvents.local_prox_calls", "engine.dr_init_calls", "engine.dr_rounds",
        "engine.step_s", "engine.coordinator_s", "operators.kkt_calls", "operators.probe_s",
        "benchmark.generate_s", "benchmark.reference_self_s", "benchmark.nash_gap_self_s",
    ],
}
BYPASSED = {
    "certify-paper": ["projections.dykstra_calls", "resolvents.local_prox_calls"],
    "generic-prox": [
        "cli.self_s", "game.load_s", "projections.dykstra_calls",
        "resolvents.batched_prox_calls", "engine.pfb_rounds",
    ],
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _smoke_results(proc: subprocess.CompletedProcess) -> dict[tuple[str, int], dict]:
    lines = [json.loads(line[len("SMOKE "):]) for line in proc.stdout.splitlines() if line.startswith("SMOKE ")]
    return {(entry["workload"], entry["trace"]): entry for entry in lines}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    proc = _run("--smoke", "--out", str(tmp_path_factory.mktemp("bench_out")))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(NONZERO)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def test_smoke_reports_every_metric_and_passes_every_check(smoke):
    results = _smoke_results(smoke)
    assert set(results) == {(w, t) for w in NONZERO for t in (0, 1)}
    for (workload, trace), entry in results.items():
        units = LAYER_UNITS if trace else END_TO_END_UNITS
        result = entry["result"]
        assert entry["missing"] == []
        assert set(result["metrics"]) == set(units)
        assert result["correct"] and result["failed"] == 0, (workload, trace)
        assert result["attempted"] >= 1
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), workload


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_layers_split_the_code_paths(smoke, workload):
    metrics = _smoke_results(smoke)[(workload, 1)]["result"]["metrics"]
    for name in NONZERO[workload]:
        assert metrics[name]["value"] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, name


def test_exact_counts_repeat_across_runs(tmp_path):
    runs = [_run("--smoke", "--workload", "generic-prox", "--out", str(tmp_path)) for _ in range(2)]
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FLAG" not in proc.stdout
        metrics = _smoke_results(proc)[("generic-prox", 1)]["result"]["metrics"]
        counts.append({name: metrics[name]["value"] for name in EXACT_COUNTS})
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "generic-prox", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _NeverCertified:
    """A workload whose reference never certifies, so no gap is ever timed."""

    name = "never-certified"
    instances = 2

    def __init__(self, scale, outdir):
        self.scale = scale

    def prepare(self, seed):
        return seed

    def operate(self, instance):
        result = OpResult(stages={"solve_s": 0.1})
        result.budget_failures.append("reference not certified")
        return result


def test_a_stage_without_samples_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, _NeverCertified.name, _NeverCertified)
    result = run.Run(_NeverCertified.name, 0, 0.0, SMOKE_SCALE, tmp_path).execute(trace=False)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert {"setup_s", "solve_s", "peak_rss_mb"} <= set(result["metrics"])
    assert "nash_gap_s" not in result["metrics"]


def test_missing_solve_outputs_fail_the_operation(tmp_path):
    result = OpResult()
    CertifyPaper._check_solve_outputs(tmp_path, result)
    assert result.failed and result.answer_failures
