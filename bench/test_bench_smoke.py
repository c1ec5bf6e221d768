"""Tiny-scale smoke runs of every benchmark workload through the same code
path as a full run: the session runner, the correctness gate, the peak-RSS
child process, the tracer, and the JSON result checked against
BENCHMARK.json."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_tiny_run(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--tiny"])
    result = _result(capsys)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_tiny_run(capsys):
    code = run.main(["--workload", "guarded", "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--tiny"])
    result = _result(capsys)
    assert code == 0
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fl.local_train.calls"] == 4
    assert metrics["outliers.clone_aggregate.clones"] == 32
    assert 0 < metrics["trace.round_coverage"] <= 1


def test_tracer_restores_every_binding():
    import fedshield.fl as fl
    import fedshield.orchestrator as orchestrator
    before = (fl.serialize_params, orchestrator.serialize_params,
              orchestrator.Coordinator.run_round)
    with run.spans.Tracer().install():
        assert orchestrator.serialize_params is not before[1]
        assert orchestrator.serialize_params is fl.serialize_params
    assert (fl.serialize_params, orchestrator.serialize_params,
            orchestrator.Coordinator.run_round) == before


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "guarded", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
