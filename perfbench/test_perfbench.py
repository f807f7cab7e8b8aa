"""Tests of the benchmark itself (tiny sizes; about a minute on 2 cores).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import SELF_TIME_KEYS, Recorder, per_layer_metric_units, self_time_metric  # noqa: E402

from repro.loadgen.faults import FaultySUT  # noqa: E402
from repro.loadgen.qsl import QuerySampleLibrary  # noqa: E402
from repro.loadgen.scenarios import LoadGenerator, Mode, Scenario  # noqa: E402
from repro.loadgen.sut import PerformanceSUT  # noqa: E402
from repro.datasets.base import IndexDataset  # noqa: E402
from repro.hardware.device import SimulatedDevice  # noqa: E402
from repro.hardware.soc import get_soc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_benchmark_json_names_every_reported_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_metric_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    code, lines = run_benchmark("--workload", workload, "--seed", "1", "--seconds", "0",
                                "--trace", "0", "--scale", "tiny")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert all(m["value"] > 0 and math.isfinite(m["value"]) for m in result["metrics"].values())
    assert json.loads(lines[0])["env"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_adds_up(workload):
    code, lines = run_benchmark("--workload", workload, "--seed", "2", "--seconds", "0",
                                "--trace", "1", "--scale", "tiny")
    assert code == 0
    result = json.loads(lines[-1])
    # the run compares traced and untraced outputs and fails on a difference
    assert result["correct"] and result["failed"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == set(per_layer_metric_units())
    self_times = sum(values[self_time_metric(key)] for key in SELF_TIME_KEYS)
    assert self_times + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
    assert values["loadgen.queries"] > 0


def test_changed_expected_output_is_a_failed_operation():
    def sim_run(expected):
        recorder = Recorder("sim-sweep", expected)
        workloads.run_in_process("sim-sweep", 0, 0.0, workloads.TINY, recorder)
        return recorder

    clean = sim_run(None)
    record = {t.key: dict(t.output) for t in clean.tests}
    assert not sim_run(record).failed
    key = "single_stream/exynos_990/enn/image_classification"
    record[key]["p90_ms"] *= 1.001
    failed = sim_run(record).failed
    assert [t.key for t in failed] == [key]
    assert "p90_ms" in failed[0].problems[0]


@pytest.mark.parametrize("failure_rate", [0.0, 0.05])
def test_faulty_sut_drop_is_a_failed_operation(failure_rate):
    soc = get_soc("exynos_990")
    test = workloads.compile_sim_test("exynos_990", None, "image_classification",
                                      _classification_graph())
    settings = replace(
        workloads.seeded(workloads.TINY.sim_rules, 0).loadgen_settings(
            Scenario.SINGLE_STREAM, Mode.PERFORMANCE),
        min_query_count=64, query_retry_budget=0)
    sut = FaultySUT(PerformanceSUT(SimulatedDevice(soc), test.compiled, name="perf/x/y"),
                    failure_rate=failure_rate, seed=3)
    with Recorder("faults") as recorder:
        log = LoadGenerator(settings).run(sut, QuerySampleLibrary(IndexDataset()),
                                          task="image_classification")
    dropped = log.metadata.get("dropped_queries", 0)
    assert (dropped > 0) == (failure_rate > 0)
    assert len(recorder.tests) == 1
    assert len(recorder.failed) == (1 if dropped else 0)


def _classification_graph():
    from repro.graph.converter import export_mobile
    from repro.models.zoo import create_full_model

    return export_mobile(create_full_model("mobilenet_edgetpu").graph)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_benchmark("--workload", "sim-sweep", "--seed", "0", "--seconds", "1",
                                "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not lines


def test_known_misses_match_the_expected_record():
    misses = json.loads((HERE / "known_misses.json").read_text())
    record = json.loads((HERE / "expected.json").read_text())
    anchors = workloads.anchor_report(record["sim-sweep"])
    assert anchors == misses["sim_anchor_err_pct"]["anchors"]
    assert workloads.anchor_error_pct(record["sim-sweep"]) == misses["sim_anchor_err_pct"]["value"]
    for workload in workloads.WORKLOADS:
        assert workloads.anchor_report(record[workload]) == anchors
    missed = {f"{w}:{key}" for w in workloads.WORKLOADS
              for key, gate in workloads.quality_gates(record[w]).items() if not gate["passed"]}
    assert missed == set(misses["quality_gates"])
