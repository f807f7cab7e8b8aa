"""The benchmark's three workloads, driven through the program's public API.

All load is closed-loop from one process and one harness thread: the
LoadGen issues the next query only after the previous one completes, the
accuracy SUT runs with ``accuracy_workers=1``, and BLAS/OpenMP threads are
pinned by ``run.py`` before NumPy is imported.

- ``suite-quick``: a cold ``mlperf-mobile run --quick`` on Snapdragon 888
  in a fresh process: the user's "Go" button. Model fitting, dataset
  synthesis and quantization dominate it.
- ``accuracy-sweep``: the four v1.0 tasks at their full default validation
  sizes through ``BenchmarkHarness.run_accuracy`` at FP32, INT8 and FP16.
  The graph executor and kernels do nearly all the work, and each numerics
  takes its own kernel path.
- ``sim-sweep``: performance mode under ``DEFAULT_RULES`` on every v0.7 and
  v1.0 SoC. LoadGen and the hardware model do nearly all the work.

Every end-to-end metric is reported on every workload, so after its timed
passes each workload runs a small, fixed cross-check of the work it does
not target: suite-quick and accuracy-sweep run the eight paper anchor tests
(Table 2 offline FPS, Table 3 p90 latency), and sim-sweep runs question
answering at quick size in accuracy mode at FP32, INT8 and FP16. The
cross-check is outside ``setup_s`` and ``suite_s``, and it is repeated so
that the median of each of its tests is steady.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from tracing import TestResult, numerics_bucket

from repro.backends.vendors import create_backend, default_backend_for
from repro.core.harness import BenchmarkHarness
from repro.core.rules import DEFAULT_RULES, QUICK_RULES, RunRules
from repro.core.tasks import TASK_ORDER, get_task
from repro.datasets.base import IndexDataset
from repro.graph import converter
from repro.hardware.device import SimulatedDevice
from repro.hardware.soc import SOC_CATALOG, get_soc
from repro.kernels.numerics import Numerics
from repro.loadgen.qsl import QuerySampleLibrary
from repro.loadgen.scenarios import LoadGenerator, Mode, Scenario
from repro.loadgen.sut import PerformanceSUT
from repro.models import zoo

WORKLOADS = ("suite-quick", "accuracy-sweep", "sim-sweep")
SWEEP_NUMERICS = (Numerics.FP32, Numerics.INT8, Numerics.FP16)
VISION_TASKS = ("image_classification", "object_detection", "semantic_segmentation")

# the paper's published numbers the simulator is checked against
TABLE2_OFFLINE_FPS = {"exynos_990": 674.4, "snapdragon_865plus": 605.37}
TABLE3_P90_MS = {
    "nnapi": dict(zip(VISION_TASKS, (2.48, 5.05, 20.56))),
    "neuron": dict(zip(VISION_TASKS, (2.23, 4.77, 20.02))),
}
ANCHOR_SOC = "dimensity_1100"


@dataclass(frozen=True)
class SeededRules(RunRules):
    """Run rules whose LoadGen settings carry the workload seed."""

    seed: int = 0

    def loadgen_settings(self, scenario, mode):
        return replace(super().loadgen_settings(scenario, mode), seed=self.seed)


def seeded(rules: RunRules, seed: int) -> SeededRules:
    return SeededRules(**asdict(rules), seed=seed)


@dataclass(frozen=True)
class Scale:
    """Problem sizes. ``FULL`` is the benchmark; ``TINY`` is its smoke test."""

    name: str
    tasks: tuple[str, ...] = tuple(TASK_ORDER)
    quick_sizes: dict = field(default_factory=lambda: {
        # the sizes `mlperf-mobile run --quick` uses (repro.core.app)
        "imagenet": 128, "coco": 48, "ade20k": 32, "squad": 48})
    sweep_sizes: dict | None = None  # None: the datasets' default sizes
    quick_rules: RunRules = QUICK_RULES
    sim_rules: RunRules = DEFAULT_RULES
    sim_socs: tuple[str, ...] | None = None  # None: every v0.7/v1.0 SoC


FULL = Scale("full")
_TINY_RULES = RunRules(min_query_count=16, min_duration_s=0.05,
                       offline_sample_count=256, cooldown_s=1.0)
TINY = Scale(
    "tiny", tasks=("semantic_segmentation", "question_answering"),
    quick_sizes={"ade20k": 4, "squad": 8}, sweep_sizes={"ade20k": 4, "squad": 8},
    quick_rules=_TINY_RULES, sim_rules=_TINY_RULES,
    sim_socs=("exynos_990", "snapdragon_865plus", ANCHOR_SOC),
)
SCALES = {s.name: s for s in (FULL, TINY)}


@dataclass
class RunData:
    setup_s: list[float]
    suite_s: list[float]  # set-up plus one pass of the workload's tests
    tests: list[TestResult]
    rss_mb: float
    wall_s: float  # the whole run after imports: what a traced run spans
    layers: dict | None = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- simulated tests -----------------------------------------------------------
@dataclass
class SimTest:
    soc: str
    backend: str
    task: str
    scenario: Scenario
    model_name: str
    compiled: object
    pipelines: list | None


def compile_sim_test(soc_name: str, backend_name: str | None, task: str, graph,
                     scenario: Scenario = Scenario.SINGLE_STREAM) -> SimTest:
    soc = get_soc(soc_name)
    backend = create_backend(backend_name, soc) if backend_name else default_backend_for(soc)
    compiled = backend.compile_single_stream(graph, task)
    pipelines = backend.compile_offline(graph, task) if scenario == Scenario.OFFLINE else None
    return SimTest(soc_name, backend.name, task, scenario, graph.name, compiled, pipelines)


def run_sim_test(test: SimTest, rules: RunRules):
    """One LoadGen performance test on a fresh simulated device."""
    settings = rules.loadgen_settings(test.scenario, Mode.PERFORMANCE)
    sut = PerformanceSUT(SimulatedDevice(get_soc(test.soc)), test.compiled, test.pipelines,
                         name=f"perf/{test.soc}/{test.backend}")
    qsl = QuerySampleLibrary(IndexDataset(), settings.performance_sample_count,
                             seed=settings.seed)
    return LoadGenerator(settings).run(sut, qsl, task=test.task, model_name=test.model_name)


def anchor_specs() -> list[tuple[str, str | None, str, Scenario]]:
    specs = [(soc, None, "image_classification", Scenario.OFFLINE) for soc in TABLE2_OFFLINE_FPS]
    specs += [(ANCHOR_SOC, backend, task, Scenario.SINGLE_STREAM)
              for backend in TABLE3_P90_MS for task in VISION_TASKS]
    return specs


def anchor_values() -> dict[str, tuple[str, float]]:
    """Expected-output key -> (output field, published value)."""
    anchors = {}
    for soc, fps in TABLE2_OFFLINE_FPS.items():
        backend = default_backend_for(get_soc(soc)).name
        anchors[f"offline/{soc}/{backend}/image_classification"] = ("fps", fps)
    for backend, row in TABLE3_P90_MS.items():
        for task, ms in row.items():
            anchors[f"single_stream/{ANCHOR_SOC}/{backend}/{task}"] = ("p90_ms", ms)
    return anchors


def first_outputs(tests: list[TestResult]) -> dict[str, dict]:
    """Expected-output key -> outputs of the first test with that key."""
    outputs: dict[str, dict] = {}
    for t in tests:
        if t.output is not None:
            outputs.setdefault(t.key, t.output)
    return outputs


def anchor_report(outputs: dict[str, dict]) -> dict[str, dict]:
    """Per anchor: the simulated value, the paper's and the error in %."""
    report = {}
    for key, (name, published) in anchor_values().items():
        if key not in outputs:
            raise RuntimeError(f"anchor test {key} produced no output")
        value = outputs[key][name]
        report[key] = {name: value, "paper": published,
                       "err_pct": 100.0 * abs(value - published) / published}
    return report


def anchor_error_pct(outputs: dict[str, dict]) -> float:
    """Mean absolute relative error of the simulator against the paper."""
    errors = [a["err_pct"] for a in anchor_report(outputs).values()]
    return sum(errors) / len(errors)


def quality_gates(outputs: dict[str, dict]) -> dict[str, dict]:
    """Quality of each non-FP32 accuracy test against its v1.0 gate."""
    gates = {}
    for key, output in outputs.items():
        kind, task, numerics = (key.split("/") + ["", ""])[:3]
        fp32 = outputs.get(f"accuracy/{task}/fp32")
        if kind != "accuracy" or numerics == "fp32" or fp32 is None:
            continue
        spec = get_task(task)
        ratio = output[spec.metric] / fp32[spec.metric]
        target = spec.quality_ratio["v1.0"]
        gates[key] = {"ratio": ratio, "target": target, "passed": ratio >= target}
    return gates


# -- workload bodies -------------------------------------------------------------
CROSS_CHECK_REPEATS = 3


def anchor_cross_check(graph_for, seed: int):
    """The eight anchor tests at ``DEFAULT_RULES``; ``graph_for(task)``
    gives the full-size graph of a v1.0 task."""
    rules = seeded(DEFAULT_RULES, seed)
    tests = [compile_sim_test(soc, backend, task, graph_for(task), scenario)
             for soc, backend, task, scenario in anchor_specs()]

    def run(recorder) -> None:
        for test in tests:
            recorder.attempt(f"{test.soc}/{test.task}", run_sim_test, test, rules)

    return run


def qa_cross_check(seed: int, scale: Scale):
    """Question answering at quick size in accuracy mode, three numerics."""
    qa = BenchmarkHarness(version="v1.0", rules=seeded(DEFAULT_RULES, seed),
                          dataset_sizes={"squad": scale.quick_sizes["squad"]},
                          seed=seed, accuracy_workers=1)
    for numerics in SWEEP_NUMERICS:
        qa.deployment_graph("question_answering", numerics)

    def run(recorder) -> None:
        for numerics in SWEEP_NUMERICS:
            recorder.attempt(f"question_answering/{numerics.value}",
                             qa.run_accuracy, "question_answering", numerics)

    return run


def suite_quick_pass(seed: int, scale: Scale, recorder, started: float,
                     repeats: int) -> tuple[float, float]:
    """The cold quick suite, then the anchor cross-check ``repeats`` times.

    Returns (suite_s, setup_s). ``started`` is the clock reading taken
    before the program was imported, so ``suite_s`` includes a cold start's
    imports; ``setup_s`` is the part of it spent outside LoadGen tests.
    """
    harness = BenchmarkHarness(
        version="v1.0", rules=seeded(scale.quick_rules, seed),
        dataset_sizes=scale.quick_sizes, seed=seed, accuracy_workers=1,
    )
    suite = harness.run_suite("snapdragon_888", tasks=list(scale.tasks))
    suite_s = time.perf_counter() - started
    for result in suite.results:
        if result.error:
            recorder.tests.append(TestResult(
                test_id=f"suite-quick/{result.task}/task", kind="task", task=result.task,
                numerics=result.numerics, key=f"task/{result.task}",
                problems=[f"task failed: {result.error}"],
            ))
    setup_s = suite_s - sum(t.seconds for t in recorder.tests)
    check = anchor_cross_check(harness.full_graph, seed)
    for _ in range(repeats):
        check(recorder)
    return suite_s, setup_s


def accuracy_setup(seed: int, scale: Scale):
    harness = BenchmarkHarness(
        version="v1.0", rules=seeded(DEFAULT_RULES, seed),
        dataset_sizes=scale.sweep_sizes, seed=seed, accuracy_workers=1,
    )
    for task in scale.tasks:
        for numerics in SWEEP_NUMERICS:
            harness.deployment_graph(task, numerics)
    return harness, scale.tasks


def accuracy_pass(state, recorder) -> None:
    harness, tasks = state
    for task in tasks:
        for numerics in SWEEP_NUMERICS:
            recorder.attempt(f"{task}/{numerics.value}", harness.run_accuracy, task, numerics)


def sim_setup(seed: int, scale: Scale):
    socs = scale.sim_socs or [name for name, soc in SOC_CATALOG.items()
                              if soc.benchmark_version in ("v0.7", "v1.0")]
    graphs: dict[str, object] = {}

    def graph_for(task: str, version: str):
        model = get_task(task).models[version]
        if model not in graphs:
            graphs[model] = converter.export_mobile(zoo.create_full_model(model).graph)
        return graphs[model]

    tests = []
    for soc_name in socs:
        version = get_soc(soc_name).benchmark_version
        for task in TASK_ORDER:
            tests.append(compile_sim_test(soc_name, None, task, graph_for(task, version)))
        tests.append(compile_sim_test(soc_name, None, "image_classification",
                                      graph_for("image_classification", version),
                                      Scenario.OFFLINE))
    default = default_backend_for(get_soc(ANCHOR_SOC)).name
    for backend in TABLE3_P90_MS:
        if backend == default:
            continue  # already in the sweep
        for task in VISION_TASKS:
            tests.append(compile_sim_test(ANCHOR_SOC, backend, task, graph_for(task, "v1.0")))
    return tests, seeded(scale.sim_rules, seed)


def sim_pass(state, recorder) -> None:
    tests, rules = state
    for test in tests:
        recorder.attempt(f"{test.soc}/{test.task}", run_sim_test, test, rules)


IN_PROCESS = {
    # workload: (set-up, pass, cross-check, set-ups and minimum passes per
    # untraced run). Each test's time is its median over its repeats, so a
    # burst of load from elsewhere on the host during one pass does not move
    # the result. Set-up is repeated only where it is cheap.
    "accuracy-sweep": (accuracy_setup, accuracy_pass,
                       lambda state, seed, scale: anchor_cross_check(state[0].full_graph, seed),
                       1, 2),
    "sim-sweep": (sim_setup, sim_pass,
                  lambda state, seed, scale: qa_cross_check(seed, scale),
                  3, 3),
}


def run_in_process(workload: str, seed: int, seconds: float, scale: Scale, recorder) -> RunData:
    """Set up (several times when cheap), run passes for ``seconds``, then
    the cross-check."""
    setup, one_pass, cross_check, setups, min_passes = IN_PROCESS[workload]
    repeats = CROSS_CHECK_REPEATS
    if seconds <= 0:  # everything once: traced runs and smoke tests
        setups = min_passes = repeats = 1
    setup_times, pass_times = [], []
    started = time.perf_counter()
    with recorder:
        if recorder.trace:
            recorder.enter("unattributed")
        for _ in range(setups):
            start = time.perf_counter()
            state = setup(seed, scale)
            setup_times.append(time.perf_counter() - start)
        measured = time.perf_counter()
        while len(pass_times) < min_passes or time.perf_counter() - measured < seconds:
            start = time.perf_counter()
            one_pass(state, recorder)
            pass_times.append(time.perf_counter() - start)
        check = cross_check(state, seed, scale)
        for _ in range(repeats):
            check(recorder)
        wall_s = time.perf_counter() - started
        if recorder.trace:
            recorder.run_kernel_probes()
            recorder.exit()
    setup_s = statistics.median(setup_times)
    return RunData(setup_times, [setup_s + t for t in pass_times], recorder.tests,
                   peak_rss_mb(), wall_s,
                   recorder.layer_metrics() if recorder.trace else None)


# -- end-to-end metrics ---------------------------------------------------------
def _median_rate(tests: list[TestResult], select) -> float:
    """Units per second over the selected tests, each distinct test timed
    by the median of its repeats."""
    seconds: dict[str, list[float]] = defaultdict(list)
    units: dict[str, int] = {}
    for t in tests:
        if select(t) and t.output is not None:
            seconds[t.key].append(t.seconds)
            units[t.key] = t.units
    total = sum(statistics.median(s) for s in seconds.values())
    if total <= 0:
        raise RuntimeError("no completed test of this kind to measure")
    return sum(units.values()) / total


def end_to_end_metrics(runs: list[RunData]) -> dict[str, float]:
    tests = [t for r in runs for t in r.tests]
    metrics = {
        "setup_s": statistics.median([s for r in runs for s in r.setup_s]),
        "suite_s": statistics.median([s for r in runs for s in r.suite_s]),
        "accuracy_samples_per_s": _median_rate(tests, lambda t: t.kind == "accuracy"),
    }
    for num in ("fp32", "int8", "fp16"):
        metrics[f"accuracy_samples_per_s.{num}"] = _median_rate(
            tests, lambda t, num=num: t.kind == "accuracy" and numerics_bucket(t.numerics) == num)
    metrics["sim_queries_per_s"] = _median_rate(
        tests, lambda t: t.kind in ("single_stream", "offline"))
    metrics["sim_anchor_err_pct"] = anchor_error_pct(first_outputs(tests))
    metrics["peak_rss_mb"] = max(r.rss_mb for r in runs)
    return metrics


END_TO_END_UNITS = {
    "setup_s": "s", "suite_s": "s",
    "accuracy_samples_per_s": "samples/s", "accuracy_samples_per_s.fp32": "samples/s",
    "accuracy_samples_per_s.int8": "samples/s", "accuracy_samples_per_s.fp16": "samples/s",
    "sim_queries_per_s": "queries/s", "sim_anchor_err_pct": "%", "peak_rss_mb": "MB",
}


def trace_path(root: Path, workload: str, seed: int) -> Path:
    return root / ".perfbench" / f"trace-{workload}-seed{seed}.json"
