"""Benchmark-side instrumentation of the ``repro`` package.

Nothing here edits the program. Every boundary is timed by replacing a
public function or method with a wrapper for the duration of one run and
restoring the original afterwards.

- :class:`Recorder` always wraps ``LoadGenerator.run``: each LoadGen test
  (one accuracy pass, one single-stream run or one offline burst) is one
  operation. It is timed, its log is checked and its outputs are compared
  with the expected-output record. That is a handful of wrappers per run,
  so untraced runs carry it too.
- With ``trace=True`` it also wraps the layer boundaries listed in
  :data:`BOUNDARIES` and records spans (name, start, end, parent, test id).
  Spans stay in memory until :meth:`Recorder.write_trace`. Per-query spans
  (one simulated query, one dataset sample) are folded into their parent
  span as a count and a total, which keeps a 350k-query sweep in bounded
  memory; self times are still computed exactly from every span.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# (module, class or None, attribute, span name, folded per-query span)
# The span name's prefix is the layer; "<name>_s" is its self-time metric.
BOUNDARIES = [
    ("repro.core.harness", None, "create_reference_model", "models.reference_build", False),
    ("repro.models.fitting", None, "fit_reference_heads", "models.fit", False),
    ("repro.core.harness", None, "create_full_model", "models.full_build", False),
    ("repro.models.zoo", None, "create_full_model", "models.full_build", False),
    ("repro.core.harness", None, "create_dataset", "datasets.generate", False),
    ("repro.core.harness", None, "calibrate", "quantization.calibrate", False),
    ("repro.core.harness", None, "quantize_graph", "quantization.quantize", False),
    ("repro.core.harness", None, "convert_fp16", "quantization.fp16", False),
    ("repro.core.harness", None, "export_mobile", "graph.export", False),
    ("repro.graph.converter", None, "export_mobile", "graph.export", False),
    ("repro.graph.plan", "ExecutionPlan", "for_graph", "graph.plan_compile", False),
    ("repro.backends.base", "Backend", "compile_single_stream", "backends.compile", False),
    ("repro.backends.base", "Backend", "compile_offline", "backends.compile", False),
    ("repro.loadgen.sut", "PerformanceSUT", "issue_query", "hardware.run_query", True),
    ("repro.hardware.device", "SimulatedDevice", "run_query", "hardware.run_query", True),
    ("repro.hardware.scheduler", "CompiledModel", "latency_seconds", "hardware.latency_model", True),
    ("repro.loadgen.sut", "PerformanceSUT", "run_offline", "hardware.offline", False),
] + [
    ("repro.core.harness", "BenchmarkHarness", attr, "core.harness", False)
    for attr in ("run_suite", "run_accuracy", "run_performance", "run_offline",
                 "fp32_accuracy", "artifacts", "deployment_graph", "full_graph")
]

# dataset methods, wrapped on each dataset instance the harness creates
DATASET_METHODS = [
    ("input_batch", "datasets.input_batch", True),
    ("postprocess", "datasets.postprocess", True),
    ("calibration_batches", "datasets.generate", False),
    ("evaluate", "metrics.evaluate", False),
]

OP_TYPES = ["conv2d", "depthwise_conv2d", "fully_connected", "attention",
            "layer_norm", "resize_bilinear", "add", "other"]
NUMERICS = ["fp32", "int8", "fp16"]
TASKS = ["image_classification", "object_detection", "semantic_segmentation",
         "question_answering"]
PROBE_BATCH = 32

# every self-time bucket a span can land in; "unattributed" is the root's
SELF_TIME_KEYS = sorted({b[3] for b in BOUNDARIES} | {m[1] for m in DATASET_METHODS}
                        | {"graph.run", "loadgen", "kernels.probe"})


def numerics_bucket(numerics: str) -> str:
    """UINT8 and INT8 run the same integer requantize kernels."""
    return "int8" if numerics == "uint8" else numerics


def self_time_metric(key: str) -> str:
    """Name of the metric that reports a span name's self time."""
    return {"loadgen": "loadgen.self_s", "core.harness": "core.harness_self_s"}.get(key, f"{key}_s")


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {self_time_metric(key): "s" for key in SELF_TIME_KEYS}
    units.update({"loadgen.queries": "count", "loadgen.retries": "count",
                  "loadgen.dropped": "count", "graph.samples": "count"})
    for task in TASKS:
        for num in NUMERICS:
            units[f"graph.run_ms_per_sample.{task}.{num}"] = "ms"
    for op in OP_TYPES:
        for num in NUMERICS:
            units[f"kernels.{op}.self_s.{num}"] = "s"
        units[f"kernels.{op}.macs"] = "count"
        units[f"kernels.{op}.bytes"] = "B"
    units.update({"trace.wall_s": "s", "trace.unattributed_s": "s",
                  "trace.overhead_pct": "%"})
    return units


@dataclass
class TestResult:
    """One LoadGen test: the benchmark's unit of operation."""

    test_id: str
    kind: str  # "accuracy" | "single_stream" | "offline"
    task: str
    numerics: str
    key: str  # expected-output record key
    seconds: float = 0.0  # host wall time inside LoadGenerator.run
    units: int = 0  # samples (accuracy) or simulated queries (performance)
    output: dict | None = None
    problems: list[str] = field(default_factory=list)
    retries: int = 0
    dropped: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def compare_output(expected: dict, actual: dict) -> list[str]:
    """Differences between a test's outputs and its expected record."""
    if set(expected) != set(actual):
        return [f"output fields {sorted(actual)} != expected {sorted(expected)}"]
    return [
        f"{name} = {actual[name]!r}, expected {expected[name]!r}"
        for name in sorted(expected)
        if not math.isclose(actual[name], expected[name], rel_tol=1e-9, abs_tol=1e-12)
    ]


def _test_output(log) -> dict:
    if log.mode == "accuracy":
        return {k: float(v) for k, v in log.accuracy.items()}
    if log.scenario == "single_stream":
        return {
            "p90_ms": log.percentile_latency(90.0) * 1e3,
            "mean_ms": float(log.latencies().mean()) * 1e3,
            "queries": log.query_count,
        }
    return {"fps": log.throughput_fps()}


class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, bool, object]] = []

    def replace(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


class Recorder:
    """Per-test accounting plus, when tracing, layer spans.

    Use as a context manager around the workload code; the wrappers are
    removed on exit, so untraced code that follows runs the originals.
    """

    def __init__(self, workload: str, expected: dict | None = None, trace: bool = False):
        self.workload = workload
        self.expected = expected
        self.trace = trace
        self.tests: list[TestResult] = []
        self._current: TestResult | None = None
        self._patches = _Patches()
        # spans: stored as [name, start, end, parent index, test id]
        self.spans: list[list] = []
        self.folded: dict[tuple[int, str], list] = {}  # (parent, name) -> [count, total_s]
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child_s, stored index, folded]
        self.graph_run: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0])
        self._probe_inputs: dict[tuple[str, str], tuple[object, object]] = {}
        self.kernels: dict[str, float] = defaultdict(float)

    # -- spans ----------------------------------------------------------------
    def enter(self, name: str, folded: bool = False) -> None:
        if folded:
            index = self._stack[-1][3] if self._stack else -1
        else:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            test_id = self._current.test_id if self._current else ""
            self.spans.append([name, 0.0, 0.0, parent, test_id])
        self._stack.append([name, time.perf_counter(), 0.0, index, folded])

    def exit(self) -> float:
        """Close the innermost span; returns its self time."""
        end = time.perf_counter()
        name, start, child, index, folded = self._stack.pop()
        duration = end - start
        own = duration - child
        self.self_s[name] += own
        if self._stack:
            self._stack[-1][2] += duration
        if folded:
            entry = self.folded.setdefault((index, name), [0, 0.0])
            entry[0] += 1
            entry[1] += duration
        else:
            span = self.spans[index]
            span[1], span[2] = start, end
        return own

    def _wrap(self, fn, name: str, folded: bool):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(name, folded)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    # -- installation -----------------------------------------------------------
    def __enter__(self) -> "Recorder":
        from repro.loadgen.scenarios import LoadGenerator

        self._patches.replace(LoadGenerator, "run", self._loadgen_wrapper(LoadGenerator.run))
        if self.trace:
            self._install_boundaries()
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _install_boundaries(self) -> None:
        for module_name, class_name, attr, name, folded in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, folded)
            if class_name is not None and isinstance(vars(owner).get(attr), classmethod):
                wrapper = staticmethod(wrapper)  # ``original`` is already bound
            if attr == "create_dataset":
                wrapper = self._dataset_wrapper(wrapper)
            self._patches.replace(owner, attr, wrapper)
        from repro.loadgen.sut import AccuracySUT

        self._patches.replace(AccuracySUT, "issue_query",
                              self._accuracy_query_wrapper(AccuracySUT.issue_query))

    def _dataset_wrapper(self, create):
        def wrapper(*args, **kwargs):
            dataset = create(*args, **kwargs)
            for attr, name, folded in DATASET_METHODS:
                setattr(dataset, attr, self._wrap(getattr(dataset, attr), name, folded))
            return dataset

        return wrapper

    def _accuracy_query_wrapper(self, issue_query):
        recorder = self

        def wrapper(sut, indices):
            recorder.enter("graph.run")
            try:
                return issue_query(sut, indices)
            finally:
                own = recorder.exit()
                test = recorder._current
                task = test.task if test else "unknown"
                numerics = sut.graph.numerics.value
                entry = recorder.graph_run[(task, numerics_bucket(numerics))]
                entry[0] += own
                entry[1] += len(indices)
                recorder._probe_inputs.setdefault((task, numerics), (sut.graph, sut.dataset))

        return wrapper

    def _loadgen_wrapper(self, run):
        recorder = self

        def wrapper(loadgen, sut, qsl, *, task="task", model_name="model"):
            settings = loadgen.settings
            test = recorder._begin_test(settings, sut, task)
            if recorder.trace:
                recorder.enter("loadgen")
            start = time.perf_counter()
            try:
                log = run(loadgen, sut, qsl, task=task, model_name=model_name)
            except Exception as exc:
                test.problems.append(f"raised {type(exc).__name__}: {exc}")
                raise
            finally:
                test.seconds = time.perf_counter() - start
                if recorder.trace:
                    recorder.exit()
                recorder._current = None
            recorder._check_test(test, log)
            return log

        return wrapper

    # -- operations ---------------------------------------------------------------
    def _begin_test(self, settings, sut, task: str) -> TestResult:
        from repro.loadgen.scenarios import Mode

        if settings.mode == Mode.ACCURACY:
            kind = "accuracy"
            numerics = sut.graph.numerics.value
            key = f"accuracy/{task}/{numerics}"
        else:
            kind = settings.scenario.value
            model = getattr(getattr(sut, "inner", sut), "single_stream_model", None)
            numerics = model.numerics.value if model is not None else "unknown"
            key = f"{kind}/{sut.name.split('/', 1)[-1]}/{task}"
        test = TestResult(
            test_id=f"{self.workload}/{task}/{numerics}/{kind}#{len(self.tests)}",
            kind=kind, task=task, numerics=numerics, key=key,
        )
        self.tests.append(test)
        self._current = test
        return test

    def _check_test(self, test: TestResult, log) -> None:
        from repro.loadgen.validation import validate_log

        test.retries = int(log.metadata.get("fault_retries", 0))
        test.dropped = int(log.metadata.get("dropped_queries", 0))
        test.units = (int(log.metadata.get("total_sample_count", 0)) if test.kind == "accuracy"
                      else log.query_count if test.kind == "single_stream" else 1)
        test.problems.extend(validate_log(log))
        if test.dropped and not any("dropped" in p for p in test.problems):
            test.problems.append(f"{test.dropped} queries dropped")
        try:
            test.output = _test_output(log)
        except ValueError as exc:
            test.problems.append(f"no output: {exc}")
            return
        if self.expected is not None:
            if test.key not in self.expected:
                test.problems.append(f"{test.key} missing from the expected-output record")
            else:
                test.problems.extend(compare_output(self.expected[test.key], test.output))

    def attempt(self, label: str, fn, *args) -> None:
        """Run one operation; an exception fails it instead of ending the run."""
        first = len(self.tests)
        try:
            fn(*args)
        except Exception as exc:  # recorded as a failed operation, run goes on
            if len(self.tests) == first:  # raised before reaching the LoadGen
                self.tests.append(TestResult(
                    test_id=f"{self.workload}/{label}", kind="error", task=label,
                    numerics="", key=f"error/{label}",
                    problems=[f"raised {type(exc).__name__}: {exc}"],
                ))

    @property
    def failed(self) -> list[TestResult]:
        return [t for t in self.tests if t.failed]

    # -- kernels ------------------------------------------------------------------
    def run_kernel_probes(self) -> None:
        """Profile one batch per (task, numerics) with ``ExecutionProfiler``."""
        from repro.graph.executor import Executor
        from repro.graph.profiler import ExecutionProfiler

        self.enter("kernels.probe")
        try:
            for (task, numerics), (graph, dataset) in sorted(self._probe_inputs.items(),
                                                             key=lambda kv: kv[0]):
                indices = np.arange(min(PROBE_BATCH, len(dataset)))
                feeds = dataset.input_batch(indices)
                profiler = ExecutionProfiler()
                Executor(graph).run(feeds, profiler=profiler)
                num = numerics_bucket(numerics)
                for prof in profiler.ops.values():
                    kind = prof.op_type if prof.op_type in OP_TYPES else "other"
                    self.kernels[f"kernels.{kind}.self_s.{num}"] += prof.total_seconds
                    self.kernels[f"kernels.{kind}.bytes"] += prof.bytes_moved
                for op, cost in graph.op_costs():
                    kind = op.op_type if op.op_type in OP_TYPES else "other"
                    self.kernels[f"kernels.{kind}.macs"] += cost.macs * len(indices)
        finally:
            self.exit()

    # -- results ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of a traced pass (root span = unattributed)."""
        units = per_layer_metric_units()
        out = {name: 0.0 for name in units}
        for key, seconds in self.self_s.items():
            if key != "unattributed":
                out[self_time_metric(key)] += seconds
        out["loadgen.queries"] = sum(t.units for t in self.tests if t.kind != "accuracy")
        out["loadgen.retries"] = sum(t.retries for t in self.tests)
        out["loadgen.dropped"] = sum(t.dropped for t in self.tests)
        for (task, num), (seconds, samples) in self.graph_run.items():
            name = f"graph.run_ms_per_sample.{task}.{num}"
            if name in out and samples:
                out[name] = seconds / samples * 1e3
            out["graph.samples"] += samples
        for name, value in self.kernels.items():
            out[name] += value
        root = [s for s in self.spans if s[3] == -1]
        out["trace.wall_s"] = sum(s[2] - s[1] for s in root)
        out["trace.unattributed_s"] = self.self_s.get("unattributed", 0.0)
        return out

    def write_trace(self, path, extra: dict) -> None:
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "test": t}
                for n, s, e, p, t in self.spans
            ],
            "folded": [
                {"parent": parent, "name": name, "count": c, "total_s": total}
                for (parent, name), (c, total) in sorted(self.folded.items())
            ],
            "self_s": dict(sorted(self.self_s.items())),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
