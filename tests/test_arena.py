"""Static memory arena: packing, alias liveness, runtime parity, SUT reuse."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph import ExecutionPlan, ExecutionProfiler, Executor
from repro.graph.arena import (
    ALIAS_OP_TYPES,
    ARENA_ALIGNMENT,
    TensorRecord,
    alias_roots,
    effective_liveness,
    graph_arena_bytes,
    plan_arena,
    plan_layout,
)
from repro.kernels import Numerics
from repro.kernels import conv as conv_kernels
from repro.loadgen import (
    AccuracySUT,
    LoadGenerator,
    Mode,
    QuerySampleLibrary,
    TestSettings,
)
from repro.quantization import calibrate, quantize_graph
from repro.staticcheck import check_arena_layout


@pytest.fixture()
def perf_sut():
    from repro.analysis import full_graph_cache
    from repro.backends import default_backend_for
    from repro.hardware import SimulatedDevice, get_soc
    from repro.loadgen import PerformanceSUT

    soc = get_soc("dimensity_1100")
    be = default_backend_for(soc)
    g = full_graph_cache("mobilenet_edgetpu")
    cm = be.compile_single_stream(g, "image_classification")
    pipes = be.compile_offline(g, "image_classification")
    return PerformanceSUT(SimulatedDevice(soc), cm, pipes)


def _step(op_type, inputs, outputs):
    return SimpleNamespace(op_type=op_type, inputs=list(inputs), outputs=list(outputs))


class TestPlanLayout:
    def test_live_overlap_forces_disjoint_bytes(self):
        records = [
            TensorRecord("a", 100, 0, 2),
            TensorRecord("b", 100, 1, 3),
            TensorRecord("c", 50, 2, 4),
        ]
        layout = plan_layout(records)
        slots = list(layout.slots.values())
        for i, a in enumerate(slots):
            for b in slots[i + 1:]:
                if a.first <= b.last and b.first <= a.last:
                    assert a.end <= b.offset or b.end <= a.offset

    def test_disjoint_intervals_reuse_bytes(self):
        records = [TensorRecord("a", 100, 0, 1), TensorRecord("b", 100, 2, 3)]
        layout = plan_layout(records)
        assert layout.slots["a"].offset == layout.slots["b"].offset == 0
        assert layout.total_bytes == 100
        assert layout.reuse_ratio > 1.0

    def test_offsets_cache_line_aligned(self):
        records = [
            TensorRecord("a", 130, 0, 3),
            TensorRecord("b", 70, 0, 3),
            TensorRecord("c", 60, 0, 3),
        ]
        layout = plan_layout(records)
        for s in layout.slots.values():
            assert s.offset % ARENA_ALIGNMENT == 0

    def test_best_fit_takes_smallest_adequate_gap(self):
        # layout at step >= 2 has two holes (where "a" and "c" died): 256B at
        # offset 0 and 128B at offset 448; the newcomer must take the smaller
        # adequate one, not the first gap and not the arena end
        records = [
            TensorRecord("a", 4 * ARENA_ALIGNMENT, 0, 1),
            TensorRecord("b", 3 * ARENA_ALIGNMENT, 0, 5),
            TensorRecord("c", 2 * ARENA_ALIGNMENT, 0, 1),
            TensorRecord("d", ARENA_ALIGNMENT, 0, 5),
            TensorRecord("new", ARENA_ALIGNMENT, 2, 5),
        ]
        layout = plan_layout(records)
        assert layout.slots["new"].offset == layout.slots["c"].offset != 0

    def test_deterministic_and_order_independent(self):
        records = [
            TensorRecord("a", 300, 0, 2),
            TensorRecord("b", 300, 1, 3),
            TensorRecord("c", 120, 2, 5),
            TensorRecord("d", 120, 4, 6),
        ]
        base = plan_layout(records)
        for perm in (records[::-1], records[2:] + records[:2]):
            again = plan_layout(perm)
            assert again.slots == base.slots
            assert again.arena_bytes == base.arena_bytes

    def test_one_arena_per_key(self):
        records = [
            TensorRecord("f", 64, 0, 2, key="<f4"),
            TensorRecord("q", 64, 0, 2, key="|u1"),
        ]
        layout = plan_layout(records)
        assert layout.slots["f"].offset == layout.slots["q"].offset == 0
        assert set(layout.arena_bytes) == {"<f4", "|u1"}
        assert layout.total_bytes == 128

    def test_describe_keys(self):
        layout = plan_layout([TensorRecord("a", 64, 0, 1)])
        d = layout.describe()
        assert set(d) == {
            "tensors", "arena_bytes", "peak_bytes", "naive_bytes",
            "reuse_ratio", "alignment",
        }


class TestAliasLiveness:
    def test_reshape_is_alias_op(self):
        assert "reshape" in ALIAS_OP_TYPES

    def test_alias_chain_resolves_to_root(self):
        steps = [
            _step("conv2d", ["x"], ["a"]),
            _step("reshape", ["a"], ["b"]),
            _step("reshape", ["b"], ["c"]),
        ]
        assert alias_roots(steps) == {"b": "a", "c": "a"}

    def test_root_lifetime_extends_through_alias_reads(self):
        steps = [
            _step("conv2d", ["x"], ["a"]),
            _step("reshape", ["a"], ["b"]),
            _step("fully_connected", ["b"], ["c"]),
            _step("softmax", ["c"], ["d"]),
        ]
        last_use, escaped = effective_liveness(steps, ["d"])
        # 'a' is read only at step 1, but its bytes live through step 2 via 'b'
        assert last_use["a"] == 2
        assert escaped == set()

    def test_escaping_alias_unmanages_root(self):
        steps = [
            _step("conv2d", ["x"], ["a"]),
            _step("reshape", ["a"], ["b"]),
        ]
        _, escaped = effective_liveness(steps, ["b"])
        assert escaped == {"a"}


class TestRunArenaParity:
    def test_toy_parity_first_and_steady(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        plan = ExecutionPlan(exported)
        ref = Executor(exported).run_unplanned(toy_inputs)
        first = plan.run_arena(toy_inputs)
        steady_1 = plan.run_arena(toy_inputs)
        steady_2 = plan.run_arena(toy_inputs)
        for name in ref:
            np.testing.assert_array_equal(ref[name], first[name])
            np.testing.assert_array_equal(ref[name], steady_1[name])
            np.testing.assert_array_equal(ref[name], steady_2[name])

    def test_quantized_parity_bit_exact(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats, Numerics.INT8)
        plan = ExecutionPlan(q)
        ref = plan.run(toy_inputs)
        for _ in range(2):
            got = plan.run_arena(toy_inputs)
            for name in ref:
                np.testing.assert_array_equal(ref[name], got[name])
                assert ref[name].dtype == got[name].dtype

    @pytest.mark.parametrize("batch", [32, 7], ids=["full", "ragged_tail"])
    def test_executed_state_is_static_layout(self, cls_exported, batch):
        """The arena that executes is plan_arena's layout — no second one."""
        rng = np.random.default_rng(3)
        spec = cls_exported.inputs[0]
        feeds = {spec.name: rng.normal(0, 0.5, spec.with_batch(batch)).astype(np.float32)}
        q = quantize_graph(cls_exported, calibrate(cls_exported, [feeds]), Numerics.INT8)
        plan = ExecutionPlan(q)
        got = plan.run_arena(feeds)
        (state,) = plan._arena_states.values()
        assert state.layout.slots == plan_arena(plan, batch).slots
        assert state.layout.arena_bytes == plan_arena(plan, batch).arena_bytes
        ref = plan.run(feeds)
        for name in ref:
            np.testing.assert_array_equal(ref[name], got[name])

    def test_feed_off_spec_rejected(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        wrong = {"images": toy_inputs["images"][:, :8]}
        with pytest.raises(ValueError, match="does not match its spec"):
            ExecutionPlan(exported).run_arena(wrong)

    def test_results_survive_next_run(self, toy_exported, toy_inputs):
        """Returned outputs must not alias arena bytes: a later run with
        different data cannot clobber an earlier run's results."""
        exported, out = toy_exported
        plan = ExecutionPlan(exported)
        first = plan.run_arena(toy_inputs)
        saved = {k: v.copy() for k, v in first.items()}
        other = {"images": toy_inputs["images"] * -1.0}
        plan.run_arena(other)
        for name in saved:
            np.testing.assert_array_equal(saved[name], first[name])

    def test_distinct_batch_shapes_get_distinct_states(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        plan = ExecutionPlan(exported)
        full = plan.run_arena(toy_inputs)
        half_feed = {"images": toy_inputs["images"][:3]}
        half = plan.run_arena(half_feed)
        assert len(plan._arena_states) == 2
        np.testing.assert_array_equal(full[out][:3], half[out])

    def test_executor_delegates_run_arena(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        ex = Executor(exported)
        a = ex.run(toy_inputs)
        b = ex.run_arena(toy_inputs)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_profiler_covers_arena_runs(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        plan = ExecutionPlan(exported)
        plan.run_arena(toy_inputs)
        prof = ExecutionProfiler()
        plan.run_arena(toy_inputs, profiler=prof)
        assert set(prof.ops) == {s.name for s in plan._steps}

    def test_missing_feed_raises(self, toy_exported):
        exported, _ = toy_exported
        with pytest.raises(KeyError):
            ExecutionPlan(exported).run_arena({})


class TestStaticArena:
    def test_layout_excludes_outputs_and_validates(self, cls_exported):
        plan = ExecutionPlan(cls_exported)
        layout = plan.arena_layout()
        assert layout.slots  # conv-heavy graph: plenty of managed tensors
        for name in cls_exported.output_names:
            assert name not in layout.slots
        assert check_arena_layout(plan, layout) == []

    def test_reuse_ratio_significant_on_deep_graph(self, cls_exported):
        layout = ExecutionPlan(cls_exported).arena_layout()
        assert layout.reuse_ratio >= 3.0  # ISSUE acceptance floor

    def test_describe_includes_arena(self, toy_exported):
        exported, _ = toy_exported
        d = ExecutionPlan(exported).describe()
        assert set(d) == {
            "graph", "numerics", "ops", "prepacked_ops", "released_tensors", "arena",
        }
        assert {"tensors", "peak_bytes", "reuse_ratio"} <= set(d["arena"])

    def test_batch_scales_footprint(self, cls_exported):
        plan = ExecutionPlan(cls_exported)
        b1 = plan.arena_layout(batch=1).total_bytes
        b4 = plan.arena_layout(batch=4).total_bytes
        assert b1 < b4 <= 4 * b1 + ARENA_ALIGNMENT * len(plan.arena_layout().slots)

    def test_graph_arena_bytes_consistent(self, cls_exported):
        info = graph_arena_bytes(cls_exported)
        assert info["planned_bytes"] == info["arena_bytes"] + info["io_bytes"]
        assert info["planned_bytes"] < info["naive_bytes"]
        assert info["reuse_ratio"] > 3.0

    def test_fp16_plans_manage_nothing(self, toy_exported, toy_inputs):
        """Per-op half rounding is incompatible with in-place writes, so the
        FP16 path must mark no step for the arena and leave it empty."""
        from repro.quantization import convert_fp16

        exported, _ = toy_exported
        plan = ExecutionPlan(convert_fp16(exported))
        assert not any(s.arena for s in plan._steps)
        assert plan.arena_layout().slots == {}
        ref = Executor(plan.graph).run_unplanned(toy_inputs)
        for _ in range(2):
            got = plan.run_arena(toy_inputs)
            for name in ref:
                np.testing.assert_array_equal(ref[name], got[name])


class TestFast1x1:
    def _graph(self):
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder("pw", seed=11)
        x = b.input("x", (-1, 6, 6, 8))
        c = b.conv(x, 16, k=1, stride=1, activation="relu", name="pw")
        b.outputs(c)
        return b.build()

    def test_pointwise_fast_path_bit_exact(self, monkeypatch):
        g = self._graph()
        rng = np.random.default_rng(5)
        feeds = {"x": rng.normal(0, 1, (3, 6, 6, 8)).astype(np.float32)}
        stats = calibrate(g, [feeds])
        q = quantize_graph(g, stats, Numerics.INT8)
        for graph in (g, q):
            fast = ExecutionPlan(graph).run(feeds)
            monkeypatch.setattr(conv_kernels, "FAST_1X1", False)
            slow = ExecutionPlan(graph).run(feeds)
            monkeypatch.setattr(conv_kernels, "FAST_1X1", True)
            for name in fast:
                np.testing.assert_array_equal(fast[name], slow[name])


class TestSUTArenaReuse:
    def test_accuracy_sut_arena_matches_generic(self, cls_exported, cls_dataset):
        """The arena-backed SUT scores exactly what allocating runs of the
        same queries score."""
        sut = AccuracySUT(cls_exported, cls_dataset)
        log = LoadGenerator(TestSettings(mode=Mode.ACCURACY)).run(
            sut, QuerySampleLibrary(cls_dataset)
        )
        executor = Executor(cls_exported)
        predictions = {}
        for record in log.records:
            indices = np.asarray(record.sample_indices)
            outputs = executor.run(cls_dataset.input_batch(indices))
            for j, i in enumerate(indices):
                per_sample = {k: v[j] for k, v in outputs.items()}
                predictions[int(i)] = cls_dataset.postprocess(per_sample, int(i))
        assert predictions.keys() == sut.predictions.keys()
        assert log.accuracy == cls_dataset.evaluate(predictions)

    def test_accuracy_sut_reuses_one_arena_state(self, cls_exported, cls_dataset):
        sut = AccuracySUT(cls_exported, cls_dataset)
        n = len(cls_dataset)
        for lo in range(0, n, 8):
            sut.issue_query(np.arange(lo, min(lo + 8, n)))
        states = sut.executor.plan._arena_states
        # one state per distinct batch shape (full chunks + the tail), not
        # one per issued batch
        assert 1 <= len(states) <= 2

    def test_accuracy_sut_sets_heap_policy(self, cls_exported, cls_dataset, monkeypatch):
        """An accuracy run keeps kernel workspaces below 8 MiB on the heap and
        trims only above 64 MiB of free top, so steady queries do not fault."""
        from repro.loadgen import sut as sut_module

        calls = []
        monkeypatch.setattr(sut_module, "_mallopt", lambda param, value: calls.append((param, value)))
        AccuracySUT(cls_exported, cls_dataset).close()
        assert calls == [
            (sut_module._M_MMAP_THRESHOLD, 8 << 20),
            (sut_module._M_TRIM_THRESHOLD, 64 << 20),
        ]

    def test_performance_sut_memoizes_offline_throughput(self, perf_sut):
        r1 = perf_sut.run_offline(1024, batch=128)
        assert set(perf_sut._offline_fps) == {128}
        r2 = perf_sut.run_offline(1024, batch=128)
        assert r1.throughput_fps == r2.throughput_fps
        perf_sut.run_offline(1024, batch=64)
        assert set(perf_sut._offline_fps) == {64, 128}
