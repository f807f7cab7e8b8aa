"""Planned execution engine: bit-exactness, liveness, profiler, RNG blocks."""

import zlib

import numpy as np
import pytest

from repro.graph import ExecutionPlan, ExecutionProfiler, Executor, export_mobile
from repro.graph.arena import ALIAS_OP_TYPES, plan_arena
from repro.kernels import Numerics
from repro.loadgen.qsl import QuerySampleLibrary
from repro.datasets.base import IndexDataset
from repro.models import available_models, create_reference_model
from repro.quantization import calibrate, convert_fp16, quantize_graph

NUMERICS_MODES = [Numerics.FP32, Numerics.FP16, Numerics.INT8, Numerics.UINT8]


def _random_feeds(graph, rng, batch=4):
    """Role-aware random feeds for any zoo reference graph."""
    feeds = {}
    for spec in graph.inputs:
        shape = spec.with_batch(batch)
        if spec.role == "ids":
            feeds[spec.name] = rng.integers(0, 28, size=shape).astype(np.float32)
        elif spec.role == "mask":
            feeds[spec.name] = np.ones(shape, dtype=np.float32)
        else:
            feeds[spec.name] = rng.normal(0, 0.5, size=shape).astype(np.float32)
    return feeds


@pytest.fixture(scope="module", params=available_models())
def zoo_artifacts(request):
    """Per-model: exported FP32 graph, feeds, and calibration stats."""
    name = request.param
    bundle = create_reference_model(name, fitted=False)
    exported = export_mobile(bundle.graph)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    feeds = _random_feeds(exported, rng)
    stats = calibrate(exported, [feeds])
    return exported, feeds, stats


def _deployment(exported, stats, numerics):
    if numerics == Numerics.FP32:
        return exported
    if numerics == Numerics.FP16:
        return convert_fp16(exported)
    return quantize_graph(exported, stats, numerics)


def _walk_steps(plan, feeds):
    """Run ``plan``'s allocating closures one by one, yielding every step
    with its input and output arrays (the inputs are still live)."""
    env = plan._feed_env(feeds)
    for step in plan._steps:
        ins = [env[t] for t in step.inputs]
        outs = step.fn(ins)
        yield step, ins, outs
        env.update(zip(step.outputs, outs))


class TestBitExactness:
    @pytest.mark.parametrize("numerics", NUMERICS_MODES, ids=lambda n: n.value)
    def test_plan_matches_legacy_executor(self, zoo_artifacts, numerics):
        """ExecutionPlan output == legacy interpreting loop, bit for bit."""
        exported, feeds, stats = zoo_artifacts
        graph = _deployment(exported, stats, numerics)
        ex = Executor(graph)
        legacy = ex.run_unplanned(feeds)
        planned = ex.run(feeds)
        assert legacy.keys() == planned.keys()
        for name in legacy:
            np.testing.assert_array_equal(legacy[name], planned[name])
            assert legacy[name].dtype == planned[name].dtype

    @pytest.mark.parametrize("numerics", NUMERICS_MODES, ids=lambda n: n.value)
    def test_arena_matches_legacy_executor(self, zoo_artifacts, numerics):
        """Arena execution == legacy interpreting loop, bit for bit: the first
        call and two steady calls, so buffer reuse across calls is covered."""
        exported, feeds, stats = zoo_artifacts
        graph = _deployment(exported, stats, numerics)
        legacy = Executor(graph).run_unplanned(feeds)
        plan = ExecutionPlan(graph)
        for _ in range(3):
            got = plan.run_arena(feeds)
            assert legacy.keys() == got.keys()
            for name in legacy:
                np.testing.assert_array_equal(legacy[name], got[name])
                assert legacy[name].dtype == got[name].dtype

    @pytest.mark.parametrize("numerics", NUMERICS_MODES, ids=lambda n: n.value)
    def test_only_alias_ops_share_memory(self, zoo_artifacts, numerics):
        """ALIAS_OP_TYPES is the whole alias rule: no other step's output may
        share memory with its inputs. And every arena slot planned from specs
        holds exactly the bytes, shape and dtype its step produces."""
        exported, feeds, stats = zoo_artifacts
        plan = ExecutionPlan(_deployment(exported, stats, numerics))
        batch = next(iter(feeds.values())).shape[0]
        slots = plan_arena(plan, batch).slots
        placed = set()
        for step, ins, outs in _walk_steps(plan, feeds):
            if step.op_type not in ALIAS_OP_TYPES:
                for out in outs:
                    assert not any(np.may_share_memory(out, x) for x in ins), step.name
            slot = slots.get(step.outputs[0])
            if slot is not None:
                placed.add(slot.name)
                assert outs[0].nbytes == slot.nbytes, slot.name
                assert outs[0].shape == plan.graph.spec(slot.name).with_batch(batch)
                assert slot.key == str(outs[0].dtype)
        assert placed == set(slots)

    def test_repeated_runs_deterministic(self, zoo_artifacts):
        exported, feeds, _ = zoo_artifacts
        plan = ExecutionPlan.for_graph(exported)
        a = plan.run(feeds)
        b = plan.run(feeds)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestPlanCompilation:
    def test_symbolic_rejected(self):
        from repro.models import create_full_model

        with pytest.raises(ValueError):
            ExecutionPlan(create_full_model("mobilenet_edgetpu").graph)

    def test_missing_feed_raises(self, toy_exported):
        exported, _ = toy_exported
        with pytest.raises(KeyError):
            ExecutionPlan(exported).run({})

    def test_plan_cache_shares_and_invalidates(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        plan_a = ExecutionPlan.for_graph(exported)
        assert ExecutionPlan.for_graph(exported) is plan_a
        # replacing a parameter array must invalidate the cached plan
        before = plan_a.run(toy_inputs)[out]
        w_name = next(n for n, v in exported.params.items() if v is not None and v.ndim == 4)
        exported.params[w_name] = exported.params[w_name] * 2.0
        plan_b = ExecutionPlan.for_graph(exported)
        assert plan_b is not plan_a
        after = plan_b.run(toy_inputs)[out]
        assert not np.array_equal(before, after)
        # a double replacement frees the first new array before the second
        # is made, so the second may reuse its id: the cache must still see it
        exported.params[w_name] = exported.params[w_name] * 2.0
        exported.params[w_name] = exported.params[w_name] * 3.0
        plan_c = ExecutionPlan.for_graph(exported)
        assert plan_c is not plan_b
        np.testing.assert_array_equal(
            plan_c.run(toy_inputs)[out], Executor(exported).run_unplanned(toy_inputs)[out]
        )

    def test_integer_kernels_prepacked(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats)
        plan = ExecutionPlan(q)
        prepacked_types = {
            s.op_type for s in plan._steps if s.prepacked
        }
        assert {"conv2d", "depthwise_conv2d", "fully_connected"} <= prepacked_types

    def test_observer_sees_all_float_tensors(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        seen = set()
        ExecutionPlan(exported).run(toy_inputs, observer=lambda n, v: seen.add(n))
        produced = {t for op in exported.ops for t in op.outputs}
        assert produced <= seen

    def test_observer_rejected_off_fp32(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        g = convert_fp16(exported)
        with pytest.raises(ValueError):
            ExecutionPlan(g).run(toy_inputs, observer=lambda n, v: None)


class TestLiveness:
    def test_peak_live_bytes_drops(self, cls_exported):
        """Liveness release must shrink the peak activation working set."""
        rng = np.random.default_rng(0)
        shape = tuple(4 if d == -1 else d for d in cls_exported.inputs[0].shape)
        feeds = {"images": rng.normal(0, 0.5, shape).astype(np.float32)}
        prof = ExecutionProfiler()
        ExecutionPlan(cls_exported).run(feeds, profiler=prof)
        # the unplanned executor retains everything: its footprint is the sum
        # of every input and op output it produces
        resident = []
        Executor(cls_exported).run_unplanned(feeds, tap=lambda n, v: resident.append(v.nbytes))
        assert prof.peak_live_bytes < 0.6 * sum(resident)

    def test_outputs_never_released(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        plan = ExecutionPlan(exported)
        released = {t for s in plan._steps for t in s.release}
        assert out not in released


class TestProfiler:
    def test_profile_covers_every_op(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        prof = ExecutionProfiler()
        Executor(exported).run(toy_inputs, profiler=prof)
        assert set(prof.ops) == {op.name for op in exported.ops}
        assert all(p.calls == 1 for p in prof.ops.values())
        assert all(p.bytes_moved > 0 for p in prof.ops.values())
        assert prof.total_seconds > 0
        assert prof.runs == 1

    def test_top_sorted_and_summary_renders(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        prof = ExecutionProfiler()
        Executor(exported).run(toy_inputs, profiler=prof)
        top = prof.top(3)
        assert len(top) == 3
        assert top[0].total_seconds >= top[1].total_seconds >= top[2].total_seconds
        text = prof.summary()
        assert "peak live activations" in text
        payload = prof.as_dict()
        assert payload["runs"] == 1 and len(payload["ops"]) == len(exported.ops)


class TestQSLBlockSampling:
    def test_block_draw_matches_per_query_stream(self):
        """Pre-drawn blocks reproduce the legacy per-query sequence exactly."""
        a = QuerySampleLibrary(IndexDataset(64), performance_sample_count=32, seed=99)
        b = QuerySampleLibrary(IndexDataset(64), performance_sample_count=32, seed=99)
        a.load_performance_set()
        b.load_performance_set()
        # cross the block boundary to cover at least one refill
        n = a.block_size + 50
        legacy = [int(a.sample_indices(1)[0]) for _ in range(n)]
        blocked = [b.next_sample_index() for _ in range(n)]
        assert legacy == blocked

    def test_residency_change_invalidates_block(self):
        qsl = QuerySampleLibrary(IndexDataset(64), performance_sample_count=8, seed=7)
        qsl.load_performance_set()
        first = qsl.next_sample_index()
        assert isinstance(first, int)
        qsl.load_samples(np.array([63]))
        assert qsl._block is None  # block discarded on residency change
        assert 0 <= qsl.next_sample_index() < 64
