"""Planned execution engine: one-time compilation of a materialized graph.

The LoadGen design rule (MLPerf Inference, arXiv:1911.02549) is that query
issuance and harness bookkeeping must never be the bottleneck — measured
latency has to reflect the workload. The legacy interpreter re-derived
everything per query: quantized conv kernels re-cast and re-reduced their
weight tensors on every call, activation LUTs were rebuilt per op call, and
the environment retained every intermediate for the whole pass.

An :class:`ExecutionPlan` is compiled once per ``(graph, numerics)`` and
caches four things:

1. **Prepacked constants** — weight matrices, zero-point column sums,
   effective scales, widened biases and activation LUTs, via the kernel-level
   prepack API (:mod:`repro.kernels.conv`, :mod:`repro.kernels.linear`).
2. **Dispatch** — each op is bound to one prepared closure
   ``fn(ins, out=None)``, so the per-query loop is a flat list of calls with
   no attribute/spec lookups.
3. **Tensor liveness** — each intermediate is released from the environment
   right after its last consumer runs, so peak live activation bytes track
   the true working set instead of the whole activation footprint.
4. **One static arena layout** per batch size (:func:`repro.graph.arena.plan_arena`),
   derived from the graph alone; :meth:`ExecutionPlan.run_arena` writes every
   managed intermediate into it.

Plans are bit-exact with the legacy interpreter (``Executor.run_unplanned``)
in all four numerics modes: the prepacked kernels perform the identical
operation sequence, merely hoisted out of the per-query path.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable

import numpy as np

from .. import kernels as K
from ..kernels.numerics import Numerics, cast_fp16, dequantize, quantize
from .arena import ArenaLayout, _spec_dtype, plan_arena
from .graph import Graph
from .ops import (
    ACTIVATION_FUNCTIONS,
    Activation,
    Add,
    Conv2D,
    DepthwiseConv2D,
    FullyConnected,
    Op,
)
from .profiler import ExecutionProfiler

__all__ = ["ExecutionPlan", "PlannedStep"]

Observer = Callable[[str, np.ndarray], None]

# compiled plans are cached per graph object (plans hold only read-only views
# of the graph's parameters, so sharing across executors/threads is safe)
_PLAN_CACHE: "weakref.WeakKeyDictionary[Graph, tuple[tuple, ExecutionPlan]]" = (
    weakref.WeakKeyDictionary()
)


def _graph_fingerprint(graph: Graph) -> tuple:
    """Cheap mutation detector for the plan cache.

    Model fitting, cross-layer equalization and bias correction all *replace*
    parameter arrays on an already-executed graph, so a cached plan keyed on
    graph identity alone would serve stale prepacked constants. The
    fingerprint keeps weak references to the parameter arrays (plus op count
    and numerics), which :func:`_fingerprint_matches` compares by identity.
    Bare ``id()``s are not enough: a replaced array's id can be reused by a
    later one. Strong references would keep every replaced array alive.
    """
    return (
        graph.numerics,
        graph.frozen,
        len(graph.ops),
        tuple(None if a is None else weakref.ref(a) for a in graph.params.values()),
    )


def _fingerprint_matches(fingerprint: tuple, graph: Graph) -> bool:
    refs = fingerprint[3]
    return (
        fingerprint[:3] == (graph.numerics, graph.frozen, len(graph.ops))
        and len(refs) == len(graph.params)
        and all(
            (None if r is None else r()) is a for r, a in zip(refs, graph.params.values())
        )
    )


class PlannedStep:
    """One prepared op call: bound kernel closure plus liveness bookkeeping.

    ``fn(ins, out=None)`` returns the op's outputs. ``arena`` marks steps
    whose single output the kernel can write into a caller-provided ``out``
    buffer (fused epilogues then run in place there); only those steps'
    outputs are placed in the static arena.
    """

    __slots__ = ("name", "op_type", "inputs", "outputs", "fn", "arena", "release", "prepacked")

    def __init__(
        self,
        name: str,
        op_type: str,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        fn: Callable[..., list[np.ndarray]],
        prepacked: bool,
        arena: bool,
    ):
        self.name = name
        self.op_type = op_type
        self.inputs = inputs
        self.outputs = outputs
        self.fn = fn
        self.arena = arena
        self.release: tuple[str, ...] = ()
        self.prepacked = prepacked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "prepacked" if self.prepacked else "generic"
        return f"<PlannedStep {self.op_type}:{self.name} [{tag}]>"


class ExecutionPlan:
    """A compiled, reusable execution schedule for one materialized graph."""

    def __init__(self, graph: Graph):
        if graph.is_symbolic:
            raise ValueError(f"graph {graph.name!r} is symbolic and cannot execute")
        self.graph = graph
        self.numerics = graph.numerics
        self._arena_lock = threading.Lock()
        self._arena_states: dict[tuple, _ArenaState] = {}
        self._static_arena: ArenaLayout | None = None
        self._compile()

    @classmethod
    def for_graph(cls, graph: Graph) -> "ExecutionPlan":
        """Shared per-graph plan (weakly cached; recompiled if the graph mutated)."""
        cached = _PLAN_CACHE.get(graph)
        if cached is not None and _fingerprint_matches(cached[0], graph):
            return cached[1]
        plan = cls(graph)
        _PLAN_CACHE[graph] = (_graph_fingerprint(graph), plan)
        return plan

    # -- compilation --------------------------------------------------------
    def _compile(self) -> None:
        g = self.graph
        quantized = self.numerics.is_quantized
        self._input_prep: list[tuple[str, object]] = [
            (spec.name, spec.qparams if quantized and spec.qparams is not None else None)
            for spec in g.inputs
        ]
        self._output_qp = {name: g.spec(name).qparams for name in g.output_names}

        steps: list[PlannedStep] = []
        for op in g.ops:
            fn, prepacked, arena = self._bind(op)
            if self.numerics == Numerics.FP16:
                # per-op half rounding allocates, so nothing can be written in place
                fn, arena = _fp16_wrap(fn), False
            steps.append(
                PlannedStep(
                    op.name, op.op_type, tuple(op.inputs), tuple(op.outputs), fn, prepacked,
                    arena,
                )
            )
        self._steps = steps
        self._no_views: list[np.ndarray | None] = [None] * len(steps)

        protected = set(g.output_names)
        last_use: dict[str, int] = {}
        for i, step in enumerate(steps):
            for t in step.inputs:
                last_use[t] = i
        for i, step in enumerate(steps):
            step.release = tuple(
                sorted({t for t in step.inputs if last_use[t] == i and t not in protected})
            )

    def _bind(self, op: Op) -> tuple[Callable, bool, bool]:
        """Bind ``op`` to ``(fn, prepacked, arena)`` for this plan's numerics."""
        if self.numerics.is_quantized:
            return self._bind_quantized(op)
        return self._bind_float(op)

    # The fast paths below must replicate the exact operation sequence of the
    # corresponding ``Op.execute_*`` methods (ops.py): same casts, same
    # rounding, same clamp constants — only hoisted to compile time. Each
    # closure writes through the kernels' ``out=`` parameters when given a
    # buffer and runs its fused epilogue in place on whatever buffer the
    # kernel wrote; activations without an in-place form allocate their
    # result, which keeps that step out of the arena.

    def _bind_float(self, op: Op) -> tuple[Callable, bool, bool]:
        g = self.graph
        if type(op) is Conv2D:
            pack = K.prepack_conv2d(
                g.params[op.attrs["weight"]], g.params.get(op.attrs.get("bias"))
            )
            stride = op.attrs["stride"]
            padding = op.attrs["padding"]
            dilation = op.attrs.get("dilation", 1)
            epi, inplace = _float_act_inplace(op)
            def conv_fn(ins, out=None, pack=pack, epi=epi):
                y = K.conv2d_prepacked(
                    ins[0], pack, stride=stride, padding=padding, dilation=dilation, out=out
                )
                return [y if epi is None else epi(y)]
            return conv_fn, True, inplace
        if type(op) is DepthwiseConv2D:
            pack = K.prepack_depthwise_conv2d(
                g.params[op.attrs["weight"]], g.params.get(op.attrs.get("bias"))
            )
            stride = op.attrs["stride"]
            padding = op.attrs["padding"]
            epi, inplace = _float_act_inplace(op)
            def dw_fn(ins, out=None, pack=pack, epi=epi):
                y = K.depthwise_conv2d_prepacked(
                    ins[0], pack, stride=stride, padding=padding, out=out
                )
                return [y if epi is None else epi(y)]
            return dw_fn, True, inplace
        if type(op) is FullyConnected:
            pack = K.prepack_fully_connected(
                g.params[op.attrs["weight"]], g.params.get(op.attrs.get("bias"))
            )
            epi, inplace = _float_act_inplace(op)
            def fc_fn(ins, out=None, pack=pack, epi=epi):
                y = K.fully_connected_prepacked(ins[0], pack, out=out)
                return [y if epi is None else epi(y)]
            return fc_fn, True, inplace
        if type(op) is Add:
            epi, inplace = _float_act_inplace(op)
            def add_fn(ins, out=None, epi=epi):
                y = np.add(ins[0], ins[1], out=out).astype(np.float32, copy=False)
                return [y if epi is None else epi(y)]
            return add_fn, False, inplace
        if type(op) is Activation:
            kind = op.attrs["kind"]
            act = _FLOAT_INPLACE.get(kind)
            if act is not None:
                return (
                    (lambda ins, out=None, act=act:
                        [act(ins[0], out).astype(np.float32, copy=False)]),
                    False,
                    True,
                )
            act_fn = ACTIVATION_FUNCTIONS[kind]
            return (lambda ins, out=None, act_fn=act_fn: [act_fn(ins[0])]), False, False
        return (lambda ins, out=None, op=op, g=g: op.execute_float(ins, g)), False, False

    def _bind_quantized(self, op: Op) -> tuple[Callable, bool, bool]:
        g = self.graph
        if type(op) in (Conv2D, DepthwiseConv2D):
            qparams = _conv_qparams(op, g)
            if qparams is not None:
                x_qp, w_qp, out_qp = qparams
                wq = g.params[op.attrs["weight"]]
                bq = g.params.get(op.attrs.get("bias"))
                stride = op.attrs["stride"]
                padding = op.attrs["padding"]
                epi = _quantized_conv_post_inplace(op, out_qp)
                if type(op) is Conv2D:
                    pack = K.prepack_conv2d_quantized(wq, bq, x_qp, w_qp)
                    dilation = op.attrs.get("dilation", 1)
                    def qconv_fn(ins, out=None, pack=pack, epi=epi):
                        y = K.conv2d_quantized_prepacked(
                            ins[0], pack, out_qp,
                            stride=stride, padding=padding, dilation=dilation, out=out,
                        )
                        if epi is not None:
                            epi(y)
                        return [y]
                    return qconv_fn, True, True
                pack = K.prepack_depthwise_conv2d_quantized(wq, bq, x_qp, w_qp)
                def qdw_fn(ins, out=None, pack=pack, epi=epi):
                    y = K.depthwise_conv2d_quantized_prepacked(
                        ins[0], pack, out_qp, stride=stride, padding=padding, out=out
                    )
                    if epi is not None:
                        epi(y)
                    return [y]
                return qdw_fn, True, True
        if type(op) is FullyConnected:
            qparams = _conv_qparams(op, g)
            if qparams is not None:
                x_qp, w_qp, out_qp = qparams
                pack = K.prepack_fully_connected_quantized(
                    g.params[op.attrs["weight"]], g.params.get(op.attrs.get("bias")), x_qp, w_qp
                )
                act = op.attrs.get("activation")
                lut = (
                    K.quantized_lut(ACTIVATION_FUNCTIONS[act], out_qp, out_qp)
                    if act is not None
                    else None
                )
                def qfc_fn(ins, out=None, pack=pack, lut=lut):
                    y = K.fully_connected_quantized_prepacked(ins[0], pack, out_qp, out=out)
                    if lut is not None:
                        K.apply_quantized_lut(y, lut, out_qp, out=y)
                    return [y]
                return qfc_fn, True, True
        if type(op) is Activation:
            in_qp = g.spec(op.inputs[0]).qparams
            out_qp = g.spec(op.outputs[0]).qparams
            if in_qp is not None and out_qp is not None:
                lut = K.quantized_lut(ACTIVATION_FUNCTIONS[op.attrs["kind"]], in_qp, out_qp)
                return (
                    (lambda ins, out=None, lut=lut, in_qp=in_qp:
                        [K.apply_quantized_lut(ins[0], lut, in_qp, out=out)]),
                    True,
                    True,
                )
        return (lambda ins, out=None, op=op, g=g: op.execute_quantized(ins, g)), False, False

    # -- execution -----------------------------------------------------------
    def run(
        self,
        feeds: dict[str, np.ndarray],
        observer: Observer | None = None,
        profiler: ExecutionProfiler | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute and return the output tensors (always dequantized floats).

        ``observer`` (used for PTQ calibration) is called with every float
        intermediate; it is only valid on FP32 graphs. ``profiler``
        accumulates per-op kernel time, bytes moved and peak live bytes.
        """
        if observer is not None and self.numerics != Numerics.FP32:
            raise ValueError("calibration observers require an FP32 graph")
        env = self._feed_env(feeds)
        self._execute(env, self._no_views, observer, profiler)
        return self._collect_outputs(env)

    def __call__(self, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return self.run(feeds)

    def run_arena(
        self,
        feeds: dict[str, np.ndarray],
        profiler: ExecutionProfiler | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute with every managed intermediate written into a static arena.

        The arena of each (thread, batch size) is laid out once by
        :func:`~repro.graph.arena.plan_arena` — from tensor specs, before
        anything runs — and materialized as one buffer per dtype class.
        Every call, the first included, dispatches managed steps into their
        preallocated views, so the hot path performs no transient output
        allocations for managed ops. Results are bit-identical to
        :meth:`run` — same closures, same buffers' contents. Feeds must match
        the input specs up to the batch size.
        """
        env = self._feed_env(feeds)
        key = (threading.get_ident(), _feed_batch(self.graph, env))
        with self._arena_lock:
            state = self._arena_states.get(key)
        if state is None:
            state = self._arena_state(key[1])
            with self._arena_lock:
                self._arena_states[key] = state
        self._execute(env, state.views, None, profiler)
        return self._collect_outputs(env)

    def _feed_env(self, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        env: dict[str, np.ndarray] = {}
        for name, qp in self._input_prep:
            if name not in feeds:
                raise KeyError(f"missing feed for input {name!r}")
            arr = np.asarray(feeds[name])
            if qp is not None:
                arr = quantize(arr, qp)
            env[name] = arr
        return env

    def _execute(
        self,
        env: dict[str, np.ndarray],
        views: list[np.ndarray | None],
        observer: Observer | None,
        profiler: ExecutionProfiler | None,
    ) -> None:
        """The step loop: ``views[i]``, when set, receives step ``i``'s output."""
        live_bytes = 0
        if profiler is not None:
            profiler.runs += 1
            live_bytes = sum(a.nbytes for a in env.values())
            profiler.note_live_bytes(live_bytes)

        for step, view in zip(self._steps, views):
            ins = [env[t] for t in step.inputs]
            if profiler is None:
                outs = step.fn(ins, view)
            else:
                t0 = time.perf_counter()
                outs = step.fn(ins, view)
                elapsed = time.perf_counter() - t0
                moved = sum(a.nbytes for a in ins) + sum(a.nbytes for a in outs)
                profiler.record(step.name, step.op_type, elapsed, moved)
            for t, arr in zip(step.outputs, outs):
                env[t] = arr
                if observer is not None and np.issubdtype(arr.dtype, np.floating):
                    observer(t, arr)
            if profiler is not None:
                live_bytes += sum(env[t].nbytes for t in step.outputs)
                for t in step.release:
                    live_bytes -= env[t].nbytes
                    del env[t]
                profiler.note_live_bytes(live_bytes)
            else:
                for t in step.release:
                    del env[t]

    def _arena_state(self, batch: int) -> "_ArenaState":
        """Buffers and per-step output views for ``plan_arena(self, batch)``."""
        g = self.graph
        layout = plan_arena(self, batch)
        buffers = {
            k: np.empty(nbytes, dtype=np.uint8) for k, nbytes in layout.arena_bytes.items()
        }
        views: list[np.ndarray | None] = []
        for step in self._steps:
            slot = layout.slots.get(step.outputs[0])
            if slot is None:
                views.append(None)
                continue
            view = buffers[slot.key][slot.offset : slot.end].view(_spec_dtype(g, slot.name))
            views.append(view.reshape(g.spec(slot.name).with_batch(batch)))
        return _ArenaState(layout=layout, buffers=buffers, views=views)

    def _collect_outputs(self, env: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        results = {}
        for name in self.graph.output_names:
            arr = env[name]
            qp = self._output_qp[name]
            if (
                self.numerics.is_quantized
                and qp is not None
                and not np.issubdtype(arr.dtype, np.floating)
            ):
                arr = dequantize(arr, qp)
            results[name] = arr
        return results

    # -- introspection -------------------------------------------------------
    @property
    def num_prepacked(self) -> int:
        return sum(1 for s in self._steps if s.prepacked)

    def arena_layout(self, batch: int = 1) -> ArenaLayout:
        """Static (spec-derived) layout of the managed tensors at ``batch``."""
        if batch == 1:
            if self._static_arena is None:
                self._static_arena = plan_arena(self, batch=1)
            return self._static_arena
        return plan_arena(self, batch=batch)

    def describe(self) -> dict:
        """Summary of what compilation cached (docs/debugging aid)."""
        return {
            "graph": self.graph.name,
            "numerics": self.numerics.value,
            "ops": len(self._steps),
            "prepacked_ops": self.num_prepacked,
            "released_tensors": sum(len(s.release) for s in self._steps),
            "arena": self.arena_layout(batch=1).describe(),
        }


class _ArenaState:
    """Per-(thread, batch) arena buffers and per-step output views."""

    __slots__ = ("layout", "buffers", "views")

    def __init__(
        self,
        layout: ArenaLayout,
        buffers: dict[str, np.ndarray],
        views: list[np.ndarray | None],
    ):
        self.layout = layout
        self.buffers = buffers
        self.views = views


def _feed_batch(graph: Graph, env: dict[str, np.ndarray]) -> int:
    """The batch size of a feed set; every feed must match its spec at it."""
    batch = 1
    for spec in graph.inputs:
        if -1 in spec.shape and env[spec.name].ndim == len(spec.shape):
            batch = env[spec.name].shape[spec.shape.index(-1)]
            break
    for spec in graph.inputs:
        if env[spec.name].shape != spec.with_batch(batch):
            raise ValueError(
                f"feed {spec.name!r} has shape {env[spec.name].shape}, which does not "
                f"match its spec {spec.shape} at batch {batch}"
            )
    return batch


def _fp16_wrap(fn: Callable) -> Callable:
    """Round every float op output through IEEE half, as the legacy loop did."""
    def wrapped(ins, out=None):
        return [
            cast_fp16(o) if np.issubdtype(o.dtype, np.floating) else o for o in fn(ins)
        ]
    return wrapped


# float activations with an in-place form: ``act(x, out)`` writes into ``out``
# (allocating when it is None) with the same values as ACTIVATION_FUNCTIONS
_FLOAT_INPLACE = {
    "relu": lambda x, out=None: np.maximum(x, 0.0, out=out),
    "relu6": lambda x, out=None: np.clip(x, 0.0, 6.0, out=out),
}


def _float_act_inplace(op: Op):
    """The fused float activation epilogue of ``op`` as ``(epi, inplace)``.

    ``epi(y)`` returns the activated result (None: no activation). relu and
    relu6 overwrite ``y`` in place, so the step may write into the arena;
    other activations allocate their result and keep the step out of it.
    """
    act = op.attrs.get("activation")
    if act is None:
        return None, True
    inplace = _FLOAT_INPLACE.get(act)
    if inplace is None:
        return ACTIVATION_FUNCTIONS[act], False
    return (lambda y: inplace(y, y)), True


def _conv_qparams(op: Op, g: Graph):
    """The (x, w, out) qparams of an integer-kernel op, or None to fall back."""
    x_qp = g.spec(op.inputs[0]).qparams
    w_qp = g.param_qparams.get(op.attrs["weight"])
    out_qp = g.spec(op.outputs[0]).qparams
    if x_qp is None or w_qp is None or out_qp is None:
        return None
    return x_qp, w_qp, out_qp


def _quantized_conv_post_inplace(op: Op, out_qp):
    """The integer-domain activation epilogue of a quantized conv, applied in
    place to the kernel's codes (which already carry the output dtype)."""
    act = op.attrs.get("activation")
    if act is None:
        return None
    if act in ("relu", "relu6"):
        # clamp in the integer domain at the quantized representation of 0/6
        zp = int(out_qp.zero_point[0])
        lo = zp
        hi = out_qp.numerics.qmax
        if act == "relu6":
            hi = min(hi, int(round(6.0 / float(out_qp.scale[0])) + zp))
        return lambda out: np.clip(out, lo, hi, out=out)
    lut = K.quantized_lut(ACTIVATION_FUNCTIONS[act], out_qp, out_qp)
    return lambda out: K.apply_quantized_lut(out, lut, out_qp, out=out)
