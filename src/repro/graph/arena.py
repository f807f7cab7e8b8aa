"""Liveness-driven static memory planner (TFLite-style arena allocation).

On-device runtimes do not malloc per tensor per inference: they compute
each intermediate's live interval ahead of time and pack all of them into
one preallocated arena, reusing the bytes of tensors whose lifetimes do
not overlap (Lee et al. 2019, §"memory management"; TFLite's
``GreedyBySize`` planner). This module is that planner for our IR:

* :func:`plan_layout` packs abstract ``(size, [first, last])`` records with
  the greedy best-fit-by-decreasing-size algorithm;
* :func:`plan_arena` derives the static layout of an
  :class:`~repro.graph.plan.ExecutionPlan`'s arena-managed tensors from
  tensor specs (no execution needed);
* :func:`graph_arena_bytes` computes the planned activation footprint of a
  (possibly symbolic) graph for the hardware DRAM/footprint model —
  replacing the naive every-intermediate-resident estimate.

Intervals are **inclusive** on both ends: a tensor is live from the step
that defines it through the last step that reads it. Two records may share
bytes only when their intervals are disjoint — which in particular keeps a
step's inputs and outputs in disjoint regions (their intervals both cover
the step itself), so in-place ``out=`` kernel writes can never clobber an
operand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.numerics import Numerics
from .graph import Graph

__all__ = [
    "ALIAS_OP_TYPES",
    "ARENA_ALIGNMENT",
    "ArenaSlot",
    "ArenaLayout",
    "TensorRecord",
    "alias_roots",
    "effective_liveness",
    "plan_layout",
    "plan_arena",
    "graph_arena_bytes",
]

ARENA_ALIGNMENT = 64  # bytes; cache-line alignment, matching TFLite's default

# Op types whose output may be a *view* of their input (zero-copy data
# movement) — the one alias rule; every other op's outputs own their bytes.
# An aliased tensor keeps its source's bytes live: the source's interval must
# extend through every alias's last read, and a source whose alias escapes as
# a graph output cannot be arena-managed at all (the result would be
# clobbered by the next inference).
ALIAS_OP_TYPES = frozenset({"reshape"})


@dataclass(frozen=True)
class TensorRecord:
    """One tensor to place: its size, live interval and arena key."""

    name: str
    nbytes: int
    first: int  # step index that defines the tensor
    last: int  # step index of the last read (inclusive)
    key: str = "default"  # one arena per key (dtype class)


@dataclass(frozen=True)
class ArenaSlot:
    """A placed tensor: byte offset inside the arena keyed ``key``."""

    name: str
    key: str
    offset: int
    nbytes: int
    first: int
    last: int

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


@dataclass(frozen=True)
class ArenaLayout:
    """The full packing result: slots plus per-arena and summary sizes."""

    slots: dict[str, ArenaSlot]
    arena_bytes: dict[str, int]
    alignment: int = ARENA_ALIGNMENT

    @property
    def total_bytes(self) -> int:
        return sum(self.arena_bytes.values())

    @property
    def naive_bytes(self) -> int:
        """Footprint with no reuse: every tensor resident simultaneously."""
        return sum(_align_up(s.nbytes, self.alignment) for s in self.slots.values())

    @property
    def reuse_ratio(self) -> float:
        """naive / planned — how many times over the arena bytes are reused."""
        total = self.total_bytes
        return (self.naive_bytes / total) if total else 1.0

    def describe(self) -> dict:
        return {
            "tensors": len(self.slots),
            "arena_bytes": dict(sorted(self.arena_bytes.items())),
            "peak_bytes": self.total_bytes,
            "naive_bytes": self.naive_bytes,
            "reuse_ratio": round(self.reuse_ratio, 3),
            "alignment": self.alignment,
        }


def _align_up(n: int, alignment: int) -> int:
    return -(-n // alignment) * alignment


def _overlaps(a_first: int, a_last: int, b_first: int, b_last: int) -> bool:
    return a_first <= b_last and b_first <= a_last


def plan_layout(
    records: list[TensorRecord], alignment: int = ARENA_ALIGNMENT
) -> ArenaLayout:
    """Greedy best-fit packing by decreasing size (the TFLite arena planner).

    Tensors are placed largest-first (ties broken by definition step, then
    name, for determinism). Each tensor considers only already-placed slots
    of the same key whose live interval overlaps its own, scans the gaps
    between their occupied byte ranges, and takes the smallest gap that
    fits — or the end of the arena when none does.
    """
    order = sorted(records, key=lambda r: (-r.nbytes, r.first, r.name))
    slots: dict[str, ArenaSlot] = {}
    arena_bytes: dict[str, int] = {}
    for rec in order:
        live = sorted(
            (
                s
                for s in slots.values()
                if s.key == rec.key and _overlaps(s.first, s.last, rec.first, rec.last)
            ),
            key=lambda s: s.offset,
        )
        best_offset: int | None = None
        best_gap: int | None = None
        cursor = 0
        for s in live:
            if s.offset > cursor:
                gap = s.offset - cursor
                if gap >= rec.nbytes and (best_gap is None or gap < best_gap):
                    best_offset, best_gap = cursor, gap
            cursor = max(cursor, _align_up(s.end, alignment))
        offset = best_offset if best_offset is not None else cursor
        slots[rec.name] = ArenaSlot(
            rec.name, rec.key, offset, rec.nbytes, rec.first, rec.last
        )
        arena_bytes[rec.key] = max(arena_bytes.get(rec.key, 0), offset + rec.nbytes)
    return ArenaLayout(slots=slots, arena_bytes=arena_bytes, alignment=alignment)


# -- deriving records from plans and graphs -----------------------------------


def _spec_elements(shape, batch: int) -> int:
    n = 1
    for d in shape:
        n *= batch if d == -1 else int(d)
    return n


def _spec_dtype(graph: Graph, name: str):
    """The stored dtype of a tensor at runtime (codes or float32)."""
    spec = graph.spec(name)
    if graph.numerics.is_quantized and spec.qparams is not None:
        return spec.qparams.numerics.np_dtype
    return np.dtype(np.float32)


def alias_roots(steps) -> dict[str, str]:
    """Map each potentially-view-producing tensor to its ultimate source.

    ``steps`` is any sequence with ``op_type`` / ``inputs`` / ``outputs``
    attributes in topological order; chains of aliases resolve to the root.
    """
    root: dict[str, str] = {}
    for step in steps:
        if step.op_type in ALIAS_OP_TYPES and step.inputs and len(step.outputs) == 1:
            src = step.inputs[0]
            root[step.outputs[0]] = root.get(src, src)
    return root


def effective_liveness(steps, output_names) -> tuple[dict[str, int], set[str]]:
    """Per-tensor last-read step, with alias lifetimes folded into roots.

    Returns ``(last_use, escaped)``: ``last_use[t]`` is the last step index
    reading ``t`` or any alias of it (aliases per :func:`alias_roots`);
    ``escaped`` holds roots whose alias chain reaches a graph output (those
    tensors must not live in the arena).
    """
    root = alias_roots(steps)
    last_use: dict[str, int] = {}
    for i, step in enumerate(steps):
        for t in step.inputs:
            last_use[t] = i
    escaped: set[str] = set()
    outputs = set(output_names)
    for t, r in root.items():
        if t in outputs:
            escaped.add(r)
        if t in last_use:
            last_use[r] = max(last_use.get(r, -1), last_use[t])
    return last_use, escaped


def plan_arena(plan, batch: int = 1) -> ArenaLayout:
    """Static layout of a plan's arena-managed tensors, from specs alone.

    Managed tensors are the outputs of single-output steps that compile an
    ``out=``-capable kernel (``PlannedStep.arena``), excluding graph outputs
    (results must survive into the caller) and tensors whose bytes escape
    through a view-producing alias chain. This is the one layout: it is what
    :meth:`~repro.graph.plan.ExecutionPlan.run_arena` executes, what
    ``describe()`` reports and what PL007 cross-checks.
    """
    graph = plan.graph
    records = []
    last_use, escaped = effective_liveness(plan._steps, graph.output_names)
    outputs = set(graph.output_names)
    for i, step in enumerate(plan._steps):
        if not step.arena or len(step.outputs) != 1:
            continue
        t = step.outputs[0]
        if t in outputs or t in escaped or t not in last_use:
            continue
        dtype = _spec_dtype(graph, t)
        nbytes = _spec_elements(graph.spec(t).shape, batch) * dtype.itemsize
        records.append(TensorRecord(t, int(nbytes), i, last_use[t], key=str(dtype)))
    return plan_layout(records)


def graph_arena_bytes(
    graph: Graph, numerics: Numerics | None = None, batch: int = 1
) -> dict:
    """Planned activation footprint of a graph (works on symbolic graphs).

    Packs *every* op-produced intermediate with the arena planner — the
    memory model of an ideal runtime — and reports the planned peak next to
    the no-reuse footprint and the resident I/O bytes. The hardware
    simulator consumes ``arena_bytes + io_bytes`` as the per-sample
    activation working set.
    """
    numerics = numerics or graph.numerics

    def tensor_bytes(name: str) -> int:
        spec = graph.spec(name)
        if numerics.is_quantized and spec.qparams is not None:
            per = spec.qparams.numerics.bytes_per_element
        else:
            per = numerics.bytes_per_element
        return int(_spec_elements(spec.shape, batch) * per)

    last_use: dict[str, int] = {}
    for i, op in enumerate(graph.ops):
        for t in op.inputs:
            last_use[t] = i
    outputs = set(graph.output_names)
    records = []
    for i, op in enumerate(graph.ops):
        for t in op.outputs:
            if t in outputs or t not in last_use:
                continue
            records.append(TensorRecord(t, tensor_bytes(t), i, last_use[t]))
    layout = plan_layout(records)
    io_bytes = sum(tensor_bytes(s.name) for s in graph.inputs) + sum(
        tensor_bytes(n) for n in graph.output_names
    )
    return {
        "arena_bytes": layout.total_bytes,
        "io_bytes": io_bytes,
        "naive_bytes": layout.naive_bytes + io_bytes,
        "planned_bytes": layout.total_bytes + io_bytes,
        "reuse_ratio": layout.reuse_ratio,
    }
