#!/usr/bin/env python
"""Arena-execution benchmark: planned path vs static-arena path.

Measures single-stream (batch=1) INT8 queries on the two most memory-bound
zoo models through two plan paths:

1. ``planned`` — the compiled :class:`ExecutionPlan` (PR-1 path): prepacked
   kernels, liveness release, but a fresh output allocation per op;
2. ``arena``   — :meth:`ExecutionPlan.run_arena`: every managed
   intermediate written in place into the static memory arena, zero
   transient output allocations.

Alongside the timing it records the planner's memory story: the arena peak
versus the no-reuse footprint (every intermediate resident at once). The
acceptance floor is a >= 3x peak-memory reduction on MobileNetEdgeTPU and
DeepLabv3+ and bit-exact parity between the two paths.

Writes ``BENCH_arena.json``.  Run:
    PYTHONPATH=src python benchmarks/bench_arena.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.graph import ExecutionPlan, Executor, export_mobile
from repro.kernels import Numerics
from repro.models import create_reference_model
from repro.quantization import calibrate, quantize_graph

DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_arena.json"
MODELS = ("mobilenet_edgetpu", "deeplab_v3plus")
MIN_MEMORY_REDUCTION = 3.0


def build_int8(name: str, seed: int = 0):
    """INT8 deployment of one zoo model plus a single-sample query pool."""
    bundle = create_reference_model(name, fitted=False)
    exported = export_mobile(bundle.graph)
    rng = np.random.default_rng(seed)
    spec = exported.inputs[0]
    single = tuple(1 if d == -1 else d for d in spec.shape)
    calib = [{spec.name: rng.normal(0, 0.5, single).astype(np.float32)} for _ in range(2)]
    stats = calibrate(exported, calib)
    graph = quantize_graph(exported, stats, Numerics.INT8)
    pool = [{spec.name: rng.normal(0, 0.5, single).astype(np.float32)} for _ in range(8)]
    return graph, pool


def _time_paths(paths, pool, queries: int, rounds: int = 4) -> list[float]:
    """Time each path in interleaved rounds so clock drift and cache state
    cancel out instead of biasing whichever path runs last."""
    for fn in paths:
        fn(pool[0])  # warm-up: build the arena outside the timed window
    per_round = max(1, queries // rounds)
    totals = [0.0] * len(paths)
    for _ in range(rounds):
        for i, fn in enumerate(paths):
            t0 = time.perf_counter()
            for q in range(per_round):
                fn(pool[q % len(pool)])
            totals[i] += time.perf_counter() - t0
    return totals


def bench_model(name: str, queries: int, check: bool) -> dict:
    graph, pool = build_int8(name)
    executor = Executor(graph)
    plan = executor.plan

    if check:
        for feed in pool[:2]:
            legacy = executor.run_unplanned(feed)
            arena = plan.run_arena(feed)
            again = plan.run_arena(feed)  # the second call reuses the buffers
            for out in legacy:
                for got in (arena, again):
                    if not np.array_equal(legacy[out], got[out]):
                        raise AssertionError(
                            f"{name}: arena execution diverged from the "
                            f"legacy path on {out!r}"
                        )

    planned_s, arena_s = _time_paths((plan.run, plan.run_arena), pool, queries)
    timed = max(1, queries // 4) * 4

    layout = plan.arena_layout(batch=1)
    return {
        "model": f"{name}[int8]",
        "queries": timed,
        "paths": {
            "planned": {"seconds": planned_s, "qps": timed / planned_s},
            "arena": {
                "seconds": arena_s,
                "qps": timed / arena_s,
                "speedup_vs_planned": planned_s / arena_s,
            },
        },
        "memory": {
            "arena_peak_bytes": layout.total_bytes,
            "no_reuse_bytes": layout.naive_bytes,
            "reduction": layout.reuse_ratio,
            "managed_tensors": len(layout.slots),
            "arena": layout.describe(),
        },
    }


def run_benchmark(queries: int, check: bool) -> dict:
    per_model = [bench_model(name, queries, check) for name in MODELS]
    return {
        "benchmark": "bench_arena",
        "bit_exact_checked": check,
        "min_memory_reduction": MIN_MEMORY_REDUCTION,
        "models": per_model,
        "speedup": min(
            m["paths"]["arena"]["speedup_vs_planned"] for m in per_model
        ),
        "memory_reduction": min(m["memory"]["reduction"] for m in per_model),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=128, help="timed queries per path")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI run: fewer queries, gate on parity and memory reduction",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.queries < 1:
        parser.error("--queries must be positive")

    queries = 24 if args.smoke else args.queries
    result = run_benchmark(queries=queries, check=True)

    for m in result["models"]:
        arena = m["paths"]["arena"]
        mem = m["memory"]
        print(
            f"{m['model']:24s} planned {m['paths']['planned']['qps']:7.1f} qps | "
            f"arena {arena['qps']:7.1f} qps ({arena['speedup_vs_planned']:.2f}x) | "
            f"peak {mem['arena_peak_bytes']:>10,d} B vs {mem['no_reuse_bytes']:>11,d} B "
            f"({mem['reduction']:.1f}x smaller)"
        )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
    print(f"wrote {args.out}")

    if result["memory_reduction"] < MIN_MEMORY_REDUCTION:
        print(
            f"FAIL: arena peak-memory reduction "
            f"{result['memory_reduction']:.2f}x below the "
            f"{MIN_MEMORY_REDUCTION:.0f}x acceptance floor"
        )
        return 1
    # timing gate is deliberately loose: smoke runs are short and shared CI
    # boxes are noisy — the hard guarantees are parity and the memory floor
    if result["speedup"] < 0.9:
        print("FAIL: arena path measurably slower than the planned path")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
