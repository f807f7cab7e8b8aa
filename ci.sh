#!/usr/bin/env bash
# Tier-1 CI gate: static analysis first (fastest, and it proves graph/plan
# invariants before anything executes), then the conformance/fault suites
# (they guard the run-rule correctness the whole benchmark's credibility
# rests on), then the optimizer/arena suites, then the construction
# byte-identity gates, then the full test suite, then the executor and
# arena smoke benchmarks.
# The smoke benchmark re-asserts plan-vs-legacy bit-exactness on INT8
# MobileNetEdgeTPU and fails if the planned path loses its speedup.
set -euo pipefail
cd "$(dirname "$0")"

export PYTHONPATH=src

# repo self-lint: mutable default args, bare except, interpolated
# percentiles on latency paths
python tools/selflint.py src tests tools

# static verifier: the whole model zoo x {fp32, fp16, int8, uint8} must come
# back clean from all four analyzer families — no baseline file in CI
python -m repro.staticcheck --fail-level warning

# value-range engine: interval proofs over the same matrix. The known clip-
# risk/coverage findings are pinned in the checked-in baseline, so the gate
# trips only on *new* provable errors (e.g. a range-aware accumulator
# overflow). The full JSON report is kept as a build artifact next to the
# BENCH files.
python -m repro.staticcheck --ranges --baseline tools/ranges_baseline.json \
    --fail-level error --format json \
    > benchmarks/results/STATICCHECK_ranges.json

python -m pytest -x -q tests/test_conformance.py tests/test_faults.py

# graph optimizer + arena: the zoo-wide optimize-equivalence sweep (every
# model x four numerics, rewritten graph vs legacy interpreter) and the
# arena-parity/PL007 layout checks must pass before the full suite runs
python -m pytest -x -q tests/test_optimize.py tests/test_arena.py

# byte-identity of model construction: the seed-0 golden digests of the
# fitted v1.0 heads and the default-size vision datasets, then the oracles
# that pin each optimized construction kernel to its direct formulation, so
# a drift fails here under its own name before the full suite runs
python -m pytest -x -q tests/test_golden_digests.py \
    tests/test_kernels_misc.py::TestResizeOracle \
    tests/test_kernels_misc.py::TestPadInputOracle \
    tests/test_kernels_misc.py::TestInPlaceEpilogueOracle \
    tests/test_pipelines.py::TestBatchedPreprocessOracle \
    tests/test_synthdata.py::TestBlockedNoise

python -m pytest -x -q tests
python benchmarks/bench_executor.py --smoke

# arena smoke: re-asserts bit-exact arena-vs-legacy parity on INT8
# MobileNetEdgeTPU + DeepLabv3+ and gates the >=3x peak-memory reduction
python benchmarks/bench_arena.py --smoke
