"""Repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload suite-quick|accuracy-sweep|sim-sweep \\
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from the repository root. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (LoadGen tests) and
``metrics``. ``--trace 0`` reports the end-to-end metrics, measured with
tracing off. ``--trace 1`` runs the workload once untraced and once traced,
checks that both give identical outputs, and reports the per-layer metrics
of the traced run plus the tracing overhead; the spans go to
``.perfbench/trace-<workload>-seed<N>.json``.

With the default seed at full scale, every test's outputs are compared with
``perfbench/expected.json``; ``--write-expected`` re-records that file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

# one harness thread: pin BLAS/OpenMP before NumPy is imported
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 170


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite-quick", "accuracy-sweep", "sim-sweep"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's outputs as the expected outputs")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0], "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_expected(args) -> dict | None:
    """The record applies to the default seed at full scale only."""
    if args.seed != DEFAULT_SEED or args.scale != "full" or args.write_expected:
        return None
    return json.loads(EXPECTED.read_text())[args.workload]


# -- suite-quick: every pass is a fresh process ---------------------------------------
def child_main(args) -> dict:
    """One cold quick suite (plus anchors) in this process."""
    import workloads
    from tracing import Recorder

    recorder = Recorder("suite-quick", load_expected(args), trace=bool(args.trace))
    with recorder:
        start = time.perf_counter()
        if recorder.trace:
            recorder.enter("unattributed")
        repeats = workloads.CROSS_CHECK_REPEATS if args.seconds > 0 else 1
        suite_s, setup_s = workloads.suite_quick_pass(
            args.seed, workloads.SCALES[args.scale], recorder, STARTED, repeats)
        wall_s = time.perf_counter() - start
        if recorder.trace:
            recorder.run_kernel_probes()
            recorder.exit()
    layers = recorder.layer_metrics() if recorder.trace else None
    if recorder.trace:
        recorder.write_trace(workloads.trace_path(ROOT, args.workload, args.seed),
                             {"layers": layers})
    return {
        "setup_s": [setup_s], "suite_s": [suite_s], "wall_s": wall_s,
        "tests": [t.to_dict() for t in recorder.tests],
        "rss_mb": workloads.peak_rss_mb(), "layers": layers,
    }


def spawn_child(args, trace: int):
    import workloads
    from tracing import TestResult

    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", "suite-quick", "--seed", str(args.seed),
           "--seconds", "0" if args.trace else str(args.seconds),
           "--trace", str(trace), "--scale", args.scale]
    if args.write_expected:
        cmd.append("--write-expected")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"suite-quick child exited with code {proc.returncode}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    tests = [TestResult(**t) for t in data["tests"]]
    return workloads.RunData(data["setup_s"], data["suite_s"], tests, data["rss_mb"],
                             data["wall_s"], data["layers"])


def measure(args, trace: bool):
    """Run the workload once."""
    import workloads
    from tracing import Recorder

    if args.workload == "suite-quick":
        return spawn_child(args, int(trace))
    recorder = Recorder(args.workload, load_expected(args), trace=trace)
    run = workloads.run_in_process(args.workload, args.seed,
                                   0.0 if args.trace else args.seconds,
                                   workloads.SCALES[args.scale], recorder)
    if trace:
        recorder.write_trace(workloads.trace_path(ROOT, args.workload, args.seed),
                             {"layers": run.layers})
    return run


def outputs_of(run) -> list[tuple[str, dict | None]]:
    return [(t.key, t.output) for t in run.tests]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC.name}/repro",
              file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("perfbench: --seconds must not be negative", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.child:
        print(json.dumps(child_main(args)))
        return 0

    import workloads
    from tracing import per_layer_metric_units

    print(json.dumps({"env": environment()}), flush=True)
    problems: list[str] = []
    if args.trace:
        plain = measure(args, trace=False)
        traced = measure(args, trace=True)
        runs = [plain, traced]
        layers = traced.layers
        layers["trace.overhead_pct"] = 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s
        if outputs_of(plain) != outputs_of(traced):
            problems.append("traced and untraced runs produced different outputs")
        units = per_layer_metric_units()
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        runs = []
        started = time.perf_counter()
        while True:
            runs.append(measure(args, trace=False))
            # the in-process workloads loop over passes themselves
            if args.workload != "suite-quick" or time.perf_counter() - started >= args.seconds:
                break
        values = workloads.end_to_end_metrics(runs)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in workloads.END_TO_END_UNITS.items()}

    tests = [t for r in runs for t in r.tests]
    failed = [t for t in tests if t.failed]
    outputs = workloads.first_outputs(tests)
    print(json.dumps({"anchors": workloads.anchor_report(outputs),
                      "quality_gates": workloads.quality_gates(outputs)}))
    for t in failed:
        print(f"FAILED {t.test_id}: {'; '.join(t.problems)}", file=sys.stderr)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    if args.write_expected:
        record = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        record[args.workload] = {t.key: t.output for t in tests if t.output is not None}
        EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(tests),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
