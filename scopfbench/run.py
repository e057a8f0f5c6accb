"""Benchmark of scopflearn: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 scopfbench/run.py --workload micro5-paper --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the run repeats the workload's pass with every public function
of the program's modules wrapped in spans, writes the spans to
``scopfbench-out/``, makes a third, untraced pass to compare against, and
reports the per-layer metrics and the tracing overhead.  The last line of standard output is the JSON result.  See
README.md in this directory for the workloads, the metrics and how host
drift is handled.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: at most the host's cores, and no thread pool whose
# scheduling adds to the run-to-run spread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "scopfbench-out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import numpy and scopflearn from this checkout's sources; returns the
    seconds since process start (printed, not part of ``setup_s``)."""
    if not (SRC / "scopflearn" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'scopflearn'}; "
                         "run from the root of a scopflearn checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scopflearn
    if Path(scopflearn.__file__).resolve().parent != SRC / "scopflearn":
        raise SystemExit(f"error: scopflearn imported from {scopflearn.__file__}, not {SRC}")
    return time.perf_counter() - T_START


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    import statistics

    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    spec = workloads.write_case_file(w, OUT / f"{w.name}.case.json")

    # One pass of fixed work whatever --seconds says: a run that stopped at a
    # deadline would do a different amount of work on a slower host.
    untraced = bench.Runner(w, args.seed, OUT, spec).run_pass()

    def median(values):
        return statistics.median(values) if values else float("nan")

    single_ms = untraced.single_ms
    correct = all(ok for _, ok, _ in untraced.checks) and bool(untraced.checks)
    for name, ok, detail in untraced.checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    q = statistics.quantiles(single_ms, n=100) if len(single_ms) >= 1000 else None
    print(f"info: {len(single_ms)} single requests, p99 {q[98]:.4f} ms" if q else
          f"info: {len(single_ms)} single requests")
    print(f"info: solution quality (not checked) {json.dumps(untraced.quality)}")
    print(f"info: imports {import_s:.4f} s, raw set-up {untraced.setup_raw_s:.4f} s, "
          f"peaks and checks {untraced.untimed_s:.1f} s")
    print("info: host factor per phase (median, min, max) " + json.dumps(
        {k: [round(statistics.median(f), 3), round(min(f), 3), round(max(f), 3)]
         for k, f in untraced.factors.items() if f}))

    e2e = {
        "setup_s": (untraced.setup_s, "s"),
        "sample_instances_per_s": (median(untraced.sample_rates), "instances/s"),
        "train_steps_per_s": (median(untraced.train_rates), "steps/s"),
        "serve_single_ms": (median(single_ms), "ms"),
        "serve_batch_instances_per_s": (median(untraced.batch_rates), "instances/s"),
        "serve_batch_peak_mb": (untraced.serve_batch_peak_mb, "MB"),
        "train_peak_mb": (untraced.train_peak_mb, "MB"),
    }
    attempted, failed = untraced.attempted, untraced.failed

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = bench.Runner(w, args.seed, OUT, spec, tracer=tracer,
                                  run_checks=False).run_pass()
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{w.name}-{args.seed}.csv")
        # The traced pass runs in a warm process, which alone makes it
        # faster than the cold untraced pass; compare it with a warm one,
        # without probes like the traced pass, so both are scaled alike.
        warm = bench.Runner(w, args.seed, OUT, spec, run_checks=False,
                            probes=False).run_pass()
        attempted += traced.attempted + warm.attempted
        failed += traced.failed + warm.failed
        metrics = tracing.layer_metrics(tracer.spans, 2 * w.K * w.L, traced.primal_sizes,
                                        traced.dual_sizes, bench.TRAIN_BATCH)
        metrics["trace.overhead_ms"] = (1e3 * bench.overhead_s(traced, warm), "ms")
        metrics["trace.spans"] = (float(len(tracer.spans)), "count")
        print("info: end-to-end (untraced) " + json.dumps({k: v[0] for k, v in e2e.items()}))
    else:
        metrics = e2e

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{w.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
