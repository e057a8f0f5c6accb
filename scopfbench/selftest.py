"""Self-test of the benchmark.

1. A short pass of each workload (reduced sizes, same code path) passes
   every check, and a short traced pass yields every per-layer metric.
2. Each check is shown to fail on a deliberately corrupted copy of the
   outputs of the micro5-paper pass.
3. A pass whose train_pdl raises still ends, not correct, with the training
   steps, the skipped requests and the skipped sampling blocks counted as
   failed.

Run from the root of a checkout:  python3 scopfbench/selftest.py
Exits 0 when everything behaves, 1 otherwise.
"""

import copy
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import bench  # noqa: E402
from scopflearn.errors import DivergenceError  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SHORT = {
    "micro5-paper": dict(block_size=40, n_blocks=3, n_train=40, n_test=32, K=3, L=5,
                         single_chunk=32, single_blocks=2, batch_chunk=2, batch_blocks=2,
                         n_oracle=2),
    "mesh-lines": dict(block_size=16, n_blocks=3, n_train=16, n_test=32, K=2, L=3,
                       single_chunk=32, single_blocks=2, batch_chunk=1, batch_blocks=2),
    "mesh-gens": dict(block_size=2, n_blocks=4, n_train=4, n_test=4, K=2, L=3,
                      serve_batch=4, single_chunk=4, single_blocks=2,
                      batch_chunk=2, batch_blocks=2),
}


def short_pass(name, out_dir, tracer=None):
    w = dataclasses.replace(workloads.WORKLOADS[name], **SHORT[name])
    spec = workloads.write_case_file(w, out_dir / f"{name}.case.json")
    runner = bench.Runner(w, 1, out_dir, spec, tracer=tracer, run_checks=tracer is None)
    return w, runner.run_pass()


def corruptions(o: bench.Outputs):
    """(description, check expected to fail, mutation of a deep copy)."""
    t = o.t
    glb = o.case.glb

    def shift_dispatch(c):
        c.single["g"][0, 0] += 1e-6

    def below_lower_bound(c):
        g = c.single["g"]
        move = g[0, 0] - glb[0] + 1e-9
        g[0, 0] -= move
        g[0, 1] += move

    def shift_batched(c):
        c.batched["g"][1, 0] += 1e-6

    def signal_off(c):
        c.single["nk"][0, 0] += 2.0 ** -(t - 1)

    def base_flow_off(c):
        c.single["f0"][0, 0] += 1e-6

    def flip_slack(c):
        for key in ("eta_e", "eta_g", "eta0"):
            eta = c.single[key]
            hit = np.flatnonzero(eta)
            if hit.size:
                eta.flat[hit[0]] = -eta.flat[hit[0]]
                return
        raise AssertionError("no active slack to flip")

    def objective_off(c):
        c.single["obj"][0] *= 1.0 + 1e-5

    def sample_outside_box(c):
        c.sampled_d[0] = 1.6 * c.case.d0

    def sample_infeasible(c):
        c.sampled_gub[0] = c.case.glb + 1e-3

    def missing_step(c):
        c.result.log.pop()

    def nan_loss(c):
        c.result.log[3]["loss"] = float("nan")

    def rho_grew(c):
        c.result.outer_log[0]["rho"] *= c.config.alpha

    def checkpoint_bytes(c):
        a, b = c.ckpt_bytes
        c.ckpt_bytes = (a, b[:-1] + bytes([b[-1] ^ 1]))

    def reload_output(c):
        c.out_loaded[0, 0] += 1e-12

    def oracle_low(c):
        lab = c.labels[0]
        c.labels[0] = dataclasses.replace(lab, obj_star=lab.obj_star - 2 * lab.tol_certificate)

    def served_beats_oracle(c):
        lab = c.labels[0]
        c.labels[0] = dataclasses.replace(lab, obj_star=lab.obj_star + 2 * lab.tol_certificate)

    return [
        ("dispatch shifted by 1e-6", "dispatch_balance_and_bounds", shift_dispatch),
        ("dispatch below its lower bound", "dispatch_balance_and_bounds", below_lower_bound),
        ("batched dispatch shifted by 1e-6", "batch_matches_single", shift_batched),
        ("batched dispatch shifted by 1e-6", "batched_dispatch_balance_and_bounds",
         shift_batched),
        ("response signal off by 2^-(t-1)", "response_signals", signal_off),
        ("base flow off by 1e-6", "flows_and_slacks", base_flow_off),
        ("flipped slack sign", "flows_and_slacks", flip_slack),
        ("objective off by 1e-5 relative", "objective", objective_off),
        ("sample outside the (1 +/- mu) d0 box", "samples_feasible", sample_outside_box),
        ("sample with no recoverable dispatch", "samples_feasible", sample_infeasible),
        ("training step missing", "training_schedule", missing_step),
        ("non-finite training loss", "training_schedule", nan_loss),
        ("rho grew without stagnation", "training_schedule", rho_grew),
        ("checkpoint bytes differ", "checkpoint_roundtrip", checkpoint_bytes),
        ("reloaded output off by 1e-12", "checkpoint_roundtrip", reload_output),
        ("obj_star below the enumeration", "oracle_optimum", oracle_low),
        ("served dispatch beats obj_star", "oracle_optimum", served_beats_oracle),
    ]


def broken_training(out_dir, attempted):
    """Run the short micro5-paper pass with a train_pdl that raises."""
    original = bench.training.train_pdl

    def train_pdl(*args, **kwargs):
        raise DivergenceError("injected failure")

    bench.training.train_pdl = train_pdl
    try:
        w, r = short_pass("micro5-paper", out_dir)
    finally:
        bench.training.train_pdl = original
    expect = (2 * w.K * w.L + w.single_blocks * w.single_chunk
              + w.batch_blocks * w.batch_chunk + (w.n_blocks - w.data_blocks) * w.block_size)
    ok = (r.attempted == attempted and r.failed == expect
          and any(name == "training" and not passed for name, passed, _ in r.checks))
    print(f"failing train_pdl: attempted {r.attempted} (expected {attempted}), failed "
          f"{r.failed} (expected {expect}), {'reported' if ok else 'NOT REPORTED'}")
    return [] if ok else ["failing train_pdl"]


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out_dir = Path(tmp)
        passes = {}
        for name in SHORT:
            _, r = short_pass(name, out_dir)
            passes[name] = r
            bad = [c for c in r.checks if not c[1]]
            print(f"short pass {name}: {len(r.checks)} checks, "
                  f"{'all pass' if not bad else 'FAILED ' + str(bad)}")
            if bad or r.failed:
                failures.append(f"short pass {name}")

            tracer = tracing.Tracer()
            tracer.install()
            try:
                w, traced = short_pass(name, out_dir, tracer)
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics(tracer.spans, 2 * w.K * w.L, traced.primal_sizes,
                                            traced.dual_sizes, bench.TRAIN_BATCH)
            expect_zero = {"oracle.solve_ms", "oracle.evals"} if not w.n_oracle else set()
            empty = [k for k, (v, _) in metrics.items() if not v > 0 and k not in expect_zero]
            print(f"traced pass {name}: {len(metrics)} per-layer metrics, "
                  f"{'all measured' if not empty else 'EMPTY ' + str(empty)}")
            if empty:
                failures.append(f"traced pass {name}")

        failures += broken_training(out_dir, passes["micro5-paper"].attempted)

        base = passes["micro5-paper"].outputs
        for desc, target, mutate in corruptions(base):
            bad = copy.deepcopy(base)
            mutate(bad)
            results = {name: ok for name, ok, _ in bench.check_all(bad)[0]}
            tripped = results.get(target) is False
            print(f"corruption '{desc}': {target} {'trips' if tripped else 'DOES NOT TRIP'}")
            if not tripped:
                failures.append(desc)
    print("self-test " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
