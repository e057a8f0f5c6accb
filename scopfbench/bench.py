"""One pass of a workload through scopflearn's public API, the way
``scopflearn gen``, ``train`` and ``eval`` drive it: sample, train, deploy a
checkpoint, serve single requests and batches.

Program functions are always looked up on their module at call time
(``sampling.sample_dataset``), so the tracer's patches take effect.  The
timed passes patch two functions the same way while a block runs,
``training.adam_step`` and ``sampling.make_instance``, to probe the host's
speed between optimizer steps and between sampled instances (hostref.py).
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sys

from scopflearn import cases, grid, layers, nn, oracle, sampling, storage, training

import checks
import reference
from hostref import Meter
from workloads import Workload

MU = sampling.PerturbationConfig().mu
TRAIN_BATCH = 8
ORACLE_RESOLUTION = 4e-3    # peak RSS 89 MB on micro5; 1e-3 needs 875 MB


@dataclass
class Grid:
    case: object
    factors: object
    cont: object
    pipe: object


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    sample_rates: list = field(default_factory=list)
    train_rates: list = field(default_factory=list)
    single_ms: list = field(default_factory=list)
    batch_rates: list = field(default_factory=list)
    setup_s: float = 0.0       # normalised set-up chain plus checkpoint load
    setup_raw_s: float = 0.0
    blocks: dict = field(default_factory=dict)   # phase -> normalised block times
    factors: dict = field(default_factory=dict)  # phase -> host factor per block
    serve_batch_peak_mb: float = float("nan")
    train_peak_mb: float = float("nan")
    checks: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    primal_sizes: tuple = ()
    dual_sizes: tuple = ()
    outputs: object = None
    untimed_s: float = 0.0      # peaks and checks


def set_up(spec: str) -> Grid:
    """Case -> build_factors -> screen_contingencies -> PrimalPipeline."""
    case = cases.get_case(spec) if spec in cases.BUILTIN_CASES else grid.load_case(spec)
    factors = grid.build_factors(case)
    cont = grid.screen_contingencies(case, factors)
    return Grid(case, factors, cont, layers.PrimalPipeline(case, factors, cont))


def _stream(seed: int, block: int = 0) -> int:
    return seed * 100_000 + block


def _stack(instances):
    return (np.stack([i.x for i in instances]), np.stack([i.d for i in instances]),
            np.stack([i.c for i in instances]), np.stack([i.gub for i in instances]))


def _served(pipe, state, c) -> dict:
    return {"g": state.gtilde, "nk": state.nk, "gk": state.gk, "h": state.h,
            "f0": state.f0, "eta0": state.eta0, "eta_g": state.eta_g,
            "eta_e": state.eta_e, "obj": pipe.objective(state, c)}


def _concat(rows: list[dict]) -> dict:
    return {k: np.concatenate([r[k] for r in rows]) for k in rows[0]}


def _serve(primal, pipe, x, d, gub):
    z, _ = nn.mlp_forward(primal, x)
    return pipe.forward(z, d, gub)


def overhead_s(traced: "PassResult", plain: "PassResult") -> float:
    """Time the traced pass spent beyond an untraced one, phase by phase:
    the difference of their median block times, times the blocks.  Medians,
    since a total is moved by single slow blocks more than tracing moves it."""
    return sum(len(b) * (np.median(b) - np.median(plain.blocks[phase]))
               for phase, b in traced.blocks.items() if b and plain.blocks.get(phase))


def interleave(counts: dict) -> list:
    """The kinds of blocks, each repeated its count times, spread evenly
    over one sequence: the i-th of n blocks of a kind sits at (i + 1/2) / n."""
    slots = [((i + 0.5) / n, order, kind)
             for order, (kind, n) in enumerate(counts.items()) for i in range(n)]
    return [kind for _, _, kind in sorted(slots)]


def _peak_mb(fn) -> float:
    """Peak traced allocation of one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class Runner:
    """Runs a pass of one workload; the first pass in a process is the cold
    one whose set-up and checkpoint load count towards ``setup_s``.

    A program call that raises counts its operations as failed: a failed
    ``sample_dataset`` block its instances, a failed ``train_pdl`` its 2KL
    steps, a failed request itself.  When sampling or training fails, the
    phases that depend on it are skipped and their operations count as
    failed too, so every pass attempts the same operations."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path,
                 spec: str, tracer=None, run_checks=True, probes=True):
        self.w = workload
        self.seed = seed
        self.out_dir = out_dir
        self.spec = spec
        self.tracer = tracer
        self.run_checks = run_checks
        # a traced pass runs no probes: one would count as the enclosing
        # program span's own time
        self.probes = probes and tracer is None

    def _phase(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"phase.{name}")

    def run_pass(self) -> PassResult:
        w, r = self.w, PassResult()
        with self._phase("setup"):
            g = self._set_up(r)

        # the blocks whose instances train and test; the rest are sampled
        # among the serving blocks
        blocks = self._sample_data(g, r)
        sampled = [i for b in blocks for i in b]
        train_set, test = sampled[:w.n_train], sampled[w.n_train:w.n_train + w.n_test]

        config = training.TrainerConfig(K=w.K, L=w.L, batch=TRAIN_BATCH,
                                        seed=_stream(self.seed))
        result = None
        if len(test) < w.n_test:
            r.checks.append(("sampling", False, f"{len(sampled)} instances sampled, "
                             f"{w.n_train + w.n_test} needed"))
            self._skip(r, 2 * w.K * w.L)
        else:
            with self._phase("train"):
                result = self._train(g, train_set, config, r)
        if result is None:
            self._skip(r, w.single_blocks * w.single_chunk + w.batch_blocks * w.batch_chunk
                       + (w.n_blocks - w.data_blocks) * w.block_size)
            return r

        with self._phase("deploy"):
            primal, ckpt_path = self._deploy(g, result, r)
        single, batched = self._serve_and_sample(g, primal, test, blocks, r)
        with self._phase("oracle"):
            labels = self._oracle(g, test)

        r.primal_sizes, r.dual_sizes = result.primal.sizes, result.dual.sizes
        if self.run_checks:
            t0 = time.perf_counter()
            self._peaks(g, primal, train_set, test, config, r)
            r.outputs = self._outputs(g, blocks, test, config, result, primal, ckpt_path,
                                      single, batched, labels)
            r.checks, r.quality = check_all(r.outputs)
            r.untimed_s = time.perf_counter() - t0
        return r

    # -- phases -------------------------------------------------------------

    @staticmethod
    def _skip(r, n):
        r.attempted += n
        r.failed += n

    def _set_up(self, r):
        """The cold set-up chain, timed once: the first program work after
        the imports."""
        with Meter() as meter:
            t0 = time.perf_counter()
            g = set_up(self.spec)
            r.setup_raw_s += time.perf_counter() - t0
            meter.mark()
        r.setup_s += meter.normalized()[0]
        return g

    def _sample_block(self, g, b, r, meter):
        """Sampling block b: one sample_dataset call on its own stream,
        probed between instances."""
        w = self.w
        cfg = sampling.PerturbationConfig(seed=_stream(self.seed, b))
        r.attempted += w.block_size
        try:
            with self._probing(sampling, "make_instance", meter):
                return sampling.sample_dataset(g.case, cfg, w.block_size, cont=g.cont)[0]
        except Exception as exc:
            print(f"error: sample_dataset raised {exc!r}", file=sys.stderr)
            r.failed += w.block_size
            return []

    def _sample_data(self, g, r):
        blocks = []
        with Meter() as meter:
            for b in range(self.w.data_blocks):
                with self._phase("sample"):
                    blocks.append(self._sample_block(g, b, r, meter))
                self._mark(meter, "sample")
        self._record(r, meter, "sample")
        return blocks

    def _record(self, r, meter, kind):
        norm = meter.normalized(kind)
        if kind == "sample":
            r.sample_rates += [self.w.block_size / t for t in norm]
        r.blocks[kind] = r.blocks.get(kind, []) + norm
        r.factors[kind] = r.factors.get(kind, []) + [meter.factor(i)
                                                     for i in meter.blocks_of(kind)]

    def _tick(self, meter):
        if self.probes:
            meter.tick()

    @contextlib.contextmanager
    def _probing(self, module, name, meter):
        """Probe, when one is due, after each call of the program function
        ``module.name`` made while the block runs."""
        if not self.probes:
            yield
            return
        original = getattr(module, name)

        def probed(*args, **kwargs):
            result = original(*args, **kwargs)
            self._tick(meter)
            return result

        setattr(module, name, probed)
        try:
            yield
        finally:
            setattr(module, name, original)

    def _mark(self, meter, kind=""):
        if self.tracer is None:
            meter.mark(kind)
        else:
            with self.tracer.span("bench.meter"):
                meter.mark(kind)

    def _train(self, g, train_set, config, r):
        """One train_pdl call, a block per outer iteration, probed between
        optimizer steps."""
        steps = 2 * config.K * config.L
        r.attempted += steps
        try:
            with Meter() as meter, self._probing(training, "adam_step", meter):
                result = training.train_pdl(g.case, g.factors, g.cont, train_set, config,
                                            checkpoint_cb=lambda *a: self._mark(meter))
        except Exception as exc:
            r.failed += steps
            r.checks.append(("training", False, f"train_pdl raised {exc!r}"))
            return None
        # each outer iteration: L primal and L dual steps plus its evaluation
        norm = meter.normalized()
        r.train_rates += [2 * config.L / t for t in norm]
        r.blocks["train"] = norm
        r.factors["train"] = [meter.factor(i) for i in range(len(norm))]
        return result

    def _deploy(self, g, result, r):
        """Save the trained model as ``scopflearn train`` does and load it back
        as ``scopflearn eval`` does; the load is part of set-up."""
        case = g.case
        ckpt = storage.Checkpoint(
            method="pdl", case_name=case.name, dim_x=2 * case.n_gen + case.n_load,
            n_gen=case.n_gen, primal=result.primal, primal_adam=result.primal_adam,
            dual=result.dual, dual_adam=result.dual_adam, trainer=result.state.as_dict())
        path = self.out_dir / f"{self.w.name}-{self.seed}.ckpt"
        storage.save_checkpoint(path, ckpt)
        with Meter() as meter:
            t0 = time.perf_counter()
            loaded = storage.load_checkpoint(path)
            r.setup_raw_s += time.perf_counter() - t0
            meter.mark()
        r.setup_s += meter.normalized()[0]
        self._trained = (ckpt, result.primal)
        return loaded.primal, path

    def _serve_and_sample(self, g, primal, test, blocks, r):
        """Single requests, batched requests and the remaining sampling
        blocks, interleaved evenly in one sequence of blocks, so the three
        metrics see the same stretch of host time.

        Single requests are a closed loop with one caller: each is sent when
        the previous one has returned.  Each request's time is scaled by its
        block's factor; probes run between requests."""
        w = self.w
        x, d, c, gub = _stack(test)
        slices = [slice(i, i + w.serve_batch) for i in range(0, len(test), w.serve_batch)]
        first_single, first_batch = {}, {}
        starts, ends, owner, served = [], [], [], []
        sent = {"serve_single": 0, "serve_batch": 0}
        next_sample = w.data_blocks

        def single_block(block):
            for _ in range(w.single_chunk):
                i = sent["serve_single"] % len(test)
                inst = test[i]
                sent["serve_single"] += 1
                r.attempted += 1
                t0 = time.perf_counter()
                try:
                    state = _serve(primal, g.pipe, inst.x, inst.d, inst.gub)
                except Exception as exc:
                    print(f"error: single request raised {exc!r}", file=sys.stderr)
                    r.failed += 1
                    continue
                starts.append(t0)
                ends.append(time.perf_counter())
                owner.append(block)
                if sent["serve_single"] <= len(test):
                    first_single[i] = (state, inst.c)
                self._tick(meter)

        def batch_block(block):
            n = 0
            for _ in range(w.batch_chunk):
                j = sent["serve_batch"] % len(slices)
                sl = slices[j]
                sent["serve_batch"] += 1
                r.attempted += 1
                try:
                    state = _serve(primal, g.pipe, x[sl], d[sl], gub[sl])
                except Exception as exc:
                    print(f"error: batched request raised {exc!r}", file=sys.stderr)
                    r.failed += 1
                    continue
                n += state.gtilde.shape[0]
                if sent["serve_batch"] <= len(slices):
                    first_batch[j] = (state, c[sl])
                self._tick(meter)
            served.append(n)

        schedule = interleave({"serve_single": w.single_blocks, "serve_batch": w.batch_blocks,
                               "sample": w.n_blocks - w.data_blocks})
        with Meter() as meter:
            for block, kind in enumerate(schedule):
                with self._phase(kind):
                    if kind == "serve_single":
                        single_block(block)
                    elif kind == "serve_batch":
                        batch_block(block)
                    else:
                        blocks.append(self._sample_block(g, next_sample, r, meter))
                        next_sample += 1
                self._mark(meter, kind)

        busy = np.array(ends) - np.array(starts)
        factors = np.array([meter.factor(b) for b in range(len(schedule))])
        r.single_ms += list(1e3 * busy * factors[np.array(owner, dtype=int)])
        r.batch_rates += [n / t for n, t in zip(served, meter.normalized("serve_batch"))]
        for kind in ("serve_single", "serve_batch", "sample"):
            self._record(r, meter, kind)
        single = (_concat([_served(g.pipe, *first_single[i]) for i in range(len(test))])
                  if len(first_single) == len(test) else None)
        batched = (_concat([_served(g.pipe, *first_batch[j]) for j in range(len(slices))])
                   if len(first_batch) == len(slices) else None)
        return single, batched

    def _oracle(self, g, test):
        return [oracle.oracle_solve(inst, g.case, g.factors, g.cont,
                                    resolution=ORACLE_RESOLUTION)
                for inst in test[:self.w.n_oracle]]

    # -- untimed passes -----------------------------------------------------

    def _peaks(self, g, primal, train_set, test, config, r):
        x, d, _, gub = _stack(test[:self.w.serve_batch])
        r.serve_batch_peak_mb = _peak_mb(lambda: _serve(primal, g.pipe, x, d, gub))
        one_outer = training.TrainerConfig(K=1, L=config.L, batch=config.batch,
                                           seed=config.seed)
        r.train_peak_mb = _peak_mb(
            lambda: training.train_pdl(g.case, g.factors, g.cont, train_set, one_outer))

    def _outputs(self, g, blocks, test, config, result, primal, ckpt_path,
                 single, batched, labels) -> "Outputs":
        x, d, c, gub = _stack(test)
        ckpt, trained_primal = self._trained
        again = ckpt_path.with_suffix(".again")
        storage.save_checkpoint(again, ckpt)
        try:
            ckpt_bytes = (ckpt_path.read_bytes(), again.read_bytes())
        finally:
            again.unlink()
        sampled = [i for b in blocks for i in b]
        return Outputs(
            case=g.case, cont=g.cont, t=g.pipe.t,
            sampled_d=np.stack([i.d for i in sampled]),
            sampled_gub=np.stack([i.gub for i in sampled]),
            test=test, d=d, c=c, gub=gub, single=single, batched=batched,
            result=result, config=config, ckpt_bytes=ckpt_bytes,
            out_trained=nn.mlp_forward(trained_primal, x)[0],
            out_loaded=nn.mlp_forward(primal, x)[0], labels=labels)


@dataclass
class Outputs:
    """Everything the checks compare: program outputs of one pass."""

    case: object
    cont: object
    t: int
    sampled_d: np.ndarray
    sampled_gub: np.ndarray
    test: list
    d: np.ndarray
    c: np.ndarray
    gub: np.ndarray
    single: dict
    batched: dict
    result: object
    config: object
    ckpt_bytes: tuple
    out_trained: np.ndarray
    out_loaded: np.ndarray
    labels: list


def check_all(o: Outputs):
    """Run every check on one pass's outputs; returns ([(name, ok, detail)],
    solution-quality figures that are printed but not checked)."""
    case = o.case
    kg, ke = o.cont.gen_contingencies, o.cont.line_contingencies
    if o.single is None or o.batched is None:
        return [("serving", False, "no request was served")], {}
    single = dict(o.single, d=o.d, c=o.c, gub=o.gub)
    flows = reference.FlowReference(case)
    cfg = o.config
    out = [
        ("dispatch_balance_and_bounds",
         *checks.dispatch_balance_and_bounds(case.glb, o.d, o.gub, single["g"])),
        ("batched_dispatch_balance_and_bounds",
         *checks.dispatch_balance_and_bounds(case.glb, o.d, o.gub, o.batched["g"])),
        ("batch_matches_single", *checks.batch_matches_single(single, o.batched)),
        ("response_signals",
         *checks.response_signals(case, kg, o.t, single["g"], single["nk"], o.d, o.gub)),
        ("flows_and_slacks", *checks.flows_and_slacks(case, flows, kg, ke, single)),
        ("objective", *checks.objective_matches(case, flows, kg, ke, single)),
        ("samples_feasible", *checks.samples_feasible(case, kg, MU, o.sampled_d, o.sampled_gub)),
        ("training_schedule", *checks.training_schedule(
            o.result, cfg.K, cfg.L, cfg.tau, cfg.alpha, cfg.rho0, cfg.rho_max)),
        ("checkpoint_roundtrip", *checks.checkpoint_roundtrip(
            *o.ckpt_bytes, [o.out_trained], [o.out_loaded])),
    ]
    quality = {"max_abs_h": float(np.abs(single["h"]).max()) if single["h"].size else 0.0}
    if o.labels:
        n = len(o.labels)
        out.append(("oracle_optimum", *checks.oracle_optimum(
            case, flows, kg, ke, o.test[:n], o.labels, single["g"][:n])))
        gaps = [100.0 * (v - lab.obj_star) / lab.obj_star
                for v, lab in zip(single["obj"][:n], o.labels) if lab.feasible]
        quality["mean_gap_pct"] = float(np.mean(gaps)) if gaps else float("nan")
    return [(name, bool(ok), detail) for name, ok, detail in out], quality
