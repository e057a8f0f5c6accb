"""Span tracing of scopflearn's public functions, patched from outside.

A ``Tracer`` replaces each traced function in every loaded scopflearn module
namespace that holds it (the package re-exports names, and modules import
each other's functions by name), and each traced method on its class.  Every
call records a span ``(id, parent, name, start_ns, end_ns, count)`` in memory;
``count`` carries a work count read from the call's arguments or result where
one exists.  ``write`` saves the spans as CSV at the end of a run, and
``layer_metrics`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import os
import sys
import time

import numpy as np

from scopflearn import layers


def _slack_bytes(args, kwargs, state):
    arrays = (state.eta0, state.eta_g, state.eta_e, state.sign0, state.sign_g, state.sign_e)
    rows = state.gtilde.shape[0]
    return sum(a.nbytes for a in arrays if a is not None) // max(rows, 1)


def _bisection_evals(args, kwargs, result):
    # the loop evaluates the residual t times plus once at the final midpoint
    gk, _, _ = result
    t = args[6] if len(args) > 6 else kwargs.get("t", 25)
    return (t + 1) * gk.shape[0] * gk.shape[1]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _oracle_evals(args, kwargs, result):
    return result.evals


# (module, attribute, span name, count hook)
FUNCTIONS = [
    ("scopflearn.grid", "build_factors", "grid.build_factors", None),
    ("scopflearn.grid", "screen_contingencies", "grid.screen", None),
    ("scopflearn.storage", "save_checkpoint", "storage.save", _file_bytes),
    ("scopflearn.storage", "load_checkpoint", "storage.load", None),
    ("scopflearn.sampling", "sample_dataset", "sampling.sample_dataset", None),
    ("scopflearn.sampling", "make_instance", "sampling.instance", None),
    ("scopflearn.sampling", "sample_loads", "sampling.loads", None),
    ("scopflearn.sampling", "sample_factors", "sampling.factors", None),
    ("scopflearn.sampling", "balanced_box_vertices", "sampling.vertex_enum", None),
    ("scopflearn.nn", "mlp_forward", "nn.mlp_forward", None),
    ("scopflearn.nn", "mlp_backward", "nn.mlp_backward", None),
    ("scopflearn.nn", "adam_step", "nn.adam_step", None),
    ("scopflearn.layers", "bound_map", "layers.bound_map", None),
    ("scopflearn.layers", "repair_layer", "layers.repair", None),
    ("scopflearn.layers", "binary_search_batch", "layers.bisection", _bisection_evals),
    ("scopflearn.training", "train_pdl", "training.train_pdl", None),
    ("scopflearn.training", "max_violation", "training.max_violation", None),
    ("scopflearn.oracle", "oracle_solve", "oracle.solve", _oracle_evals),
]

METHODS = [
    (layers.PrimalPipeline, "forward", "layers.forward", _slack_bytes),
    (layers.PrimalPipeline, "objective_grads", "layers.objective_grads", None),
    (layers.PrimalPipeline, "backward", "layers.backward", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter_ns(), 0, 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid, count=0):
        self._stack.pop()
        span = self.spans[sid]
        span[4] = time.perf_counter_ns()
        span[5] = count

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    count = hook(args, kwargs, result)
                return result
            finally:
                tracer._close(sid, count)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "scopflearn" or n.startswith("scopflearn.")]
        for mod_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, traced)
        for cls, attr, name, hook in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_ns", "end_ns", "count"])
            writer.writerows(self.spans)


class SpanTable:
    """Column view of the spans with self times and the enclosing phase."""

    def __init__(self, spans):
        self.name = np.array([s[2] for s in spans], dtype=object)
        self.parent = np.array([s[1] for s in spans], dtype=int)
        start = np.array([s[3] for s in spans], dtype=np.int64)
        end = np.array([s[4] for s in spans], dtype=np.int64)
        self.dur_ms = (end - start) / 1e6
        self.count = np.array([s[5] for s in spans], dtype=np.int64)
        child_ms = np.zeros(len(spans))
        has_parent = self.parent >= 0
        np.add.at(child_ms, self.parent[has_parent], self.dur_ms[has_parent])
        self.self_ms = self.dur_ms - child_ms
        self.phase = np.empty(len(spans), dtype=object)
        for i, s in enumerate(spans):
            if s[2].startswith("phase."):
                self.phase[i] = s[2]
            else:
                self.phase[i] = self.phase[s[1]] if s[1] >= 0 else ""

    def select(self, name, phase=None):
        mask = self.name == name
        if phase is not None:
            mask &= self.phase == phase
        return mask

    def mean_ms(self, name, phase=None, self_time=False):
        mask = self.select(name, phase)
        if not mask.any():
            return 0.0
        return float((self.self_ms if self_time else self.dur_ms)[mask].mean())

    def total_ms(self, name, phase=None):
        return float(self.dur_ms[self.select(name, phase)].sum())

    def n(self, name, phase=None):
        return int(self.select(name, phase).sum())

    def mean_count(self, name, phase=None):
        mask = self.select(name, phase)
        return float(self.count[mask].mean()) if mask.any() else 0.0


def nn_flop_per_step(primal_sizes, dual_sizes, batch):
    """Computed multiply-add flops of one training step, averaged over the
    primal and dual steps: forward 2*B*in*out per layer, backward twice that."""
    def per_step(sizes):
        return 6 * batch * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    return 0.5 * (per_step(primal_sizes) + per_step(dual_sizes))


def layer_metrics(spans, train_steps, primal_sizes, dual_sizes, batch):
    """Per-layer metrics from the spans of one traced pass."""
    t = SpanTable(spans)
    train = "phase.train"
    single = "phase.serve_single"
    batched = "phase.serve_batch"
    sample = "phase.sample"
    draws = t.n("sampling.loads", sample)
    nn_calls = sum(t.n(n, train) for n in ("nn.mlp_forward", "nn.mlp_backward", "nn.adam_step"))
    bisect = t.select("layers.bisection", single)
    single_rows = t.n("layers.forward", single)
    m = {
        "grid.build_factors_ms": (t.mean_ms("grid.build_factors", "phase.setup"), "ms"),
        "grid.screen_ms": (t.mean_ms("grid.screen", "phase.setup"), "ms"),
        "storage.save_ms": (t.mean_ms("storage.save", "phase.deploy"), "ms"),
        "storage.load_ms": (t.mean_ms("storage.load", "phase.deploy"), "ms"),
        "storage.checkpoint_bytes": (t.mean_count("storage.save", "phase.deploy"), "bytes"),
        "sampling.instance_ms": (t.mean_ms("sampling.instance", sample), "ms"),
        "sampling.vertex_enum_ms": (t.mean_ms("sampling.vertex_enum", sample), "ms"),
        "sampling.draw_ms": ((t.total_ms("sampling.loads", sample)
                              + t.total_ms("sampling.factors", sample)) / max(draws, 1), "ms"),
        "sampling.accept_ratio": (t.n("sampling.instance", sample) / max(draws, 1), "ratio"),
        "nn.mlp_forward_ms": (t.mean_ms("nn.mlp_forward", train), "ms"),
        "nn.mlp_backward_ms": (t.mean_ms("nn.mlp_backward", train), "ms"),
        "nn.adam_step_ms": (t.mean_ms("nn.adam_step", train), "ms"),
        "nn.calls_per_step": (nn_calls / train_steps, "count"),
        "nn.flop_per_step": (nn_flop_per_step(primal_sizes, dual_sizes, batch), "flop"),
        "layers.bound_map_ms": (t.mean_ms("layers.bound_map", single), "ms"),
        "layers.repair_ms": (t.mean_ms("layers.repair", single), "ms"),
        "layers.bisection_ms": (t.mean_ms("layers.bisection", single), "ms"),
        "layers.bisection_evals": (float(t.count[bisect].sum()) / max(single_rows, 1), "count"),
        "layers.slacks_ms": (t.mean_ms("layers.forward", batched, self_time=True), "ms"),
        "layers.slack_bytes": (t.mean_count("layers.forward", batched), "bytes"),
        "layers.objective_grads_ms": (t.mean_ms("layers.objective_grads", train), "ms"),
        "layers.backward_ms": (t.mean_ms("layers.backward", train), "ms"),
        "training.max_violation_ms": (t.mean_ms("training.max_violation", train), "ms"),
        "training.step_self_ms": (t.mean_ms("training.train_pdl", train, self_time=True)
                                  / train_steps, "ms"),
        "oracle.solve_ms": (t.mean_ms("oracle.solve", "phase.oracle"), "ms"),
        "oracle.evals": (t.mean_count("oracle.solve", "phase.oracle"), "count"),
    }
    return m
