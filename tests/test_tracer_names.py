"""The benchmark's tracer patches package names by attribute; each one it
names must still exist, or a traced benchmark run fails when it installs.
The benchmark also reads the bisection's iteration count from its arguments,
probes the host between optimizer steps by patching ``training.adam_step``,
times the evaluation pass by patching ``training.max_violation`` and counts
the slack bytes of every forward pass; those hooks are pinned here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from scopflearn import layers, training
from scopflearn.sampling import PerturbationConfig, sample_dataset

TRACING = Path(__file__).resolve().parents[1] / "scopfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("scopfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for mod_name, attr, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr}"
    for cls, attr, _, _ in tracing.METHODS:
        # installed from the class's own namespace, not an inherited one
        assert callable(cls.__dict__.get(attr)), f"{cls.__name__}.{attr}"


def test_bisection_iteration_count_is_positional_six():
    # the tracer's bisection work count reads t at args[6]
    params = list(inspect.signature(layers.binary_search_batch).parameters)
    assert params.index("t") == 6


def _count_train_pdl_calls(monkeypatch, name, case, factors, cont):
    calls = []
    original = getattr(training, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, name, counted)
    instances, _ = sample_dataset(case, PerturbationConfig(seed=4), 16, cont=cont)
    config = training.TrainerConfig(K=2, L=3, batch=4, seed=1)
    training.train_pdl(case, factors, cont, instances, config)
    return len(calls), config


def test_train_pdl_calls_adam_step_through_module_global(monkeypatch, m5_case, m5_factors,
                                                         m5_cont):
    calls, config = _count_train_pdl_calls(monkeypatch, "adam_step", m5_case, m5_factors,
                                           m5_cont)
    assert calls == 2 * config.K * config.L


def test_train_pdl_calls_max_violation_through_module_global(monkeypatch, m5_case,
                                                             m5_factors, m5_cont):
    # one evaluation pass per outer iteration
    calls, config = _count_train_pdl_calls(monkeypatch, "max_violation", m5_case, m5_factors,
                                           m5_cont)
    assert calls == config.K


def test_slack_bytes_hook_reads_every_slack_mode(m5_case, m5_factors, m5_cont):
    tracing = _tracing()
    pipe = layers.PrimalPipeline(m5_case, m5_factors, m5_cont)
    z = np.zeros((4, m5_case.n_gen))
    d = np.broadcast_to(m5_case.d0, (4, m5_case.n_load))
    gub = np.broadcast_to(m5_case.gub0, z.shape)
    counts = {}
    for mode in (True, "sums", False):
        state = pipe.forward(z, d, gub, with_slacks=mode)
        counts[mode] = tracing._slack_bytes((z, d, gub), {"with_slacks": mode}, state)
    # serving keeps the per-outage slacks, training their sums and signs
    n_line, n_ke, n_kg = m5_case.n_line, pipe.ke.size, pipe.kg.size
    assert counts[True] == 8 * n_line * (1 + n_kg + n_ke)
    assert counts["sums"] == 2 * 8 * n_line * (1 + n_kg)
    assert counts[False] == 0
