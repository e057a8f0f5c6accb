"""The benchmark's tracer patches package names by attribute; each one it
names must still exist, or a traced benchmark run fails when it installs.
The benchmark also reads the bisection's iteration count from its arguments
and probes the host between optimizer steps by patching
``training.adam_step``; both hooks are pinned here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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


def test_train_pdl_calls_adam_step_through_module_global(monkeypatch, m5_case, m5_factors,
                                                         m5_cont):
    calls = []
    original = training.adam_step

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "adam_step", counted)
    instances, _ = sample_dataset(m5_case, PerturbationConfig(seed=4), 16, cont=m5_cont)
    config = training.TrainerConfig(K=2, L=3, batch=4, seed=1)
    training.train_pdl(m5_case, m5_factors, m5_cont, instances, config)
    assert len(calls) == 2 * config.K * config.L
