"""The benchmark's tracer patches package names by attribute; each one it
names must still exist, or a traced benchmark run fails when it installs."""

import importlib
import importlib.util
from pathlib import Path

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
