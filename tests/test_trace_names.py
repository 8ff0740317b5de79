"""Every function the benchmark tracer wraps still exists under its name."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, module, attr",
    [(name, module, attr) for name, module, attr, _ in load_tracer().TRACED],
)
def test_traced_name_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), name
