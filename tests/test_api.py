"""The public surface: every exported name resolves, and every function the benchmark traces exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import pairvis

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

MODULES = [f"pairvis.{info.name}" for info in pkgutil.iter_modules(pairvis.__path__)]


def _traced():
    spec = importlib.util.spec_from_file_location("pairvis_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, cls, attr) for module, attr, cls, _, _ in tracer.TRACED]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names {missing}"


@pytest.mark.parametrize("module,cls,attr", _traced() + [("_mpcore", None, "workdps")])
def test_every_traced_function_exists(module, cls, attr):
    # the tracer patches these in place; a class attribute must be the class's own
    owner = importlib.import_module(f"pairvis.{module}")
    if cls is None:
        assert callable(getattr(owner, attr, None))
    else:
        assert attr in vars(getattr(owner, cls))
