"""The public surface: every exported name resolves, and every function the benchmark traces or calls exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import pairvis

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"

SUBMODULES = {info.name for info in pkgutil.iter_modules(pairvis.__path__)}
MODULES = [f"pairvis.{name}" for name in sorted(SUBMODULES)]


def _traced():
    spec = importlib.util.spec_from_file_location("pairvis_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, cls, attr) for module, attr, cls, _, _ in tracer.TRACED]


def _attribute_chains(path):
    """Attribute chains on a pairvis submodule in one source file, as (module, attr, ...).

    The root is a bare submodule name (``radon.RadonAngle.kplus``), a lookup of
    one by name (``self.m["state"].SetupParams``), or a variable assigned such a
    lookup (``corr = self.m["correlation"]``, then ``corr.moments_x``).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}

    def module_of(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id, node.id if node.id in SUBMODULES else None)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) and node.slice.value in SUBMODULES:
            return node.slice.value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            module = module_of(node.value)
            if module:
                aliases[node.targets[0].id] = module
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            module = module_of(node)
            if module:
                chains.add((module, *reversed(attrs)))
    return chains


BENCH_CHAINS = sorted(set().union(*(_attribute_chains(path) for path in BENCH.rglob("*.py"))))


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


@pytest.mark.parametrize("chain", BENCH_CHAINS, ids=".".join)
def test_every_bench_attribute_chain_resolves(chain):
    # the harness reaches the package through these; a deleted or renamed name breaks it
    owner = importlib.import_module(f"pairvis.{chain[0]}")
    for depth, attr in enumerate(chain[1:], start=1):
        assert hasattr(owner, attr), f"{'.'.join(chain[:depth])} has no {attr!r}"
        owner = getattr(owner, attr)
