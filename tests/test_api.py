"""The public surface: exported names and the functions the benchmark traces."""

import ast
import importlib
from pathlib import Path

import planebundles

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_entries():
    """The TRACED tuple of the benchmark tracer, read without importing it."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def test_all_names_resolve_without_duplicates():
    names = planebundles.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(planebundles, name), name


def test_traced_functions_resolve():
    entries = _traced_entries()
    assert entries
    for metric, module, path in entries:
        obj = importlib.import_module(f"planebundles.{module}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{metric}: planebundles.{module}.{path}"
            obj = getattr(obj, attr)
        assert callable(obj), metric
