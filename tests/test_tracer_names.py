"""The benchmark tracer wraps mopar's functions by name; a rename or a
refactor that drops one of those names would silently leave its layer
untraced, so every name must resolve."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _patches() -> tuple[tuple[str, str, str], ...]:
    # read the literal without importing the benchmark's code
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no PATCHES")


def test_every_traced_name_resolves_on_mopar():
    patches = _patches()
    assert patches
    for path, _, how in patches:
        module, *attrs = path.split(".")
        target = importlib.import_module(f"mopar.{module}")
        for attr in attrs:
            assert hasattr(target, attr), path
            target = getattr(target, attr)
        assert callable(target), path
        if how == "generator":
            # the tracer consumes these inside their own span
            assert inspect.isgeneratorfunction(target), path
