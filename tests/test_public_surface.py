"""Every function and class the package exports has a caller in program code.

Program code is the package's own modules (``__init__`` only re-exports),
the demos and the benchmark.  A name counts as called where it appears as
a ``Name`` or an ``Attribute`` in their syntax trees.  The benchmark's
tracer looks its targets up by attribute name, so those names count too.
An export that only tests call is code no program runs: wire it into a
program or delete it.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import scaledim

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

EXPORTS = sorted(
    name
    for name in scaledim.__all__
    if inspect.isfunction(getattr(scaledim, name)) or inspect.isclass(getattr(scaledim, name))
)


def _program_files():
    package = ROOT / "src" / "scaledim"
    yield from (path for path in sorted(package.glob("*.py")) if path.name != "__init__.py")
    for folder in ("demos", "perfbench"):
        yield from sorted((ROOT / folder).rglob("*.py"))


@pytest.fixture(scope="module")
def used_names():
    names = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names.update(attr for _, attr, _ in tracing.TARGETS)
    return names


def test_exports_are_found():
    # the package exports classes and functions, not only modules
    assert "critical_exponent" in EXPORTS and "ScaleWindow" in EXPORTS
    assert "covers" not in EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_export_has_a_program_caller(used_names, name):
    assert name in used_names, f"{name} is exported, but only tests call it"
