"""The traced benchmark wraps netstab functions by name; each must exist.

`perfbench/spans.py` lists them as (module, function) pairs and looks each
up with getattr when `perfbench/run.py --trace 1` installs its tracer, so a
rename or deletion in netstab would only surface there.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    """TARGETS read from the source, without importing or caching spans.py."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


@pytest.mark.parametrize("module, name", _targets())
def test_traced_function_exists(module, name):
    fn = getattr(importlib.import_module("netstab." + module), name, None)
    assert callable(fn), f"perfbench traces netstab.{module}.{name}, which is gone"
