"""The traced benchmark wraps netstab functions by name; each must exist.

`perfbench/spans.py` lists them as (module, function) pairs and looks each
up with getattr when `perfbench/run.py --trace 1` installs its tracer, so a
rename or deletion in netstab would only surface there.  Its traced gate
also checks step counts against copies of netstab's values in
`perfbench/workloads.py`, which must follow them.
"""

import ast
import importlib
from pathlib import Path

import pytest

from netstab import equilibrium, harness, presets, stability

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(path, name):
    """The literal value assigned to `name` in `path`, read from the source
    without importing or caching the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no {name}")


@pytest.mark.parametrize("module, name", _assigned(PERFBENCH / "spans.py", "TARGETS"))
def test_traced_function_exists(module, name):
    fn = getattr(importlib.import_module("netstab." + module), name, None)
    assert callable(fn), f"perfbench traces netstab.{module}.{name}, which is gone"


def test_perfbench_step_counts_follow_netstab():
    """`netstab analyze` steps CONTRACTION_SAMPLES times in its contraction
    check, and `reproduce-paper` steps once per supply-scale fit point
    (2,403), through the open-loop run (450) and through four closed-loop
    runs (2,000)."""
    workloads = PERFBENCH / "workloads.py"
    assert _assigned(workloads, "CONTRACTION_SAMPLES") == stability.CONTRACTION_SAMPLES
    steps = (equilibrium.FIT_STAGES * equilibrium.FIT_WIDTH
             + min(harness.SUITE_HORIZON, harness.OPEN_LOOP_HORIZON)
             + len(presets.benchmark_initial_states()) * harness.SUITE_HORIZON)
    assert _assigned(workloads, "REPRODUCE_STEPS") == steps
