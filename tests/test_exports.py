"""`netstab.__all__`: sorted, resolvable, and holding every public import."""

import ast
import inspect

import netstab


def test_all_is_sorted_complete_and_resolves():
    imports = [node for node in ast.parse(inspect.getsource(netstab)).body
               if isinstance(node, ast.ImportFrom)]
    public = {alias.name for node in imports for alias in node.names if alias.name[0] != "_"}
    assert netstab.__all__ == sorted(netstab.__all__) and "DrainProblem" in netstab.__all__
    assert all(hasattr(netstab, name) for name in netstab.__all__)
    assert public <= set(netstab.__all__)
