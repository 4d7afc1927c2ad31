"""Every quick invariant suite of daniell.verify, except the three that
acceptance criterion 7 runs at full size (rings, lattice, extension).

A suite added to ``verify.ALL_SUITES`` runs here without further edits.
"""

import ast
import inspect

import pytest

from daniell import verify

FULL_SIZE_IN_CRITERION_7 = ("rings", "lattice", "extension")


@pytest.mark.parametrize(
    "name", [n for n in verify.ALL_SUITES if n not in FULL_SIZE_IN_CRITERION_7])
def test_quick_suite_passes(name):
    results = verify.ALL_SUITES[name](quick=True)
    assert results and all(r["pass"] for r in results), [
        r["name"] for r in results if not r["pass"]]


def test_record_names_are_unique():
    # each property has one home, so a record name names exactly one check:
    # every record is named by a literal "<suite>.<check>", used once
    names = []
    for suite, fn in verify.ALL_SUITES.items():
        calls = [node for node in ast.walk(ast.parse(inspect.getsource(fn)))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record"]
        assert calls, suite
        for call in calls:
            name = call.args[0]
            assert isinstance(name, ast.Constant) and name.value.startswith(suite + "."), (
                suite, ast.unparse(name))
            names.append(name.value)
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
