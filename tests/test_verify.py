"""The quick invariant suites of daniell.verify that no other test runs.

rings, lattice and extension run in acceptance criterion 7, dirichlet in
tests/test_dirichlet.py.
"""

import pytest

from daniell import verify


@pytest.mark.parametrize("name", ["functional", "lebesgue", "wiener"])
def test_quick_suite_passes(name):
    results = verify.ALL_SUITES[name](quick=True)
    assert results and all(r["pass"] for r in results), [
        r["name"] for r in results if not r["pass"]]
