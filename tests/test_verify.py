"""Every quick invariant suite of daniell.verify, except the three that
acceptance criterion 7 runs at full size (rings, lattice, extension).

A suite added to ``verify.ALL_SUITES`` runs here without further edits.
"""

import pytest

from daniell import verify

FULL_SIZE_IN_CRITERION_7 = ("rings", "lattice", "extension")


@pytest.mark.parametrize(
    "name", [n for n in verify.ALL_SUITES if n not in FULL_SIZE_IN_CRITERION_7])
def test_quick_suite_passes(name):
    results = verify.ALL_SUITES[name](quick=True)
    assert results and all(r["pass"] for r in results), [
        r["name"] for r in results if not r["pass"]]
