"""The package's public names: every ``__all__`` entry resolves, and names
that only tests used are not exported."""

import importlib
import pkgutil

import pytest

import statmenus as sm

MODULES = sorted(m.name for m in pkgutil.iter_modules(sm.__path__))

# Test-only names that live in tests/oracles.py (or nowhere) instead.
REMOVED = (
    "select",
    "SelectionOutcome",
    "expected_score",
    "sample_pvalue",
    "sample_pvalues",
    "misspecified_report",
    "MisreportResult",
    "matched_tdr",
    "fdr_gap",
)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_name(module):
    names = {}
    exec(f"from statmenus.{module} import *", names)
    exported = getattr(importlib.import_module(f"statmenus.{module}"), "__all__", ())
    assert set(exported) <= set(names)
    assert not set(REMOVED) & set(exported)


def test_test_only_names_are_not_exported():
    for name in REMOVED:
        assert not hasattr(sm, name), name
