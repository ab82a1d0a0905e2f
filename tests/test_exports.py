"""The package's public names: every ``__all__`` entry resolves, names
that only tests used are not exported, and removed parameters stay gone."""

import importlib
import inspect
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
# Parameters that were removed because no caller needed them.
REMOVED_PARAMETERS = [
    ("contracts.verify_separating", "support"),
    ("evaluation.simulate_population", "jobs"),
    ("cli.run", "jobs"),
]


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


@pytest.mark.parametrize("function, parameter", REMOVED_PARAMETERS)
def test_removed_parameters_stay_removed(function, parameter):
    module, _, name = function.partition(".")
    fn = getattr(importlib.import_module(f"statmenus.{module}"), name)
    assert parameter not in inspect.signature(fn).parameters
