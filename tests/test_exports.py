"""The package's public names: every ``__all__`` entry resolves, names
that only tests used are not exported, removed parameters stay gone, and no
module imports a name it never uses."""

import ast
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
    ("builders.build_varying_reward", "base"),
    ("builders.varying_reward_potential", "base"),
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


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    """Every name a module-level import binds is read somewhere in the module
    or re-exported through ``__all__``; ``from __future__`` binds nothing."""
    mod = importlib.import_module(f"statmenus.{module}")
    tree = ast.parse(inspect.getsource(mod))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = getattr(mod, "__all__", ())
    assert sorted(imported - used - set(exported)) == []
