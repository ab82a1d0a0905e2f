"""End-to-end tests for the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statmenus as sm
from statmenus import _quad, cli
from statmenus.cli import main, parse_config
from statmenus.errors import ConfigError

BASE_CONFIG = {
    "schema_version": 1,
    "test": {"kind": "gaussian_mean", "theta1": 1.0},
    "objective": {"kind": "fdr", "alpha": 0.25},
    "population": {"kind": "discrete", "types": [0.3, 0.4, 0.5, 0.6, 0.7]},
    "menu": {
        "method": "finite",
        "terminal_reward": 100,
        "terminal_cost": 5,
        "epsilon": 50,
        "lambda": 0.5,
        "path": "menu.json",
    },
    "simulation": {"n": 20000, "seed": 11},
    "sensitivity": {"actual_theta1": [1.1, 0.9], "points": 64},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for pointer, value in (overrides or {}).items():
        node = doc
        parts = pointer.strip("/").split("/")
        for key in parts[:-1]:
            node = node.setdefault(key, {})
        if value is ...:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert "artifact_version=" in lines[0]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_cli_import_loads_no_scipy_integrate_or_optimize():
    """Every command pays its imports: either module adds 0.3-0.4 s to a
    command's start-up (2-vCPU host). A fresh interpreter, since this one's
    tests import scipy.optimize themselves."""
    code = (
        "import sys, statmenus.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sm.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_commands_load_no_module_after_start_up(tmp_path):
    """``import statmenus.cli`` loads every module a command needs, so that no
    set-up time hides in a command's own time: one interpreter runs all seven
    commands, on a constant-reward, a finite and a tabulated config, and
    ``sys.modules`` does not grow. (``np.unique``, for one, imports
    ``numpy.ma`` lazily; ``scipy.special`` loads it first.)"""
    grid = {"kind": "uniform_grid", "lo": 0.43, "hi": 0.86, "n": 64}
    fixed = write_config(
        tmp_path, {"/population": grid, "/menu": {**FIXED_MENU, "path": "fixed/menu.json"},
                   "/simulation/n": 1000, "/sensitivity/points": 16}, name="fixed.json"
    )
    finite = write_config(tmp_path, {"/menu/path": "finite/menu.json"}, name="finite.json")
    pair = write_config(
        tmp_path, {"/test": KNOTTED_TEST, "/population/types": [0.3, 0.7]}, name="pair.json"
    )
    runs = [(command, fixed, "fixed") for command in cli.COMMANDS if command != "frontier"]
    runs += [(command, finite, "finite") for command in ("menu-build", "menu-verify", "simulate")]
    runs += [(command, pair, "pair") for command in ("thresholds", "frontier")]
    argvs = [[c, "--config", str(path), "--out", str(tmp_path / out)] for c, path, out in runs]
    # the front door's own two exits: the help text, and a malformed argv
    argvs += [["--help"], ["thresholds", "--bogus", "--config", str(fixed)]]
    code = (
        "import io, json, sys, contextlib, statmenus.cli as cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(set(sys.modules) - before)]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sm.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    codes, added = json.loads(run.stdout)
    assert set(cli.COMMANDS) == {command for command, _, _ in runs}
    assert codes == [0] * len(runs) + [0, 2], run.stderr
    assert added == []


def test_parse_minimal_config(tmp_path):
    path = write_config(tmp_path)
    config = parse_config(path)
    assert config.model.kind == "gaussian_mean"
    assert config.objective.alpha == 0.25
    assert config.population.types == (0.3, 0.4, 0.5, 0.6, 0.7)


def test_parse_rejects_bad_alpha(tmp_path):
    path = write_config(tmp_path, {"/objective/alpha": 1.5})
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert any(ptr == "/objective/alpha" for ptr, _ in err.value.errors)


def test_parse_rejects_unknown_builder(tmp_path):
    path = write_config(tmp_path, {"/menu/method": "warp"})
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    (pointer, message), = [e for e in err.value.errors if e[0] == "/menu/method"]
    for allowed in ("potential", "varying_reward", "fixed_reward", "finite"):
        assert allowed in message


def test_parse_rejects_schema_version(tmp_path):
    path = write_config(tmp_path, {"/schema_version": 2})
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.json")


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    """A ``--config`` naming a directory, or a file that is not UTF-8, exits
    2 at / with the reason, instead of ending in a traceback."""
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"schema_version": 1, "note": "\xff"}')
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error at /: cannot read config file {path}: " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_parse_tabulated_inline(tmp_path):
    path = write_config(
        tmp_path,
        {"/test": {"kind": "tabulated", "taus": [0.0, 0.5, 1.0], "betas": [0.0, 0.8, 1.0]}},
    )
    config = parse_config(path)
    assert config.model.kind == "tabulated"


@pytest.mark.parametrize("key", ["n", "seed"])
def test_simulation_integers_reject_booleans(tmp_path, capsys, key):
    path = write_config(tmp_path, {f"/simulation/{key}": True})
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert [ptr for ptr, _ in err.value.errors] == [f"/simulation/{key}"]
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"/simulation/{key}" in capsys.readouterr().err
    assert not (tmp_path / "simulation.json").exists()


FIXED_MENU = {"method": "fixed_reward", "reward": 100, "q_lo": 0.43, "q_bar": 0.86, "n": 9}
VARYING = {"/menu/method": "varying_reward", "/menu/q_lo": 0.3, "/menu/q_bar": 0.8}
POTENTIAL = {"/menu/method": "potential", "/menu/values": [1, 0], "/menu/subgradients": [-2, -1]}
FINITE = {"/menu/method": "finite"}
GRID = {"kind": "uniform_grid", "lo": 0.1, "hi": 0.9, "n": 64}
NAN = float("nan")  # json.dumps writes the literal NaN, which json.loads reads back


@pytest.mark.parametrize(
    "command, overrides, pointer, artifact",
    [
        ("menu-build", {"/menu/reward": "abc"}, "/menu/reward", "menu.json"),
        ("menu-build", {"/menu/q_lo": "x"}, "/menu/q_lo", "menu.json"),
        ("menu-build", {"/menu/n": True}, "/menu/n", "menu.json"),
        ("menu-build", {"/menu/n": 1.5}, "/menu/n", "menu.json"),
        ("menu-build", {**VARYING, "/menu/eta": "x"}, "/menu/eta", "menu.json"),
        ("menu-build", {**POTENTIAL, "/menu/points": "x"}, "/menu/points", "menu.json"),
        ("menu-build", {**FINITE, "/menu/lambda": "x"}, "/menu/lambda", "menu.json"),
        ("menu-build", {**FINITE, "/menu/epsilon": ["x"]}, "/menu/epsilon", "menu.json"),
        ("menu-verify", {"/menu/margin": "x"}, "/menu/margin", "verify_report.json"),
        ("menu-verify", {"/menu/path": 5}, "/menu/path", "verify_report.json"),
        ("sensitivity", {"/sensitivity/points": "x"}, "/sensitivity/points", "sensitivity.csv"),
        ("sensitivity", {"/sensitivity/points": -3}, "/sensitivity/points", "sensitivity.csv"),
        ("sensitivity", {"/sensitivity/points": 0}, "/sensitivity/points", "sensitivity.csv"),
        ("simulate", {"/simulation/stratified": "no"}, "/simulation/stratified", "simulation.json"),
        ("thresholds", {"/population": {**GRID, "lo": "0.1"}}, "/population/lo", "thresholds.csv"),
        ("thresholds", {"/population": {**GRID, "hi": [0.9]}}, "/population/hi", "thresholds.csv"),
        ("thresholds", {"/population": {**GRID, "n": 64.7}}, "/population/n", "thresholds.csv"),
        ("thresholds", {"/population": {**GRID, "n": 0}}, "/population/n", "thresholds.csv"),
        ("thresholds", {"/population/types": [0.3, "0.5"]}, "/population/types", "thresholds.csv"),
        ("thresholds", {"/population/weights": "even"}, "/population/weights", "thresholds.csv"),
        ("menu-build", {**FINITE, "/menu/epsilon": NAN}, "/menu/epsilon", "menu.json"),
        ("menu-build", {"/menu/reward": float("inf")}, "/menu/reward", "menu.json"),
        ("menu-build", {"/menu/q_lo": NAN}, "/menu/q_lo", "menu.json"),
        ("menu-build", {"/menu/reward": 10**400}, "/menu/reward", "menu.json"),  # past float range
        ("menu-verify", {"/menu/margin": NAN}, "/menu/margin", "verify_report.json"),
        ("thresholds", {"/population": {**GRID, "lo": NAN}}, "/population/lo", "thresholds.csv"),
        ("thresholds", {"/population/weights": [0.2, NAN, 0.2, 0.2, 0.2]}, "/population/weights",
         "thresholds.csv"),
        ("menu-verify", {"/menu/margin": -10}, "/menu/margin", "verify_report.json"),
        ("simulate", {"/simulation/seed": -3}, "/simulation/seed", "simulation.json"),
        ("menu-build", {**POTENTIAL, "/menu/points": []}, "/menu/points", "menu.json"),
        ("menu-build", {**POTENTIAL, "/menu/points": [0.3, 0.6], "/menu/values": []},
         "/menu/values", "menu.json"),
        ("menu-build", {**POTENTIAL, "/menu/points": [0.3, 0.6], "/menu/subgradients": []},
         "/menu/subgradients", "menu.json"),
        ("thresholds", {"/population": {**GRID, "n": 10**12}}, "/population/n", "thresholds.csv"),
        ("thresholds", {"/population": {**GRID, "n": cli.MAX_GRID + 1}}, "/population/n",
         "thresholds.csv"),
        ("menu-build", {"/menu/n": 10**12}, "/menu/n", "menu.json"),
        ("sensitivity", {"/sensitivity/points": 10**12}, "/sensitivity/points", "sensitivity.csv"),
        ("simulate", {"/simulation/n": 10**23}, "/simulation/n", "simulation.json"),
        ("simulate", {"/simulation/n": sm.evaluation.MAX_AGENTS + 1}, "/simulation/n",
         "simulation.json"),
    ],
)
def test_mistyped_config_value_is_config_error(
    tmp_path, capsys, command, overrides, pointer, artifact
):
    """Each value has the wrong type, is no positive count, is a grid size
    above ``cli.MAX_GRID``, an agent count above ``MAX_AGENTS`` (2^53) or is
    not finite: exit 2 with its pointer before any artifact is written (a
    valid menu.json is in place)."""
    menu = {**FIXED_MENU, "path": "menu.json"}
    good = write_config(tmp_path, {"/menu": menu})
    assert main(["menu-build", "--config", str(good), "--out", str(tmp_path)]) == 0
    path = write_config(tmp_path, {"/menu": menu, **overrides}, name="bad.json")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error at {pointer}:" in capsys.readouterr().err
    assert not (out / artifact).exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--seed", "-1"),
        ("frontier", "--grid", "-4"),
        ("frontier", "--grid", "0"),
        ("simulate", "--jobs", "0"),
    ],
)
def test_out_of_range_flag_is_config_error(tmp_path, capsys, command, flag, value):
    """A negative seed, or a grid or worker count below 1, exits 2 before the
    output directory is made."""
    path = write_config(tmp_path, {"/population/types": [0.3, 0.7]})
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), flag, value]) == 2
    assert f"{flag} must be >=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["menu-build", "frontier", "sensitivity"])
def test_grid_above_the_bound_is_config_error(tmp_path, capsys, command):
    """``--grid`` above ``cli.MAX_GRID`` exits 2 and names the flag before the
    output directory is made, instead of failing to allocate the grid."""
    menu = {**FIXED_MENU, "path": "menu.json"}
    path = write_config(tmp_path, {"/population/types": [0.3, 0.7], "/menu": menu})
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--grid", str(10**12)]) == 2
    assert f"--grid must be <= {cli.MAX_GRID}" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_csv_knot_is_config_error(tmp_path, capsys):
    """A NaN knot fails every comparison the table checks would make; it is
    rejected at /test instead of giving tau = 1 for every type."""
    (tmp_path / "curve.csv").write_text("tau,beta1\n0,0\nnan,0.5\n1,1\n")
    path = write_config(tmp_path, {"/test": {"kind": "tabulated", "csv": "curve.csv"}})
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(path), "--out", str(out)]) == 2
    assert "config error at /test: table knots must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, pointer, message, artifact",
    [
        ("menu-build", {"/menu": {**FIXED_MENU, "reward": -1}}, "/menu", "reward must be positive",
         "menu.json"),
        ("menu-build", {"/menu": {**FIXED_MENU, "q_lo": 0.9}}, "/menu", "q_lo < q_bar", "menu.json"),
        ("menu-build", {"/menu/lambda": 2}, "/menu", "lam must lie in", "menu.json"),
        ("frontier", {}, "/population", "two types", "frontier.csv"),
        ("simulate", {"/population": GRID, "/simulation/stratified": True},
         "/simulation/stratified", "discrete population", "simulation.json"),
        ("menu-build", {**VARYING, "/menu/base_reward": 0}, "/menu",
         "base reward must be positive and finite", "menu.json"),
        ("menu-build", {**VARYING, "/menu/base_reward": -1}, "/menu",
         "base reward must be positive and finite", "menu.json"),
    ],
)
def test_config_value_out_of_range_is_config_error(
    tmp_path, capsys, command, overrides, pointer, message, artifact
):
    """A range the builders or commands check on config values exits 2 with
    its pointer and message, not 3 ("infeasible")."""
    assert main(["menu-build", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)]) == 0
    path = write_config(tmp_path, overrides, name="bad.json")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error at {pointer}:" in err and message in err
    assert not (out / artifact).exists()


def test_relative_output_directory_resolves_against_the_config(tmp_path, monkeypatch):
    """A relative ``output.directory`` lies in the config file's directory,
    as ``menu.path`` does, whatever the working directory."""
    (tmp_path / "sub").mkdir()
    overrides = {"/output": {"directory": "out"}, "/menu/path": "out/menu.json"}
    write_config(tmp_path / "sub", overrides)
    monkeypatch.chdir(tmp_path)
    for command in ("menu-build", "menu-verify"):
        assert main([command, "--config", "sub/config.json"]) == 0
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert written == [
        "sub", "sub/config.json", "sub/out", "sub/out/menu.json", "sub/out/verify_report.json"
    ]


def test_refused_run_leaves_no_output_directory(tmp_path, capsys):
    """The output directory is made when the first artifact is written: a
    command refused at its checks leaves no directory behind."""
    gm1 = sm.gaussian_model(1.0)
    tau = sm.fdr_threshold(0.5, sm.fdr_objective(0.25), gm1)
    contract = sm.Contract(tau, 100.0, sm.zero_utility_cost(0.5, tau, 100.0, gm1))
    sm.Menu((0.5,), (contract,)).save(tmp_path / "menu.json")
    cases = [
        ("sensitivity", {"/sensitivity/points": 5}, "newdir/sub", "/menu/path"),
        ("simulate", {"/population": GRID, "/simulation/stratified": True}, "other/dir",
         "/simulation/stratified"),
    ]
    for command, overrides, out, pointer in cases:
        path = write_config(tmp_path, overrides)
        assert main([command, "--config", str(path), "--out", str(tmp_path / out)]) == 2
        assert f"config error at {pointer}:" in capsys.readouterr().err
        assert not (tmp_path / out.split("/")[0]).exists()


# The 5-knot curve whose Bayes threshold map is a step function.
KNOTTED_TEST = {
    "kind": "tabulated", "taus": [0, 0.01, 0.05, 0.2, 1], "betas": [0, 0.2, 0.45, 0.75, 1],
}
BAYES = {"kind": "bayes", "omega0": 1.0, "omega1": 1.0}


@pytest.mark.parametrize(
    "command, artifact",
    [
        ("thresholds", "thresholds.csv"),
        ("menu-build", "menu.json"),
        ("evaluate", "evaluate.json"),
        ("sensitivity", "sensitivity.csv"),
    ],
)
def test_bayes_objective_on_a_tabulated_test_is_config_error(tmp_path, capsys, command, artifact):
    """Every command that computes thresholds from the objective exits 2 at
    /objective, naming the unsupported pair, before writing an artifact: the
    config is unsupported, not infeasible (exit 3)."""
    menu = {**FIXED_MENU, "path": "menu.json"}
    good = write_config(tmp_path, {"/menu": menu})
    assert main(["menu-build", "--config", str(good), "--out", str(tmp_path)]) == 0
    overrides = {"/menu": menu, "/test": KNOTTED_TEST, "/objective": BAYES}
    path = write_config(tmp_path, overrides, name="bad.json")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error at /objective: a bayes objective is not supported with a tabulated" in err
    assert not (out / artifact).exists()


def test_bayes_objective_on_a_tabulated_test_runs_without_thresholds(tmp_path):
    """``frontier`` and ``simulate`` read no objective, so the same config
    runs them."""
    menu = {**FIXED_MENU, "path": "menu.json"}
    assert main(["menu-build", "--config", str(write_config(tmp_path, {"/menu": menu})),
                 "--out", str(tmp_path)]) == 0
    overrides = {"/menu": menu, "/test": KNOTTED_TEST, "/objective": BAYES}
    path = write_config(tmp_path, {**overrides, "/population/types": [0.3, 0.7]}, name="bad.json")
    assert main(["frontier", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_overflowing_slack_is_config_error(tmp_path, capsys, monkeypatch):
    """``"eta": 1e308`` is finite, but the Simpson sums of its slack overflow:
    the quadrature raises and the build exits 2 at /menu. The depth cap is
    lowered, so that a quadrature that refines instead stops soon."""
    monkeypatch.setattr(_quad, "_MAX_DEPTH", 12)
    path = write_config(tmp_path, {**VARYING, "/menu/eta": 1e308})
    out = tmp_path / "out"
    assert main(["menu-build", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error at /menu: integrand or Simpson estimate not finite" in err
    assert not (out / "menu.json").exists()


def test_slack_too_large_for_the_quadrature_is_config_error(tmp_path, capsys, monkeypatch):
    """On 17 support points over [0.5, 0.8], ``"eta": 1e308`` keeps its
    Simpson sums finite, but their rounding exceeds the quadrature's
    tolerance at every depth: the build exits 2 at /menu at once instead of
    refining until memory runs out. The depth cap is lowered, so that a
    quadrature that refines instead stops soon."""
    monkeypatch.setattr(_quad, "_MAX_DEPTH", 12)
    overrides = {**VARYING, "/menu/q_lo": 0.5, "/menu/n": 17, "/menu/eta": 1e308}
    out = tmp_path / "out"
    path = write_config(tmp_path, overrides)
    assert main(["menu-build", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error at /menu: tolerance below the rounding of the Simpson sums" in err
    assert not (out / "menu.json").exists()


def test_opted_out_type_in_evaluate_is_infeasible(tmp_path, capsys):
    """A population type that opts out of the menu has no principal return:
    the menu does not serve that population, exit 3."""
    assert main(["menu-build", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)]) == 0
    path = write_config(tmp_path, {"/population/types": [0.5, 1.0]}, name="evaluate.json")
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "opts out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("evaluate", "screening_cost is inf"), ("simulate", "principal_cash is -inf")],
    ids=["evaluate", "simulate"],
)
def test_non_finite_result_is_infeasible(tmp_path, capsys, command, key):
    """A menu whose utilities overflow gives infinite costs: the command exits
    3 naming the key and writes no artifact, instead of an Infinity in its
    JSON (and evaluate's return curve before it). The overflow raises no
    numpy warning, which the test session would turn into an error."""
    menu = sm.Menu((0.3, 0.6), (sm.Contract(0.1, 1e308, -1e308), sm.Contract(0.05, 1.0, 0.0)))
    menu.save(tmp_path / "menu.json")
    path = write_config(
        tmp_path,
        {"/population": {"kind": "uniform_grid", "lo": 0.3, "hi": 0.6, "n": 16},
         "/simulation/n": 1000},
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["menu-verify", "evaluate", "simulate"])
def test_menu_lines_past_the_float_range_are_infeasible(tmp_path, capsys, command):
    """Finite contracts whose utility lines overflow (intercept R beta1 - c =
    1.7e308 beta1 + 1.7e308): every command that reads the lines exits 3
    naming the first such contract, with no numpy warning and no artifact,
    rather than a verify report with gap NaN (exit 4) or a crash."""
    contracts = (sm.Contract(0.9, 1.7e308, -1.7e308), sm.Contract(0.8, 1.7e308, -1.7e308))
    sm.Menu((0.3, 0.6), contracts).save(tmp_path / "menu.json")
    path = write_config(
        tmp_path,
        {"/population": {"kind": "uniform_grid", "lo": 0.3, "hi": 0.6, "n": 16},
         "/simulation/n": 1000},
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    assert "contract (tau=0.9, reward=1.7e+308, cost=-1.7e+308)" in capsys.readouterr().err
    assert not out.exists()


_CSV_CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.225073858507201e-308]),
    st.integers(),
    st.booleans(),
    st.text(st.characters(min_codepoint=32, max_codepoint=126)),  # commas and % too
)


@settings(max_examples=300, deadline=None)
@given(
    columns=st.integers(0, 8).flatmap(
        lambda rows: st.lists(
            st.lists(_CSV_CELLS, min_size=rows, max_size=rows), min_size=1, max_size=5
        )
    )
)
def test_csv_rows_match_the_per_cell_format(tmp_path_factory, columns):
    """``_write_csv``'s per-column formats write the bytes of joining ``_fmt``
    of each cell: ``%.17g`` is ``format(x, ".17g")`` for every double,
    signed zeros, infinities, NaN and subnormals included."""
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    cli._write_csv(path, "stamp", ("a", "b"), columns)
    expected = [f"# config_sha256=stamp artifact_version={sm.__version__}", "a,b"]
    expected += [",".join(cli._fmt(x) for x in row) for row in zip(*columns)]
    assert path.read_text() == "\n".join(expected) + "\n"


def _csv_lines(rows):
    return [f"# config_sha256=stamp artifact_version={sm.__version__}", "a,b"] + [
        ",".join(map(cli._fmt, row)) for row in rows
    ]


def test_csv_of_one_cell_pattern_matches_the_per_cell_format(tmp_path):
    """2,048 rows whose cells keep one type per column (a label, an int, a
    bool, a float and a numpy float, with signed zeros, infinities, NaN and
    subnormals among the floats) write the joined ``_fmt`` cells."""
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.225073858507201e-308]
    floats = (rng.standard_normal(2048) * 10.0 ** rng.integers(-300, 300, 2048)).tolist()
    floats[: len(specials)] = specials
    columns = [
        ["uniform", "good_only", "bad_only", "oracle"] * 512,
        rng.integers(-(10**18), 10**18, 2048).tolist(),
        [bool(b) for b in rng.integers(0, 2, 2048)],
        floats,
        list(np.float64(floats[::-1])),
    ]
    cli._write_csv(tmp_path / "rows.csv", "stamp", ("a", "b"), columns)
    lines = _csv_lines(zip(*columns))
    assert (tmp_path / "rows.csv").read_text() == "\n".join(lines) + "\n"


def test_csv_column_that_mixes_types_is_formatted_per_cell(tmp_path):
    """A column that mixes ``int``, ``bool``, ``np.float64`` and ``float``
    formats each cell by ``_fmt``, beside a column of floats and one of text."""
    mixed = [1, True, np.float64(0.1), 0.1, -0.0, False, np.float64(-math.inf), 10**20, 1e-310]
    columns = [mixed, [0.5] * len(mixed), list("abcdefghi")]
    cli._write_csv(tmp_path / "rows.csv", "stamp", ("a", "b"), columns)
    lines = _csv_lines(zip(*columns))
    assert (tmp_path / "rows.csv").read_text() == "\n".join(lines) + "\n"
    assert lines[4].startswith("0.10000000000000001,")  # np.float64 as a float, not str


def test_unexpected_value_error_is_not_infeasible(tmp_path, monkeypatch):
    """Only package errors exit 3; a plain ValueError is a fault and propagates."""

    def broken(*args, **kwargs):
        raise ValueError("fault outside any config check")

    monkeypatch.setattr(cli, "threshold_map", broken)
    path = write_config(tmp_path)
    with pytest.raises(ValueError, match="fault outside"):
        main(["thresholds", "--config", str(path), "--out", str(tmp_path)])


def test_readme_schema_lists_every_config_key():
    """The README's schema block names exactly the keys the parser checks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema (version 1)")[1].split("```")[1]
    sections = cli._SCHEMA
    expected = {"schema_version", *sections, *(k for keys in sections.values() for k in keys)}
    assert set(re.findall(r'"(\w+)"\s*:', block)) == expected


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"/objective/alpha": 1.5})
    assert main(["thresholds", "--config", str(path)]) == 2
    assert "/objective/alpha" in capsys.readouterr().err


# argv -> exit code, the stream written and a fragment of it; {config} and
# {out} stand for a valid config and a fresh output directory.
FRONT_DOOR = [
    (["-h"], 0, "out", "usage: statmenus [-h] COMMAND --config PATH"),
    (["--help"], 0, "out", "--grid N"),
    (["thresholds", "--config={config}", "--out={out}"], 0, "out", "thresholds: wrote 5 rows"),
    (["thresholds", "--conf", "{config}", "--out", "{out}"], 0, "out", "thresholds: wrote"),
    (["--config", "{config}", "--out", "{out}", "thresholds"], 0, "out", "thresholds: wrote"),
    (["--config", "{config}", "--out", "{out}", "--", "thresholds"], 0, "out", "thresholds: wrote"),
    (["thresholds", "--bogus", "--config", "{config}", "--out", "{out}"], 2, "err",
     "option --bogus not recognized"),
    (["thresholds", "--out", "{out}", "--config"], 2, "err", "option --config requires argument"),
    (["--config", "{config}", "--out", "{out}"], 2, "err", "no command: choose one of thresholds"),
    (["bogus", "--config", "{config}", "--out", "{out}"], 2, "err", "unknown command 'bogus'"),
    (["thresholds", "evaluate", "--config", "{config}", "--out", "{out}"], 2, "err",
     "more than one command: thresholds evaluate"),
    (["thresholds", "--out", "{out}"], 2, "err", "--config is required"),
    (["simulate", "--config", "{config}", "--out", "{out}", "--seed", "abc"], 2, "err",
     "--seed: invalid int value: 'abc'"),
    (["frontier", "--config", "{config}", "--out", "{out}", "--grid", "1e3"], 2, "err",
     "--grid: invalid int value: '1e3'"),
    (["simulate", "--config", "{config}", "--out", "{out}", "--jobs", "x"], 2, "err",
     "--jobs: invalid int value: 'x'"),
]


@pytest.mark.parametrize("argv, code, stream, fragment", FRONT_DOOR)
def test_front_door(tmp_path, capsys, argv, code, stream, fragment):
    """Every form of argv that argparse took still works, ``-h``/``--help``
    print the help text on stdout and exit 0, and a malformed argv prints the
    usage line and the reason on stderr and exits 2 with no output
    directory made."""
    config, out = write_config(tmp_path), tmp_path / "out"
    argv = [arg.format(config=config, out=out) for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert fragment in getattr(captured, stream)
    if code == 2:
        assert captured.err.startswith(cli.USAGE + "\nstatmenus: error: ")
        assert captured.out == "" and not out.exists()
    elif argv[0] in ("-h", "--help"):
        assert captured.out == cli.HELP + "\n"
        assert not out.exists()
    else:
        assert (out / "thresholds.csv").is_file()


def test_help_lists_every_option_and_command():
    """One table gives getopt's long options, the usage line and the help
    text, so each of them names every option; the README quotes the help
    text as it is."""
    for name, metavar, text in cli.OPTIONS:
        assert f"--{name} {metavar}" in cli.USAGE
        assert f"--{name} {metavar}" in cli.HELP and text in cli.HELP
    assert all(command in cli.HELP for command in cli.COMMANDS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"$ statmenus --help\n{cli.HELP}\n```" in readme


@pytest.mark.parametrize("args, code, stream", [(["--help"], 0, "stdout"), ([], 2, "stderr")])
def test_console_script_reads_sys_argv(args, code, stream):
    """``main()`` with no argv reads ``sys.argv``, as the ``statmenus``
    console script calls it."""
    env = dict(os.environ, PYTHONPATH=str(Path(sm.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "statmenus.cli", *args], env=env, capture_output=True, text=True
    )
    assert run.returncode == code, run.stderr
    assert getattr(run, stream).startswith(cli.USAGE + "\n")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "pointer, under", [("--out", "file"), ("--out", "file/sub"), ("/output/directory", "file/sub")]
)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_output_path_that_is_not_a_directory_is_config_error(
    tmp_path, capsys, command, pointer, under
):
    """An output directory that names a file, or a path under one, exits 2
    at its flag or config key before any work, and writes nothing."""
    overrides = {"/population/types": [0.3, 0.7], "/menu": {**FIXED_MENU, "path": "menu.json"}}
    good = write_config(tmp_path, overrides)
    assert main(["menu-build", "--config", str(good), "--out", str(tmp_path)]) == 0
    blocker, path = tmp_path / "file", tmp_path / under
    blocker.write_text("not a directory\n")
    if pointer == "--out":
        config, flags = good, ["--out", str(path)]
    else:
        config, flags = write_config(tmp_path, {**overrides, pointer: str(path)}, "bad.json"), []
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, "--config", str(config), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error at {pointer}: cannot make output directory {path}: "
        f"{blocker} is not a directory\n"
    )
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_thresholds_command(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "thresholds.csv")
    assert header == ["q", "tau"]
    taus = [float(t) for _, t in rows]
    assert [round(t, 2) for t in taus] == [0.74, 0.38, 0.18, 0.07, 0.02]


def test_menu_build_and_verify(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path
    assert main(["menu-build", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "menu.json").read_text())
    assert [round(c["tau"], 2) for c in doc["contracts"]] == [0.74, 0.38, 0.18, 0.07, 0.02]
    assert main(["menu-verify", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["tie_break"] == "smallest-report"


def test_menu_verify_failure_exit_code(tmp_path):
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "menu.json").read_text())
    costs = [c["cost"] for c in doc["contracts"]]
    doc["contracts"][0]["cost"], doc["contracts"][4]["cost"] = costs[4], costs[0]
    (tmp_path / "menu.json").write_text(json.dumps(doc))
    assert main(["menu-verify", "--config", str(path), "--out", str(tmp_path)]) == 4
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is False
    assert report["first_violation"]["kind"] == "ic"


def test_menu_build_infeasible_exit_code(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "/test/theta1": 0.5,
            "/menu": {"method": "fixed_reward", "reward": 100, "q_lo": 0.2, "q_bar": 0.8},
        },
    )
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "0.33" in capsys.readouterr().err


# The Gaussian power curve (theta1 = 1) tabulated at 258 evenly spaced knots.
_KNOTS = np.linspace(0.0, 1.0, 258)
GAUSSIAN_KNOTS = {"kind": "tabulated", "taus": _KNOTS.tolist(),
                  "betas": sm.power(sm.gaussian_model(1.0), _KNOTS).tolist()}


@pytest.mark.parametrize("q_bar, n, worst", [(0.8055, 65, "0.8055"), (0.86, 9, "0.815")])
def test_fixed_reward_build_refuses_a_zero_threshold(tmp_path, capsys, q_bar, n, worst):
    """On the tabulated Gaussian curve at an FDR budget of 0.25 the worst
    types are over budget at every threshold, so their threshold is 0: the
    build is infeasible (exit 3) at the first such type, not a derivative's
    domain error or a flat threshold map, and writes no menu."""
    menu = {"method": "fixed_reward", "q_lo": 0.5, "q_bar": q_bar, "n": n}
    path = write_config(tmp_path, {"/test": GAUSSIAN_KNOTS, "/menu": menu})
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"infeasible: type {worst} gets threshold 0, approving no one" in err
    assert not (tmp_path / "menu.json").exists()


def test_fixed_reward_build_command(tmp_path):
    path = write_config(
        tmp_path,
        {"/menu": {"method": "fixed_reward", "reward": 100, "q_lo": 0.43, "q_bar": 0.86, "n": 33,
                   "path": "menu.json"}},
    )
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    menu = sm.Menu.load(tmp_path / "menu.json")
    assert len(menu.support) == 33
    assert all(c.reward == 100.0 for c in menu.contracts)


def test_varying_reward_build_command(tmp_path):
    path = write_config(
        tmp_path,
        {"/menu": {"method": "varying_reward", "base_reward": 100, "q_lo": 0.3, "q_bar": 0.8,
                   "eta": 0.1, "n": 17, "path": "menu.json"}},
    )
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["menu-verify", "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("source", ["--grid", "/menu/n"])
@pytest.mark.parametrize("method", ["fixed_reward", "varying_reward"])
def test_one_point_support_is_config_error(tmp_path, capsys, method, source):
    """A fixed- or varying-reward support of one point is refused where its
    size was set (a one-point varying-reward grid used to drop q_bar and fail
    on the base contract at /menu)."""
    spec = {"method": method, "q_lo": 0.43, "q_bar": 0.86, "n": 1 if source == "/menu/n" else 9}
    path = write_config(tmp_path, {"/menu": spec})
    flags = ["--grid", "1"] if source == "--grid" else []
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"config error at {source}: support needs at least two points" in err
    assert not (tmp_path / "menu.json").exists()


def test_potential_build_command(tmp_path):
    points = [0.3, 0.5, 0.7]
    subgrads = [-30.0, -10.0, -2.0]
    values = [0.0] * 3
    values[-1] = 1.0
    for i in (1, 0):
        chord = 0.5 * (subgrads[i] + subgrads[i + 1])
        values[i] = values[i + 1] - chord * (points[i + 1] - points[i])
    path = write_config(
        tmp_path,
        {"/menu": {"method": "potential", "points": points, "values": values,
                   "subgradients": subgrads, "path": "menu.json"}},
    )
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["menu-verify", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_empty_potential_is_config_error(tmp_path, capsys):
    """A potential with no points exits 2 at /menu/points, with no traceback
    and no menu written."""
    empty = {"method": "potential", "points": [], "values": [], "subgradients": []}
    path = write_config(tmp_path, {"/menu": empty})
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error at /menu/points: must be a nonempty list of numbers" in err
    assert "Traceback" not in err
    assert not (tmp_path / "menu.json").exists()


def test_frontier_command(tmp_path):
    path = write_config(
        tmp_path, {"/population": {"kind": "discrete", "types": [0.2, 0.8], "weights": [0.5, 0.5]}}
    )
    assert main(["frontier", "--config", str(path), "--out", str(tmp_path), "--grid", "64"]) == 0
    header, rows = read_csv(tmp_path / "frontier.csv")
    assert header == ["label", "parameter", "fdr", "tdr"]
    labels = {row[0] for row in rows}
    assert labels == {"oracle", "uniform", "good_only", "bad_only"}


@pytest.mark.parametrize("grid", [None, 1, 2])
@pytest.mark.parametrize("test", [{"kind": "gaussian_mean", "theta1": 1.3}, KNOTTED_TEST])
def test_frontier_csv_rows_are_the_frontier_points(tmp_path, test, grid):
    """``frontier.csv`` and ``sm.frontier`` are two views of one computation:
    each row is the matching point with every cell formatted by ``_fmt``."""
    population = {"kind": "discrete", "types": [0.3, 0.7], "weights": [0.4, 0.6]}
    path = write_config(tmp_path, {"/test": test, "/population": population})
    flags = [] if grid is None else ["--grid", str(grid)]
    assert main(["frontier", "--config", str(path), "--out", str(tmp_path), *flags]) == 0
    config = parse_config(path)
    points = sm.frontier(config.population, config.model, resolution=grid or 512)
    lines = (tmp_path / "frontier.csv").read_text().splitlines()
    assert lines[1:] == ["label,parameter,fdr,tdr"] + [
        ",".join(map(cli._fmt, (p.label, p.parameter, p.fdr, p.tdr))) for p in points
    ]
    assert {p.label for p in points} == {"uniform", "good_only", "bad_only", "oracle"}


def test_evaluate_command(tmp_path):
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "evaluate.json").read_text())
    assert doc["oracle_tdr"] == pytest.approx(0.3111, abs=1e-3)
    assert "screening_cost" in doc and "information_rent" in doc
    header, rows = read_csv(tmp_path / "return_curve.csv")
    assert header == ["q", "return"]
    assert len(rows) == 5


def test_evaluate_large_reward_menu(tmp_path):
    """At reward 1e8 the return's two algebraically equal forms differ by
    about 7e-9 in rounding alone; evaluate computes one and exits 0."""
    path = write_config(
        tmp_path,
        {"/menu": {"method": "fixed_reward", "reward": 1e8, "q_lo": 0.43, "q_bar": 0.86, "n": 33,
                   "path": "menu.json"}},
    )
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "return_curve.csv")
    assert len(rows) == 5


def test_evaluate_varying_reward_family(tmp_path):
    """The family evaluation emits one nonpositive return column per eta."""
    path = write_config(
        tmp_path,
        {
            "/population": {"kind": "uniform_grid", "lo": 0.0, "hi": 0.8, "n": 33},
            "/menu": {"method": "varying_reward", "base_reward": 100, "q_lo": 0.3,
                      "q_bar": 0.8, "n": 17, "etas": [0.01, 0.5]},
        },
    )
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "return_curve.csv")
    assert header == ["q", "return_eta_0.01", "return_eta_0.5"]
    for row in rows:
        small, big = float(row[1]), float(row[2])
        assert small <= 1e-12 and big <= 1e-12
        assert small >= big - 1e-12
    doc = json.loads((tmp_path / "evaluate.json").read_text())
    fam = doc["family"]
    assert fam["0.01"]["screening_cost"] < fam["0.5"]["screening_cost"]


FAMILY = {
    "/population": {"kind": "uniform_grid", "lo": 0.43, "hi": 0.86, "n": 9},
    "/menu": {"method": "varying_reward", "base_reward": 100, "q_lo": 0.43, "q_bar": 0.86,
              "n": 9, "etas": [0.05, 0.5, 2], "path": "menu.json"},
}


def test_evaluate_family_scores_each_menu_as_a_loaded_one(tmp_path, monkeypatch):
    """Each family member's metrics and return column are what ``evaluate``
    gives for that eta's saved ``menu-build`` output; the family solves the
    support's thresholds once; and its screening cost is eta times one
    constant, with the rent affine in eta (the eta-free part of every line
    is the base contract's)."""
    calls = []
    solve = cli.optimal_threshold
    monkeypatch.setattr(cli, "optimal_threshold", lambda *a: calls.append(a) or solve(*a))
    path = write_config(tmp_path, FAMILY)
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    family = json.loads((tmp_path / "evaluate.json").read_text())["family"]
    header, rows = read_csv(tmp_path / "return_curve.csv")
    names = [cli._fmt(float(eta)) for eta in FAMILY["/menu"]["etas"]]
    assert sorted(family) == sorted(names)
    assert header == ["q"] + [f"return_eta_{name}" for name in names]
    for i, (eta, name) in enumerate(zip(FAMILY["/menu"]["etas"], names), start=1):
        one = tmp_path / name
        one.mkdir()
        spec = {k: v for k, v in FAMILY["/menu"].items() if k != "etas"}
        path = write_config(one, {**FAMILY, "/menu": {**spec, "eta": eta}})
        assert main(["menu-build", "--config", str(path), "--out", str(one)]) == 0
        assert main(["evaluate", "--config", str(path), "--out", str(one)]) == 0
        doc = json.loads((one / "evaluate.json").read_text())
        assert family[name] == {k: doc[k] for k in ("screening_cost", "information_rent")}
        assert [row[i] for row in rows] == [row[1] for row in read_csv(one / "return_curve.csv")[1]]
    etas = np.array(FAMILY["/menu"]["etas"], dtype=float)
    costs = np.array([family[name]["screening_cost"] for name in names])
    rents = np.array([family[name]["information_rent"] for name in names])
    assert np.ptp(costs / etas) <= 1e-9 * np.abs(costs / etas).max()
    slope = (rents[1] - rents[0]) / (etas[1] - etas[0])
    assert rents[2] == pytest.approx(rents[0] + slope * (etas[2] - etas[0]), rel=1e-9)


def test_evaluate_family_names_each_eta_once(tmp_path):
    """Etas equal to six digits get distinct columns, and each column is
    named as its ``family`` entry is."""
    path = write_config(tmp_path, {**FAMILY, "/menu/etas": [0.1234561, 0.1234562]})
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 0
    family = json.loads((tmp_path / "evaluate.json").read_text())["family"]
    header, _ = read_csv(tmp_path / "return_curve.csv")
    assert len(family) == 2
    assert header == ["q"] + [f"return_eta_{name}" for name in family]


@pytest.mark.parametrize("etas", [[0.5, 0.5], [1, 1.0]])
def test_evaluate_family_refuses_repeated_etas(tmp_path, capsys, etas):
    path = write_config(tmp_path, {**FAMILY, "/menu/etas": etas})
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error at /menu/etas: must be a nonempty list of distinct" in capsys.readouterr().err
    assert not (tmp_path / "evaluate.json").exists()


@pytest.mark.parametrize("method", ["fixed_reward", ...], ids=["fixed_reward", "no_method"])
def test_evaluate_refuses_etas_without_varying_reward(tmp_path, capsys, method):
    """Only a varying-reward config names a family: with another method, or
    none, ``/menu/etas`` is a config error and nothing is written, where the
    menu at ``/menu/path`` would otherwise be scored alone."""
    path = write_config(tmp_path, {"/menu": {**FIXED_MENU, "path": "menu.json"}})
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    path = write_config(tmp_path, {"/menu/etas": [0.05, 0.5], "/menu/method": method})
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 2
    assert "config error at /menu/etas:" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_bayes_objective(tmp_path):
    path = write_config(
        tmp_path,
        {"/objective": {"kind": "bayes", "omega0": 1.0, "omega1": 1.0}, "/menu/path": ...},
    )
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "evaluate.json").read_text())
    assert "oracle_bayes_risk" in doc


def test_simulate_command(tmp_path):
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "simulation.json").read_text())
    assert doc["n_agents"] == 20000
    assert doc["seed"] == 11
    assert 0 <= doc["empirical_fdr"] <= 1
    assert doc["per_type"]["0.5"]["agents"] > 0


def test_simulate_seed_override(tmp_path):
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path), "--seed", "99"]) == 0
    doc = json.loads((tmp_path / "simulation.json").read_text())
    assert doc["seed"] == 99


def test_sensitivity_command(tmp_path):
    path = write_config(
        tmp_path,
        {"/menu": {"method": "fixed_reward", "reward": 100, "q_lo": 0.43, "q_bar": 0.86, "n": 65,
                   "path": "menu.json"}},
    )
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["sensitivity", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "sensitivity.csv")
    assert header == ["theta_actual", "p", "gap"]
    thetas = {row[0] for row in rows}
    assert len(thetas) == 2


@pytest.mark.parametrize(
    "flags, points, pointer",
    [(["--grid", "1"], 64, "--grid"), ([], 1, "/sensitivity/points")],
)
def test_empty_sensitivity_sweep_exits_2(tmp_path, capsys, flags, points, pointer):
    """A one-point sweep is the lowest report, whose implied true type leaves
    (0, 1) when the actual effect is larger: a sweep without rows for an
    effect size is an error at the setting that asked for it."""
    path = write_config(
        tmp_path,
        {"/menu": {"method": "fixed_reward", "reward": 100, "q_lo": 0.43, "q_bar": 0.86, "n": 65,
                   "path": "menu.json"}, "/sensitivity/points": points,
         "/sensitivity/actual_theta1": [0.9, 1.1]},
    )
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    out = ["--out", str(tmp_path)]
    assert main(["sensitivity", "--config", str(path), *out, *flags]) == 2
    assert f"config error at {pointer}:" in capsys.readouterr().err
    assert not (tmp_path / "sensitivity.csv").exists()
    assert main(["sensitivity", "--config", str(path), *out, "--grid", "2"]) == 0
    thetas = [float(row[0]) for row in read_csv(tmp_path / "sensitivity.csv")[1]]
    assert thetas == [0.9, 0.9, 1.1]


def test_sensitivity_refuses_varying_rewards(tmp_path, capsys):
    """The closed-form gap holds for constant-reward menus only; the finite
    menu has one reward per type."""
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len({c.reward for c in sm.Menu.load(tmp_path / "menu.json").contracts}) == 5
    assert main(["sensitivity", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "/menu/path" in capsys.readouterr().err
    assert not (tmp_path / "sensitivity.csv").exists()


def test_sensitivity_refuses_a_support_inside_the_edge_bands(tmp_path, capsys):
    """A one-contract menu at 0.5 leaves the sweep only reports from 0.501
    down to 0.499, off the menu: an error at the menu, with nothing written."""
    gm1 = sm.gaussian_model(1.0)
    tau = sm.fdr_threshold(0.5, sm.fdr_objective(0.25), gm1)
    contract = sm.Contract(tau, 100.0, sm.zero_utility_cost(0.5, tau, 100.0, gm1))
    sm.Menu((0.5,), (contract,)).save(tmp_path / "menu.json")
    path = write_config(tmp_path, {"/sensitivity/points": 5})
    assert main(["sensitivity", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error at /menu/path:" in err and "edge band" in err
    assert not (tmp_path / "sensitivity.csv").exists()


def test_effect_size_bound_is_the_models():
    """The schema bounds ``theta1`` and ``actual_theta1`` by the test model's
    ``MAX_EFFECT_SIZE`` and names it in its messages."""
    above = math.nextafter(sm.testmodel.MAX_EFFECT_SIZE, math.inf)
    check, message = cli._SCHEMA["test"]["theta1"]
    assert check(sm.testmodel.MAX_EFFECT_SIZE) and not check(above)
    assert message == "must be a number in (0, 10]"
    check, message = cli._SCHEMA["sensitivity"]["actual_theta1"]
    assert check([1.0, sm.testmodel.MAX_EFFECT_SIZE]) and not check([1.0, above])
    assert message == "must be a nonempty list of numbers in (0, 10]"


def test_missing_required_section(tmp_path, capsys):
    path = write_config(tmp_path, {"/population": ...})
    assert main(["thresholds", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "/population" in capsys.readouterr().err


def test_missing_menu_file_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"/menu/path": "nowhere.json"})
    assert main(["menu-verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "/menu/path" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["menu-verify", "simulate"])
def test_non_finite_menu_is_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "menu.json").read_text())
    doc["contracts"][2]["cost"] = float("nan")
    (tmp_path / "menu.json").write_text(json.dumps(doc))  # a NaN literal, as json writes it
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "/menu/path" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["contracts"][2].update(reward=True, cost=False),
        lambda doc: doc["contracts"][0].update(tau="0.01"),
        lambda doc: doc["support"].__setitem__(0, False),
        lambda doc: doc["contracts"][4].update(cost=None),
        lambda doc: doc["contracts"][0].update(reward=10**400),
    ],
    ids=["bool-reward-cost", "string-tau", "bool-support", "null-cost", "huge-int-reward"],
)
def test_non_number_menu_entry_is_config_error(tmp_path, capsys, edit):
    """JSON booleans are not read as 1 and 0, and an integer past the float
    range is no number: the menu file fails at its path before the menu is
    verified (a boolean reward and cost used to exit 4, the integer to raise
    OverflowError)."""
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "menu.json").read_text())
    edit(doc)
    (tmp_path / "menu.json").write_text(json.dumps(doc))
    assert main(["menu-verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "/menu/path" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_unordered_menu_support_is_config_error(tmp_path, capsys):
    """A menu file whose support decreases fails at its path, with the two
    values named, before the menu is verified."""
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "menu.json").read_text())
    doc["support"][1:3] = doc["support"][2:0:-1]
    (tmp_path / "menu.json").write_text(json.dumps(doc))
    assert main(["menu-verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error at /menu/path:" in err
    assert "support must be strictly increasing, got 0.4 after 0.5" in err
    assert not (tmp_path / "out").exists()


def test_missing_builder_key_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"/menu": {"method": "fixed_reward", "reward": 100}})
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "/menu/q_lo" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism and formatting
# ---------------------------------------------------------------------------


def test_outputs_byte_identical_across_runs(tmp_path):
    """One config, two runs: every artifact matches byte for byte."""
    path = write_config(tmp_path, {"/menu/path": "a/menu.json"})
    for d in ("a", "b"):
        out = tmp_path / d
        assert main(["thresholds", "--config", str(path), "--out", str(out)]) == 0
        assert main(["menu-build", "--config", str(path), "--out", str(out)]) == 0
    for d in ("a", "b"):
        # both runs read the menu named by the config (written identically)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / d)]) == 0
    for name in ("thresholds.csv", "menu.json", "simulation.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_jobs_flag_does_not_change_values(tmp_path):
    path = write_config(tmp_path)
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path / "j1")]) == 0
    assert main(["menu-build", "--config", str(path), "--out", str(tmp_path / "j4")]) == 0
    for out, jobs in ((tmp_path / "j1", "1"), (tmp_path / "j4", "4")):
        cfg = write_config(tmp_path, {"/menu/path": f"{out.name}/menu.json"}, name=f"c{jobs}.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
    a = json.loads((tmp_path / "j1" / "simulation.json").read_text())
    b = json.loads((tmp_path / "j4" / "simulation.json").read_text())
    for key in ("empirical_fdr", "empirical_tdr", "principal_cash"):
        assert a[key] == b[key]


def test_csv_numbers_have_full_precision(tmp_path):
    path = write_config(tmp_path)
    assert main(["thresholds", "--config", str(path), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "thresholds.csv")
    tau = float(rows[0][1])
    assert rows[0][1] == format(tau, ".17g")
    assert tau == sm.fdr_threshold(0.3, sm.fdr_objective(0.25), sm.gaussian_model(1.0))
