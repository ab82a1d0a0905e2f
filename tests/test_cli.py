"""End-to-end tests for the command-line interface."""

import json
import math
import re
from pathlib import Path

import pytest

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
    ],
)
def test_mistyped_config_value_is_config_error(
    tmp_path, capsys, command, overrides, pointer, artifact
):
    """Each value has the wrong type, is no positive count, is a grid size
    above ``cli.MAX_GRID`` or is not finite: exit 2 with its pointer before
    any artifact is written (a valid menu.json is in place)."""
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
