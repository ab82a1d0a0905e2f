"""Command-line orchestration.

Subcommands map onto the library: ``thresholds`` (type-optimal threshold
map), ``menu-build`` / ``menu-verify`` (constructions and the separation
check of every supported type against every report), ``frontier``
(two-type FDR/TDR sweeps), ``evaluate`` (oracle values plus menu cost
metrics), ``simulate`` (seeded Monte Carlo), and ``sensitivity``
(misspecification gap sweeps). All inputs come from a
JSON config; outputs are CSV/JSON files stamped with the config hash so
identical runs produce identical bytes.

Exit codes: 0 success, 2 malformed arguments or invalid config, 3 infeasible
construction, 4 verification failure.
"""

from __future__ import annotations

import dataclasses
import getopt
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .builders import (
    build_finite_menu,
    build_fixed_reward,
    build_from_potential,
    build_varying_reward,
    quadratic_schedule,
    tabulated_potential,
)
from .contracts import DEFAULT_IC_MARGIN, Contract, Menu, verify_separating, zero_utility_cost
from .errors import ConfigError, StatMenusError
from .evaluation import (
    MAX_AGENTS,
    frontier_table,
    information_rent,
    principal_return,
    screening_cost,
    simulate_population,
)
from .objectives import (
    PrincipalObjective,
    TypePopulation,
    bayes_objective,
    discrete_population,
    fdr_objective,
    optimal_threshold,
    oracle_bayes_risk,
    oracle_tdr,
    threshold_map,
    uniform_population,
)
from .sensitivity import DEFAULT_SWEEP_POINTS, MisspecScenario, _sweep_range, sensitivity_sweep
from .testmodel import (
    MAX_EFFECT_SIZE,
    TestModel,
    gaussian_model,
    tabulated_from_csv,
    tabulated_model,
)

COMMANDS = (
    "thresholds",
    "menu-build",
    "menu-verify",
    "frontier",
    "evaluate",
    "simulate",
    "sensitivity",
)
BUILDER_METHODS = ("potential", "varying_reward", "fixed_reward", "finite")
SCHEMA_VERSION = 1
# The largest grid a config or ``--grid`` may ask for. Population and menu
# grids and sensitivity sweeps are held whole in memory, so a size past what
# any run needs would fail to allocate; the cap makes it a config error.
MAX_GRID = 1 << 20

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

# The options of ``main``, as (name, metavar, help). This one table gives
# getopt's long options, the usage line and the ``--help`` text; ``--config``
# is the one that is required.
OPTIONS = (
    ("config", "PATH", "path to the JSON run configuration"),
    ("out", "DIR", "output directory (default: the config's output.directory, else '.')"),
    ("seed", "N", "override the simulation seed"),
    ("jobs", "N", "accepted and ignored; kept because existing scripts pass it"),
    ("grid", "N", "override grid/sweep resolution"),
)
# The integer options, each with its least and greatest value.
_INT_RANGES = {"jobs": (1, math.inf), "seed": (0, math.inf), "grid": (1, MAX_GRID)}
_LONG_OPTIONS = ["help"] + [f"{name}=" for name, _, _ in OPTIONS]
USAGE = "usage: statmenus [-h] COMMAND " + " ".join(
    f"--{name} {metavar}" if name == "config" else f"[--{name} {metavar}]"
    for name, metavar, _ in OPTIONS
)
HELP = "\n".join([
    USAGE,
    "",
    "Construct, verify, and evaluate separating menus of statistical contracts.",
    "",
    f"commands: {', '.join(COMMANDS)}",
    "",
    "options:",
    f"  {'-h, --help':<16}show this help message and exit",
    *(f"  {f'--{name} {metavar}':<16}{text}" for name, metavar, text in OPTIONS),
    "",
    "exit codes: 0 success, 2 malformed arguments or invalid config,",
    "3 infeasible construction, 4 verification failure",
])


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with constructed domain objects."""

    raw: Dict[str, Any]
    base_dir: Path
    model: TestModel
    objective: PrincipalObjective
    population: Optional[TypePopulation]
    menu: Dict[str, Any]
    simulation: Dict[str, Any]
    sensitivity: Dict[str, Any]
    output_dir: Optional[str]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    """A number a float holds finitely; ``json.loads`` also reads NaN, Infinity
    and integers past the float range."""
    return _is_int(x) and abs(x) <= sys.float_info.max or isinstance(x, float) and math.isfinite(x)


def _is_nums(x) -> bool:
    return isinstance(x, list) and all(_is_num(v) for v in x)


def _one_of(names):
    names = tuple(names)
    return (lambda x: x in names, f"must be one of: {', '.join(names)}")


_NUMBER = (_is_num, "must be a number")
_NUMBERS = (_is_nums, "must be a list of numbers")
_NONEMPTY_NUMBERS = (lambda x: _is_nums(x) and len(x) > 0, "must be a nonempty list of numbers")
_STRING = (lambda x: isinstance(x, str), "must be a string")
_GRID = (lambda x: _is_int(x) and 1 <= x <= MAX_GRID, f"must be an integer in [1, {MAX_GRID}]")
_NONNEGATIVE = (lambda x: _is_num(x) and x >= 0, "must be a nonnegative number")
# The constructor of each kind of test, objective and population, from its
# section and the config's directory.
_KINDS = {
    "test": {
        "gaussian_mean": lambda s, base: gaussian_model(s["theta1"]),
        "tabulated": lambda s, base: (
            tabulated_from_csv(base / s["csv"]) if "csv" in s
            else tabulated_model(s["taus"], s["betas"])
        ),
    },
    "objective": {
        "fdr": lambda s, base: fdr_objective(s["alpha"]),
        "bayes": lambda s, base: bayes_objective(s["omega0"], s["omega1"]),
    },
    "population": {
        "discrete": lambda s, base: discrete_population(s["types"], s.get("weights")),
        "uniform_grid": lambda s, base: uniform_population(s["lo"], s["hi"], s.get("n", 1024)),
    },
}
# Every key of every section with its check. Ranges that tie keys together
# (q_lo < q_bar, weights summing to 1, ...) and the builders' own ranges
# (lambda in [0, 1], a positive reward) are left to the constructors and
# builders.
_SCHEMA = {
    "test": {
        "kind": _one_of(_KINDS["test"]),
        "theta1": (
            lambda x: _is_num(x) and 0 < x <= MAX_EFFECT_SIZE,
            f"must be a number in (0, {MAX_EFFECT_SIZE:g}]",
        ),
        "csv": _STRING,
        "taus": _NUMBERS,
        "betas": _NUMBERS,
    },
    "objective": {
        "kind": _one_of(_KINDS["objective"]),
        "alpha": (lambda x: _is_num(x) and 0 < x < 1, "must be a number in (0, 1)"),
        "omega0": _NONNEGATIVE,
        "omega1": _NONNEGATIVE,
    },
    "population": {
        "kind": _one_of(_KINDS["population"]),
        **dict.fromkeys(("lo", "hi"), _NUMBER),
        "n": _GRID,
        **dict.fromkeys(("types", "weights"), _NUMBERS),
    },
    "menu": {
        "method": _one_of(BUILDER_METHODS),
        "path": _STRING,
        "n": _GRID,
        "epsilon": (lambda x: _is_num(x) or _is_nums(x), "must be a number or a list of numbers"),
        "etas": (
            lambda x: _is_nums(x) and x and all(e > 0 for e in x),
            "must be a nonempty list of positive numbers",
        ),
        **dict.fromkeys(("points", "values", "subgradients"), _NONEMPTY_NUMBERS),
        **dict.fromkeys(
            ("reward", "q_lo", "q_bar", "base_reward", "eta", "terminal_reward",
             "terminal_cost", "lambda"),
            _NUMBER,
        ),
        "margin": _NONNEGATIVE,
    },
    "simulation": {
        "n": (
            lambda x: _is_int(x) and 1 <= x <= MAX_AGENTS,
            f"must be an integer in [1, {MAX_AGENTS}]",
        ),
        "seed": (lambda x: _is_int(x) and x >= 0, "must be a nonnegative integer"),
        "stratified": (lambda x: isinstance(x, bool), "must be true or false"),
    },
    "sensitivity": {
        "points": _GRID,
        "actual_theta1": (
            lambda x: _is_nums(x) and x and all(0 < t <= MAX_EFFECT_SIZE for t in x),
            f"must be a nonempty list of numbers in (0, {MAX_EFFECT_SIZE:g}]",
        ),
    },
    "output": {"directory": _STRING},
}
# The keys with no default that each command and builder method reads.
_NEEDS = {
    "thresholds": ("population",),
    "menu-build": ("menu/method",),
    "menu-verify": ("menu/path",),
    "frontier": ("population",),
    "evaluate": ("population",),
    "simulate": ("menu/path", "population", "simulation/n"),
    "sensitivity": ("menu/path", "sensitivity/actual_theta1"),
    "finite": ("population",),
    "fixed_reward": ("menu/q_lo", "menu/q_bar"),
    "varying_reward": ("menu/q_lo", "menu/q_bar"),
    "potential": ("menu/points", "menu/values", "menu/subgradients"),
}
# The commands that compute type-optimal thresholds from the objective.
_READS_OBJECTIVE = ("thresholds", "menu-build", "evaluate", "sensitivity")


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration.

    Raises ``ConfigError`` carrying (json-pointer, message) pairs for every
    problem found.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError([("/", f"config file not found: {path}")]) from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ConfigError([("/", f"cannot read config file {path}: {reason}")]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([("/", f"not valid JSON: {exc}")]) from None
    if not isinstance(raw, dict):
        raise ConfigError([("/", "top level must be an object")])

    errors = []
    if raw.get("schema_version") != SCHEMA_VERSION:
        errors.append(("/schema_version", f"must be {SCHEMA_VERSION}"))
    sections, built = {}, {}
    for name, keys in _SCHEMA.items():
        if name == "population" and raw.get(name) is None:
            continue  # optional; the commands that read it require it
        section = raw.get(name, None if name in _KINDS else {})
        if not isinstance(section, dict):
            errors.append((f"/{name}", "must be an object" if name in raw else "required section"))
            continue
        present = [k for k in keys if k in section or k == "kind"]  # a kind is required
        bad = [k for k in present if not keys[k][0](section.get(k))]
        errors += [(f"/{name}/{k}", keys[k][1]) for k in bad]
        sections[name] = section
        if name in _KINDS and not bad:
            try:
                built[name] = _KINDS[name][section["kind"]](section, path.parent)
            except KeyError as exc:
                errors.append((f"/{name}/{exc.args[0]}", f"required by kind {section['kind']!r}"))
            except (OSError, ValueError) as exc:
                errors.append((f"/{name}", str(exc)))

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        raw=raw,
        base_dir=path.parent,
        model=built["test"],
        objective=built["objective"],
        population=built.get("population"),
        menu=sections["menu"],
        simulation=sections["simulation"],
        sensitivity=sections["sensitivity"],
        output_dir=sections["output"].get("directory"),
    )


def _config_hash(config: RunConfig, seed: Optional[int], grid: Optional[int]) -> str:
    payload = {"config": config.raw, "overrides": {"seed": seed, "grid": grid}}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, stamp: str, header: Sequence[str], columns) -> None:
    """Write ``columns``, one equal-length sequence per ``header`` name, as
    rows under a provenance line and ``header``. Each column's format is
    picked once from the set of its cells' types: ``%.17g`` for a column of
    floats, which writes what ``_fmt``'s ``format(x, ".17g")`` does for every
    double, ``%s`` for a column with no float, and ``_fmt`` of each cell for
    a column that mixes them. Every row is then one ``%`` of one template."""
    formats, cells = [], []
    for column in columns:
        floats = {issubclass(kind, float) for kind in set(map(type, column))}
        if floats == {True, False}:
            column = list(map(_fmt, column))
        formats.append("%.17g" if floats == {True} else "%s")
        cells.append(column)
    lines = [f"# config_sha256={stamp} artifact_version={__version__}", ",".join(header)]
    lines += map(",".join(formats).__mod__, zip(*cells))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, stamp: str, doc: Dict[str, Any]) -> None:
    doc = dict(doc)
    doc["config_sha256"] = stamp
    doc["artifact_version"] = __version__
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _finite(doc: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    """``doc``, unless a number in it or in a nested object is not finite, which
    ``json`` would write as Infinity or NaN; the error names its key."""
    for key, value in doc.items():
        if isinstance(value, dict):
            _finite(value, f"{prefix}{key}/")
        elif isinstance(value, float) and not math.isfinite(value):
            raise StatMenusError(f"{prefix}{key} is {value!r}, not a finite number")
    return doc


def _require(config: RunConfig, name: str) -> None:
    """Fail at once for every key that command or builder method ``name`` reads
    and the config leaves out."""
    missing = []
    for pointer in _NEEDS[name]:
        section, _, key = pointer.partition("/")
        value = getattr(config, section)
        if value is None or key and key not in value:
            missing.append((f"/{pointer}", f"required by {name}"))
    if missing:
        raise ConfigError(missing)


def _load_menu(config: RunConfig) -> Menu:
    path = config.base_dir / config.menu["path"]
    try:
        return Menu.load(path)
    except OSError as exc:
        raise ConfigError([("/menu/path", f"cannot read menu file: {exc}")]) from None
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON and contracts
        raise ConfigError([("/menu/path", f"malformed menu document {path}: {exc}")]) from None


def _build_menu(config: RunConfig, grid: Optional[int]) -> Menu:
    """Build the menu that ``config.menu`` names. A builder's plain ValueError is
    a range check on the menu's values, so it is a config error at /menu."""
    method = config.menu["method"]
    spec = config.menu
    model = config.model
    objective = config.objective
    _require(config, method)
    try:
        if method == "finite":
            if config.population.kind != "discrete":
                msg = "finite construction needs discrete types"
                raise ConfigError([("/population/kind", msg)])
            types, taus = zip(*threshold_map(config.population, objective, model))
            return build_finite_menu(
                types,
                taus,
                (spec.get("terminal_reward", 100.0), spec.get("terminal_cost", 0.0)),
                spec.get("epsilon", 50.0),
                lam=spec.get("lambda", 0.5),
                model=model,
            )
        n = grid or spec.get("n", 129 if method == "fixed_reward" else 65)
        if n < 2 and method != "potential":  # a fixed- or varying-reward support
            msg = "support needs at least two points"
            raise ConfigError([("--grid" if grid else "/menu/n", msg)])
        if method == "fixed_reward":
            return build_fixed_reward(
                spec.get("reward", 100.0), spec["q_lo"], spec["q_bar"], objective, model, n=n
            )
        if method == "varying_reward":
            q_bar = spec["q_bar"]
            support = np.linspace(spec["q_lo"], q_bar, n)
            taus = optimal_threshold(support, objective, model)
            thresholds = list(zip(support.tolist(), taus.tolist()))
            reward = spec.get("base_reward", 100.0)
            tau_bar = thresholds[-1][1]
            base = Contract(
                tau=tau_bar, reward=reward, cost=zero_utility_cost(q_bar, tau_bar, reward, model)
            )
            schedule = quadratic_schedule(spec.get("eta", 0.1))
            return build_varying_reward(base, schedule, thresholds, model)
        potential = tabulated_potential(spec["points"], spec["values"], spec["subgradients"])
        points = np.asarray(spec["points"], dtype=float)
        taus = optimal_threshold(points, objective, model)
        thresholds = list(zip(points.tolist(), taus.tolist()))
        return build_from_potential(potential, thresholds, model)
    except StatMenusError:
        raise
    except ValueError as exc:
        raise ConfigError([("/menu", str(exc))]) from None


def run(
    command: str,
    config: RunConfig,
    out_dir: Path,
    seed: Optional[int] = None,
    grid: Optional[int] = None,
) -> int:
    """Execute one subcommand; returns the process exit code. ``out_dir`` is
    made when the first artifact is written, so a refused run leaves none."""
    _require(config, command)
    if command in _READS_OBJECTIVE and (config.objective.kind, config.model.kind) == (
        "bayes", "tabulated"
    ):
        msg = (
            "a bayes objective is not supported with a tabulated test: its "
            "threshold map needs the gaussian_mean likelihood ratio"
        )
        raise ConfigError([("/objective", msg)])
    stamp = _config_hash(config, seed, grid)

    if command == "thresholds":
        pairs = threshold_map(config.population, config.objective, config.model)
        _write_csv(out_dir / "thresholds.csv", stamp, ("q", "tau"), zip(*pairs))
        print(f"thresholds: wrote {len(pairs)} rows to {out_dir / 'thresholds.csv'}")
        return EXIT_OK

    if command == "menu-build":
        menu = _build_menu(config, grid)
        out_dir.mkdir(parents=True, exist_ok=True)
        menu.save(out_dir / "menu.json")
        print(
            f"menu-build[{config.menu['method']}]: wrote {len(menu.support)} contracts "
            f"on [{menu.support[0]:.6g}, {menu.support[-1]:.6g}] to {out_dir / 'menu.json'}"
        )
        return EXIT_OK

    if command == "menu-verify":
        menu = _load_menu(config)
        margin = config.menu.get("margin", DEFAULT_IC_MARGIN)
        report = verify_separating(menu, model=config.model, margin=margin)
        doc = {
            "passed": report.passed,
            "margin": report.margin,
            "support_size": len(report.support),
            "pairs_checked": report.pairs_checked,
            "tie_break": report.tie_break,
            "detail": report.describe(),
        }
        if report.first_violation is not None:
            doc["first_violation"] = dataclasses.asdict(report.first_violation)
        _write_json(out_dir / "verify_report.json", stamp, doc)
        print(f"menu-verify: {report.describe()}")
        return EXIT_OK if report.passed else EXIT_VERIFY

    if command == "frontier":
        if config.population.kind != "discrete" or len(config.population.types) != 2:
            msg = "frontier needs a discrete population of two types"
            raise ConfigError([("/population", msg)])
        columns = frontier_table(config.population, config.model, resolution=grid or 512)
        _write_csv(out_dir / "frontier.csv", stamp, ("label", "parameter", "fdr", "tdr"), columns)
        print(f"frontier: wrote {len(columns[0])} points to {out_dir / 'frontier.csv'}")
        return EXIT_OK

    if command == "evaluate":
        doc: Dict[str, Any] = {}
        if config.objective.kind == "bayes":
            doc["oracle_bayes_risk"] = oracle_bayes_risk(
                config.population, config.objective, config.model
            )
        else:
            doc["oracle_tdr"] = oracle_tdr(config.population, config.objective, config.model)
        points = config.population.points()
        curve = None  # the header and rows of return_curve.csv
        if config.menu.get("method") == "varying_reward" and config.menu.get("etas"):
            # one return-curve column per slack level of the family
            etas = config.menu["etas"]
            columns = [points.tolist()]
            doc["family"] = {}
            for eta in etas:
                spec = dict(config.menu)
                spec["eta"] = eta
                menu = _build_menu(dataclasses.replace(config, menu=spec), grid)
                base = menu.contract_for(menu.support[-1])
                doc["family"][_fmt(float(eta))] = {
                    "screening_cost": screening_cost(menu, base, config.population, config.model),
                    "information_rent": information_rent(menu, config.population, config.model),
                }
                columns.append(principal_return(menu, base, points, config.model).tolist())
            curve = ["q"] + [f"return_eta_{eta:g}" for eta in etas], columns
        elif config.menu.get("path"):
            menu = _load_menu(config)
            base = menu.contract_for(menu.support[-1])
            with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses what overflows
                doc["screening_cost"] = screening_cost(menu, base, config.population, config.model)
                doc["information_rent"] = information_rent(menu, config.population, config.model)
                returns = principal_return(menu, base, points, config.model)
            curve = ("q", "return"), (points.tolist(), returns.tolist())
        _write_json(out_dir / "evaluate.json", stamp, _finite(doc))
        if curve is not None:
            _write_csv(out_dir / "return_curve.csv", stamp, *curve)
        metrics = ", ".join(
            f"{k}={v:.6g}" for k, v in doc.items() if isinstance(v, (int, float))
        )
        print(f"evaluate: {metrics} -> {out_dir / 'evaluate.json'}")
        return EXIT_OK

    if command == "simulate":
        stratified = config.simulation.get("stratified", False)
        if stratified and config.population.kind != "discrete":
            msg = "stratified sampling needs a discrete population"
            raise ConfigError([("/simulation/stratified", msg)])
        menu = _load_menu(config)
        n = config.simulation["n"]
        run_seed = seed if seed is not None else config.simulation.get("seed", 0)
        with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses what overflows
            report = simulate_population(
                menu, config.population, config.model, n=n, seed=run_seed, stratified=stratified
            )
        doc = dataclasses.asdict(report)
        if doc["per_type"] is not None:
            doc["per_type"] = {_fmt(k): v for k, v in doc["per_type"].items()}
        _write_json(out_dir / "simulation.json", stamp, _finite(doc))
        print(
            f"simulate: n={n} seed={run_seed} fdr={report.empirical_fdr:.4f} "
            f"tdr={report.empirical_tdr:.4f} -> {out_dir / 'simulation.json'}"
        )
        return EXIT_OK

    # sensitivity
    menu = _load_menu(config)
    if np.any(menu.rewards != menu.rewards[0]):
        msg = "sensitivity needs a constant-reward menu; the closed-form gap assumes one reward"
        raise ConfigError([("/menu/path", msg)])
    try:
        lo, hi = _sweep_range(menu.support)
    except ValueError as exc:
        raise ConfigError([("/menu/path", str(exc))]) from None
    n_points = grid or config.sensitivity.get("points", DEFAULT_SWEEP_POINTS)
    columns = ([], [], [])  # theta_actual, p, gap
    for theta in config.sensitivity["actual_theta1"]:
        scenario = MisspecScenario(config.model, gaussian_model(theta), menu, config.objective)
        sweep = sensitivity_sweep(scenario, np.linspace(lo, hi, n_points))
        if not sweep:  # reports whose implied true type leaves (0, 1) are dropped
            msg = f"{n_points} sweep points leave no report for actual_theta1 {theta:g}"
            raise ConfigError([("--grid" if grid else "/sensitivity/points", msg)])
        columns[0].extend([theta] * len(sweep))
        columns[1].extend(row.report for row in sweep)
        columns[2].extend(row.gap for row in sweep)
    _write_csv(out_dir / "sensitivity.csv", stamp, ("theta_actual", "p", "gap"), columns)
    print(f"sensitivity: wrote {len(columns[0])} rows to {out_dir / 'sensitivity.csv'}")
    return EXIT_OK


def _parse_argv(argv: Sequence[str]) -> Optional[Tuple[str, Dict[str, Any]]]:
    """``(command, options)`` from ``argv``, ``options`` keyed by the names of
    ``OPTIONS`` with the integer ones read and range-checked, or None for
    ``-h``/``--help``. ``getopt.gnu_getopt`` takes ``--flag value``,
    ``--flag=value`` and unique prefixes, before or after the command, and
    ends the options at ``--``. A malformed argv raises ``ValueError`` with
    the reason."""
    try:
        pairs, commands = getopt.gnu_getopt(argv, "h", _LONG_OPTIONS)
    except getopt.GetoptError as exc:
        raise ValueError(exc.msg) from None
    options = {}
    for flag, value in pairs:
        if flag in ("-h", "--help"):
            return None
        options[flag[2:]] = value
    if not commands:
        raise ValueError(f"no command: choose one of {', '.join(COMMANDS)}")
    if len(commands) > 1:
        raise ValueError(f"more than one command: {' '.join(commands)}")
    if commands[0] not in COMMANDS:
        raise ValueError(f"unknown command {commands[0]!r}: choose one of {', '.join(COMMANDS)}")
    if "config" not in options:
        raise ValueError("--config is required")
    for name, (least, most) in _INT_RANGES.items():
        if name not in options:
            continue
        try:
            value = options[name] = int(options[name])
        except ValueError:
            raise ValueError(f"--{name}: invalid int value: {options[name]!r}") from None
        if value < least:
            raise ValueError(f"--{name} must be >= {least}")
        if value > most:
            raise ValueError(f"--{name} must be <= {most}")
    return commands[0], options


def _output_dir(config: RunConfig, out: Optional[str]) -> Path:
    """The output directory, from ``--out`` when given, else from the config.
    The nearest of it and its parents that exists must be a directory, so a
    path that ``mkdir`` would refuse fails before any work."""
    pointer, path = ("--out", out) if out else ("/output/directory", config.output_dir or ".")
    path = Path(path)
    nearest = next((p for p in (path, *path.parents) if os.path.lexists(p)), None)
    if nearest is not None and not nearest.is_dir():
        msg = f"cannot make output directory {path}: {nearest} is not a directory"
        raise ConfigError([(pointer, msg)])
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"{USAGE}\nstatmenus: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if parsed is None:
        print(HELP)
        return EXIT_OK
    command, options = parsed
    try:
        config = parse_config(options["config"])
        out_dir = _output_dir(config, options.get("out"))
        return run(command, config, out_dir, seed=options.get("seed"), grid=options.get("grid"))
    except ConfigError as exc:
        for pointer, message in exc.errors:
            print(f"config error at {pointer}: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except StatMenusError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
