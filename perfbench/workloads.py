"""Workload definitions: seeded input generation, timed steps and output checks.

Each workload writes its config (and, for ``tabulated_curve``, the power-curve
CSV) into a fresh directory, lists the CLI steps to time, and checks every
artifact those steps write against pinned values from ``reference.json``.
The seed reaches the program only as ``--seed`` to ``simulate``;
``tabulated_curve`` runs no simulation, so its inputs do not depend on it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Dict, List, Tuple

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

ALPHA = 0.25
SE_LIMIT = 4.0  # simulated rates must sit within this many standard errors
VALUE_RTOL = 1e-8


@dataclass(frozen=True)
class Step:
    """One timed CLI call: ``statmenus <command> --config CONFIG --out <out>``."""

    label: str  # unique within the workload; names the per-command metric
    command: str
    out: str = "."  # output directory, relative to the run directory
    jobs: int = 1
    seeded: bool = False  # pass the workload seed as --seed

    def argv(self, run_dir: Path, seed: int) -> List[str]:
        args = [self.command, "--config", str(run_dir / "config.json"), "--out", str(run_dir / self.out)]
        if self.seeded:
            args += ["--seed", str(seed)]
        if self.jobs != 1:
            args += ["--jobs", str(self.jobs)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is stated in BENCHMARK.json
    write_inputs: Callable[[Path], None]
    steps: Tuple[Step, ...]
    check: Callable[[Path, int], Dict[str, List[str]]]  # step label -> problems
    agents: int = 0  # simulated agents per simulate step


# --- helpers -----------------------------------------------------------------


def _write_config(run_dir: Path, doc: dict) -> None:
    doc = {"schema_version": 1, **doc}
    (run_dir / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config_sha256="):
        raise ValueError(f"{path.name}: missing provenance comment line")
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def _close(value: float, ref: float, rtol: float = VALUE_RTOL, atol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= max(rtol * abs(ref), atol)


def _checked(problems: Dict[str, List[str]], label: str, fn: Callable[[], List[str]]) -> None:
    """Run one step's checks; a missing or malformed artifact is a problem too."""
    try:
        problems[label] = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems[label] = [f"unreadable output: {exc!r}"]


def _verify_problems(run_dir: Path, n: int) -> List[str]:
    doc = _read_json(run_dir / "verify_report.json")
    out = []
    if doc["passed"] is not True:
        out.append(f"menu-verify did not pass: {doc.get('detail')}")
    if doc["pairs_checked"] != n * (n - 1):
        out.append(f"pairs_checked {doc['pairs_checked']} != {n * (n - 1)}")
    return out


def _menu_problems(run_dir: Path, n: int, lo: float, hi: float) -> List[str]:
    doc = _read_json(run_dir / "menu.json")
    support, contracts = doc["support"], doc["contracts"]
    out = []
    if len(support) != n or len(contracts) != n:
        out.append(f"menu has {len(support)} types and {len(contracts)} contracts, expected {n}")
    elif not (_close(support[0], lo, atol=1e-12) and _close(support[-1], hi, atol=1e-12)):
        out.append(f"menu support [{support[0]}, {support[-1]}] != [{lo}, {hi}]")
    return out


def _simulation_problems(path: Path, seed: int, n: int, oracle_tdr: float) -> List[str]:
    doc = _read_json(path)
    out = []
    if doc["n_agents"] != n or doc["seed"] != seed:
        out.append(f"simulated n={doc['n_agents']} seed={doc['seed']}, expected n={n} seed={seed}")
    tdr, tdr_se = doc["empirical_tdr"], doc["tdr_se"]
    fdr, fdr_se = doc["empirical_fdr"], doc["fdr_se"]
    if not abs(tdr - oracle_tdr) <= SE_LIMIT * tdr_se:
        out.append(f"simulated TDR {tdr} not within {SE_LIMIT} SE ({tdr_se}) of oracle {oracle_tdr}")
    if not fdr <= ALPHA + SE_LIMIT * fdr_se:
        out.append(f"simulated FDR {fdr} exceeds {ALPHA} + {SE_LIMIT} SE ({fdr_se})")
    return out


# --- fine_menu ---------------------------------------------------------------

FINE_N = 1025
FINE_GRID = 1024
FINE_AGENTS = 262_144


def _fine_inputs(run_dir: Path) -> None:
    _write_config(
        run_dir,
        {
            "test": {"kind": "gaussian_mean", "theta1": 1.0},
            "objective": {"kind": "fdr", "alpha": ALPHA},
            "population": {"kind": "uniform_grid", "lo": 0.43, "hi": 0.86, "n": FINE_GRID},
            "menu": {
                "method": "fixed_reward",
                "reward": 100.0,
                "q_lo": 0.43,
                "q_bar": 0.86,
                "n": FINE_N,
                "path": "menu.json",
            },
            "simulation": {"n": FINE_AGENTS},
        },
    )


def _fine_check(run_dir: Path, seed: int) -> Dict[str, List[str]]:
    ref = REFERENCE["fine_menu"]
    problems: Dict[str, List[str]] = {}

    def thresholds() -> List[str]:
        _, rows = _read_csv(run_dir / "thresholds.csv")
        taus = [float(r[1]) for r in rows]
        out = []
        if len(rows) != FINE_GRID:
            out.append(f"thresholds.csv has {len(rows)} rows, expected {FINE_GRID}")
        if any(b > a for a, b in zip(taus, taus[1:])) or not all(0.0 < t <= 1.0 for t in taus):
            out.append("threshold map not non-increasing in (0, 1]")
        return out

    def evaluate() -> List[str]:
        doc = _read_json(run_dir / "evaluate.json")
        out = [
            f"{key} = {doc.get(key)!r}, expected {ref[key]!r}"
            for key in ("oracle_tdr", "screening_cost", "information_rent")
            if not _close(doc[key], ref[key])
        ]
        _, rows = _read_csv(run_dir / "return_curve.csv")
        returns = [float(r[1]) for r in rows]
        if len(returns) != FINE_GRID or not all(math.isfinite(r) and r <= 1e-9 for r in returns):
            out.append("return_curve.csv must hold one nonpositive return per grid type")
        return out

    _checked(problems, "thresholds", thresholds)
    _checked(problems, "menu-build", lambda: _menu_problems(run_dir, FINE_N, 0.43, 0.86))
    _checked(problems, "menu-verify", lambda: _verify_problems(run_dir, FINE_N))
    _checked(problems, "evaluate", evaluate)
    _checked(
        problems,
        "simulate",
        lambda: _simulation_problems(run_dir / "simulation.json", seed, FINE_AGENTS, ref["oracle_tdr"]),
    )
    return problems


# --- mass_sim ----------------------------------------------------------------

MASS_TYPES = [0.3, 0.4, 0.5, 0.6, 0.7]
MASS_AGENTS = 8_000_000


def _mass_inputs(run_dir: Path) -> None:
    _write_config(
        run_dir,
        {
            "test": {"kind": "gaussian_mean", "theta1": 1.0},
            "objective": {"kind": "fdr", "alpha": ALPHA},
            "population": {"kind": "discrete", "types": MASS_TYPES, "weights": [0.2] * 5},
            "menu": {
                "method": "finite",
                "terminal_reward": 100.0,
                "terminal_cost": 5.0,
                "epsilon": 50.0,
                "lambda": 0.5,
                "path": "menu.json",
            },
            "simulation": {"n": MASS_AGENTS},
        },
    )


def _mass_check(run_dir: Path, seed: int) -> Dict[str, List[str]]:
    oracle = REFERENCE["mass_sim"]["oracle_tdr"]
    problems: Dict[str, List[str]] = {}
    _checked(problems, "menu-build", lambda: _menu_problems(run_dir, len(MASS_TYPES), 0.3, 0.7))
    for label in ("simulate", "simulate_jobs2"):
        path = run_dir / label / "simulation.json"
        _checked(problems, label, lambda: _simulation_problems(path, seed, MASS_AGENTS, oracle))
    try:
        same = (run_dir / "simulate" / "simulation.json").read_bytes() == (
            run_dir / "simulate_jobs2" / "simulation.json"
        ).read_bytes()
    except OSError:
        same = True  # a missing file is already reported above
    if not same:
        problems["simulate_jobs2"].append("simulation.json differs between --jobs 1 and --jobs 2")
    return problems


# --- tabulated_curve ---------------------------------------------------------

CURVE_THETA = 1.5
CURVE_LOG_KNOTS = 64  # log-spaced knots in [1e-6, 0.05)
CURVE_LINEAR_KNOTS = 193  # linear knots on [0.05, 1]
TAB_N = 129
TAB_FRONTIER_POINTS = 2047
TAB_SENSITIVITY_ROWS = 247


def _curve_knots() -> List[Tuple[float, float]]:
    """(tau, beta1) knots of the Gaussian power curve 1 - Phi(z_{1-tau} - theta)."""
    std = NormalDist()
    lo, hi = math.log(1e-6), math.log(0.05)
    taus = [0.0] + [math.exp(lo + (hi - lo) * i / CURVE_LOG_KNOTS) for i in range(CURVE_LOG_KNOTS)]
    taus += [0.05 + 0.95 * i / (CURVE_LINEAR_KNOTS - 1) for i in range(CURVE_LINEAR_KNOTS)]
    knots = [(0.0, 0.0)]
    for tau in taus[1:-1]:
        knots.append((tau, std.cdf(CURVE_THETA - std.inv_cdf(1.0 - tau))))
    knots.append((1.0, 1.0))
    return knots


def _tabulated_inputs(run_dir: Path) -> None:
    lines = ["tau,beta1"] + [f"{t!r},{b!r}" for t, b in _curve_knots()]
    (run_dir / "curve.csv").write_text("\n".join(lines) + "\n")
    _write_config(
        run_dir,
        {
            "test": {"kind": "tabulated", "csv": "curve.csv"},
            "objective": {"kind": "fdr", "alpha": ALPHA},
            "population": {"kind": "discrete", "types": [0.3, 0.7], "weights": [0.4, 0.6]},
            "menu": {
                "method": "fixed_reward",
                "reward": 100.0,
                "q_lo": 0.54,
                "q_bar": 0.9,
                "n": TAB_N,
                "path": "menu.json",
            },
            "sensitivity": {"actual_theta1": [1.6], "points": 256},
        },
    )


def _tabulated_check(run_dir: Path, seed: int) -> Dict[str, List[str]]:
    ref_gaps = REFERENCE["tabulated_curve"]["sensitivity_gaps"]
    problems: Dict[str, List[str]] = {}

    def frontier() -> List[str]:
        _, rows = _read_csv(run_dir / "frontier.csv")
        labels = {r[0] for r in rows}
        out = []
        if len(rows) != TAB_FRONTIER_POINTS:
            out.append(f"frontier.csv has {len(rows)} points, expected {TAB_FRONTIER_POINTS}")
        if labels != {"uniform", "good_only", "bad_only", "oracle"}:
            out.append(f"frontier labels {sorted(labels)}")
        return out

    def sensitivity() -> List[str]:
        _, rows = _read_csv(run_dir / "sensitivity.csv")
        if len(rows) != TAB_SENSITIVITY_ROWS:
            return [f"sensitivity.csv has {len(rows)} rows, expected {TAB_SENSITIVITY_ROWS}"]
        bad = [
            i
            for i, (row, (p_ref, gap_ref)) in enumerate(zip(rows, ref_gaps))
            if not (_close(float(row[1]), p_ref, atol=1e-12) and _close(float(row[2]), gap_ref, atol=1e-12))
        ]
        return [f"{len(bad)} sensitivity rows differ from the reference, first at row {bad[0]}"] if bad else []

    _checked(problems, "frontier", frontier)
    _checked(problems, "menu-build", lambda: _menu_problems(run_dir, TAB_N, 0.54, 0.9))
    _checked(problems, "menu-verify", lambda: _verify_problems(run_dir, TAB_N))
    _checked(problems, "sensitivity", sensitivity)
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fine_menu",
            write_inputs=_fine_inputs,
            steps=(
                Step("thresholds", "thresholds"),
                Step("menu-build", "menu-build"),
                Step("menu-verify", "menu-verify"),
                Step("evaluate", "evaluate"),
                Step("simulate", "simulate", seeded=True),
            ),
            check=_fine_check,
            agents=FINE_AGENTS,
        ),
        Workload(
            name="mass_sim",
            write_inputs=_mass_inputs,
            steps=(
                Step("menu-build", "menu-build"),
                Step("simulate", "simulate", out="simulate", seeded=True),
                Step("simulate_jobs2", "simulate", out="simulate_jobs2", jobs=2, seeded=True),
            ),
            check=_mass_check,
            agents=MASS_AGENTS,
        ),
        Workload(
            name="tabulated_curve",
            write_inputs=_tabulated_inputs,
            steps=(
                Step("frontier", "frontier"),
                Step("menu-build", "menu-build"),
                Step("menu-verify", "menu-verify"),
                Step("sensitivity", "sensitivity"),
            ),
            check=_tabulated_check,
        ),
    )
}
