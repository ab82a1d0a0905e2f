"""Robustness of constant-reward menus to power-function misspecification.

A menu designed under one power curve may face agents whose trials follow
another. The signed FDR gap

    zeta = ((1-p)/p) * beta1(tau_p) - ((1-q)/q) * beta1_actual(tau_p)

compares the designed and realized FDR denominators for an agent of true
type q reporting p; a positive value signals a budget violation. For the
constant-reward construction the misreport is pinned down by a first-order
condition, giving a closed form for the gap as a function of the report
alone. The implied true type behind each report is exposed alongside the
gap: reports whose implied type falls outside (0, 1) are made by no agent
and are excluded from sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .contracts import Menu, utility
from .errors import StatMenusError
from .objectives import PrincipalObjective, optimal_threshold
from .testmodel import TestModel, power, power_derivative

__all__ = [
    "MisspecScenario",
    "MisreportResult",
    "SweepRow",
    "fdr_gap",
    "implied_true_type",
    "misspecified_report",
    "fdr_gap_fixed_reward",
    "sensitivity_sweep",
]

_SLOPE_SINGULARITY_TOL = 1e-12
DEFAULT_SWEEP_POINTS = 256
SWEEP_EDGE_BAND = 1e-3


@dataclass(frozen=True)
class MisspecScenario:
    """A menu designed under one test model while agents face another.

    ``objective`` is the design-time criterion; it extends the threshold
    assignment continuously beyond the menu's support grid.
    """

    designed: TestModel
    actual: TestModel
    menu: Menu
    objective: PrincipalObjective

    def threshold_at(self, p: float) -> float:
        try:
            return self.menu.contract_for(p).tau
        except KeyError:
            return optimal_threshold(p, self.objective, self.designed)


def fdr_gap(q: float, p: float, scenario: MisspecScenario) -> float:
    """Signed FDR violation for a true type ``q`` reporting ``p``."""
    if not 0.0 < p < 1.0 or not 0.0 < q < 1.0:
        raise ValueError("gap defined for interior types and reports only")
    tau = scenario.threshold_at(p)
    designed_term = (1.0 - p) / p * power(scenario.designed, tau)
    actual_term = (1.0 - q) / q * power(scenario.actual, tau)
    return designed_term - actual_term


def implied_true_type(p: float, scenario: MisspecScenario) -> float:
    """True type whose first-order misreport lands on ``p``.

    Solves the stationarity condition of the misspecified selection problem
    for q in terms of the report; values outside (0, 1) mean no agent makes
    that report.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("implied type defined for interior reports only")
    tau = scenario.threshold_at(p)
    slope = power_derivative(scenario.designed, tau)
    slope_actual = power_derivative(scenario.actual, tau)
    denom = 1.0 - slope_actual
    if abs(denom) < _SLOPE_SINGULARITY_TOL:
        raise StatMenusError(f"implied type undefined at report {p!r}: actual slope is 1")
    return (p + (1.0 - p) * slope - slope_actual) / denom


@dataclass(frozen=True)
class MisreportResult:
    """Report chosen under misspecification; ``interior`` is False when the
    solver fell back to the best supported boundary report."""

    report: float
    interior: bool


def misspecified_report(
    q: float, scenario: MisspecScenario, tol: float = 1e-8, scan: int = 129
) -> MisreportResult:
    """Report an agent of true type ``q`` makes when its power curve differs.

    Solves the stationarity condition by bisection over the menu's type
    range. Stationary points are only candidates (the condition is not
    sufficient), so each is arbitrated against the boundary reports by the
    misspecified utility of the nearest supported contract; when no
    interior stationary point exists or a boundary wins, the result is the
    best supported report, flagged as non-interior.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("misreport defined for interior types only")
    lo, hi = scenario.menu.support[0], scenario.menu.support[-1]

    def residual(p: float) -> float:
        tau = scenario.threshold_at(p)
        return (
            q
            + (1.0 - q) * power_derivative(scenario.actual, tau)
            - p
            - (1.0 - p) * power_derivative(scenario.designed, tau)
        )

    grid = np.linspace(lo, hi, scan)
    vals = np.array([residual(float(p)) for p in grid])
    brackets = [
        (float(grid[i]), float(grid[i + 1]))
        for i in range(len(grid) - 1)
        if vals[i] == 0.0 or (vals[i] < 0.0) != (vals[i + 1] < 0.0)
    ]
    roots = []
    for a, b in brackets:
        fa = residual(a)
        if fa == 0.0:
            roots.append(a)
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            if b - a <= tol or mid in (a, b):
                break
            if (residual(mid) < 0.0) == (fa < 0.0):
                a, fa = mid, residual(mid)
            else:
                b = mid
        roots.append(0.5 * (a + b))

    support = np.array(scenario.menu.support)

    def misspecified_utility(p: float) -> float:
        return utility(q, scenario.menu.contract_for(p), scenario.actual)

    def nearest_utility(r: float) -> float:
        return misspecified_utility(float(support[np.argmin(np.abs(support - r))]))

    boundary = max((lo, hi), key=misspecified_utility)
    if not roots:
        best = max(scenario.menu.support, key=misspecified_utility)
        return MisreportResult(report=float(best), interior=False)
    best_root = max(roots, key=nearest_utility)
    if misspecified_utility(boundary) > nearest_utility(best_root):
        return MisreportResult(report=float(boundary), interior=False)
    return MisreportResult(report=best_root, interior=True)


def fdr_gap_fixed_reward(p: float, scenario: MisspecScenario) -> float:
    """Closed-form FDR gap of a constant-reward menu at report ``p``.

    Valid when the designed power slope at the assigned threshold exceeds 1
    (inside the elicitable range); the slope-1 boundary is rejected.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("gap defined for interior reports only")
    tau = scenario.threshold_at(p)
    slope = power_derivative(scenario.designed, tau)
    if abs(slope - 1.0) < _SLOPE_SINGULARITY_TOL:
        raise StatMenusError(
            f"designed power slope is 1 at report {p!r}; outside the elicitable range"
        )
    correction = 1.0 + (power_derivative(scenario.actual, tau) - slope) / (p * (slope - 1.0))
    designed_term = (1.0 - p) / p * power(scenario.designed, tau)
    actual_term = (1.0 - p) / (p * correction) * power(scenario.actual, tau)
    return designed_term - actual_term


@dataclass(frozen=True)
class SweepRow:
    report: float
    gap: float
    implied_q: float


def sensitivity_sweep(
    scenario: MisspecScenario, p_grid: Optional[Sequence[float]] = None
) -> List[SweepRow]:
    """Closed-form gap across the menu's report range.

    The default grid spans the support interior minus a small boundary
    band. Rows whose implied true type falls outside (0, 1) are dropped:
    no agent makes those reports, and the closed form passes through a
    pole there.
    """
    if p_grid is None:
        lo = scenario.menu.support[0] + SWEEP_EDGE_BAND
        hi = scenario.menu.support[-1] - SWEEP_EDGE_BAND
        p_grid = np.linspace(lo, hi, DEFAULT_SWEEP_POINTS)
    rows = []
    for p in p_grid:
        p = float(p)
        implied = implied_true_type(p, scenario)
        if not 0.0 < implied < 1.0:
            continue
        rows.append(SweepRow(report=p, gap=fdr_gap_fixed_reward(p, scenario), implied_q=implied))
    return rows
