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

from .contracts import Menu
from .errors import StatMenusError
from .objectives import PrincipalObjective, _bisect, optimal_threshold
from .testmodel import TestModel, _float_or_array, _require, _unit_interval, power, power_derivative

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

    def threshold_at(self, p):
        """The menu's threshold at supported reports, else the designed map's; elementwise."""
        p, support = np.asarray(p, dtype=float), np.array(self.menu.support)
        i = np.minimum(np.searchsorted(support, p), len(support) - 1)
        off = support[i] != p
        tau = np.where(off, 0.0, self.menu.taus[i])
        if off.any():
            tau[off] = optimal_threshold(p[off], self.objective, self.designed)
        return _float_or_array(tau)


def fdr_gap(q: float, p: float, scenario: MisspecScenario) -> float:
    """Signed FDR violation for a true type ``q`` reporting ``p``."""
    if not 0.0 < p < 1.0 or not 0.0 < q < 1.0:
        raise ValueError("gap defined for interior types and reports only")
    tau = scenario.threshold_at(p)
    designed_term = (1.0 - p) / p * power(scenario.designed, tau)
    actual_term = (1.0 - q) / q * power(scenario.actual, tau)
    return designed_term - actual_term


def implied_true_type(p, scenario: MisspecScenario):
    """True type whose first-order misreport lands on ``p``, elementwise.

    Solves the stationarity condition of the misspecified selection problem
    for q in terms of the report; values outside (0, 1) mean no agent makes
    that report.
    """
    p = _unit_interval(p, "implied type defined for interior reports only", interior=True)
    return _float_or_array(_implied_true_type(p, scenario.threshold_at(p), scenario))


def _implied_true_type(p, tau, scenario: MisspecScenario):
    """``implied_true_type`` at interior reports ``p`` with thresholds ``tau``."""
    slope = power_derivative(scenario.designed, tau)
    slope_actual = power_derivative(scenario.actual, tau)
    denom = 1.0 - slope_actual
    singular = np.abs(denom) < _SLOPE_SINGULARITY_TOL
    _require(p, ~singular, "implied type undefined: actual slope is 1 at report", StatMenusError)
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

    Solves the stationarity condition by one bisection over the sign changes
    of a ``scan``-point grid on the menu's type range. Stationary points are
    only candidates (the condition is not sufficient), so each is arbitrated
    against the boundary reports by the misspecified utility of the nearest
    supported contract; when no interior stationary point exists or a
    boundary wins, the result is the best supported report, flagged as
    non-interior.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("misreport defined for interior types only")
    lo, hi = scenario.menu.support[0], scenario.menu.support[-1]

    def residual(p):
        tau = scenario.threshold_at(p)
        return (
            q
            + (1.0 - q) * power_derivative(scenario.actual, tau)
            - p
            - (1.0 - p) * power_derivative(scenario.designed, tau)
        )

    grid = np.linspace(lo, hi, scan)
    vals = residual(grid)
    neg = vals < 0.0
    i = np.flatnonzero((vals[:-1] == 0.0) | (neg[:-1] != neg[1:]))
    roots, crossing = grid[i], vals[i] != 0.0  # a zero scan value is itself a root
    j = i[crossing]  # all sign-change brackets are bisected together
    a, b = _bisect(
        lambda mid, neg: (residual(mid) < 0.0) == neg, grid[j], grid[j + 1], neg[j], tol=tol
    )
    roots[crossing] = 0.5 * (a + b)

    support = np.array(scenario.menu.support)
    slopes, intercepts = scenario.menu.lines(scenario.actual)
    utilities = q * slopes + intercepts  # misspecified utility of each supported report
    if not len(roots):
        return MisreportResult(report=float(support[np.argmax(utilities)]), interior=False)
    # each root is judged by its nearest supported report; ties keep the first
    near = utilities[np.argmin(np.abs(support - roots[:, None]), axis=1)]
    best = int(np.argmax(near))
    if max(utilities[0], utilities[-1]) > near[best]:
        boundary = lo if utilities[0] >= utilities[-1] else hi
        return MisreportResult(report=float(boundary), interior=False)
    return MisreportResult(report=float(roots[best]), interior=True)


def fdr_gap_fixed_reward(p, scenario: MisspecScenario):
    """Closed-form FDR gap of a constant-reward menu at reports ``p``, elementwise.

    Valid when the designed power slope at the assigned threshold exceeds 1
    (inside the elicitable range); the slope-1 boundary is rejected.
    """
    p = _unit_interval(p, "gap defined for interior reports only", interior=True)
    return _float_or_array(_fdr_gap_fixed_reward(p, scenario.threshold_at(p), scenario))


def _fdr_gap_fixed_reward(p, tau, scenario: MisspecScenario):
    """``fdr_gap_fixed_reward`` at interior reports ``p`` with thresholds ``tau``."""
    slope = power_derivative(scenario.designed, tau)
    singular = np.abs(slope - 1.0) < _SLOPE_SINGULARITY_TOL
    _require(p, ~singular, "report outside the elicitable range (designed slope 1)", StatMenusError)
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
    p = _unit_interval(p_grid, "implied type defined for interior reports only", interior=True)
    tau = scenario.threshold_at(p)  # bisected once for both closed forms
    implied = _implied_true_type(p, tau, scenario)
    made = (0.0 < implied) & (implied < 1.0)
    p, tau, implied = p[made], tau[made], implied[made]
    gaps = _fdr_gap_fixed_reward(p, tau, scenario)
    return [
        SweepRow(report=r, gap=g, implied_q=q)
        for r, g, q in zip(p.tolist(), gaps.tolist(), implied.tolist())
    ]
