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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .contracts import Menu
from .errors import StatMenusError
from .objectives import PrincipalObjective, optimal_threshold
from .testmodel import TestModel, _float_or_array, _require, _unit_interval, power, power_derivative

__all__ = [
    "MisspecScenario",
    "SweepRow",
    "implied_true_type",
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


def _sweep_range(support: Sequence[float]) -> Tuple[float, float]:
    """Lowest and highest report of a default sweep: the support's range less
    ``SWEEP_EDGE_BAND`` at each end. A support no wider than twice the band
    leaves no such report and raises ``ValueError``."""
    if support[-1] - support[0] <= 2 * SWEEP_EDGE_BAND:
        raise ValueError(
            f"menu support [{support[0]:g}, {support[-1]:g}] is no wider than twice the "
            f"sweep's edge band {SWEEP_EDGE_BAND:g}, so no report lies inside it"
        )
    return support[0] + SWEEP_EDGE_BAND, support[-1] - SWEEP_EDGE_BAND


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
    band (``_sweep_range``; a narrower support raises ``ValueError``). Rows whose implied true type falls outside (0, 1) are dropped:
    no agent makes those reports, and the closed form passes through a
    pole there.
    """
    if p_grid is None:
        p_grid = np.linspace(*_sweep_range(scenario.menu.support), DEFAULT_SWEEP_POINTS)
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
