"""Tests for misspecification analysis: FDR gaps, misreports (by the scalar
oracle), and sweeps."""

import numpy as np
import pytest

import statmenus as sm
from statmenus.errors import StatMenusError

from oracles import fdr_gap, scalar_misspecified_report


@pytest.fixture(scope="module")
def scenarios(gm1, fdr25, fixed_menu):
    def make(theta_actual):
        return sm.MisspecScenario(
            designed=gm1,
            actual=sm.gaussian_model(theta_actual),
            menu=fixed_menu,
            objective=fdr25,
        )

    return make


# ---------------------------------------------------------------------------
# definitional gap
# ---------------------------------------------------------------------------


def test_gap_zero_when_correctly_specified(gm1, fdr25, fixed_menu):
    scenario = sm.MisspecScenario(designed=gm1, actual=gm1, menu=fixed_menu, objective=fdr25)
    for p in (0.45, 0.6, 0.8):
        assert fdr_gap(p, p, scenario) == pytest.approx(0.0, abs=1e-14)


def test_gap_matches_denominator_difference(scenarios):
    """The gap is exactly the difference of the two normalized FDR
    denominators, recomputed from scratch."""
    scenario = scenarios(1.2)
    rng = np.random.default_rng(4)
    for _ in range(25):
        q = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(0.44, 0.85))
        tau = sm.fdr_threshold(p, scenario.objective, scenario.designed)
        designed_denominator = (1 - p) / p * sm.power(scenario.designed, tau)
        actual_denominator = (1 - q) / q * sm.power(scenario.actual, tau)
        assert fdr_gap(q, p, scenario) == pytest.approx(
            designed_denominator - actual_denominator, abs=1e-13
        )


def test_gap_sign_decides_budget_violation(scenarios, gm1):
    """zeta <= 0 iff the realized FDR stays within the designed budget."""
    scenario = scenarios(0.8)
    for p in np.linspace(0.45, 0.84, 21):
        p = float(p)
        q = sm.implied_true_type(p, scenario)
        if not 0 < q < 1:
            continue
        tau = sm.fdr_threshold(p, scenario.objective, gm1)
        realized = q * tau / (q * tau + (1 - q) * sm.power(scenario.actual, tau))
        gap = fdr_gap(q, p, scenario)
        if gap <= 0:
            assert realized <= 0.25 + 1e-8
        else:
            assert realized > 0.25 - 1e-8


def test_gap_rejects_boundary_types(scenarios):
    scenario = scenarios(1.1)
    with pytest.raises(ValueError):
        fdr_gap(0.0, 0.5, scenario)
    with pytest.raises(ValueError):
        fdr_gap(0.5, 1.0, scenario)


# ---------------------------------------------------------------------------
# misreport solver
# ---------------------------------------------------------------------------


def test_misreport_truthful_without_misspecification(gm1, fdr25, fine_fixed_menu):
    scenario = sm.MisspecScenario(designed=gm1, actual=gm1, menu=fine_fixed_menu, objective=fdr25)
    for q in (0.5, 0.6, 0.75):
        result = scalar_misspecified_report(q, scenario)
        assert result.interior
        assert result.report == pytest.approx(q, abs=1e-6)


def test_misreport_matches_grid_argmax(gm1, fdr25, fine_fixed_menu):
    """FOC solution lands within one cell of the 1024-point brute-force
    argmax of the misspecified utility."""
    actual = sm.gaussian_model(1.1)
    scenario = sm.MisspecScenario(designed=gm1, actual=actual, menu=fine_fixed_menu, objective=fdr25)
    cell = fine_fixed_menu.support[1] - fine_fixed_menu.support[0]
    for q in (0.55, 0.7, 0.8):
        result = scalar_misspecified_report(q, scenario)
        best = max(
            fine_fixed_menu.support,
            key=lambda p: sm.utility(q, fine_fixed_menu.contract_for(p), actual),
        )
        assert abs(result.report - best) <= cell


def test_misreport_underpowered_reports_lower(gm1, fdr25, fine_fixed_menu):
    """Agents facing a weaker test than designed shade their reports down,
    matching the brute-force argmax."""
    actual = sm.gaussian_model(0.9)
    scenario = sm.MisspecScenario(designed=gm1, actual=actual, menu=fine_fixed_menu, objective=fdr25)
    q = 0.44
    result = scalar_misspecified_report(q, scenario)
    assert result.report < q
    best = max(
        fine_fixed_menu.support,
        key=lambda p: sm.utility(q, fine_fixed_menu.contract_for(p), actual),
    )
    cell = fine_fixed_menu.support[1] - fine_fixed_menu.support[0]
    assert abs(result.report - best) <= cell


def test_misreport_boundary_fallback_is_flagged(gm1, fdr25, fine_fixed_menu):
    """Near the bottom of the range an underpowered agent's optimum sits at
    the boundary: the stationarity residual has no interior sign change and
    the solver returns the best supported report, flagged."""
    actual = sm.gaussian_model(0.9)
    scenario = sm.MisspecScenario(designed=gm1, actual=actual, menu=fine_fixed_menu, objective=fdr25)
    result = scalar_misspecified_report(0.44, scenario)
    assert not result.interior
    assert result.report == fine_fixed_menu.support[0]
    best = max(
        fine_fixed_menu.support,
        key=lambda p: sm.utility(0.44, fine_fixed_menu.contract_for(p), actual),
    )
    assert result.report == best


def test_misreport_strong_overpowering_interior_argmax(gm1, fdr25, fine_fixed_menu):
    """Even far from the designed power curve, the solver tracks the
    brute-force argmax when the optimum is interior."""
    actual = sm.gaussian_model(3.0)
    scenario = sm.MisspecScenario(designed=gm1, actual=actual, menu=fine_fixed_menu, objective=fdr25)
    result = scalar_misspecified_report(0.45, scenario)
    best = max(
        fine_fixed_menu.support,
        key=lambda p: sm.utility(0.45, fine_fixed_menu.contract_for(p), actual),
    )
    cell = fine_fixed_menu.support[1] - fine_fixed_menu.support[0]
    assert result.interior
    assert abs(result.report - best) <= cell


# ---------------------------------------------------------------------------
# constant-reward closed form
# ---------------------------------------------------------------------------


def test_closed_form_zero_when_correctly_specified(gm1, fdr25, fixed_menu):
    scenario = sm.MisspecScenario(designed=gm1, actual=gm1, menu=fixed_menu, objective=fdr25)
    for p in np.linspace(0.45, 0.85, 17):
        assert sm.fdr_gap_fixed_reward(float(p), scenario) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_consistent_with_definitional(scenarios):
    """Closed form equals the definitional gap at the implied true type."""
    for theta in (0.8, 1.1, 1.3):
        scenario = scenarios(theta)
        for p in np.linspace(0.45, 0.85, 33):
            p = float(p)
            q = sm.implied_true_type(p, scenario)
            if not 0 < q < 1:
                continue
            assert sm.fdr_gap_fixed_reward(p, scenario) == pytest.approx(
                fdr_gap(q, p, scenario), abs=1e-6
            )


def test_closed_form_rejects_slope_one(gm1, fdr25, fixed_menu):
    scenario = sm.MisspecScenario(designed=gm1, actual=gm1, menu=fixed_menu, objective=fdr25)
    _, tau_bar = sm.elicitable_range(fdr25, gm1)
    p_bar = sm.type_for_threshold(tau_bar, fdr25, gm1)
    with pytest.raises(StatMenusError):
        sm.fdr_gap_fixed_reward(p_bar, scenario)


def test_implied_type_inverts_misreport(gm1, fdr25, fine_fixed_menu):
    """implied_true_type is the inverse view of the stationarity condition."""
    actual = sm.gaussian_model(1.1)
    scenario = sm.MisspecScenario(designed=gm1, actual=actual, menu=fine_fixed_menu, objective=fdr25)
    for q in (0.6, 0.7, 0.8):
        result = scalar_misspecified_report(q, scenario)
        assert result.interior
        assert sm.implied_true_type(result.report, scenario) == pytest.approx(q, abs=1e-6)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_zero_rows_when_correctly_specified(scenarios):
    rows = sm.sensitivity_sweep(scenarios(1.0))
    assert len(rows) == 256
    assert all(abs(r.gap) < 1e-12 for r in rows)
    assert all(abs(r.implied_q - r.report) < 1e-12 for r in rows)


def test_sweep_overpowered_pattern(scenarios):
    """Stronger-than-designed tests: no violation below 0.6, tiny band above."""
    for theta in (1.1, 1.2):
        rows = sm.sensitivity_sweep(scenarios(theta))
        assert rows, "sweep should retain physically-reported rows"
        assert all(r.gap <= 0 for r in rows if r.report < 0.6)
        assert max(r.gap for r in rows) <= 0.002


def test_sweep_underpowered_pattern(scenarios):
    """Weaker-than-designed tests: violations concentrate at low reports."""
    for theta in (0.6, 0.7, 0.8, 0.9):
        rows = sm.sensitivity_sweep(scenarios(theta))
        positives = [r.report for r in rows if r.gap > 0]
        assert positives, "underpowered agents should violate the budget somewhere"
        assert min(positives) < 0.5
        assert max(positives) < 0.553


def test_sweep_excludes_unphysical_reports(scenarios):
    """Reports whose implied type exits (0, 1) are dropped from the sweep."""
    rows = sm.sensitivity_sweep(scenarios(1.1))
    assert len(rows) < 256
    assert all(0 < r.implied_q < 1 for r in rows)


def test_sweep_custom_grid(scenarios):
    grid = [0.5, 0.6, 0.7]
    rows = sm.sensitivity_sweep(scenarios(1.1), p_grid=grid)
    assert [r.report for r in rows] == grid


def test_default_sweep_refuses_a_support_inside_its_edge_bands(gm1, fdr25):
    """A support no wider than twice ``SWEEP_EDGE_BAND`` leaves the default
    grid no report inside it (0.501 down to 0.499 around a one-contract menu
    at 0.5); a grid given on such a menu still runs."""
    tau = sm.fdr_threshold(0.5, fdr25, gm1)
    contract = sm.Contract(tau, 100.0, sm.zero_utility_cost(0.5, tau, 100.0, gm1))
    menu = sm.Menu((0.5,), (contract,))
    scenario = sm.MisspecScenario(gm1, sm.gaussian_model(1.1), menu, fdr25)
    with pytest.raises(ValueError, match="edge band"):
        sm.sensitivity_sweep(scenario)
    assert [r.report for r in sm.sensitivity_sweep(scenario, p_grid=[0.5])] == [0.5]


def test_designing_at_weakest_alternative_is_robust(fdr25):
    """Within a plausible set, anchoring the design at the weakest test
    caps violations at the small overpowered band, while anchoring at the
    strongest invites order-of-magnitude larger ones."""
    plausible = (1.0, 1.1, 1.2)

    def worst_violation(design_theta):
        designed = sm.gaussian_model(design_theta)
        bound, _ = sm.elicitable_range(fdr25, designed)
        menu = sm.build_fixed_reward(100.0, bound + 0.01, 0.86, fdr25, designed, n=65)
        worst = -np.inf
        for theta in plausible:
            if theta == design_theta:
                continue
            scenario = sm.MisspecScenario(
                designed=designed, actual=sm.gaussian_model(theta), menu=menu, objective=fdr25
            )
            worst = max(worst, max(r.gap for r in sm.sensitivity_sweep(scenario)))
        return worst

    assert worst_violation(min(plausible)) <= 0.002
    assert worst_violation(max(plausible)) > 0.01


def test_closed_forms_refuse_varying_rewards(gm1, fdr25, five_type_menu):
    """The closed forms assume one reward: on the five-type finite menu
    (rewards 345.7 down to 100) each public function raises ``ValueError``
    naming the first reward that differs from the first, not a gap."""
    scenario = sm.MisspecScenario(gm1, sm.gaussian_model(1.1), five_type_menu, fdr25)
    calls = (
        lambda: sm.sensitivity_sweep(scenario),
        lambda: sm.sensitivity_sweep(scenario, p_grid=[0.45]),
        lambda: sm.fdr_gap_fixed_reward(0.45, scenario),
        lambda: sm.implied_true_type(0.45, scenario),
    )
    for call in calls:
        with pytest.raises(ValueError, match="reward 165.506 at type 0.4 differs from 345.665"):
            call()
