"""Tests for the menu constructions and their verification oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import statmenus as sm
from statmenus import _quad, builders, contracts, objectives
from statmenus.contracts import Contract
from statmenus.errors import InfeasibleMenuError, InvalidPotentialError

from oracles import (
    log_linear_curve,
    recursive_simpson,
    scalar_finite_menu,
    scalar_optimal_threshold,
)

ALPHA = 0.25


def anchored_schedule(eta, q_bar, knots=513):
    """Strictly decreasing slack that hits exactly zero at the worst type."""
    zs = np.linspace(0.0, q_bar, knots)
    values = eta * ((1 - zs) ** 2 - (1 - q_bar) ** 2)
    return sm.tabulated_schedule(zs, values)


def fdr_thresholds_on(qs, objective, model):
    return [(float(q), sm.fdr_threshold(float(q), objective, model)) for q in qs]


# ---------------------------------------------------------------------------
# general construction from a potential
# ---------------------------------------------------------------------------


def make_discrete_potential(points, subgrads, boundary=1.0):
    """Discrete convex potential with each subgradient strictly between the
    neighboring chord slopes."""
    points = list(points)
    values = [0.0] * len(points)
    values[-1] = boundary
    for i in range(len(points) - 2, -1, -1):
        chord = 0.5 * (subgrads[i] + subgrads[i + 1])
        values[i] = values[i + 1] - chord * (points[i + 1] - points[i])
    return sm.tabulated_potential(points, values, subgrads)


def test_truthful_utility_equals_potential(gm1, fdr25, five_types):
    G = make_discrete_potential(five_types, [-40.0, -25.0, -12.0, -6.0, -2.0])
    menu = sm.build_from_potential(G, fdr_thresholds_on(five_types, fdr25, gm1), gm1)
    for p in menu.support:
        assert sm.utility(p, menu.contract_for(p), gm1) == pytest.approx(G.value(p), abs=1e-10)


def test_reward_reproduces_subgradient(gm1, fdr25, five_types):
    G = make_discrete_potential(five_types, [-40.0, -25.0, -12.0, -6.0, -2.0])
    menu = sm.build_from_potential(G, fdr_thresholds_on(five_types, fdr25, gm1), gm1)
    for p, c in zip(menu.support, menu.contracts):
        slope = c.reward * (c.tau - sm.power(gm1, c.tau))
        assert slope == pytest.approx(G.subgradient(p), abs=1e-12)


def test_potential_route_matches_fixed_reward_costs(gm1, fdr25):
    """The constant-reward closed form agrees with the general recipe fed
    its own potential."""
    direct = sm.build_fixed_reward(100.0, 0.45, 0.85, fdr25, gm1, n=33)
    G = sm.fixed_reward_potential(100.0, 0.85, fdr25, gm1)
    alt = sm.build_from_potential(
        G, [(p, c.tau) for p, c in zip(direct.support, direct.contracts)], gm1
    )
    for a, b in zip(direct.contracts, alt.contracts):
        assert a.cost == pytest.approx(b.cost, abs=1e-8)
        assert a.reward == pytest.approx(b.reward, abs=1e-8)


def test_potential_route_matches_varying_reward(gm1, fdr25):
    q_bar = 0.8
    tau_bar = sm.fdr_threshold(q_bar, fdr25, gm1)
    eps = sm.quadratic_schedule(0.3)
    thresholds = fdr_thresholds_on(np.linspace(0.3, q_bar, 21), fdr25, gm1)
    direct = sm.build_varying_reward(100.0, eps, thresholds, gm1)
    G = sm.varying_reward_potential(100.0, tau_bar, q_bar, eps, gm1)
    alt = sm.build_from_potential(G, thresholds, gm1)
    for a, b in zip(direct.contracts, alt.contracts):
        assert a.cost == pytest.approx(b.cost, abs=1e-8)
        assert a.reward == pytest.approx(b.reward, abs=1e-10)


def test_invalid_potentials_rejected(gm1, fdr25, five_types):
    thresholds = fdr_thresholds_on(five_types, fdr25, gm1)
    flat = sm.tabulated_potential(five_types, [1.0] * 5, [-1.0] * 5)  # line, not strictly convex
    with pytest.raises(InvalidPotentialError):
        sm.build_from_potential(flat, thresholds, gm1)
    positive_grad = make_discrete_potential(five_types, [-4.0, -3.0, -2.0, -1.0, 0.5])
    with pytest.raises(InvalidPotentialError):
        sm.build_from_potential(positive_grad, thresholds, gm1)
    negative_boundary = make_discrete_potential(
        five_types, [-40.0, -25.0, -12.0, -6.0, -2.0], boundary=-1.0
    )
    with pytest.raises(InvalidPotentialError):
        sm.build_from_potential(negative_boundary, thresholds, gm1)


def test_boundary_thresholds_rejected(gm1):
    G = make_discrete_potential([0.3, 0.7], [-5.0, -1.0])
    with pytest.raises(ValueError):
        sm.build_from_potential(G, [(0.3, 0.5), (0.7, 1.0)], gm1)  # tau=1 has no margin


# ---------------------------------------------------------------------------
# varying-reward family
# ---------------------------------------------------------------------------


def test_varying_reward_boundary_equals_base(gm1, fdr25):
    """With a slack hitting zero at the worst type, the boundary contract is
    the base contract."""
    q_bar = 0.8
    tau_bar = sm.fdr_threshold(q_bar, fdr25, gm1)
    base = Contract(tau_bar, 100.0, sm.zero_utility_cost(q_bar, tau_bar, 100.0, gm1))
    thresholds = fdr_thresholds_on(np.linspace(0.3, q_bar, 33), fdr25, gm1)
    menu = sm.build_varying_reward(base.reward, anchored_schedule(0.5, q_bar), thresholds, gm1)
    top = menu.contracts[-1]
    assert top.reward == pytest.approx(base.reward, abs=1e-8)
    assert top.cost == pytest.approx(base.cost, abs=1e-8)


def test_varying_reward_family_separates_on_grid(gm1):
    """Quadratic-slack menus over a 64-point grid of [0, 0.8] pass the
    brute-force check; thresholds are a synthetic interior decreasing map
    (the construction puts no restriction beyond that)."""
    grid = np.linspace(0.0, 0.8, 64)
    thresholds = [(float(q), 0.97 - 0.95 * float(q)) for q in grid]
    for eta in (0.01, 0.1, 0.5, 1.0):
        menu = sm.build_varying_reward(100.0, sm.quadratic_schedule(eta), thresholds, gm1)
        assert sm.verify_separating(menu, model=gm1).passed


def test_varying_reward_takes_its_zero_utility_base_at_large_rewards(gm1, fdr25):
    thresholds = fdr_thresholds_on(np.linspace(0.43, 0.86, 9), fdr25, gm1)
    menu = sm.build_varying_reward(1e12, sm.quadratic_schedule(0.1), thresholds, gm1)
    assert sm.verify_separating(menu, model=gm1).passed


@pytest.mark.parametrize("reward", [0.0, -1.0, np.nan, np.inf])
def test_varying_reward_rejects_bad_reward(gm1, fdr25, reward):
    thresholds = fdr_thresholds_on([0.5, 0.8], fdr25, gm1)
    with pytest.raises(ValueError, match="base reward must be positive and finite"):
        sm.build_varying_reward(reward, sm.quadratic_schedule(0.1), thresholds, gm1)


def test_varying_reward_rejects_bad_schedule(gm1, fdr25):
    q_bar = 0.8
    thresholds = fdr_thresholds_on([0.5, q_bar], fdr25, gm1)
    increasing = sm.tabulated_schedule([0.0, q_bar], [0.1, 0.2])
    with pytest.raises(ValueError):
        sm.build_varying_reward(100.0, increasing, thresholds, gm1)
    negative = sm.tabulated_schedule([0.0, q_bar], [-0.1, -0.2])
    with pytest.raises(ValueError):
        sm.build_varying_reward(100.0, negative, thresholds, gm1)
    with pytest.raises(ValueError):
        sm.quadratic_schedule(0.0)


def test_tabulated_schedule_menu_within_tolerance_per_segment(gm1, fdr25):
    """The integral of 1 + eps is split at a tabulated schedule's knots, its
    kinks: each segment of the menu's potential is within INTEGRAL_TOL of the
    exact piecewise-linear integral (one Simpson per support segment missed
    it by 1.3e-7 here)."""
    q_bar = 0.86
    eps = anchored_schedule(0.5, q_bar, knots=76)
    support = np.linspace(0.43, q_bar, 9)
    tau_bar = sm.fdr_threshold(q_bar, fdr25, gm1)
    menu = sm.build_varying_reward(100.0, eps, fdr_thresholds_on(support, fdr25, gm1), gm1)
    slopes, intercepts = menu.lines(gm1)
    scale = 100.0 * (sm.power(gm1, tau_bar) - tau_bar)
    segments = -np.diff(slopes * support + intercepts) / scale
    zs, values = np.array(eps.zs), np.array(eps.values)
    exact = []
    for a, b in zip(support[:-1], support[1:]):
        x = np.union1d([a, b], zs[(a < zs) & (zs < b)])
        y = 1.0 + np.interp(x, zs, values)
        exact.append(np.sum(np.diff(x) * (y[:-1] + y[1:]) / 2.0))
    assert np.abs(segments - exact).max() <= builders.INTEGRAL_TOL


def test_tabulated_schedule_rejects_unordered_knots():
    with pytest.raises(ValueError, match="strictly increasing"):
        sm.tabulated_schedule([0.0, 0.5, 0.3, 1.0], [0.4, 0.3, 0.2, 0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        sm.tabulated_schedule([0.0, 0.5, 0.5, 1.0], [0.4, 0.3, 0.2, 0.0])


def test_schedule_validation_checks_the_knots(gm1, fdr25):
    """A rise between knots 0.001 apart falls between the validation grid's
    points; the knots themselves are checked too."""
    q_bar = 0.86
    thresholds = fdr_thresholds_on([0.5, q_bar], fdr25, gm1)
    bumpy = sm.tabulated_schedule([0.0, 0.3, 0.301, 0.302, 1.0], [1.0, 0.5, 0.6, 0.4, 0.0])
    with pytest.raises(ValueError, match="strictly decreasing"):
        sm.build_varying_reward(100.0, bumpy, thresholds, gm1)


@pytest.mark.parametrize(
    "schedule, message",
    [
        (lambda: sm.quadratic_schedule(np.nan), "eta must be positive and finite"),
        (lambda: sm.quadratic_schedule(np.inf), "eta must be positive and finite"),
        (lambda: sm.tabulated_schedule([0.0, np.nan], [0.1, 0.0]), "knots must be finite"),
        (lambda: sm.tabulated_schedule([0.0, 0.8], [np.inf, 0.0]), "knots must be finite"),
        (lambda: builders.EpsilonSchedule("quadratic", eta=np.nan), "strictly positive"),
        (lambda: sm.quadratic_schedule(1e308), "not finite on segment"),
    ],
)
def test_varying_reward_rejects_non_finite_slack(gm1, fdr25, monkeypatch, schedule, message):
    """A NaN or infinite slack fails at its schedule or its validation, and
    a finite one whose integral overflows (eta 1e308) fails in the
    quadrature: a ValueError before any deep refinement. The depth cap is
    lowered, so that a quadrature that refines instead stops soon."""
    monkeypatch.setattr(_quad, "_MAX_DEPTH", 12)
    thresholds = fdr_thresholds_on([0.3, 0.5, 0.8], fdr25, gm1)
    with pytest.raises(ValueError, match=message):
        sm.build_varying_reward(100.0, schedule(), thresholds, gm1)


def test_varying_reward_rejects_slack_too_large_for_the_quadrature(gm1, fdr25, monkeypatch):
    """On 17 support points over [0.5, 0.8], the cost integrals of the slack
    ``quadratic_schedule(1e10)`` have rounding above the quadrature's
    tolerance at every depth: the build raises at once, naming a segment.
    ``eta`` 1e8 still builds. The depth cap is lowered, so that a quadrature
    that refines instead stops soon."""
    monkeypatch.setattr(_quad, "_MAX_DEPTH", 12)
    thresholds = fdr_thresholds_on(np.linspace(0.5, 0.8, 17), fdr25, gm1)
    with pytest.raises(ValueError, match=r"rounding of the Simpson sums on segment \[0\.5"):
        sm.build_varying_reward(100.0, sm.quadratic_schedule(1e10), thresholds, gm1)
    menu = sm.build_varying_reward(100.0, sm.quadratic_schedule(1e8), thresholds, gm1)
    assert len(menu.taus) == 17


# ---------------------------------------------------------------------------
# fixed-reward construction
# ---------------------------------------------------------------------------


def test_fixed_reward_worst_type_zero_utility(gm1, fixed_menu):
    worst = fixed_menu.contracts[-1]
    assert sm.utility(0.86, worst, gm1) == pytest.approx(0.0, abs=1e-8)


def test_fixed_reward_separates(gm1, fixed_menu):
    assert sm.verify_separating(fixed_menu, model=gm1).passed


def test_fixed_reward_constant_reward(fixed_menu):
    assert all(c.reward == 100.0 for c in fixed_menu.contracts)


def test_fixed_reward_infeasible_below_bound():
    model = sm.gaussian_model(0.5)
    with pytest.raises(InfeasibleMenuError) as err:
        sm.build_fixed_reward(100.0, 0.2, 0.8, sm.fdr_objective(ALPHA), model)
    assert err.value.bound == pytest.approx(0.33, abs=0.01)
    assert "0.33" in str(err.value)


def test_fixed_reward_potential_convexity(gm1, fdr25):
    """Second differences of the induced potential are strictly positive on
    the elicitable range."""
    G = sm.fixed_reward_potential(100.0, 0.85, fdr25, gm1)
    qs = np.linspace(0.45, 0.84, 25)
    vals = np.array([G.value(float(q)) for q in qs])
    assert np.all(np.diff(vals, 2) > 0)


def test_elicitable_range_weak_test():
    q_lo, _ = sm.elicitable_range(sm.fdr_objective(ALPHA), sm.gaussian_model(0.5))
    assert q_lo == pytest.approx(0.33, abs=0.01)


def test_elicitable_range_strong_test():
    _, tau_bar = sm.elicitable_range(sm.fdr_objective(ALPHA), sm.gaussian_model(2.0))
    assert tau_bar == pytest.approx(0.16, abs=0.005)


def test_elicitable_range_unit_effect(gm1, fdr25):
    q_lo, tau_bar = sm.elicitable_range(fdr25, gm1)
    assert tau_bar == pytest.approx(1.0 - sm.normal_cdf(0.5), abs=1e-12)
    assert q_lo == pytest.approx(0.43, abs=0.01)


def test_elicitable_range_is_slope_one_point(gm1, fdr25):
    q_lo, tau_bar = sm.elicitable_range(fdr25, gm1)
    assert sm.power_derivative(gm1, tau_bar) == pytest.approx(1.0, abs=1e-9)
    assert sm.fdr_threshold(q_lo, fdr25, gm1) == pytest.approx(tau_bar, abs=1e-9)


# ---------------------------------------------------------------------------
# finite-type recursion
# ---------------------------------------------------------------------------


def test_finite_menu_separates(gm1, five_type_menu):
    assert sm.verify_separating(five_type_menu, model=gm1).passed


def test_finite_menu_single_step_formula(gm1, fdr25, five_types):
    """Last recursion step: R_4 = R_5 * Delta_5 / Delta_4 + eps."""
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in five_types]
    menu = sm.build_finite_menu(five_types, taus, (100.0, 5.0), 50.0, lam=0.5, model=gm1)
    deltas = [sm.power(gm1, t) - t for t in taus]
    expected_r4 = 100.0 * deltas[4] / deltas[3] + 50.0
    assert menu.contracts[3].reward == pytest.approx(expected_r4, rel=1e-12)
    assert menu.contracts[4].reward == 100.0
    assert menu.contracts[4].cost == 5.0


def test_finite_menu_interval_width_and_midpoint(gm1, fdr25, five_types):
    """Admissible cost intervals, recomputed from the built rewards, have
    width (q_t - q_{t-1}) * eps * Delta_{t-1}, and midpoint costs sit at
    their centers."""
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in five_types]
    menu = sm.build_finite_menu(five_types, taus, (100.0, 5.0), 50.0, lam=0.5, model=gm1)
    betas = [sm.power(gm1, t) for t in taus]
    deltas = [b - t for b, t in zip(betas, taus)]
    r = [c.reward for c in menu.contracts]
    c = [c.cost for c in menu.contracts]
    for i in range(4):
        slope_gap = r[i + 1] * deltas[i + 1] - r[i] * deltas[i]
        base_term = r[i] * betas[i] - r[i + 1] * betas[i + 1] + c[i + 1]
        left = five_types[i + 1] * slope_gap + base_term
        right = five_types[i] * slope_gap + base_term
        expected_width = (five_types[i + 1] - five_types[i]) * 50.0 * deltas[i]
        assert right - left == pytest.approx(expected_width, rel=1e-9)
        assert right - left > 0
        assert c[i] == pytest.approx(0.5 * (left + right), rel=1e-12)


def test_finite_menu_lambda_endpoints_warn(gm1, fdr25, five_types):
    """An endpoint lam warns but still returns the recursion's menu."""
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in five_types]
    for lam in (0.0, 1.0):
        with pytest.warns(UserWarning):
            menu = sm.build_finite_menu(five_types, taus, (100.0, 5.0), 50.0, lam=lam, model=gm1)
        oracle = scalar_finite_menu(five_types, taus, (100.0, 5.0), 50.0, lam, gm1)
        np.testing.assert_allclose(menu.costs, oracle.costs, rtol=1e-12, atol=0.0)


def test_finite_menu_terminal_participation_enforced(gm1, fdr25, five_types):
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in five_types]
    with pytest.raises(InfeasibleMenuError):
        sm.build_finite_menu(five_types, taus, (100.0, 50.0), 50.0, lam=0.5, model=gm1)


def test_finite_menu_rejects_nonpositive_slack(gm1, fdr25, five_types):
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in five_types]
    with pytest.raises(ValueError):
        sm.build_finite_menu(five_types, taus, (100.0, 5.0), 0.0, lam=0.5, model=gm1)
    with pytest.raises(ValueError):
        sm.build_finite_menu(five_types, taus, (100.0, 5.0), [50.0, 50.0, -1.0, 50.0], lam=0.5, model=gm1)
    with pytest.raises(ValueError, match="slack values must be strictly positive"):
        sm.build_finite_menu(five_types, taus, (100.0, 5.0), [50.0, np.nan, 50.0, 50.0], model=gm1)


def test_finite_menu_slack_controls_separation(gm1, fdr25, five_types):
    """Larger slack widens the reward spread between adjacent contracts."""
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in five_types]
    small = sm.build_finite_menu(five_types, taus, (100.0, 5.0), 50.0, lam=0.5, model=gm1)
    large = sm.build_finite_menu(five_types, taus, (100.0, 5.0), 100.0, lam=0.5, model=gm1)
    assert large.contracts[0].reward > small.contracts[0].reward


def test_finite_menu_contract_ordering(gm1, five_type_menu, five_types):
    """No type prefers a contract built for a more distant type: above q_t
    contract t beats t-1, below q_{t-1} the reverse."""
    grid = np.linspace(0.0, 1.0, 401)
    for i in range(1, 5):
        c_hi, c_lo = five_type_menu.contracts[i], five_type_menu.contracts[i - 1]
        for q in grid:
            q = float(q)
            hi_u = sm.utility(q, c_hi, gm1)
            lo_u = sm.utility(q, c_lo, gm1)
            if q >= five_types[i]:
                assert hi_u > lo_u
            elif q <= five_types[i - 1]:
                assert hi_u < lo_u


@st.composite
def finite_cases(draw):
    """Types on a 0.005 grid in [0.3, 0.9] (interior FDR thresholds), a
    scalar or per-step slack, an interior lam and a terminal contract that
    leaves the worst type a nonnegative utility."""
    model = draw(st.sampled_from([sm.gaussian_model(1.0), sm.gaussian_model(2.5)]))
    steps = draw(st.lists(st.integers(0, 120), min_size=2, max_size=12, unique=True))
    types = [0.3 + 0.005 * k for k in sorted(steps)]
    taus = [sm.fdr_threshold(q, sm.fdr_objective(ALPHA), model) for q in types]
    slack = st.floats(0.01, 50.0)
    eps = draw(st.one_of(slack, st.lists(slack, min_size=len(types) - 1, max_size=len(types) - 1)))
    lam = draw(st.floats(0.05, 0.95))
    reward = draw(st.floats(1.0, 200.0))
    cost = draw(st.floats(0.0, sm.zero_utility_cost(types[-1], taus[-1], reward, model)))
    return model, types, taus, (reward, cost), eps, lam


@settings(max_examples=200, deadline=None)
@given(case=finite_cases())
def test_finite_menu_matches_scalar_recursion(case):
    """The discrete potential reproduces the backward recursion: rewards and
    costs to 1e-12, the same separation verdict, and the terminal contract
    exactly as given."""
    model, types, taus, terminal, eps, lam = case
    menu = sm.build_finite_menu(types, taus, terminal, eps, lam=lam, model=model)
    oracle = scalar_finite_menu(types, taus, terminal, eps, lam, model)
    np.testing.assert_allclose(menu.rewards, oracle.rewards, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(menu.costs, oracle.costs, rtol=1e-12, atol=0.0)
    assert menu.contracts[-1] == Contract(taus[-1], *terminal)
    report = sm.verify_separating(menu, model=model)
    assert report.passed == sm.verify_separating(oracle, model=model).passed


def test_finite_menu_unregistered_slack_is_infeasible(gm1, fdr25, five_types):
    """A slack too small to move a subgradient leaves an empty cost interval."""
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in five_types]
    with pytest.raises(InfeasibleMenuError, match="empty cost interval"):
        sm.build_finite_menu(five_types, taus, (100.0, 5.0), 1e-300, lam=0.5, model=gm1)


def test_menu_columns_are_read_only(five_type_menu):
    columns = (five_type_menu.taus, five_type_menu.rewards, five_type_menu.costs)
    expected = zip(*((c.tau, c.reward, c.cost) for c in five_type_menu.contracts))
    for column, values in zip(columns, expected):
        assert column.tolist() == list(values)
        with pytest.raises(ValueError):
            column[0] = 0.0


# ---------------------------------------------------------------------------
# every builder on random problems
# ---------------------------------------------------------------------------


@st.composite
def builder_cases(draw):
    """A builder, an effect size theta1, an FDR budget alpha, a support of
    types with interior thresholds, a reward and a slack (the varying-reward
    eta or the finite menu's eps)."""
    model = sm.gaussian_model(draw(st.floats(0.2, 6.0)))
    alpha = draw(st.floats(0.02, 0.45))
    objective = sm.fdr_objective(alpha)
    # Types up to alpha meet the budget untested (threshold 1, no power margin).
    above = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=16, unique=True))
    support = sorted({alpha + (0.99 - alpha) * u for u in above})
    taus = [sm.optimal_threshold(q, objective, model) for q in support]
    assume(len(support) > 1 and all(sm.power(model, tau) > tau for tau in taus))
    method = draw(st.sampled_from(["fixed_reward", "varying_reward", "from_potential", "finite"]))
    reward = draw(st.floats(1.0, 200.0))
    slack = draw(st.floats(0.01, 20.0))
    lam = draw(st.floats(0.05, 0.95))
    return method, model, objective, support, taus, reward, slack, lam


@settings(max_examples=200, deadline=None)
@given(case=builder_cases())
def test_every_builder_separates_or_raises(case):
    """No builder hands back a menu that fails verification at the default
    margin: it separates or raises one of the two infeasibility errors."""
    method, model, objective, support, taus, reward, slack, lam = case
    thresholds = list(zip(support, taus))
    q_bar, tau_bar = thresholds[-1]
    terminal = (reward, sm.zero_utility_cost(q_bar, tau_bar, reward, model))
    try:
        if method == "fixed_reward":
            menu = sm.build_fixed_reward(reward, support[0], q_bar, objective, model, len(support))
        elif method == "varying_reward":
            menu = sm.build_varying_reward(reward, sm.quadratic_schedule(slack), thresholds, model)
        elif method == "from_potential":
            potential = sm.fixed_reward_potential(reward, q_bar, objective, model)
            menu = sm.build_from_potential(potential, thresholds, model)
        else:
            menu = sm.build_finite_menu(support, taus, terminal, slack, lam=lam, model=model)
    except (InfeasibleMenuError, InvalidPotentialError):
        return
    report = sm.verify_separating(menu, model=model, margin=1e-9)
    assert report.passed, report.describe()


# ---------------------------------------------------------------------------
# potential recovery (converse direction as an oracle)
# ---------------------------------------------------------------------------


def test_recovered_potentials_valid_for_all_builders(gm1, fdr25, five_types, five_type_menu, fixed_menu):
    menus = [five_type_menu, fixed_menu]
    G = make_discrete_potential(five_types, [-40.0, -25.0, -12.0, -6.0, -2.0])
    menus.append(sm.build_from_potential(G, fdr_thresholds_on(five_types, fdr25, gm1), gm1))
    thresholds = fdr_thresholds_on(np.linspace(0.3, 0.8, 17), fdr25, gm1)
    menus.append(sm.build_varying_reward(100.0, sm.quadratic_schedule(0.2), thresholds, gm1))
    for menu in menus:
        recovered = sm.recover_potential(menu, gm1)
        sm.validate_potential(recovered, menu.support, tol=1e-8)
        assert all(recovered.subgradient(p) < 0 for p in menu.support)


def test_validate_potential_flags_broken_menu(gm1, five_type_menu):
    contracts = list(five_type_menu.contracts)
    c0, c4 = contracts[0], contracts[4]
    contracts[0] = Contract(c0.tau, c0.reward, c4.cost)
    contracts[4] = Contract(c4.tau, c4.reward, c0.cost)
    broken = five_type_menu.__class__(support=five_type_menu.support, contracts=tuple(contracts))
    recovered = sm.recover_potential(broken, gm1)
    with pytest.raises(InvalidPotentialError):
        sm.validate_potential(recovered, broken.support, tol=1e-8)


def test_empty_potential_support_is_rejected(gm1, fdr25):
    """No points is a ValueError, for a tabulated potential and for any
    potential checked on an empty support, not an IndexError; so is a NaN or
    infinite point, which no tabulated lookup can find (not a KeyError)."""
    with pytest.raises(ValueError, match="at least one point"):
        sm.validate_potential(sm.tabulated_potential([], [], []), [])
    G = sm.fixed_reward_potential(100.0, 0.86, fdr25, gm1)
    with pytest.raises(ValueError, match="support must be nonempty"):
        sm.validate_potential(G, [])
    with pytest.raises(ValueError, match="support must be nonempty"):
        sm.build_from_potential(G, [], gm1)
    tabulated = sm.tabulated_potential([0.2, 0.5], [3.0, 0.0], [-12.0, -6.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            sm.validate_potential(tabulated, [0.2, bad, 0.5])
        with pytest.raises(ValueError, match="finite and distinct"):
            sm.tabulated_potential([0.2, bad], [3.0, 0.0], [-12.0, -6.0])
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        sm.validate_potential(tabulated, [0.2, 0.5, np.inf])
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        sm.build_from_potential(tabulated, [(0.2, 0.3), (np.nan, 0.2), (0.5, 0.1)], gm1)


# ---------------------------------------------------------------------------
# fixed-cost feasibility
# ---------------------------------------------------------------------------


def test_fixed_cost_infeasible_for_concave_power(gm1):
    assert not sm.fixed_cost_feasible(0.5, 0.1, gm1)


def test_fixed_cost_feasible_for_convex_ratio_power():
    taus = list(np.linspace(0.0, 0.55, 23)) + [1.0]
    betas = [float(t * np.exp(t)) for t in taus[:-1]] + [1.0]
    model = sm.tabulated_model(taus, betas)
    assert sm.fixed_cost_feasible(0.5, 0.2, model)


def test_fixed_cost_equal_thresholds_rejected(gm1):
    with pytest.raises(ValueError):
        sm.fixed_cost_feasible(0.3, 0.3, gm1)
    with pytest.raises(ValueError):
        sm.fixed_cost_feasible(0.1, 0.5, gm1)


# ---------------------------------------------------------------------------
# the scalar code the potential route replaced, kept as exact oracles
# ---------------------------------------------------------------------------


def scalar_potential_issue(ps, values, subgrads, tol):
    """Potential check as one comparison per ordered pair, each supporting
    line evaluated as a menu line (slope g_j, intercept G(p_j) - g_j p_j) at
    every point, point first (row-major)."""
    n = len(ps)
    for i in range(n):
        if not subgrads[i] < tol:
            return f"subgradient at {ps[i]:.6g} is {subgrads[i]:.6g}, expected < 0"
    intercepts = [values[j] - subgrads[j] * ps[j] for j in range(n)]
    for i in range(n):  # the potential at ps[i], read off its own supporting line
        own = ps[i] * subgrads[i] + intercepts[i]
        for j in range(n):
            if j == i:
                continue
            line = ps[i] * subgrads[j] + intercepts[j]
            if not own > line - tol:
                return (
                    f"supporting line at {ps[j]:.6g} not strictly below the potential "
                    f"at {ps[i]:.6g} (gap {own - line:.3g})"
                )
    if not values[-1] >= -tol:
        return f"potential at the worst type {ps[-1]:.6g} is {values[-1]:.6g}, expected >= 0"
    return None


def jmajor_supporting_lines_hold(ps, values, subgrads, tol):
    """The supporting-line inequality in its point-slope form, G(p_i) >
    G(p_j) + g_j (p_i - p_j) - tol for every ordered pair, line first."""
    n = len(ps)
    return all(
        values[i] > values[j] + subgrads[j] * (ps[i] - ps[j]) - tol
        for j in range(n)
        for i in range(n)
        if i != j
    )


def scalar_fdr_potential(reward, taus, alpha, model):
    """Constant-reward potential at the types with FDR thresholds ``taus``,
    vanishing at the last, by parts in threshold space: reward times
    H(taus[-1]) - H(tau), with H(t) = t along(t) minus the integral of along.
    The integral is one recursive Simpson per piece between the sorted
    thresholds and the curve's knots inside them, summed from the left."""
    c = (1.0 - alpha) / alpha

    def along(t):  # c W(Q(t)) - Q(t) for the type Q(t) whose budget binds at t
        r = alpha * sm.power(model, t) / ((1.0 - alpha) * t)
        q = r / (1.0 + r)
        return c * (np.log1p(r) - q) - q

    ts = [min(max(t, objectives._FLOOR), 1.0) for t in taus]
    knots = model.taus.tolist() if model.kind == "tabulated" else []
    nodes = sorted(set(ts) | {t for t in knots if min(ts) < t < max(ts)})
    integral = {nodes[0]: 0.0}
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        integral[hi] = integral[lo] + recursive_simpson(along, lo, hi, tol=builders.INTEGRAL_TOL)
    H = [t * along(t) - integral[t] for t in ts]
    return [reward * (H[-1] - h) for h in H]


def scalar_fixed_reward_costs(reward, q_lo, q_bar, objective, model, n):
    """Constant-reward costs from the potential and one contract formula per
    type. Under an FDR budget the potential is an H difference in threshold
    space; under error costs, the margin integrated over the types from the
    first, one segment at a time, and read as the total minus the running sum."""
    support = np.linspace(q_lo, q_bar, n)
    # FDR thresholds are inputs here, checked against their own oracle elsewhere
    threshold = sm.fdr_threshold if objective.kind == "fdr" else scalar_optimal_threshold
    taus = [threshold(float(q), objective, model) for q in support]

    def margin(z):
        tau = scalar_optimal_threshold(float(z), objective, model)
        return sm.power(model, tau) - tau

    if objective.kind == "fdr":
        values = scalar_fdr_potential(reward, taus, objective.alpha, model)
    else:
        running = [0.0]
        for a, b in zip(support[:-1].tolist(), support[1:].tolist()):
            running.append(running[-1] + recursive_simpson(margin, a, b, tol=builders.INTEGRAL_TOL))
        values = [reward * (running[-1] - f) for f in running]
    return [
        reward * (q * tau + (1.0 - q) * sm.power(model, tau)) - value
        for q, tau, value in zip(support, taus, values)
    ]


def z_space_segments(zs, objective, model, tol=1e-14):
    """Reference margin integrals over the types, at ``tol``, with each
    segment split where the margin has a kink or a jump: at alpha (threshold
    1 below it), at the last type approving anything, and at the types
    whose thresholds are the curve's knots."""
    cuts = [objective.alpha, sm.type_for_threshold(objectives._FLOOR, objective, model)]
    if model.kind == "tabulated":
        cuts += sm.type_for_threshold(model.taus[1:-1], objective, model).tolist()
    cuts = sorted(set(cuts))
    chain, owner = [float(zs[0])], []
    for i, (a, b) in enumerate(zip(zs[:-1].tolist(), zs[1:].tolist())):
        inside = [z for z in cuts if min(a, b) < z < max(a, b)]
        chain += (inside if a < b else inside[::-1]) + [b]
        owner += [i] * (len(inside) + 1)

    def margin(z):
        tau = sm.optimal_threshold(z, objective, model)
        return sm.power(model, tau) - tau

    pieces = _quad.adaptive_simpson(margin, chain, tol)
    return np.bincount(owner, weights=pieces, minlength=len(zs) - 1)


def bisection_q_lo(tau_bar, objective, model):
    """Type assigned ``tau_bar``, by 100 bisection steps over the threshold map."""
    lo_q, hi_q = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo_q + hi_q)
        if sm.optimal_threshold(mid, objective, model) > tau_bar:
            lo_q = mid
        else:
            hi_q = mid
    return 0.5 * (lo_q + hi_q)


def tabulated_gaussian(theta1, knots=257):
    """Tabulated model through the Gaussian power curve on a uniform tau grid."""
    taus = np.linspace(0.0, 1.0, knots)
    gm = sm.gaussian_model(theta1)
    return sm.tabulated_model(taus, [sm.power(gm, float(t)) for t in taus])


@st.composite
def potential_cases(draw):
    """Support, values and subgradients: a convex potential built from
    increasing subgradients (or barely convex: neighbouring subgradients 0
    to 4 ulps apart), on a support inside or outside [0, 1], optionally with
    one value or subgradient moved or some subgradients made nonnegative."""
    n = draw(st.integers(2, 40))
    lo, hi = draw(st.sampled_from([(0.01, 0.99), (-3.0, 0.5), (0.5, 4.0), (-10.0, 10.0)]))
    ps = sorted(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True)))
    if draw(st.booleans()):
        subgrads = sorted(draw(st.lists(st.floats(-50.0, -0.01), min_size=n, max_size=n)))
    else:
        subgrads = [draw(st.floats(-50.0, -0.01))]
        for ulps in draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1)):
            g = subgrads[-1]
            for _ in range(ulps):
                g = math.nextafter(g, 0.0)
            subgrads.append(g)
    values = [0.0] * n
    values[-1] = draw(st.sampled_from([0.0, 1e-9, 1.0, -1e-9, -1.0]))
    for i in range(n - 2, -1, -1):
        chord = 0.5 * (subgrads[i] + subgrads[i + 1])
        values[i] = values[i + 1] - chord * (ps[i + 1] - ps[i])
    kind = draw(st.sampled_from(["valid", "value", "subgradient", "nonnegative"]))
    i = draw(st.integers(0, n - 1))
    step = draw(st.sampled_from([-1.0, -1e-2, -1e-8, -1e-9, 1e-9, 1e-8, 1e-2, 1.0]))
    if kind == "value":
        values[i] += step
    elif kind == "subgradient":
        subgrads[i] += step
    elif kind == "nonnegative":
        for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)):
            subgrads[k] = draw(st.sampled_from([0.0, 1e-9, 1.0, 50.0]))
    return ps, values, subgrads


@settings(max_examples=400, deadline=None)
@given(case=potential_cases())
def test_potential_check_matches_scalar_oracle(case):
    ps, values, subgrads = case
    for tol in (0.0, 1e-8):
        assert builders._potential_issue(ps, values, subgrads, tol) == scalar_potential_issue(
            ps, values, subgrads, tol
        )


@settings(max_examples=300, deadline=None)
@given(case=potential_cases())
def test_menu_line_and_point_slope_forms_agree_beyond_rounding(case):
    """Evaluating a supporting line as p_i g_j + b_j or as G(p_j) + g_j (p_i
    - p_j) moves the verdict only where some exact lead G(p_i) - G(p_j) -
    g_j (p_i - p_j) lies within the rounding of either form of -tol; away
    from that, both give the exact verdict."""
    ps, values, subgrads = case
    assume(all(g < 0.0 for g in subgrads))
    F = [Fraction(x) for x in ps], [Fraction(x) for x in values], [Fraction(x) for x in subgrads]
    leads = [
        F[1][i] - F[1][j] - F[2][j] * (F[0][i] - F[0][j])
        for j in range(len(ps))
        for i in range(len(ps))
        if i != j
    ]
    scale = max(map(abs, values)) + max(map(abs, subgrads)) * max(1.0, max(map(abs, ps)))
    bound = Fraction(4.0 * np.finfo(float).eps * scale)
    for tol in (0.0, 1e-8):
        if min(abs(lead + Fraction(tol)) for lead in leads) <= bound:
            continue
        exact = all(lead > -Fraction(tol) for lead in leads)
        lines = scalar_potential_issue(ps, values, subgrads, tol)
        assert (lines is None or lines.startswith("potential at the worst type")) == exact
        assert jmajor_supporting_lines_hold(ps, values, subgrads, tol) == exact


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308, -1e308])
@pytest.mark.parametrize("entry", ["point", "value", "subgradient"])
def test_potential_check_on_non_finite_entries_matches_scalar_oracle(bad, entry):
    """Infinite, NaN and huge entries compare as the scalar floats do, with
    no floating-point warning (warnings are errors)."""
    for k in range(3):
        case = [[0.2, 0.5, 0.8], [3.0, 1.0, 0.0], [-8.0, -5.0, -2.0]]
        case[["point", "value", "subgradient"].index(entry)][k] = bad
        for tol in (0.0, 1e-8):
            assert builders._potential_issue(*case, tol) == scalar_potential_issue(*case, tol)


def test_clustered_near_ties_are_not_certified_by_neighbours():
    """Three points whose neighbouring supporting lines each sit within the
    slack of the potential (0.9 tol), while the line two points away beats
    the first point by 1.8 tol. The lines are certified, so ``_leads`` sees
    them; with a negative margin it still requires each point's own line to
    be the exact peak, so the pass over all pairs runs and names the pair."""
    tol = 1e-3
    ps = [0.5, 0.501, 0.502]
    slopes = np.array([-1.0, -1.0 + 4.5 * tol, -1.0 + 13.5 * tol])
    intercepts = np.array([1.0, 1.0 - 0.3 * 4.5 * tol, 1.0 - 0.3 * 4.5 * tol - 0.4 * 9 * tol])
    assert contracts._segments(slopes, intercepts)[0] is not None
    values, subgrads = (slopes * ps + intercepts).tolist(), slopes.tolist()
    issue = builders._potential_issue(ps, values, subgrads, tol)
    assert issue == scalar_potential_issue(ps, values, subgrads, tol)
    assert issue.startswith("supporting line at 0.502 not strictly below the potential at 0.5")


@pytest.fixture(scope="module")
def finest_recovered(gm1, fdr25):
    """The recovered potential of the 16,385-contract fixed-reward menu."""
    menu = sm.build_fixed_reward(100.0, 0.43, 0.86, fdr25, gm1, n=16_385)
    return sm.recover_potential(menu, gm1), menu.support


@pytest.mark.parametrize("tol", [0.0, 1e-8])
def test_fine_potential_is_checked_on_adjacent_lines(finest_recovered, tol, monkeypatch):
    """The 16,385-point potential passes on the certificate alone."""

    def refuse(*args):
        raise AssertionError("the pass over all pairs ran")

    monkeypatch.setattr(contracts, "_utility_blocks", refuse)
    sm.validate_potential(*finest_recovered, tol=tol)


@settings(max_examples=60, deadline=None)
@given(
    shift=st.floats(-50.0, 50.0),
    moved=st.sampled_from([None, 3, 60, 127]),
    tol=st.sampled_from([0.0, 1e-8]),
)
def test_shifted_potential_check_matches_the_pass_over_all_pairs(
    fixed_menu, gm1, shift, moved, tol
):
    """The recovered 129-point potential with its points shifted off [0, 1]
    (and a value moved down, or none) gets the verdict and message of the
    pass over all pairs: the certificate's rounding bound scales with the
    farthest point."""
    potential = sm.recover_potential(fixed_menu, gm1)
    ps = np.array(fixed_menu.support)
    values, subgrads = potential.values(ps), potential.subgradient(ps)
    if moved is not None:
        values[moved] -= 1e-2
    issue = builders._potential_issue(ps + shift, values, subgrads, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contracts, "_segments", lambda slopes, intercepts: (None, 0.0))
        assert builders._potential_issue(ps + shift, values, subgrads, tol) == issue
    assert (issue is None) == (moved is None)


@pytest.mark.parametrize("shift", [1.0, -1.5, 20.0])
def test_shifted_fine_potential_is_checked_on_adjacent_lines(finest_recovered, shift, monkeypatch):
    """The 16,385-point potential shifted off [0, 1] passes on the
    certificate alone, as it does on [0, 1]."""
    potential, support = finest_recovered
    ps = np.array(support)
    values, subgrads = potential.values(ps), potential.subgradient(ps)

    def refuse(*args):
        raise AssertionError("the pass over all pairs ran")

    monkeypatch.setattr(contracts, "_utility_blocks", refuse)
    assert builders._potential_issue(ps + shift, values, subgrads, 0.0) is None


def test_potential_check_on_uncertified_lines_matches(fixed_menu, gm1, monkeypatch):
    """With no certificate, the pass over all pairs gives the same verdicts
    and messages, on a valid potential and on one with a value moved."""
    ps = np.array(fixed_menu.support)
    slopes, intercepts = fixed_menu.lines(gm1)
    values = slopes * ps + intercepts
    moved = values.copy()
    moved[60] -= 1e-2
    cases = [(values, slopes, tol) for tol in (0.0, 1e-8)] + [(moved, slopes, 0.0)]
    certified = [builders._potential_issue(ps, v, g, tol) for v, g, tol in cases]
    assert certified[0] is None and certified[1] is None and certified[2] is not None
    monkeypatch.setattr(contracts, "_segments", lambda slopes, intercepts: (None, 0.0))
    assert [builders._potential_issue(ps, v, g, tol) for v, g, tol in cases] == certified


@pytest.mark.parametrize("n", [2, 33, 129])
@pytest.mark.parametrize("curve", ["gaussian", "tabulated", "bayes"])
def test_fixed_reward_costs_match_scalar_oracle(fdr25, n, curve):
    """Bit for bit: under an FDR budget, the scalar H difference in threshold
    space; under error costs (``bayes``), the scalar z-space integral read
    from its running sum."""
    model = tabulated_gaussian(1.5) if curve == "tabulated" else sm.gaussian_model(1.0)
    objective = sm.bayes_objective(1.0, 2.0) if curve == "bayes" else fdr25
    q_lo = sm.elicitable_range(objective, model)[0] + 0.02
    menu = sm.build_fixed_reward(100.0, q_lo, 0.86, objective, model, n=n)
    expected = scalar_fixed_reward_costs(100.0, q_lo, 0.86, objective, model, n)
    assert [c.cost for c in menu.contracts] == expected
    assert all(c.reward == 100.0 for c in menu.contracts)


ACCURACY_MODELS = {
    "gaussian-1": (sm.gaussian_model(1.0), 0.86),
    "gaussian-2.5": (sm.gaussian_model(2.5), 0.86),
    "tabulated-1.5": (tabulated_gaussian(1.5), 0.86),
    "log-linear-curve": (log_linear_curve(), 0.9),
}


@pytest.mark.parametrize("n", [2, 33, 129, 1025])
@pytest.mark.parametrize("name", sorted(ACCURACY_MODELS))
def test_fdr_margin_integrals_within_tolerance(fdr25, name, n):
    """Every segment integral of a constant-reward menu is within
    INTEGRAL_TOL of the margin integrated over the types at 1e-14, split at
    the curve's kinks."""
    model, q_bar = ACCURACY_MODELS[name]
    support = np.linspace(sm.elicitable_range(fdr25, model)[0] + 0.02, q_bar, n)
    taus = sm.fdr_threshold(support, fdr25, model)
    segments = -np.diff(builders._fdr_potential(1.0, taus, 0.25, model))  # H differences
    reference = z_space_segments(support, fdr25, model)
    assert np.abs(segments - reference).max() <= builders.INTEGRAL_TOL


@pytest.mark.parametrize(
    "model, ps, q_bar",
    [
        (sm.gaussian_model(1.0), [0.05, 0.2, 0.25, 0.3, 0.6, 0.86], 0.86),  # 1 up to alpha
        (tabulated_gaussian(1.5), [0.1, 0.3, 0.6, 0.9, 0.92, 0.95], 0.97),  # 0 above about 0.913
        (sm.gaussian_model(0.3), [0.3, 0.9, 0.99, 0.9999, 0.99999, 0.999999], 1.0),
    ],
    ids=["straddles-alpha", "tabulated-approves-nothing", "over-budget-at-the-floor"],
)
def test_fdr_potential_off_the_binding_range_matches_z_space(fdr25, model, ps, q_bar):
    """Types given threshold 1 or 0 have no margin: the potential integrates
    the binding range only, as the margin over the types does."""
    values = sm.fixed_reward_potential(100.0, q_bar, fdr25, model).values(ps)
    segments = z_space_segments(np.append(ps, q_bar), fdr25, model)
    expected = 100.0 * np.cumsum(segments[::-1])[::-1]
    assert np.abs(values - expected).max() <= 100.0 * builders.INTEGRAL_TOL * len(ps)
    assert values[0] > 0.0


def test_fixed_reward_build_bisects_its_support_once(fdr25, monkeypatch):
    """Under an FDR budget only the support's thresholds are bisected."""
    calls = []
    bisection = objectives._fdr_bisection

    def counted(q, alpha, model):
        calls.append(np.size(q))
        return bisection(q, alpha, model)

    monkeypatch.setattr(objectives, "_fdr_bisection", counted)
    cases = [(sm.gaussian_model(1.0), 0.43, 0.86, 1025), (log_linear_curve(), 0.54, 0.9, 129)]
    for model, q_lo, q_bar, n in cases:
        calls.clear()
        sm.build_fixed_reward(100.0, q_lo, q_bar, fdr25, model, n=n)
        assert calls == [n]


QLO_CASES = (
    [(sm.fdr_objective(a), sm.gaussian_model(t)) for a in (0.05, 0.25, 0.4) for t in (0.3, 1, 3, 8)]
    + [
        (sm.bayes_objective(*w), sm.gaussian_model(t))
        for w in ((1, 1), (1, 3), (0, 1), (1, 0))
        for t in (0.3, 1, 3, 8)
    ]
    + [(sm.fdr_objective(a), tabulated_gaussian(1.5)) for a in (0.05, 0.25, 0.4)]
)


@pytest.mark.parametrize("objective, model", QLO_CASES)
def test_elicitable_range_q_lo_matches_bisection(objective, model):
    q_lo, tau_bar = sm.elicitable_range(objective, model)
    assert abs(q_lo - bisection_q_lo(tau_bar, objective, model)) <= 1e-15
