"""Tests for rates, frontier sweeps, cost metrics, and the simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import statmenus as sm
from statmenus import evaluation
from statmenus.contracts import PARTICIPATION_SLACK, Contract, Menu, best_response

from oracles import bracket_principal_return


def figure_family(gm1, fdr25, etas, n_support=65):
    """Varying-reward menus anchored at the worst-type contract for the
    (theta1=1, alpha=0.25, q_bar=0.8, R=100) configuration."""
    q_bar = 0.8
    tau_bar = sm.fdr_threshold(q_bar, fdr25, gm1)
    base = Contract(tau_bar, 100.0, sm.zero_utility_cost(q_bar, tau_bar, 100.0, gm1))
    support = np.linspace(0.27, q_bar, n_support)
    thresholds = [(float(q), sm.fdr_threshold(float(q), fdr25, gm1)) for q in support]
    menus = {
        eta: sm.build_varying_reward(base, sm.quadratic_schedule(eta), thresholds, gm1)
        for eta in etas
    }
    return base, menus


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_fdr_trivial_points(gm1):
    assert sm.fdr(0.0, 0.5, gm1) == 0.0
    assert sm.fdr(1.0, 0.5, gm1) == 1.0
    assert sm.fdr(0.5, 0.0, gm1) == 0.0  # 0/0 resolved to 0


def test_fdr_worst_type_at_budget(gm1):
    assert sm.fdr(0.8, 0.004, gm1) == pytest.approx(0.25, abs=0.01)


def test_fdr_monotone_in_threshold_and_type(gm1):
    taus = np.linspace(0.01, 0.99, 40)
    vals = [sm.fdr(0.5, float(t), gm1) for t in taus]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    qs = np.linspace(0.05, 0.95, 40)
    vals_q = [sm.fdr(float(q), 0.2, gm1) for q in qs]
    assert all(b > a for a, b in zip(vals_q, vals_q[1:]))


def test_tdr_trivial_points(gm1):
    assert sm.tdr(0.3, 1.0, gm1) == pytest.approx(0.7)
    assert sm.tdr(1.0, 0.5, gm1) == 0.0


def test_tdr_interior_value(gm1):
    expected = 0.7 * stats.norm.sf(stats.norm.isf(0.74) - 1.0)
    assert sm.tdr(0.3, 0.74, gm1) == pytest.approx(expected, abs=1e-12)
    assert sm.tdr(0.3, 0.74, gm1) == pytest.approx(0.665, abs=5e-4)


def test_tdr_nondecreasing_in_threshold(gm1):
    taus = np.linspace(0.0, 1.0, 41)
    vals = [sm.tdr(0.4, float(t), gm1) for t in taus]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_bayes_risk_endpoints(gm1):
    assert sm.bayes_risk(0.3, 0.0, 2.0, 3.0, gm1) == pytest.approx(3.0 * 0.7)
    assert sm.bayes_risk(0.3, 1.0, 2.0, 3.0, gm1) == pytest.approx(2.0 * 0.3)


def test_bayes_risk_interior_formula(gm1):
    for tau in (0.1, 0.4, 0.8):
        beta1 = stats.norm.sf(stats.norm.isf(tau) - 1.0)
        expected = 2.0 * 0.3 * tau + 3.0 * 0.7 * (1 - beta1)
        assert sm.bayes_risk(0.3, tau, 2.0, 3.0, gm1) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


def test_frontier_requires_two_types(gm1):
    with pytest.raises(ValueError):
        sm.frontier(sm.discrete_population([0.5]), gm1)
    with pytest.raises(ValueError):
        sm.frontier(sm.uniform_population(0.2, 0.8), gm1)


def test_frontier_degenerate_curves_coincide(gm1):
    """With all weight on one type, oracle and uniform trace the same curve."""
    pop = sm.discrete_population([0.35, 0.8], [1.0, 0.0])
    points = sm.frontier(pop, gm1, resolution=512)
    oracle = [p for p in points if p.label == "oracle"]
    uniform = [p for p in points if p.label == "uniform"]
    matched = sm.matched_tdr(uniform, np.array([p.fdr for p in oracle]))
    checked = 0
    for p, u in zip(oracle, matched):
        if np.isnan(u):
            continue
        assert p.tdr == pytest.approx(u, abs=1e-4)
        checked += 1
    assert checked > 100


def test_frontier_oracle_dominates_uniform(gm1):
    pop = sm.discrete_population([0.2, 0.8], [0.5, 0.5])
    points = sm.frontier(pop, gm1, resolution=512)
    oracle = [p for p in points if p.label == "oracle"]
    uniform = [p for p in points if p.label == "uniform"]
    matched = sm.matched_tdr(uniform, np.array([p.fdr for p in oracle]))
    for p, u in zip(oracle, matched):
        if not np.isnan(u):
            assert p.tdr >= u - 1e-9


def test_frontier_bad_only_below_good_only(gm1):
    pop = sm.discrete_population([0.2, 0.8], [0.5, 0.5])
    points = sm.frontier(pop, gm1, resolution=512)
    good = [p for p in points if p.label == "good_only"]
    bad = [p for p in points if p.label == "bad_only"]
    matched = sm.matched_tdr(bad, np.array([p.fdr for p in good]))
    for p, b in zip(good, matched):
        if not np.isnan(b):
            assert p.tdr >= b - 1e-9


def test_frontier_rates_within_unit_interval(gm1):
    pop = sm.discrete_population([0.2, 0.8], [0.5, 0.5])
    for p in sm.frontier(pop, gm1, resolution=64):
        assert 0.0 <= p.fdr <= 1.0
        assert 0.0 <= p.tdr <= 1.0


# ---------------------------------------------------------------------------
# screening cost / information rent / principal return
# ---------------------------------------------------------------------------


def test_screening_cost_of_singleton_base_menu(gm1, fdr25):
    q_bar = 0.8
    tau_bar = sm.fdr_threshold(q_bar, fdr25, gm1)
    base = Contract(tau_bar, 100.0, sm.zero_utility_cost(q_bar, tau_bar, 100.0, gm1))
    menu = Menu(support=(q_bar,), contracts=(base,))
    pop = sm.uniform_population(0.0, q_bar, n=129)
    assert sm.screening_cost(menu, base, pop, gm1) == pytest.approx(0.0, abs=1e-12)


def test_screening_cost_strictly_ordered_in_eta(gm1, fdr25):
    base, menus = figure_family(gm1, fdr25, (0.01, 0.1, 0.5, 1.0))
    pop = sm.uniform_population(0.0, 0.8, n=513)
    costs = [sm.screening_cost(menus[e], base, pop, gm1) for e in (0.01, 0.1, 0.5, 1.0)]
    assert costs[0] < costs[1] < costs[2] < costs[3]
    assert costs[0] > 0


def test_screening_cost_is_negated_return_integral(gm1, fdr25):
    base, menus = figure_family(gm1, fdr25, (0.5,))
    menu = menus[0.5]
    pop = sm.uniform_population(0.0, 0.8, n=257)
    cost = sm.screening_cost(menu, base, pop, gm1)
    integral = pop.average(sm.principal_return(menu, base, pop.points(), gm1))
    assert cost == pytest.approx(-integral, abs=1e-10)


def test_information_rent_zero_utility_menu(gm1, fdr25):
    q_bar = 0.8
    tau_bar = sm.fdr_threshold(q_bar, fdr25, gm1)
    base = Contract(tau_bar, 100.0, sm.zero_utility_cost(q_bar, tau_bar, 100.0, gm1))
    menu = Menu(support=(q_bar,), contracts=(base,))
    pop = sm.discrete_population([q_bar])
    assert sm.information_rent(menu, pop, gm1) == pytest.approx(0.0, abs=1e-12)


def test_information_rent_point_mass_at_worst_type(gm1, fixed_menu):
    pop = sm.discrete_population([0.86])
    assert sm.information_rent(fixed_menu, pop, gm1) == pytest.approx(0.0, abs=1e-8)


def test_opted_out_types_add_no_rent(gm1, fixed_menu):
    """Grid types above the menu range opt out and count as 0, not at their
    negative best utility (which would give 8.4312)."""
    pop = sm.uniform_population(0.0, 1.0, n=1025)
    _, best = best_response(pop.points(), *fixed_menu.lines(gm1))
    assert np.sum(best < -PARTICIPATION_SLACK) == 144
    assert sm.information_rent(fixed_menu, pop, gm1) == pytest.approx(8.4478, abs=5e-5)


def test_screening_cost_counts_opted_out_base_as_zero(gm1, fixed_menu):
    """A base contract no type accepts concedes nothing, so the screening
    cost is the menu's whole rent."""
    pop = sm.uniform_population(0.43, 0.86, n=129)
    worst = fixed_menu.contracts[-1]
    refused = Contract(worst.tau, worst.reward, worst.cost + 1000.0)
    rent = sm.information_rent(fixed_menu, pop, gm1)
    assert rent > 0
    assert sm.screening_cost(fixed_menu, refused, pop, gm1) == rent


def test_information_rent_grows_with_effect_size(fdr25):
    """More powerful tests concede more rent on a matched support."""
    pop = sm.uniform_population(0.655, 0.795, n=257)
    rents = []
    for theta in (0.5, 1.0, 2.0):
        model = sm.gaussian_model(theta)
        menu = sm.build_fixed_reward(100.0, 0.65, 0.8, fdr25, model, n=65)
        rents.append(sm.information_rent(menu, pop, model))
    assert rents[0] < rents[1] < rents[2]


def test_principal_return_zero_at_worst_type(gm1, fdr25):
    base, menus = figure_family(gm1, fdr25, (0.5,))
    # boundary slack is eps(0.8) > 0, so compare against the menu's own top entry
    menu = menus[0.5]
    assert sm.principal_return(menu, menu.contracts[-1], 0.8, gm1) == pytest.approx(0.0, abs=1e-9)


def test_principal_return_family_nonpositive_and_vanishing(gm1, fdr25):
    etas = (0.01, 0.1, 0.5, 1.0)
    base, menus = figure_family(gm1, fdr25, etas)
    qs = np.linspace(0.0, 0.8, 33)
    returns = {e: [sm.principal_return(menus[e], base, float(q), gm1) for q in qs] for e in etas}
    for e in etas:
        assert all(r <= 1e-12 for r in returns[e])
    for small, big in zip(etas, etas[1:]):
        assert all(a >= b - 1e-12 for a, b in zip(returns[small], returns[big]))
    assert max(abs(r) for r in returns[0.01]) < 0.1 * max(abs(r) for r in returns[1.0])


@pytest.mark.parametrize("reward", [100.0, 1e8])
def test_principal_return_matches_bracket_form(gm1, fdr25, reward):
    """The utility gap equals the difference of cash brackets up to rounding
    relative to the reward."""
    menu = sm.build_fixed_reward(reward, 0.43, 0.86, fdr25, gm1, n=33)
    base = menu.contracts[-1]
    qs = np.linspace(0.3, 0.86, 29)
    expected = [bracket_principal_return(menu, base, q, gm1) for q in qs.tolist()]
    np.testing.assert_allclose(
        sm.principal_return(menu, base, qs, gm1), expected, rtol=0.0, atol=1e-14 * reward
    )


def test_principal_return_requires_participation(gm1, five_type_menu):
    with pytest.raises(ValueError):
        sm.principal_return(five_type_menu, five_type_menu.contracts[-1], 0.99, gm1)


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------


def test_simulation_deterministic(gm1, five_type_menu, five_types):
    pop = sm.discrete_population(five_types)
    a = sm.simulate_population(five_type_menu, pop, gm1, n=20_000, seed=77)
    b = sm.simulate_population(five_type_menu, pop, gm1, n=20_000, seed=77)
    assert a == b
    c = sm.simulate_population(five_type_menu, pop, gm1, n=20_000, seed=78)
    assert a != c


@pytest.mark.parametrize("draws", ["discrete", "stratified", "uniform_grid"])
def test_simulation_worker_count_invariant(gm1, five_type_menu, five_types, draws):
    """n = 150,000 is two full chunks and a partial one."""
    if draws == "uniform_grid":
        pop = sm.uniform_population(0.2, 0.8, 64)
    else:
        pop = sm.discrete_population(five_types)
    kwargs = dict(n=150_000, seed=5, stratified=draws == "stratified")
    a = sm.simulate_population(five_type_menu, pop, gm1, jobs=1, **kwargs)
    for jobs in (2, 3):
        assert sm.simulate_population(five_type_menu, pop, gm1, jobs=jobs, **kwargs) == a


def _five_type_counts(*rows):
    """Per-type counts keyed by type, one (agents, participating, null,
    approved_null, approved_nonnull) row per type of the five-type menu."""
    keys = ("agents", "participating", "null", "approved_null", "approved_nonnull")
    return {q: dict(zip(keys, row)) for q, row in zip((0.3, 0.4, 0.5, 0.6, 0.7), rows)}


@pytest.mark.parametrize(
    "draws, totals, cash, per_type",
    [
        ("discrete", (70_000, 28_921, 7_285), "-0x1.121f65142044bp+19", _five_type_counts(
            (14102, 14102, 4219, 3093, 9337), (13692, 13692, 5508, 2049, 6144),
            (14213, 14213, 7106, 1319, 3761), (14091, 14091, 8510, 612, 1731),
            (13902, 13902, 9705, 212, 663))),
        ("stratified", (70_000, 29_061, 7_144), "-0x1.241dccc636b68p+19", _five_type_counts(
            (14001, 14001, 4181, 3072, 9346), (14000, 14000, 5504, 2088, 6394),
            (14000, 14000, 6938, 1177, 3736), (14000, 14000, 8444, 586, 1798),
            (13999, 13999, 9810, 221, 643))),
        ("uniform_grid", (70_000, 11_629, 2_944), "-0x1.914e46613e484p+17", None),
    ],
)
def test_simulation_output_is_pinned(
    gm1, five_type_menu, fixed_menu, five_types, draws, totals, cash, per_type
):
    """Every count and the cash's bits at one seed, over a full chunk and a
    partial one: a refactor of the simulator must reproduce them exactly."""
    if draws == "uniform_grid":
        menu, pop = fixed_menu, sm.uniform_population(0.43, 0.86, 64)
    else:
        menu, pop = five_type_menu, sm.discrete_population(five_types)
    report = sm.simulate_population(
        menu, pop, gm1, n=70_000, seed=5, stratified=draws == "stratified"
    )
    assert (report.participating, report.approved, report.approved_null) == totals
    assert report.principal_cash.hex() == cash
    assert report.per_type == per_type


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2_000),
    jobs=st.sampled_from([2, 3]),
    draws=st.sampled_from(["discrete", "stratified", "uniform_grid"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulation_chunks_add_up(gm1, five_type_menu, five_types, n, jobs, draws, seed):
    """With 97-agent chunks, boundaries fall anywhere: the report is the same
    for any worker count, the per-type columns add up to the totals, and the
    totals nest (approved <= participating <= n)."""
    if draws == "uniform_grid":
        pop = sm.uniform_population(0.2, 0.8, 64)  # types above 0.7 opt out
    else:
        pop = sm.discrete_population(five_types, [0.1, 0.3, 0.2, 0.15, 0.25])
    kwargs = dict(n=n, seed=seed, stratified=draws == "stratified")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_CHUNK", 97)
        report = sm.simulate_population(five_type_menu, pop, gm1, jobs=1, **kwargs)
        assert sm.simulate_population(five_type_menu, pop, gm1, jobs=jobs, **kwargs) == report
    approved_nonnull = round(report.empirical_tdr * n)
    assert report.approved_null + approved_nonnull == report.approved
    assert 0 <= report.approved <= report.participating <= n
    if draws == "uniform_grid":
        assert report.per_type is None
        return
    columns = report.per_type.values()
    tally = {key: sum(c[key] for c in columns) for key in next(iter(columns))}
    assert tally["agents"] == n
    assert tally["participating"] == report.participating
    assert tally["approved_null"] == report.approved_null
    assert tally["approved_nonnull"] == approved_nonnull
    assert all(c["null"] <= c["agents"] and c["participating"] <= c["agents"] for c in columns)


def test_simulation_matches_oracle(gm1, fdr25, five_type_menu, five_types):
    pop = sm.discrete_population(five_types)
    report = sm.simulate_population(five_type_menu, pop, gm1, n=100_000, seed=20240801)
    assert report.empirical_fdr <= 0.25 + 3 * report.fdr_se
    oracle = sm.oracle_tdr(pop, fdr25, gm1)
    assert abs(report.empirical_tdr - oracle) <= 3 * report.tdr_se


def test_simulation_pessimists_opt_out(gm1, five_type_menu):
    """A population entirely of type 1.0 walks away from any menu whose
    utilities slope down to zero at a worst type below 1."""
    pop = sm.discrete_population([0.5, 1.0], [0.0, 1.0])
    report = sm.simulate_population(five_type_menu, pop, gm1, n=5_000, seed=3)
    assert report.participating == 0
    assert report.approved == 0
    assert report.principal_cash == 0.0


def test_simulation_per_type_approval_rates(gm1, five_type_menu, five_types):
    """Null approvals track tau and non-null approvals track beta1, per type."""
    pop = sm.discrete_population(five_types)
    report = sm.simulate_population(five_type_menu, pop, gm1, n=200_000, seed=11)
    for q, counts in report.per_type.items():
        contract = five_type_menu.contract_for(q)
        n_null = counts["null"]
        n_alt = counts["agents"] - n_null
        rate_null = counts["approved_null"] / n_null
        sigma = np.sqrt(contract.tau * (1 - contract.tau) / n_null)
        assert abs(rate_null - contract.tau) <= 3.5 * sigma
        beta1 = sm.power(gm1, contract.tau)
        rate_alt = counts["approved_nonnull"] / n_alt
        sigma_alt = np.sqrt(beta1 * (1 - beta1) / n_alt)
        assert abs(rate_alt - beta1) <= 3.5 * sigma_alt


def test_simulation_stratified_counts(gm1, five_type_menu, five_types):
    pop = sm.discrete_population(five_types)
    report = sm.simulate_population(five_type_menu, pop, gm1, n=50_000, seed=1, stratified=True)
    assert report.stratified
    assert all(counts["agents"] == 10_000 for counts in report.per_type.values())


def test_simulation_uniform_population(gm1, fixed_menu):
    pop = sm.uniform_population(0.43, 0.86, n=64)
    report = sm.simulate_population(fixed_menu, pop, gm1, n=30_000, seed=9)
    assert report.per_type is None
    assert 0 < report.approved <= report.participating
    assert report.empirical_fdr <= 0.25 + 4 * report.fdr_se


def test_simulation_principal_cash_consistency(gm1, five_type_menu, five_types):
    """Cash equals collected costs minus paid rewards, recomputed per type."""
    pop = sm.discrete_population(five_types)
    report = sm.simulate_population(five_type_menu, pop, gm1, n=50_000, seed=21)
    expected = 0.0
    for q, counts in report.per_type.items():
        contract = five_type_menu.contract_for(q)
        approved = counts["approved_null"] + counts["approved_nonnull"]
        expected += counts["participating"] * contract.cost - approved * contract.reward
    assert report.principal_cash == pytest.approx(expected, rel=1e-12)


def test_rounding_below_zero_utility_still_participates(gm1, fdr25):
    """A worst type whose utility is a rounding error below 0 (-9.8e-15) passes
    verification, so selection, the principal's return and the simulator must
    all keep it in the menu."""
    types = (0.5, 0.8)
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in types]
    cost = sm.zero_utility_cost(0.8, taus[-1], 100.0, gm1) + 1e-14
    menu = sm.build_finite_menu(types, taus, (100.0, cost), 50.0, lam=0.5, model=gm1)
    assert -PARTICIPATION_SLACK < sm.utility(0.8, menu.contracts[-1], gm1) < 0.0
    assert sm.verify_separating(menu, model=gm1).passed
    assert sm.select(0.8, menu, gm1).report == 0.8
    assert sm.principal_return(menu, menu.contracts[-1], 0.8, gm1) == 0.0
    report = sm.simulate_population(menu, sm.discrete_population(types), gm1, n=10_000, seed=1)
    assert report.participating == report.n_agents
    assert report.per_type[0.8]["participating"] == report.per_type[0.8]["agents"] == 4909
