"""Tests for rates, frontier sweeps, cost metrics, and the simulator."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import statmenus as sm
from statmenus import evaluation
from statmenus.contracts import PARTICIPATION_SLACK, Contract, Menu, best_response

from oracles import bracket_principal_return, masked_simulate_chunk, matched_tdr


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
    matched = matched_tdr(uniform, np.array([p.fdr for p in oracle]))
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
    matched = matched_tdr(uniform, np.array([p.fdr for p in oracle]))
    for p, u in zip(oracle, matched):
        if not np.isnan(u):
            assert p.tdr >= u - 1e-9


def test_frontier_bad_only_below_good_only(gm1):
    pop = sm.discrete_population([0.2, 0.8], [0.5, 0.5])
    points = sm.frontier(pop, gm1, resolution=512)
    good = [p for p in points if p.label == "good_only"]
    bad = [p for p in points if p.label == "bad_only"]
    matched = matched_tdr(bad, np.array([p.fdr for p in good]))
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
def test_simulation_repeats_its_report(gm1, five_type_menu, five_types, draws):
    """The same arguments give the same report, for every way of drawing types."""
    if draws == "uniform_grid":
        pop = sm.uniform_population(0.2, 0.8, 64)
    else:
        pop = sm.discrete_population(five_types)
    kwargs = dict(n=150_000, seed=5, stratified=draws == "stratified")
    a = sm.simulate_population(five_type_menu, pop, gm1, **kwargs)
    assert sm.simulate_population(five_type_menu, pop, gm1, **kwargs) == a


def _five_type_counts(*rows):
    """Per-type counts keyed by type, one (agents, participating, null,
    approved_null, approved_nonnull) row per type of the five-type menu."""
    keys = ("agents", "participating", "null", "approved_null", "approved_nonnull")
    return {q: dict(zip(keys, row)) for q, row in zip((0.3, 0.4, 0.5, 0.6, 0.7), rows)}


@pytest.mark.parametrize(
    "draws, totals, cash, per_type",
    [
        ("discrete", (70_000, 29_038, 7_243), "-0x1.19fa6d5ce7032p+19", _five_type_counts(
            (14091, 14091, 4301, 3153, 9282), (13908, 13908, 5514, 2082, 6331),
            (14104, 14104, 7056, 1201, 3753), (13778, 13778, 8163, 600, 1761),
            (14119, 14119, 9828, 207, 668))),
        ("stratified", (70_000, 29_237, 7_424), "-0x1.2d6b3ad86560ep+19", _five_type_counts(
            (14000, 14000, 4247, 3158, 9254), (14000, 14000, 5561, 2099, 6410),
            (14000, 14000, 7064, 1299, 3638), (14000, 14000, 8516, 630, 1825),
            (14000, 14000, 9726, 238, 686))),
        ("uniform_grid", (70_000, 11_611, 2_897), "-0x1.8c2be66a663e9p+17", None),
    ],
    ids=["discrete", "stratified", "uniform_grid"],  # so that a re-pin keeps the names
)
def test_simulation_output_is_pinned(
    gm1, five_type_menu, fixed_menu, five_types, draws, totals, cash, per_type
):
    """Every count and the cash's bits at one seed: a refactor of the
    simulator must reproduce them exactly."""
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


def test_an_empty_opt_out_slot_draws_no_agent(gm1, fixed_menu):
    """No type of [0.43, 0.86] opts out of the menu, so its opt-out slot has
    no mass; numpy's multinomial still gives its last slot the agents that
    rounding leaves over (4 of 2^53 at this seed), which go to the last slot
    with mass instead."""
    population = sm.uniform_population(0.43, 0.86)
    report = sm.simulate_population(fixed_menu, population, gm1, n=1 << 53, seed=1)
    assert report.participating == 1 << 53


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2_000),
    draws=st.sampled_from(["discrete", "stratified", "uniform_grid"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulation_chunks_add_up(gm1, five_type_menu, five_types, n, draws, seed):
    """For any number of agents the per-type columns add up to the totals,
    and the totals nest (approved <= participating <= n)."""
    if draws == "uniform_grid":
        pop = sm.uniform_population(0.2, 0.8, 64)  # types above about 0.797 opt out
    else:
        pop = sm.discrete_population(five_types, [0.1, 0.3, 0.2, 0.15, 0.25])
    kwargs = dict(n=n, seed=seed, stratified=draws == "stratified")
    report = sm.simulate_population(five_type_menu, pop, gm1, **kwargs)
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


GM1 = sm.gaussian_model(1.0)
# The Gaussian power curve tabulated on 258 evenly spaced knots.
TABULATED = sm.tabulated_model(
    np.linspace(0.0, 1.0, 258), [sm.power(GM1, t) for t in np.linspace(0.0, 1.0, 258)]
)
# Five types, the last of which (above about 0.797) opts out of the five-type menu.
WITH_OPT_OUT = sm.discrete_population([0.3, 0.4, 0.5, 0.6, 0.9], [0.1, 0.3, 0.2, 0.15, 0.25])
# (draws, population, model) of the runs set against the per-agent oracle;
# types above about 0.797 opt out of the five-type menu.
ORACLE_CASES = [
    ("discrete", WITH_OPT_OUT, GM1),
    ("discrete", sm.discrete_population(np.linspace(0.3, 0.75, 10), [0.1] * 10), TABULATED),
    ("stratified", WITH_OPT_OUT, TABULATED),
    ("uniform_grid", sm.uniform_population(0.2, 0.9, 64), GM1),
    ("uniform_grid", sm.uniform_population(0.2, 0.9, 64), TABULATED),
]


def _oracle_runs(menu, population, model, n, seeds, stratified):
    """Count matrices and cash of the per-agent oracle, one run per seed."""
    selection = menu.lines(model)
    if population.kind == "discrete":
        selection = best_response(np.array(population.types), *selection)
    runs = [
        masked_simulate_chunk(
            menu, selection, population, model, n, np.random.SeedSequence(seed), stratified
        )
        for seed in seeds
    ]
    return np.array([counts for counts, _ in runs]), np.array([cash for _, cash in runs])


def _agree(drawn, reference, limit=5.0):
    """Whether each entry's mean over two stacks of independent runs agrees
    within ``limit`` standard errors of their difference; an entry that
    varies in neither stack must be equal."""
    gap = np.abs(drawn.mean(axis=0) - reference.mean(axis=0))
    se = np.sqrt(drawn.var(axis=0) / len(drawn) + reference.var(axis=0) / len(reference))
    return np.all(gap <= limit * se)


def test_simulate_chunk_matches_masked_oracle(five_type_menu):
    """Over 400 seeds of 2,000 agents, every slot's mean tallies (agents,
    participating, null, approved null, approved non-null) on the count
    path are within 5 SE of the per-agent oracle's, which draws each
    agent's type, p-value and approval: for i.i.d. and stratified discrete
    populations (with an opted-out type, and weights that sum to
    0.9999999999999999) and a uniform population with an opt-out tail, on
    the Gaussian and the tabulated test. Stratified agent counts are equal."""
    n, seeds = 2_000, range(400)
    for draws, population, model in ORACLE_CASES:
        stratified = draws == "stratified"
        ours = np.array([
            evaluation._tallies(five_type_menu, population, model, n, seed, stratified)[1]
            for seed in seeds
        ])
        oracle, _ = _oracle_runs(five_type_menu, population, model, n, seeds, stratified)
        assert ours.shape == oracle.shape
        assert _agree(ours, oracle), (draws, population, model)
        if stratified:
            assert np.array_equal(ours[:, 0], oracle[:, 0])


def test_reused_workspace_leaks_no_state(five_type_menu):
    """No state carries over from one run to another: runs of 65,536, 97, 1
    and 65,536 agents over i.i.d., stratified and ``uniform_grid`` draws
    give the same reports made in turn, in reverse and on two threads at
    once."""
    runs = []
    for draws in ("discrete", "stratified", "uniform_grid"):
        population = WITH_OPT_OUT
        if draws == "uniform_grid":
            population = sm.uniform_population(0.2, 0.8, 64)
        for seed, size in enumerate((1 << 16, 97, 1, 1 << 16)):
            runs.append((population, dict(n=size, seed=seed, stratified=draws == "stratified")))

    def run(case):
        population, kwargs = case
        return sm.simulate_population(five_type_menu, population, GM1, **kwargs)

    in_turn = [run(case) for case in runs]
    assert [run(case) for case in runs[::-1]][::-1] == in_turn
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave within runs
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(run, runs)) == in_turn
    finally:
        sys.setswitchinterval(switch)


class RecordingDraws:
    """A run's generator that records each draw's name, arguments and
    result."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        def draw(*args):
            out = getattr(self.rng, name)(*args)
            self.calls.append((name, *args, out))
            return out

        return draw


def test_count_draw_takes_each_slots_law(gm1, five_type_menu, monkeypatch):
    """A run makes one multinomial draw of its agents over the slots' masses,
    then three binomial draws over the slots: the null among the agents at
    the slot's mean type, approvals among the null at its contract's
    threshold and among the rest at the test's power there. An opted-out
    slot and a contract at threshold 0 approve no one; threshold 1 approves
    every agent. The report holds the drawn counts."""
    sloped = Contract(0.0225, 100.0, 10.0)  # above a flat line at 1 below about 0.35
    cases = [
        (five_type_menu, WITH_OPT_OUT),
        (Menu((0.2, 0.6), (sloped, Contract(1.0, 100.0, 99.0))), None),
        (Menu((0.2, 0.6), (sloped, Contract(0.0, 100.0, -1.0))), None),
    ]
    seen = set()
    for menu, population in cases:
        population = population or sm.discrete_population([0.1, 0.5], [0.4, 0.6])
        types, weights = np.array(population.types), np.array(population.weights)
        choice, best = best_response(types, *menu.lines(gm1))
        contract = np.where(best >= -PARTICIPATION_SLACK, choice, len(menu.taus))
        taus = np.append(menu.taus, 0.0)[contract]
        draws = RecordingDraws(3)
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", lambda seed: draws)
            report = sm.simulate_population(menu, population, gm1, n=5_000, seed=3)
        multinomial, null, approved_null, approved_alt = draws.calls
        assert multinomial[:2] == ("multinomial", 5_000)
        assert multinomial[2].tolist() == (weights / weights.sum()).tolist()
        agents = multinomial[3]
        assert null[0] == "binomial" and null[1] is agents and null[2].tolist() == types.tolist()
        assert approved_null[0] == "binomial" and approved_null[1] is null[3]
        assert approved_null[2].tolist() == taus.tolist()
        assert approved_alt[0] == "binomial"
        assert approved_alt[1].tolist() == (agents - null[3]).tolist()
        assert approved_alt[2].tolist() == sm.power(gm1, taus).tolist()
        out = contract == len(menu.taus)
        participating = np.where(out, 0, agents)
        rows = np.array([agents, participating, null[3], approved_null[3], approved_alt[3]])
        assert [list(c.values()) for c in report.per_type.values()] == rows.T.tolist()
        for edge, kind in ((out | (taus == 0.0), "none"), (~out & (taus == 1.0), "all")):
            if edge.any():
                seen.add(kind)
                assert approved_null[2][edge].tolist() == approved_alt[2][edge].tolist()
                assert set(approved_alt[2][edge].tolist()) == {0.0 if kind == "none" else 1.0}
        if out.any():
            seen.add("opt_out")
    assert seen == {"none", "all", "opt_out"}


@pytest.mark.parametrize("k", [1, 2, 5, 10, 64, 65, 320])
def test_type_draw_matches_generator_choice(five_type_menu, gm1, k):
    """A discrete run's per-type agent counts are ``Generator.multinomial``'s
    draw of ``n`` over the normalised weights, the run generator's first
    draw, which has the law of ``Generator.choice``'s counts: for 1 to 320
    types, with zero weights (also first and last) and weights that sum to
    0.9999999999999999. A type of zero weight gets no agent."""
    vectors = np.random.default_rng(k).random((10, k))
    vectors[vectors < 0.3] = 0.0  # zero weights, also first and last
    vectors[:, 0] += vectors.sum(axis=1) == 0.0
    weights = [np.full(k, 1.0 / k)] + [v / v.sum() for v in vectors]
    if k == 10:
        weights.append(np.full(10, 0.1))  # its sum is 0.9999999999999999
    for seed, w in enumerate(weights):
        population = sm.discrete_population(np.linspace(0.05, 0.95, k), w)
        report = sm.simulate_population(five_type_menu, population, gm1, n=3_000, seed=seed)
        agents = [column["agents"] for column in report.per_type.values()]
        expected = np.random.default_rng(seed).multinomial(3_000, w / w.sum())
        assert agents == expected.tolist()
        assert all(a == 0 for a, x in zip(agents, w) if x == 0.0)


@pytest.mark.parametrize("lo, hi", [(0.43, 0.86), (0.2, 0.8), (0.0, 1.0)])
def test_uniform_type_draw_matches_generator_uniform(fixed_menu, gm1, lo, hi):
    """A uniform population's slot masses and mean types are those of
    ``Generator.uniform`` types through ``best_response``: 400,000 drawn
    types' share and mean type per slot (each contract, then opting out
    above 0.86) are within 5 SE of the slot table's, and an empty slot
    gets no drawn type."""
    contract, mass, mean = evaluation._slot_table(fixed_menu, sm.uniform_population(lo, hi), gm1)
    assert contract.tolist() == list(range(len(fixed_menu.taus) + 1))
    q = np.random.default_rng(4).uniform(lo, hi, 400_000)
    choice, best = best_response(q, *fixed_menu.lines(gm1))
    slot = np.where(best >= -PARTICIPATION_SLACK, choice, len(fixed_menu.taus))
    count = np.bincount(slot, minlength=mass.size)
    assert np.all(np.abs(count / q.size - mass) <= 5.0 * np.sqrt(mass * (1.0 - mass) / q.size))
    drawn = count > 1
    sums = [np.bincount(slot, weights=q**power, minlength=mass.size)[drawn] for power in (1, 2)]
    seen_mean = sums[0] / count[drawn]
    se = np.sqrt(np.maximum(sums[1] / count[drawn] - seen_mean**2, 0.0) / count[drawn])
    assert np.all(np.abs(seen_mean - mean[drawn]) <= 5.0 * se + 1e-12)
    assert (mass[-1] > 0.0) == (hi > 0.86)


def test_simulation_threads_are_bounded(gm1, five_type_menu, five_types, monkeypatch):
    """``simulate_population`` starts no thread."""
    pop = sm.discrete_population(five_types)
    serial = sm.simulate_population(five_type_menu, pop, gm1, n=1_000, seed=4)

    def refuse(self):
        raise AssertionError("a thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert sm.simulate_population(five_type_menu, pop, gm1, n=1_000, seed=4) == serial


@pytest.mark.parametrize("seed", [1, 2])
def test_simulation_memory_does_not_grow_with_the_chunks(fine_fixed_menu, gm1, seed):
    """A run's memory does not grow with its agents: on the 1,025-contract
    menu, 2^40 agents trace no more than 6,400 do, whatever the seed."""
    population = sm.uniform_population(0.43, 0.86)
    peaks = []
    for n in (6_400, 1 << 40):
        tracemalloc.start()
        try:
            sm.simulate_population(fine_fixed_menu, population, gm1, n, seed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**16


@pytest.mark.parametrize("n", [0, -5, evaluation.MAX_AGENTS + 1, 10**23])
def test_simulation_agent_count_is_bounded(gm1, five_type_menu, five_types, n):
    """A run needs 1 to ``MAX_AGENTS`` (2^53) agents; any other count raises
    at once."""
    pop = sm.discrete_population(five_types)
    with pytest.raises(ValueError, match="agents"):
        sm.simulate_population(five_type_menu, pop, gm1, n=n, seed=1)
    report = sm.simulate_population(five_type_menu, pop, gm1, n=evaluation.MAX_AGENTS, seed=1)
    assert sum(c["agents"] for c in report.per_type.values()) == evaluation.MAX_AGENTS


def test_simulation_takes_integer_agents_and_seed(gm1, five_type_menu, five_types):
    """A bool, float or None agent count or seed, or a negative seed, raises
    at once; numpy integers are taken as the ints they hold."""
    pop = sm.discrete_population(five_types)
    for n, seed in ((100.5, 1), (True, 1), (100.0, 1), (100, None), (100, 1.0), (100, False), (100, -1)):
        with pytest.raises(ValueError, match="integer|nonnegative"):
            sm.simulate_population(five_type_menu, pop, gm1, n=n, seed=seed)
    report = sm.simulate_population(five_type_menu, pop, gm1, n=np.int64(100), seed=np.uint32(3))
    assert type(report.n_agents) is int and type(report.seed) is int
    assert report == sm.simulate_population(five_type_menu, pop, gm1, n=100, seed=3)


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
    """Cash equals collected costs minus paid rewards, recomputed per type
    and summed exactly."""
    pop = sm.discrete_population(five_types)
    report = sm.simulate_population(five_type_menu, pop, gm1, n=50_000, seed=21)
    terms = []
    for q, counts in report.per_type.items():
        contract = five_type_menu.contract_for(q)
        approved = counts["approved_null"] + counts["approved_nonnull"]
        terms += [counts["participating"] * contract.cost, -approved * contract.reward]
    assert report.principal_cash == math.fsum(terms)


def _expected_cash(menu, population, model):
    """The principal's cash per agent: each type's contract cost less its
    reward times its approval probability, 0 for a type that opts out,
    averaged over the types (a uniform population on 2^16 midpoints)."""
    if population.kind == "discrete":
        q, w = np.array(population.types), np.array(population.weights)
    else:
        grid = 1 << 16
        q = population.lo + (population.hi - population.lo) * (np.arange(grid) + 0.5) / grid
        w = np.full(grid, 1.0 / grid)
    choice, best = best_response(q, *menu.lines(model))
    tau, reward = menu.taus[choice], menu.rewards[choice]
    cash = menu.costs[choice] - reward * (q * tau + (1.0 - q) * sm.power(model, tau))
    return float(np.sum(w * np.where(best >= -PARTICIPATION_SLACK, cash, 0.0)))


@pytest.mark.parametrize("draws", ["discrete", "stratified", "uniform_grid"])
def test_simulation_cash_matches_per_agent_cash(gm1, five_type_menu, draws):
    """Over 400 seeds of 2,000 agents, a run's mean cash, priced from its
    tallies, and the per-agent oracle's mean cash are each within 4 SE of
    the expected cash, with opted-out types (above about 0.797) in the
    population."""
    if draws == "uniform_grid":
        population = sm.uniform_population(0.2, 0.9, 64)
    else:
        population = WITH_OPT_OUT
    n, seeds, stratified = 2_000, range(400), draws == "stratified"
    reports = [
        sm.simulate_population(five_type_menu, population, gm1, n, seed, stratified)
        for seed in seeds
    ]
    assert all(report.participating < n for report in reports)
    ours = np.array([report.principal_cash for report in reports])
    _, oracle = _oracle_runs(five_type_menu, population, gm1, n, seeds, stratified)
    expected = n * _expected_cash(five_type_menu, population, gm1)
    for cash in (ours, oracle):
        assert abs(cash.mean() - expected) <= 4.0 * cash.std() / math.sqrt(len(cash))


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
    index, value = best_response(np.array([0.8]), *menu.lines(gm1))
    assert index[0] == 1 and value[0] >= -PARTICIPATION_SLACK
    assert sm.principal_return(menu, menu.contracts[-1], 0.8, gm1) == 0.0
    report = sm.simulate_population(menu, sm.discrete_population(types), gm1, n=10_000, seed=1)
    assert report.participating == report.n_agents
    assert report.per_type[0.8]["participating"] == report.per_type[0.8]["agents"] == 5029
