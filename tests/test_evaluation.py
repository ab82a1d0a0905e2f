"""Tests for rates, frontier sweeps, cost metrics, and the simulator."""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

import statmenus as sm
from statmenus import evaluation, testmodel
from statmenus.contracts import PARTICIPATION_SLACK, Contract, Menu, best_response

from oracles import bracket_principal_return, masked_simulate_chunk


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


GM1 = sm.gaussian_model(1.0)
# The Gaussian power curve tabulated on 258 evenly spaced knots.
TABULATED = sm.tabulated_model(
    np.linspace(0.0, 1.0, 258), [sm.power(GM1, t) for t in np.linspace(0.0, 1.0, 258)]
)


@st.composite
def chunk_cases(draw):
    """How a chunk's types are drawn, its population, model, size and seed.
    Discrete populations have up to 80 types, some of them opting out of the
    five-type menu (above 0.7), and weights with zeros."""
    draws = draw(st.sampled_from(["discrete", "stratified", "uniform_grid"]))
    if draws == "uniform_grid":
        population = sm.uniform_population(0.2, 0.8, 64)  # types above 0.7 opt out
    else:
        k = draw(st.integers(1, 80))
        types = draw(st.lists(st.floats(0.05, 0.95), min_size=k, max_size=k, unique=True))
        raw = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=k, max_size=k))
        raw[draw(st.integers(0, k - 1))] += 1.0  # some weight is positive
        population = sm.discrete_population(sorted(types), np.array(raw) / sum(raw))
    model = draw(st.sampled_from([GM1, TABULATED]))
    return draws, population, model, draw(st.integers(1, 2_000)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=chunk_cases())
@example(case=("discrete", sm.discrete_population(np.linspace(0.3, 0.75, 10), [0.1] * 10), GM1, 2_000, 1))
@example(case=("stratified", sm.discrete_population([0.3, 0.72], [0.0, 1.0]), TABULATED, 1, 2))
def test_simulate_chunk_matches_masked_oracle(five_type_menu, case):
    """The tally-code chunk gives the masked chunk's count matrix and cash
    bits, for any weights (``[0.1] * 10`` sums to 0.9999999999999999), chunk
    size, draw, model and opted-out types."""
    draws, population, model, size, seed = case
    selection = five_type_menu.lines(model)
    if population.kind == "discrete":
        selection = best_response(np.array(population.types), *selection)
    child = np.random.SeedSequence(seed)
    args = (five_type_menu, selection, population, model, size, child, draws == "stratified")
    counts, cash = evaluation._simulate_chunk(*args)
    expected_counts, expected_cash = masked_simulate_chunk(*args)
    assert counts.dtype == expected_counts.dtype
    assert counts.tolist() == expected_counts.tolist()
    assert cash.hex() == expected_cash.hex()


def test_reused_workspace_leaks_no_state(five_type_menu):
    """Chunks of 65,536, 97, 1 and 65,536 agents run one after another in
    one workspace that starts full of garbage (NaN, -1, True) give the
    counts and cash bits of chunks in fresh workspaces and of the masked
    chunk, for i.i.d., stratified and ``uniform_grid`` draws. A report whose
    four chunks run on two threads, each reusing its workspace, equals the
    report whose chunks run in turn."""
    work = evaluation._workspace(1 << 16)
    for buffer, garbage in zip(work, (np.nan, -1, True)):
        buffer.fill(garbage)
    discrete = sm.discrete_population([0.3, 0.4, 0.5, 0.6, 0.72], [0.1, 0.3, 0.2, 0.15, 0.25])
    for draws in ("discrete", "stratified", "uniform_grid"):
        population = sm.uniform_population(0.2, 0.8, 64) if draws == "uniform_grid" else discrete
        selection = five_type_menu.lines(GM1)
        if population.kind == "discrete":
            selection = best_response(np.array(population.types), *selection)
        for seed, size in enumerate((1 << 16, 97, 1, 1 << 16)):
            args = (five_type_menu, selection, population, GM1, size, np.random.SeedSequence(seed))
            args += (draws == "stratified",)
            expected_counts, expected_cash = masked_simulate_chunk(*args)
            for chunk_work in (work, None):
                counts, cash = evaluation._simulate_chunk(*args, chunk_work)
                assert counts.tolist() == expected_counts.tolist()
                assert cash.hex() == expected_cash.hex()
        kwargs = dict(n=3 * (1 << 16) + 11, seed=8, stratified=draws == "stratified")
        serial = sm.simulate_population(five_type_menu, population, GM1, jobs=1, **kwargs)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave within chunks
        try:
            threaded = sm.simulate_population(five_type_menu, population, GM1, jobs=2, **kwargs)
        finally:
            sys.setswitchinterval(switch)
        assert threaded == serial


class PlantedDraws:
    """Stands in for a chunk's generator: hands out the given uniform rows,
    then the given normals, one row per draw, as ``Generator`` would
    (``size=`` or ``out=``)."""

    def __init__(self, uniforms, normals):
        self.rows = {"random": list(uniforms), "standard_normal": [normals]}

    def _draw(self, kind, size, out):
        row = self.rows[kind].pop(0)
        assert row.size == (size if out is None else out.size)
        if out is None:
            return row.copy()
        out[...] = row
        return out

    def random(self, size=None, out=None):
        return self._draw("random", size, out)

    def standard_normal(self, size=None, out=None):
        return self._draw("standard_normal", size, out)


def _ndtr_reversal():
    """Adjacent doubles ``w1 < w2`` near -2.5 with ``ndtr(w1) > ndtr(w2)``."""
    start = np.float64(-2.5).view(np.int64)
    ws = np.sort((start + np.arange(-20_000, 20_000)).view(np.float64))
    i = np.flatnonzero(np.diff(ndtr(ws)) < 0.0)[0]
    return ws[i], ws[i + 1]


def test_planted_ndtr_reversal_matches_masked_oracle(gm1, monkeypatch):
    """Alternative statistics planted at an ``ndtr`` reversal, at every
    contract's bracket ends and critical value and their float neighbours,
    and null p-values at every threshold and its neighbours, are approved as
    the masked chunk approves their p-values: the same counts and cash bits.
    One threshold is ``ndtr(w2)`` of a reversal ``w1 < w2``, so no single
    cutoff decides both; others cannot be certified (0, subnormals, near 1)
    or approve everything (1)."""
    w1, w2 = _ndtr_reversal()
    assert ndtr(w1) > ndtr(w2)
    taus = [ndtr(w2), 0.0225, 0.0, 5e-324, 1e-310, 1 - 2**-53, 0.99999, 1.0]
    k = len(taus)
    menu = Menu(
        tuple(np.linspace(0.1, 0.9, k)), tuple(Contract(t, 100.0, 1.0 + t) for t in taus)
    )
    lo, hi = testmodel._cutoff_brackets(gm1, menu.taus)
    assert lo[0] < w1 < w2 <= hi[0]
    assert ((-np.inf < lo) & (hi < np.inf)).tolist() == [True, True] + [False] * 6  # certified
    statistics = []
    for j, tau in enumerate(taus):
        c = ndtri(tau)
        d = 1e-6 * max(1.0, abs(c)) if np.isfinite(c) else 0.0
        points = [w1, w2] if j == 0 else []
        for base in (c, c - d, c + d, lo[j], hi[j], -40.0, 40.0):
            if np.isfinite(base):
                points += [np.nextafter(base, -np.inf), base, np.nextafter(base, np.inf)]
        statistics.append(points)
    per_slot = max(map(len, statistics))
    alts = np.array([points + points[:1] * (per_slot - len(points)) for points in statistics])
    nulls = np.array([[np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)] for t in taus])
    flags = np.hstack([np.ones_like(alts), np.zeros_like(nulls)])  # 1: not below q, alternative
    normals = -alts.ravel() - gm1.theta1
    assert (-(normals + gm1.theta1)).tolist() == alts.ravel().tolist()  # the planted statistics

    population = sm.discrete_population(menu.support)
    selection = (np.arange(k), np.zeros(k))  # type j takes contract j
    monkeypatch.setattr(np.random, "default_rng", lambda draws: draws)
    args = (menu, selection, population, gm1, flags.size)
    counts, cash = evaluation._simulate_chunk(
        *args, PlantedDraws([flags.ravel(), nulls.ravel()], normals), True
    )
    expected_counts, expected_cash = masked_simulate_chunk(
        *args, PlantedDraws([flags.ravel(), nulls.ravel()], normals), True
    )
    assert counts[0].tolist() == [flags.shape[1]] * k
    assert counts.tolist() == expected_counts.tolist()
    assert cash.hex() == expected_cash.hex()


@pytest.mark.parametrize(
    "k", [1, 2, 5, 10, evaluation._DRAW_CUT, evaluation._DRAW_CUT + 1, 5 * evaluation._DRAW_CUT]
)
def test_type_draw_matches_generator_choice(k):
    """The simulator's own inverse-CDF type draw gives ``Generator.choice``'s
    indices and leaves the generator in the same state, by comparisons up to
    ``_DRAW_CUT`` types and by bisection above, so the pinned simulation
    values do not rest on numpy's ``choice``."""
    vectors = np.random.default_rng(k).random((40, k))
    vectors[vectors < 0.3] = 0.0  # zero weights, also first and last
    vectors[:, 0] += vectors.sum(axis=1) == 0.0
    weights = [np.full(k, 1.0 / k)] + [v / v.sum() for v in vectors]
    if k == 10:
        weights.append(np.full(10, 0.1))  # its cumulative sum ends at 0.9999999999999999
    for seed, w in enumerate(weights):
        ours, numpy_s = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = evaluation._draw_types(w, 3_000, ours)
        assert drawn.tolist() == numpy_s.choice(k, size=3_000, p=w).tolist()
        assert ours.bit_generator.state == numpy_s.bit_generator.state
        # Draws on a CDF entry or just below it count that entry as numpy's
        # searchsorted does (a uniform draw is below 1).
        cdf = np.cumsum(w) / np.cumsum(w)[-1]
        ties = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0]])
        ties = ties[ties < 1.0]
        stub = SimpleNamespace(random=lambda size: ties)
        drawn = evaluation._draw_types(w, ties.size, stub)
        assert drawn.tolist() == cdf.searchsorted(ties, side="right").tolist()


def test_simulation_threads_are_bounded(gm1, five_type_menu, five_types, monkeypatch):
    """``simulate_population`` starts at most min(jobs, chunks, CPUs) workers
    however large ``jobs`` is. A stand-in pool records its size and runs the
    chunks inline, so no thread starts."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(evaluation, "_CHUNK", 97)  # 1,000 agents are 11 chunks
    pop = sm.discrete_population(five_types)
    serial = sm.simulate_population(five_type_menu, pop, gm1, n=1_000, seed=4)
    assert pools == []
    cpus = os.cpu_count() or 1
    for cpu_count, jobs in ((cpus, 10**6), (4, 10**6), (64, 10**6), (64, 3), (None, 10**6)):
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: cpu_count)
        report = sm.simulate_population(five_type_menu, pop, gm1, n=1_000, seed=4, jobs=jobs)
        assert report == serial
    # one CPU, or none reported, runs the chunks serially without a pool
    assert pools == ([min(11, cpus)] if cpus > 1 else []) + [4, 11, 3]


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
