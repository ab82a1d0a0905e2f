"""Acceptance suite: the package's exit criteria at their stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import functools
import time

import numpy as np
import pytest

import statmenus as sm
from statmenus.contracts import Contract

from oracles import matched_tdr


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:2d} FAIL: {description}")
                raise
            print(f"\nACCEPTANCE {number:2d} PASS: {description}")
            return result

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# randomized construction configs shared by criteria 4 and 5
# ---------------------------------------------------------------------------

TAU_FLOOR = 1e-3  # keep supports where thresholds are macroscopic


def build_all_menus(theta, alpha, rng):
    """All four constructions for one (theta1, alpha) draw.

    Support ranges are derived so every assigned threshold is interior and
    above TAU_FLOOR, keeping utility scales macroscopic.
    """
    model = sm.gaussian_model(theta)
    objective = sm.fdr_objective(alpha)
    q_ceiling = sm.type_for_threshold(TAU_FLOOR, objective, model)
    lo_t = alpha + 0.05
    hi_t = min(0.93, q_ceiling)
    assert hi_t - lo_t >= 0.02, f"degenerate type span for theta={theta}, alpha={alpha}"

    k = int(rng.integers(4, 7))
    types = [float(q) for q in np.linspace(lo_t, hi_t, k)]
    taus = [sm.fdr_threshold(q, objective, model) for q in types]
    menus = []

    # finite recursion
    reward_n = float(rng.uniform(50.0, 200.0))
    cost_n = 0.5 * sm.zero_utility_cost(types[-1], taus[-1], reward_n, model)
    menus.append(
        sm.build_finite_menu(
            types,
            taus,
            (reward_n, cost_n),
            float(rng.uniform(5.0, 60.0)),
            lam=float(rng.uniform(0.15, 0.85)),
            model=model,
        )
    )

    # general potential construction on a random discrete convex function
    steps = rng.uniform(0.3, 10.0, size=k)
    subgrads = list(-np.cumsum(steps)[::-1])
    values = [0.0] * k
    values[-1] = float(rng.uniform(0.0, 5.0))
    for i in range(k - 2, -1, -1):
        chord = 0.5 * (subgrads[i] + subgrads[i + 1])
        values[i] = values[i + 1] - chord * (types[i + 1] - types[i])
    potential = sm.tabulated_potential(types, values, subgrads)
    menus.append(sm.build_from_potential(potential, list(zip(types, taus)), model))

    # varying-reward family
    m = int(rng.integers(6, 13))
    support = np.linspace(lo_t, hi_t, m)
    thresholds = [(float(q), sm.fdr_threshold(float(q), objective, model)) for q in support]
    base_reward = float(rng.uniform(50.0, 200.0))
    tau_bar = thresholds[-1][1]
    base = Contract(tau_bar, base_reward, sm.zero_utility_cost(hi_t, tau_bar, base_reward, model))
    eta = float(rng.uniform(0.05, 1.0))
    menus.append(sm.build_varying_reward(base, sm.quadratic_schedule(eta), thresholds, model))

    # constant-reward construction inside the elicitable range
    bound, _ = sm.elicitable_range(objective, model)
    lo_f = bound + 0.02
    hi_f = min(0.97, q_ceiling)
    assert hi_f - lo_f >= 0.02, f"degenerate elicitable span for theta={theta}, alpha={alpha}"
    n = int(rng.integers(9, 18))
    menus.append(
        sm.build_fixed_reward(float(rng.uniform(50.0, 200.0)), lo_f, hi_f, objective, model, n=n)
    )
    return model, menus


def sample_configs(n_random, seed):
    rng = np.random.default_rng(seed)
    configs = [(0.3, 0.05), (0.3, 0.4), (3.0, 0.05), (3.0, 0.4)]
    for _ in range(n_random):
        configs.append((float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.05, 0.4))))
    return configs, rng


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@criterion(1, "five-type FDR thresholds match {0.74, 0.38, 0.18, 0.07, 0.02} within 0.005 in < 1 s")
def test_criterion_1_type_optimal_thresholds():
    model = sm.gaussian_model(1.0)
    objective = sm.fdr_objective(0.25)
    started = time.perf_counter()
    taus = [sm.fdr_threshold(q, objective, model) for q in (0.3, 0.4, 0.5, 0.6, 0.7)]
    elapsed = time.perf_counter() - started
    for tau, target in zip(taus, (0.74, 0.38, 0.18, 0.07, 0.02)):
        assert tau == pytest.approx(target, abs=0.005)
    assert elapsed < 1.0, f"threshold computation took {elapsed:.3f}s"


@criterion(2, "worst-type contract: tau = 0.004 +- 0.0005 and zero-utility cost 1.3 +- 0.05 at R=100")
def test_criterion_2_worst_type_contract():
    model = sm.gaussian_model(1.0)
    objective = sm.fdr_objective(0.25)
    tau = sm.fdr_threshold(0.8, objective, model)
    assert tau == pytest.approx(0.004, abs=0.0005)
    cost = sm.zero_utility_cost(0.8, 0.004, 100.0, model)
    assert cost == pytest.approx(1.3, abs=0.05)


@criterion(3, "elicitable ranges: q_lo(0.5)=0.33, tau_bar(2)=0.16, unit-effect range [0.43, 0.86]")
def test_criterion_3_elicitable_ranges():
    objective = sm.fdr_objective(0.25)
    q_lo_weak, _ = sm.elicitable_range(objective, sm.gaussian_model(0.5))
    assert q_lo_weak == pytest.approx(0.33, abs=0.01)
    _, tau_bar_strong = sm.elicitable_range(objective, sm.gaussian_model(2.0))
    assert tau_bar_strong == pytest.approx(0.16, abs=0.005)
    unit = sm.gaussian_model(1.0)
    assert sm.type_for_threshold(0.31, objective, unit) == pytest.approx(0.43, abs=0.01)
    assert sm.type_for_threshold(0.001, objective, unit) == pytest.approx(0.86, abs=0.01)


@criterion(4, "all four builders separate (margin 1e-9) on 24 randomized configurations in < 30 s")
def test_criterion_4_separation_suite():
    configs, rng = sample_configs(n_random=20, seed=20250810)
    started = time.perf_counter()
    checked = 0
    for theta, alpha in configs:
        model, menus = build_all_menus(theta, alpha, rng)
        for menu in menus:
            report = sm.verify_separating(menu, model=model, margin=1e-9)
            assert report.passed, (
                f"builder menu failed for theta={theta:.3f}, alpha={alpha:.3f}: "
                f"{report.describe()}"
            )
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 4 * len(configs) >= 80
    assert elapsed < 30.0, f"separation suite took {elapsed:.1f}s"


@criterion(5, "potentials recovered from built menus satisfy the separating conditions (tol 1e-8)")
def test_criterion_5_potential_round_trip():
    configs, rng = sample_configs(n_random=6, seed=7)
    for theta, alpha in configs:
        model, menus = build_all_menus(theta, alpha, rng)
        for menu in menus:
            recovered = sm.recover_potential(menu, model)
            sm.validate_potential(recovered, menu.support, tol=1e-8)
            assert all(recovered.subgradient(p) < 1e-8 for p in menu.support)


@criterion(6, "screening cost strictly decreasing in eta, with cost(0.01) < 2% of cost(1)")
def test_criterion_6_screening_cost_limit():
    model = sm.gaussian_model(1.0)
    objective = sm.fdr_objective(0.25)
    q_bar = 0.8
    tau_bar = sm.fdr_threshold(q_bar, objective, model)
    base = Contract(tau_bar, 100.0, sm.zero_utility_cost(q_bar, tau_bar, 100.0, model))
    support = np.linspace(0.27, q_bar, 65)
    thresholds = [(float(q), sm.fdr_threshold(float(q), objective, model)) for q in support]
    population = sm.uniform_population(0.0, q_bar, n=513)
    costs = {}
    for eta in (1.0, 0.5, 0.1, 0.01):
        menu = sm.build_varying_reward(base, sm.quadratic_schedule(eta), thresholds, model)
        costs[eta] = sm.screening_cost(menu, base, population, model)
    assert costs[0.01] < costs[0.1] < costs[0.5] < costs[1.0]
    assert costs[0.01] < 0.02 * costs[1.0]


@criterion(7, "constant-cost menus infeasible under concave power; feasible for a convex-ratio table")
def test_criterion_7_fixed_cost_feasibility():
    rng = np.random.default_rng(42)
    for theta in (0.5, 1.0, 2.0):
        model = sm.gaussian_model(theta)
        for _ in range(100):
            tau2 = float(rng.uniform(0.01, 0.97))
            tau1 = float(rng.uniform(tau2 + 0.01, 1.0))
            assert not sm.fixed_cost_feasible(tau1, tau2, model)
    taus = list(np.linspace(0.0, 0.55, 23)) + [1.0]
    betas = [float(t * np.exp(t)) for t in taus[:-1]] + [1.0]
    convex_ratio = sm.tabulated_model(taus, betas)
    assert sm.fixed_cost_feasible(0.5, 0.2, convex_ratio)


@criterion(8, "Monte Carlo at n=1e5 matches the oracle: FDR within budget, TDR within 3 SE, < 10 s")
def test_criterion_8_monte_carlo_oracle_match(gm1, fdr25, five_type_menu, five_types):
    population = sm.discrete_population(five_types)
    started = time.perf_counter()
    report = sm.simulate_population(five_type_menu, population, gm1, n=100_000, seed=20240801)
    elapsed = time.perf_counter() - started
    assert report.empirical_fdr <= 0.25 + 3 * report.fdr_se
    oracle = sm.oracle_tdr(population, fdr25, gm1)
    assert abs(report.empirical_tdr - oracle) <= 3 * report.tdr_se
    assert elapsed < 10.0, f"simulation took {elapsed:.1f}s"


@criterion(9, "misspecification gaps: overpowered band <= 0.002 (negative below 0.6); "
             "underpowered violations confined to p < 0.55 + one grid cell")
def test_criterion_9_sensitivity_reproduction(gm1, fdr25, fixed_menu):
    for theta in (1.1, 1.2):
        scenario = sm.MisspecScenario(
            designed=gm1, actual=sm.gaussian_model(theta), menu=fixed_menu, objective=fdr25
        )
        rows = sm.sensitivity_sweep(scenario)
        assert rows
        assert max(r.gap for r in rows) <= 0.002
        assert all(r.gap <= 0 for r in rows if r.report < 0.6)
    grid = np.linspace(fixed_menu.support[0] + 1e-3, fixed_menu.support[-1] - 1e-3, 128)
    cell = float(grid[1] - grid[0])
    for theta in (0.6, 0.7, 0.8, 0.9):
        scenario = sm.MisspecScenario(
            designed=gm1, actual=sm.gaussian_model(theta), menu=fixed_menu, objective=fdr25
        )
        rows = sm.sensitivity_sweep(scenario, p_grid=grid)
        positives = [r.report for r in rows if r.gap > 0]
        assert positives, f"no violations found for actual theta1={theta}"
        assert max(positives) < 0.55 + cell


@criterion(10, "frontier geometry: oracle weakly dominates uniform at matched FDR; "
              "curves coincide for a degenerate population")
def test_criterion_10_frontier_geometry(gm1):
    population = sm.discrete_population([0.2, 0.8], [0.5, 0.5])
    points = sm.frontier(population, gm1, resolution=512)
    oracle = [p for p in points if p.label == "oracle"]
    uniform = [p for p in points if p.label == "uniform"]
    matched = matched_tdr(uniform, np.array([p.fdr for p in oracle]))
    compared = 0
    for p, u in zip(oracle, matched):
        if np.isnan(u):
            continue
        assert p.tdr >= u - 1e-9
        compared += 1
    assert compared > 100

    degenerate = sm.discrete_population([0.35, 0.8], [1.0, 0.0])
    points = sm.frontier(degenerate, gm1, resolution=512)
    oracle = [p for p in points if p.label == "oracle"]
    uniform = [p for p in points if p.label == "uniform"]
    matched = matched_tdr(uniform, np.array([p.fdr for p in oracle]))
    for p, u in zip(oracle, matched):
        if not np.isnan(u):
            assert p.tdr == pytest.approx(u, abs=1e-4)
