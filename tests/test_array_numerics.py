"""The array numerics, checked against the scalar code they replaced (kept in
``oracles.py``): the FDR bisection, the Bayes threshold, the misreport and
elicitable-bound bisections, the level-wise adaptive Simpson and the Gaussian
power curve, plus the array readers."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import statmenus as sm
from statmenus import objectives
from statmenus._quad import _MAX_DEPTH, adaptive_simpson

from oracles import (
    recursive_simpson,
    scalar_bayes_threshold,
    scalar_fdr_threshold,
    scalar_gaussian_power,
    scalar_misspecified_report,
    scalar_tau_bar,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

unit = st.floats(0.0, 1.0)


@st.composite
def tabulated_models(draw):
    """Nondecreasing power curves through random knots above the diagonal."""
    n = draw(st.integers(1, 8))
    taus = sorted(draw(st.lists(st.floats(0.001, 0.99), min_size=n, max_size=n, unique=True)))
    betas = [0.0]
    for tau in taus:
        betas.append(draw(st.floats(max(betas[-1], tau + 1e-6), 1.0)))
    betas = betas[1:]
    return sm.tabulated_model([0.0] + taus + [1.0], [0.0] + betas + [1.0])


models = st.one_of(st.floats(0.05, 10.0).map(sm.gaussian_model), tabulated_models())


@st.composite
def type_arrays(draw):
    """Types including the boundaries and a few at or below the budget's
    no-search region (FDR(q, 1) = q)."""
    qs = draw(st.lists(unit, min_size=1, max_size=12))
    qs += draw(st.lists(st.sampled_from([0.0, 1.0, 1e-9, 0.01, 1.0 - 1e-9]), max_size=3))
    return np.array(draw(st.permutations(qs)))


# ---------------------------------------------------------------------------
# threshold map
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(model=models, alpha=st.floats(0.001, 0.999), qs=type_arrays())
def test_fdr_threshold_matches_scalar_bisection(model, alpha, qs):
    objective = sm.fdr_objective(alpha)
    expected = [scalar_fdr_threshold(float(q), alpha, model) for q in qs]
    taus = sm.fdr_threshold(qs, objective, model)
    assert taus.tolist() == expected
    assert np.all((sm.fdr(qs, taus, model) <= alpha) | (taus == 0.0))
    assert sm.optimal_threshold(qs, objective, model).tolist() == expected
    assert objectives._fdr_bisection(qs[:, None], [alpha, alpha], model)[:, 1].tolist() == expected


def test_fdr_threshold_boundary_cases_and_clamp():
    steep = sm.tabulated_model([0.0, 0.01, 1.0], [0.0, 0.05, 1.0])  # power slope 5 near 0
    objective = sm.fdr_objective(0.25)
    qs = np.array([0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0])
    taus = sm.fdr_threshold(qs, objective, steep)
    assert taus.tolist() == [scalar_fdr_threshold(q, 0.25, steep) for q in qs.tolist()]
    assert taus[0] == taus[1] == taus[2] == 1.0  # q = 0 and FDR(q, 1) = q <= alpha
    assert taus[-1] == 0.0
    # FDR(q, tau) = q / (q + 5 (1 - q)) > alpha for every tau below 0.01: approve nothing
    assert taus[4] == taus[5] == 0.0
    assert objectives._BISECT_LO < taus[3] < 1.0
    assert np.all((sm.fdr(qs, taus, steep) <= 0.25) | (taus == 0.0))
    # Gaussian types over budget at 1e-12 bisect on [smallest normal, 1e-12]
    weak = sm.gaussian_model(0.25)
    qs = np.array([0.5, 0.7, 0.75, 0.9])
    taus = sm.fdr_threshold(qs, objective, weak)
    assert taus.tolist() == [scalar_fdr_threshold(q, 0.25, weak) for q in qs.tolist()]
    assert np.all(sm.fdr(qs, taus, weak) <= 0.25)
    assert np.finfo(float).tiny < taus[3] < taus[2] < taus[1] < objectives._BISECT_LO < taus[0]


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(0.05, 10.0),
    weights=st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    qs=type_arrays(),
)
@example(theta=10.0, weights=(0.5, 0.5), qs=np.array([5e-324, 1e-300, 0.5]))  # 5e-324 underflows
def test_bayes_threshold_matches_scalar_rule(theta, weights, qs):
    if sum(weights) == 0.0:
        weights = (1.0, 1.0)
    model = sm.gaussian_model(theta)
    objective = sm.bayes_objective(*weights)
    taus = sm.optimal_threshold(qs, objective, model).tolist()
    for q, tau in zip(qs.tolist(), taus):
        try:
            expected = scalar_bayes_threshold(q, *weights, model)
        except ValueError:  # a tiny type's likelihood-ratio level underflows to 0
            expected = 1.0  # the q -> 0 limit
        assert tau == expected


def test_threshold_map_matches_scalar_bisection(gm1, fdr25):
    population = sm.uniform_population(0.2, 0.9, n=64)
    pairs = sm.threshold_map(population, fdr25, gm1)
    assert pairs == [(q, scalar_fdr_threshold(q, 0.25, gm1)) for q in population.points().tolist()]
    assert all(type(q) is float and type(t) is float for q, t in pairs)


# ---------------------------------------------------------------------------
# bracketed roots: misreports and the elicitable bound
# ---------------------------------------------------------------------------

MISREPORT_TYPES = np.linspace(0.43, 0.86, 15).tolist()  # the middle one, 0.645, is a scan point


@pytest.fixture(scope="module", params=[65, 257])
def misreport_menu(request, gm1, fdr25):
    return sm.build_fixed_reward(100.0, 0.43, 0.86, fdr25, gm1, n=request.param)


@pytest.mark.parametrize("theta", [0.6, 0.8, 0.95, 1.0, 1.05, 1.3, 2.0])
def test_misspecified_report_matches_scalar_bisection(gm1, fdr25, misreport_menu, theta):
    """Scans with one or two sign-change brackets and, at theta 1 for the type
    on the scan grid, an exact zero scan point."""
    scenario = sm.MisspecScenario(gm1, sm.gaussian_model(theta), misreport_menu, fdr25)
    for q in MISREPORT_TYPES:
        result = sm.misspecified_report(q, scenario)
        assert result == scalar_misspecified_report(q, scenario)
        assert type(result.report) is float
    # On the scan grid, so at theta 1 its residual is exactly 0 at the report q.
    assert MISREPORT_TYPES[7] in np.linspace(0.43, 0.86, 129)


@st.composite
def concave_tabulated_models(draw):
    """Concave power curves: decreasing segment slopes scaled to end at (1, 1)."""
    n = draw(st.integers(2, 10))
    widths = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    slopes = np.array(
        sorted(draw(st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n, unique=True)))[::-1]
    )
    taus = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    betas = np.concatenate([[0.0], np.cumsum(widths * slopes) / np.dot(widths, slopes)])
    taus[-1] = betas[-1] = 1.0
    try:
        return sm.tabulated_model(taus, betas)
    except sm.InvalidModelError:  # rounding put an interior knot on the diagonal
        assume(False)


@settings(max_examples=150, deadline=None)
@given(model=concave_tabulated_models(), alpha=st.sampled_from([0.05, 0.25, 0.4]))
def test_elicitable_range_matches_scalar_bisection(model, alpha):
    objective = sm.fdr_objective(alpha)
    tau_bar = scalar_tau_bar(model)
    assert sm.elicitable_range(objective, model) == (
        sm.type_for_threshold(tau_bar, objective, model),
        tau_bar,
    )


@pytest.mark.parametrize(
    "taus, betas, tau_bar",
    [
        ([0.0, 1e-7, 1.0], [0.0, 2e-7, 1.0], 1e-6),  # slope below 1 from 1e-6 on
        ([0.0, 0.5, 1.0 - 5e-7, 1.0], [0.0, 0.5 + 1e-9, 1.0 - 5e-7 + 1e-8, 1.0], 1.0 - 1e-6),
    ],
)
def test_elicitable_range_edge_branches(taus, betas, tau_bar, fdr25):
    model = sm.tabulated_model(taus, betas)
    assert scalar_tau_bar(model) == tau_bar
    assert sm.elicitable_range(fdr25, model)[1] == tau_bar


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@st.composite
def kinked_integrands(draw):
    """np.interp through random knots plus a square-root cusp."""
    xs = sorted(draw(st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=6, unique=True)))
    ys = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(xs), max_size=len(xs)))
    c = draw(st.floats(-0.5, 1.5))
    weight = draw(st.floats(0.0, 3.0))
    return lambda x: np.interp(x, xs, ys) + weight * np.sqrt(np.abs(x - c))


@settings(max_examples=150, deadline=None)
@given(
    f=kinked_integrands(),
    knots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    order=st.sampled_from(["increasing", "as drawn"]),
    tol=st.sampled_from([1e-10, 1e-6, 1e-3]),
)
def test_level_wise_simpson_matches_recursion(f, knots, order, tol):
    if order == "increasing":
        knots = sorted(knots)
    expected = [recursive_simpson(f, a, b, tol) for a, b in zip(knots, knots[1:])]
    assert adaptive_simpson(f, knots, tol).tolist() == expected


def test_simpson_recursing_several_levels_and_to_the_depth_cap():
    def cusp(x):
        return np.sqrt(np.abs(x - 0.3))

    def step(x):
        return np.where(np.asarray(x) > 0.1234567, 1.0, 0.0)

    knots = [0.0, 0.25, 0.5, 1.0, 0.5]
    for f, tol in ((cusp, 1e-10), (step, 1e-30)):
        depths = []
        expected = [recursive_simpson(f, a, b, tol, trace=depths) for a, b in zip(knots, knots[1:])]
        assert adaptive_simpson(f, knots, tol).tolist() == [float(v) for v in expected]
        assert max(depths) >= (_MAX_DEPTH if f is step else 8)


# ---------------------------------------------------------------------------
# power curve and the float / array contract
# ---------------------------------------------------------------------------


def test_gaussian_power_matches_erfc_oracle():
    taus = np.concatenate(
        [[0.0, 0.5, 1.0], np.geomspace(1e-300, 0.5, 400), np.linspace(0.0, 1.0, 401),
         1.0 - np.geomspace(1e-16, 0.5, 200)]
    )
    for theta in (0.05, 0.3, 1.0, 3.0, 10.0):
        got = sm.power(sm.gaussian_model(theta), taus)
        expected = np.array([scalar_gaussian_power(theta, float(t)) for t in taus])
        assert got[expected == 0.0].tolist() == expected[expected == 0.0].tolist()
        rel = np.abs(got - expected)[expected > 0.0] / expected[expected > 0.0]
        assert rel.max() <= 1e-12


@settings(max_examples=50, deadline=None)
@given(model=tabulated_models(), taus=st.lists(unit, min_size=1, max_size=20))
def test_tabulated_power_equals_scalar_interpolation(model, taus):
    expected = [float(np.interp(t, model.taus, model.betas)) for t in taus]
    assert sm.power(model, np.array(taus)).tolist() == expected
    assert [sm.power(model, t) for t in taus] == expected


MENU = sm.build_finite_menu(
    [0.3, 0.5, 0.7], [0.7, 0.2, 0.02], (100.0, 5.0), 50.0, model=sm.gaussian_model(1.0)
)
CALLS = {
    "power": lambda m, x: sm.power(m, x),
    "power_derivative": lambda m, x: sm.power_derivative(m, x),
    "likelihood_ratio": lambda m, x: sm.likelihood_ratio(m, x),
    "inverse_likelihood_ratio": lambda m, x: sm.inverse_likelihood_ratio(m, x),
    "fdr": lambda m, x: sm.fdr(x, 0.3, m),
    "tdr": lambda m, x: sm.tdr(x, 0.3, m),
    "bayes_risk": lambda m, x: sm.bayes_risk(x, 0.3, 1.0, 2.0, m),
    "fdr_threshold": lambda m, x: sm.fdr_threshold(x, sm.fdr_objective(0.25), m),
    "optimal_threshold": lambda m, x: sm.optimal_threshold(x, sm.bayes_objective(1.0, 2.0), m),
    "utility": lambda m, x: sm.utility(x, sm.Contract(0.2, 100.0, 3.0), m),
    "principal_return": lambda m, x: sm.principal_return(MENU, MENU.contracts[-1], x, m),
    "fixed_reward_potential.subgradient": lambda m, x: sm.fixed_reward_potential(
        100.0, 0.85, sm.fdr_objective(0.25), m
    ).subgradient(x),
}
OUTSIDE = {"inverse_likelihood_ratio": -1.0}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_float_in_float_out_and_array_domain(gm1, name):
    call = CALLS[name]
    for x in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(call(gm1, x)) is float
    values = call(gm1, np.array([0.2, 0.3, 0.4]))
    assert isinstance(values, np.ndarray)
    assert values.tolist() == [call(gm1, x) for x in (0.2, 0.3, 0.4)]
    bad = OUTSIDE.get(name, 1.5)
    with pytest.raises(ValueError, match=repr(bad)):
        call(gm1, np.array([0.2, bad, 0.4]))
    with pytest.raises(ValueError):
        call(gm1, bad)


def test_schedules_and_tabulated_potentials_are_elementwise():
    zs = np.array([0.1, 0.5, 0.9])
    for eps in (sm.quadratic_schedule(0.3), sm.tabulated_schedule([0.0, 1.0], [0.3, 0.0])):
        assert type(eps.value(0.5)) is float
        assert eps.value(zs).tolist() == [eps.value(z) for z in zs.tolist()]
    G = sm.tabulated_potential([0.2, 0.4], [3.0, 1.0], [-12.0, -8.0])
    assert G.values([0.2, 0.4]).tolist() == [3.0, 1.0] and G.value(0.4) == 1.0
    assert G.subgradient(np.array([0.4, 0.2])).tolist() == [-8.0, -12.0]
    assert type(G.subgradient(0.2)) is float
    with pytest.raises(KeyError, match="0.3"):
        G.subgradient(np.array([0.2, 0.3]))


# ---------------------------------------------------------------------------
# array readers against their former per-point loops
# ---------------------------------------------------------------------------


def test_frontier_matches_per_point_loop():
    model = sm.tabulated_model(np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 33) ** 0.3)
    population = sm.discrete_population([0.3, 0.7], [0.4, 0.6])
    points = sm.frontier(population, model, resolution=64)
    (q_good, q_bad), (w_good, w_bad) = population.types, population.weights
    expected = []
    for tau in sm.evaluation._sweep_grid(64).tolist():
        null = (w_good * q_good + w_bad * q_bad) * tau
        approve = null + (w_good * (1 - q_good) + w_bad * (1 - q_bad)) * sm.power(model, tau)
        mix_fdr = null / approve if approve > 0 else 0.0
        mix_tdr = w_good * sm.tdr(q_good, tau, model) + w_bad * sm.tdr(q_bad, tau, model)
        expected += [
            ("uniform", tau, mix_fdr, mix_tdr),
            ("good_only", tau, sm.fdr(q_good, tau, model), w_good * sm.tdr(q_good, tau, model)),
            ("bad_only", tau, sm.fdr(q_bad, tau, model), w_bad * sm.tdr(q_bad, tau, model)),
        ]
    for alpha in sm.evaluation._sweep_grid(64, lo=1e-4).tolist():
        if alpha >= 1.0:
            continue
        good, bad = (scalar_fdr_threshold(q, alpha, model) for q in (q_good, q_bad))
        null = w_good * q_good * good + w_bad * q_bad * bad
        approve = null + w_good * (1 - q_good) * sm.power(model, good) + w_bad * (
            1 - q_bad
        ) * sm.power(model, bad)
        mix_tdr = w_good * sm.tdr(q_good, good, model) + w_bad * sm.tdr(q_bad, bad, model)
        expected.append(("oracle", alpha, null / approve if approve > 0 else 0.0, mix_tdr))
    assert [(p.label, p.parameter, p.fdr, p.tdr) for p in points] == expected


def test_sensitivity_sweep_matches_per_report_calls(gm1, fdr25, fixed_menu):
    scenario = sm.MisspecScenario(gm1, sm.gaussian_model(1.3), fixed_menu, fdr25)
    grid = np.concatenate([np.linspace(0.431, 0.859, 60), fixed_menu.support[5:8]])
    rows = sm.sensitivity_sweep(scenario, grid)
    expected = []
    for p in grid.tolist():
        implied = sm.implied_true_type(p, scenario)
        if 0.0 < implied < 1.0:
            expected.append((p, sm.fdr_gap_fixed_reward(p, scenario), implied))
    assert [(r.report, r.gap, r.implied_q) for r in rows] == expected
    taus = scenario.threshold_at(np.array(fixed_menu.support[5:8] + (0.5,)))
    assert taus.tolist() == [c.tau for c in fixed_menu.contracts[5:8]] + [
        scalar_fdr_threshold(0.5, 0.25, gm1)
    ]


