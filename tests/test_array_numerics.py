"""The array numerics, checked against the scalar code they replaced (kept in
``oracles.py``): the FDR bisection, the Bayes threshold, the elicitable-bound
bisection, the level-wise adaptive Simpson and the Gaussian power curve, plus
the array readers."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import statmenus as sm
from statmenus import _quad, builders, objectives
from statmenus._quad import _MAX_DEPTH, adaptive_simpson

from oracles import (
    fdr_threshold_rtol,
    log_linear_curve,
    meets_fdr_threshold_contract,
    recursive_simpson,
    scalar_bayes_threshold,
    scalar_fdr_threshold,
    scalar_gaussian_power,
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


models = st.one_of(
    st.floats(0.05, 10.0).map(sm.gaussian_model), tabulated_models(), concave_tabulated_models()
)


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


def assert_matches_scalar_bisection(qs, alpha, model, taus):
    """``taus`` meet the threshold contract exactly and match the scalar
    bisection: bit for bit on a tabulated curve, within
    ``fdr_threshold_rtol`` on a Gaussian one (equal at 0 and 1)."""
    qs, taus = np.asarray(qs, dtype=float), np.asarray(taus, dtype=float)
    assert meets_fdr_threshold_contract(qs, alpha, model, taus).all()
    expected = np.array([scalar_fdr_threshold(float(q), alpha, model) for q in qs.ravel()])
    expected = expected.reshape(qs.shape)
    if model.kind == "tabulated":
        assert taus.tolist() == expected.tolist()
    assert np.all(
        (taus == expected) | (np.abs(taus - expected) <= fdr_threshold_rtol(expected) * expected)
    )
    assert np.array_equal(np.isin(taus, (0.0, 1.0)), np.isin(expected, (0.0, 1.0)))


@settings(max_examples=300, deadline=None)
@given(model=models, alpha=st.floats(0.001, 0.999), qs=type_arrays())
# a deep-tail threshold (about 1e-299) 2.3e-10 relative from the scalar bisection's
@example(model=sm.gaussian_model(0.05), alpha=0.1, qs=np.array([0.41387943971985997]))
def test_fdr_threshold_matches_scalar_bisection(model, alpha, qs):
    """Random curves whose power-to-size ratio rises by more than rounding
    raise; for the rest, Gaussian or tabulated, concave or not, every
    threshold meets the contract and matches the scalar bisection, the same
    through every entry point."""
    objective = sm.fdr_objective(alpha)
    if model.kind == "tabulated":
        ratios = model.betas[1:] / model.taus[1:]
        if np.any(ratios[1:] > ratios[:-1] * (1.0 + objectives._RATIO_ROUNDING)):
            with pytest.raises(sm.UnsupportedModelError):
                sm.fdr_threshold(qs, objective, model)
            return
    taus = sm.fdr_threshold(qs, objective, model)
    assert_matches_scalar_bisection(qs, alpha, model, taus)
    assert sm.optimal_threshold(qs, objective, model).tolist() == taus.tolist()
    columns = objectives._fdr_bisection(qs[:, None], [alpha, alpha], model)
    assert columns[:, 1].tolist() == taus.tolist()
    assert [sm.fdr_threshold(float(q), objective, model) for q in qs] == taus.tolist()


def test_fdr_threshold_boundary_cases_and_clamp():
    steep = sm.tabulated_model([0.0, 0.01, 1.0], [0.0, 0.05, 1.0])  # power slope 5 near 0
    objective = sm.fdr_objective(0.25)
    qs = np.array([0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0])
    taus = sm.fdr_threshold(qs, objective, steep)
    assert_matches_scalar_bisection(qs, 0.25, steep, taus)
    assert taus[0] == taus[1] == taus[2] == 1.0  # q = 0 and FDR(q, 1) = q <= alpha
    assert taus[-1] == 0.0
    # FDR(q, tau) = q / (q + 5 (1 - q)) > alpha for every tau below 0.01: approve nothing
    assert taus[4] == taus[5] == 0.0
    assert 0.01 < taus[3] < 1.0
    # Gaussian types over budget at 1e-12 are solved below it, down to the
    # smallest normal double; past that they approve nothing
    weak = sm.gaussian_model(0.25)
    qs = np.array([0.5, 0.7, 0.75, 0.9, 0.9999])
    taus = sm.fdr_threshold(qs, objective, weak)
    assert_matches_scalar_bisection(qs, 0.25, weak, taus)
    assert np.finfo(float).tiny < taus[3] < taus[2] < taus[1] < 1e-12 < taus[0]
    assert taus[4] == 0.0


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
    qs, taus = zip(*pairs)
    assert list(qs) == population.points().tolist()
    assert_matches_scalar_bisection(qs, 0.25, gm1, taus)
    assert all(type(q) is float and type(t) is float for q, t in pairs)


@pytest.mark.parametrize(
    "qs",
    [np.linspace(0.43, 0.86, 1024), np.linspace(0.0, 1.0, 1024)],
    ids=["fine-menu-types", "unit-interval"],
)
def test_gaussian_fdr_threshold_makes_few_power_calls(gm1, fdr25, monkeypatch, qs):
    """A solve of 1,024 Gaussian types evaluates the power curve on at most 16
    arrays (the full bisection took about 65): one check at 1, 1e-12 and the
    smallest normal double, the bracket check and a short bisection."""
    calls = []

    def counted(model, tau):
        calls.append(np.size(tau))
        return power(model, tau)

    power = objectives._power
    monkeypatch.setattr(objectives, "_power", counted)
    taus = sm.fdr_threshold(qs, fdr25, gm1)
    assert len(calls) <= 16
    assert meets_fdr_threshold_contract(qs, 0.25, gm1, taus).all()


# ---------------------------------------------------------------------------
# bracketed roots: the elicitable bound
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(model=concave_tabulated_models(), alpha=st.sampled_from([0.05, 0.25, 0.4]))
def test_elicitable_range_matches_scalar_bisection(model, alpha):
    objective = sm.fdr_objective(alpha)
    tau_bar = scalar_tau_bar(model)
    assert sm.elicitable_range(objective, model) == (
        sm.type_for_threshold(tau_bar, objective, model),
        tau_bar,
    )


def test_elicitable_bisection_skips_the_public_power_derivative(fdr25, monkeypatch):
    """On a tabulated curve the bisection's midpoints go to the unchecked
    ``_power_derivative``: the public ``power_derivative``, with its range
    check and float wrap, serves only the two end checks."""
    calls = {"public": 0, "private": 0}

    def counted(name, fn):
        def wrapper(model, tau):
            calls[name] += 1
            return fn(model, tau)

        return wrapper

    monkeypatch.setattr(builders, "power_derivative", counted("public", sm.power_derivative))
    private = counted("private", builders._power_derivative)
    monkeypatch.setattr(builders, "_power_derivative", private)
    model = log_linear_curve()
    q_lo, tau_bar = sm.elicitable_range(fdr25, model)
    assert calls["public"] == 2
    assert calls["private"] >= 50  # halving [1e-6, 1 - 1e-6] down to adjacent doubles
    assert tau_bar == scalar_tau_bar(model)
    assert q_lo == sm.type_for_threshold(tau_bar, fdr25, model)


@settings(max_examples=150, deadline=None)
@given(
    model=st.one_of(st.floats(0.3, 8.0).map(sm.gaussian_model), concave_tabulated_models()),
    alpha=st.sampled_from([0.05, 0.25, 0.4]),
    qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_type_for_threshold_inverts_the_binding_fdr_threshold(model, alpha, qs):
    """On the binding range (interior thresholds) the inverse map returns the
    type to 1e-12, and its array form equals its scalar form bit for bit."""
    objective = sm.fdr_objective(alpha)
    taus = sm.fdr_threshold(np.array(qs), objective, model)
    binding = (0.0 < taus) & (taus < 1.0)
    assume(binding.any())
    types = sm.type_for_threshold(taus[binding], objective, model)
    assert np.abs(types - np.array(qs)[binding]).max() <= 1e-12
    scalars = [sm.type_for_threshold(t, objective, model) for t in taus[binding].tolist()]
    assert types.tolist() == scalars


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
    """np.interp through random knots plus a square-root cusp, finite on [0, 1]:
    the knots are at least 1e-6 apart. Knots closer than that (Hypothesis finds
    pairs 1e-308 apart) overflow the slope, and the infinite integrand makes
    both Simpson rules compute inf - inf, which no caller can pass."""
    start = draw(st.floats(-1.0, 1.0))
    gaps = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5))
    xs = np.cumsum([start, *gaps]).tolist()
    ys = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(xs), max_size=len(xs)))
    c = draw(st.floats(-0.5, 1.5))
    weight = draw(st.floats(0.0, 3.0))
    return lambda x: np.interp(x, xs, ys) + weight * np.sqrt(np.abs(x - c))


def _finite_kink(x):
    """A kinked integrand whose cusp lies inside a subnormal segment."""
    return np.interp(x, [-0.5, 0.25, 1.5], [2.0, -3.0, 4.0]) + 1.5 * np.sqrt(np.abs(x - 5e-309))


@settings(max_examples=150, deadline=None)
@given(
    f=kinked_integrands(),
    knots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    order=st.sampled_from(["increasing", "as drawn"]),
    tol=st.sampled_from([1e-10, 1e-6, 1e-3]),
)
@example(f=_finite_kink, knots=[0.0, 1.1125369292536007e-308], order="increasing", tol=1e-10)
@example(f=_finite_kink, knots=[1.1125369292536007e-308, 0.0], order="as drawn", tol=1e-3)
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


def test_tolerance_below_rounding_raises_naming_its_segment(monkeypatch):
    """An interval whose error estimate misses its tolerance while lying
    within the rounding of its own Simpson sums can never pass, because both
    halve per level: the quadrature raises, naming the segment, instead of
    splitting down to the depth cap (lowered here, so that a quadrature that
    refines them stops soon)."""
    monkeypatch.setattr(_quad, "_MAX_DEPTH", 12)
    calls = []

    def sine(x):
        calls.append(x)
        return np.sin(x)

    with pytest.raises(ValueError, match=r"rounding of the Simpson sums on segment \[0\.0, 1\.0\]"):
        adaptive_simpson(sine, [0.0, 1.0, 3.0], tol=1e-20)
    assert len(calls) <= 12  # before the lowered cap


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
def test_non_finite_integral_raises_naming_its_segment(monkeypatch, value):
    """An integrand value that is NaN or infinite, or finite values whose
    Simpson sums overflow (1e308), raise at once, naming the segment, instead
    of splitting every interval down to the depth cap (lowered here, so that
    a quadrature that refines them stops soon). A bad point first met at a
    deeper level names its own segment too, while the other segment is being
    refined alongside it."""
    monkeypatch.setattr(_quad, "_MAX_DEPTH", 12)
    calls = []

    def jump(x):
        calls.append(x)
        return np.where(x > 0.5, value, 1.0)

    with pytest.raises(ValueError, match=r"not finite on segment \[0\.25, 0\.75\]"):
        adaptive_simpson(jump, [0.0, 0.25, 0.75, 1.0])
    assert len(calls) == 2  # the knots and midpoints, then the first level

    def wave(x):
        return np.where(x == 1.0625, value, np.sin(40.0 * x))

    with pytest.raises(ValueError, match=r"not finite on segment \[1\.0, 2\.0\]"):
        adaptive_simpson(wave, [0.0, 1.0, 2.0])


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
    "type_for_threshold.fdr": lambda m, x: sm.type_for_threshold(x, sm.fdr_objective(0.25), m),
    "type_for_threshold.bayes": lambda m, x: sm.type_for_threshold(
        x, sm.bayes_objective(1.0, 2.0), m
    ),
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
        good, bad = (sm.fdr_threshold(q, sm.fdr_objective(alpha), model) for q in (q_good, q_bad))
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
        sm.fdr_threshold(0.5, fdr25, gm1)
    ]


