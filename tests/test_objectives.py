"""Tests for principal objectives, threshold maps, and oracle aggregates."""

import numpy as np
import pytest
from scipy import optimize, stats

import statmenus as sm

from oracles import scalar_fdr_threshold

FIVE_TYPE_TARGETS = {0.3: 0.74, 0.4: 0.38, 0.5: 0.18, 0.6: 0.07, 0.7: 0.02}


def scipy_power(theta: float, tau: float) -> float:
    return stats.norm.sf(stats.norm.isf(tau) - theta)


def scipy_fdr_threshold(q: float, alpha: float, theta: float) -> float:
    """Independent root-finder for FDR(q, tau) = alpha via brentq."""

    def gap(tau):
        b = scipy_power(theta, tau)
        return q * tau / (q * tau + (1 - q) * b) - alpha

    return optimize.brentq(gap, 1e-14, 1.0 - 1e-14, xtol=1e-13)


# ---------------------------------------------------------------------------
# objective / population validation
# ---------------------------------------------------------------------------


def test_objective_validation():
    with pytest.raises(ValueError):
        sm.fdr_objective(1.5)
    with pytest.raises(ValueError):
        sm.fdr_objective(0.0)
    with pytest.raises(ValueError):
        sm.bayes_objective(0.0, 0.0)
    with pytest.raises(ValueError):
        sm.bayes_objective(-1.0, 2.0)
    sm.bayes_objective(0.0, 1.0)


@pytest.mark.parametrize("omegas", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)])
def test_objective_rejects_nan_error_costs(omegas):
    """A NaN cost passed every comparison-based check and gave every type
    threshold 1.0."""
    with pytest.raises(ValueError, match="error costs"):
        sm.bayes_objective(*omegas)


@pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan]])
def test_population_rejects_nan_weights(weights):
    """NaN weights passed both the sign and the sum check, and ``oracle_tdr``
    on the population returned NaN."""
    with pytest.raises(ValueError, match="weights"):
        sm.discrete_population([0.3, 0.5], weights)


def test_population_validation():
    with pytest.raises(ValueError):
        sm.discrete_population([0.5, 0.3])  # not increasing
    with pytest.raises(ValueError):
        sm.discrete_population([0.3, 0.5], [0.4, 0.4])  # weights off
    with pytest.raises(ValueError):
        sm.uniform_population(0.5, 0.5)
    pop = sm.discrete_population([0.2, 0.6])
    assert pop.weights == (0.5, 0.5)


def test_population_expectation():
    pop = sm.discrete_population([0.2, 0.6], [0.25, 0.75])
    assert pop.average(pop.points()) == pytest.approx(0.5)
    uni = sm.uniform_population(0.0, 1.0, n=4097)
    assert uni.average(uni.points() ** 2) == pytest.approx(1 / 3, abs=1e-6)


# ---------------------------------------------------------------------------
# bayes threshold
# ---------------------------------------------------------------------------


def test_bayes_threshold_symmetric_point(gm1):
    obj = sm.bayes_objective(1.0, 1.0)
    assert sm.bayes_threshold(0.5, obj, gm1) == pytest.approx(0.3085, abs=1e-4)


def test_bayes_threshold_limits(gm1):
    obj = sm.bayes_objective(1.0, 1.0)
    assert sm.bayes_threshold(0.0, obj, gm1) == 1.0
    assert sm.bayes_threshold(1.0, obj, gm1) == 0.0
    assert sm.bayes_threshold(0.5, sm.bayes_objective(1.0, 0.0), gm1) == 0.0
    assert sm.bayes_threshold(0.5, sm.bayes_objective(0.0, 1.0), gm1) == 1.0


def test_bayes_threshold_minimizes_risk(gm1):
    """tau_q beats a grid of alternatives on the weighted risk."""
    obj = sm.bayes_objective(2.0, 1.0)
    for q in (0.3, 0.5, 0.7):
        tau_star = sm.bayes_threshold(q, obj, gm1)
        best = sm.bayes_risk(q, tau_star, 2.0, 1.0, gm1)
        for tau in np.linspace(0.001, 0.999, 333):
            assert best <= sm.bayes_risk(q, float(tau), 2.0, 1.0, gm1) + 1e-12


# ---------------------------------------------------------------------------
# fdr threshold
# ---------------------------------------------------------------------------


def test_fdr_threshold_worst_type(gm1, fdr25):
    assert sm.fdr_threshold(0.8, fdr25, gm1) == pytest.approx(0.004, abs=0.0005)


def test_fdr_threshold_good_type(gm1, fdr25):
    assert sm.fdr_threshold(0.3, fdr25, gm1) == pytest.approx(0.74, abs=0.005)


def test_fdr_threshold_boundaries(gm1, fdr25):
    assert sm.fdr_threshold(0.0, fdr25, gm1) == 1.0
    assert sm.fdr_threshold(1.0, fdr25, gm1) == 0.0
    assert sm.fdr_threshold(0.2, fdr25, gm1) == 1.0  # FDR at tau=1 is q <= alpha


def test_fdr_threshold_matches_brentq_oracle(gm1, fdr25):
    for q in (0.3, 0.45, 0.6, 0.8, 0.9):
        assert sm.fdr_threshold(q, fdr25, gm1) == pytest.approx(
            scipy_fdr_threshold(q, 0.25, 1.0), abs=1e-9
        )


def test_fdr_binds_at_interior_threshold(gm1, fdr25):
    for q in np.linspace(0.3, 0.95, 14):
        tau = sm.fdr_threshold(float(q), fdr25, gm1)
        assert 0.0 < tau < 1.0
        assert sm.fdr(float(q), tau, gm1) == pytest.approx(0.25, abs=1e-8)


def test_fdr_threshold_monotone_in_type(gm1, fdr25):
    qs = np.linspace(0.05, 0.99, 48)
    taus = [sm.fdr_threshold(float(q), fdr25, gm1) for q in qs]
    assert all(b <= a for a, b in zip(taus, taus[1:]))
    interior = [(q, t) for q, t in zip(qs, taus) if 0 < t < 1]
    assert all(b < a for (_, a), (_, b) in zip(interior, interior[1:]))


@pytest.mark.parametrize("q", [0.4, 0.45])
def test_fdr_threshold_rejects_a_rising_power_ratio(fdr25, q):
    """FDR(q, tau) is monotone in tau exactly when beta1(tau) / tau is
    nonincreasing. This curve's ratio rises from 1.5 at 0.1 to 3 at 0.2, so
    bisection has no answer (it returned 0, approve nothing, for these types,
    whose FDR stays within budget up to thresholds 0.333 and 0.256)."""
    model = sm.tabulated_model([0, 0.1, 0.2, 1], [0, 0.15, 0.6, 1])
    with pytest.raises(sm.UnsupportedModelError, match=r"rises from tau=0\.1 to tau=0\.2"):
        sm.fdr_threshold(q, fdr25, model)


def test_fdr_threshold_accepts_collinear_knots(fdr25):
    """Knots on a line through the origin have equal ratios up to rounding
    (here the last one is 2 ulps above the others), and bisect as usual."""
    model = sm.tabulated_model([0, 0.1, 0.2, 0.3, 1], [0, 0.3, 0.6, 0.9, 1])
    ratios = model.betas[1:-1] / model.taus[1:-1]
    assert ratios[2] > ratios[1]
    qs = np.linspace(0.05, 0.95, 19)
    expected = [scalar_fdr_threshold(float(q), 0.25, model) for q in qs]
    assert sm.fdr_threshold(qs, fdr25, model).tolist() == expected


# ---------------------------------------------------------------------------
# threshold map and inverse
# ---------------------------------------------------------------------------


def test_threshold_map_five_types(gm1, fdr25, five_types):
    pairs = sm.threshold_map(sm.discrete_population(five_types), fdr25, gm1)
    for q, tau in pairs:
        assert tau == pytest.approx(FIVE_TYPE_TARGETS[q], abs=0.005)


def test_threshold_map_singleton(gm1, fdr25):
    pairs = sm.threshold_map(sm.discrete_population([0.5]), fdr25, gm1)
    assert len(pairs) == 1
    assert pairs[0][0] == 0.5


def test_threshold_map_strictly_decreasing_interior(gm1, fdr25):
    pairs = sm.threshold_map(sm.uniform_population(0.3, 0.9, n=61), fdr25, gm1)
    taus = [t for _, t in pairs]
    assert all(b < a for a, b in zip(taus, taus[1:]))


def test_type_for_threshold_round_trip(gm1, fdr25):
    for q in (0.35, 0.5, 0.75, 0.85):
        tau = sm.fdr_threshold(q, fdr25, gm1)
        assert sm.type_for_threshold(tau, fdr25, gm1) == pytest.approx(q, abs=1e-8)
    obj = sm.bayes_objective(1.0, 2.0)
    for q in (0.3, 0.5, 0.7):
        tau = sm.bayes_threshold(q, obj, gm1)
        assert sm.type_for_threshold(tau, obj, gm1) == pytest.approx(q, abs=1e-10)


# ---------------------------------------------------------------------------
# oracle aggregates
# ---------------------------------------------------------------------------


def test_oracle_bayes_risk_point_mass(gm1):
    obj = sm.bayes_objective(1.0, 1.0)
    pop = sm.discrete_population([0.6])
    tau = sm.bayes_threshold(0.6, obj, gm1)
    assert sm.oracle_bayes_risk(pop, obj, gm1) == pytest.approx(
        sm.bayes_risk(0.6, tau, 1.0, 1.0, gm1)
    )


def test_oracle_bayes_risk_zero_when_misses_costless(gm1):
    obj = sm.bayes_objective(1.0, 0.0)
    pop = sm.uniform_population(0.2, 0.8, n=33)
    assert sm.oracle_bayes_risk(pop, obj, gm1) == 0.0


def test_oracle_bayes_risk_grid_refinement(gm1):
    """Default-grid quadrature agrees with a 16x denser oracle grid."""
    obj = sm.bayes_objective(1.0, 1.0)
    coarse = sm.oracle_bayes_risk(sm.uniform_population(0.3, 0.7, n=1024), obj, gm1)
    dense = sm.oracle_bayes_risk(sm.uniform_population(0.3, 0.7, n=16385), obj, gm1)
    assert coarse == pytest.approx(dense, abs=1e-4)


def test_oracle_tdr_point_masses(gm1, fdr25):
    assert sm.oracle_tdr(sm.discrete_population([1.0]), fdr25, gm1) == 0.0
    q = 0.55
    tau = sm.fdr_threshold(q, fdr25, gm1)
    expected = (1 - q) * sm.power(gm1, tau)
    assert sm.oracle_tdr(sm.discrete_population([q]), fdr25, gm1) == pytest.approx(expected)


def test_oracle_tdr_two_types_direct(gm1, fdr25):
    """Equal-weight two-type value equals the hand-assembled mixture using
    the independent scipy threshold/power oracles."""
    pop = sm.discrete_population([0.3, 0.7])
    tau_good = scipy_fdr_threshold(0.3, 0.25, 1.0)
    tau_bad = scipy_fdr_threshold(0.7, 0.25, 1.0)
    expected = 0.5 * (0.7 * scipy_power(1.0, tau_good) + 0.3 * scipy_power(1.0, tau_bad))
    assert sm.oracle_tdr(pop, fdr25, gm1) == pytest.approx(expected, abs=1e-8)


def test_oracle_tdr_dominates_uniform_thresholds(gm1, fdr25):
    """No single threshold meeting the population FDR budget can beat the
    per-type assignment, checked against a dense threshold sweep."""
    for types, weights in ([(0.3, 0.7), (0.5, 0.5)], [(0.4, 0.9), (0.2, 0.8)]):
        pop = sm.discrete_population(types, weights)
        oracle = sm.oracle_tdr(pop, fdr25, gm1)
        best_uniform = 0.0
        for tau in np.linspace(1e-4, 1.0, 2000):
            tau = float(tau)
            null_mass = sum(w * q * tau for q, w in zip(types, weights))
            approve = null_mass + sum(
                w * (1 - q) * sm.power(gm1, tau) for q, w in zip(types, weights)
            )
            if approve > 0 and null_mass / approve <= 0.25:
                mix_tdr = sum(w * sm.tdr(q, tau, gm1) for q, w in zip(types, weights))
                best_uniform = max(best_uniform, mix_tdr)
        assert oracle >= best_uniform - 1e-9


def test_oracle_requires_matching_kind(gm1, fdr25):
    pop = sm.discrete_population([0.5])
    with pytest.raises(ValueError):
        sm.oracle_tdr(pop, sm.bayes_objective(1.0, 1.0), gm1)
    with pytest.raises(ValueError):
        sm.oracle_bayes_risk(pop, fdr25, gm1)
