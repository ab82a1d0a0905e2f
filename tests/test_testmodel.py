"""Tests for the test-model layer: normal CDF/quantile, power curves,
likelihood ratios, and the law of the oracle's p-value sampler."""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy import stats

import statmenus as sm
from statmenus.errors import InvalidModelError, UnsupportedModelError

from oracles import masked_sample_pvalues

mp.dps = 30


def mp_cdf(z: float) -> float:
    """High-precision normal CDF oracle (30-digit mpmath)."""
    return float(mp.ncdf(z))


def bisect_quantile(u: float) -> float:
    """Independent quantile oracle: bisection on normal_cdf."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sm.normal_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# normal_cdf / normal_quantile
# ---------------------------------------------------------------------------


def test_cdf_at_zero():
    assert sm.normal_cdf(0.0) == 0.5


def test_cdf_at_one_matches_high_precision_oracle():
    # frozen from the 30-digit oracle
    assert abs(sm.normal_cdf(1.0) - 0.8413447460685429) < 1e-15
    assert abs(sm.normal_cdf(1.0) - mp_cdf(1.0)) < 1e-12


def test_cdf_symmetry():
    for z in np.linspace(-8, 8, 97):
        assert sm.normal_cdf(-z) == pytest.approx(1.0 - sm.normal_cdf(z), abs=1e-15)


def test_cdf_against_oracle_body_and_tails():
    for z in np.linspace(-8, 8, 161):
        assert abs(sm.normal_cdf(float(z)) - mp_cdf(float(z))) < 1e-13
    for z in np.linspace(-37, -8, 30):
        exact = mp_cdf(float(z))
        assert abs(sm.normal_cdf(float(z)) - exact) < 1e-12
        assert sm.normal_cdf(float(z)) == pytest.approx(exact, rel=1e-10)


def test_cdf_monotone():
    zs = np.linspace(-10, 10, 2001)
    vals = [sm.normal_cdf(float(z)) for z in zs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_quantile_median():
    assert sm.normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)


def test_quantile_0996():
    # derived by bisection on normal_cdf
    assert sm.normal_quantile(0.996) == pytest.approx(2.652069807902198, abs=1e-10)
    assert sm.normal_quantile(0.996) == pytest.approx(bisect_quantile(0.996), abs=1e-10)


def test_quantile_rejects_out_of_range():
    for u in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            sm.normal_quantile(u)


def test_quantile_cdf_round_trip_u_space():
    # the Newton refinement must hold |Phi(Phi^-1(u)) - u| < 1e-12
    us = np.concatenate([np.geomspace(1e-8, 0.5, 400), 1 - np.geomspace(1e-8, 0.5, 400)])
    for u in us:
        assert abs(sm.normal_cdf(sm.normal_quantile(float(u))) - u) < 1e-12


def test_cdf_quantile_round_trip_z_space():
    # atol limited by double spacing near Phi(z) ~ 1 at |z| = 6
    for z in np.linspace(-6, 6, 241):
        assert sm.normal_quantile(sm.normal_cdf(float(z))) == pytest.approx(float(z), abs=1e-7)


# ---------------------------------------------------------------------------
# power and its derivative
# ---------------------------------------------------------------------------


def test_power_boundaries(gm1):
    assert sm.power(gm1, 0.0) == 0.0
    assert sm.power(gm1, 1.0) == 1.0


def test_power_at_0004(gm1):
    # composed from the cdf/quantile oracles: 1 - Phi(Phi^-1(0.996) - 1)
    expected = mp_cdf(1.0 - float(mp.erfinv(2 * mp.mpf("0.996") - 1) * mp.sqrt(2)))
    assert sm.power(gm1, 0.004) == pytest.approx(expected, abs=1e-12)
    assert sm.power(gm1, 0.004) == pytest.approx(0.0493, abs=1e-4)


def test_power_matches_scipy_grid():
    for theta in (0.5, 1.0, 2.0):
        model = sm.gaussian_model(theta)
        for tau in np.linspace(0.01, 0.99, 50):
            expected = stats.norm.sf(stats.norm.isf(tau) - theta)
            assert sm.power(model, float(tau)) == pytest.approx(expected, abs=1e-12)


def test_power_nontrivial_and_concave():
    for theta in (0.3, 1.0, 3.0):
        model = sm.gaussian_model(theta)
        grid = np.linspace(0.01, 0.99, 99)
        vals = [sm.power(model, float(t)) for t in grid]
        assert all(v > t for v, t in zip(vals, grid))
        for a, b in zip(grid, grid[25:]):
            mid = sm.power(model, float((a + b) / 2))
            assert mid >= (sm.power(model, float(a)) + sm.power(model, float(b))) / 2 - 1e-12


def test_power_derivative_identity_at_half_effect():
    # z = theta/2 makes the exponent vanish exactly
    for theta in (0.5, 1.0, 2.0, 3.0):
        model = sm.gaussian_model(theta)
        tau = sm.normal_cdf(-theta / 2)
        assert sm.power_derivative(model, tau) == pytest.approx(1.0, abs=1e-12)


def test_power_derivative_theta2_numeric():
    assert sm.power_derivative(sm.gaussian_model(2.0), 0.1587) == pytest.approx(1.0, abs=1e-3)


def test_power_derivative_matches_central_difference(gm1):
    h = 1e-6
    for tau in np.linspace(0.05, 0.95, 19):
        tau = float(tau)
        fd = (sm.power(gm1, tau + h) - sm.power(gm1, tau - h)) / (2 * h)
        assert sm.power_derivative(gm1, tau) == pytest.approx(fd, abs=1e-6)


def test_power_derivative_strictly_decreasing(gm1):
    grid = np.linspace(0.02, 0.98, 80)
    vals = [sm.power_derivative(gm1, float(t)) for t in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_power_derivative_rejects_boundaries(gm1):
    for tau in (0.0, 1.0):
        with pytest.raises(ValueError):
            sm.power_derivative(gm1, tau)


# ---------------------------------------------------------------------------
# likelihood ratio
# ---------------------------------------------------------------------------


def test_inverse_likelihood_ratio_at_one(gm1):
    # ratio 1 maps to 1 - Phi(theta/2)
    assert sm.inverse_likelihood_ratio(gm1, 1.0) == pytest.approx(0.3085375387259869, abs=1e-12)
    assert sm.inverse_likelihood_ratio(gm1, 1.0) == pytest.approx(0.3085, abs=1e-4)


@pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
def test_likelihood_ratio_round_trip(gm1, y):
    assert sm.likelihood_ratio(gm1, sm.inverse_likelihood_ratio(gm1, y)) == pytest.approx(
        y, rel=1e-9
    )


def test_inverse_likelihood_ratio_large_level_clamps(gm1):
    assert sm.inverse_likelihood_ratio(gm1, 1e300) == 0.0
    assert sm.inverse_likelihood_ratio(gm1, 1e-300) == 1.0


def test_likelihood_ratio_equals_power_derivative(gm1):
    for tau in np.linspace(0.05, 0.95, 10):
        assert sm.likelihood_ratio(gm1, float(tau)) == pytest.approx(
            sm.power_derivative(gm1, float(tau)), rel=1e-12
        )


def test_likelihood_ratio_unsupported_for_tabulated():
    model = sm.tabulated_model([0.0, 0.5, 1.0], [0.0, 0.75, 1.0])
    with pytest.raises(UnsupportedModelError):
        sm.likelihood_ratio(model, 0.3)
    with pytest.raises(UnsupportedModelError):
        sm.inverse_likelihood_ratio(model, 1.0)


# ---------------------------------------------------------------------------
# model construction and validation
# ---------------------------------------------------------------------------


def test_gaussian_effect_size_bounds():
    for theta in (0.0, -1.0, 10.5):
        with pytest.raises(InvalidModelError):
            sm.gaussian_model(theta)
    sm.gaussian_model(10.0)


def test_tabulated_validation():
    with pytest.raises(InvalidModelError):  # missing endpoints
        sm.tabulated_model([0.1, 1.0], [0.2, 1.0])
    with pytest.raises(InvalidModelError):  # not increasing
        sm.tabulated_model([0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.7, 1.0])
    with pytest.raises(InvalidModelError):  # decreasing power
        sm.tabulated_model([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.4, 1.0])
    with pytest.raises(InvalidModelError):  # trivial power at a knot
        sm.tabulated_model([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    nan, inf = float("nan"), float("inf")
    for taus, betas in (
        ([0.0, nan, 1.0], [0.0, 0.5, 1.0]),  # every comparison with a NaN tau is false
        ([0.0, 0.5, 1.0], [0.0, nan, 1.0]),
        ([0.0, 0.5, inf], [0.0, 0.6, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, 0.6, inf]),
    ):
        with pytest.raises(InvalidModelError, match="finite"):
            sm.tabulated_model(taus, betas)


def test_tabulated_interpolation():
    model = sm.tabulated_model([0.0, 0.2, 0.6, 1.0], [0.0, 0.5, 0.9, 1.0])
    assert sm.power(model, 0.2) == 0.5
    assert sm.power(model, 0.4) == pytest.approx(0.7)
    assert sm.power_derivative(model, 0.3) == pytest.approx(1.0, abs=1e-5)


def test_tabulated_knots_stored_once_read_only():
    a = sm.tabulated_model([0.0, 0.2, 0.6, 1.0], [0.0, 0.5, 0.9, 1.0])
    b = sm.tabulated_model([0.0, 0.2, 0.6, 1.0], [0.0, 0.5, 0.9, 1.0])
    assert a == b and hash(a) == hash(b)
    assert a != sm.tabulated_model([0.0, 0.2, 0.6, 1.0], [0.0, 0.5, 0.8, 1.0])
    assert a.taus is a.taus and a.betas is a.betas
    assert a.taus.tolist() == [0.0, 0.2, 0.6, 1.0] and a.betas.tolist() == [0.0, 0.5, 0.9, 1.0]
    for knots in (a.taus, a.betas):
        with pytest.raises(ValueError):
            knots[1] = 0.3
    assert sm.power(a, 0.2) == 0.5


def test_tabulated_csv_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("tau,beta1\n0.0,0.0\n0.25,0.6\n1.0,1.0\n")
    model = sm.tabulated_from_csv(path)
    assert sm.power(model, 0.25) == 0.6
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,0\n1,1\n")
    with pytest.raises(InvalidModelError):
        sm.tabulated_from_csv(bad)


# ---------------------------------------------------------------------------
# sampling: the law of the boolean-mask sampler that the simulator's oracle
# draws from
# ---------------------------------------------------------------------------


def test_null_stream_uniform_ks(gm1):
    n = 10_000
    draws = np.sort(masked_sample_pvalues(gm1, np.ones(n, dtype=bool), np.random.default_rng(1234)))
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(grid - draws)), np.max(np.abs(draws - (grid - 1 / n))))
    assert ks < 0.02


def test_alternative_stream_matches_power(gm1):
    n = 100_000
    draws = masked_sample_pvalues(gm1, np.zeros(n, dtype=bool), np.random.default_rng(99))
    frac = np.mean(draws <= 0.004)
    p = sm.power(gm1, 0.004)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) <= 3 * sigma


def test_tabulated_alternative_sampling_cdf():
    model = sm.tabulated_model([0.0, 0.2, 0.6, 1.0], [0.0, 0.5, 0.9, 1.0])
    n = 50_000
    draws = masked_sample_pvalues(model, np.zeros(n, dtype=bool), np.random.default_rng(5))
    for tau in (0.2, 0.4, 0.6):
        p = sm.power(model, tau)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(draws <= tau) - p) <= 4 * sigma
