"""Tests for the test-model layer: normal CDF/quantile, power curves,
likelihood ratios, and p-value sampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import stats
from scipy.special import ndtr, ndtri

import statmenus as sm
from statmenus.errors import InvalidModelError, UnsupportedModelError
from statmenus.testmodel import _cutoff_brackets

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
# sampling
# ---------------------------------------------------------------------------


def test_sampling_deterministic(gm1):
    a = sm.sample_pvalue(gm1, True, np.random.default_rng(42))
    b = sm.sample_pvalue(gm1, True, np.random.default_rng(42))
    assert a == b
    mask = np.random.default_rng(0).random(100) < 0.5
    xs = sm.sample_pvalues(gm1, mask, np.random.default_rng(7))
    ys = sm.sample_pvalues(gm1, mask, np.random.default_rng(7))
    assert np.array_equal(xs, ys)


def test_null_stream_uniform_ks(gm1):
    n = 10_000
    draws = np.sort(sm.sample_pvalues(gm1, np.ones(n, dtype=bool), np.random.default_rng(1234)))
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(grid - draws)), np.max(np.abs(draws - (grid - 1 / n))))
    assert ks < 0.02


def test_alternative_stream_matches_power(gm1):
    n = 100_000
    draws = sm.sample_pvalues(gm1, np.zeros(n, dtype=bool), np.random.default_rng(99))
    frac = np.mean(draws <= 0.004)
    p = sm.power(gm1, 0.004)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) <= 3 * sigma


def test_tabulated_alternative_sampling_cdf():
    model = sm.tabulated_model([0.0, 0.2, 0.6, 1.0], [0.0, 0.5, 0.9, 1.0])
    n = 50_000
    draws = sm.sample_pvalues(model, np.zeros(n, dtype=bool), np.random.default_rng(5))
    for tau in (0.2, 0.4, 0.6):
        p = sm.power(model, tau)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(draws <= tau) - p) <= 4 * sigma


GM1 = sm.gaussian_model(1.0)
# The Gaussian power curve tabulated on 258 evenly spaced knots.
TABULATED = sm.tabulated_model(
    np.linspace(0.0, 1.0, 258), [sm.power(GM1, t) for t in np.linspace(0.0, 1.0, 258)]
)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([(0,), (1,), (300,), (0, 4), (17, 9)]),
    null_share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),  # 0 and 1: one kind only
    transposed=st.booleans(),
    model=st.sampled_from([GM1, TABULATED]),
    with_out=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_pvalues_matches_masked_oracle(
    shape, null_share, transposed, model, with_out, seed
):
    """The index-scatter sampler gives the boolean-mask sampler's p-values
    bit for bit and leaves the generator in the same state, for empty,
    all-null, all-alternative and mixed masks, 1-D and 2-D (also not
    C-contiguous), with and without ``out``."""
    mask = np.random.default_rng(seed).random(shape) < null_share
    if transposed:
        mask = mask.T
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    out = np.full(mask.shape, np.nan) if with_out else None
    drawn = sm.sample_pvalues(model, mask, ours, out=out)
    expected = masked_sample_pvalues(model, mask, oracle)
    assert drawn is out if with_out else drawn.flags.c_contiguous
    assert drawn.shape == expected.shape and drawn.dtype == expected.dtype
    assert drawn.tobytes() == expected.tobytes()
    assert ours.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize(
    "out",
    [
        np.empty((4, 6)).T,  # Fortran order
        np.empty((6, 8))[:, ::2],  # strided
        np.empty((6, 5)),
        np.empty(24),
        np.empty((6, 4), dtype=np.float32),
        [[0.0] * 4] * 6,
    ],
    ids=["fortran", "strided", "shape", "flat", "float32", "list"],
)
def test_sample_pvalues_rejects_unusable_out(gm1, out):
    """An ``out`` that ``reshape(-1)`` would copy, or of another shape or
    dtype, raises before any draw."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="C-contiguous float64"):
        sm.sample_pvalues(gm1, np.ones((6, 4), dtype=bool), rng, out=out)
    assert rng.bit_generator.state == state


def _doubles_around(x: float, n: int) -> np.ndarray:
    """The 2n + 1 consecutive doubles centred on ``x``, in increasing order."""
    bits = int(np.float64(x).view(np.int64))
    key = bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)  # ordered like the doubles
    keys = key + np.arange(-n, n + 1)
    magnitudes = np.abs(keys).view(np.float64)
    return np.where(keys < 0, -magnitudes, magnitudes)


@settings(max_examples=200, deadline=None)
@given(tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(tau=0.0)
@example(tau=5e-324)
@example(tau=np.finfo(float).tiny)
@example(tau=1e-300)
@example(tau=0.5)
@example(tau=1 - 2**-53)
@example(tau=1.0)
@example(tau=-1.0)
def test_cutoff_bracket_decides_as_ndtr(tau):
    """Approving a statistic ``w <= lo``, rejecting one ``w > hi`` and
    deciding one in between by ``ndtr(w) <= tau`` gives ``ndtr(w) <= tau``
    on 2,001 consecutive doubles around ``ndtri(tau)`` and on both bracket
    ends and their neighbours. A bracket is kept exactly when it is
    certified; a threshold in [0, 1) that is not gets ``(-inf, +inf]``."""
    lo, hi = (end[0] for end in _cutoff_brackets(GM1, np.array([tau])))
    if tau < 0.0:
        assert (lo, hi) == (-np.inf, -np.inf)  # opted out: nothing clears
    elif tau >= 1.0:
        assert (lo, hi) == (np.inf, np.inf)  # everything clears
    else:
        c = ndtri(tau)
        d = 1e-6 * max(1.0, abs(c)) if np.isfinite(c) else 0.0
        certified = (
            tau >= np.finfo(float).tiny
            and ndtr(c - d) <= tau * (1 - 1e-9)
            and ndtr(c + d) >= tau * (1 + 1e-9)
        )
        assert (lo, hi) == ((c - d, c + d) if certified else (-np.inf, np.inf))
    if tau in (0.0, 5e-324, 1 - 2**-53):
        assert (lo, hi) == (-np.inf, np.inf)
    if tau in (np.finfo(float).tiny, 1e-300, 0.5):
        assert np.isfinite([lo, hi]).all()
    ends = [e for end in (lo, hi) if np.isfinite(end) for e in _doubles_around(end, 1)]
    centre = ndtri(min(max(tau, 0.0), 1.0))
    around = _doubles_around(centre, 1000) if np.isfinite(centre) else [-40.0, 0.0, 40.0]
    assert (np.diff(around) > 0.0).all()
    ws = np.concatenate([around, ends])
    decided = np.where(ws <= lo, True, np.where(ws > hi, False, ndtr(ws) <= tau))
    assert decided.tolist() == (ndtr(ws) <= tau).tolist()
    assert [end.tolist() for end in _cutoff_brackets(TABULATED, np.array([tau]))] == [[tau]] * 2
