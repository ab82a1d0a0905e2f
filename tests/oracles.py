"""Scalar reference implementations that the array code replaced.

Each is the former library code, kept verbatim in spirit: one type, one
threshold or one interval at a time. The array paths must reproduce them
(bit for bit where both evaluate the same library functions).
"""

import math

import statmenus as sm
from statmenus import objectives

_MAX_DEPTH = 48


def _simpson(f_a, f_m, f_b, h):
    return h / 6.0 * (f_a + 4.0 * f_m + f_b)


def _recurse(f, a, b, f_a, f_m, f_b, whole, tol, depth, trace):
    trace.append(depth)
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    f_lm = f(lm)
    f_rm = f(rm)
    left = _simpson(f_a, f_lm, f_m, m - a)
    right = _simpson(f_m, f_rm, f_b, b - m)
    err = left + right - whole
    if depth >= _MAX_DEPTH or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _recurse(f, a, m, f_a, f_lm, f_m, left, half, depth + 1, trace) + _recurse(
        f, m, b, f_m, f_rm, f_b, right, half, depth + 1, trace
    )


def recursive_simpson(f, a, b, tol=1e-10, trace=None):
    """Adaptive Simpson on ``[a, b]`` by recursion, signed for ``a > b``;
    ``trace`` collects the depth of every interval refined."""
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    f_a = f(a)
    f_b = f(b)
    m = 0.5 * (a + b)
    f_m = f(m)
    whole = _simpson(f_a, f_m, f_b, b - a)
    return sign * _recurse(f, a, b, f_a, f_m, f_b, whole, tol, 0, [] if trace is None else trace)


def scalar_fdr_threshold(q, alpha, model):
    """Largest threshold keeping FDR(q, tau) within alpha, by scalar bisection."""
    if q == 0.0:
        return 1.0
    if q == 1.0:
        return 0.0
    if sm.fdr(q, 1.0, model) <= alpha:
        return 1.0
    lo, hi = objectives._BISECT_LO, 1.0
    if sm.fdr(q, lo, model) > alpha:
        return lo
    for _ in range(objectives._BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if sm.fdr(q, mid, model) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo


def scalar_bayes_threshold(q, omega0, omega1, model):
    """Bayes threshold of one type, boundary cases by their limits."""
    if omega1 == 0.0 or q == 1.0:
        return 0.0
    if q == 0.0 or omega0 == 0.0:
        return 1.0
    return sm.inverse_likelihood_ratio(model, q * omega0 / ((1.0 - q) * omega1))


def scalar_optimal_threshold(q, objective, model):
    """Type-optimal threshold of one type under either objective."""
    if objective.kind == "bayes":
        return scalar_bayes_threshold(q, objective.omega0, objective.omega1, model)
    return scalar_fdr_threshold(q, objective.alpha, model)


def scalar_gaussian_power(theta1, tau):
    """Gaussian power 1 - Phi(z_{1-tau} - theta1) through ``math.erfc``."""
    if tau == 0.0:
        return 0.0
    if tau == 1.0:
        return 1.0
    if tau <= 0.5:
        z = -sm.normal_quantile(tau)
    else:
        z = sm.normal_quantile(1.0 - tau)
    return 0.5 * math.erfc(-(theta1 - z) / math.sqrt(2.0))
