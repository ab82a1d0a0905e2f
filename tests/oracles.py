"""Scalar reference implementations that the array code replaced.

Each is the former library code, kept verbatim in spirit: one type, one
threshold or one interval at a time. The array paths must reproduce them
(bit for bit where both evaluate the same library functions).
"""

import math

import numpy as np

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
    """Largest threshold keeping FDR(q, tau) within alpha, by scalar bisection
    on [1e-12, 1], or on [smallest normal double, 1e-12] for a type over
    budget at 1e-12; 0 (approve nothing) when over budget at both."""
    if q == 0.0:
        return 1.0
    if q == 1.0:
        return 0.0
    if sm.fdr(q, 1.0, model) <= alpha:
        return 1.0
    lo, hi = objectives._BISECT_LO, 1.0
    if sm.fdr(q, lo, model) > alpha:
        lo, hi = float(np.finfo(float).tiny), lo
        if sm.fdr(q, lo, model) > alpha:
            return 0.0
    for _ in range(objectives._BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if sm.fdr(q, mid, model) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo


def bracket_principal_return(menu, base, q, model):
    """Principal's return at one type as the difference of its (cost - reward
    * approval) brackets under the type's best contract and the base."""
    contract = menu.contract_for(sm.select(q, menu, model).report)

    def cash(c):
        return c.cost - sm.zero_utility_cost(q, c.tau, c.reward, model)

    return cash(contract) - cash(base)


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


def scalar_misspecified_report(q, scenario, tol=1e-8, scan=129):
    """Misreport of a type-q agent: a scan for sign changes, then one scalar
    bisection per bracket, then arbitration against the boundary reports."""
    if not 0.0 < q < 1.0:
        raise ValueError("misreport defined for interior types only")
    lo, hi = scenario.menu.support[0], scenario.menu.support[-1]

    def residual(p):
        tau = scenario.threshold_at(p)
        return (
            q
            + (1.0 - q) * sm.power_derivative(scenario.actual, tau)
            - p
            - (1.0 - p) * sm.power_derivative(scenario.designed, tau)
        )

    grid = np.linspace(lo, hi, scan)
    vals = residual(grid)
    roots = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | ((vals[:-1] < 0.0) != (vals[1:] < 0.0))):
        a, b, fa = float(grid[i]), float(grid[i + 1]), vals[i]
        if fa == 0.0:
            roots.append(a)
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            if b - a <= tol or mid in (a, b):
                break
            f_mid = residual(mid)
            if (f_mid < 0.0) == (fa < 0.0):
                a, fa = mid, f_mid
            else:
                b = mid
        roots.append(0.5 * (a + b))

    support = np.array(scenario.menu.support)
    slopes, intercepts = scenario.menu.lines(scenario.actual)
    utilities = q * slopes + intercepts

    def nearest_utility(r):
        return utilities[np.argmin(np.abs(support - r))]

    if not roots:
        return sm.MisreportResult(report=float(support[np.argmax(utilities)]), interior=False)
    best_root = max(roots, key=nearest_utility)
    if max(utilities[0], utilities[-1]) > nearest_utility(best_root):
        boundary = lo if utilities[0] >= utilities[-1] else hi
        return sm.MisreportResult(report=float(boundary), interior=False)
    return sm.MisreportResult(report=best_root, interior=True)


def scalar_tau_bar(model):
    """Largest threshold with power slope above 1 on a tabulated curve: 100
    scalar bisection steps on [1e-6, 1 - 1e-6], edges by their tests."""
    lo, hi = 1e-6, 1.0 - 1e-6
    if sm.power_derivative(model, lo) <= 1.0:
        return lo
    if sm.power_derivative(model, hi) > 1.0:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if sm.power_derivative(model, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_finite_menu(types, thresholds, terminal, eps, lam, model):
    """Finite menu by the backward recursion, one type at a time: each reward
    is the next one times the power-margin ratio plus the slack, and each cost
    sits at fraction ``lam`` of its admissible interval."""
    n = len(types)
    eps = [float(eps)] * (n - 1) if np.ndim(eps) == 0 else [float(e) for e in eps]
    betas = [sm.power(model, t) for t in thresholds]
    deltas = [b - t for b, t in zip(betas, thresholds)]
    rewards, costs = [0.0] * n, [0.0] * n
    rewards[-1], costs[-1] = float(terminal[0]), float(terminal[1])
    for i in range(n - 2, -1, -1):  # transition between types[i] and types[i+1]
        rewards[i] = rewards[i + 1] * deltas[i + 1] / deltas[i] + eps[i]
        slope_gap = rewards[i + 1] * deltas[i + 1] - rewards[i] * deltas[i]
        base_term = rewards[i] * betas[i] - rewards[i + 1] * betas[i + 1] + costs[i + 1]
        left = types[i + 1] * slope_gap + base_term
        right = types[i] * slope_gap + base_term
        if not right > left:
            raise sm.InfeasibleMenuError(f"empty cost interval at step {i + 1}")
        costs[i] = left + lam * (right - left)
    contracts = tuple(sm.Contract(t, r, c) for t, r, c in zip(thresholds, rewards, costs))
    return sm.Menu(support=tuple(types), contracts=contracts)
