"""Scalar reference implementations that the array code replaced.

Each is the former library code, kept verbatim in spirit: one type, one
threshold or one interval at a time, or for the simulator and its p-value
sampler boolean masks. The array paths must reproduce them (bit for bit
where both evaluate the same library functions). ``matched_tdr`` and
``fdr_gap`` are former library helpers that only tests read.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

import statmenus as sm
from statmenus import evaluation
from statmenus.contracts import PARTICIPATION_SLACK, best_response

_MAX_DEPTH = 48
# The scalar FDR bisection's first bracket is [_BISECT_LO, 1], and it halves
# a bracket at most _BISECT_MAX_ITER times.
_BISECT_LO = 1e-12
_BISECT_MAX_ITER = 1100


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
    lo, hi = _BISECT_LO, 1.0
    if sm.fdr(q, lo, model) > alpha:
        lo, hi = float(np.finfo(float).tiny), lo
        if sm.fdr(q, lo, model) > alpha:
            return 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if sm.fdr(q, mid, model) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo


def log_linear_curve(theta1=1.5):
    """The Gaussian power curve on 64 log-spaced knots in [1e-6, 0.05) and 193
    linear knots on [0.05, 1], as the tabulated benchmark workload's curve."""
    logs = np.exp(np.linspace(np.log(1e-6), np.log(0.05), 65)[:-1])
    taus = np.concatenate([[0.0], logs, np.linspace(0.05, 1.0, 193)])
    return sm.tabulated_model(taus, sm.power(sm.gaussian_model(theta1), taus))


# The library's Gaussian FDR thresholds and the scalar bisection's both meet
# the contract below, but the predicate FDR(q, tau) <= alpha flips back and
# forth near its root, and the two may stop at different flips. At tau >= 1e-12
# they differed by at most 1e-12 relative over 6,000 random draws at effects
# 0.05 to 10. Below 1e-12 the flips spread wider. With z = Phi^-1(tau), rounding moves beta1(tau) / tau
# by about z^2 eps relative, and a relative change of tau moves it by about
# theta / |z|, so the flips cover about |z|^3 eps / theta of tau: 2.3e-10 at
# effect 0.05 and tau near 1e-299, |z| = 37. Tabulated thresholds are the
# scalar bisection's bit for bit.
FDR_THRESHOLD_RTOL = 1e-10
FDR_DEEP_TAIL_RTOL = 1e-9  # for thresholds below _BISECT_LO


def fdr_threshold_rtol(tau):
    """The relative distance allowed between a Gaussian FDR threshold and the
    scalar bisection's ``tau``, elementwise."""
    return np.where(np.asarray(tau) < _BISECT_LO, FDR_DEEP_TAIL_RTOL, FDR_THRESHOLD_RTOL)


def meets_fdr_threshold_contract(q, alpha, model, tau):
    """Elementwise: is ``tau`` the largest threshold keeping FDR(q, tau) within
    ``alpha``, as far as doubles go? FDR(q, tau) <= alpha holds at an interior
    tau (at least the smallest normal double) and fails at the next double up;
    tau = 1 only where FDR(q, 1) <= alpha, and tau = 0 only for q = 1 or where
    both 1e-12 and the smallest normal double are over budget."""
    q, tau = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(tau, dtype=float))
    floor = np.finfo(float).tiny
    within = sm.fdr(q, tau, model) <= alpha
    interior = within & (sm.fdr(q, np.nextafter(tau, 1.0), model) > alpha) & (tau >= floor)
    over = (sm.fdr(q, _BISECT_LO, model) > alpha) & (sm.fdr(q, floor, model) > alpha)
    return np.where(tau == 1.0, within, np.where(tau == 0.0, (q == 1.0) | over, interior))


@dataclass(frozen=True)
class SelectionOutcome:
    """Report chosen by an agent (None means opt out) and the best utility found."""

    report: Optional[float]
    utility: float


def scalar_select(q, menu, model):
    """One utility call per contract; the first strict improvement wins, and
    the agent opts out below ``-PARTICIPATION_SLACK``."""
    best_p = None
    best_u = -float("inf")
    for p, contract in zip(menu.support, menu.contracts):
        u = sm.utility(q, contract, model)
        if u > best_u:
            best_u = u
            best_p = p
    if best_u < -PARTICIPATION_SLACK:
        return SelectionOutcome(report=None, utility=best_u)
    return SelectionOutcome(report=best_p, utility=best_u)


def bracket_principal_return(menu, base, q, model):
    """Principal's return at one type as the difference of its (cost - reward
    * approval) brackets under the type's best contract and the base."""
    contract = menu.contract_for(scalar_select(q, menu, model).report)

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


def matched_tdr(points, fdr_values):
    """TDR of a frontier curve at given FDR abscissae by monotone linear
    interpolation; NaN outside the curve's FDR range, so comparisons skip
    unmatched regions."""
    order = np.argsort([p.fdr for p in points])
    f = np.array([points[i].fdr for i in order])
    t = np.array([points[i].tdr for i in order])
    out = np.interp(fdr_values, f, t)
    return np.where((fdr_values < f[0]) | (fdr_values > f[-1]), np.nan, out)


def fdr_gap(q, p, scenario):
    """Signed FDR violation for a true type ``q`` reporting ``p``."""
    if not 0.0 < p < 1.0 or not 0.0 < q < 1.0:
        raise ValueError("gap defined for interior types and reports only")
    tau = scenario.threshold_at(p)
    designed_term = (1.0 - p) / p * sm.power(scenario.designed, tau)
    actual_term = (1.0 - q) / q * sm.power(scenario.actual, tau)
    return designed_term - actual_term


@dataclass(frozen=True)
class MisreportResult:
    """Report chosen under misspecification; ``interior`` is False when the
    solver fell back to the best supported boundary report."""

    report: float
    interior: bool


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
        return MisreportResult(report=float(support[np.argmax(utilities)]), interior=False)
    best_root = max(roots, key=nearest_utility)
    if max(utilities[0], utilities[-1]) > nearest_utility(best_root):
        boundary = lo if utilities[0] >= utilities[-1] else hi
        return MisreportResult(report=float(boundary), interior=False)
    return MisreportResult(report=best_root, interior=True)


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


def masked_sample_pvalues(model, is_null, rng):
    """P-values for the boolean mask ``is_null`` by boolean-mask scatters:
    uniforms for the null entries, then the alternative draws (normals for a
    Gaussian model, uniforms through the inverted power table otherwise)."""
    is_null = np.asarray(is_null, dtype=bool)
    out = np.empty(is_null.shape, dtype=float)
    n_null = int(is_null.sum())
    n_alt = is_null.size - n_null
    out[is_null] = rng.random(n_null)
    if n_alt:
        if model.kind == "gaussian_mean":
            z = model.theta1 + rng.standard_normal(n_alt)
            out[~is_null] = ndtr(-z)  # 1 - Phi(z) without cancellation
        else:
            u = rng.random(n_alt)
            out[~is_null] = np.interp(u, model.betas, model.taus)
    return out


def masked_simulate_chunk(menu, selection, population, model, size, seed_child, stratified):
    """A simulation of ``size`` agents one by one, as boolean masks over the
    agents: types by ``Generator.choice`` (a discrete population's weights,
    allocated by ``_stratified_counts`` when stratified) or
    ``Generator.uniform``, each agent's contract, p-value and approval, and
    one masked ``bincount`` per tally. Returns the (agents, participating,
    null, approved null, approved non-null) x slots count matrix and the
    principal's cash. A discrete population's slots are its types; a
    continuous one's are the menu's contracts, then opting out."""
    rng = np.random.default_rng(seed_child)

    if population.kind == "discrete":
        n_types = len(population.types)
        if stratified:
            counts = evaluation._stratified_counts(np.array(population.weights), size)
            type_idx = np.repeat(np.arange(n_types), counts)
        else:
            type_idx = rng.choice(n_types, size=size, p=np.array(population.weights))
        q = np.array(population.types)[type_idx]
        choice, best = (per_type[type_idx] for per_type in selection)
    else:
        n_types = len(menu.taus) + 1
        q = rng.uniform(population.lo, population.hi, size=size)
        choice, best = best_response(q, *selection)

    participate = best >= -PARTICIPATION_SLACK
    if population.kind != "discrete":
        type_idx = np.where(participate, choice, len(menu.taus))

    is_null = rng.random(size) < q
    pvals = masked_sample_pvalues(model, is_null, rng)
    approve = participate & (pvals <= menu.taus[choice])

    cash = float(np.sum(np.where(participate, menu.costs[choice], 0.0))) - float(
        np.sum(np.where(approve, menu.rewards[choice], 0.0))
    )
    tallied = [type_idx] + [
        type_idx[mask] for mask in (participate, is_null, approve & is_null, approve & ~is_null)
    ]
    return np.array([np.bincount(idx, minlength=n_types) for idx in tallied]), cash
