"""Menu constructions.

Every separating menu corresponds to a convex potential G on the reported
types: G(p) is the truthful-reporting utility of type p and its subgradient
g_p < 0 pins down the reward through

    R_p = g_p / (beta0(tau_p) - beta1(tau_p)),
    c_p = R_p * [p * tau_p + (1 - p) * beta1(tau_p)] - G(p).

``build_from_potential`` applies that recipe to any valid potential. The
varying-reward family (whose screening cost shrinks with a slack schedule
epsilon) and the unique constant-reward menu (whose potential is pinned
down by the power function) are integral potentials, and finitely many
types get a discrete potential; all four feed the same recipe. The converse
direction (recovering and validating the potential of an existing menu)
serves as an independent verification oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ._quad import adaptive_simpson
from .contracts import PARTICIPATION_SLACK, Contract, Menu, _first_violation, utility
from .contracts import verify_separating, zero_utility_cost
from .errors import InfeasibleMenuError, InvalidPotentialError
from .objectives import _FLOOR, PrincipalObjective, _bisect, _fdr_odds, optimal_threshold
from .objectives import type_for_threshold
from .testmodel import TestModel, _float_or_array, _power_derivative, normal_cdf, power
from .testmodel import power_derivative

__all__ = [
    "GPotential",
    "EpsilonSchedule",
    "quadratic_schedule",
    "tabulated_schedule",
    "tabulated_potential",
    "varying_reward_potential",
    "fixed_reward_potential",
    "validate_potential",
    "recover_potential",
    "build_from_potential",
    "build_varying_reward",
    "build_fixed_reward",
    "build_finite_menu",
    "elicitable_range",
    "fixed_cost_feasible",
]

# Absolute tolerance of each adaptive Simpson piece of a cost integral, well
# below the IC margin. The pieces end at the support's points and at the
# integrand's kinks (a tabulated curve's or schedule's knots); the tests hold
# every segment between support points within this tolerance of a reference.
INTEGRAL_TOL = 1e-10
PARTICIPATION_TOL = 1e-8


@dataclass(frozen=True)
class GPotential:
    """Convex potential: truthful utility values on an increasing support
    (``values``) and negative subgradients (``subgradient``, elementwise)."""

    values: Callable[[Sequence[float]], np.ndarray]
    subgradient: Callable[[np.ndarray], np.ndarray]

    def value(self, q: float) -> float:
        return float(self.values([q])[0])


def tabulated_potential(
    points: Sequence[float], values: Sequence[float], subgradients: Sequence[float]
) -> GPotential:
    """Discrete potential from user-supplied values and subgradients.

    Subgradients are taken as given and validated by the builders, never
    inferred from the values.
    """
    points = tuple(float(p) for p in points)
    if not points:
        raise ValueError("a tabulated potential needs at least one point")
    if len(set(points)) != len(points) or not np.all(np.isfinite(points)):
        raise ValueError("potential points must be finite and distinct")
    if not len(points) == len(values) == len(subgradients):
        raise ValueError("points, values, and subgradients must align")
    val = dict(zip(points, map(float, values)))
    sub = dict(zip(points, map(float, subgradients)))

    def lookup(table, qs):
        try:
            found = [table[q] for q in np.ravel(qs).tolist()]
        except KeyError as missing:
            raise KeyError(
                f"potential tabulated only on its support; no value at {missing.args[0]!r}"
            ) from None
        return _float_or_array(np.reshape(found, np.shape(qs)))

    return GPotential(values=lambda ps: lookup(val, ps), subgradient=lambda qs: lookup(sub, qs))


def _antiderivative(f, points, kinks) -> np.ndarray:
    """F(points) - F(min(points)) for an antiderivative F of the elementwise
    ``f``: one adaptive Simpson pass over the sorted points and the ``kinks``
    strictly between them, so that every piece is smooth, summed from the
    left."""
    kinks = np.asarray(kinks, dtype=float)
    nodes = np.union1d(points, kinks[(points.min() < kinks) & (kinks < points.max())])
    F = np.cumsum(np.append(0.0, adaptive_simpson(f, nodes, INTEGRAL_TOL)))
    return F[np.searchsorted(nodes, points)]


def _integral_potential(
    scale: float, density: Callable[[np.ndarray], np.ndarray], q_bar: float, kinks
) -> GPotential:
    """G(q) = scale * integral of the elementwise ``density`` from q to the
    worst type q_bar, split at the density's ``kinks``."""

    def values(ps: Sequence[float]) -> np.ndarray:
        F = _antiderivative(density, np.append(ps, q_bar), kinks)
        return scale * (F[-1] - F[:-1])

    return GPotential(values=values, subgradient=lambda q: -scale * density(q))


@dataclass(frozen=True)
class EpsilonSchedule:
    """Slack schedule for the varying-reward family.

    Must be positive and strictly decreasing below the worst type, with
    value ~0 there; smaller schedules leave less rent on the table.
    """

    kind: str
    eta: Optional[float] = None
    zs: Optional[Tuple[float, ...]] = None
    values: Optional[Tuple[float, ...]] = None

    def value(self, z):
        """eps(z), elementwise."""
        if self.kind == "quadratic":
            return _float_or_array(self.eta * (1.0 - np.asarray(z, dtype=float)) ** 2)
        return _float_or_array(np.interp(z, self.zs, self.values))


def quadratic_schedule(eta: float) -> EpsilonSchedule:
    """eps(z) = eta * (1 - z)^2."""
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    return EpsilonSchedule(kind="quadratic", eta=float(eta))


def tabulated_schedule(zs: Sequence[float], values: Sequence[float]) -> EpsilonSchedule:
    """Piecewise-linear schedule through the given knots."""
    if len(zs) != len(values) or len(zs) < 2:
        raise ValueError("schedule needs matching knot sequences of length >= 2")
    zs, values = tuple(map(float, zs)), tuple(map(float, values))
    if not np.all(np.isfinite(zs + values)):
        raise ValueError("schedule knots must be finite")
    if not np.all(np.diff(zs) > 0.0):
        raise ValueError("schedule knots must be strictly increasing")
    return EpsilonSchedule(kind="tabulated", zs=zs, values=values)


def _validate_schedule(eps: EpsilonSchedule, q_bar: float) -> None:
    grid = np.linspace(0.0, q_bar, 129)
    if eps.kind == "tabulated":  # a piecewise-linear schedule turns at its knots
        grid = np.union1d(grid, [z for z in eps.zs if 0.0 < z < q_bar])
    vals = eps.value(grid)
    if not np.all(vals[:-1] > 0.0):
        raise ValueError("slack schedule must be strictly positive below the worst type")
    if not np.all(np.diff(vals) < 0.0):
        raise ValueError("slack schedule must be strictly decreasing")
    if not vals[-1] >= -1e-12:
        raise ValueError("slack schedule must be nonnegative at the worst type")


def _potential_issue(ps, values, subgrads, tol: float) -> Optional[str]:
    """First violated potential condition on the given support, or None.
    The supporting lines (slope g_j, intercept G(p_j) - g_j p_j) are checked
    as a menu's lines, at slack ``tol``, and named point-first."""
    ps, values, subgrads = (np.asarray(x, dtype=float) for x in (ps, values, subgrads))
    bad = np.flatnonzero(~(subgrads < tol))
    if len(bad):
        return f"subgradient at {ps[bad[0]]:.6g} is {subgrads[bad[0]]:.6g}, expected < 0"
    with np.errstate(all="ignore"):  # inf/nan compare as the scalar floats would
        intercepts = values - subgrads * ps
        _, v = _first_violation(ps, subgrads, intercepts, -tol, -np.inf)
    if v is not None:
        return (
            f"supporting line at {v.p:.6g} not strictly below the potential "
            f"at {v.q:.6g} (gap {v.gap:.3g})"
        )
    if not values[-1] >= -tol:
        return f"potential at the worst type {ps[-1]:.6g} is {values[-1]:.6g}, expected >= 0"
    return None


def _checked_potential(G: GPotential, ps: Sequence[float], tol: float):
    """Values and subgradients of G on ``ps``; raises on the first violated
    separating-menu condition."""
    if len(ps) == 0:
        raise ValueError("potential support must be nonempty")
    if not (np.all(np.isfinite(ps)) and np.all(np.diff(ps) > 0.0)):
        raise ValueError("support must be finite and strictly increasing")
    values, subgrads = G.values(ps), G.subgradient(ps)
    issue = _potential_issue(ps, values, subgrads, tol)
    if issue is not None:
        raise InvalidPotentialError(issue)
    return values, subgrads


def validate_potential(G: GPotential, support: Sequence[float], tol: float = 0.0) -> None:
    """Raise unless G satisfies the separating-menu conditions on ``support``.

    Checks g_p < 0, the strict supporting-line inequality for every ordered
    pair, and nonnegativity at the largest supported type, all with slack
    ``tol``.
    """
    _checked_potential(G, np.asarray(support, dtype=float), tol)


def recover_potential(menu: Menu, model: TestModel) -> GPotential:
    """Potential induced by an existing menu: values are truthful utilities,
    subgradients the utility slopes R_p [beta0 - beta1]."""
    slopes, intercepts = menu.lines(model)
    return tabulated_potential(menu.support, slopes * np.array(menu.support) + intercepts, slopes)


def _checked_thresholds(thresholds, model) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    ps, taus = np.array(thresholds, dtype=float).reshape(-1, 2).T
    if not (np.all(np.isfinite(ps)) and np.all(np.diff(ps) > 0.0)):
        raise ValueError("threshold types must be finite and strictly increasing")
    deltas = power(model, taus) - taus
    flat = np.flatnonzero(deltas <= 0.0)
    if len(flat):
        i = flat[0]
        raise ValueError(
            f"no power margin at tau={taus[i]:.6g} (type {ps[i]:.6g}); interior thresholds required"
        )
    return ps, taus, deltas


def _menu(ps, taus, rewards, values, model: TestModel, terminal: Optional[Contract] = None) -> Menu:
    """Contracts whose truthful utilities are the potential values: type p
    rejects with probability p tau + (1 - p) beta1(tau), so
    c_p = R_p [p tau + (1 - p) beta1(tau)] - G(p). A ``terminal`` contract's
    reward and cost replace the last contract's as given."""
    costs = zero_utility_cost(ps, taus, rewards, model) - values
    if terminal is not None:
        rewards = np.append(rewards[:-1], terminal.reward)
        costs = np.append(costs[:-1], terminal.cost)
    return Menu._from_columns(ps, taus, rewards, costs)


def _separating(menu: Menu, model: TestModel) -> Menu:
    """``menu``, unless it fails ``verify_separating`` at the default IC
    margin: thresholds with almost no power margin separate types by less
    than the margin, however valid the potential."""
    report = verify_separating(menu, model=model)
    if not report.passed:
        raise InfeasibleMenuError(f"menu does not separate: {report.describe()}")
    return menu


def build_from_potential(
    G: GPotential, thresholds: Sequence[Tuple[float, float]], model: TestModel
) -> Menu:
    """General construction: contracts from a valid potential and a threshold
    assignment on the same support."""
    ps, taus, deltas = _checked_thresholds(thresholds, model)
    values, subgrads = _checked_potential(G, ps, 0.0)
    return _separating(_menu(ps, taus, -subgrads / deltas, values, model), model)


def build_varying_reward(
    base: Contract,
    eps: EpsilonSchedule,
    thresholds: Sequence[Tuple[float, float]],
    model: TestModel,
) -> Menu:
    """Varying-reward family anchored at a zero-utility base contract.

    ``base`` is the contract intended for the worst type (the largest type
    in ``thresholds``) and must satisfy the worst-case participation
    condition: the worst type is exactly indifferent to opting out. The
    menu comes from ``varying_reward_potential`` through
    ``build_from_potential``, which raises ``InvalidPotentialError`` if
    that potential fails the separating-menu conditions on the support.
    """
    ps, taus, _ = _checked_thresholds(thresholds, model)
    q_bar, tau_bar = float(ps[-1]), float(taus[-1])
    if abs(base.tau - tau_bar) > 1e-12:
        raise ValueError(
            f"base threshold {base.tau!r} must match the worst type's threshold {tau_bar!r}"
        )
    slack = utility(q_bar, base, model)
    if abs(slack) > PARTICIPATION_TOL:
        raise ValueError(
            f"base contract must give the worst type zero utility, got {slack:.3g}"
        )
    _validate_schedule(eps, q_bar)
    return build_from_potential(varying_reward_potential(base, q_bar, eps, model), thresholds, model)


def elicitable_range(objective: PrincipalObjective, model: TestModel) -> Tuple[float, float]:
    """Limits of constant-reward separation: (q_lo, tau_bar).

    ``tau_bar`` is the largest threshold with beta1'(tau) > 1 and ``q_lo``
    the type assigned that threshold; only types in [q_lo, 1] can be given
    constant-reward contracts.
    """
    if model.kind == "gaussian_mean":
        tau_bar = normal_cdf(-0.5 * model.theta1)
    else:
        lo, hi = 1e-6, 1.0 - 1e-6
        if power_derivative(model, lo) <= 1.0:
            tau_bar = lo
        elif power_derivative(model, hi) > 1.0:
            tau_bar = hi
        else:
            # the midpoints lie inside (lo, hi), so they skip the range check
            lo, hi = _bisect(lambda mid: _power_derivative(model, mid) > 1.0, [lo], [hi])
            tau_bar = float(0.5 * (lo[0] + hi[0]))
    return type_for_threshold(tau_bar, objective, model), tau_bar


def _fdr_potential(reward: float, taus, alpha: float, model: TestModel) -> np.ndarray:
    """Constant-reward potential at the types with FDR thresholds ``taus``,
    vanishing at the last: ``reward`` times the integral of the power margin
    beta1(tau(z)) - tau(z) over the types up to the last one.

    Where the budget binds, beta1(tau) = c tau z / (1 - z) with
    c = (1 - alpha) / alpha, and the threshold map has the closed-form
    inverse Q (``type_for_threshold``). With W(z) = -z - log1p(-z), whose
    derivative is z / (1 - z), integrating by parts makes the margin
    integral between two types the difference of H(t) = t A(t) - integral
    of A, with A(t) = c W(Q(t)) - Q(t), at their thresholds, so no type in
    between is bisected. Each end is taken on the binding curve, at
    (Q(tau), tau) with tau clipped to [_FLOOR, 1]: Q(tau_i) is z_i to
    rounding where the budget binds. Where it does not, the margin is 0, and
    the clip moves the end to the binding range's: Q(1) = alpha for a type
    given threshold 1, and Q(_FLOOR) for a type over budget even at the
    floor. The integral of A is split at a tabulated curve's knots, where Q
    has kinks. Assumes beta1(tau) / tau nonincreasing, as the threshold
    map's bisection does.
    """
    c = (1.0 - alpha) / alpha

    def along(t):  # c W(Q(t)) - Q(t); with r the odds of Q, W(Q) = log1p(r) - Q
        r = _fdr_odds(t, alpha, model)
        q = r / (1.0 + r)
        return c * (np.log1p(r) - q) - q

    ts = np.clip(taus, _FLOOR, 1.0)
    kinks = model.taus if model.kind == "tabulated" else ()
    H = ts * along(ts) - _antiderivative(along, ts, kinks)
    return reward * (H[-1] - H)


def fixed_reward_potential(
    reward: float, q_bar: float, objective: PrincipalObjective, model: TestModel
) -> GPotential:
    """Potential of the unique constant-reward menu: R * integral of the
    power margin along the threshold map, vanishing at the worst type.

    Under an FDR budget the integral is taken in threshold space by parts
    (``_fdr_potential``), so only the support's thresholds are bisected;
    under error costs the thresholds are closed form and the margin is
    integrated over the types.
    """
    if reward <= 0.0:
        raise ValueError(f"reward must be positive, got {reward!r}")

    def margin(z):
        tau = optimal_threshold(z, objective, model)
        return power(model, tau) - tau

    if objective.kind == "bayes":
        return _integral_potential(reward, margin, q_bar, ())

    def values(ps: Sequence[float]) -> np.ndarray:
        taus = optimal_threshold(np.append(ps, q_bar), objective, model)
        return _fdr_potential(reward, taus, objective.alpha, model)[:-1]

    return GPotential(values=values, subgradient=lambda q: -reward * margin(q))


def varying_reward_potential(
    base: Contract, q_bar: float, eps: EpsilonSchedule, model: TestModel
) -> GPotential:
    """Potential of the varying-reward family: the base utility margin times
    the integral of 1 + eps up to the worst type."""
    scale = base.reward * (power(model, base.tau) - base.tau)
    if scale <= 0.0:
        raise ValueError("base contract must have a positive power margin")
    kinks = eps.zs if eps.kind == "tabulated" else ()
    return _integral_potential(scale, lambda z: 1.0 + eps.value(z), q_bar, kinks)


def build_fixed_reward(
    reward: float,
    q_lo: float,
    q_bar: float,
    objective: PrincipalObjective,
    model: TestModel,
    n: int = 129,
) -> Menu:
    """Unique constant-reward separating menu on the type range [q_lo, q_bar].

    Requires the range to sit inside the elicitable range, the power curve
    to have slope > 1 along the assigned thresholds, and the threshold map
    to be strictly decreasing there. The worst type pays the zero-utility
    cost; better types pay a surcharge for looser thresholds.
    """
    if reward <= 0.0:
        raise ValueError(f"reward must be positive, got {reward!r}")
    if not 0.0 < q_lo < q_bar < 1.0:
        raise ValueError(f"need 0 < q_lo < q_bar < 1, got [{q_lo!r}, {q_bar!r}]")
    if n < 2:
        raise ValueError("support needs at least two points")
    bound, tau_bar = elicitable_range(objective, model)
    if q_lo < bound - 1e-9:
        raise InfeasibleMenuError(
            f"constant-reward menus cannot reach below type {bound:.6g} "
            f"(power slope exceeds 1 only for thresholds up to {tau_bar:.6g}); "
            f"requested q_lo={q_lo:.6g}",
            bound=bound,
        )

    support = np.linspace(q_lo, q_bar, n)
    taus = optimal_threshold(support, objective, model)
    flat = np.flatnonzero(~(taus[1:] < taus[:-1]))
    if len(flat):
        i = flat[0]
        raise InfeasibleMenuError(
            f"threshold map not strictly decreasing between {support[i]:.6g} "
            f"and {support[i + 1]:.6g}"
        )
    shallow = np.flatnonzero(power_derivative(model, taus) <= 1.0 - 1e-9)
    if len(shallow):
        i = shallow[0]
        raise InfeasibleMenuError(
            f"power slope at tau={taus[i]:.6g} (type {support[i]:.6g}) must exceed 1", bound=bound
        )
    # The reward is passed as given: -g / delta can differ from it in the last bit.
    if objective.kind == "fdr":  # the support's thresholds are the integrals' ends
        values = _fdr_potential(reward, taus, objective.alpha, model)
    else:
        values = fixed_reward_potential(reward, q_bar, objective, model).values(support)
    return _separating(_menu(support, taus, np.full(n, float(reward)), values, model), model)


def _backward(last: float, steps: np.ndarray) -> np.ndarray:
    """x[-1] = last and x[i] = x[i + 1] - steps[i], summed from the top down."""
    return np.cumsum(np.append(last, -steps[::-1]))[::-1]


def build_finite_menu(
    types: Sequence[float],
    thresholds: Sequence[float],
    terminal: Tuple[float, float],
    eps: Sequence[float] | float,
    lam: float = 0.5,
    *,
    model: TestModel,
) -> Menu:
    """Discrete potential for finitely many types.

    Starting from a terminal (reward, cost) pair satisfying the worst
    type's participation constraint, the subgradients step down by the
    slack times the power margin, g_i = g_{i+1} - eps_i Delta_i, and the
    values along the chord slope (1 - lam) g_i + lam g_{i+1}, which places
    each cost at fraction ``lam`` of its admissible interval. Positive slack
    keeps the interval nonempty, so the result is separating for lam in
    (0, 1). The terminal contract is passed through as given.
    """
    if len(types) != len(thresholds):
        raise ValueError("need one threshold per type")
    types, taus, deltas = _checked_thresholds(list(zip(types, thresholds)), model)
    n = len(types)
    if n < 2:
        raise ValueError("finite construction needs at least two types")
    eps = np.full(n - 1, eps, dtype=float) if np.ndim(eps) == 0 else np.array(eps, dtype=float)
    if len(eps) != n - 1:
        raise ValueError(f"need {n - 1} slack values, got {len(eps)}")
    if not np.all(eps > 0.0):
        raise ValueError("slack values must be strictly positive")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    if lam in (0.0, 1.0):
        warnings.warn(
            "lam at an interval endpoint produces exact indifference between "
            "adjacent contracts; use an interior value for strict separation",
            stacklevel=2,
        )

    last = Contract(float(taus[-1]), float(terminal[0]), float(terminal[1]))
    terminal_utility = utility(types[-1], last, model)
    if terminal_utility < -PARTICIPATION_SLACK:
        raise InfeasibleMenuError(
            f"terminal contract violates participation for the worst type "
            f"{types[-1]:.6g} (utility {terminal_utility:.6g})"
        )

    subgrads = _backward(-last.reward * deltas[-1], eps * deltas[:-1])
    stuck = np.flatnonzero(~(subgrads[:-1] < subgrads[1:]))
    if len(stuck):  # a slack too small to register leaves an empty cost interval
        raise InfeasibleMenuError(f"empty cost interval above type {types[stuck[0]]:.6g}")
    chords = (1.0 - lam) * subgrads[:-1] + lam * subgrads[1:]
    values = _backward(terminal_utility, np.diff(types) * chords)
    menu = _menu(types, taus, -subgrads / deltas, values, model, terminal=last)
    return menu if lam in (0.0, 1.0) else _separating(menu, model)


def fixed_cost_feasible(tau1: float, tau2: float, model: TestModel) -> bool:
    """Whether a two-contract constant-cost menu can separate types whose
    thresholds are tau1 > tau2: requires the power-to-size ratio to be
    strictly increasing between them."""
    if tau1 == tau2:
        raise ValueError("thresholds must be distinct")
    if not 0.0 < tau2 < tau1 <= 1.0:
        raise ValueError(f"need 0 < tau2 < tau1 <= 1, got ({tau1!r}, {tau2!r})")
    return power(model, tau1) / tau1 > power(model, tau2) / tau2
