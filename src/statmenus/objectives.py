"""Principal objectives and the type-optimal threshold map q -> tau_q.

Two objectives are supported: a weighted sum of type I/II error costs
(``bayes``) and TDR maximization under an FDR budget (``fdr``). Either way
the principal's ideal threshold decreases in the agent's prior null
probability, and aggregating per-type performance over a population gives
the oracle value the menus are designed to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import StatMenusError, UnsupportedModelError
from .rates import _fdr, bayes_risk, tdr
from .testmodel import (
    TestModel,
    _float_or_array,
    _inverse_power_ratio,
    _power,
    _types,
    _unit_interval,
)
from .testmodel import inverse_likelihood_ratio, likelihood_ratio

__all__ = [
    "PrincipalObjective",
    "TypePopulation",
    "bayes_objective",
    "fdr_objective",
    "discrete_population",
    "uniform_population",
    "bayes_threshold",
    "fdr_threshold",
    "optimal_threshold",
    "type_for_threshold",
    "threshold_map",
    "oracle_bayes_risk",
    "oracle_tdr",
]

WEIGHT_SUM_TOL = 1e-12
# An FDR threshold is searched on [_LOW, 1], or on [_FLOOR, _LOW] for a type
# over budget at _LOW; _FLOOR is the smallest normal double.
_LOW = 1e-12
_FLOOR = float(np.finfo(float).tiny)
# The bracket checked around a threshold's start is the start +- this many
# ulps, widened by the factor until its ends check.
_BRACKET_ULPS = 64.0
_BRACKET_WIDEN = 16.0
_SMALLEST_LEVEL = np.nextafter(0.0, 1.0)
# A power-to-size ratio that rises by no more than this, relative, is rounding.
_RATIO_ROUNDING = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class PrincipalObjective:
    """Either error-cost weights (omega0, omega1) or an FDR budget alpha."""

    kind: str
    omega0: Optional[float] = None
    omega1: Optional[float] = None
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind == "bayes":
            if self.omega0 is None or self.omega1 is None or self.alpha is not None:
                raise ValueError("bayes objective takes omega0 and omega1 only")
            if not (self.omega0 >= 0.0 and self.omega1 >= 0.0 and self.omega0 + self.omega1 > 0.0):
                raise ValueError("error costs must be nonnegative with positive sum")
        elif self.kind == "fdr":
            if self.alpha is None or self.omega0 is not None or self.omega1 is not None:
                raise ValueError("fdr objective takes alpha only")
            if not 0.0 < self.alpha < 1.0:
                raise ValueError(f"FDR budget must lie in (0, 1), got {self.alpha!r}")
        else:
            raise ValueError(f"unknown objective kind {self.kind!r}")


def bayes_objective(omega0: float, omega1: float) -> PrincipalObjective:
    return PrincipalObjective(kind="bayes", omega0=float(omega0), omega1=float(omega1))


def fdr_objective(alpha: float) -> PrincipalObjective:
    return PrincipalObjective(kind="fdr", alpha=float(alpha))


@dataclass(frozen=True)
class TypePopulation:
    """Distribution over prior-null probabilities q.

    ``discrete`` holds weighted atoms; ``uniform_grid`` is a continuous
    uniform on [lo, hi] evaluated on an n-point grid (composite trapezoid
    for expectations).
    """

    kind: str
    types: Optional[Tuple[float, ...]] = None
    weights: Optional[Tuple[float, ...]] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind == "discrete":
            if not self.types:
                raise ValueError("discrete population needs at least one type")
            if any(not 0.0 <= q <= 1.0 for q in self.types):
                raise ValueError("types must lie in [0, 1]")
            if any(b <= a for a, b in zip(self.types, self.types[1:])):
                raise ValueError("types must be strictly increasing")
            if len(self.weights) != len(self.types):
                raise ValueError("weights must match types")
            if any(not w >= 0.0 for w in self.weights):
                raise ValueError("weights must be nonnegative")
            if not abs(sum(self.weights) - 1.0) <= WEIGHT_SUM_TOL:
                raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}")
        elif self.kind == "uniform_grid":
            if self.lo is None or self.hi is None or not 0.0 <= self.lo < self.hi <= 1.0:
                raise ValueError("uniform_grid needs 0 <= lo < hi <= 1")
            if self.n is None or self.n < 2:
                raise ValueError("uniform_grid needs n >= 2 grid points")
        else:
            raise ValueError(f"unknown population kind {self.kind!r}")

    def points(self) -> np.ndarray:
        """Evaluation grid: the atoms, or the uniform grid."""
        if self.kind == "discrete":
            return np.array(self.types)
        return np.linspace(self.lo, self.hi, self.n)

    def average(self, values: Sequence[float]) -> float:
        """Population mean of ``values`` given at ``points()`` (weighted sum
        or trapezoid rule)."""
        values = np.asarray(values, dtype=float)
        if self.kind == "discrete":
            return float(np.dot(np.array(self.weights), values))
        return float(np.trapezoid(values, self.points()) / (self.hi - self.lo))


def discrete_population(
    types: Sequence[float], weights: Optional[Sequence[float]] = None
) -> TypePopulation:
    """Discrete population; weights default to equal."""
    types = tuple(float(q) for q in types)
    if weights is None:
        weights = (1.0 / len(types),) * len(types)
    return TypePopulation(kind="discrete", types=types, weights=tuple(float(w) for w in weights))


def uniform_population(lo: float, hi: float, n: int = 1024) -> TypePopulation:
    return TypePopulation(kind="uniform_grid", lo=float(lo), hi=float(hi), n=int(n))


def bayes_threshold(q, objective: PrincipalObjective, model: TestModel):
    """Threshold minimizing the weighted error risk for known types ``q``,
    elementwise.

    Thresholds the likelihood ratio at q*omega0 / ((1-q)*omega1), mapped to
    the p-value scale. Boundary types resolve by taking limits: q=0 -> 1,
    q=1 -> 0; omega1=0 makes false negatives costless, so tau=0. An underflowed
    level is clamped to the smallest subnormal, whose threshold is the limit 1.
    """
    if objective.kind != "bayes":
        raise ValueError("bayes_threshold requires a bayes objective")
    q = _types(q)
    tau = np.where((q == 1.0) | (objective.omega1 == 0.0), 0.0, 1.0)  # the limits
    inner = (0.0 < q) & (q < 1.0) & (objective.omega0 > 0.0) & (objective.omega1 > 0.0)
    if inner.any():
        q = np.where(inner, q, 0.5)  # boundary types keep their limits
        ratio = np.maximum(q * objective.omega0 / ((1.0 - q) * objective.omega1), _SMALLEST_LEVEL)
        tau = np.where(inner, inverse_likelihood_ratio(model, ratio), tau)
    return _float_or_array(tau)


def _bisect(below, lo, hi, *data):
    """Final ``(lo, hi)`` of brackets with ``below(lo)`` true and ``below(hi)``
    false. ``below(mid, *data)`` sees the live brackets' midpoints and ``data``
    only. A bracket stops once its midpoint is not strictly inside it, which
    halving a bracket of doubles always reaches."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    out_lo, out_hi, idx = lo.copy(), hi.copy(), np.arange(len(lo))
    while len(idx):
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.all():
            out_lo[idx[~live]], out_hi[idx[~live]] = lo[~live], hi[~live]
            idx, lo, hi, mid = idx[live], lo[live], hi[live], mid[live]
            data = tuple(d[live] for d in data)
            if not len(idx):
                break
        go = below(mid, *data)
        lo, hi = np.where(go, mid, lo), np.where(go, hi, mid)
    return out_lo, out_hi


def _verified_bracket(below, start, lo, hi, *data) -> np.ndarray:
    """Brackets ``[a, b]`` (a 2 x n array) inside ``[lo, hi]`` with
    ``below(a, *data)`` true and ``below(b, *data)`` false, around each
    ``start``: start +- 64 ulps, widened x16 until both ends check, and
    [lo, hi] once the half-width passes the start. Assumes ``below(lo)``
    true and ``below(hi)`` false; ``below`` sees both ends at once, as a
    2 x n array."""
    bracket = np.array([lo, hi], dtype=float)
    width, idx = _BRACKET_ULPS * np.spacing(start), np.arange(len(start))
    while len(idx):
        s, w = start[idx], width[idx]
        ends = [lo[idx], hi[idx]]
        bracket[:, idx] = np.where(w < s, np.clip([s - w, s + w], *ends), ends)
        ok = below(bracket[:, idx], *(d[idx] for d in data))
        idx = idx[~(ok[0] & ~ok[1])]
        width[idx] *= _BRACKET_WIDEN
    return bracket


def _fdr_bisection(q, alpha, model: TestModel) -> np.ndarray:
    """Largest tau with FDR(q, tau) <= alpha, for types ``q`` broadcast
    against budgets ``alpha``: the predicate holds at tau and fails at the
    next double up. A type within budget at 1 gets 1, and one over budget at
    both ``_LOW`` and ``_FLOOR`` gets 0 (approve nothing). The rest are
    searched on [_LOW, 1], or on [_FLOOR, _LOW] if over budget at _LOW.

    A Gaussian type bisects a checked bracket around a start: FDR(q, tau)
    <= alpha exactly when beta1(tau) / tau >= k = q (1 - alpha) / ((1 - q)
    alpha), which ``_inverse_power_ratio`` solves by Newton's method, and
    ``_verified_bracket`` checks a bracket around that root. A tabulated type
    bisects its whole search bracket: its curve's ``power_derivative`` is a
    forward difference that moves by about 1e-9 per ulp of tau, so a
    threshold a few ulps off the full bisection's moves a sensitivity gap by
    up to 2e-8.

    The FDR is nondecreasing in tau, and the start unique, exactly when
    beta1(tau) / tau is nonincreasing, as for concave power; a tabulated
    curve whose ratio rises raises ``UnsupportedModelError``."""
    if model.kind == "tabulated":  # the ratio is monotone on each segment: check the knots
        ratios = model.betas[1:] / model.taus[1:]
        rising = np.flatnonzero(ratios[1:] > ratios[:-1] * (1.0 + _RATIO_ROUNDING))
        if len(rising):
            lo, hi = model.taus[rising[0] + 1 : rising[0] + 3].tolist()
            raise UnsupportedModelError(
                f"FDR thresholds need beta1(tau) / tau nonincreasing; the tabulated "
                f"curve's ratio rises from tau={lo!r} to tau={hi!r}"
            )
    q, alpha = np.broadcast_arrays(_types(q), np.asarray(alpha, dtype=float))
    shape, q, alpha = q.shape, q.ravel(), alpha.ravel()
    tau = np.where(q == 1.0, 0.0, 1.0)  # q = 0 and FDR(q, 1) <= alpha also give 1
    idx = np.flatnonzero((0.0 < q) & (q < 1.0))
    ends = np.array([1.0, _LOW, _FLOOR])  # one power call, then a column per end
    qi, ai = q[idx], alpha[idx]
    over = np.column_stack([_fdr(qi, t, b) > ai for t, b in zip(ends, _power(model, ends))])
    tau[idx[over.all(axis=1)]] = 0.0  # over budget at _LOW and the floor too: approve nothing
    solve = over[:, 0] & ~over.all(axis=1)
    idx, low = idx[solve], over[solve, 1]
    lo, hi, q, alpha = np.where(low, _FLOOR, _LOW), np.where(low, _LOW, 1.0), q[idx], alpha[idx]

    def below(t, q, alpha):
        return _fdr(q, t, _power(model, t)) <= alpha

    if model.kind == "gaussian_mean":
        start = _inverse_power_ratio(model, q * (1.0 - alpha) / ((1.0 - q) * alpha))
        lo, hi = _verified_bracket(below, start, lo, hi, q, alpha)
    tau[idx], _ = _bisect(below, lo, hi, q, alpha)
    return tau.reshape(shape)


def fdr_threshold(q, objective: PrincipalObjective, model: TestModel):
    """Largest threshold keeping FDR(q, tau) within the budget alpha, elementwise."""
    if objective.kind != "fdr":
        raise ValueError("fdr_threshold requires an fdr objective")
    return _float_or_array(_fdr_bisection(q, objective.alpha, model))


def optimal_threshold(q, objective: PrincipalObjective, model: TestModel):
    """Type-optimal threshold under either objective, elementwise."""
    if objective.kind == "bayes":
        return bayes_threshold(q, objective, model)
    return fdr_threshold(q, objective, model)


def _fdr_odds(tau, alpha, model: TestModel):
    """Odds q / (1 - q) of the type whose FDR budget ``alpha`` binds at
    thresholds ``tau`` in (0, 1], elementwise: alpha beta1(tau) / ((1 - alpha) tau).
    The type itself is r / (1 + r)."""
    return alpha * _power(model, tau) / ((1.0 - alpha) * tau)


def type_for_threshold(tau, objective: PrincipalObjective, model: TestModel):
    """Inverse of the threshold map: the type assigned threshold ``tau``, elementwise.

    Closed form in both cases; only defined for interior tau.
    """
    tau = _unit_interval(tau, "inverse map defined for tau in (0, 1)", interior=True)
    if objective.kind == "fdr":
        r = _fdr_odds(tau, objective.alpha, model)
        return _float_or_array(r / (1.0 + r))
    lr = likelihood_ratio(model, tau)
    return _float_or_array(objective.omega1 * lr / (objective.omega0 + objective.omega1 * lr))


def threshold_map(
    population: TypePopulation, objective: PrincipalObjective, model: TestModel
) -> List[Tuple[float, float]]:
    """Per-type optimal thresholds over the population grid.

    The returned assignment is checked to be non-increasing in q.
    """
    qs = population.points()
    taus = optimal_threshold(qs, objective, model)
    rising = np.flatnonzero(taus[1:] > taus[:-1] + 1e-12)
    if len(rising):
        i = rising[0]
        raise StatMenusError(
            f"threshold map not non-increasing: "
            f"tau({qs[i]})={taus[i]} < tau({qs[i + 1]})={taus[i + 1]}"
        )
    return list(zip(qs.tolist(), taus.tolist()))


def oracle_bayes_risk(
    population: TypePopulation, objective: PrincipalObjective, model: TestModel
) -> float:
    """Population-average Bayes risk when every type gets its optimal threshold."""
    if objective.kind != "bayes":
        raise ValueError("oracle_bayes_risk requires a bayes objective")
    qs = population.points()
    taus = bayes_threshold(qs, objective, model)
    return population.average(bayes_risk(qs, taus, objective.omega0, objective.omega1, model))


def oracle_tdr(
    population: TypePopulation, objective: PrincipalObjective, model: TestModel
) -> float:
    """Population-average TDR when every type gets its FDR-budget threshold."""
    if objective.kind != "fdr":
        raise ValueError("oracle_tdr requires an fdr objective")
    qs = population.points()
    return population.average(tdr(qs, fdr_threshold(qs, objective, model), model))
