"""Statistical test abstraction on the p-value scale.

A test is summarized by its rejection curves: the null rejection rate is
``beta0(tau) = tau`` (p-values are uniform under the null) and the power
``beta1(tau)`` is either the Gaussian-mean closed form or a monotone
tabulated curve. All operations are pure.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import erfc, ndtr, ndtri

from .errors import InvalidModelError, UnsupportedModelError

__all__ = [
    "TestModel",
    "gaussian_model",
    "tabulated_model",
    "tabulated_from_csv",
    "normal_cdf",
    "normal_quantile",
    "power",
    "power_derivative",
    "likelihood_ratio",
    "inverse_likelihood_ratio",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)
# Phi^-1 of the smallest normal double, and a z whose Phi rounds to 1.
_Z_FLOOR = float(ndtri(np.finfo(float).tiny))
_Z_CEIL = 9.0
_NEWTON_MAX_ITER = 64

MAX_EFFECT_SIZE = 10.0  # larger effects saturate the power curve


def _require(x, ok, message: str, error: type = ValueError) -> None:
    """Raise ``error`` naming the first element of ``x`` where ``ok`` fails."""
    if not (ok.all() if ok.ndim else ok):
        raise error(f"{message}, got {float(np.ravel(x)[np.argmin(ok)])!r}")


def _unit_interval(x, message: str, interior: bool = False):
    """``x`` as float64 (scalars stay fast numpy scalars), checked to lie in [0, 1] or (0, 1)."""
    a = np.asarray(x, dtype=float)[()]
    _require(x, (0.0 < a) & (a < 1.0) if interior else (0.0 <= a) & (a <= 1.0), message)
    return a


def _types(q):
    """Agent types ``q`` as float64, checked to lie in [0, 1]."""
    return _unit_interval(q, "type must lie in [0, 1]")


def _float_or_array(values):
    """A Python float for a 0-d result, the array otherwise: a float in gives a float out."""
    return values if isinstance(values, np.ndarray) and values.ndim else float(values)


def normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate to ~1e-16 relative via erfc."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(u: float) -> float:
    """Standard normal quantile for ``u`` in (0, 1)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"normal_quantile requires u in (0, 1), got {u!r}")
    return float(ndtri(u))


@dataclass(frozen=True, eq=False)
class TestModel:
    """A simple-vs-simple test on the p-value scale.

    ``gaussian_mean``: observe Z ~ N(theta, 1) with theta in {0, theta1},
    p-value X = 1 - Phi(Z). ``tabulated``: power piecewise linear through the
    read-only knots ``taus``, ``betas``; equal knot values give equal models.
    """

    kind: str
    theta1: Optional[float] = None
    taus: Optional[np.ndarray] = None
    betas: Optional[np.ndarray] = None

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.kind == "gaussian_mean":
            if self.theta1 is None or not (0.0 < self.theta1 <= MAX_EFFECT_SIZE):
                raise InvalidModelError(
                    f"gaussian_mean requires effect size in (0, {MAX_EFFECT_SIZE}], got {self.theta1!r}"
                )
            if self.taus is not None or self.betas is not None:
                raise InvalidModelError("gaussian_mean does not take a table")
        elif self.kind == "tabulated":
            if self.theta1 is not None:
                raise InvalidModelError("tabulated does not take an effect size")
            for name, knots in zip(("taus", "betas"), _checked_knots(self.taus, self.betas)):
                object.__setattr__(self, name, knots)
        else:
            raise InvalidModelError(f"unknown model kind {self.kind!r}")

    def _key(self):
        # + 0.0 turns -0.0 into 0.0, so equal knot values have equal bytes
        knots = () if self.taus is None else (self.taus + 0.0, self.betas + 0.0)
        return (self.kind, self.theta1, *(k.tobytes() for k in knots))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, TestModel) else NotImplemented

    def __hash__(self):
        return hash(self._key())


def _checked_knots(taus, betas) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only float64 copies of a tabulated curve's knots: finite, from (0,0)
    to (1,1), tau rising, beta1 nondecreasing and above tau inside."""
    taus, betas = (np.array(() if x is None else x, dtype=float) for x in (taus, betas))
    if taus.shape != betas.shape:
        raise InvalidModelError("tau and beta1 sequences must have equal length")
    if taus.ndim != 1 or len(taus) < 2:
        raise InvalidModelError("tabulated model needs at least the (0,0) and (1,1) knots")
    if not (np.isfinite(taus).all() and np.isfinite(betas).all()):
        raise InvalidModelError("table knots must be finite")
    if taus[0] != 0.0 or betas[0] != 0.0 or taus[-1] != 1.0 or betas[-1] != 1.0:
        raise InvalidModelError("table must start at (0, 0) and end at (1, 1)")
    repeated, falling = np.diff(taus) <= 0.0, np.diff(betas) < 0.0
    bad = np.flatnonzero(repeated | falling)
    if len(bad) and repeated[bad[0]]:
        raise InvalidModelError(f"tau grid must be strictly increasing (knot {bad[0] + 1})")
    if len(bad):
        raise InvalidModelError(f"beta1 must be nondecreasing (knot {bad[0] + 1})")
    trivial = np.flatnonzero(betas[1:-1] <= taus[1:-1]) + 1
    if len(trivial):
        t, b = taus[trivial[0]].item(), betas[trivial[0]].item()
        raise InvalidModelError(f"nontrivial power violated: beta1({t}) = {b} <= {t}")
    taus.flags.writeable = betas.flags.writeable = False
    return taus, betas


def gaussian_model(theta1: float) -> TestModel:
    """Gaussian mean test with null 0 and alternative ``theta1 > 0``."""
    return TestModel(kind="gaussian_mean", theta1=float(theta1))


def tabulated_model(taus: Sequence[float], betas: Sequence[float]) -> TestModel:
    """Tabulated test from matching (tau, beta1) sequences."""
    return TestModel(kind="tabulated", taus=taus, betas=betas)


def tabulated_from_csv(path) -> TestModel:
    """Load a tabulated model from a CSV with header ``tau,beta1``: each row
    holds tau and beta1 in its first two cells, and empty lines are skipped."""
    with open(path) as fh, warnings.catch_warnings():
        header = next(csv.reader(fh), None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["tau", "beta1"]:
            raise InvalidModelError(f"{path}: expected header 'tau,beta1'")
        warnings.simplefilter("ignore", UserWarning)  # no data rows: no knots, refused below
        try:
            knots = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2, quotechar='"', comments=None)
        except ValueError as exc:
            raise InvalidModelError(f"{path}: malformed row: {exc}") from exc
    return tabulated_model(knots[:, 0], knots[:, 1])


def _power(model: TestModel, tau):
    """beta1(tau) for thresholds already known to lie in [0, 1]."""
    if model.kind == "gaussian_mean":
        # -ndtri(tau) is Phi^-1(1 - tau) to full precision: ndtri uses 1 - tau near 1
        return ndtr(model.theta1 + ndtri(tau))
    return np.interp(tau, model.taus, model.betas)


def _inverse_power_ratio(model: TestModel, k) -> np.ndarray:
    """Approximately the largest tau with beta1(tau) / tau >= k on a Gaussian
    curve, for levels ``k > 1`` met at some tau >= ``np.finfo(float).tiny``,
    elementwise: a start for an exact search, a few dozen ulps off (more in
    the deep tail, where rounding is amplified).

    With z = Phi^-1(tau), safeguarded Newton on log(Phi(z + theta) / Phi(z))
    = log k, whose left side falls in z with slope m(z + theta) - m(z), m the
    inverse Mills ratio phi / Phi. It starts where beta1'(tau) = k, below the
    root as beta1 is concave, and stops once the residual is at rounding; the
    last step is taken in tau, as Phi(z) (1 + m(z) dz), since rounding
    z + dz would move tau by up to |z| m(z) ulps.
    """
    k = np.asarray(k, dtype=float)
    theta, log_k = model.theta1, np.log(k)
    z = np.maximum(-log_k / theta - 0.5 * theta, _Z_FLOOR)
    lo, hi = np.full_like(z, _Z_FLOOR), np.full_like(z, _Z_CEIL)
    tau, idx = np.empty_like(z), np.arange(len(z))
    for _ in range(_NEWTON_MAX_ITER):
        upper, lower = ndtr(z + theta), ndtr(z)
        residual = np.log(upper / lower) - log_k[idx]
        lo, hi = np.where(residual > 0.0, z, lo), np.where(residual < 0.0, z, hi)
        mills = np.exp(-0.5 * z * z) / (_SQRT_2PI * lower)
        slope = np.exp(-0.5 * (z + theta) ** 2) / (_SQRT_2PI * upper) - mills
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -residual / slope
        # Phi(z) carries a relative rounding of about z^2 eps in the lower tail
        done = np.abs(residual) <= 4.0 * _EPS * (1.0 + log_k[idx] + z * z)
        tau[idx[done]] = (lower * (1.0 + mills * step))[done]
        idx, z, lo, hi, step = idx[~done], z[~done], lo[~done], hi[~done], step[~done]
        if not len(idx):
            break
        z = np.where((lo < z + step) & (z + step < hi), z + step, 0.5 * (lo + hi))
    tau[idx] = ndtr(z)
    return tau


def power(model: TestModel, tau):
    """Power beta1(tau) at thresholds ``tau`` in [0, 1], elementwise."""
    return _float_or_array(_power(model, _unit_interval(tau, "threshold must lie in [0, 1]")))


def power_derivative(model: TestModel, tau):
    """Slope beta1'(tau) at interior thresholds, elementwise."""
    tau = _unit_interval(tau, "derivative defined for tau in (0, 1)", interior=True)
    return _float_or_array(_power_derivative(model, tau))


def _power_derivative(model: TestModel, tau):
    """beta1'(tau) for thresholds already known to lie in (0, 1): a Gaussian
    curve's likelihood ratio, a tabulated one's forward difference over
    ``min(1e-7, (1 - tau) / 2)``."""
    if model.kind == "gaussian_mean":
        return np.exp(-model.theta1 * ndtri(tau) - 0.5 * model.theta1**2)
    h = np.minimum(1e-7, 0.5 * (1.0 - tau))
    return (_power(model, tau + h) - _power(model, tau)) / h


def likelihood_ratio(model: TestModel, x):
    """Density ratio of the p-value at ``x`` under alternative vs null, elementwise."""
    if model.kind != "gaussian_mean":
        raise UnsupportedModelError("likelihood ratio is defined for gaussian_mean models only")
    x = _unit_interval(x, "likelihood ratio defined for x in (0, 1)", interior=True)
    return _float_or_array(_power_derivative(model, x))


def inverse_likelihood_ratio(model: TestModel, y):
    """Threshold in [0, 1] at which the likelihood ratio equals ``y > 0``, elementwise."""
    if model.kind != "gaussian_mean":
        raise UnsupportedModelError("likelihood ratio is defined for gaussian_mean models only")
    levels = np.asarray(y, dtype=float)[()]
    _require(y, levels > 0.0, "likelihood-ratio level must be positive")
    z = np.log(levels) / model.theta1 + 0.5 * model.theta1
    return _float_or_array(0.5 * erfc(z / _SQRT2))  # 1 - Phi(z), no cancellation
