"""Statistical test abstraction on the p-value scale.

A test is summarized by its rejection curves: the null rejection rate is
``beta0(tau) = tau`` (p-values are uniform under the null) and the power
``beta1(tau)`` is either the Gaussian-mean closed form or a monotone
tabulated curve. All operations are pure; sampling takes an explicit
``numpy.random.Generator`` so concurrent callers can use disjoint streams.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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
    "sample_pvalue",
    "sample_pvalues",
]

_SQRT2 = math.sqrt(2.0)

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


@dataclass(frozen=True)
class TestModel:
    """A simple-vs-simple test on the p-value scale.

    ``gaussian_mean``: observe Z ~ N(theta, 1) with theta in {0, theta1},
    p-value X = 1 - Phi(Z). ``tabulated``: power given by a monotone
    piecewise-linear table of (tau, beta1) knots spanning (0,0) to (1,1).
    """

    kind: str
    theta1: Optional[float] = None
    table: Optional[Tuple[Tuple[float, float], ...]] = None
    _knots: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.kind == "gaussian_mean":
            if self.theta1 is None or not (0.0 < self.theta1 <= MAX_EFFECT_SIZE):
                raise InvalidModelError(
                    f"gaussian_mean requires effect size in (0, {MAX_EFFECT_SIZE}], got {self.theta1!r}"
                )
            if self.table is not None:
                raise InvalidModelError("gaussian_mean does not take a table")
        elif self.kind == "tabulated":
            if self.theta1 is not None:
                raise InvalidModelError("tabulated does not take an effect size")
            _validate_table(self.table)
            knots = tuple(np.array(column, dtype=float) for column in zip(*self.table))
            for column in knots:
                column.flags.writeable = False
            object.__setattr__(self, "_knots", knots)
        else:
            raise InvalidModelError(f"unknown model kind {self.kind!r}")

    @property
    def taus(self) -> np.ndarray:
        """Read-only tau knots of a tabulated model."""
        return self._knots[0]

    @property
    def betas(self) -> np.ndarray:
        """Read-only beta1 knots of a tabulated model."""
        return self._knots[1]


def _validate_table(table) -> None:
    if table is None or len(table) < 2:
        raise InvalidModelError("tabulated model needs at least the (0,0) and (1,1) knots")
    if not np.isfinite(np.asarray(table, dtype=float)).all():
        raise InvalidModelError("table knots must be finite")
    taus = [t for t, _ in table]
    betas = [b for _, b in table]
    if taus[0] != 0.0 or betas[0] != 0.0 or taus[-1] != 1.0 or betas[-1] != 1.0:
        raise InvalidModelError("table must start at (0, 0) and end at (1, 1)")
    for i in range(1, len(taus)):
        if taus[i] <= taus[i - 1]:
            raise InvalidModelError(f"tau grid must be strictly increasing (knot {i})")
        if betas[i] < betas[i - 1]:
            raise InvalidModelError(f"beta1 must be nondecreasing (knot {i})")
    for t, b in list(table)[1:-1]:
        if not 0.0 <= b <= 1.0:
            raise InvalidModelError(f"beta1({t}) = {b} outside [0, 1]")
        if b <= t:
            raise InvalidModelError(f"nontrivial power violated: beta1({t}) = {b} <= {t}")


def gaussian_model(theta1: float) -> TestModel:
    """Gaussian mean test with null 0 and alternative ``theta1 > 0``."""
    return TestModel(kind="gaussian_mean", theta1=float(theta1))


def tabulated_model(taus: Sequence[float], betas: Sequence[float]) -> TestModel:
    """Tabulated test from matching (tau, beta1) sequences."""
    if len(taus) != len(betas):
        raise InvalidModelError("tau and beta1 sequences must have equal length")
    return TestModel(kind="tabulated", table=tuple(zip(map(float, taus), map(float, betas))))


def tabulated_from_csv(path) -> TestModel:
    """Load a tabulated model from a two-column CSV ``tau,beta1`` with header."""
    taus: list[float] = []
    betas: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["tau", "beta1"]:
            raise InvalidModelError(f"{path}: expected header 'tau,beta1'")
        for row in reader:
            if not row:
                continue
            try:
                taus.append(float(row[0]))
                betas.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise InvalidModelError(f"{path}: malformed row {row!r}") from exc
    return tabulated_model(taus, betas)


def _power(model: TestModel, tau):
    """beta1(tau) for thresholds already known to lie in [0, 1]."""
    if model.kind == "gaussian_mean":
        # -ndtri(tau) is Phi^-1(1 - tau) to full precision: ndtri uses 1 - tau near 1
        return ndtr(model.theta1 + ndtri(tau))
    return np.interp(tau, model.taus, model.betas)


def power(model: TestModel, tau):
    """Power beta1(tau) at thresholds ``tau`` in [0, 1], elementwise."""
    return _float_or_array(_power(model, _unit_interval(tau, "threshold must lie in [0, 1]")))


def power_derivative(model: TestModel, tau):
    """Slope beta1'(tau) at interior thresholds, elementwise."""
    tau = _unit_interval(tau, "derivative defined for tau in (0, 1)", interior=True)
    if model.kind == "gaussian_mean":
        return likelihood_ratio(model, tau)
    h = np.minimum(1e-7, 0.5 * (1.0 - tau))
    return _float_or_array((power(model, tau + h) - power(model, tau)) / h)


def likelihood_ratio(model: TestModel, x):
    """Density ratio of the p-value at ``x`` under alternative vs null, elementwise."""
    if model.kind != "gaussian_mean":
        raise UnsupportedModelError("likelihood ratio is defined for gaussian_mean models only")
    x = _unit_interval(x, "likelihood ratio defined for x in (0, 1)", interior=True)
    return _float_or_array(np.exp(-model.theta1 * ndtri(x) - 0.5 * model.theta1**2))


def inverse_likelihood_ratio(model: TestModel, y):
    """Threshold in [0, 1] at which the likelihood ratio equals ``y > 0``, elementwise."""
    if model.kind != "gaussian_mean":
        raise UnsupportedModelError("likelihood ratio is defined for gaussian_mean models only")
    levels = np.asarray(y, dtype=float)[()]
    _require(y, levels > 0.0, "likelihood-ratio level must be positive")
    z = np.log(levels) / model.theta1 + 0.5 * model.theta1
    return _float_or_array(0.5 * erfc(z / _SQRT2))  # 1 - Phi(z), no cancellation


def _sample_statistics(
    model: TestModel, is_null: np.ndarray, rng: np.random.Generator, out: np.ndarray, scratch=None
) -> np.ndarray:
    """Fill the flat float64 row ``out`` with one test statistic per entry of
    the flat boolean mask ``is_null``, each in the p-value's order (smaller
    is more significant), and return the alternative entries' indices.

    A null entry gets its uniform p-value and a tabulated alternative its
    p-value from the inverted power table; a Gaussian alternative gets
    ``w = -(z + theta1)``, whose p-value is ``ndtr(w)``. Uniforms are drawn
    first, then the alternatives' draws, each with ``out=`` into the front
    of ``scratch`` (a float64 row of the mask's size; a fresh one when
    None) and scattered by index arrays.
    """
    scratch = np.empty(out.size) if scratch is None else scratch
    null = np.flatnonzero(is_null)
    out[null] = rng.random(out=scratch[: null.size])
    if null.size == out.size:
        return null[:0]
    alt = np.flatnonzero(~is_null)
    draws = scratch[: alt.size]
    if model.kind == "gaussian_mean":
        rng.standard_normal(out=draws)
        draws += model.theta1
        out[alt] = np.negative(draws, out=draws)
    else:
        out[alt] = np.interp(rng.random(out=draws), model.betas, model.taus)
    return alt


def sample_pvalues(
    model: TestModel,
    is_null: np.ndarray,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw one p-value per entry of the boolean mask ``is_null``.

    Null entries are uniform draws; alternative entries are 1 - Phi(Z) with
    Z centered at the alternative. Uniforms are drawn first, then normals,
    so output is deterministic given the mask and generator state. These
    are ``_sample_statistics``' draws with ``ndtr`` applied to the Gaussian
    statistics. The p-values are written into ``out`` when it is given,
    which must be a C-contiguous float64 array of the mask's shape.
    """
    is_null = np.asarray(is_null, dtype=bool)
    if out is None:
        out = np.empty(is_null.shape)
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == is_null.shape
        and out.flags.c_contiguous
    ):
        # reshape(-1) of any other array is a copy, and the draws would not reach it
        raise ValueError("out must be a C-contiguous float64 array of the mask's shape")
    flat = out.reshape(-1)
    alt = _sample_statistics(model, is_null.reshape(-1), rng, flat)
    if model.kind == "gaussian_mean":
        flat[alt] = ndtr(flat[alt])  # ndtr(-(z + theta1)) is 1 - Phi(z + theta1), no cancellation
    return out


# The certified cutoff's margins: its bracket's half-width relative to the
# critical value, and how far the p-values at its ends must clear tau.
_BRACKET_WIDTH = 1e-6
_BRACKET_MARGIN = 1e-9


def _cutoff_brackets(model: TestModel, taus: np.ndarray):
    """Per threshold ``tau``, the bracket ``(lo, hi]`` of statistics (as
    ``_sample_statistics`` draws them) outside which comparing with the
    bracket decides ``p-value <= tau``: a statistic ``w <= lo`` clears tau, a
    statistic ``w > hi`` does not, and one inside is decided by its p-value.

    A tabulated model's statistic is its p-value, so ``lo = hi = tau``. For
    the Gaussian model ``c = ndtri(tau)`` and ``d = 1e-6 * max(1, |c|)``
    give ``(c - d, c + d]``, kept only when it is certified: ``tau`` is a
    normal double, ``ndtr(c - d) <= tau * (1 - 1e-9)`` and ``ndtr(c + d) >=
    tau * (1 + 1e-9)``. A plain cutoff at ``c`` would be wrong, because
    ``ndtr`` is not monotone in its last bit (reversals of up to 5.6e-16
    relative near -2.5, -1.7 and +-1/sqrt 2). The bracket rests on one
    assumption: ``ndtr``'s relative error is below 5e-10, so that, within
    the 1e-9 margin, ``ndtr(w) <= tau`` for every ``w <= c - d`` and
    ``ndtr(w) > tau`` for every ``w > c + d``. A threshold that cannot be
    certified (0, a subnormal, one within 1e-9 of 1 or, as the curve
    flattens, above about 0.9999) gets ``(-inf, +inf]``, so every statistic
    goes to ``ndtr``; one of at least 1 gets ``(+inf, +inf]``, clearing
    every statistic, and a negative one (an opted-out agent) ``(-inf,
    -inf]``, clearing none.
    """
    taus = np.asarray(taus, dtype=float)
    if model.kind != "gaussian_mean":
        return taus, taus
    with np.errstate(invalid="ignore"):  # tau = 0 gives c = -inf and hi = nan
        c = ndtri(np.clip(taus, 0.0, 1.0))
        d = _BRACKET_WIDTH * np.maximum(1.0, np.abs(c))
        lo, hi = c - d, c + d
        certified = (
            (taus >= np.finfo(float).tiny)
            & (ndtr(lo) <= taus * (1.0 - _BRACKET_MARGIN))
            & (ndtr(hi) >= taus * (1.0 + _BRACKET_MARGIN))
        )
    lo[~certified], hi[~certified] = -np.inf, np.inf
    lo[taus >= 1.0], hi[taus >= 1.0] = np.inf, np.inf
    lo[taus < 0.0], hi[taus < 0.0] = -np.inf, -np.inf
    return lo, hi


def sample_pvalue(model: TestModel, is_null: bool, rng: np.random.Generator) -> float:
    """Draw a single p-value under the null or the alternative."""
    return float(sample_pvalues(model, np.array([is_null]), rng)[0])
