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
from scipy.special import ndtr, ndtri

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


def normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate to ~1e-16 relative via erfc."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(u: float) -> float:
    """Standard normal quantile for ``u`` in (0, 1)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"normal_quantile requires u in (0, 1), got {u!r}")
    return float(ndtri(u))


def _upper_quantile(tau: float) -> float:
    """Phi^-1(1 - tau), computed in whichever tail keeps full precision."""
    if tau <= 0.5:
        return -normal_quantile(tau) if tau > 0.0 else math.inf
    return normal_quantile(1.0 - tau)


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


def power(model: TestModel, tau: float) -> float:
    """Power beta1(tau) of the test at threshold ``tau`` in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {tau!r}")
    if model.kind == "gaussian_mean":
        if tau == 0.0:
            return 0.0
        if tau == 1.0:
            return 1.0
        return normal_cdf(model.theta1 - _upper_quantile(tau))
    return float(np.interp(tau, model.taus, model.betas))


def power_derivative(model: TestModel, tau: float) -> float:
    """Slope beta1'(tau) at an interior threshold."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"derivative defined for tau in (0, 1), got {tau!r}")
    if model.kind == "gaussian_mean":
        z = _upper_quantile(tau)
        return math.exp(model.theta1 * z - 0.5 * model.theta1**2)
    h = min(1e-7, 0.5 * (1.0 - tau))
    return (power(model, tau + h) - power(model, tau)) / h


def likelihood_ratio(model: TestModel, x: float) -> float:
    """Density ratio of the p-value at ``x`` under alternative vs null."""
    if model.kind != "gaussian_mean":
        raise UnsupportedModelError("likelihood ratio is defined for gaussian_mean models only")
    if not 0.0 < x < 1.0:
        raise ValueError(f"likelihood ratio defined for x in (0, 1), got {x!r}")
    z = _upper_quantile(x)
    return math.exp(model.theta1 * z - 0.5 * model.theta1**2)


def inverse_likelihood_ratio(model: TestModel, y: float) -> float:
    """Threshold at which the likelihood ratio equals ``y > 0``, clamped to [0, 1]."""
    if model.kind != "gaussian_mean":
        raise UnsupportedModelError("likelihood ratio is defined for gaussian_mean models only")
    if not y > 0.0:
        raise ValueError(f"likelihood-ratio level must be positive, got {y!r}")
    theta = model.theta1
    z = math.log(y) / theta + 0.5 * theta
    tau = 0.5 * math.erfc(z / _SQRT2)  # 1 - Phi(z), no cancellation
    return min(1.0, max(0.0, tau))


def sample_pvalues(model: TestModel, is_null: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one p-value per entry of the boolean mask ``is_null``.

    Null entries are uniform draws; alternative entries are 1 - Phi(Z) with
    Z centered at the alternative. Uniforms are drawn first, then normals,
    so output is deterministic given the mask and generator state.
    """
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


def sample_pvalue(model: TestModel, is_null: bool, rng: np.random.Generator) -> float:
    """Draw a single p-value under the null or the alternative."""
    return float(sample_pvalues(model, np.array([is_null]), rng)[0])
