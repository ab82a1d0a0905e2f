"""Per-type error rates of a thresholded test: FDR, TDR, and Bayes risk.

Each rate works elementwise, broadcasting types ``q`` against thresholds
``tau``; floats in give a float out.
"""

from __future__ import annotations

import numpy as np

from .testmodel import TestModel, _float_or_array, _types, power

__all__ = ["fdr", "tdr", "bayes_risk"]

_TINY = np.finfo(float).smallest_subnormal


def _fdr(q, tau, beta1):
    """FDR given the power ``beta1`` at ``tau``; with nothing approved it is 0 / tiny = 0."""
    approved_null = q * tau
    return approved_null / np.maximum(approved_null + (1.0 - q) * beta1, _TINY)


def fdr(q, tau, model: TestModel):
    """P(null | approved) for an agent of type ``q`` tested at ``tau``.

    The 0/0 case at ``tau = 0`` resolves to 0: nothing is approved.
    """
    tau = np.asarray(tau, dtype=float)[()]
    return _float_or_array(_fdr(_types(q), tau, power(model, tau)))


def tdr(q, tau, model: TestModel):
    """Probability of correctly approving a non-null proposal: (1-q) beta1(tau)."""
    q = _types(q)
    return _float_or_array((1.0 - q) * power(model, tau))


def bayes_risk(q, tau, omega0: float, omega1: float, model: TestModel):
    """Weighted error risk: omega0 * q * tau + omega1 * (1-q) * (1 - beta1(tau))."""
    q = _types(q)
    return _float_or_array(omega0 * q * tau + omega1 * (1.0 - q) * (1.0 - power(model, tau)))
