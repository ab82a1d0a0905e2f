"""Adaptive Simpson quadrature used by the menu-cost integrals.

The cost formulas integrate smooth one-dimensional integrands whose error
must sit well below the incentive-compatibility margin, so the default
absolute tolerance is 1e-10. All segments are refined together, one
recursion level (one integrand call) at a time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_MAX_DEPTH = 48
# An error estimate within this many ulps of its Simpson sums is their rounding.
_ROUNDING = 64 * np.finfo(float).eps


def _simpson(f_a, f_m, f_b, h):
    return h / 6.0 * (f_a + 4.0 * f_m + f_b)


def _fail(knots, live, levels, k, what: str):
    """Raise ``ValueError``: ``what`` on the segment of interval ``k`` at the
    current level, found by tracing it up the ``levels`` splits."""
    for _, split in reversed(levels):
        k = split[k // 2]
    i = live[k]
    raise ValueError(f"{what} on segment [{float(knots[i])!r}, {float(knots[i + 1])!r}]")


def _halves(first, second, split):
    """For each split interval k, its left half at 2k and its right half at 2k + 1."""
    return np.stack([first[split], second[split]], axis=1).ravel()


@np.errstate(over="ignore", invalid="ignore")  # a non-finite estimate raises instead
def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray], knots, tol: float = 1e-10
) -> np.ndarray:
    """Integral of the elementwise ``f`` over each segment ``[knots[i], knots[i + 1]]``
    to absolute tolerance ``tol``; signed, so a decreasing segment gives the negated
    integral. Each segment follows the recursive rule bit for bit: an interval is
    accepted once its error estimate is within 15 tol (or at depth 48), otherwise
    both halves are refined at tol / 2 and their results summed left + right.

    Raises ``ValueError``, naming the segment, when an error estimate could
    never pass, so that every interval of the segment would split down to
    depth 48: when an integrand value or a Simpson estimate is not finite, or
    when an interval's error estimate misses its tolerance while lying within
    the rounding of its own Simpson sums (an integrand too large for ``tol``).
    """
    knots = np.asarray(knots, dtype=float)
    live = np.flatnonzero(knots[:-1] != knots[1:])  # empty segments give 0 without calling f
    a, b = np.minimum(knots[:-1], knots[1:])[live], np.maximum(knots[:-1], knots[1:])[live]
    m = 0.5 * (a + b)
    nodes, inverse = np.unique(np.concatenate([a, m, b]), return_inverse=True)
    f_a, f_m, f_b = np.split(f(nodes)[inverse], 3)  # adjacent segments share endpoints
    whole = _simpson(f_a, f_m, f_b, b - a)

    levels = []  # per depth: each interval's value and the indices of those split
    for depth in range(_MAX_DEPTH + 1):
        m = 0.5 * (a + b)
        f_lm, f_rm = np.split(f(np.concatenate([0.5 * (a + m), 0.5 * (m + b)])), 2)
        left, right = _simpson(f_a, f_lm, f_m, m - a), _simpson(f_m, f_rm, f_b, b - m)
        err = left + right - whole
        # err is finite only when every integrand value and estimate it rests on is
        if not np.isfinite(err).all():
            what = "integrand or Simpson estimate not finite"
            _fail(knots, live, levels, np.flatnonzero(~np.isfinite(err))[0], what)
        split = np.flatnonzero(~(np.abs(err) <= 15.0 * tol)) if depth < _MAX_DEPTH else []
        # tol and the rounding of the Simpson sums both halve per level, so an
        # error within that rounding can never pass
        stuck = np.abs(err[split]) <= _ROUNDING * (np.abs(left[split]) + np.abs(right[split]))
        if stuck.any():
            what = "tolerance below the rounding of the Simpson sums"
            _fail(knots, live, levels, split[np.argmax(stuck)], what)
        levels.append((left + right + err / 15.0, split))
        if not len(split):
            break
        a, b, whole = _halves(a, m, split), _halves(m, b, split), _halves(left, right, split)
        f_a, f_b = _halves(f_a, f_m, split), _halves(f_m, f_b, split)
        f_m = _halves(f_lm, f_rm, split)
        tol = 0.5 * tol

    for (values, split), (children, _) in zip(levels[-2::-1], levels[:0:-1]):
        values[split] = children[0::2] + children[1::2]
    integrals = np.zeros(len(knots) - 1)
    integrals[live] = levels[0][0]
    return np.where(knots[:-1] > knots[1:], -integrals, integrals)
