"""Contracts, menus, agent selection, and separating-menu verification.

A contract is a triple (threshold, reward, cost). An agent of type q who
takes the contract indexed by report p has expected utility

    psi(q; p) = q * R_p * [beta0(tau_p) - beta1(tau_p)] + [R_p * beta1(tau_p) - c_p],

affine in q with negative slope whenever the test has nontrivial power. A
menu is a set of lines in q whose upper envelope is the truthful utility;
only this module computes their slopes and intercepts (``Menu.lines``). A
menu is separating when truthful selection is strictly optimal for every
supported type and participation utilities are nonnegative.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .testmodel import TestModel, _float_or_array, _types, power

__all__ = [
    "Contract",
    "Menu",
    "SelectionOutcome",
    "SeparationReport",
    "Violation",
    "utility",
    "zero_utility_cost",
    "best_response",
    "select",
    "verify_separating",
    "scoring_rule",
    "expected_score",
]

DEFAULT_IC_MARGIN = 1e-9
# Absorbs float rounding of contracts calibrated to zero utility: an agent
# opts out only below -PARTICIPATION_SLACK.
PARTICIPATION_SLACK = 1e-12
TIE_BREAK_RULE = "smallest-report"
# Elements of the (types x contracts) utility block held at once, 8 MiB of
# float64: a block has _BLOCK_ELEMENTS // contracts rows, and at least one,
# so the memory of selection and verification does not grow with the menu
# size (up to 2^20 contracts, where one row holds more).
_BLOCK_ELEMENTS = 1 << 20
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # absorbs underflow in the rounding bounds


@dataclass(frozen=True)
class Contract:
    """Acceptance threshold, reward on approval, and upfront cost."""

    tau: float
    reward: float
    cost: float

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.tau!r}")
        if not math.isfinite(self.reward) or self.reward < 0.0:
            raise ValueError(f"reward must be finite and nonnegative, got {self.reward!r}")
        if not math.isfinite(self.cost):
            raise ValueError(f"cost must be finite, got {self.cost!r}")


def _line(tau, reward, cost, model: TestModel):
    """Slope R (tau - beta1(tau)) and intercept R beta1(tau) - c of the utility
    in q, elementwise."""
    beta1 = power(model, tau)
    return reward * (tau - beta1), reward * beta1 - cost


@dataclass(frozen=True)
class Menu:
    """Contracts indexed by a strictly increasing support of reported types."""

    support: Tuple[float, ...]
    contracts: Tuple[Contract, ...]
    # Read-only contract columns in support order, built once from ``contracts``.
    taus: np.ndarray = field(init=False, repr=False, compare=False)
    rewards: np.ndarray = field(init=False, repr=False, compare=False)
    costs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.support:
            raise ValueError("menu support must be nonempty")
        if len(self.support) != len(self.contracts):
            raise ValueError("support and contracts must align")
        if any(not 0.0 <= p <= 1.0 for p in self.support):
            raise ValueError("support must lie in [0, 1]")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        columns = np.array([(c.tau, c.reward, c.cost) for c in self.contracts]).T.copy()
        columns.flags.writeable = False
        for name, column in zip(("taus", "rewards", "costs"), columns):
            object.__setattr__(self, name, column)

    def lines(self, model: TestModel) -> Tuple[np.ndarray, np.ndarray]:
        """Slope and intercept arrays of the contracts' utility lines under
        ``model``, in support order; computed on each call."""
        return _line(self.taus, self.rewards, self.costs, model)

    def contract_for(self, p: float) -> Contract:
        try:
            return self.contracts[self.support.index(p)]
        except ValueError:
            raise KeyError(f"report {p!r} is not in the menu support") from None

    def to_json(self) -> str:
        doc = {
            "support": list(self.support),
            "contracts": [
                {"tau": c.tau, "reward": c.reward, "cost": c.cost} for c in self.contracts
            ],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "Menu":
        """Parse ``to_json``'s document. A boolean, an integer past the float
        range or any other non-number in ``support``, ``tau``, ``reward`` or
        ``cost`` raises ``ValueError``."""
        doc = json.loads(text)

        def numbers(name, values):
            bad = [  # json.loads reads true/false as bools and integers of any size
                x for x in values
                if not (isinstance(x, float) or type(x) is int and abs(x) <= sys.float_info.max)
            ]
            if bad:
                raise ValueError(f"menu {name} must be numbers, got {bad[0]!r}")
            return tuple(values)

        contracts = tuple(
            Contract(*numbers("contracts", (c["tau"], c["reward"], c["cost"])))
            for c in doc["contracts"]
        )
        return Menu(support=numbers("support", doc["support"]), contracts=contracts)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def load(path) -> "Menu":
        with open(path) as fh:
            return Menu.from_json(fh.read())


@dataclass(frozen=True)
class SelectionOutcome:
    """Report chosen by an agent (None means opt out) and the best utility found."""

    report: Optional[float]
    utility: float

    @property
    def opted_out(self) -> bool:
        return self.report is None


def utility(q, contract: Contract, model: TestModel):
    """Expected utility of type-q agents under ``contract``, elementwise in q."""
    q = _types(q)
    slope, intercept = _line(contract.tau, contract.reward, contract.cost, model)
    return _float_or_array(q * slope + intercept)


def zero_utility_cost(q, tau, reward, model: TestModel):
    """Cost calibrated so a type-q agent gets zero utility, elementwise: reward
    times the agent's approval probability q tau + (1 - q) beta1(tau) (zero up
    to rounding, which ``PARTICIPATION_SLACK`` absorbs)."""
    return reward * (q * tau + (1.0 - q) * power(model, tau))


def _utility_blocks(q: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray):
    """Yield ``(start, u)`` with u[i, j] = q[start + i] * slopes[j] + intercepts[j]
    over consecutive row blocks; ``u`` is one reused buffer."""
    block = max(1, _BLOCK_ELEMENTS // len(slopes))
    buf = np.empty((min(len(q), block), len(slopes)))
    for start in range(0, len(q), block):
        rows = q[start : start + block]
        u = buf[: len(rows)]
        np.multiply(rows[:, None], slopes, out=u)
        u += intercepts
        yield start, u


def _blocked_response(
    q: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``best_response`` by an argmax over every (type, line) pair, in
    fixed-size row blocks so that memory is bounded whatever the menu size."""
    index = np.empty(len(q), dtype=np.intp)
    value = np.empty(len(q))
    for start, u in _utility_blocks(q, slopes, intercepts):
        stop = start + len(u)
        chosen = np.argmax(u, axis=1, out=index[start:stop])
        # Re-evaluating the chosen line repeats u's arithmetic bit for bit and,
        # unlike a max over a short row, stays fast for small menus.
        best = np.take(slopes, chosen, out=value[start:stop])
        best *= q[start:stop]
        best += np.take(intercepts, chosen)
    return index, value


def _segments(slopes: np.ndarray, intercepts: np.ndarray) -> Tuple[Optional[np.ndarray], float]:
    """Breakpoints of the lines ``q * slopes + intercepts`` as their own upper
    envelope, each line winning on a segment in the order given, and the
    rounding bound of one ``q * slope + intercept`` for q in [0, 1].

    A separating menu's lines are such an envelope, in support order. The
    breakpoints (``breaks[k]`` hands line k over to line k + 1) are certified
    only when the slopes strictly increase and the breakpoints are finite and
    increase by more than their rounding error, so that the exact breakpoints
    increase too and no line is dropped; otherwise they are None.
    """
    with np.errstate(all="ignore"):
        # |fl(fl(q s) + b) - (q s + b)| <= 3u (|s| + |b|) for |q| <= 1, u = eps / 2
        tol = 2.0 * _EPS * float(np.max(np.abs(slopes)) + np.max(np.abs(intercepts))) + _TINY
        breaks = (intercepts[:-1] - intercepts[1:]) / (slopes[1:] - slopes[:-1])
        # Each break is within 4u |break| of the exact one (three roundings);
        # twice that bound keeps their exact order.
        rounding = 4.0 * _EPS * (np.abs(breaks[:-1]) + np.abs(breaks[1:])) + 4.0 * _TINY
        certified = (
            math.isfinite(tol)
            and np.all(slopes[1:] > slopes[:-1])
            and np.all(np.isfinite(breaks))
            and np.all(np.diff(breaks) > rounding)
        )
    return (breaks if certified else None), tol


@dataclass(frozen=True)
class _Certificate:
    """A menu's lines as ``_select`` reads them, made once for any number of
    types. On lines that ``_segments`` certifies, ``bounds`` is
    ``[-inf, *breaks, inf]`` (line i wins on ``[bounds[i], bounds[i + 1])``)
    and ``padded`` holds the slopes and intercepts between ``_leads``'
    sentinel lines; both are None on other lines.

    ``table``, when built, has an entry for each ``_bucket`` (``1 / scale``
    wide, from the first break to the last): the number of breaks that
    ``_bucket`` places below it. ``_bucket`` is monotone, so a
    type's segment index is at least its bucket's entry and exceeds it by at
    most the number of breaks in its bucket.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    tol: float
    bounds: Optional[np.ndarray] = None
    padded: Optional[Tuple[np.ndarray, np.ndarray]] = None
    table: Optional[np.ndarray] = None
    scale: float = 0.0


def _leads(
    q: np.ndarray, index: np.ndarray, certificate: _Certificate, margin: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Value of line ``index`` at each type in ``q``, by ``q * slope +
    intercept``, and whether it beats every other line by more than
    ``margin``, both exactly and as ``value > other + margin`` is rounded.

    Only for certified lines (``certificate.bounds`` is not None) and types
    in [0, 1]. The line and its two neighbours (sentinel lines at -inf past
    the ends) are scored. Line k + 1 exceeds line k exactly when q is above
    their breakpoint, and the exact breakpoints increase, so at any q the
    exact values rise to one peak and then fall: a line that beats both
    neighbours is the peak, and every other line is at most the larger
    neighbour. Each rounded value is within ``tol`` of the exact one (with
    room to spare), so a rounded lead above twice ``tol`` is an exact lead,
    and every other line's rounded value is at most the larger rounded
    neighbour plus twice ``tol``. On [0, 1] every value is at most
    ``tol / (2 eps)`` in magnitude, so one more ``tol``, and
    ``4 eps |margin|``, cover the rounding of ``other + margin`` and of the
    test itself. Only the peak bounds the lines past its neighbours, so a
    negative margin still needs a lead over zero.
    """
    s, b = certificate.padded
    value = q * s[index + 1] + b[index + 1]
    rival = np.maximum(q * s[index] + b[index], q * s[index + 2] + b[index + 2])
    allowance = 3.0 * certificate.tol + 4.0 * _EPS * abs(margin)
    return value, value - rival > max(margin, 0.0) + allowance


def _certify(slopes: np.ndarray, intercepts: np.ndarray, table: bool = True) -> _Certificate:
    """``_select``'s certificate of the lines. When ``table`` is true and the
    lines are certified with at least two breaks, it holds a bucket table of
    two buckets per break, unless their width does not scale finitely."""
    breaks, tol = _segments(slopes, intercepts)
    if breaks is None:
        return _Certificate(slopes, intercepts, tol)
    bounds = np.concatenate(([-np.inf], breaks, [np.inf]))
    padded = (
        np.concatenate(([0.0], slopes, [0.0])),
        np.concatenate(([-np.inf], intercepts, [-np.inf])),
    )
    slopes, intercepts = padded[0][1:-1], padded[1][1:-1]  # no second copy
    if not (table and len(breaks) > 1):
        return _Certificate(slopes, intercepts, tol, bounds, padded)
    buckets = 2 * len(breaks)
    lo, hi = float(breaks[0]), float(breaks[-1])
    with np.errstate(over="ignore"):
        scale = float(np.float64(buckets) / (hi - lo))
    if not 0.0 < scale < math.inf:
        return _Certificate(slopes, intercepts, tol, bounds, padded)
    # Types land in buckets 0 to ``buckets`` (the last where hi may round).
    placed = _bucket(breaks, breaks, scale).astype(np.intp)
    counts = np.searchsorted(placed, np.arange(buckets + 1), side="left")
    return _Certificate(slopes, intercepts, tol, bounds, padded, counts, scale)


def _bucket(q: np.ndarray, breaks: np.ndarray, scale: float) -> np.ndarray:
    """The table bucket of each type as a float, ``(q - lo) * scale``, with q
    clamped to ``[lo, hi]``, the first and last breaks, first (NaN to
    ``lo``), so that no value overflows and its cast to an index does not
    fail."""
    lo, hi = breaks[0], breaks[-1]
    at = np.fmax(q, lo)
    np.fmin(at, hi, out=at)
    at -= lo
    at *= scale
    return at


def _segment_index(q: np.ndarray, certificate: _Certificate) -> np.ndarray:
    """``np.searchsorted(breaks, q, side="right")`` on certified lines.

    With a table, each type takes its bucket's entry, steps up once past a
    break at or below it, and keeps that index where ``bounds[i] <= q <
    bounds[i + 1]`` proves it; the breaks strictly increase, so that index
    is the search's. Every other type (NaN, +inf, a type in a bucket of more
    than one break) is searched."""
    bounds = certificate.bounds
    breaks = bounds[1:-1]
    if certificate.table is None:
        return np.searchsorted(breaks, q, side="right")
    above = bounds[1:]  # above[i] is bounds[i + 1]
    at = _bucket(q, breaks, certificate.scale)
    index = np.take(certificate.table, at.astype(np.intp), mode="clip")
    # The gathers go into ``at``; mode "clip" (the indices are in range)
    # writes them there without a temporary.
    index += q >= np.take(above, index, out=at, mode="clip")
    found = np.take(bounds, index, out=at, mode="clip") <= q
    found &= q < np.take(above, index, out=at, mode="clip")
    miss = np.flatnonzero(~found)
    if len(miss):
        index[miss] = np.searchsorted(breaks, q[miss], side="right")
    return index


def _select(q: np.ndarray, certificate: _Certificate) -> Tuple[np.ndarray, np.ndarray]:
    """``best_response`` of the float types ``q`` on a certificate of the
    lines, which a caller that selects many times makes once."""
    if certificate.bounds is None:
        return _blocked_response(q, certificate.slopes, certificate.intercepts)
    index = _segment_index(q, certificate)
    value, leads = _leads(q, index, certificate)
    redo = np.flatnonzero(~(leads & (q >= 0.0) & (q <= 1.0)))
    if len(redo):
        index[redo], value[redo] = _blocked_response(
            q[redo], certificate.slopes, certificate.intercepts
        )
    return index, value


def best_response(
    q: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Index and utility of the best line for each type in ``q``.

    Ties break toward the first maximum, which is the smallest report
    because menu supports are increasing. Opting out is left to the caller
    (a best utility below ``-PARTICIPATION_SLACK``).

    When the lines are certified as their own upper envelope (``_segments``),
    each type finds its segment among the breakpoints (``_segment_index``:
    by a bucket table when there are at least as many types as breakpoints,
    else by ``searchsorted``) and keeps that line where ``_leads`` proves it
    the maximum. Other types (ties included), types outside [0, 1] and every
    type of uncertified lines go to the argmax over all lines; both routes
    give the same indices and value bits.
    """
    q = np.asarray(q, dtype=float)
    return _select(q, _certify(slopes, intercepts, table=len(q) >= len(slopes) - 1))


def select(q: float, menu: Menu, model: TestModel) -> SelectionOutcome:
    """Utility-maximizing report for a type-q agent, or opt-out.

    Ties break toward the smallest reported type; an agent opts out only
    when its best utility is below ``-PARTICIPATION_SLACK``.
    """
    index, value = best_response(_types([q]), *menu.lines(model))
    best_u = float(value[0])
    if best_u < -PARTICIPATION_SLACK:
        return SelectionOutcome(report=None, utility=best_u)
    return SelectionOutcome(report=menu.support[index[0]], utility=best_u)


@dataclass(frozen=True)
class Violation:
    kind: str  # "ic" or "participation"
    q: float
    p: Optional[float]
    gap: float


def _first_violation(
    qs: np.ndarray, own: np.ndarray, reports: Sequence[float], slopes: np.ndarray,
    intercepts: np.ndarray, margin: float, floor: float,
) -> Tuple[int, Optional[Violation]]:
    """Pairs found to hold and the first violation, or None, of each type
    ``qs[i]``'s own line ``own[i]``: at least ``floor``, and above every
    other line (line j is report ``reports[j]``) by more than ``margin``.
    O(n) when the lines are certified (``_segments``), the types lie in
    [0, 1] and every own line leads both neighbours (``_leads``) and clears
    the floor; otherwise every pair is scored in row blocks."""
    others = len(slopes) - 1
    certificate = _certify(slopes, intercepts, table=False)
    if certificate.bounds is not None and np.all((qs >= 0.0) & (qs <= 1.0)):
        truthful, leads = _leads(qs, own, certificate, margin)
        if np.all(leads & (truthful >= floor)):
            return len(qs) * others, None
    # The first violation in row-major (q, then p) order: within a row the
    # floor precedes the IC pairs, and a type's own line is not a pair.
    for start, u in _utility_blocks(qs, slopes, intercepts):
        rows, cols = np.arange(len(u)), own[start : start + len(u)]
        truthful = u[rows, cols]
        bad = ~(truthful[:, None] > u + margin)
        bad[rows, cols] = False
        outside = truthful < floor
        flagged = np.flatnonzero(outside | bad.any(axis=1))
        if not len(flagged):
            continue
        i = int(flagged[0])
        q = float(qs[start + i])
        pairs = (start + i) * others
        if outside[i]:
            return pairs, Violation(kind="participation", q=q, p=None, gap=float(truthful[i]))
        j = int(np.argmax(bad[i]))
        pairs += j + int(j < cols[i])
        return pairs, Violation(kind="ic", q=q, p=reports[j], gap=float(truthful[i] - u[i, j]))
    return len(qs) * others, None


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of a separation check over support x support; ``pairs_checked``
    counts the (type, other report) pairs found to hold."""

    passed: bool
    support: Tuple[float, ...]
    margin: float
    pairs_checked: int
    first_violation: Optional[Violation]
    tie_break: str = TIE_BREAK_RULE

    def describe(self) -> str:
        if self.passed:
            return (
                f"separating: {len(self.support)} types, {self.pairs_checked} pairs, "
                f"margin {self.margin:g}"
            )
        v = self.first_violation
        if v.kind == "participation":
            return f"participation violated at q={v.q:.6g}: utility {v.gap:.6g} < 0"
        if v.gap >= 0.0:  # truthful leads, but not by more than the margin
            return (
                f"IC violated at q={v.q:.6g}: truthful leads report {v.p:.6g} by "
                f"{v.gap:.6g}, not above the margin {self.margin:g}"
            )
        return (
            f"IC violated at q={v.q:.6g}: report {v.p:.6g} beats truthful by "
            f"{-v.gap:.6g} (margin {self.margin:g})"
        )


def verify_separating(
    menu: Menu,
    support: Optional[Sequence[float]] = None,
    *,
    model: TestModel,
    margin: float = DEFAULT_IC_MARGIN,
) -> SeparationReport:
    """Check that every supported type strictly prefers its own contract.

    For each q in ``support`` (default: the full menu support) requires
    psi(q; q) > psi(q; p) + margin for p != q and psi(q; q) >= 0, the latter
    up to ``PARTICIPATION_SLACK``.
    Returns a report carrying the first violating pair rather than raising. A
    negative or NaN ``margin``, which would pass menus that break IC, raises.

    The pairs are scanned by ``_first_violation``, with participation as
    its floor: in O(n) when the menu's lines certify that every pair holds.
    """
    if not margin >= 0.0:
        raise ValueError(f"IC margin must be nonnegative, got {margin!r}")
    if support is None:
        support = menu.support
    support = tuple(float(q) for q in support)
    position = {p: j for j, p in enumerate(menu.support)}
    missing = [q for q in support if q not in position]
    if missing:
        raise ValueError(f"verified support must be within the menu support; missing {missing[:3]}")

    own = np.array([position[q] for q in support], dtype=np.intp)
    qs, lines = np.array(support, dtype=float), menu.lines(model)
    pairs, violation = _first_violation(qs, own, menu.support, *lines, margin, -PARTICIPATION_SLACK)
    return SeparationReport(violation is None, support, margin, pairs, violation)


def scoring_rule(menu: Menu, p: float, y: int, model: TestModel) -> float:
    """Realized payoff of report ``p`` when the proposal state is ``y``.

    ``y = 1`` means the proposal is null (ineffective), ``y = 0`` effective.
    The payoffs are the ends of the report's utility line: S(p, 1) = slope +
    intercept at q = 1 and S(p, 0) = intercept at q = 0.
    """
    if y not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {y!r}")
    c = menu.contract_for(p)
    slope, intercept = _line(c.tau, c.reward, c.cost, model)
    return float(slope + intercept if y == 1 else intercept)


def expected_score(menu: Menu, p: float, q: float, model: TestModel) -> float:
    """Expected payoff q * S(p, 1) + (1-q) * S(p, 0); equals utility(q, contract_p)."""
    return q * scoring_rule(menu, p, 1, model) + (1.0 - q) * scoring_rule(menu, p, 0, model)
