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
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasibleMenuError
from .testmodel import TestModel, _float_or_array, _types, power

__all__ = [
    "Contract",
    "Menu",
    "SeparationReport",
    "Violation",
    "utility",
    "zero_utility_cost",
    "best_response",
    "verify_separating",
    "scoring_rule",
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
    in q, elementwise. A slope or intercept past the float range (a reward and
    cost near its ends) raises ``InfeasibleMenuError`` naming the first such
    contract."""
    beta1 = power(model, tau)
    with np.errstate(over="ignore", invalid="ignore"):
        slope, intercept = reward * (tau - beta1), reward * beta1 - cost
    finite = np.isfinite(slope) & np.isfinite(intercept)
    if not finite.all():
        i = int(np.argmin(finite))
        t, r, c, s, b = (
            float(np.broadcast_to(x, finite.shape).flat[i])
            for x in (tau, reward, cost, slope, intercept)
        )
        raise InfeasibleMenuError(
            f"contract (tau={t!r}, reward={r!r}, cost={c!r}) has a utility line past "
            f"the float range: slope {s!r}, intercept {b!r}"
        )
    return slope, intercept


# ``json.dumps(..., indent=2)``'s layout of a menu document and of one of its
# contracts; ``%r`` writes a float as json does, by ``float.__repr__``.
_MENU_JSON = '{\n  "support": [\n    %s\n  ],\n  "contracts": [\n    %s\n  ]\n}'
_CONTRACT_JSON = '{\n      "tau": %r,\n      "reward": %r,\n      "cost": %r\n    }'


def _numbers(name: str, values: list) -> list:
    """``values``, unless one of them is not a number: ``json.loads`` also
    reads true/false as bools and integers of any size."""
    if not set(map(type, values)) <= {float}:
        bad = [
            x for x in values
            if not (type(x) is float or type(x) is int and abs(x) <= sys.float_info.max)
        ]
        if bad:
            raise ValueError(f"menu {name} must be numbers, got {bad[0]!r}")
    return values


class Menu:
    """Contracts indexed by a strictly increasing support of reported types.

    The state is the ``support`` tuple and three read-only float64 columns
    in support order, ``taus``, ``rewards`` and ``costs``. ``contracts`` is a
    view of the columns, built on each access. Menus are equal when their
    supports are and their columns agree bit for bit.
    """

    __slots__ = ("support", "taus", "rewards", "costs")

    def __init__(self, support: Sequence[float], contracts: Sequence[Contract]):
        rows = np.array([(c.tau, c.reward, c.cost) for c in contracts], dtype=float)
        self._set(support, *rows.reshape(-1, 3).T)

    @classmethod
    def _from_columns(cls, support, taus, rewards, costs) -> "Menu":
        """The menu on ``support`` whose contracts have the given columns,
        built without per-contract objects."""
        menu = cls.__new__(cls)
        menu._set(support, taus, rewards, costs)
        return menu

    def _set(self, support, taus, rewards, costs) -> None:
        """Check and store the state. ``Contract``'s checks run on the columns
        at once; the first bad row, if any, raises its own message. Then the
        support must lie in [0, 1] and strictly increase."""
        support = np.array(support, dtype=float)
        if not len(support):
            raise ValueError("menu support must be nonempty")
        if not len(taus) == len(rewards) == len(costs) == len(support):
            raise ValueError("support and contracts must align")
        columns = np.array((taus, rewards, costs), dtype=float)
        taus, rewards, costs = columns
        bad = np.flatnonzero(
            ~((taus >= 0.0) & (taus <= 1.0) & np.isfinite(rewards) & (rewards >= 0.0)
              & np.isfinite(costs))
        )
        if len(bad):
            Contract(*columns[:, bad[0]].tolist())  # raises that row's message
        outside = np.flatnonzero(~((support >= 0.0) & (support <= 1.0)))
        if len(outside):
            raise ValueError(f"support must lie in [0, 1], got {support[outside[0]].item()!r}")
        unordered = np.flatnonzero(~(support[1:] > support[:-1]))
        if len(unordered):
            a, b = support[unordered[0] : unordered[0] + 2].tolist()
            raise ValueError(f"support must be strictly increasing, got {b!r} after {a!r}")
        columns.flags.writeable = False
        for name, value in zip(self.__slots__, (tuple(support.tolist()), *columns)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Menu is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Menu._from_columns, (self.support, self.taus, self.rewards, self.costs)

    def _bits(self) -> bytes:
        return self.taus.tobytes() + self.rewards.tobytes() + self.costs.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Menu):
            return NotImplemented
        return self.support == other.support and self._bits() == other._bits()

    def __hash__(self):
        return hash((self.support, self._bits()))

    def __repr__(self):
        return f"Menu(support={self.support!r}, contracts={self.contracts!r})"

    @property
    def contracts(self) -> Tuple[Contract, ...]:
        return tuple(map(Contract, self.taus.tolist(), self.rewards.tolist(), self.costs.tolist()))

    def lines(self, model: TestModel) -> Tuple[np.ndarray, np.ndarray]:
        """Slope and intercept arrays of the contracts' utility lines under
        ``model``, in support order; computed on each call."""
        return _line(self.taus, self.rewards, self.costs, model)

    def contract_for(self, p: float) -> Contract:
        try:
            i = self.support.index(p)
        except ValueError:
            raise KeyError(f"report {p!r} is not in the menu support") from None
        return Contract(self.taus[i].item(), self.rewards[i].item(), self.costs[i].item())

    def to_json(self) -> str:
        """The bytes of ``json.dumps(doc, indent=2)`` for ``doc = {"support":
        [...], "contracts": [{"tau": ..., "reward": ..., "cost": ...}, ...]}``.
        The layout is written here: with an indent, ``json`` falls back to its
        pure-Python encoder. Every number is a finite float."""
        cells = np.column_stack((self.taus, self.rewards, self.costs)).ravel().tolist()
        contracts = ",\n    ".join([_CONTRACT_JSON] * len(self.taus)) % tuple(cells)
        support = ",\n    ".join(map(repr, self.support))
        return _MENU_JSON % (support, contracts)

    @staticmethod
    def from_json(text: str) -> "Menu":
        """Parse ``to_json``'s document. A boolean, an integer past the float
        range or any other non-number in ``support``, ``tau``, ``reward`` or
        ``cost`` raises ``ValueError``."""
        doc = json.loads(text)
        rows = map(itemgetter("tau", "reward", "cost"), doc["contracts"])
        cells = list(chain.from_iterable(rows))
        columns = np.array(_numbers("contracts", cells), dtype=float).reshape(-1, 3).T
        return Menu._from_columns(_numbers("support", doc["support"]), *columns)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def load(path) -> "Menu":
        with open(path) as fh:
            return Menu.from_json(fh.read())


def utility(q, contract: Contract, model: TestModel):
    """Expected utility of type-q agents under ``contract``, elementwise in q.
    A contract whose utility line's slope or intercept is past the float range
    raises ``InfeasibleMenuError``."""
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
    rounding bound of one ``q * slope + intercept`` for q in [0, 1]. For
    ``|q| <= reach``, ``reach >= 1``, that bound times ``reach`` holds.

    A separating menu's lines are such an envelope, in support order. The
    breakpoints (``breaks[k]`` hands line k over to line k + 1) are certified
    only when the slopes strictly increase and the breakpoints are finite and
    increase by more than their rounding error, so that the exact breakpoints
    increase too and no line is dropped; otherwise they are None.
    """
    with np.errstate(all="ignore"):
        # |fl(fl(q s) + b) - (q s + b)| <= 3u (|q| |s| + |b|), u = eps / 2
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


def _envelope(slopes: np.ndarray, intercepts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The lines that win on the upper envelope of ``q * slopes +
    intercepts`` over the real line, in order of increasing q, and the
    breakpoints between consecutive ones.

    The lines are sorted by slope, then by intercept from the highest, then
    by index, so that of lines with one slope only the highest is kept, and
    of identical lines the smallest index (``TIE_BREAK_RULE``). One stack
    pass then drops each line that wins at one point at most: the next line
    meets the line below it no later than it does.
    """
    order = np.lexsort((np.arange(len(slopes)), -intercepts, slopes))
    order = order[np.r_[True, slopes[order][1:] != slopes[order][:-1]]]
    s, b = slopes.tolist(), intercepts.tolist()
    hull = []
    for j in order.tolist():
        while len(hull) > 1:
            i, k = hull[-2], hull[-1]
            # k goes when j meets i at or below where k does:
            # (b_i - b_j) / (s_j - s_i) <= (b_i - b_k) / (s_k - s_i)
            if (b[i] - b[j]) * (s[k] - s[i]) > (b[i] - b[k]) * (s[j] - s[i]):
                break
            hull.pop()
        hull.append(j)
    hull = np.array(hull)
    s, b = slopes[hull], intercepts[hull]
    with np.errstate(over="ignore"):  # lines of nearly one slope meet far off, at +-inf
        return hull, (b[:-1] - b[1:]) / (s[1:] - s[:-1])


def _leads(
    q: np.ndarray, index: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray,
    tol: float, margin: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Value of line ``index`` at each type in ``q``, by ``q * slope +
    intercept``, and whether it beats every other line by more than
    ``margin``, both exactly and as ``value > other + margin`` is rounded.

    Only for lines that ``_segments`` certifies and types with ``|q| <=
    reach``, where ``tol`` is ``_segments``' rounding bound times ``reach``.
    The line and its two neighbours (sentinel lines at -inf past the ends)
    are scored. Line k + 1 exceeds line k exactly when q is above their
    breakpoint, and the exact breakpoints increase, so at any q the exact
    values rise to one peak and then fall: a line that beats both neighbours
    is the peak, and every other line is at most the larger neighbour. Each
    rounded value is within ``tol`` of the exact one (with room to spare),
    so a rounded lead above twice ``tol`` is an exact lead, and every other
    line's rounded value is at most the larger rounded neighbour plus twice
    ``tol``. For ``|q| <= reach`` every value is at most ``reach max|s| +
    max|b| <= tol / (2 eps)`` in magnitude, so one more ``tol``, and
    ``4 eps |margin|``, cover the rounding of ``other + margin`` and of the
    test itself. Only the peak bounds the lines past its neighbours, so a
    negative margin still needs a lead over zero.
    """
    s = np.concatenate(([0.0], slopes, [0.0]))
    b = np.concatenate(([-np.inf], intercepts, [-np.inf]))
    value = q * s[index + 1] + b[index + 1]
    rival = np.maximum(q * s[index] + b[index], q * s[index + 2] + b[index + 2])
    allowance = 3.0 * tol + 4.0 * _EPS * abs(margin)
    return value, value - rival > max(margin, 0.0) + allowance


def best_response(
    q: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Index and utility of the best line for each type in ``q``.

    Ties break toward the first maximum, which is the smallest report
    because menu supports are increasing. Opting out is left to the caller
    (a best utility below ``-PARTICIPATION_SLACK``).

    When the lines are certified as their own upper envelope (``_segments``),
    each type finds its segment among the breakpoints by ``searchsorted``
    and keeps that line where ``_leads`` proves it the maximum. Other types
    (ties included), types outside [0, 1] and every type of uncertified
    lines go to the argmax over all lines; both routes give the same indices
    and value bits.
    """
    q = np.asarray(q, dtype=float)
    breaks, tol = _segments(slopes, intercepts)
    if breaks is None:
        return _blocked_response(q, slopes, intercepts)
    index = np.searchsorted(breaks, q, side="right")
    value, leads = _leads(q, index, slopes, intercepts, tol)
    redo = np.flatnonzero(~(leads & (q >= 0.0) & (q <= 1.0)))
    if len(redo):
        index[redo], value[redo] = _blocked_response(q[redo], slopes, intercepts)
    return index, value


@dataclass(frozen=True)
class Violation:
    kind: str  # "ic" or "participation"
    q: float
    p: Optional[float]
    gap: float


def _first_violation(
    qs: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray, margin: float, floor: float
) -> Tuple[int, Optional[Violation]]:
    """Pairs found to hold and the first violation, or None, of each type
    ``qs[i]``'s own line i: at least ``floor``, and above every other line
    (line j is report ``qs[j]``) by more than ``margin``. O(n) when the
    lines are certified (``_segments``, for types as far from 0 as the
    farthest of ``qs``) and every own line leads both neighbours
    (``_leads``) and clears the floor; otherwise every pair is scored in row
    blocks."""
    others = len(slopes) - 1
    breaks, tol = _segments(slopes, intercepts)
    if breaks is not None:
        reach = float(np.max(np.abs(qs), initial=1.0))
        truthful, leads = _leads(qs, np.arange(len(qs)), slopes, intercepts, tol * reach, margin)
        if np.all(leads & (truthful >= floor)):
            return len(qs) * others, None
    # The first violation in row-major (q, then p) order: within a row the
    # floor precedes the IC pairs, and a type's own line is not a pair.
    for start, u in _utility_blocks(qs, slopes, intercepts):
        own = np.arange(len(u)), np.arange(start, start + len(u))  # the block's diagonal
        truthful = u[own]
        bad = ~(truthful[:, None] > u + margin)
        bad[own] = False
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
        pairs += j + int(j < start + i)
        return pairs, Violation(kind="ic", q=q, p=float(qs[j]), gap=float(truthful[i] - u[i, j]))
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
    menu: Menu, *, model: TestModel, margin: float = DEFAULT_IC_MARGIN
) -> SeparationReport:
    """Check that every supported type strictly prefers its own contract.

    For each q in the support requires psi(q; q) > psi(q; p) + margin for
    p != q and psi(q; q) >= 0, the latter up to ``PARTICIPATION_SLACK``.
    Returns a report carrying the first violating pair rather than raising. A
    negative or NaN ``margin``, which would pass menus that break IC, raises.

    The pairs are scanned by ``_first_violation``, with participation as
    its floor: in O(n) when the menu's lines certify that every pair holds.
    """
    if not margin >= 0.0:
        raise ValueError(f"IC margin must be nonnegative, got {margin!r}")
    qs = np.array(menu.support)
    pairs, violation = _first_violation(qs, *menu.lines(model), margin, -PARTICIPATION_SLACK)
    return SeparationReport(violation is None, menu.support, margin, pairs, violation)


def scoring_rule(menu: Menu, p: float, y: int, model: TestModel) -> float:
    """Realized payoff of report ``p`` when the proposal state is ``y``.

    ``y = 1`` means the proposal is null (ineffective), ``y = 0`` effective.
    The payoffs are the ends of the report's utility line: S(p, 1) = slope +
    intercept at q = 1 and S(p, 0) = intercept at q = 0. A contract whose
    line's slope or intercept is past the float range raises
    ``InfeasibleMenuError``.
    """
    if y not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {y!r}")
    c = menu.contract_for(p)
    slope, intercept = _line(c.tau, c.reward, c.cost, model)
    return float(slope + intercept if y == 1 else intercept)
