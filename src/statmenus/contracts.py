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
    "Envelope",
    "upper_envelope",
    "envelope_response",
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
# Rows of the (types x contracts) utility block held at once; bounds the
# memory of selection and verification independently of the menu size.
_BLOCK_ROWS = 1 << 12
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
        doc = json.loads(text)
        contracts = tuple(
            Contract(tau=c["tau"], reward=c["reward"], cost=c["cost"]) for c in doc["contracts"]
        )
        return Menu(support=tuple(doc["support"]), contracts=contracts)

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
    buf = np.empty((min(len(q), _BLOCK_ROWS), len(slopes)))
    for start in range(0, len(q), _BLOCK_ROWS):
        rows = q[start : start + _BLOCK_ROWS]
        u = buf[: len(rows)]
        np.multiply(rows[:, None], slopes, out=u)
        u += intercepts
        yield start, u


def best_response(
    q: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Index and utility of the best line for each type in ``q``.

    Ties break toward the first maximum, which is the smallest report
    because menu supports are increasing. Opting out is left to the caller
    (a best utility below ``-PARTICIPATION_SLACK``).
    """
    q = np.asarray(q, dtype=float)
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


@dataclass(frozen=True, eq=False)
class Envelope:
    """Upper envelope of utility lines that each win on a segment, in the
    order given.

    ``breaks[k]`` is the type where line k hands over to line k + 1; it is
    None when the envelope could not be certified exact (see
    ``upper_envelope``). ``tol`` bounds the rounding error of one
    ``q * slope + intercept`` for q in [0, 1].
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    tol: float
    breaks: Optional[np.ndarray]


def upper_envelope(slopes: np.ndarray, intercepts: np.ndarray) -> Envelope:
    """The upper envelope of the lines ``q * slopes + intercepts`` when every
    line wins on its own segment, in the order given.

    A separating menu's lines do, in support order. The envelope is
    certified, and ``envelope_response`` uses it, only when the slopes
    strictly increase and the breakpoints of consecutive lines are finite
    and increase by more than their rounding error, so that the exact
    breakpoints increase too and no line is dropped.
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
    return Envelope(slopes, intercepts, tol, breaks if certified else None)


def envelope_response(q: np.ndarray, envelope: Envelope) -> Tuple[np.ndarray, np.ndarray]:
    """``best_response(q, envelope.slopes, envelope.intercepts)``, bit for bit,
    from the line of each type's segment.

    Each type's line and its two neighbours are scored with
    ``best_response``'s own ``q * slope + intercept``. On a certified
    envelope the lines' exact values at a type rise to one peak and fall, so
    a line that leads both neighbours by more than ``2 * tol`` is the exact
    and the rounded maximum. Other types (ties included), types outside
    [0, 1] and every type of an uncertified envelope go to ``best_response``.
    """
    q = np.asarray(q, dtype=float)
    e = envelope
    if e.breaks is None:
        return best_response(q, e.slopes, e.intercepts)
    # Two sentinel lines at -inf give the end segments one neighbour.
    s, b = np.r_[0.0, e.slopes, 0.0], np.r_[-np.inf, e.intercepts, -np.inf]
    index = np.searchsorted(e.breaks, q, side="right")
    value = q * s[index + 1] + b[index + 1]
    rival = np.maximum(q * s[index] + b[index], q * s[index + 2] + b[index + 2])
    redo = np.flatnonzero(~((value - rival > 2.0 * e.tol) & (q >= 0.0) & (q <= 1.0)))
    if len(redo):
        index[redo], value[redo] = best_response(q[redo], e.slopes, e.intercepts)
    return index, value


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


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of a brute-force separation check over support x support."""

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

    def report(pairs: int, violation: Optional[Violation] = None) -> SeparationReport:
        return SeparationReport(
            passed=violation is None,
            support=support,
            margin=margin,
            pairs_checked=pairs,
            first_violation=violation,
        )

    # The first violation in row-major (q, then p) order: within a row the
    # participation check precedes the IC pairs, and p == q is not a pair.
    others = len(menu.support) - 1
    own = np.array([position[q] for q in support], dtype=np.intp)
    for start, u in _utility_blocks(np.array(support), *menu.lines(model)):
        rows, cols = np.arange(len(u)), own[start : start + len(u)]
        truthful = u[rows, cols]
        bad = ~(truthful[:, None] > u + margin)
        bad[rows, cols] = False
        outside = truthful < -PARTICIPATION_SLACK
        flagged = np.flatnonzero(outside | bad.any(axis=1))
        if not len(flagged):
            continue
        i = int(flagged[0])
        q = support[start + i]
        pairs = (start + i) * others
        if outside[i]:
            return report(pairs, Violation(kind="participation", q=q, p=None, gap=float(truthful[i])))
        j = int(np.argmax(bad[i]))
        pairs += j + int(j < cols[i])
        gap = float(truthful[i] - u[i, j])
        return report(pairs, Violation(kind="ic", q=q, p=menu.support[j], gap=gap))
    return report(len(support) * others)


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
