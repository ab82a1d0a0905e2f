"""Statistical and financial evaluation of menus.

Covers the per-type error rates, FDR/TDR frontier sweeps for two-type
populations, the screening cost and information rent of a menu relative to
a single base contract, and a seeded Monte Carlo simulator that checks the
analytic quantities empirically. The simulator splits the population into
slots (a discrete population's types, or a uniform population's segments
of the menu's upper envelope, plus opting out), each with its mass and mean
type, and draws every slot's tallies from their exact law with one seeded
generator: the same arguments give the same report, in O(slots) time and
memory whatever the number of agents.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contracts import (
    PARTICIPATION_SLACK,
    Contract,
    Menu,
    _envelope,
    best_response,
    utility,
)
from .errors import ParticipationError
from .objectives import TypePopulation, _fdr_bisection
from .rates import bayes_risk, fdr, tdr
from .testmodel import (
    TestModel,
    _float_or_array,
    _require,
    _types,
    power,
)

__all__ = [
    "fdr",
    "tdr",
    "bayes_risk",
    "FrontierPoint",
    "frontier",
    "frontier_table",
    "screening_cost",
    "information_rent",
    "principal_return",
    "SimulationReport",
    "simulate_population",
]

# The most agents a simulation may run: every count up to 2^53 converts to a
# float exactly, so rates and cash are priced from exact counts.
MAX_AGENTS = 1 << 53
# Rows of a simulation's per-slot count matrix (``_tallies``).
_TALLIES = ("agents", "participating", "null", "approved_null", "approved_nonnull")


@dataclass(frozen=True)
class FrontierPoint:
    """One point of a labeled FDR/TDR trade-off curve."""

    label: str  # oracle | uniform | good_only | bad_only
    parameter: float  # the sweep value producing the point (alpha or tau)
    fdr: float
    tdr: float


def _sweep_grid(resolution: int, lo: float = 1e-6) -> np.ndarray:
    # Log-spaced points resolve the steep low-threshold region, linear the rest.
    n_log = resolution // 4
    grid = np.concatenate(
        [
            np.geomspace(lo, 0.05, n_log, endpoint=False),
            np.linspace(0.05, 1.0, resolution - n_log),
        ]
    )
    return grid


def _mix_fdr(null_mass: np.ndarray, approve_mass: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(approve_mass > 0, null_mass / approve_mass, 0.0)


def frontier_table(
    population: TypePopulation, model: TestModel, resolution: int = 512
) -> Tuple[List[str], List[float], List[float], List[float]]:
    """FDR/TDR curves for a two-type population, as four columns: labels,
    parameters, FDRs and TDRs, row for row in ``frontier``'s order.

    Four labeled sweeps: a single threshold applied to everyone (uniform),
    a single threshold applied to one type only while the other is never
    tested (good_only / bad_only), and per-type budget-optimal thresholds
    swept over the budget (oracle). "Good" is the type with the smaller
    prior null probability. The first three sweeps share the threshold grid
    and take turns at each threshold; the oracle rows follow, one per budget.
    """
    if population.kind != "discrete" or len(population.types) != 2:
        raise ValueError("frontier requires a discrete population with exactly two types")
    (q_good, q_bad) = population.types
    (w_good, w_bad) = population.weights

    taus = _sweep_grid(resolution)
    null_mass = (w_good * q_good + w_bad * q_bad) * taus
    approve_mass = null_mass + (w_good * (1 - q_good) + w_bad * (1 - q_bad)) * power(model, taus)
    tdr_good, tdr_bad = w_good * tdr(q_good, taus, model), w_bad * tdr(q_bad, taus, model)
    fdrs = [_mix_fdr(null_mass, approve_mass), fdr(q_good, taus, model), fdr(q_bad, taus, model)]
    tdrs = [tdr_good + tdr_bad, tdr_good, tdr_bad]

    alphas = _sweep_grid(resolution, lo=1e-4)
    alphas = alphas[alphas < 1.0]
    good, bad = _fdr_bisection(np.array([[q_good], [q_bad]]), alphas, model)
    null_mass = w_good * q_good * good + w_bad * q_bad * bad
    approve_mass = null_mass + w_good * (1 - q_good) * power(model, good)
    approve_mass = approve_mass + w_bad * (1 - q_bad) * power(model, bad)
    mix_tdr = w_good * tdr(q_good, good, model) + w_bad * tdr(q_bad, bad, model)

    def column(same_tau, oracle):  # the three sweeps interleaved, then the oracle
        return np.concatenate([np.stack(same_tau, axis=1).ravel(), oracle]).tolist()

    labels = ["uniform", "good_only", "bad_only"] * len(taus) + ["oracle"] * len(alphas)
    return (
        labels,
        column([taus] * 3, alphas),
        column(fdrs, _mix_fdr(null_mass, approve_mass)),
        column(tdrs, mix_tdr),
    )


def frontier(
    population: TypePopulation, model: TestModel, resolution: int = 512
) -> List[FrontierPoint]:
    """FDR/TDR curves for a two-type population: one point per row of
    ``frontier_table``."""
    return [FrontierPoint(*row) for row in zip(*frontier_table(population, model, resolution))]


def screening_cost(
    menu: Menu, base: Contract, population: TypePopulation, model: TestModel
) -> float:
    """Expected surplus conceded relative to offering only the base contract.

    Integrates the gap between the menu's surplus and the base contract's
    over the population, which should lie inside the range the menu was
    designed for.
    """
    points = population.points()
    _, best = best_response(points, *menu.lines(model))
    return population.average(_surplus(best) - _surplus(utility(points, base, model)))


def information_rent(menu: Menu, population: TypePopulation, model: TestModel) -> float:
    """Expected surplus left to agents under the menu."""
    _, best = best_response(population.points(), *menu.lines(model))
    return population.average(_surplus(best))


def _surplus(best: np.ndarray) -> np.ndarray:
    """A type's best utility, or 0 when it opts out (below ``-PARTICIPATION_SLACK``)."""
    return np.where(best < -PARTICIPATION_SLACK, 0.0, best)


def principal_return(menu: Menu, base: Contract, q, model: TestModel):
    """Expected financial return from tailoring type q's contract vs the base
    (elementwise): the principal's expected cash (cost minus reward times
    approval) under the type's best contract less that under the base. This
    equals the negated utility gap, which is what is computed.
    """
    qs = np.atleast_1d(_types(q))
    _, best = best_response(qs, *menu.lines(model))
    opted_out = "type opts out of the menu (return undefined)"
    _require(qs, best >= -PARTICIPATION_SLACK, opted_out, ParticipationError)
    return _float_or_array((-(best - utility(qs, base, model))).reshape(np.shape(q)))


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate outcome of a synthetic agent population run.

    ``principal_cash`` is what participants pay in costs less what approved
    agents receive in rewards. It is priced once from the run's tallies, as
    the ``math.fsum`` over contracts of participants times cost and approvals
    times reward.
    """

    n_agents: int
    seed: int
    stratified: bool
    participating: int
    approved: int
    approved_null: int
    empirical_fdr: float
    fdr_se: float
    empirical_tdr: float
    tdr_se: float
    principal_cash: float
    per_type: Optional[Dict[float, Dict[str, int]]] = None

    def __post_init__(self):
        if not 0 <= self.approved <= self.participating <= self.n_agents:
            raise ValueError("inconsistent simulation counts")
        if not 0.0 <= self.empirical_fdr <= 1.0 or not 0.0 <= self.empirical_tdr <= 1.0:
            raise ValueError("rates must lie in [0, 1]")


def _stratified_counts(weights: np.ndarray, size: int) -> np.ndarray:
    """``size`` agents allocated over ``weights`` by the floor of their
    cumulative share: each count is within one agent of its share, and the
    counts add up to ``size`` whatever the weights' rounding."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]  # nondecreasing up to exactly 1, so no count is negative
    return np.diff(np.floor(cdf * size).astype(np.int64), prepend=0)


def _slot_table(menu: Menu, population: TypePopulation, model: TestModel):
    """Each slot's menu contract (``len(menu.taus)`` for opting out), its
    population mass and its mean type.

    A discrete population's slot is its type, whose contract is its
    ``best_response`` (opting out below ``-PARTICIPATION_SLACK``). A uniform
    population on [lo, hi] has a slot per contract and one last slot for
    opting out: each line of the exact upper envelope (``_envelope``) serves
    its segment clipped to [lo, hi], except for the part where the line is
    below ``-PARTICIPATION_SLACK``, which lies at one end of the segment,
    past the root of a linear function, and opts out. Each piece adds its
    length and first moment to its slot."""
    slopes, intercepts = menu.lines(model)
    n = len(menu.taus)
    if population.kind == "discrete":
        types = np.array(population.types, dtype=float)
        choice, best = best_response(types, slopes, intercepts)
        contract = np.where(best >= -PARTICIPATION_SLACK, choice, n)
        return contract, np.array(population.weights, dtype=float), types
    lo, hi = population.lo, population.hi
    winners, breaks = _envelope(slopes, intercepts)
    breaks = np.clip(np.maximum.accumulate(breaks), lo, hi)  # rounding cannot reverse a segment
    a, z = np.append(lo, breaks), np.append(breaks, hi)
    s, b = slopes[winners], intercepts[winners]
    in_a, in_z = s * a + b >= -PARTICIPATION_SLACK, s * z + b >= -PARTICIPATION_SLACK
    with np.errstate(all="ignore"):  # read only where the ends differ, so s is not 0
        root = np.clip((-PARTICIPATION_SLACK - b) / s, a, z)
    start = np.where(in_a, a, np.where(in_z, root, z))  # the participating piece
    stop = np.where(in_z, z, np.where(in_a, root, z))
    slot = np.concatenate([winners, np.full(2 * len(a), n)])
    left, right = np.concatenate([start, a, stop]), np.concatenate([stop, start, z])
    length = np.bincount(slot, weights=right - left, minlength=n + 1)
    moment = np.bincount(slot, weights=(right - left) * (right + left) / 2.0, minlength=n + 1)
    mean = np.divide(moment, length, out=np.full(n + 1, lo), where=length > 0.0)
    return np.arange(n + 1), length / (hi - lo), np.clip(mean, lo, hi)


def _tallies(menu, population, model, n, seed, stratified):
    """Each slot's menu contract (``_slot_table``) and the ``_TALLIES`` x
    slots count matrix of ``n`` agents, drawn from its exact law by one
    generator seeded with ``seed``: agents multinomial over the slots'
    masses (or ``_stratified_counts``), the null among them binomial in the
    slot's mean type, and approvals binomial in the contract's threshold for
    the null and in its power for the rest. Agents are independent, so this
    is the law of running them one by one."""
    contract, mass, mean = _slot_table(menu, population, model)
    taus = np.append(menu.taus, 0.0)[contract]  # the opt-out slot's 0 approves no one
    rng = np.random.default_rng(seed)
    weights = mass / mass.sum()
    if stratified:
        agents = _stratified_counts(weights, n)
    else:
        agents = rng.multinomial(n, weights)
        # numpy gives its last slot what rounding leaves over, even a slot
        # without mass (an empty opt-out slot): it goes to the last with mass
        last = np.flatnonzero(weights)[-1]
        agents[last] += agents[last + 1 :].sum()
        agents[last + 1 :] = 0
    null = rng.binomial(agents, mean)
    approved_null = rng.binomial(null, taus)
    approved_alt = rng.binomial(agents - null, power(model, taus))
    participating = np.where(contract < len(menu.taus), agents, 0)
    return contract, np.array([agents, participating, null, approved_null, approved_alt])


def _integer(value, name: str) -> int:
    """``value`` as an ``int`` by ``operator.index``; a bool, a float, None or
    any other non-integer raises ``ValueError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def simulate_population(
    menu: Menu,
    population: TypePopulation,
    model: TestModel,
    n: int,
    seed: int,
    stratified: bool = False,
) -> SimulationReport:
    """Run ``n`` synthetic agents through the menu and tally outcomes.

    Each agent draws a type, selects a contract (or opts out), runs a trial
    if participating, and is approved when the p-value clears the chosen
    threshold. A run draws each slot's tallies from their exact joint law
    (``_tallies``) in O(slots), not agent by agent. Types are drawn i.i.d.
    unless ``stratified`` allocates them proportionally (discrete
    populations only). The report depends only on the arguments. ``n`` is an
    integer in [1, ``MAX_AGENTS``] and ``seed`` a nonnegative integer (not a
    bool); anything else raises ``ValueError``.
    """
    n, seed = _integer(n, "agent count"), _integer(seed, "seed")
    if not 1 <= n <= MAX_AGENTS:
        raise ValueError(f"need between 1 and {MAX_AGENTS} agents, got {n!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    if stratified and population.kind != "discrete":
        raise ValueError("stratified sampling requires a discrete population")
    contract, counts = _tallies(menu, population, model, n, seed, stratified)
    # Participants pay their contract's cost, approved agents receive its
    # reward; the opt-out slot costs and pays nothing.
    costs, rewards = (np.append(column, 0.0)[contract] for column in (menu.costs, menu.rewards))
    cash = math.fsum([*counts[1] * costs, *-(counts[3] + counts[4]) * rewards])
    _, participating, _, approved_null, approved_nonnull = counts.sum(axis=1).tolist()
    approved = approved_null + approved_nonnull

    emp_fdr = approved_null / approved if approved else 0.0
    fdr_se = math.sqrt(emp_fdr * (1.0 - emp_fdr) / approved) if approved else 0.0
    emp_tdr = approved_nonnull / n
    tdr_se = math.sqrt(emp_tdr * (1.0 - emp_tdr) / n)

    per_type = None
    if population.kind == "discrete":
        per_type = {
            float(q): dict(zip(_TALLIES, column))
            for q, column in zip(population.types, counts.T.tolist())
        }

    return SimulationReport(
        n_agents=n,
        seed=seed,
        stratified=stratified,
        participating=participating,
        approved=approved,
        approved_null=approved_null,
        empirical_fdr=emp_fdr,
        fdr_se=fdr_se,
        empirical_tdr=emp_tdr,
        tdr_se=tdr_se,
        principal_cash=cash,
        per_type=per_type,
    )
