"""Statistical and financial evaluation of menus.

Covers the per-type error rates, FDR/TDR frontier sweeps for two-type
populations, the screening cost and information rent of a menu relative to
a single base contract, and a seeded Monte Carlo simulator that checks the
analytic quantities empirically. The simulator partitions agents into
fixed-size chunks whose generators are spawned from the root seed, so
results are reproducible and independent of worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .contracts import PARTICIPATION_SLACK, Contract, Menu, best_response, utility
from .errors import ParticipationError
from .objectives import TypePopulation, _fdr_bisection
from .rates import bayes_risk, fdr, tdr
from .testmodel import (
    TestModel,
    _critical_values,
    _float_or_array,
    _require,
    _sample_statistics,
    _types,
    power,
)

__all__ = [
    "fdr",
    "tdr",
    "bayes_risk",
    "FrontierPoint",
    "frontier",
    "matched_tdr",
    "screening_cost",
    "information_rent",
    "principal_return",
    "SimulationReport",
    "simulate_population",
]

_CHUNK = 1 << 16
# A continuous population's chunk selects its agents' contracts in row blocks
# of this many agents, so selection's temporaries take one block, not a chunk.
_SELECT_ROWS = 1 << 12
# Rows of a simulation's per-slot count matrix (``_tally``).
_TALLIES = ("agents", "participating", "null", "approved_null", "approved_nonnull")
# Up to this many types the type draw compares each uniform with every CDF
# entry; above it the draw bisects the CDF.
_DRAW_CUT = 64


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


def _labelled(label: str, parameters, fdrs, tdrs) -> List[FrontierPoint]:
    rows = zip(parameters.tolist(), fdrs.tolist(), tdrs.tolist())
    return [FrontierPoint(label, *row) for row in rows]


def frontier(
    population: TypePopulation, model: TestModel, resolution: int = 512
) -> List[FrontierPoint]:
    """FDR/TDR curves for a two-type population.

    Four labeled sweeps: a single threshold applied to everyone (uniform),
    a single threshold applied to one type only while the other is never
    tested (good_only / bad_only), and per-type budget-optimal thresholds
    swept over the budget (oracle). "Good" is the type with the smaller
    prior null probability.
    """
    if population.kind != "discrete" or len(population.types) != 2:
        raise ValueError("frontier requires a discrete population with exactly two types")
    (q_good, q_bad) = population.types
    (w_good, w_bad) = population.weights

    taus = _sweep_grid(resolution)
    null_mass = (w_good * q_good + w_bad * q_bad) * taus
    approve_mass = null_mass + (w_good * (1 - q_good) + w_bad * (1 - q_bad)) * power(model, taus)
    tdr_good, tdr_bad = w_good * tdr(q_good, taus, model), w_bad * tdr(q_bad, taus, model)
    sweeps = zip(
        _labelled("uniform", taus, _mix_fdr(null_mass, approve_mass), tdr_good + tdr_bad),
        _labelled("good_only", taus, fdr(q_good, taus, model), tdr_good),
        _labelled("bad_only", taus, fdr(q_bad, taus, model), tdr_bad),
    )
    points = [point for same_tau in sweeps for point in same_tau]

    alphas = _sweep_grid(resolution, lo=1e-4)
    alphas = alphas[alphas < 1.0]
    good, bad = _fdr_bisection(np.array([[q_good], [q_bad]]), alphas, model)
    null_mass = w_good * q_good * good + w_bad * q_bad * bad
    approve_mass = null_mass + w_good * (1 - q_good) * power(model, good)
    approve_mass = approve_mass + w_bad * (1 - q_bad) * power(model, bad)
    mix_tdr = w_good * tdr(q_good, good, model) + w_bad * tdr(q_bad, bad, model)
    return points + _labelled("oracle", alphas, _mix_fdr(null_mass, approve_mass), mix_tdr)


def matched_tdr(points: Sequence[FrontierPoint], fdr_values: np.ndarray) -> np.ndarray:
    """TDR of a curve at given FDR abscissae by monotone linear interpolation.

    Queries outside the curve's FDR range return NaN so comparisons skip
    unmatched regions.
    """
    order = np.argsort([p.fdr for p in points])
    f = np.array([points[i].fdr for i in order])
    t = np.array([points[i].tdr for i in order])
    out = np.interp(fdr_values, f, t)
    out = np.where((fdr_values < f[0]) | (fdr_values > f[-1]), np.nan, out)
    return out


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
    times reward, so it does not depend on the chunk layout.
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
    # Largest-remainder allocation keeps per-chunk counts deterministic.
    raw = weights * size
    counts = np.floor(raw).astype(int)
    short = size - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _draw_types(
    weights: np.ndarray, rng: np.random.Generator, u: np.ndarray, masks: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Type indices of ``out.size`` agents into the intp row ``out``:
    ``Generator.choice(len(weights), out.size, p=weights)``'s inverse-CDF
    draw, so the same indices and generator state. Each index counts the CDF
    entries at or below a uniform draw (into the float64 row ``u``): by one
    comparison per entry, counted in a byte row (``_DRAW_CUT`` < 256, so it
    cannot wrap) and copied once into the indices, up to ``_DRAW_CUT`` types,
    by bisection above. The comparisons and counts go into the two bool rows
    of ``masks``."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng.random(out=u)
    if cdf.size > _DRAW_CUT:
        out[:] = cdf.searchsorted(u, side="right")
        return out
    above, count = masks
    count = count.view(np.uint8)
    count.fill(0)
    for edge in cdf[:-1]:  # the last entry is 1.0, above every draw
        count += np.greater_equal(u, edge, out=above)
    np.copyto(out, count)
    return out


def _uniform_types(lo: float, hi: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``Generator.uniform(lo, hi, out.size)``'s draw, ``lo + (hi - lo) * u``
    bit for bit, into the float64 row ``out``."""
    rng.random(out=out)
    out *= hi - lo
    out += lo
    return out


def _workspace(size: int):
    """Per-agent buffers for simulation chunks of up to ``size`` agents: two
    float64 rows, an intp row (the slot, then the key, then the tally code)
    and two bool rows (the null and approval masks)."""
    return np.empty((2, size)), np.empty(size, dtype=np.intp), np.empty((2, size), dtype=bool)


def _chunk_plan(menu, population, model):
    """What every simulation chunk of a run reads, made once per run: the
    menu's lines, each slot's menu contract (``len(menu.taus)`` for opting
    out) and the ``_chunk_tables`` cutoffs of those contracts. A discrete
    population's slot is its type, whose contract is its ``best_response``;
    a continuous population's slot is the contract, with one last slot for
    opting out."""
    lines = menu.lines(model)
    n = len(menu.taus)
    if population.kind == "discrete":
        choice, best = best_response(np.array(population.types), *lines)
        contract = np.where(best >= -PARTICIPATION_SLACK, choice, n)
    else:
        contract = np.arange(n + 1)
    return lines, contract, _chunk_tables(menu, model, contract)


def _chunk_tables(menu, model, contract):
    """A simulation chunk's cutoffs over its slots, from each slot's menu
    contract (``contract``; ``len(menu.taus)`` for opting out, whose
    threshold -1 approves no one): by key ``slot * 2 + null``, the largest
    statistic approved, which is the threshold for a null agent and its
    ``_critical_values`` entry for an alternative one."""
    taus = np.append(menu.taus, -1.0)[contract]
    return np.stack([_critical_values(model, taus), taus], axis=1).ravel()


def _simulate_chunk(plan, population, model, size, seed_child, stratified, work):
    """One chunk of agents through the menu, by the run's ``_chunk_plan``.
    Returns the chunk's count of each tally code ``slot * 4 + null * 2 +
    approved`` over the run's slots, which ``_tally`` reads.

    Each agent gets a slot (its type, or for a continuous population its
    contract) and a statistic from ``_sample_statistics``, and is approved
    when the statistic does not exceed its cutoff, looked up by the key
    ``slot * 2 + null``: one gather and one comparison per agent.

    The per-agent rows are written into ``work``, a ``_workspace`` of at
    least ``size`` agents that a thread reuses for every chunk it runs.
    Every row is written before it is read, so what the workspace held
    before does not matter. Gathers index by intp and pass ``mode="clip"``:
    the indices are in range, and the default "raise" would gather into a
    temporary and copy it into ``out``."""
    lines, contract, cutoff = plan
    floats, slot, masks = work
    (u, x), slot, masks = floats[:, :size], slot[:size], masks[:, :size]
    is_null, approve = masks
    rng = np.random.default_rng(seed_child)
    if population.kind == "discrete":
        weights = np.array(population.weights)
        if stratified:
            slot[:] = np.repeat(np.arange(weights.size), _stratified_counts(weights, size))
        else:
            _draw_types(weights, rng, u, masks, slot)
        q = np.take(population.types, slot, out=u, mode="clip")
    else:
        q = _uniform_types(population.lo, population.hi, rng, u)
        slot.fill(contract.size - 1)  # the opt-out slot
        for start in range(0, size, _SELECT_ROWS):
            rows = slice(start, start + _SELECT_ROWS)
            choice, best = best_response(q[rows], *lines)
            np.copyto(slot[rows], choice, where=best >= -PARTICIPATION_SLACK)

    np.less(rng.random(out=x), q, out=is_null)
    _sample_statistics(model, is_null, rng, u, x)  # q, held in u, is spent
    key = np.left_shift(slot, 1, out=slot)
    key |= is_null
    np.less_equal(u, np.take(cutoff, key, out=x, mode="clip"), out=approve)
    code = np.left_shift(key, 1, out=key)  # the tally code, over the spent key
    code |= approve
    return np.bincount(code, minlength=4 * contract.size)


def _tally(by_code: np.ndarray, participates: np.ndarray) -> np.ndarray:
    """The ``_TALLIES`` x slots count matrix of the tally codes' counts."""
    by_code = by_code.reshape(-1, 4)
    agents = by_code.sum(axis=1)
    null = by_code[:, 2] + by_code[:, 3]
    return np.array([agents, agents * participates, null, by_code[:, 3], by_code[:, 1]])


def simulate_population(
    menu: Menu,
    population: TypePopulation,
    model: TestModel,
    n: int,
    seed: int,
    stratified: bool = False,
    jobs: int = 1,
) -> SimulationReport:
    """Run ``n`` synthetic agents through the menu and tally outcomes.

    Each agent draws a type, selects a contract (or opts out), runs a trial
    if participating, and is approved when the p-value clears the chosen
    threshold. Types are drawn i.i.d. unless ``stratified`` allocates them
    proportionally per chunk (discrete populations only). The chunk layout
    and per-chunk generators depend only on ``seed`` and ``n``, so reports
    are identical for any ``jobs``. At most ``min(jobs, chunks, CPUs)``
    worker threads run.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    if stratified and population.kind != "discrete":
        raise ValueError("stratified sampling requires a discrete population")
    chunks = -(-n // _CHUNK)
    plan = _chunk_plan(menu, population, model)
    workers = min(jobs, chunks, os.cpu_count() or 1)

    def run(first):
        """The summed counts of chunks ``first``, ``first + workers``, ...,
        run in one workspace. Chunk i's generator is the root seed's i-th
        spawned child."""
        work = _workspace(min(n, _CHUNK))  # the first chunk is the largest
        total = 0
        for i in range(first, chunks, workers):
            size = min(_CHUNK, n - i * _CHUNK)
            child = np.random.SeedSequence(seed, spawn_key=(i,))
            total += _simulate_chunk(plan, population, model, size, child, stratified, work)
        return total

    # Each worker thread keeps a running total; integer sums in any order.
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            by_code = sum(pool.map(run, range(workers)))
    else:
        by_code = run(0)

    _, contract, _ = plan
    counts = _tally(by_code, contract < len(menu.taus))
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
