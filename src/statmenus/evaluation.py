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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .contracts import PARTICIPATION_SLACK, Contract, Menu, best_response, utility
from .errors import ParticipationError
from .objectives import TypePopulation, _fdr_bisection
from .rates import bayes_risk, fdr, tdr
from .testmodel import TestModel, _float_or_array, _require, _types, power, sample_pvalues

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
# Rows of a simulation chunk's per-type count matrix.
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
    """Aggregate outcome of a synthetic agent population run."""

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
    weights: np.ndarray,
    size: int,
    rng: np.random.Generator,
    u: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Type indices of ``size`` agents: ``Generator.choice(len(weights), size,
    p=weights)``'s inverse-CDF draw, so the same indices and generator state.
    Each index counts the CDF entries at or below a uniform draw: by one
    comparison per entry up to ``_DRAW_CUT`` types, by bisection above. The
    uniforms go into ``u``, the comparisons into ``mask`` and the intp
    indices into ``out`` when these buffers of ``size`` entries are given."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = rng.random(size) if u is None else rng.random(out=u)
    idx = np.empty(size, dtype=np.intp) if out is None else out
    if cdf.size > _DRAW_CUT:
        idx[:] = cdf.searchsorted(u, side="right")
        return idx
    mask = np.empty(size, dtype=bool) if mask is None else mask
    idx.fill(0)
    for edge in cdf[:-1]:  # the last entry is 1.0, above every draw
        idx += np.greater_equal(u, edge, out=mask)
    return idx


def _workspace(size: int):
    """Per-agent buffers for simulation chunks of up to ``size`` agents: two
    float64 rows, an intp row (the slot, then the tally code) and two bool
    rows (the null and approval masks)."""
    return np.empty((2, size)), np.empty(size, dtype=np.intp), np.empty((2, size), dtype=bool)


def _simulate_chunk(menu, selection, population, model, size, seed_child, stratified, work=None):
    """One chunk of agents through the menu. ``selection`` is the
    ``best_response`` of a discrete population's types, or the menu's lines
    for a continuous population. Returns the ``_TALLIES`` x types count
    matrix and the principal's cash.

    Each agent gets a tally code ``slot * 4 + null * 2 + approved``, and one
    ``bincount`` of the codes gives every tally. A discrete population's
    slot is the agent's type, and its thresholds, costs and rewards come
    from per-type tables; an opted-out type gets threshold -1, below every
    p-value, and cost 0. A continuous population's slot is whether the agent
    participates, and its contracts come per agent.

    The per-agent rows are written into ``work``, a ``_workspace`` of at
    least ``size`` agents that a thread reuses for every chunk it runs (a
    fresh one when None). Every row is written before it is read, so what
    the workspace held before does not matter. Gathers index by intp and
    pass ``mode="clip"``: the indices are in range, and the default "raise"
    would gather into a temporary and copy it into ``out``."""
    floats, slot, masks = _workspace(size) if work is None else work
    (u, x), slot, (is_null, approve) = floats[:, :size], slot[:size], masks[:, :size]
    rng = np.random.default_rng(seed_child)
    discrete = population.kind == "discrete"
    if discrete:
        weights = np.array(population.weights)
        if stratified:
            start = 0
            for k, count in enumerate(_stratified_counts(weights, size)):
                slot[start : start + count] = k
                start += count
        else:
            _draw_types(weights, size, rng, u=u, mask=is_null, out=slot)
        q = np.take(population.types, slot, out=u, mode="clip")
        choice, best = selection
    else:
        q = rng.uniform(population.lo, population.hi, size=size)
        choice, best = best_response(q, *selection)

    participates = best >= -PARTICIPATION_SLACK
    threshold = np.where(participates, menu.taus[choice], -1.0)  # p-values are >= 0
    cost = np.where(participates, menu.costs[choice], 0.0)
    np.less(rng.random(out=x), q, out=is_null)
    pvals = sample_pvalues(model, is_null, rng, out=u)  # q, if held there, is spent
    if discrete:
        np.less_equal(pvals, np.take(threshold, slot, out=x, mode="clip"), out=approve)
        cost = np.take(cost, slot, out=x, mode="clip")
    else:
        np.less_equal(pvals, threshold, out=approve)
        np.copyto(slot, participates)
    cost_sum = float(np.sum(cost))
    code = np.left_shift(slot, 2, out=slot)  # the tally code, over the spent slot
    code |= is_null.view(np.uint8) << 1
    code |= approve

    if discrete:
        approving = [False, True, False, True]  # a slot's codes, by null * 2 + approved
        reward = np.where(approving, menu.rewards[choice][:, None], 0.0).ravel()
        cash = cost_sum - float(np.sum(np.take(reward, code, out=x, mode="clip")))
        return _tally(code, participates), cash
    cash = cost_sum - float(np.sum(np.where(approve, menu.rewards[choice], 0.0)))
    return _tally(code, np.array([False, True])).sum(axis=1, keepdims=True), cash


def _tally(code: np.ndarray, participates: np.ndarray) -> np.ndarray:
    """The ``_TALLIES`` x slots count matrix of the agents' tally codes."""
    by_code = np.bincount(code, minlength=4 * participates.size).reshape(-1, 4)
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
    if stratified and population.kind != "discrete":
        raise ValueError("stratified sampling requires a discrete population")
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    # A discrete population's selection depends only on the type, so it is made once.
    selection = menu.lines(model)
    if population.kind == "discrete":
        selection = best_response(np.array(population.types), *selection)

    local = threading.local()  # each thread's workspace, reused by every chunk it runs

    def work(args):
        if not hasattr(local, "work"):
            local.work = _workspace(sizes[0])  # the first chunk is the largest
        size, child = args
        return _simulate_chunk(
            menu, selection, population, model, size, child, stratified, local.work
        )

    # A pool starts a new thread on each submit until it has max_workers.
    workers = min(jobs, len(sizes), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, zip(sizes, children)))
    else:
        results = [work(a) for a in zip(sizes, children)]

    counts = sum(chunk_counts for chunk_counts, _ in results)
    cash = sum(chunk_cash for _, chunk_cash in results)  # in chunk order, for reproducible bits
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
