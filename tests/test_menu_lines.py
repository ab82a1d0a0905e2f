"""Selection and verification over the menu's utility lines, checked against
the scalar loops they replaced, which live on here as exact oracles."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statmenus as sm
from statmenus import contracts
from statmenus.contracts import (
    DEFAULT_IC_MARGIN,
    PARTICIPATION_SLACK,
    Contract,
    Menu,
    SelectionOutcome,
    SeparationReport,
    Violation,
    best_response,
)
from statmenus.evaluation import _simulate_chunk

# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------


def scalar_select(q, menu, model):
    """One utility call per contract; the first strict improvement wins."""
    best_p = None
    best_u = -float("inf")
    for p, contract in zip(menu.support, menu.contracts):
        u = sm.utility(q, contract, model)
        if u > best_u:
            best_u = u
            best_p = p
    if best_u < -PARTICIPATION_SLACK:
        return SelectionOutcome(report=None, utility=best_u)
    return SelectionOutcome(report=best_p, utility=best_u)


def scalar_verify(menu, support=None, *, model, margin=DEFAULT_IC_MARGIN):
    """Pairwise utility comparisons in row-major (q, then p) order."""
    if support is None:
        support = menu.support
    support = tuple(float(q) for q in support)
    menu_index = {p: c for p, c in zip(menu.support, menu.contracts)}
    missing = [q for q in support if q not in menu_index]
    if missing:
        raise ValueError(f"verified support must be within the menu support; missing {missing[:3]}")

    truthful = {q: sm.utility(q, menu_index[q], model) for q in support}
    pairs = 0
    for q in support:
        if truthful[q] < -PARTICIPATION_SLACK:
            return SeparationReport(
                passed=False,
                support=support,
                margin=margin,
                pairs_checked=pairs,
                first_violation=Violation(kind="participation", q=q, p=None, gap=truthful[q]),
            )
        for p, contract in zip(menu.support, menu.contracts):
            if p == q:
                continue
            pairs += 1
            cross = sm.utility(q, contract, model)
            if not truthful[q] > cross + margin:
                return SeparationReport(
                    passed=False,
                    support=support,
                    margin=margin,
                    pairs_checked=pairs,
                    first_violation=Violation(kind="ic", q=q, p=p, gap=truthful[q] - cross),
                )
    return SeparationReport(
        passed=True, support=support, margin=margin, pairs_checked=pairs, first_violation=None
    )


# ---------------------------------------------------------------------------
# menus: random, tied, and separating with one cost perturbed
# ---------------------------------------------------------------------------

GM1 = sm.gaussian_model(1.0)
MODELS = (GM1, sm.gaussian_model(2.5), sm.tabulated_model([0, 0.05, 0.3, 1], [0, 0.3, 0.75, 1]))

contract_st = st.builds(
    Contract,
    tau=st.floats(0.0, 1.0),
    reward=st.floats(0.0, 200.0),
    cost=st.floats(-50.0, 200.0),
)


def _support(draw, n):
    return tuple(sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True))))


@st.composite
def random_cases(draw):
    chosen = draw(st.lists(contract_st, min_size=1, max_size=40))
    return Menu(_support(draw, len(chosen)), tuple(chosen)), draw(st.sampled_from(MODELS))


@st.composite
def tied_cases(draw):
    """Menus repeating a few contracts, so exact utility ties are common."""
    distinct = draw(st.lists(contract_st, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))
    return Menu(_support(draw, len(picks)), tuple(picks)), draw(st.sampled_from(MODELS))


@functools.lru_cache(maxsize=None)
def _fixed_reward_menu(n):
    return sm.build_fixed_reward(100.0, 0.43, 0.86, sm.fdr_objective(0.25), GM1, n=n)


@st.composite
def perturbed_cases(draw):
    """A separating menu from a builder with one contract's cost moved."""
    if draw(st.booleans()):
        menu = _fixed_reward_menu(draw(st.sampled_from([2, 9, 33, 129])))
    else:
        steps = draw(st.lists(st.integers(0, 60), min_size=2, max_size=12, unique=True))
        types = [0.3 + 0.01 * k for k in sorted(steps)]  # interior FDR thresholds
        objective = sm.fdr_objective(0.25)
        taus = [sm.fdr_threshold(q, objective, GM1) for q in types]
        terminal_cost = sm.zero_utility_cost(types[-1], taus[-1], 100.0, GM1)
        eps = draw(st.floats(0.5, 50.0))
        lam = draw(st.floats(0.05, 0.95))
        menu = sm.build_finite_menu(types, taus, (100.0, terminal_cost), eps, lam=lam, model=GM1)
    k = draw(st.integers(0, len(menu.contracts) - 1))
    delta = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0), st.floats(-1e-6, 1e-6)))
    old = menu.contracts[k]
    moved = menu.contracts[:k] + (Contract(old.tau, old.reward, old.cost + delta),) + menu.contracts[k + 1 :]
    return Menu(menu.support, moved), GM1


cases = st.one_of(random_cases(), tied_cases(), perturbed_cases())


def _bits(x):
    return None if x is None else float(x).hex()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(case=cases, data=st.data())
def test_select_matches_scalar_oracle(case, data):
    menu, model = case
    q = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(menu.support)))
    new, old = sm.select(q, menu, model), scalar_select(q, menu, model)
    assert new.report == old.report
    assert _bits(new.utility) == _bits(old.utility)


@settings(max_examples=300, deadline=None)
@given(case=cases, data=st.data())
def test_verify_matches_scalar_oracle(case, data):
    menu, model = case
    margin = data.draw(st.sampled_from([DEFAULT_IC_MARGIN, 0.0, 1e-3]))
    subset = data.draw(st.lists(st.sampled_from(menu.support), unique=True))
    for support in (None, subset):
        new = sm.verify_separating(menu, support, model=model, margin=margin)
        old = scalar_verify(menu, support, model=model, margin=margin)
        assert new == old
        if new.first_violation is not None:
            assert type(new.first_violation.gap) is float
            assert _bits(new.first_violation.gap) == _bits(old.first_violation.gap)


def test_separating_menu_checks_every_pair(fixed_menu, gm1):
    new = sm.verify_separating(fixed_menu, model=gm1)
    assert new.passed and new == scalar_verify(fixed_menu, model=gm1)
    assert new.pairs_checked == 129 * 128


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_results_do_not_depend_on_the_block_size(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    menu = _fixed_reward_menu(33)
    contracts_ = list(menu.contracts)
    contracts_[20] = Contract(contracts_[20].tau, contracts_[20].reward, contracts_[20].cost - 0.5)
    broken = Menu(menu.support, tuple(contracts_))
    q = np.concatenate([rng.uniform(0.0, 1.0, 40), np.array(menu.support[:5])])
    slopes, intercepts = broken.lines(GM1)

    whole_index, whole_value = best_response(q, slopes, intercepts)
    whole_reports = [sm.verify_separating(m, model=GM1) for m in (menu, broken)]
    monkeypatch.setattr(contracts, "_BLOCK_ROWS", rows)
    index, value = best_response(q, slopes, intercepts)
    assert np.array_equal(index, whole_index)
    assert value.tobytes() == whole_value.tobytes()
    assert [sm.verify_separating(m, model=GM1) for m in (menu, broken)] == whole_reports
    assert not whole_reports[1].passed


def test_best_response_tie_breaks_to_first_line():
    slopes = np.array([-1.0, -1.0, -2.0, -1.0])
    intercepts = np.array([0.5, 0.5, 1.0, 0.5])
    index, value = best_response(np.array([0.0, 0.25, 0.5, 1.0]), slopes, intercepts)
    # the steep line wins below q = 0.5, where all four lines meet
    assert index.tolist() == [2, 2, 0, 0]
    assert value.tolist() == [1.0, 0.5, 0.0, -0.5]


def test_menu_lines_match_utility(five_type_menu, gm1):
    slopes, intercepts = five_type_menu.lines(gm1)
    for p, c, s, b in zip(five_type_menu.support, five_type_menu.contracts, slopes, intercepts):
        assert p * s + b == sm.utility(p, c, gm1)
    assert five_type_menu == Menu(five_type_menu.support, five_type_menu.contracts)


def test_simulate_chunk_memory_is_bounded(fine_fixed_menu, gm1):
    """A full chunk on a 1025-contract menu stays far below the
    (chunk x contracts) utility matrix, which alone would take 537 MB."""
    population = sm.uniform_population(0.43, 0.86)
    child = np.random.SeedSequence(3).spawn(1)[0]
    menu = fine_fixed_menu
    contracts = (*menu.lines(gm1), menu.taus, menu.rewards, menu.costs)
    tracemalloc.start()
    try:
        counts, _ = _simulate_chunk(contracts, population, gm1, 1 << 16, child, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[:2, 0].tolist() == [1 << 16, 1 << 16]  # agents, participating
    assert peak < 64 * 2**20
