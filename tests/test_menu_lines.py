"""Selection and verification over the menu's utility lines, checked against
the scalar loops they replaced, which live on here as exact oracles."""

import functools
import math
import tracemalloc
from fractions import Fraction

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
    SeparationReport,
    Violation,
    _blocked_response,
    _envelope,
    _segments,
    _utility_blocks,
    best_response,
)
from statmenus.evaluation import _slot_table

from oracles import scalar_select

# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------


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


def _broken_menu():
    """The 33-contract menu with contract 20's cost cut by 0.5: its lines
    are not certified, and it does not separate."""
    menu = _fixed_reward_menu(33)
    contracts_ = list(menu.contracts)
    contracts_[20] = Contract(contracts_[20].tau, contracts_[20].reward, contracts_[20].cost - 0.5)
    return Menu(menu.support, tuple(contracts_))


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


@st.composite
def pencils(draw):
    """Lines in increasing slope order whose order near a type x only
    rounding decides, and types crowding x. Either lines through (x, y) up to
    a few units in the last place, with slopes far apart or a few units in
    the last place apart (near-parallel); or tangents to a parabola at points
    a few units in the last place apart, so that every line wins on a sliver
    around x."""
    x = draw(st.floats(0.01, 0.99))
    near = np.nextafter(x, 1.0) - x  # one unit in the last place of x
    k = np.unique(draw(st.lists(st.integers(-20, 20), min_size=1, max_size=12))).astype(float)
    if draw(st.booleans()):
        y = draw(st.floats(-100.0, 100.0))
        base = draw(st.floats(-200.0, 200.0))
        step = draw(st.sampled_from([1.0, 1e-6, abs(base) * 2.0**-50 + 1e-300]))
        slopes = base + step * k
        nudges = draw(st.lists(st.integers(-3, 3), min_size=len(k), max_size=len(k)))
        intercepts = y - slopes * x
        intercepts += np.spacing(intercepts) * np.array(nudges)
    else:
        curvature = draw(st.floats(1.0, 1e6))
        touch = x + near * draw(st.integers(1, 16)) * k
        slopes, intercepts = 2.0 * curvature * touch, -curvature * touch**2
    q = np.clip(x + near * np.arange(-40.0, 41.0), 0.0, 1.0)
    return slopes, intercepts, q


# One tabulated test with power 1 at size 0.5: a contract (0.5, R, c) has the
# line -R/2 q + (R - c), so a menu can carry any lines of nonpositive slope.
STEEP = sm.tabulated_model([0.0, 0.5, 1.0], [0.0, 1.0, 1.0])


@st.composite
def pencil_menus(draw):
    """``pencils`` as menus: the lines tilted to nonpositive slopes, with
    reports at the crowded types around their meeting point."""
    slopes, intercepts, q = draw(pencils())
    rewards = -2.0 * (slopes - slopes.max())
    start = draw(st.integers(0, len(q) - len(slopes)))  # q: 81 increasing types
    support = q[start : start + len(slopes)]
    contracts_ = tuple(
        Contract(0.5, r, c) for r, c in zip(rewards.tolist(), (rewards - intercepts).tolist())
    )
    return Menu(tuple(support.tolist()), contracts_), STEEP


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
    index, value = best_response(np.array([q]), *menu.lines(model))
    utility = float(value[0])
    report = None if utility < -PARTICIPATION_SLACK else menu.support[index[0]]
    old = scalar_select(q, menu, model)
    assert report == old.report
    assert _bits(utility) == _bits(old.utility)


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(cases, pencil_menus()), margin=st.sampled_from([DEFAULT_IC_MARGIN, 0.0, 1e-3])
)
def test_verify_matches_scalar_oracle(case, margin):
    menu, model = case
    new = sm.verify_separating(menu, model=model, margin=margin)
    old = scalar_verify(menu, model=model, margin=margin)
    assert new == old
    if new.first_violation is not None:
        assert type(new.first_violation.gap) is float
        assert _bits(new.first_violation.gap) == _bits(old.first_violation.gap)


def test_separating_menu_checks_every_pair(fixed_menu, gm1):
    new = sm.verify_separating(fixed_menu, model=gm1)
    assert new.passed and new == scalar_verify(fixed_menu, model=gm1)
    assert new.pairs_checked == 129 * 128


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 7])
def test_results_do_not_depend_on_the_block_size(monkeypatch, rows):
    """Blocks of ``rows`` rows of the 33-contract menu give the whole
    block's selection and reports; 0 rows' worth of elements is one row."""
    rng = np.random.default_rng(rows)
    menu, broken = _fixed_reward_menu(33), _broken_menu()
    q = np.concatenate([rng.uniform(0.0, 1.0, 40), np.array(menu.support[:5])])
    slopes, intercepts = broken.lines(GM1)

    whole_index, whole_value = _blocked_response(q, slopes, intercepts)
    whole_reports = [sm.verify_separating(m, model=GM1) for m in (menu, broken)]
    monkeypatch.setattr(contracts, "_BLOCK_ELEMENTS", rows * len(slopes))
    index, value = _blocked_response(q, slopes, intercepts)
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


def _assert_envelope_exact(slopes, intercepts, q):
    """Certified lines' exact breakpoints increase, so every line wins on a
    segment; and ``best_response`` returns ``_blocked_response``'s indices
    and value bits at ``q``, at 0 and 1, and at and beside every breakpoint.
    Returns the types checked."""
    breaks, _ = _segments(slopes, intercepts)
    if breaks is None:
        breaks = np.empty(0)
    else:
        s, b = [Fraction(x) for x in slopes.tolist()], [Fraction(x) for x in intercepts.tolist()]
        exact = [(b[i] - b[i + 1]) / (s[i + 1] - s[i]) for i in range(len(s) - 1)]
        assert all(x < y for x, y in zip(exact, exact[1:]))
        breaks = np.clip(breaks, 0.0, 1.0)
    q = np.concatenate(
        [[0.0, 1.0], q, breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0)]
    )
    index, value = best_response(q, slopes, intercepts)
    expected_index, expected_value = _blocked_response(q, slopes, intercepts)
    assert np.array_equal(index, expected_index)
    assert value.tobytes() == expected_value.tobytes()
    return q


@settings(max_examples=300, deadline=None)
@given(case=cases, data=st.data())
def test_envelope_route_matches_blocked_route(case, data):
    """On random, tied and perturbed menus, at the support and drawn types."""
    menu, model = case
    drawn = data.draw(st.lists(st.floats(0.0, 1.0), max_size=40))
    _assert_envelope_exact(*menu.lines(model), np.r_[menu.support, drawn])


@settings(max_examples=500, deadline=None)
@given(case=pencils())
def test_envelope_route_matches_blocked_route_on_pencils(case):
    _assert_envelope_exact(*case)


def _types_at_the_breaks(slopes, intercepts, q):
    """``q`` with +-0, 1, NaN, types outside [0, 1] and every breakpoint of
    certified lines with its ``nextafter`` neighbours. (An infinite type
    makes NaN on a flat line, which warns, on either route.)"""
    breaks, _ = _segments(slopes, intercepts)
    breaks = np.empty(0) if breaks is None else breaks
    return np.concatenate(
        [
            [0.0, -0.0, 1.0, np.nan, -3.0, -0.5, 1.5, 5.0],
            q,
            breaks,
            np.nextafter(breaks, -np.inf),
            np.nextafter(breaks, np.inf),
        ]
    )


menu_lines = cases.map(lambda case: (*case[0].lines(case[1]), np.array(case[0].support)))


@settings(max_examples=500, deadline=None)
@given(case=st.one_of(menu_lines, pencils()))
def test_envelope_matches_the_blocked_route(case):
    """``_envelope``'s lines have increasing slopes, and of identical lines
    it keeps the smallest index. At the drawn types and at every breakpoint
    and its neighbours in [0, 1], the envelope's line is the best line to
    rounding (four times ``_segments``' bound)."""
    slopes, intercepts, q = case
    winners, breaks = _envelope(slopes, intercepts)
    assert len(winners) == len(breaks) + 1 and np.all(np.diff(slopes[winners]) > 0.0)
    for w in winners.tolist():
        same = (slopes[:w] == slopes[w]) & (intercepts[:w] == intercepts[w])
        assert not same.any()
    q = _types_at_the_breaks(slopes, intercepts, np.concatenate([q, breaks]))
    q = q[(q >= 0.0) & (q <= 1.0)]
    line = winners[np.searchsorted(breaks, q, side="right")]
    _, best = _blocked_response(q, slopes, intercepts)
    _, tol = _segments(slopes, intercepts)
    assert np.all(q * slopes[line] + intercepts[line] >= best - 4.0 * tol)


def test_ties_and_uncertified_lines_take_the_blocked_route(monkeypatch):
    redone = []

    def recording(q, slopes, intercepts):
        redone.append(q.tolist())
        return _blocked_response(q, slopes, intercepts)

    monkeypatch.setattr(contracts, "_blocked_response", recording)
    q = np.array([0.0, 0.25, 0.5, 1.0])
    # Two lines meeting at q = 0.5: certified, so only the tie goes back.
    slopes, intercepts = np.array([-2.0, -1.0]), np.array([1.0, 0.5])
    assert _segments(slopes, intercepts)[0].tolist() == [0.5]
    index, value = best_response(q, slopes, intercepts)
    assert index.tolist() == [0, 0, 0, 1]
    assert value.tolist() == [1.0, 0.5, 0.0, -0.5]
    assert redone == [[0.5]]
    # test_best_response_tie_breaks_to_first_line's four lines, meeting at
    # q = 0.5: their slopes do not increase, so every type goes back.
    redone.clear()
    slopes, intercepts = np.array([-1.0, -1.0, -2.0, -1.0]), np.array([0.5, 0.5, 1.0, 0.5])
    assert _segments(slopes, intercepts)[0] is None
    index, value = best_response(q, slopes, intercepts)
    assert index.tolist() == [2, 2, 0, 0]
    assert value.tolist() == [1.0, 0.5, 0.0, -0.5]
    assert redone == [q.tolist()]
    # Three lines through one point, and the same lines with the middle one
    # lowered, which never wins: the breakpoints do not increase, so every
    # type goes back.
    for middle in (1.0, 0.9):
        redone.clear()
        slopes, intercepts = np.array([-3.0, -2.0, -1.0]), np.array([1.5, middle, 0.5])
        assert _segments(slopes, intercepts)[0] is None
        index, _ = best_response(q, slopes, intercepts)
        assert index.tolist() == [0, 0, 0, 2]
        assert redone == [q.tolist()]
    # Rounded breakpoints 0.9000000000000001 < 0.9000000000000002 whose exact
    # values decrease, so the middle line never wins; and breakpoints -1.25 <
    # -2/3 of lines out of slope order, where line 0 wins on [0, 0.5] but is
    # no neighbour of line 2's segment: neither is certified, and every type
    # goes back.
    for slopes, intercepts in (
        ([-3.75, 2.0, 4.75], [5.875000000000001, 0.6999999999999998, -1.7750000000000006]),
        ([-1.0, -5.0, 1.0], [3.0, -2.0, 2.0]),
    ):
        redone.clear()
        slopes, intercepts = np.array(slopes), np.array(intercepts)
        assert _segments(slopes, intercepts)[0] is None
        checked = _assert_envelope_exact(slopes, intercepts, q)
        assert redone == [checked.tolist()]
    # Tangents to 131 q^2 at 0.95 and 3 and 6 units in the last place above:
    # certified, yet the lines stay within twice the rounding bound of one
    # another on all of [0, 1], so every type goes back as a near-tie.
    redone.clear()
    near = np.spacing(0.95)
    touch = 0.95 + near * np.array([0.0, 3.0, 6.0])
    slopes, intercepts = 2.0 * 131.0 * touch, -131.0 * touch**2
    assert _segments(slopes, intercepts)[0] is not None
    checked = _assert_envelope_exact(slopes, intercepts, 0.95 + near * np.arange(-10.0, 11.0))
    assert redone == [checked.tolist()]


def test_one_line_menu_and_no_types_match_the_blocked_route():
    for q, slopes, intercepts in (
        (np.array([0.0, 0.3, 1.0]), [-1.5], [0.75]),
        (np.empty(0), [-2.0, -1.0], [1.0, 0.5]),
    ):
        slopes, intercepts = np.array(slopes), np.array(intercepts)
        index, value = best_response(q, slopes, intercepts)
        expected_index, expected_value = _blocked_response(q, slopes, intercepts)
        assert index.dtype == expected_index.dtype and np.array_equal(index, expected_index)
        assert value.dtype == expected_value.dtype
        assert value.tobytes() == expected_value.tobytes()


def test_fine_menu_envelope_keeps_every_line(fine_fixed_menu, gm1):
    """On a separating menu every contract wins on its own segment, and the
    breakpoints separate consecutive reports."""
    breaks, _ = _segments(*fine_fixed_menu.lines(gm1))
    assert breaks is not None and len(breaks) == 1024
    support = np.array(fine_fixed_menu.support)
    assert np.all((support[:-1] < breaks) & (breaks < support[1:]))


def _without_certification(monkeypatch):
    """Every later ``best_response`` takes the blocked route."""
    monkeypatch.setattr(contracts, "_segments", lambda slopes, intercepts: (None, 0.0))


def test_evaluators_on_the_envelope_match_the_blocked_route(fine_fixed_menu, gm1, monkeypatch):
    """Screening cost, rent and return on the fine menu's certified lines
    equal the blocked route's, bit for bit."""
    population = sm.uniform_population(0.43, 0.86)
    base = fine_fixed_menu.contracts[-1]
    points = population.points()

    def evaluate():
        return (
            sm.screening_cost(fine_fixed_menu, base, population, gm1),
            sm.information_rent(fine_fixed_menu, population, gm1),
            sm.principal_return(fine_fixed_menu, base, points, gm1).tobytes(),
        )

    assert _segments(*fine_fixed_menu.lines(gm1))[0] is not None
    on_envelope = evaluate()
    _without_certification(monkeypatch)
    assert evaluate() == on_envelope


def test_simulation_on_the_envelope_matches_the_blocked_route(fine_fixed_menu, gm1):
    """The stack pass keeps each of the fine menu's certified lines, which
    are their own envelope, with ``_segments``' breakpoints bit for bit, so
    a continuous population's slot table gives each contract the mass
    between the breaks that ``best_response`` uses."""
    population = sm.uniform_population(0.43, 0.86)
    lines = fine_fixed_menu.lines(gm1)
    winners, breaks = _envelope(*lines)
    certified, _ = _segments(*lines)
    assert winners.tolist() == list(range(1025))
    assert breaks.tobytes() == certified.tobytes()
    contract, mass, mean = _slot_table(fine_fixed_menu, population, gm1)
    edges = np.clip(np.r_[0.43, certified, 0.86], 0.43, 0.86)
    assert contract[:-1].tolist() == list(range(1025))
    assert np.allclose(mass[:-1], np.diff(edges) / 0.43, rtol=0.0, atol=1e-15)
    assert mass[-1] == 0.0


def test_non_separating_menu_simulates_on_the_blocked_route(fixed_menu, gm1, monkeypatch):
    """A continuous population on a menu with two costs swapped, which is not
    separating and whose lines are not certified, gets the same report
    whether or not certification is tried; so does the separating menu,
    whose lines are."""
    costs = [c.cost for c in fixed_menu.contracts]
    costs[40], costs[80] = costs[80], costs[40]
    swapped = Menu(
        fixed_menu.support,
        tuple(Contract(c.tau, c.reward, cost) for c, cost in zip(fixed_menu.contracts, costs)),
    )
    assert not sm.verify_separating(swapped, model=gm1).passed
    assert _segments(*swapped.lines(gm1))[0] is None
    assert _segments(*fixed_menu.lines(gm1))[0] is not None
    population = sm.uniform_population(0.43, 0.86)
    menus = (swapped, fixed_menu)
    reports = [sm.simulate_population(m, population, gm1, n=70_000, seed=5) for m in menus]
    _without_certification(monkeypatch)
    assert [sm.simulate_population(m, population, gm1, n=70_000, seed=5) for m in menus] == reports


def _run_peak(menu, population, model, n=1 << 16):
    """Report and traced peak bytes of one simulation run."""
    tracemalloc.start()
    try:
        report = sm.simulate_population(menu, population, model, n=n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_simulate_chunk_memory_is_bounded(fine_fixed_menu, gm1):
    """A run of 2^53 agents on a 1,025-contract menu traces below 1 MiB: a
    few arrays of the menu's length, not a (types x contracts) utility
    matrix or a row per agent."""
    population = sm.uniform_population(0.43, 0.86)
    report, peak = _run_peak(fine_fixed_menu, population, gm1, n=1 << 53)
    assert report.participating == 1 << 53
    assert peak < 2**20


def test_verification_memory_does_not_grow_with_the_menu(gm1, fdr25):
    """Verifying every pair of an 8,193-contract menu holds one utility
    block of 2^20 elements, not 4,096 rows of 8,193 (a 256 MiB block)."""
    menu = sm.build_fixed_reward(100.0, 0.43, 0.86, fdr25, gm1, n=8_193)
    tracemalloc.start()
    try:
        report = sm.verify_separating(menu, model=gm1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.pairs_checked == 8_193 * 8_192
    assert peak < 32 * 2**20


def test_certificate_decides_the_fine_menu(fine_fixed_menu, gm1, monkeypatch):
    """The 1,025-contract menu passes on its adjacent pairs alone."""

    def refuse(*args):
        raise AssertionError("the pass over all pairs ran")

    monkeypatch.setattr(contracts, "_utility_blocks", refuse)
    report = sm.verify_separating(fine_fixed_menu, model=gm1)
    assert report.passed and report.pairs_checked == 1025 * 1024


def test_margins_at_the_smallest_gap_take_the_blocked_route(fixed_menu, gm1, monkeypatch):
    """Margins twice the rounding bound ``tol`` below and above the
    129-contract menu's smallest lead over a neighbour leave the certificate
    in doubt (it needs a lead of three), so the pass over all pairs decides,
    as ``scalar_verify`` does, and the two differ; four below it decides."""
    slopes, intercepts = fixed_menu.lines(gm1)
    _, tol = _segments(slopes, intercepts)
    q = np.array(fixed_menu.support)
    value = q * slopes + intercepts
    left, right = q[1:] * slopes[:-1] + intercepts[:-1], q[:-1] * slopes[1:] + intercepts[1:]
    gap = min(np.min(value[1:] - left), np.min(value[:-1] - right))
    calls = []

    def recording(q, slopes, intercepts):
        calls.append(len(q))
        return _utility_blocks(q, slopes, intercepts)

    monkeypatch.setattr(contracts, "_utility_blocks", recording)
    reports = []
    for margin in (gap - 2.0 * tol, gap + 2.0 * tol):
        calls.clear()
        reports.append(sm.verify_separating(fixed_menu, model=gm1, margin=margin))
        assert calls == [129]
        assert reports[-1] == scalar_verify(fixed_menu, model=gm1, margin=margin)
    assert [r.passed for r in reports] == [True, False]
    calls.clear()
    assert sm.verify_separating(fixed_menu, model=gm1, margin=gap - 4.0 * tol).passed
    assert calls == []


def test_a_lead_within_the_margin_reads_as_a_lead(fixed_menu, gm1):
    """A truthful lead that does not clear the margin is described as that
    lead, not as a negative win; a report that beats truthful keeps its
    text."""
    report = sm.verify_separating(fixed_menu, model=gm1, margin=1e-4)
    assert report.first_violation.gap > 0.0
    assert report.describe() == (
        "IC violated at q=0.43: truthful leads report 0.433359 by 3.77531e-05, "
        "not above the margin 0.0001"
    )
    report = sm.verify_separating(_broken_menu(), model=gm1)
    assert report.first_violation.gap < 0.0
    assert report.describe() == (
        "IC violated at q=0.604688: report 0.69875 beats truthful by 0.00471422 (margin 1e-09)"
    )


def test_certified_verification_memory_is_linear():
    """Passing the 8,193-contract menu on adjacent pairs holds a few arrays
    of the menu's length, not a 2^20-element utility block (8 MiB)."""
    menu = _fixed_reward_menu(8_193)
    tracemalloc.start()
    try:
        report = sm.verify_separating(menu, model=GM1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.pairs_checked == 8_193 * 8_192
    assert peak < 2 * 2**20


def test_simulate_chunk_memory_is_bounded_per_type(five_type_menu, five_types, gm1):
    """A run of 2^53 agents over five types traces below 256 KiB."""
    population = sm.discrete_population(five_types)
    report, peak = _run_peak(five_type_menu, population, gm1, n=1 << 53)
    assert sum(column["agents"] for column in report.per_type.values()) == 1 << 53
    assert peak < 2**18


def test_simulate_chunk_in_a_workspace_allocates_little(five_type_menu, five_types, gm1):
    """A five-type run of 65,536 agents, i.i.d. or stratified, allocates
    below 256 KiB: nothing per agent."""
    population = sm.discrete_population(five_types)
    for stratified in (False, True):
        tracemalloc.start()
        try:
            sm.simulate_population(five_type_menu, population, gm1, 1 << 16, 3, stratified)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18


def test_continuous_chunk_in_a_workspace_allocates_little(fine_fixed_menu, gm1):
    """A run of 65,536 agents of a continuous population on the
    1,025-contract menu, with an opt-out tail, traces below 1 MiB."""
    population = sm.uniform_population(0.2, 0.95)
    report, peak = _run_peak(fine_fixed_menu, population, gm1)
    assert 0 < report.participating < 1 << 16
    assert peak < 2**20


SLOT_MENUS = {
    "certified": (_fixed_reward_menu(129), sm.uniform_population(0.43, 0.86)),
    "broken": (_broken_menu(), sm.uniform_population(0.43, 0.86)),
    "opt_out_tail": (_fixed_reward_menu(129), sm.uniform_population(0.2, 0.95)),  # above 0.86
}


@pytest.mark.parametrize("menu, population", SLOT_MENUS.values(), ids=SLOT_MENUS.keys())
@pytest.mark.parametrize("rows", [1, 3, 7, 1_000])
def test_chunk_selection_does_not_depend_on_the_row_block(menu, population, rows):
    """A uniform population's slot masses and first moments are the sums of
    those of ``rows`` equal blocks of its range, each a uniform population
    of its own, to 1e-12: on certified lines, on lines that take the stack
    pass and with types that opt out."""
    lo, hi = population.lo, population.hi
    contract, mass, mean = _slot_table(menu, population, GM1)
    edges = np.linspace(lo, hi, rows + 1)
    total_mass, total_moment = np.zeros(mass.size), np.zeros(mass.size)
    for a, b in zip(edges[:-1], edges[1:]):
        part = _slot_table(menu, sm.uniform_population(a, b), GM1)
        assert part[0].tolist() == contract.tolist()
        share = (b - a) / (hi - lo)
        total_mass += share * part[1]
        total_moment += share * part[1] * part[2]
    np.testing.assert_allclose(total_mass, mass, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(total_moment, mass * mean, rtol=0.0, atol=1e-12)
    assert (mass[-1] > 0.0) == (hi > 0.86)


# The tabulated test on which the lines of (0.125, 100, 10) and (0.25, 50, 10)
# are the same line (slope -25, intercept 27.5), exactly.
KINKED = sm.tabulated_model([0.0, 0.25, 1.0], [0.0, 0.75, 1.0])
SHARED_LINES = Menu(
    (0.1, 0.2, 0.3, 0.4),
    (
        Contract(0.125, 100.0, 10.0),
        Contract(0.25, 50.0, 10.0),  # the same line as contract 0
        Contract(0.125, 100.0, 12.0),  # below contract 0 everywhere
        Contract(0.5, 30.0, 5.0),  # meets contract 0 at q = 0.5
    ),
)
GRID_CASES = {
    **SLOT_MENUS,
    "shared_lines": (SHARED_LINES, sm.uniform_population(0.0, 1.0)),
    "five_type_opt_out": (None, sm.uniform_population(0.2, 0.9)),
}


@pytest.mark.parametrize("menu, population", GRID_CASES.values(), ids=GRID_CASES.keys())
def test_slot_table_matches_a_dense_grid(five_type_menu, menu, population):
    """Each slot's mass and first moment are those of ``best_response`` on
    2^18 midpoints of the range, to two grid cells (a segment's ends): on
    certified lines, on uncertified ones (a broken menu whose cut contract
    dominates its neighbours; identical lines, one of them a different
    contract, where the smallest index wins; a line below another
    everywhere) and with opt-out regions."""
    menu = menu or five_type_menu
    model = KINKED if menu is SHARED_LINES else GM1
    lo, hi = population.lo, population.hi
    contract, mass, mean = _slot_table(menu, population, model)
    cells = 1 << 18
    q = lo + (hi - lo) * (np.arange(cells) + 0.5) / cells
    choice, best = best_response(q, *menu.lines(model))
    slot = np.where(best >= -PARTICIPATION_SLACK, choice, len(menu.taus))
    grid_mass = np.bincount(slot, minlength=mass.size) / cells
    grid_moment = np.bincount(slot, weights=q, minlength=mass.size) / cells
    np.testing.assert_allclose(mass, grid_mass, rtol=0.0, atol=2.0 / cells)
    np.testing.assert_allclose(mass * mean, grid_moment, rtol=0.0, atol=2.0 / cells)
    assert math.isclose(math.fsum(mass), 1.0, rel_tol=1e-14)
    if menu is SHARED_LINES:
        assert _segments(*menu.lines(model))[0] is None
        assert mass[1:3].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(mass[[0, 3]], 0.5, rtol=0.0, atol=1e-12)
    if menu is five_type_menu:
        assert mass[-1] > 0.1  # types above about 0.797 opt out
