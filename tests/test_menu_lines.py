"""Selection and verification over the menu's utility lines, checked against
the scalar loops they replaced, which live on here as exact oracles."""

import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statmenus as sm
from statmenus import contracts, evaluation
from statmenus.contracts import (
    DEFAULT_IC_MARGIN,
    PARTICIPATION_SLACK,
    Contract,
    Menu,
    SelectionOutcome,
    SeparationReport,
    Violation,
    best_response,
    envelope_response,
    upper_envelope,
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


def _assert_envelope_exact(slopes, intercepts, q):
    """A certified envelope's exact breakpoints increase, so every line wins
    on a segment; and envelope selection returns blocked ``best_response``'s
    indices and value bits at ``q``, at 0 and 1, and at and beside every
    breakpoint."""
    envelope = upper_envelope(slopes, intercepts)
    breaks = np.empty(0)
    if envelope.breaks is not None:
        s, b = [Fraction(x) for x in slopes.tolist()], [Fraction(x) for x in intercepts.tolist()]
        exact = [(b[i] - b[i + 1]) / (s[i + 1] - s[i]) for i in range(len(s) - 1)]
        assert all(x < y for x, y in zip(exact, exact[1:]))
        breaks = np.clip(envelope.breaks, 0.0, 1.0)
    q = np.concatenate(
        [[0.0, 1.0], q, breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0)]
    )
    index, value = envelope_response(q, envelope)
    expected_index, expected_value = best_response(q, slopes, intercepts)
    assert np.array_equal(index, expected_index)
    assert value.tobytes() == expected_value.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=cases, data=st.data())
def test_envelope_matches_best_response(case, data):
    """On random, tied and perturbed menus, at the support and drawn types."""
    menu, model = case
    drawn = data.draw(st.lists(st.floats(0.0, 1.0), max_size=40))
    _assert_envelope_exact(*menu.lines(model), np.r_[menu.support, drawn])


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


@settings(max_examples=500, deadline=None)
@given(case=pencils())
def test_envelope_matches_best_response_on_pencils(case):
    _assert_envelope_exact(*case)


def test_envelope_sends_ties_and_uncertain_menus_to_best_response(monkeypatch):
    redone = []

    def recording(q, slopes, intercepts):
        redone.append(q.tolist())
        return best_response(q, slopes, intercepts)

    monkeypatch.setattr(contracts, "best_response", recording)
    q = np.array([0.0, 0.25, 0.5, 1.0])
    # Two lines meeting at q = 0.5: a certified envelope sends only the tie back.
    two = upper_envelope(np.array([-2.0, -1.0]), np.array([1.0, 0.5]))
    assert two.breaks.tolist() == [0.5]
    index, value = envelope_response(q, two)
    assert index.tolist() == [0, 0, 0, 1]
    assert value.tolist() == [1.0, 0.5, 0.0, -0.5]
    assert redone == [[0.5]]
    # test_best_response_tie_breaks_to_first_line's four lines, meeting at
    # q = 0.5: their slopes do not increase, so the whole menu goes back.
    slopes, intercepts = np.array([-1.0, -1.0, -2.0, -1.0]), np.array([0.5, 0.5, 1.0, 0.5])
    ties = upper_envelope(slopes, intercepts)
    assert ties.breaks is None
    index, value = envelope_response(q, ties)
    assert index.tolist() == [2, 2, 0, 0]
    assert value.tolist() == [1.0, 0.5, 0.0, -0.5]
    assert redone[1:] == [q.tolist()]
    # Three lines through one point, and the same lines with the middle one
    # lowered, which never wins: the breakpoints do not increase, so the
    # whole menu goes back.
    for middle in (1.0, 0.9):
        redone.clear()
        fan = upper_envelope(np.array([-3.0, -2.0, -1.0]), np.array([1.5, middle, 0.5]))
        assert fan.breaks is None
        index, _ = envelope_response(q, fan)
        assert index.tolist() == [0, 0, 0, 2]
        assert redone == [q.tolist()]
    # Rounded breakpoints 0.9000000000000001 < 0.9000000000000002 whose exact
    # values decrease, so the middle line never wins; and breakpoints -1.25 <
    # -2/3 of lines out of slope order, where line 0 wins on [0, 0.5] but is
    # no neighbour of line 2's segment: neither is certified.
    for slopes, intercepts in (
        ([-3.75, 2.0, 4.75], [5.875000000000001, 0.6999999999999998, -1.7750000000000006]),
        ([-1.0, -5.0, 1.0], [3.0, -2.0, 2.0]),
    ):
        slopes, intercepts = np.array(slopes), np.array(intercepts)
        assert upper_envelope(slopes, intercepts).breaks is None
        _assert_envelope_exact(slopes, intercepts, q)
    # Tangents to 131 q^2 at 0.95 and 3 and 6 units in the last place above:
    # certified, yet near 0.95 only rounding orders the lines, so the types
    # there go back per row.
    near = np.spacing(0.95)
    touch = 0.95 + near * np.array([0.0, 3.0, 6.0])
    slopes, intercepts = 2.0 * 131.0 * touch, -131.0 * touch**2
    assert upper_envelope(slopes, intercepts).breaks is not None
    _assert_envelope_exact(slopes, intercepts, 0.95 + near * np.arange(-10.0, 11.0))


def test_fine_menu_envelope_keeps_every_line(fine_fixed_menu, gm1):
    """On a separating menu every contract wins on its own segment, and the
    breakpoints separate consecutive reports."""
    envelope = upper_envelope(*fine_fixed_menu.lines(gm1))
    assert envelope.breaks is not None and len(envelope.breaks) == 1024
    support = np.array(fine_fixed_menu.support)
    assert np.all((support[:-1] < envelope.breaks) & (envelope.breaks < support[1:]))


def test_non_separating_menu_simulates_on_the_blocked_route(fixed_menu, gm1, monkeypatch):
    """A continuous population on a menu with two costs swapped, which is not
    separating and has no certified envelope, gets the blocked route's result."""
    costs = [c.cost for c in fixed_menu.contracts]
    costs[40], costs[80] = costs[80], costs[40]
    swapped = Menu(
        fixed_menu.support,
        tuple(Contract(c.tau, c.reward, cost) for c, cost in zip(fixed_menu.contracts, costs)),
    )
    assert not sm.verify_separating(swapped, model=gm1).passed
    assert upper_envelope(*swapped.lines(gm1)).breaks is None
    population = sm.uniform_population(0.43, 0.86)
    report = sm.simulate_population(swapped, population, gm1, n=70_000, seed=5)
    monkeypatch.setattr(
        evaluation, "envelope_response", lambda q, e: best_response(q, e.slopes, e.intercepts)
    )
    assert sm.simulate_population(swapped, population, gm1, n=70_000, seed=5) == report


def _chunk_peak(menu, selection, population, model):
    """Count matrix and traced peak bytes of one full simulation chunk."""
    child = np.random.SeedSequence(3).spawn(1)[0]
    tracemalloc.start()
    try:
        counts, _ = _simulate_chunk(menu, selection, population, model, 1 << 16, child, False)
        return counts, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_chunk_memory_is_bounded(fine_fixed_menu, gm1):
    """A full chunk on a 1025-contract menu stays far below the (chunk x
    contracts) utility matrix, which alone would take 537 MB, and below the
    34 MB of one block of the blocked ``best_response``."""
    population = sm.uniform_population(0.43, 0.86)
    envelope = upper_envelope(*fine_fixed_menu.lines(gm1))
    counts, peak = _chunk_peak(fine_fixed_menu, envelope, population, gm1)
    assert counts[:2, 0].tolist() == [1 << 16, 1 << 16]  # agents, participating
    assert peak < 24 * 2**20


def test_simulate_chunk_memory_is_bounded_per_type(five_type_menu, five_types, gm1):
    population = sm.discrete_population(five_types)
    per_type = best_response(np.array(five_types), *five_type_menu.lines(gm1))
    counts, peak = _chunk_peak(five_type_menu, per_type, population, gm1)
    assert counts[0].sum() == 1 << 16
    assert peak < 24 * 2**20
