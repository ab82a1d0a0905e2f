"""Selection and verification over the menu's utility lines, checked against
the scalar loops they replaced, which live on here as exact oracles."""

import functools
import tracemalloc
from fractions import Fraction
from unittest import mock

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
    _blocked_response,
    _certify,
    _segment_index,
    _segments,
    _select,
    _utility_blocks,
    best_response,
)
from statmenus.evaluation import _chunk_plan, _simulate_chunk, _tally, _workspace

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
    new, old = sm.select(q, menu, model), scalar_select(q, menu, model)
    assert new.report == old.report
    assert _bits(new.utility) == _bits(old.utility)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(cases, pencil_menus()), data=st.data())
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


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(menu_lines, pencils()))
def test_selection_with_and_without_the_table_matches_best_response(case):
    """``_select`` on a certificate made once, with a bucket table and
    without one, returns ``best_response``'s indices and value bits, at the
    breakpoints, beside them, at NaN and at types outside [0, 1]."""
    slopes, intercepts, q = case
    q = _types_at_the_breaks(slopes, intercepts, q)
    expected_index, expected_value = best_response(q, slopes, intercepts)
    for table in (True, False):
        index, value = _select(q, _certify(slopes, intercepts, table=table))
        assert np.array_equal(index, expected_index)
        assert value.tobytes() == expected_value.tobytes()


@st.composite
def sorted_breaks(draw):
    """Strictly increasing finite breakpoints: none (a one-line menu), one,
    spread over [0, 1] and beyond, or clustered a few units in the last place
    apart around points of [0, 1], with far outliers."""
    shape = draw(st.sampled_from(["none", "one", "spread", "clustered"]))
    if shape == "none":
        return np.empty(0)
    if shape == "one":
        return np.array([draw(st.floats(-2.0, 2.0))])
    if shape == "spread":
        return np.unique(draw(st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=60)))
    groups = []
    for x in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)):
        steps = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
        groups.append(x + np.spacing(x if x else 1.0) * np.array(steps, dtype=float))
    outliers = draw(st.lists(st.sampled_from([-1e308, -3.0, 5.0, 1e308, 5e-324]), max_size=2))
    return np.unique(np.concatenate([*groups, outliers]))


@settings(max_examples=500, deadline=None)
@given(breaks=sorted_breaks(), data=st.data())
def test_segment_index_matches_searchsorted(breaks, data):
    """The bucket table's segment index is ``np.searchsorted(breaks, q,
    side="right")`` for every type, NaN and +-inf included, and casting
    those to a bucket does not warn (warnings are errors here)."""
    drawn = data.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
    q = np.concatenate(
        [
            [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -1e308, -0.5, 1.5, 1e308, 5e-324],
            drawn,
            breaks,
            np.nextafter(breaks, -np.inf),
            np.nextafter(breaks, np.inf),
        ]
    )
    lines = np.zeros(len(breaks) + 1), np.zeros(len(breaks) + 1)
    with mock.patch.object(contracts, "_segments", return_value=(breaks, 0.0)):
        certificate = _certify(*lines, table=True)
    expected = np.searchsorted(breaks, q, side="right")
    assert np.array_equal(_segment_index(q, certificate), expected)
    if len(breaks) > 1 and 1e-300 < float(breaks[-1]) - float(breaks[0]) < 1e300:
        assert certificate.table is not None


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


def test_simulation_on_the_envelope_matches_the_blocked_route(fine_fixed_menu, gm1, monkeypatch):
    """A continuous population's simulation on the fine menu, whose plan
    holds a certificate with a bucket table, counts what the blocked route
    counts. With ``_segments`` patched, the plan holds no certificate and
    every agent takes the blocked route."""
    population = sm.uniform_population(0.43, 0.86)
    assert _chunk_plan(fine_fixed_menu, population, gm1)[0].table is not None
    n = 20_000
    on_envelope = sm.simulate_population(fine_fixed_menu, population, gm1, n=n, seed=3)
    _without_certification(monkeypatch)
    assert _chunk_plan(fine_fixed_menu, population, gm1)[0].bounds is None
    blocked = []

    def recording(q, slopes, intercepts):
        blocked.append(len(q))
        return _blocked_response(q, slopes, intercepts)

    monkeypatch.setattr(contracts, "_blocked_response", recording)
    assert sm.simulate_population(fine_fixed_menu, population, gm1, n=n, seed=3) == on_envelope
    assert sum(blocked) == n


def test_fine_menu_table_holds_a_break_per_bucket_at_most(fine_fixed_menu, gm1):
    """The 1,025-contract menu's table has two buckets per break and at most
    one break in a bucket, so one step up finds every type's segment."""
    certificate = _certify(*fine_fixed_menu.lines(gm1))
    assert len(certificate.table) == 2 * 1024 + 1
    assert np.diff(certificate.table).max() == 1


def test_non_separating_menu_simulates_on_the_blocked_route(fixed_menu, gm1, monkeypatch):
    """A continuous population on a menu with two costs swapped, which is not
    separating and whose lines are not certified, gets the blocked route's
    result; so does the separating menu, whose lines are."""
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


def _chunk_peak(menu, population, model, work=None):
    """Count matrix and traced peak bytes of one full simulation chunk, in
    ``work`` or in a workspace allocated while tracing."""
    child = np.random.SeedSequence(3).spawn(1)[0]
    plan = _chunk_plan(menu, population, model)
    tracemalloc.start()
    try:
        work = _workspace(1 << 16) if work is None else work
        by_code = _simulate_chunk(plan, population, model, 1 << 16, child, False, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, contract, _ = plan
    return _tally(by_code, contract < len(menu.taus)), peak


def test_simulate_chunk_memory_is_bounded(fine_fixed_menu, gm1):
    """A full chunk on a 1025-contract menu stays far below the (chunk x
    contracts) utility matrix, which alone would take 537 MB, and below the
    8 MiB of one block of ``_blocked_response`` (about 10.7 MiB when every
    agent takes that route)."""
    population = sm.uniform_population(0.43, 0.86)
    counts, peak = _chunk_peak(fine_fixed_menu, population, gm1)
    assert counts[:2].sum(axis=1).tolist() == [1 << 16, 1 << 16]  # agents, participating
    assert peak < 8 * 2**20


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
    population = sm.discrete_population(five_types)
    counts, peak = _chunk_peak(five_type_menu, population, gm1)
    assert counts[0].sum() == 1 << 16
    assert peak < 24 * 2**20


def test_simulate_chunk_in_a_workspace_allocates_little(five_type_menu, five_types, gm1):
    """Given a workspace, a full five-type chunk allocates little beyond the
    p-value sampler's draws and index arrays: below 1 MiB, where the
    workspace's per-agent rows take 1.6 MiB."""
    population = sm.discrete_population(five_types)
    work = _workspace(1 << 16)
    counts, peak = _chunk_peak(five_type_menu, population, gm1, work)
    assert counts[0].sum() == 1 << 16
    assert peak < 2**20


def test_continuous_chunk_in_a_workspace_allocates_little(fine_fixed_menu, gm1):
    """Given a workspace, a full chunk of a continuous population on the
    1,025-contract menu selects its contracts in row blocks: below 1 MiB
    traced, where one ``best_response`` over the whole chunk took 3.03 MiB."""
    population = sm.uniform_population(0.43, 0.86)
    counts, peak = _chunk_peak(fine_fixed_menu, population, gm1, _workspace(1 << 16))
    assert counts[:2].sum(axis=1).tolist() == [1 << 16, 1 << 16]  # agents, participating
    assert peak < 2**20


@pytest.mark.parametrize(
    "menu, population",
    [
        (_fixed_reward_menu(129), sm.uniform_population(0.43, 0.86)),
        (_broken_menu(), sm.uniform_population(0.43, 0.86)),
        (_fixed_reward_menu(129), sm.uniform_population(0.2, 0.95)),  # above 0.86 opts out
    ],
    ids=["certified", "broken", "opt_out_tail"],
)
@pytest.mark.parametrize("rows", [1, 3, 7, 1_000])
def test_chunk_selection_does_not_depend_on_the_row_block(monkeypatch, menu, population, rows):
    """A continuous population's 500-agent chunk, selected in blocks of
    ``rows`` agents, one selection call each on the plan's certificate,
    counts what one selection over the whole chunk counts, on certified
    lines, on lines that take the blocked route and with types that opt
    out."""
    size, child = 500, np.random.SeedSequence(8)
    plan = _chunk_plan(menu, population, GM1)
    monkeypatch.setattr(evaluation, "_SELECT_ROWS", size)
    whole = _simulate_chunk(plan, population, GM1, size, child, False, _workspace(size))
    calls = []

    def counted(q, certificate):
        assert certificate is plan[0]
        calls.append(len(q))
        return _select(q, certificate)

    monkeypatch.setattr(evaluation, "_select", counted)
    monkeypatch.setattr(evaluation, "_SELECT_ROWS", rows)
    blocked = _simulate_chunk(plan, population, GM1, size, child, False, _workspace(size))
    assert calls == [min(rows, size - start) for start in range(0, size, rows)]
    assert blocked.tolist() == whole.tolist()
    participating = _tally(whole, plan[1] < len(menu.taus))[1].sum()
    assert (participating < size) == (population.hi > 0.86)
