"""Tests for contracts, menus, selection, separation checks, and the
scoring-rule view."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import statmenus as sm
from statmenus.contracts import PARTICIPATION_SLACK, Contract, Menu, best_response


def chosen(q, menu, model):
    """Report (None to opt out, below ``-PARTICIPATION_SLACK``) and utility of
    a type-q agent by ``best_response`` over the menu's lines."""
    index, value = best_response(np.array([q]), *menu.lines(model))
    utility = float(value[0])
    return (None if utility < -PARTICIPATION_SLACK else menu.support[index[0]]), utility


def expected_score(menu, p, q, model):
    """q S(p, 1) + (1 - q) S(p, 0): the expected payoff of report p under the
    menu's scoring rule."""
    return q * sm.scoring_rule(menu, p, 1, model) + (1.0 - q) * sm.scoring_rule(menu, p, 0, model)


def brute_force_best(q, menu, model):
    """Independent argmax over the menu with the smallest-report tie-break."""
    best_p, best_u = None, -np.inf
    for p, c in zip(menu.support, menu.contracts):
        u = sm.utility(q, c, model)
        if u > best_u:
            best_p, best_u = p, u
    return best_p, best_u


# ---------------------------------------------------------------------------
# utility
# ---------------------------------------------------------------------------


def test_base_contract_zero_utility(gm1):
    """The worst-type base contract (0.004, 100, 1.3) leaves ~zero utility."""
    c = Contract(tau=0.004, reward=100.0, cost=1.3)
    assert sm.utility(0.8, c, gm1) == pytest.approx(0.0, abs=0.01)


def test_utility_no_reward(gm1):
    c = Contract(tau=0.3, reward=0.0, cost=2.5)
    for q in (0.0, 0.4, 1.0):
        assert sm.utility(q, c, gm1) == pytest.approx(-2.5)


def test_utility_always_approved(gm1):
    c = Contract(tau=1.0, reward=7.0, cost=3.0)
    for q in (0.0, 0.5, 1.0):
        assert sm.utility(q, c, gm1) == pytest.approx(4.0)


def test_utility_affine_with_negative_slope(gm1):
    c = Contract(tau=0.2, reward=50.0, cost=1.0)
    u0, u_half, u1 = (sm.utility(q, c, gm1) for q in (0.0, 0.5, 1.0))
    assert u_half == pytest.approx((u0 + u1) / 2, abs=1e-12)
    slope = u1 - u0
    assert slope == pytest.approx(50.0 * (0.2 - sm.power(gm1, 0.2)), abs=1e-12)
    assert slope < 0


def test_utility_nondecreasing_in_threshold(gm1):
    taus = np.linspace(0.0, 1.0, 41)
    for q in (0.2, 0.6, 0.9):
        vals = [sm.utility(q, Contract(float(t), 10.0, 1.0), gm1) for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_utility_line_past_the_float_range_raises(gm1):
    """R beta1 - c = 1.7e308 beta1 + 1.7e308 overflows: ``utility`` and
    ``scoring_rule`` raise, with no numpy warning, instead of returning inf."""
    c = Contract(0.9, 1.7e308, -1.7e308)
    with pytest.raises(sm.InfeasibleMenuError, match=r"contract \(tau=0\.9, reward=1\.7e\+308"):
        sm.utility(0.5, c, gm1)
    menu = Menu((0.3, 0.6), (c, Contract(0.8, 1.0, 0.0)))
    with pytest.raises(sm.InfeasibleMenuError, match="past the float range"):
        sm.scoring_rule(menu, 0.3, 0, gm1)


def test_zero_utility_cost_calibration(gm1):
    cost = sm.zero_utility_cost(0.8, 0.004, 100.0, gm1)
    assert sm.utility(0.8, Contract(0.004, 100.0, cost), gm1) == pytest.approx(0.0, abs=1e-12)


def test_contract_validation():
    with pytest.raises(ValueError):
        Contract(tau=1.2, reward=1.0, cost=0.0)
    with pytest.raises(ValueError):
        Contract(tau=0.5, reward=-1.0, cost=0.0)
    for tau, reward, cost in ((0.1, 1.0, float("nan")), (0.1, 1.0, float("inf")),
                              (0.1, float("nan"), 0.0), (0.1, float("inf"), 0.0),
                              (float("nan"), 1.0, 0.0)):
        with pytest.raises(ValueError):
            Contract(tau, reward, cost)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_select_singleton(gm1):
    menu = Menu(support=(0.5,), contracts=(Contract(0.3, 10.0, 1.0),))
    report, _ = chosen(0.4, menu, gm1)
    assert report == 0.5


def test_select_five_type_menu_truthful(gm1, five_type_menu):
    """q = 0.5 picks its own contract; cross-checked against brute force."""
    report, utility = chosen(0.5, five_type_menu, gm1)
    assert report == 0.5
    assert five_type_menu.contract_for(0.5).tau == pytest.approx(0.18, abs=0.005)
    bp, bu = brute_force_best(0.5, five_type_menu, gm1)
    assert (report, utility) == (bp, pytest.approx(bu))


def test_select_opt_out(gm1):
    menu = Menu(support=(0.5,), contracts=(Contract(0.2, 1.0, 50.0),))
    report, utility = chosen(0.9, menu, gm1)
    assert report is None and utility < 0


def test_select_zero_utility_participates(gm1):
    cost = sm.zero_utility_cost(0.8, 0.004, 100.0, gm1)
    menu = Menu(support=(0.8,), contracts=(Contract(0.004, 100.0, cost),))
    report, utility = chosen(0.8, menu, gm1)
    assert report == 0.8 and utility == pytest.approx(0.0, abs=1e-12)


def test_select_invariant_to_dominated_contract(gm1, five_type_menu):
    """Adding a contract strictly dominated everywhere never changes choices."""
    dominated = Contract(tau=0.01, reward=0.5, cost=10.0)
    support = five_type_menu.support + (0.99,)
    contracts = five_type_menu.contracts + (dominated,)
    bigger = Menu(support=support, contracts=contracts)
    for q in np.linspace(0.05, 0.95, 19):
        assert chosen(float(q), bigger, gm1) == chosen(float(q), five_type_menu, gm1)


def test_select_tie_break_smallest_report(gm1):
    c = Contract(tau=0.3, reward=10.0, cost=1.0)
    menu = Menu(support=(0.2, 0.7), contracts=(c, c))
    assert chosen(0.5, menu, gm1)[0] == 0.2


def test_select_empty_menu_rejected():
    with pytest.raises(ValueError):
        Menu(support=(), contracts=())


# ---------------------------------------------------------------------------
# separation verification
# ---------------------------------------------------------------------------


def test_verify_five_type_menu_passes(gm1, five_type_menu):
    report = sm.verify_separating(five_type_menu, model=gm1)
    assert report.passed
    assert report.pairs_checked == 20


def test_verify_detects_cost_swap(gm1, five_type_menu):
    """Swapping the costs of the first and last contracts breaks IC."""
    contracts = list(five_type_menu.contracts)
    c0, c4 = contracts[0], contracts[4]
    contracts[0] = Contract(c0.tau, c0.reward, c4.cost)
    contracts[4] = Contract(c4.tau, c4.reward, c0.cost)
    broken = Menu(support=five_type_menu.support, contracts=tuple(contracts))
    report = sm.verify_separating(broken, model=gm1)
    assert not report.passed
    assert report.first_violation.kind == "ic"


def test_verify_detects_participation_violation(gm1):
    menu = Menu(support=(0.4, 0.6), contracts=(Contract(0.5, 10.0, 4.0), Contract(0.2, 1.0, 9.0)))
    report = sm.verify_separating(menu, model=gm1)
    assert not report.passed
    assert report.first_violation.kind == "participation"


def test_verify_singleton_with_nonnegative_utility(gm1):
    cost = sm.zero_utility_cost(0.7, 0.1, 20.0, gm1)
    menu = Menu(support=(0.7,), contracts=(Contract(0.1, 20.0, cost),))
    assert sm.verify_separating(menu, model=gm1).passed


def test_verify_margin_sensitivity(gm1, five_type_menu):
    """An absurdly large margin fails; the report names the offending pair."""
    report = sm.verify_separating(five_type_menu, model=gm1, margin=1e6)
    assert not report.passed
    assert report.first_violation.p is not None


def test_verify_rejects_negative_margin(gm1, fdr25):
    """A negative margin would pass a menu that breaks IC: here type 0.3
    gains 2.89 by reporting 0.7 once its own contract costs 5 more."""
    types = (0.3, 0.7)
    taus = [sm.fdr_threshold(q, fdr25, gm1) for q in types]
    menu = sm.build_finite_menu(types, taus, (100.0, 5.0), 50.0, lam=0.5, model=gm1)
    c0 = menu.contracts[0]
    broken = Menu(menu.support, (Contract(c0.tau, c0.reward, c0.cost + 5.0), menu.contracts[1]))
    report = sm.verify_separating(broken, model=gm1, margin=0.0)
    assert not report.passed
    assert (report.first_violation.q, report.first_violation.p) == (0.3, 0.7)
    assert report.first_violation.gap == pytest.approx(-2.89, abs=0.01)
    for margin in (-10.0, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="margin must be nonnegative"):
            sm.verify_separating(broken, model=gm1, margin=margin)
    assert sm.verify_separating(menu, model=gm1, margin=0.0).passed


# ---------------------------------------------------------------------------
# scoring-rule view
# ---------------------------------------------------------------------------


def test_expected_score_is_utility(gm1, five_type_menu):
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = float(rng.uniform(0, 1))
        p = float(rng.choice(five_type_menu.support))
        assert expected_score(five_type_menu, p, q, gm1) == pytest.approx(
            sm.utility(q, five_type_menu.contract_for(p), gm1), abs=1e-12
        )


def test_separating_menu_is_strictly_proper(gm1, five_type_menu):
    """Separation and strict propriety of the induced score coincide."""
    for q in five_type_menu.support:
        own = expected_score(five_type_menu, q, q, gm1)
        for p in five_type_menu.support:
            if p != q:
                assert own > expected_score(five_type_menu, p, q, gm1)


def test_propriety_fails_exactly_when_verification_fails(gm1, five_type_menu):
    contracts = list(five_type_menu.contracts)
    c0, c4 = contracts[0], contracts[4]
    contracts[0] = Contract(c0.tau, c0.reward, c4.cost)
    contracts[4] = Contract(c4.tau, c4.reward, c0.cost)
    broken = Menu(support=five_type_menu.support, contracts=tuple(contracts))
    assert not sm.verify_separating(broken, model=gm1).passed
    proper = all(
        expected_score(broken, q, q, gm1) > expected_score(broken, p, q, gm1)
        for q in broken.support
        for p in broken.support
        if p != q
    )
    assert not proper


def test_score_null_outcome_zero_threshold(gm1):
    menu = Menu(support=(0.5,), contracts=(Contract(0.0, 10.0, 2.0),))
    assert sm.scoring_rule(menu, 0.5, 1, gm1) == pytest.approx(-2.0)
    assert sm.scoring_rule(menu, 0.5, 0, gm1) == pytest.approx(-2.0)


def test_score_is_the_contract_payoff(gm1, five_type_menu):
    """S(p, 1) = R tau - c and S(p, 0) = R beta1(tau) - c, read off the lines."""
    for p, c in zip(five_type_menu.support, five_type_menu.contracts):
        null, effective = (sm.scoring_rule(five_type_menu, p, y, gm1) for y in (1, 0))
        assert null == pytest.approx(c.reward * c.tau - c.cost, rel=1e-12)
        assert effective == pytest.approx(c.reward * sm.power(gm1, c.tau) - c.cost, rel=1e-12)


def test_score_unknown_report_rejected(gm1, five_type_menu):
    with pytest.raises(KeyError):
        sm.scoring_rule(five_type_menu, 0.33, 1, gm1)
    with pytest.raises(ValueError):
        sm.scoring_rule(five_type_menu, 0.5, 2, gm1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_menu_json_round_trip_exact(tmp_path, five_type_menu):
    path = tmp_path / "menu.json"
    five_type_menu.save(path)
    loaded = Menu.load(path)
    assert loaded == five_type_menu  # bit-exact floats via repr round trip


def test_menu_json_structure(five_type_menu):
    import json

    doc = json.loads(five_type_menu.to_json())
    assert set(doc) == {"support", "contracts"}
    assert list(doc["contracts"][0]) == ["tau", "reward", "cost"]
    assert len(doc["support"]) == len(doc["contracts"])


def test_menu_validation():
    with pytest.raises(ValueError):
        Menu(support=(0.5, 0.4), contracts=(Contract(0.1, 1, 0), Contract(0.2, 1, 0)))
    with pytest.raises(ValueError):
        Menu(support=(0.5,), contracts=(Contract(0.1, 1, 0), Contract(0.2, 1, 0)))


# Contract numbers with the edge cases of float formatting: signed zeros,
# subnormals, integral floats and magnitudes near the float range.
_edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, 2.2e-308, 1.0, 100.0, 1e300])
unit_floats = _edge_floats.filter(lambda x: x <= 1.0) | st.floats(0.0, 1.0)
rewards = _edge_floats | st.floats(0.0, 1e300)
costs = (
    _edge_floats.map(lambda x: -x) | _edge_floats | st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def column_menus(draw):
    """Support, taus, rewards and costs of a valid menu of 1 to 12 contracts."""
    support = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12, unique=True)))
    n = len(support)
    columns = (draw(st.lists(x, min_size=n, max_size=n)) for x in (unit_floats, rewards, costs))
    return (support, *columns)


def _bits(menu):
    columns = (menu.support, menu.taus, menu.rewards, menu.costs)
    return [np.asarray(x, dtype=float).tobytes() for x in columns]


@settings(max_examples=200, deadline=None)
@given(columns=column_menus())
@example(columns=([0.5], [1.0], [100.0], [-0.0]))
@example(columns=([0.0, 1.0], [-0.0, 5e-324], [1e300, 0.0], [5e-324, -1e300]))
def test_menu_json_matches_json_dumps_and_round_trips(columns):
    """``to_json`` writes ``json.dumps(doc, indent=2)``'s bytes, ``from_json``
    reads back every bit of the support and columns, and a menu built from
    ``Contract``s equals the one built from the same columns."""
    support, taus, rewards, costs = columns
    contracts = tuple(map(Contract, taus, rewards, costs))
    menu = Menu(support, contracts)
    assert menu == Menu._from_columns(support, taus, rewards, costs)
    assert hash(menu) == hash(Menu._from_columns(support, taus, rewards, costs))
    assert menu.contracts == contracts
    doc = {
        "support": list(support),
        "contracts": [{"tau": c.tau, "reward": c.reward, "cost": c.cost} for c in contracts],
    }
    assert menu.to_json() == json.dumps(doc, indent=2)
    loaded = Menu.from_json(menu.to_json())
    assert loaded == menu and _bits(loaded) == _bits(menu)


def test_menu_from_contracts_equals_menu_from_columns(five_type_menu):
    columns = (five_type_menu.taus, five_type_menu.rewards, five_type_menu.costs)
    rebuilt = Menu._from_columns(five_type_menu.support, *columns)
    assert rebuilt == five_type_menu == Menu(five_type_menu.support, five_type_menu.contracts)
    moved = Menu._from_columns(five_type_menu.support, columns[0], columns[1], columns[2] + 1e-12)
    assert moved != five_type_menu
    signed = Menu._from_columns((0.5,), [0.0], [1.0], [0.0])
    assert signed != Menu._from_columns((0.5,), [0.0], [1.0], [-0.0])  # the bits differ
    assert five_type_menu.contract_for(0.7) == five_type_menu.contracts[-1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: doc["contracts"][1].update(tau=True),
            "menu contracts must be numbers, got True",
        ),
        (
            lambda doc: doc["contracts"][2].update(reward=2**1100),
            f"menu contracts must be numbers, got {2**1100!r}",
        ),
        (lambda doc: doc["contracts"][3].update(cost=float("nan")), "cost must be finite, got nan"),
        (lambda doc: doc["contracts"][0].update(tau=1.5), "threshold must lie in [0, 1], got 1.5"),
        (
            lambda doc: doc["contracts"][4].update(reward=-1.0),
            "reward must be finite and nonnegative, got -1.0",
        ),
        (
            lambda doc: doc["support"].__setitem__(slice(1, 3), [0.5, 0.4]),
            "support must be strictly increasing, got 0.4 after 0.5",
        ),
        (lambda doc: doc["support"].__setitem__(4, 1.25), "support must lie in [0, 1], got 1.25"),
        (lambda doc: doc["support"].pop(), "support and contracts must align"),
    ],
    ids=["bool-tau", "huge-int-reward", "nan-cost", "tau-1.5", "negative-reward",
         "decreasing-support", "support-1.25", "short-support"],
)
def test_malformed_menu_document_message(five_type_menu, edit, message):
    doc = json.loads(five_type_menu.to_json())
    edit(doc)
    with pytest.raises(ValueError) as exc:
        Menu.from_json(json.dumps(doc))
    assert str(exc.value) == message
