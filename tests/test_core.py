"""Menus, choice, revenue, tail forms: examples and invariants."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menuforge as mf
from menuforge import core


def test_utility_examples():
    assert mf.utility([2.0, 0.0], ([1.0, 0.0], 1.0)) == pytest.approx(1.0)
    assert mf.utility([1.0, 1.0], ([0.0, 0.0], 0.0)) == pytest.approx(0.0)
    assert mf.utility([3.0, 5.0], ([0.5, 0.5], 2.0)) == pytest.approx(2.0)


def test_utility_dimension_mismatch():
    with pytest.raises(mf.DimensionMismatchError):
        mf.utility([1.0, 2.0, 3.0], ([0.5, 0.5], 1.0))


def test_choose_prefers_positive_utility():
    menu = mf.Menu.from_entries([([1.0, 0.0], 1.0)])
    c = mf.choose(menu, [2.0, 0.0])
    assert c.index == 0 and c.price == 1.0


def test_choose_strict_argmax():
    menu = mf.Menu.from_entries([([1.0, 0.0], 1.0), ([1.0, 0.0], 2.0)])
    c = mf.choose(menu, [3.0, 0.0])
    assert c.index == 0  # utility 2 beats utility 1


def test_choose_tie_break_favors_higher_price():
    # both entries give utility exactly 1 to v=(2,0)
    menu = mf.Menu.from_entries([([0.5, 0.0], 0.0), ([1.0, 0.0], 1.0)])
    c = mf.choose(menu, [2.0, 0.0])
    assert c.index == 1 and c.price == 1.0

    # non-tied case from the same family: first entry wins on strict utility
    menu2 = mf.Menu.from_entries([([1.0, 0.0], 1.0), ([0.5, 0.5], 1.5)])
    assert mf.choose(menu2, [2.0, 1.0]).index == 0


def test_choose_equal_price_tie_takes_lowest_index():
    menu = mf.Menu.from_entries([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)])
    c = mf.choose(menu, [1.0, 1.0])
    assert c.index == 0


def test_zero_entry_wins_when_everything_is_negative():
    menu = mf.Menu.from_entries([([1.0, 0.0], 1.0)])
    c = mf.choose(menu, [0.5, 0.0])
    assert c.index == -1 and c.price == 0.0 and c.utility == 0.0
    assert mf.revenue(menu, [0.5, 0.0]) == 0.0


def test_menu_rejects_negative_prices():
    with pytest.raises(mf.ValidationError, match="negative price"):
        mf.Menu([[1.0]], [-1.0])
    with pytest.raises(mf.ValidationError, match="negative price"):
        mf.Menu.from_entries([([1.0, 0.0], 2.0), ([0.0, 1.0], -1e-12)])


def test_revenue_examples():
    menu = mf.Menu.from_entries([([1.0, 0.0], 1.0)])
    assert mf.revenue(menu, [2.0, 0.0]) == pytest.approx(1.0)


def test_overfit_lottery_tie_pays():
    # uniform lottery on S at price 1; buyer values S at exactly 1 -> pays 1
    m = 6
    S = np.array([0, 2, 3])
    x = np.zeros(m)
    x[S] = 1.0 / len(S)
    menu = mf.Menu.from_entries([(x, 1.0)])
    v = np.zeros(m)
    v[S] = 1.0
    assert mf.revenue(menu, v) == pytest.approx(1.0)


def test_expected_revenue_full_surplus_single_point():
    v = np.array([1.0, 3.0])
    d = mf.ExplicitDistribution(v[None, :], np.array([1.0]))
    menu = mf.Menu.from_entries([([0.0, 1.0], 3.0)])
    assert mf.expected_revenue(menu, d) == pytest.approx(3.0)


def test_expected_revenue_empty_menu_is_zero():
    d = mf.ExplicitDistribution(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([0.5, 0.5]))
    assert mf.expected_revenue(mf.Menu.empty(2), d) == 0.0


def test_menu_from_no_entries_points_to_empty():
    with pytest.raises(mf.ValidationError, match=r"Menu\.empty\(m\)"):
        mf.Menu.from_entries([])


def test_expected_revenue_rejects_unnormalized_weights():
    with pytest.raises(mf.ValidationError):
        mf.ExplicitDistribution(np.array([[1.0]]), np.array([0.5]))


def test_scalar_equal_revenue_single_price_curve():
    # Pr[v = 2^z] = 2^-z for z=1..3 at H=8; single price 2^j earns 2 - 2^(j-3)
    d = mf.scalar_equal_revenue(8.0)
    revs = {}
    for j in (1, 2, 3):
        menu = mf.Menu.from_entries([([1.0], float(2 ** j))])
        revs[j] = mf.expected_revenue(menu, d)
        assert revs[j] == pytest.approx(2.0 - 2.0 ** (j - 3), abs=1e-12)
    assert max(revs.values()) < 2.0


def test_estimate_revenue_constant_sampler():
    d = mf.ExplicitDistribution(np.array([[2.0, 1.0]]), np.array([1.0]))
    sampler = mf.ExplicitSampler(d, seed=0)
    menu = mf.Menu.from_entries([([1.0, 0.0], 2.0)])
    mean, stderr = mf.estimate_revenue(menu, sampler, 100, seed=3)
    assert mean == pytest.approx(2.0) and stderr == 0.0
    mean1, stderr1 = mf.estimate_revenue(menu, sampler, 1, seed=3)
    assert mean1 == pytest.approx(2.0) and stderr1 == 0.0


def test_estimate_revenue_seeded_determinism():
    sampler = mf.MonotoneUniformSampler(4, 4.0, seed=11)
    menu = mf.uniform_price_menu(4, 2.0)
    a = mf.estimate_revenue(menu, sampler, 500, seed=5)
    b = mf.estimate_revenue(menu, sampler, 500, seed=5)
    assert a == b


def test_tail_form_examples():
    np.testing.assert_allclose(mf.to_tail_form([0.2, 0.3, 0.5]), [1.0, 0.8, 0.5])
    np.testing.assert_allclose(mf.from_tail_form([1.0, 1.0, 1.0]), [0.0, 0.0, 1.0])


def test_tail_form_round_trip_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        x = rng.dirichlet(np.ones(m)) * rng.random()
        back = mf.from_tail_form(mf.to_tail_form(x))
        np.testing.assert_allclose(back, x, atol=1e-12)


def test_from_tail_form_rejects_non_monotone():
    with pytest.raises(mf.ValidationError):
        mf.from_tail_form([0.5, 0.9, 0.1])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_choice_is_ic_and_ir(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, 6))
    menu = mf.Menu(rng.dirichlet(np.ones(m), size=k) * rng.random((k, 1)), rng.random(k) * 3)
    v = rng.random(m) * 4
    c = mf.choose(menu, v)
    utilities = [mf.utility(v, e) for e in menu.entries] + [0.0]
    assert c.utility >= max(utilities) - mf.TIE_TOL  # IC: nothing beats the choice
    assert c.utility >= -mf.TIE_TOL and c.price >= 0.0  # IR
    # tie-break determinism: identical rerun picks the same index
    assert mf.choose(menu, v).index == c.index


def test_removing_entry_never_raises_utility():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, k = 3, 4
        menu = mf.Menu(rng.dirichlet(np.ones(m), size=k) * 0.9, rng.random(k) * 2)
        v = rng.random(m) * 3
        full = mf.choose(menu, v)
        sub = mf.Menu(menu.lotteries[1:], menu.prices[1:])
        assert mf.choose(sub, v).utility <= full.utility + mf.TIE_TOL


def test_explicit_zero_entry_changes_nothing():
    menu = mf.Menu.from_entries([([0.6, 0.2], 1.0)])
    with_zero = mf.Menu.from_entries([([0.6, 0.2], 1.0), ([0.0, 0.0], 0.0)])
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.random(2) * 3
        assert mf.revenue(menu, v) == mf.revenue(with_zero, v)


def test_menu_entry_invariant_zero_price_needs_zero_lottery():
    with pytest.raises(mf.ValidationError):
        mf.MenuEntry([0.5, 0.0], 0.0).validate()
    mf.MenuEntry([0.0, 0.0], 0.0).validate()


def test_lottery_invariants():
    with pytest.raises(mf.ValidationError):
        mf.Lottery([-0.1, 0.5]).validate()
    with pytest.raises(mf.ValidationError):
        mf.Lottery([0.7, 0.7]).validate()
    mf.Lottery([0.5, 0.5]).validate()


def test_valuation_range_tags():
    mf.Valuation([0.2, 0.8], tag="unit_interval").validate()
    with pytest.raises(mf.ValidationError):
        mf.Valuation([0.2, 1.5], tag="unit_interval").validate()
    mf.Valuation([1.0, 4.0], tag="bounded", H=4.0).validate()
    with pytest.raises(mf.ValidationError):
        mf.Valuation([0.5, 2.0], tag="bounded", H=4.0).validate()
    mf.Valuation([1.0, 1.0, 4.0], tag="monotone", H=4.0).validate()
    with pytest.raises(mf.ValidationError):
        mf.Valuation([2.0, 1.5], tag="monotone", H=4.0).validate()
    with pytest.raises(mf.ValidationError):
        mf.Valuation([1.0, 5.0], tag="monotone", H=4.0).validate()


def test_monotone_sampler_support_validates():
    sampler = mf.MonotoneUniformSampler(5, 8.0, seed=0)
    V = sampler.draw(50, np.random.default_rng(0))
    dist = mf.explicit_from_samples(V, tag=sampler.tag, H=sampler.H)
    for valuation in dist.support:
        valuation.validate()


def test_menu_json_round_trip(tmp_path):
    menu = mf.Menu.from_entries([([0.25, 0.5], 1.125), ([1.0 / 3.0, 0.0], 0.7)])
    path = tmp_path / "menu.json"
    mf.save_menu(menu, path)
    back = mf.load_menu(path)
    assert back == menu  # full round-trip float precision
    raw = json.loads(path.read_text())
    assert raw["m"] == 2 and len(raw["entries"]) == 2


def test_menu_json_rejects_bad_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 2, "entries": [{"lottery": [0.5, 0.0], "price": 0.0}]}))
    with pytest.raises(mf.ValidationError):
        mf.load_menu(path)


def _loop_choice(menu, v):
    """The documented rule for one buyer: the tie window, then the higher
    price, then the earlier entry, with the zero entry after every explicit one."""
    u = np.append(menu.lotteries @ v - menu.prices, 0.0)
    p = np.append(menu.prices, 0.0)
    window = u >= u.max() - mf.TIE_TOL
    j = int(np.flatnonzero(window & (p == p[window].max()))[0])
    return -1 if j == menu.size else j


def _dyadic_menu(rng, k, m, prices):
    # lotteries in eighths and integer buyers keep every utility exact, so ties are exact
    X = rng.multinomial(8, np.ones(m + 1) / (m + 1), size=k)[:, :m] / 8.0
    return mf.Menu(X, rng.choice(prices, size=k))


@pytest.mark.parametrize("kind", ["ties", "repeated_prices", "near_ties", "zero_entry", "empty"])
def test_choice_kernel_matches_the_loop_across_blocks(kind):
    rng = np.random.default_rng(8)
    m = 3
    if kind == "empty":
        menu = mf.Menu.empty(m)
    elif kind == "ties":
        menu = _dyadic_menu(rng, 200, m, np.arange(1, 25) / 8.0)
    elif kind == "repeated_prices":
        menu = _dyadic_menu(rng, 333, m, [0.5, 1.0, 2.0])
    elif kind == "near_ties":
        base = _dyadic_menu(rng, 300, m, [0.5, 1.0, 2.0])
        # prices 3e-10 lower tie within TIE_TOL; prices 3e-9 lower do not
        menu = mf.Menu(base.lotteries, base.prices - np.resize([3e-10, 0.0, 3e-9], 300))
    else:
        base = _dyadic_menu(rng, 250, m, np.arange(1, 25) / 8.0)
        L, P = np.array(base.lotteries), np.array(base.prices)
        L[57], P[57] = 0.0, 0.0  # an explicit zero-price, zero-lottery entry
        menu = mf.Menu(L, P)
    # the empty menu is never blocked; any small block tests it
    block = max(1, core._BLOCK_CELLS // menu.size) if menu.size else 4
    V = rng.integers(0, 5, size=(3 * block + 7, m)).astype(float)
    V[::5] = 0.0  # every explicit entry has negative utility (or 0 at price 0) for these
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 7):
        idx = mf.choose_batch(menu, V[:n])
        pay = mf.revenue_batch(menu, V[:n])
        assert idx.shape == pay.shape == (n,)
        assert idx.tolist() == [_loop_choice(menu, v) for v in V[:n]]
        want = np.where(idx >= 0, menu.prices[idx], 0.0) if menu.size else np.zeros(n)
        assert pay.tobytes() == want.tobytes()
    if kind == "zero_entry":
        assert np.all(mf.choose_batch(menu, V[::5]) == 57)


def test_choice_kernel_memory_is_independent_of_buyers():
    rng = np.random.default_rng(3)
    n, k, m = 50_000, 200, 5
    menu = mf.Menu(rng.dirichlet(np.ones(m), size=k) * 0.9, rng.random(k) * 4)
    V = rng.random((n, m)) * 4
    tracemalloc.start()
    try:
        mf.choose_batch(menu, V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x k utility matrix takes 80 MB; the blocked kernel needs about 2 MB
    assert peak < n * k * 8 / 10
