"""The level-rounding transform: formula instantiation, proof-bound fuzz,
level discipline, closure, and the Hoeffding sample-size rule."""

import math
import re

import numpy as np
import pytest

import menuforge as mf
from menuforge.covers import CoverSpec
from menuforge.rounding import RoundingParams


def _random_menu(rng, k, m, H):
    L = rng.dirichlet(np.ones(m), size=k) * rng.random((k, 1))
    P = H ** rng.random(k)  # log-uniform prices in [1, H]
    return mf.Menu(L, P)


def test_k_examples():
    assert RoundingParams(epsilon=0.25, H=16.0).K == 7   # delta 0.5: 1.5^7 >= 16 > 1.5^6
    assert RoundingParams(epsilon=0.04, H=16.0).K == 16  # delta 0.2: 1.2^16 >= 16 > 1.2^15
    assert RoundingParams(epsilon=0.04, H=1.0).K == 0


def test_guarantee_bound_examples():
    assert mf.guarantee_bound(RoundingParams(epsilon=0.04, H=1.0)) == pytest.approx((0.8, 0.04))  # K=0
    mult, add = mf.guarantee_bound(RoundingParams(epsilon=0.25, H=16.0))
    assert add == pytest.approx(15 * 0.25)  # K=7 -> (2K+1) eps
    assert mult == pytest.approx(0.5 * 0.75 ** 7)


@pytest.mark.parametrize("kwargs, message", [
    ({"epsilon": 0.0, "H": 1.0}, "epsilon must lie in (0, 1)"),
    ({"epsilon": 1.0, "H": 4.0}, "epsilon must lie in (0, 1)"),
    ({"epsilon": 0.1, "H": math.inf}, "H must be finite, not inf"),
    ({"epsilon": 0.1, "H": 0.5}, "H must be at least 1"),
    ({"epsilon": 0.1, "H": 4.0, "cover_kind": "hexagonal"}, "unknown cover kind 'hexagonal'"),
])
def test_rounding_params_reject_what_a_cover_spec_rejects(kwargs, message):
    with pytest.raises(mf.ValidationError, match=re.escape(message)):
        RoundingParams(**kwargs)


def test_rounding_params_refuse_a_cover_the_guarantee_does_not_certify():
    # the additive cover is a valid CoverSpec, but no menu guarantee is stated for it
    with pytest.raises(mf.ValidationError, match="monotone_tail cover, not 'additive'"):
        RoundingParams(0.1, 4.0, "additive")


def test_guarantee_bound_monotone_in_epsilon():
    H = 8.0
    prev_mult, prev_add = 1.0, 0.0
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        mult, add = mf.guarantee_bound(RoundingParams(epsilon=eps, H=H))
        assert mult < prev_mult + 1e-15 and add > prev_add - 1e-15
        prev_mult, prev_add = mult, add


def test_level_function():
    rp = RoundingParams(epsilon=0.04, H=16.0)
    assert rp.level(0.5) == 1
    assert rp.level(1.0) == 1
    assert rp.level(1.2) == 1
    assert rp.level(1.21) == 2
    assert rp.level(16.0) == rp.K
    assert rp.level(np.array([0.5, 1.2, 1.21, 16.0])).tolist() == [1, 1, 2, rp.K]
    for bad in (0.0, np.nan, 17.0, np.array([1.0, 0.0])):
        with pytest.raises(mf.ValidationError):
            rp.level(bad)
    # H = 1 has no levels to scale by: every price is level 0
    flat = RoundingParams(epsilon=0.04, H=1.0)
    assert flat.level(np.array([0.5, 1.0])).tolist() == [0, 0] and flat.level(1.0).shape == ()


def test_round_menu_tiny_epsilon_is_nearly_identity():
    # the transform's deviation scales like sqrt(eps) log H, so eps = 1e-9
    # brings a price-3 entry within 1e-3 of itself (1e-6 would not)
    rng = np.random.default_rng(0)
    menu = _random_menu(rng, 1, 3, 4.0)
    deviations = []
    for eps in (1e-6, 1e-9):
        out = mf.round_menu(menu, RoundingParams(epsilon=eps, H=4.0))
        assert out.size == 1
        deviations.append(
            max(abs(out.prices[0] - menu.prices[0]), np.max(np.abs(out.lotteries[0] - menu.lotteries[0])))
        )
    assert deviations[1] < deviations[0]  # convergence toward identity
    assert deviations[1] < 1e-3


def test_round_menu_top_level_formula():
    eps, H = 0.04, 16.0
    rp = RoundingParams(epsilon=eps, H=H)
    K = rp.K
    menu = mf.Menu([[1.0, 0.0]], [H])
    out = mf.round_menu(menu, rp)
    expected_price = math.floor((1 - eps) ** K * H / eps) * eps - 2 * K * eps
    assert out.prices[0] == pytest.approx(expected_price, abs=1e-12)
    # no level scaling at the top level: the lottery is just cover-rounded
    spec = rp.cover_spec(2)
    np.testing.assert_array_equal(out.lotteries[0], mf.round_lottery(np.array([1.0, 0.0]), spec))


def test_round_menu_requires_positive_prices_within_h():
    rp = RoundingParams(epsilon=0.1, H=4.0)
    with pytest.raises(mf.ValidationError):
        mf.round_menu(mf.Menu([[1.0]], [5.0]), rp)


@pytest.mark.parametrize("lottery", [[0.9, 0.9], [np.nan, 0.5], [-0.1, 0.5]])
def test_round_menu_rejects_a_non_lottery(lottery):
    # [0.9, 0.9] shrinks to mass 1.06 before the cover sees it, so round_menu checks first
    with pytest.raises(mf.ValidationError, match="lottery"):
        mf.round_menu(mf.Menu([lottery], [1.0]), RoundingParams(epsilon=0.1, H=4.0))


def test_round_menu_proof_bound_fuzz():
    # q' >= (1-delta)(1-eps)^K p - (2K+1) eps per (menu, valuation) pair
    H = 16.0
    rp = RoundingParams(epsilon=0.04, H=H)
    mult, add = mf.guarantee_bound(rp)
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 9))
        menu = _random_menu(rng, k, m, H)
        rounded = mf.round_menu(menu, rp)
        V = 1.0 + (H - 1.0) * rng.random((10, m))
        p = mf.revenue_batch(menu, V)
        q = mf.revenue_batch(rounded, V)
        assert np.all(q >= mult * p - add - 1e-9)


def test_round_menu_monotone_cover_proof_bound():
    H = 8.0
    rp = RoundingParams(epsilon=0.04, H=H, cover_kind="monotone_tail")
    mult, add = mf.guarantee_bound(rp)
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        menu = _random_menu(rng, int(rng.integers(1, 6)), m, H)
        rounded = mf.round_menu(menu, rp)
        V = np.sort(1.0 + (H - 1.0) * rng.random((10, m)), axis=1)
        p = mf.revenue_batch(menu, V)
        q = mf.revenue_batch(rounded, V)
        assert np.all(q >= mult * p - add - 1e-9)


def _reference_round_menu(menu, rp):
    """round_menu one entry at a time, each level from math.log: the oracle."""
    eps, K, d = rp.epsilon, rp.K, rp.delta
    lotteries, prices = [], []
    for x, p in zip(menu.lotteries, menu.prices.tolist()):
        k = min(K, max(1, math.ceil(math.log(p) / math.log1p(d) - 1e-12)))
        p_new = math.floor((1 - eps) ** K * p / eps) * eps - 2 * k * eps
        if p_new > 0:
            lotteries.append(mf.round_lottery((1 - eps) ** (K - k) * x, rp.cover_spec(menu.m)))
            prices.append(p_new)
    return np.array(lotteries).reshape(-1, menu.m), np.array(prices)


def test_round_menu_closure_lotteries_are_scaled_cover_points():
    # every kept lottery is its entry's level-scaled cover point, byte for byte,
    # over prices below 1, on level boundaries (1+delta)^k, equal to H, and
    # low enough to drop, and over empty menus
    rng = np.random.default_rng(3)
    seen = {"dropped": 0, "below_1": 0, "on_boundary": 0, "at_H": 0, "empty": 0}
    for trial in range(400):
        cover_kind = ("multiplicative", "monotone_tail")[trial % 2]
        eps = (0.05, (0.1 / 3) ** 2)[trial // 2 % 2]  # the pipeline rounds t=100 fits at (0.1/3)^2
        H = (8.0, 16.0)[trial // 4 % 2]
        rp = RoundingParams(epsilon=eps, H=H, cover_kind=cover_kind)
        d = rp.delta
        m, k = int(rng.integers(1, 7)), int(rng.integers(0, 12))
        L = rng.dirichlet(np.ones(m), size=k) * rng.random((k, 1))
        boundaries = [(1 + d) ** j for j in range(rp.K) if (1 + d) ** j <= H]
        special = np.array(boundaries + [H, 0.1 * rng.random() + 1e-3, 0.5 + 0.5 * rng.random()])
        P = np.where(rng.random(k) < 0.5, H ** rng.random(k), rng.choice(special, k))
        menu = mf.Menu(L, P)
        out = mf.round_menu(menu, rp)
        want_L, want_P = _reference_round_menu(menu, rp)
        assert out.lotteries.tobytes() == want_L.tobytes() and out.lotteries.shape == want_L.shape
        assert out.prices.tobytes() == want_P.tobytes()
        seen["dropped"] += menu.size - out.size
        seen["below_1"] += int(np.sum(P < 1))
        seen["on_boundary"] += int(np.isin(P, boundaries[1:]).sum())
        seen["at_H"] += int(np.sum(P == H))
        seen["empty"] += menu.size == 0
    assert all(seen.values()), seen


def test_round_menu_determinism():
    rng = np.random.default_rng(5)
    menu = _random_menu(rng, 5, 3, 16.0)
    rp = RoundingParams(epsilon=0.04, H=16.0)
    a = mf.round_menu(menu, rp)
    b = mf.round_menu(menu, rp)
    assert a == b


def test_level_discipline():
    # rounded price of a level-k entry < rounded price of any level-(k+2) entry
    eps, H = 0.01, 16.0
    rp = RoundingParams(epsilon=eps, H=H)
    rng = np.random.default_rng(11)
    for _ in range(300):
        menu = _random_menu(rng, 8, 2, H)
        levels = np.array([rp.level(float(p)) for p in menu.prices])
        out_prices = []
        K = rp.K
        for i in range(menu.size):
            p = float(menu.prices[i])
            k = rp.level(p)
            out_prices.append(math.floor((1 - eps) ** K * p / eps) * eps - 2 * k * eps)
        out_prices = np.array(out_prices)
        for a in range(menu.size):
            for b in range(menu.size):
                if levels[a] >= levels[b] + 2:
                    assert out_prices[a] > out_prices[b]


def test_dropped_entries_only_at_negligible_prices():
    eps, H = 0.04, 16.0
    rp = RoundingParams(epsilon=eps, H=H)
    mult, add = mf.guarantee_bound(rp)
    menu = mf.Menu([[1.0], [1.0]], [0.05, 8.0])
    out = mf.round_menu(menu, rp)
    assert out.size == 1  # the 0.05 entry dies, its price is inside the loss budget
    assert mult * 0.05 - add < 0


# row 46 of the consolidated sample of pipeline seed 47 at t=100
# (MonotoneUniformSampler(5, 8.0, 0), epsilon 0.1, H 8, monotone_tail) and
# the two entries of its LP menu it buys before and after rounding
_TIE_BUYER = [1.9382535628773547, 3.07829269515546, 4.135250670640326, 4.8402415382078985, 5.297646101270019]
_TIE_MENU = (
    [[0.0, 0.0, 0.059522519895607924, 0.01730255932331012, 0.060954242416434844],
     [0.01797748160284807, 0.0, 0.0067982718321920165, 0.0, 0.0]],
    [0.6528031113638009, 0.06295747592155009],
)
_TIE_PARAMS = mf.PipelineConfig(t=100, epsilon=0.1, H=8.0, cover_kind="monotone_tail").rounding_params()


def test_pinned_tie_sits_clear_of_the_tie_window_edge():
    v = np.array([_TIE_BUYER])
    menu = mf.Menu(*_TIE_MENU)
    # before rounding both entries and the zero entry tie, far inside the
    # window, and the buyer takes the dearer entry; after rounding the best
    # option leads the next by far more than the window
    u = (v @ menu.lotteries.T - menu.prices)[0]
    assert np.all(np.abs(u) < mf.TIE_TOL / 1e3)
    assert mf.revenue_batch(menu, v)[0] == menu.prices[0]
    rounded = mf.round_menu(menu, _TIE_PARAMS)
    u = np.sort(np.append(v @ rounded.lotteries.T - rounded.prices, 0.0))
    assert u[-1] - u[-2] > mf.TIE_TOL * 1e4


@pytest.mark.xfail(strict=True, reason="level 1 holds every price up to 1+delta, so a buyer tied between "
                                       "two LP entries priced below 1 moves to the much cheaper one")
def test_round_menu_keeps_the_guarantee_on_a_pinned_lp_tie():
    v = np.array([_TIE_BUYER])
    menu = mf.Menu(*_TIE_MENU)
    rev = mf.revenue_batch(menu, v)[0]
    mult, add = mf.guarantee_bound(_TIE_PARAMS)
    assert mf.revenue_batch(mf.round_menu(menu, _TIE_PARAMS), v)[0] >= mult * rev - add


def test_sample_size_for_cover_examples():
    # single-menu Hoeffding: log|N| = 0, failure ~ 2/e makes the log term 1
    t = mf.sample_size_for_cover(0.0, H=4.0, epsilon=0.5, failure_prob=2.0 / math.e)
    assert t == math.ceil(4.0 ** 2 / (2 * 0.5 ** 2))
    # plug-in arithmetic: H=4, eps=0.5, |N| = e^10, delta = 0.01
    t2 = mf.sample_size_for_cover(10.0, H=4.0, epsilon=0.5, failure_prob=0.01)
    assert t2 == 490
    # doubling H quadruples the pre-ceiling count
    raw_h = 32 * (10 + math.log(200))
    assert t2 == math.ceil(raw_h)
    t3 = mf.sample_size_for_cover(10.0, H=8.0, epsilon=0.5, failure_prob=0.01)
    assert t3 == math.ceil(4 * raw_h)
    # a failure probability outside (0, 1) is no probability bound
    for bad in (0.0, 1.0, 5.0):
        with pytest.raises(mf.ValidationError):
            mf.sample_size_for_cover(0.0, 1.0, 0.1, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["cover_count_log", "H", "epsilon"])
def test_sample_size_for_cover_rejects_non_finite_inputs(field, bad):
    args = {"cover_count_log": 10.0, "H": 4.0, "epsilon": 0.5, "failure_prob": 0.01, field: bad}
    with pytest.raises(mf.ValidationError, match="must be finite"):
        mf.sample_size_for_cover(**args)


def test_sample_size_for_cover_rejects_a_count_past_the_floats():
    with pytest.raises(mf.ValidationError, match="overflows"):
        mf.sample_size_for_cover(10.0, H=1e200, epsilon=0.5, failure_prob=0.01)
