"""Menus, choice, revenue, tail forms: examples and invariants."""

import json
import multiprocessing
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menuforge as mf
from menuforge import core


def _choice(menu, v):
    """(index, price, utility) of the entry one buyer takes; index -1 is the zero entry."""
    v = np.asarray(v, dtype=float)
    i = int(mf.choose_batch(menu, v[None, :])[0])
    if i < 0:
        return -1, 0.0, 0.0
    return i, float(menu.prices[i]), float(v @ menu.lotteries[i] - menu.prices[i])


def test_utility_examples():
    # utilities are V @ L.T - P: one row per buyer, one column per entry
    menu = mf.Menu([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]], [1.0, 0.0, 2.0])
    V = np.array([[2.0, 0.0], [1.0, 1.0], [3.0, 5.0]])
    U = V @ menu.lotteries.T - menu.prices
    assert [U[0, 0], U[1, 1], U[2, 2]] == pytest.approx([1.0, 0.0, 2.0])
    # buyer 1 ties entries 0, 1 and the zero entry, buyer 2 ties entries 0 and 2:
    # the higher price wins each tie
    assert mf.choose_batch(menu, V).tolist() == [0, 0, 2]


def test_utility_dimension_mismatch():
    for menu in (mf.Menu([[0.5, 0.5]], [1.0]), mf.Menu.empty(2)):
        with pytest.raises(mf.DimensionMismatchError):
            mf.choose_batch(menu, [[1.0, 2.0, 3.0]])
        with pytest.raises(mf.DimensionMismatchError):
            mf.revenue_batch(menu, [[1.0, 2.0, 3.0]])


def test_choose_prefers_positive_utility():
    menu = mf.Menu([[1.0, 0.0]], [1.0])
    index, price, _ = _choice(menu, [2.0, 0.0])
    assert index == 0 and price == 1.0


def test_choose_strict_argmax():
    menu = mf.Menu([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])
    assert _choice(menu, [3.0, 0.0])[0] == 0  # utility 2 beats utility 1


def test_choose_tie_break_favors_higher_price():
    # both entries give utility exactly 1 to v=(2,0)
    menu = mf.Menu([[0.5, 0.0], [1.0, 0.0]], [0.0, 1.0])
    index, price, _ = _choice(menu, [2.0, 0.0])
    assert index == 1 and price == 1.0

    # non-tied case from the same family: first entry wins on strict utility
    menu2 = mf.Menu([[1.0, 0.0], [0.5, 0.5]], [1.0, 1.5])
    assert _choice(menu2, [2.0, 1.0])[0] == 0


def test_choose_equal_price_tie_takes_lowest_index():
    menu = mf.Menu([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    assert _choice(menu, [1.0, 1.0])[0] == 0


def test_zero_entry_wins_when_everything_is_negative():
    menu = mf.Menu([[1.0, 0.0]], [1.0])
    assert _choice(menu, [0.5, 0.0]) == (-1, 0.0, 0.0)
    assert mf.revenue_batch(menu, [[0.5, 0.0]]).tolist() == [0.0]


def test_menu_rejects_negative_prices():
    with pytest.raises(mf.ValidationError, match="negative price"):
        mf.Menu([[1.0]], [-1.0])
    with pytest.raises(mf.ValidationError, match="negative price"):
        mf.Menu([[1.0, 0.0], [0.0, 1.0]], [2.0, -1e-12])


def test_menu_copies_its_inputs():
    L, P = np.array([[1.0, 0.0]]), np.array([2.0])
    menu = mf.Menu(L, P)
    L[0, 0], P[0] = 0.5, 3.0  # the caller's arrays stay writable
    assert menu.lotteries.tolist() == [[1.0, 0.0]] and menu.prices.tolist() == [2.0]
    with pytest.raises(ValueError):
        menu.lotteries[0, 0] = 0.5  # the menu's own copies are frozen


def test_revenue_examples():
    menu = mf.Menu([[1.0, 0.0]], [1.0])
    assert mf.revenue_batch(menu, [[2.0, 0.0]])[0] == pytest.approx(1.0)


def test_overfit_lottery_tie_pays():
    # uniform lottery on S at price 1; buyer values S at exactly 1 -> pays 1
    m = 6
    S = np.array([0, 2, 3])
    x = np.zeros(m)
    x[S] = 1.0 / len(S)
    menu = mf.Menu(x[None, :], [1.0])
    v = np.zeros(m)
    v[S] = 1.0
    assert mf.revenue_batch(menu, v[None, :])[0] == pytest.approx(1.0)


def test_expected_revenue_full_surplus_single_point():
    v = np.array([1.0, 3.0])
    d = mf.ExplicitDistribution(v[None, :], np.array([1.0]))
    menu = mf.Menu([[0.0, 1.0]], [3.0])
    assert mf.expected_revenue(menu, d) == pytest.approx(3.0)


def test_expected_revenue_empty_menu_is_zero():
    d = mf.ExplicitDistribution(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([0.5, 0.5]))
    assert mf.expected_revenue(mf.Menu.empty(2), d) == 0.0


def test_menu_from_no_entries_points_to_empty():
    with pytest.raises(mf.ValidationError, match=r"Menu\.empty\(m\)"):
        mf.Menu([], [])


def test_expected_revenue_rejects_unnormalized_weights():
    with pytest.raises(mf.ValidationError):
        mf.ExplicitDistribution(np.array([[1.0]]), np.array([0.5]))
    with pytest.raises(mf.ValidationError, match="non-finite"):
        mf.ExplicitDistribution(np.array([[1.0], [2.0]]), np.array([0.5, np.nan]))


def test_scalar_equal_revenue_single_price_curve():
    # Pr[v = 2^z] = 2^-z for z=1..3 at H=8; single price 2^j earns 2 - 2^(j-3)
    d = mf.scalar_equal_revenue(8.0)
    revs = {}
    for j in (1, 2, 3):
        menu = mf.Menu([[1.0]], [float(2 ** j)])
        revs[j] = mf.expected_revenue(menu, d)
        assert revs[j] == pytest.approx(2.0 - 2.0 ** (j - 3), abs=1e-12)
    assert max(revs.values()) < 2.0


def test_estimate_revenue_constant_sampler():
    d = mf.ExplicitDistribution(np.array([[2.0, 1.0]]), np.array([1.0]))
    sampler = mf.ExplicitSampler(d, seed=0)
    menu = mf.Menu([[1.0, 0.0]], [2.0])
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
    index, price, u = _choice(menu, v)
    utilities = np.append(v @ menu.lotteries.T - menu.prices, 0.0)
    assert u >= utilities.max() - mf.TIE_TOL  # IC: nothing beats the choice
    assert u >= -mf.TIE_TOL and price >= 0.0  # IR
    # tie-break determinism: identical rerun picks the same index
    assert _choice(menu, v)[0] == index


def test_removing_entry_never_raises_utility():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, k = 3, 4
        menu = mf.Menu(rng.dirichlet(np.ones(m), size=k) * 0.9, rng.random(k) * 2)
        v = rng.random(m) * 3
        full = _choice(menu, v)
        sub = mf.Menu(menu.lotteries[1:], menu.prices[1:])
        assert _choice(sub, v)[2] <= full[2] + mf.TIE_TOL


def test_explicit_zero_entry_changes_nothing():
    menu = mf.Menu([[0.6, 0.2]], [1.0])
    with_zero = mf.Menu([[0.6, 0.2], [0.0, 0.0]], [1.0, 0.0])
    V = np.random.default_rng(5).random((100, 2)) * 3
    assert mf.revenue_batch(menu, V).tolist() == mf.revenue_batch(with_zero, V).tolist()


def test_menu_entry_invariant_zero_price_needs_zero_lottery():
    with pytest.raises(mf.ValidationError, match="zero price"):
        mf.Menu([[1.0, 0.0], [0.5, 0.0]], [1.0, 0.0]).validate()
    mf.Menu([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0]).validate()


def test_lottery_invariants():
    for lotteries in ([[0.5, 0.5], [-0.1, 0.5]], [[0.7, 0.7]], [[0.5, np.nan]], [[np.inf, 0.0]]):
        with pytest.raises(mf.ValidationError):
            mf.Menu(lotteries, np.ones(len(lotteries))).validate()
    with pytest.raises(mf.ValidationError, match="non-finite"):
        mf.Menu([[1.0]], [np.nan]).validate()
    mf.Menu([[0.5, 0.5 + 0.5 * core.LOTTERY_MASS_SLACK], [0.0, 0.25]], [1.0, 2.0]).validate()


def _explicit(rows, tag, H=4.0):
    V = np.array(rows, dtype=float)
    return mf.ExplicitDistribution(V, np.full(len(V), 1.0 / len(V)), tag=tag, H=H)


def test_valuation_range_tags():
    _explicit([[0.2, 0.8], [0.0, 1.0]], "unit_interval")
    _explicit([[1.0, 4.0], [2.0, 1.0]], "bounded")
    _explicit([[1.0, 1.0, 4.0]], "monotone")
    _explicit([[0.0, 7.5]], "nonneg")
    for rows, tag in (
        ([[0.2, 0.8], [0.2, 1.5]], "unit_interval"),
        ([[0.5, 2.0]], "bounded"),
        ([[1.0, 4.0], [2.0, 1.5]], "monotone"),
        ([[1.0, 5.0]], "monotone"),
        ([[1.0, -0.5]], "nonneg"),
        ([[1.0, np.nan]], "nonneg"),
        ([[1.0, 2.0]], "integer"),
    ):
        with pytest.raises(mf.ValidationError):
            _explicit(rows, tag)


def test_monotone_sampler_support_validates():
    sampler = mf.MonotoneUniformSampler(5, 8.0, seed=0)
    V = sampler.draw(50, np.random.default_rng(0))
    assert mf.explicit_from_samples(V, tag=sampler.tag, H=sampler.H).tag == "monotone"
    with pytest.raises(mf.ValidationError, match="decreasing"):
        mf.explicit_from_samples(V[:, ::-1], tag=sampler.tag, H=sampler.H)


def test_menu_json_round_trip(tmp_path):
    menu = mf.Menu([[0.25, 0.5], [1.0 / 3.0, 0.0]], [1.125, 0.7])
    path = tmp_path / "menu.json"
    mf.save_menu(menu, path)
    back = mf.load_menu(path)
    assert back == menu  # full round-trip float precision
    raw = json.loads(path.read_text())
    assert raw["m"] == 2 and len(raw["entries"]) == 2


def test_menu_json_rejects_bad_entries(tmp_path):
    path = tmp_path / "bad.json"
    for bad in ({"m": 2, "entries": [{"lottery": [0.5, 0.0], "price": 0.0}]},
                {"m": 0, "entries": [{"lottery": [], "price": 1.0}]},
                {"m": 2, "entries": [{"lottery": [[0.5, 0.0]], "price": 1.0}]}):
        path.write_text(json.dumps(bad))
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


def _fuzz_case(family, rng):
    """A seeded (menu, values) pair of one family; all but "continuous" have exact ties."""
    m, k, n = int(rng.integers(1, 9)), int(rng.integers(1, 300)), int(rng.integers(1, 400))
    if family == "continuous":
        menu = mf.Menu(rng.dirichlet(np.ones(m), size=k) * rng.random((k, 1)), rng.random(k) * 4)
        return menu, rng.random((n, m)) * 4
    if family == "dyadic":
        return _dyadic_menu(rng, k, m, np.arange(1, 25) / 8.0), rng.integers(0, 5, size=(n, m)).astype(float)
    if family == "overfit":
        # uniform lotteries on item sets priced 1 or 2, integer values: the overfit shape
        S = rng.random((k, m)) < 0.5
        S[~S.any(axis=1), 0] = True
        menu = mf.Menu(S / S.sum(axis=1, keepdims=True), rng.choice([1.0, 2.0], size=k))
        return menu, rng.integers(0, 3, size=(n, m)).astype(float)
    # near ties: prices 3e-10 off a tie are inside TIE_TOL, prices 3e-9 off are outside
    base = _dyadic_menu(rng, k, m, [0.5, 1.0, 2.0])
    menu = mf.Menu(base.lotteries, base.prices - rng.choice([3e-10, 0.0, 3e-9], size=k))
    return menu, rng.integers(0, 5, size=(n, m)).astype(float)


@pytest.mark.parametrize("family", ["continuous", "dyadic", "overfit", "near_ties"])
def test_choice_kernel_fuzz_matches_the_loop(family):
    rng = np.random.default_rng(["continuous", "dyadic", "overfit", "near_ties"].index(family))
    for _ in range(25):
        menu, V = _fuzz_case(family, rng)
        idx = mf.choose_batch(menu, V)
        assert idx.tolist() == [_loop_choice(menu, v) for v in V]
        assert mf.revenue_batch(menu, V).tobytes() == np.append(menu.prices, 0.0)[idx].tobytes()


def _shape_case(kind, rng):
    """(menu, top value) for one kernel shape.  Buyers get integer values in
    [0, top], so every utility is exact and ties are exact."""
    if kind == "K1_m1":  # buyers valued exactly at the price tie the zero entry
        return mf.uniform_price_menu(1, 2.0), 3
    if kind == "K5_m5":
        return mf.uniform_price_menu(5, 2.0), 3
    if kind == "K1_m64":  # a uniform lottery at price 1: buyers whose values sum to 64 tie
        return mf.Menu(np.full((1, 64), 1 / 64), [1.0]), 2
    # K = 255 and 256 sit on both sides of the uint8 -> uint16 rank-weight
    # boundary; K = m scores the block in place and K = m + 1 folds the prices in
    k, m = (int(part[1:]) for part in kind.split("_"))
    base = _dyadic_menu(rng, k, m, np.arange(1, 25) / 8.0)
    L, P = np.array(base.lotteries), np.array(base.prices)
    L[0], P[0] = np.eye(m)[0], 4.0  # the top rank weight: the first entry in price order
    return mf.Menu(L, P), 4


@pytest.mark.parametrize("kind", ["K1_m1", "K5_m5", "K1_m64", "K5_m64", "K64_m64", "K65_m64", "K255_m3", "K256_m3"])
def test_choice_kernel_matches_the_loop_at_block_and_weight_boundaries(kind, monkeypatch):
    # smaller blocks keep the m=64 cases small; where a block ends does not depend on its size
    monkeypatch.setattr(core, "_BLOCK_CELLS", 2**13)
    rng = np.random.default_rng(21)
    menu, top = _shape_case(kind, rng)
    block = max(1, core._BLOCK_CELLS // menu.size)
    V = rng.integers(0, top + 1, size=(2 * block + 3, menu.m)).astype(float)
    V[::7] = 0.0
    V[1::11, 0] = 64.0  # these buyers take the first entry in price order
    # integer values and dyadic lotteries make every utility exact, so the choice
    # depends on the row alone and the loop runs once per distinct row
    rows, inverse = np.unique(V, axis=0, return_inverse=True)
    want = np.array([_loop_choice(menu, v) for v in rows], dtype=int)[inverse.ravel()]
    for n in (1, block - 1, block, block + 1, len(V)):
        assert mf.choose_batch(menu, V[:n]).tolist() == want[:n].tolist()
        assert mf.revenue_batch(menu, V[:n]).tobytes() == np.append(menu.prices, 0.0)[want[:n]].tobytes()
    # the top rank weight, the zero entry and at least one other entry are all picked
    assert np.any(want == np.argsort(-menu.prices, kind="stable")[0])
    assert np.any(want == -1) and len(set(want.tolist())) > min(menu.size, 2)


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

    # one entry over many items: one block then holds all the buyers, and a copy
    # of them would take 51 MB; the kernel reads the buyers in place
    n, m = 100_000, 64
    menu = mf.Menu(np.full((1, m), 1 / m), [1.0])
    V = rng.integers(0, 3, size=(n, m)).astype(float)
    tracemalloc.start()
    try:
        mf.choose_batch(menu, V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * m * 8 / 10


@pytest.mark.parametrize("env, pinned", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "4"}, False),
])
def test_blas_counts_as_one_thread_in_openblas_order(monkeypatch, env, pinned):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert core._blas_runs_one_thread() is pinned


@pytest.mark.parametrize("k", [255, 256])
def test_choice_kernel_output_does_not_depend_on_the_worker_count(k, kernel_workers, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_CELLS", 2**13)
    rng = np.random.default_rng(31)
    menu, top = _shape_case(f"K{k}_m3", rng)
    block = max(1, core._BLOCK_CELLS // menu.size)
    V = rng.integers(0, top + 1, size=(40 * block, menu.m)).astype(float)
    V[::7] = 0.0
    V[1::11, 0] = 64.0
    rows, inverse = np.unique(V, axis=0, return_inverse=True)
    want = np.array([_loop_choice(menu, v) for v in rows], dtype=int)[inverse.ravel()]
    # 3 blocks split unevenly between 2 workers and 4 blocks among 3; 40 blocks keep every worker busy
    sizes = (0, 1, block - 1, block, block + 1, 2 * block + 3, 3 * block + 1, len(V))
    outputs = {}
    # a short switch interval makes the workers interleave their block claims often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            kernel_workers(workers)
            outputs[workers] = [(mf.choose_batch(menu, V[:n]).tobytes(), mf.revenue_batch(menu, V[:n]).tobytes())
                                for n in sizes]
    finally:
        sys.setswitchinterval(interval)
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    for n, (idx, pay) in zip(sizes, outputs[1]):
        assert idx == want[:n].tobytes()
        assert pay == np.append(menu.prices, 0.0)[want[:n]].tobytes()


def _kernel_peak_within_two_workers():
    """Whether scoring 50k buyers at K=200 holds at most the output, two
    workers' block buffers and a small slack (``tracemalloc`` peak)."""
    rng = np.random.default_rng(3)
    n, k, m = 50_000, 200, 5
    menu = mf.Menu(rng.dirichlet(np.ones(m), size=k) * 0.9, rng.random(k) * 4)
    V = rng.random((n, m)) * 4
    mf.choose_batch(menu, V[:10_000])  # the pool and its thread exist before tracing starts
    tracemalloc.start()
    try:
        mf.choose_batch(menu, V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = core._BLOCK_CELLS // k
    # per worker: float64 utilities, a bool mask and uint8 rank weights per cell,
    # plus a float64 best utility, a uint8 top weight and, as K > m folds the
    # prices into the product, a float64 value block of m + 1 values per row
    buffers = k * rows * (8 + 1 + 1) + rows * (8 + 1 + (m + 1) * 8)
    # the slack covers the menu's sorted, folded copy and NumPy's iterator buffers
    # (64 KB each) for the broadcasting ufunc each worker runs
    return peak < n * 8 + 2 * buffers + 256 * 1024


def test_choice_kernel_memory_is_one_set_of_block_buffers_per_worker(kernel_workers):
    kernel_workers(2)
    assert _kernel_peak_within_two_workers()


def test_choice_kernel_memory_does_not_grow_with_the_host_cpu_count(kernel_workers, monkeypatch):
    # at the cap of two workers, a wide affinity mask still gets the calling thread and one pool thread
    kernel_workers(2)
    monkeypatch.setattr(core, "_cpus", lambda: 64)
    assert _kernel_peak_within_two_workers()


def _score_in_child(conn, menu, V):
    dropped = core._pool is None
    conn.send((dropped, mf.choose_batch(menu, V), core._pool is not None))
    conn.close()


def test_choice_kernel_runs_in_a_child_forked_after_the_pool_was_used(kernel_workers):
    rng = np.random.default_rng(5)
    menu = _dyadic_menu(rng, 200, 3, np.arange(1, 25) / 8.0)
    V = rng.integers(0, 5, size=(10 * (core._BLOCK_CELLS // 200), 3)).astype(float)
    kernel_workers(2)
    want = mf.choose_batch(menu, V)
    assert core._pool is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_score_in_child, args=(send, menu, V))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child did not return its choices"
        dropped, got, pooled = recv.recv()
        child.join(60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    # the child started without its parent's pool, made its own and got the parent's answer
    assert dropped and pooled
    assert got.tobytes() == want.tobytes()
