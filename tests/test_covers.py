"""Cover grids and their rounding maps: examples, exact invariants, and the
two-sided inequality suites."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menuforge as mf
from menuforge import covers
from menuforge.covers import CoverSpec


def _random_lotteries(rng, n, m):
    # partial lotteries with a spread of total masses and magnitudes
    x = rng.dirichlet(np.ones(m), size=n) * rng.random((n, 1))
    sparse = rng.random((n, m)) < 0.3
    x[sparse] *= rng.random((sparse.sum(),)) * 1e-3  # exercise the zero floor
    return x


def test_additive_round_examples():
    spec = CoverSpec("additive", 0.5, 2)
    on_grid = np.array([0.25, 0.5])
    np.testing.assert_array_equal(mf.round_lottery(on_grid, spec), on_grid)
    np.testing.assert_allclose(mf.round_lottery([0.3, 0.3], spec), [0.25, 0.25])


def test_additive_guarantee_fuzz():
    rng = np.random.default_rng(0)
    for eps in (0.05, 0.2, 0.5):
        for m in (1, 2, 5):
            spec = CoverSpec("additive", eps, m)
            x = _random_lotteries(rng, 2000, m)
            y = np.array([mf.round_lottery(row, spec) for row in x])
            v = rng.random((2000, m))
            gaps = np.abs((v * x).sum(axis=1) - (v * y).sum(axis=1))
            assert gaps.max() <= eps + 1e-12


def test_multiplicative_round_examples():
    spec = CoverSpec("multiplicative", 0.2, 4, H=8.0)
    floor = 0.2 / (8.0 * 4)
    assert mf.round_lottery(np.array([0.5 * floor, 0, 0, 0]), spec)[0] == 0.0
    point = (1 - 0.2) ** 3
    out = mf.round_lottery(np.array([point, 0, 0, 0]), spec)
    assert out[0] == point  # closed round-down fixes grid points


def test_enumerate_additive_m1():
    enum = mf.enumerate_cover(CoverSpec("additive", 0.5, 1))
    assert enum.count == 3
    np.testing.assert_allclose(sorted(enum.lotteries.ravel()), [0.0, 0.5, 1.0])


def test_enumerate_multiplicative_m1():
    enum = mf.enumerate_cover(CoverSpec("multiplicative", 0.5, 1, H=2.0))
    assert enum.count == 4
    np.testing.assert_allclose(sorted(enum.lotteries.ravel()), [0.0, 0.25, 0.5, 1.0])


def test_enumerate_monotone_small():
    enum = mf.enumerate_cover(CoverSpec("monotone_tail", 0.5, 2, H=2.0))
    # nonincreasing pairs over {1, .5, .25, 0}
    assert enum.count == math.comb(4 + 1, 2)
    mf.Menu(enum.lotteries, np.ones(enum.count))  # the constructor checks each lottery


def test_enumerate_count_only_past_budget():
    enum = mf.enumerate_cover(CoverSpec("additive", 0.05, 6))
    assert enum.lotteries is None
    assert enum.count == math.comb(120 + 6, 6)
    assert enum.exact_count


def _loop_enumerate_cover(spec):
    """The one-by-one loops that ``enumerate_cover`` replaced, as the
    reference for its lists: nonincreasing tail tuples for the monotone
    grid, else every coordinate product with mass at most 1 + 1e-12."""
    vals = covers.grid_values(spec)
    if spec.kind == "monotone_tail":
        return np.array([mf.from_tail_form(np.array(t))
                         for t in itertools.combinations_with_replacement(vals, spec.m)])
    out = [np.array(c) for c in itertools.product(vals, repeat=spec.m)]
    return np.array([x for x in out if x.sum() <= 1.0 + 1e-12])


def test_enumerate_cover_lists_what_the_loops_listed():
    specs = [
        CoverSpec(kind, eps, m, H=H)
        for kind in covers.COVER_KINDS
        for eps in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
        for m in (1, 2, 3, 4, 8)
        for H in (1.0, 2.0, 8.0)
        if not (kind == "additive" and H > 1.0)
    ]
    specs = [s for s in specs if len(covers.grid_values(s)) ** s.m <= 20_000]
    assert len(specs) > 100
    for spec in specs:
        enum = mf.enumerate_cover(spec)
        want = _loop_enumerate_cover(spec)
        assert enum.lotteries.shape == want.shape and enum.count == len(want), spec
        assert enum.lotteries.tobytes() == want.tobytes(), spec


@pytest.mark.parametrize("kind", covers.COVER_KINDS)
def test_enumerate_cover_counts_without_building_the_grid(kind):
    # the grids hold 2e5 (additive) and over 1.1e6 values at epsilon 1e-5
    spec = CoverSpec(kind, 1e-5, 2, H=4.0)
    tracemalloc.start()
    try:
        enum = mf.enumerate_cover(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert enum.lotteries is None and peak < 1_000_000
    size = len(covers.grid_values(spec))
    assert enum.count == (size ** 2 if kind == "multiplicative" else math.comb(size + 1, 2))


@pytest.mark.parametrize("kind, m", [("multiplicative", 100_000), ("additive", 20_000)])
def test_a_count_too_long_to_print_raises_naming_the_cover(kind, m):
    with pytest.raises(mf.ValidationError) as exc:
        mf.enumerate_cover(CoverSpec(kind, 0.5, m, H=2.0))
    message = str(exc.value)
    for part in (kind, "epsilon=0.5", f"m={m}", f"{covers.MAX_COUNT_DIGITS} that can be printed"):
        assert part in message, part


@pytest.mark.parametrize("kind", covers.COVER_KINDS)
def test_the_longest_printable_count_stays_exact(kind):
    # the largest m whose count has at most MAX_COUNT_DIGITS digits, found
    # by integer comparison, is counted exactly; one more m raises
    def count(m):
        spec = CoverSpec(kind, 0.5, m, H=2.0)
        size = len(covers.grid_values(spec))
        return size ** m if kind == "multiplicative" else math.comb(size + m - 1, m)

    limit = 10 ** covers.MAX_COUNT_DIGITS
    lo, hi = 1, 2
    while count(hi) < limit:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if count(mid) < limit else (lo, mid)
    enum = mf.enumerate_cover(CoverSpec(kind, 0.5, lo, H=2.0))
    assert enum.lotteries is None and enum.count == count(lo)
    with pytest.raises(mf.ValidationError, match=f"m={hi} "):
        mf.enumerate_cover(CoverSpec(kind, 0.5, hi, H=2.0))


def test_round_outputs_live_in_enumerated_cover():
    rng = np.random.default_rng(1)
    for kind, H in (("additive", 1.0), ("multiplicative", 2.0), ("monotone_tail", 2.0)):
        spec = CoverSpec(kind, 0.5, 2, H=H)
        cover = mf.enumerate_cover(spec).lotteries
        x = _random_lotteries(rng, 1000, 2)
        y = np.array([mf.round_lottery(row, spec) for row in x])
        for row in y:
            assert np.any(np.all(np.isclose(cover, row, atol=0, rtol=0), axis=1)), row


def test_idempotence_all_kinds():
    rng = np.random.default_rng(2)
    for kind in ("additive", "multiplicative", "monotone_tail"):
        for eps, H in ((0.05, 2.0), (0.2, 16.0), (0.5, 16.0)):
            spec = CoverSpec(kind, eps, 4, H=H)
            x = _random_lotteries(rng, 500, 4)
            once = mf.round_lottery(x, spec)
            twice = mf.round_lottery(once, spec)
            np.testing.assert_array_equal(once, twice)


def test_dominance_exact():
    rng = np.random.default_rng(3)
    for kind in ("additive", "multiplicative"):
        spec = CoverSpec(kind, 0.2, 3, H=4.0)
        x = _random_lotteries(rng, 1000, 3)
        y = mf.round_lottery(x, spec)
        assert np.all(y <= x)
    spec = CoverSpec("monotone_tail", 0.2, 3, H=4.0)
    x = _random_lotteries(rng, 1000, 3)
    y = mf.round_lottery(x, spec)
    assert np.all(mf.to_tail_form(y) <= mf.to_tail_form(x) + 1e-15)


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "monotone_tail"])
@pytest.mark.parametrize("x", [[np.nan, 0.5], [-0.5, 0.5], [0.9, 0.9]])
def test_round_lottery_rejects_a_non_lottery(kind, x):
    with pytest.raises(mf.ValidationError, match="lottery"):
        mf.round_lottery(np.array(x), CoverSpec(kind, 0.1, 2, 4.0))


def test_round_lottery_is_the_only_public_rounding_map():
    # round_lottery checks its input; a public per-kind map would skip that check
    for name in ("additive_round", "multiplicative_round", "monotone_tail_round"):
        assert not hasattr(mf, name) and not hasattr(covers, name), name


def test_rounded_outputs_are_valid_lotteries():
    rng = np.random.default_rng(4)
    for kind in ("additive", "multiplicative", "monotone_tail"):
        spec = CoverSpec(kind, 0.05, 5, H=16.0)
        mf.Menu(mf.round_lottery(_random_lotteries(rng, 300, 5), spec), np.ones(300))


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("H", [2.0, 16.0])
def test_multiplicative_cover_inequalities(eps, H):
    rng = np.random.default_rng(int(eps * 100) + int(H))
    n = 2500
    for m in (1, 3, 8):
        spec = CoverSpec("multiplicative", eps, m, H=H)
        x = _random_lotteries(rng, n, m)
        y = mf.round_lottery(x, spec)
        v = 1.0 + (H - 1.0) * rng.random((n, m))
        vx = (v * x).sum(axis=1)
        vy = (v * y).sum(axis=1)
        assert np.all(vx - vy >= -1e-12)                      # x.v >= x~.v
        assert np.all(vy - ((1 - eps) * vx - eps) >= -1e-12)  # x~.v >= (1-eps) x.v - eps


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("H", [2.0, 16.0])
def test_monotone_cover_inequalities(eps, H):
    rng = np.random.default_rng(1000 + int(eps * 100) + int(H))
    n = 2500
    for m in (1, 3, 8):
        spec = CoverSpec("monotone_tail", eps, m, H=H)
        x = _random_lotteries(rng, n, m)
        y = np.array([mf.round_lottery(row, spec) for row in x])
        v = np.sort(1.0 + (H - 1.0) * rng.random((n, m)), axis=1)
        vx = (v * x).sum(axis=1)
        vy = (v * y).sum(axis=1)
        assert np.all(vx - vy >= -1e-12)
        assert np.all(vy - ((1 - eps) * vx - eps) >= -1e-12)
        # the draft-direction bound follows from dominance and is logged only:
        # x.v >= (1-eps) x~.v - eps is implied by vy <= vx


def test_monotone_round_preserves_monotone_tails():
    rng = np.random.default_rng(5)
    spec = CoverSpec("monotone_tail", 0.2, 6, H=8.0)
    x = _random_lotteries(rng, 500, 6)
    y = mf.round_lottery(x, spec)
    tails = mf.to_tail_form(y)
    assert np.all(np.diff(tails, axis=1) <= 1e-15)
    assert np.all(y >= 0)


def test_tails_below_floor_map_to_zero():
    spec = CoverSpec("monotone_tail", 0.5, 3, H=2.0)
    x = np.array([0.1, 0.05, 0.05])  # tails (0.2, 0.1, 0.05); floor eps/H = 0.25
    np.testing.assert_array_equal(mf.round_lottery(x, spec), np.zeros(3))


def test_mass_on_last_item_is_fixed_point():
    spec = CoverSpec("monotone_tail", 0.2, 4, H=8.0)
    x = np.array([0.0, 0.0, 0.0, 1.0])  # tails all 1, and 1 is on the grid
    np.testing.assert_array_equal(mf.round_lottery(x, spec), x)


def test_paper_size_envelopes_hold():
    for kind, eps, H in (
        ("additive", 0.5, 1.0),
        ("additive", 0.2, 1.0),
        ("multiplicative", 0.5, 2.0),
        ("multiplicative", 0.2, 16.0),
        ("monotone_tail", 0.5, 2.0),
        ("monotone_tail", 0.2, 16.0),
    ):
        for m in (2, 3):
            spec = CoverSpec(kind, eps, m, H=H)
            enum = mf.enumerate_cover(spec)
            assert enum.exact_count or enum.lotteries is None
            count = enum.count
            assert count <= mf.paper_count_envelope(spec), (kind, eps, H, m)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_grid_fixed_points_random(seed):
    rng = np.random.default_rng(seed)
    eps = float(rng.choice([0.05, 0.2, 0.5]))
    spec = CoverSpec("multiplicative", eps, 3, H=4.0)
    t = rng.integers(0, 10, size=3).astype(float)
    x = (1 - eps) ** t
    x = x / max(1.0, x.sum())  # keep it a lottery; scaling may leave the grid
    y = mf.round_lottery(x, spec)
    np.testing.assert_array_equal(mf.round_lottery(y, spec), y)
