"""Seeding and sample use of the desk-scale experiments."""

import numpy as np

import menuforge as mf
from menuforge import pipeline


def test_overfit_fresh_draws_are_not_the_next_seeds_sample(monkeypatch):
    draws = []
    original = mf.OverfitProductSampler.draw

    def recording_draw(self, n, rng=None):
        V = original(self, n, rng)
        draws.append(V)
        return V

    monkeypatch.setattr(mf.OverfitProductSampler, "draw", recording_draw)
    sample_n = 50
    runs = {}
    for seed in range(4):
        draws.clear()
        mf.overfit_experiment(8, 0.3, sample_n, 500, seed, include_lp=False)
        runs[seed] = tuple(draws)  # (fitting sample, fresh draws)
    for seed in range(3):
        _, fresh = runs[seed]
        next_sample, _ = runs[seed + 1]
        assert not np.array_equal(fresh[:sample_n], next_sample)
    for seed in range(4):
        sample, fresh = runs[seed]
        assert not np.array_equal(fresh[:sample_n], sample)


def test_overfit_lp_fits_the_whole_sample(monkeypatch):
    seen = []
    original = pipeline.build_lp

    def recording_build_lp(dist):
        seen.append(dist)
        return original(dist)

    monkeypatch.setattr(pipeline, "build_lp", recording_build_lp)
    m, delta, sample_n, seed = 8, 0.3, 260, 5
    mf.overfit_experiment(m, delta, sample_n, 100, seed)
    S = mf.OverfitProductSampler(mf.OverfitProductParams(m, delta), seed).draw(
        sample_n, np.random.default_rng(seed)
    )
    whole = mf.explicit_from_samples(S).consolidated()
    (dist,) = seen
    assert np.array_equal(dist.values, whole.values)
    assert np.array_equal(dist.weights, whole.weights)


def test_item_pricing_from_samples_picks_the_baseline_menu_on_its_draws():
    for seed in range(3):
        sampler = mf.MonotoneUniformSampler(4, 8.0, seed=0)
        menu = mf.item_pricing_from_samples(sampler, 8.0, 500, seed)
        V = sampler.draw(500, np.random.default_rng(seed))
        want, _ = mf.item_pricing_baseline(mf.explicit_from_samples(V), H=8.0)
        assert menu == want
        prices = mf.doubling_prices(8.0)
        means = [mf.revenue_batch(mf.uniform_price_menu(4, p), V).mean() for p in prices]
        assert menu == mf.uniform_price_menu(4, prices[int(np.argmax(means))])


def test_naive_overfit_menu_sells_items_at_2_and_each_unit_support_at_1():
    samples = [
        [1.0, 0.0, 1.0],
        [2.0, 1.0, 0.0],  # a 2-valued item: no lottery
        [0.0, 0.0, 0.0],  # an empty support: no lottery
        [1.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],  # a repeated type keeps its own entry
    ]
    menu = mf.naive_overfit_menu(samples)
    third = 1.0 / 3.0
    want_L = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0, 0.5], [third, third, third], [0.5, 0, 0.5]]
    assert menu.lotteries.tolist() == want_L
    assert menu.prices.tolist() == [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]
    # on its own sample each type pays its largest item value
    assert mf.revenue_batch(menu, np.array(samples)).tolist() == [1.0, 2.0, 0.0, 1.0, 1.0]
    # one type given as a vector, and a sample with no lottery
    assert mf.naive_overfit_menu([0.0, 1.0]).lotteries.tolist() == [[1, 0], [0, 1], [0, 1]]
    assert mf.naive_overfit_menu([[2.0, 1.0]]) == mf.Menu(np.eye(2), [2.0, 2.0])
