"""Samplers and parametric families: determinism, laws, class invariants."""

import numpy as np
import pytest

import menuforge as mf
from menuforge.distributions import _draw_scales, floyd_subset


def test_explicit_from_samples_keeps_duplicates():
    d = mf.explicit_from_samples([[1.0, 2.0]])
    assert d.n == 1 and d.weights[0] == 1.0
    d2 = mf.explicit_from_samples([[1.0, 2.0], [1.0, 2.0]])
    assert d2.n == 2
    np.testing.assert_allclose(d2.weights, [0.5, 0.5])


def test_explicit_from_samples_matches_per_sample_mean():
    sampler = mf.OverfitProductSampler(mf.OverfitProductParams(16, 0.2), seed=3)
    V = sampler.draw(200)
    d = mf.explicit_from_samples(V)
    assert d.n == 200
    menu = mf.uniform_price_menu(16, 1.0)
    per_sample = mf.revenue_batch(menu, V)
    assert mf.expected_revenue(menu, d) == pytest.approx(per_sample.mean(), abs=1e-12)


def test_consolidated_merges_exact_duplicates():
    d = mf.explicit_from_samples([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]])
    c = d.consolidated()
    assert c.n == 2
    assert c.weights.sum() == pytest.approx(1.0)
    menu = mf.uniform_price_menu(2, 2.0)
    assert mf.expected_revenue(menu, c) == pytest.approx(mf.expected_revenue(menu, d), abs=1e-12)


def test_sampler_determinism_per_family():
    makers = [
        lambda s: mf.OverfitProductSampler(mf.OverfitProductParams(8, 0.2), s),
        lambda s: mf.EqualRevenueSpreadSampler(mf.EqualRevenueSpreadParams(9, 8.0), s),
        lambda s: mf.MonotoneUniformSampler(5, 4.0, s),
        lambda s: mf.ExplicitSampler(mf.scalar_equal_revenue(8.0), s),
    ]
    for make in makers:
        a = make(42).draw(50)
        b = make(42).draw(50)
        np.testing.assert_array_equal(a, b)


def test_overfit_params_validation():
    with pytest.raises(mf.ValidationError):
        mf.OverfitProductParams(8, 0.6)
    with pytest.raises(mf.ValidationError):
        mf.OverfitProductParams(8, 0.0)


def test_overfit_sampler_law():
    m, delta, n = 16, 0.1, 100_000
    V = mf.OverfitProductSampler(mf.OverfitProductParams(m, delta), seed=5).draw(n)
    assert set(np.unique(V)) <= {0.0, 1.0, 2.0}
    ones = (V == 1.0).mean(axis=0)
    # per-coordinate frequency of value 1 within 4 sigma of delta
    sigma = np.sqrt(delta * (1 - delta) / n)
    assert np.all(np.abs(ones - delta) < 4 * sigma + 1e-12)
    support_sizes = (V >= 1.0).sum(axis=1)
    expected = m * (delta + delta / m)
    assert abs(support_sizes.mean() - expected) < 0.05


def test_equal_revenue_sampler_degenerate_h2():
    params = mf.EqualRevenueSpreadParams(9, 2.0)
    V = mf.EqualRevenueSpreadSampler(params, 1).draw(500)
    assert set(np.unique(V)) == {1.0, 2.0}
    assert np.all((V == 2.0).sum(axis=1) == 3)


def test_equal_revenue_scale_law():
    params = mf.EqualRevenueSpreadParams(9, 8.0)
    sampler = mf.EqualRevenueSpreadSampler(params, 7)
    _, _, z = sampler.draw_with_meta(100_000)
    freq1 = (z == 1).mean()
    assert abs(freq1 - 0.5) < 0.01
    freq3 = (z == 3).mean()  # 2^-3 plus the residual 2^-3
    assert abs(freq3 - 0.25) < 0.01


def test_equal_revenue_off_set_values_are_one():
    params = mf.EqualRevenueSpreadParams(12, 4.0)
    sampler = mf.EqualRevenueSpreadSampler(params, 3)
    V, sets, z = sampler.draw_with_meta(200)
    for i in range(200):
        on = np.zeros(12, dtype=bool)
        on[sets[i]] = True
        assert np.all(V[i, ~on] == 1.0)
        assert np.all(V[i, on] == 2.0 ** z[i])


def test_draw_scales_residual_at_top():
    rng = np.random.default_rng(0)
    z = _draw_scales(rng, 1, 1000)
    assert np.all(z == 1)


def test_floyd_subset_is_uniformish_and_sized():
    rng = np.random.default_rng(0)
    counts = np.zeros(6)
    for _ in range(6000):
        s = floyd_subset(rng, 6, 2)
        assert len(s) == 2 and len(set(s.tolist())) == 2
        counts[s] += 1
    # every element appears with frequency near 2/6
    np.testing.assert_allclose(counts / 6000, np.full(6, 2 / 6), atol=0.03)


def test_sparse_subsample_single_point():
    params = mf.EqualRevenueSpreadParams(9, 4.0)
    d = mf.sparse_subsample(params, 1, seed=0)
    assert d.n == 1 and "sets" in d.meta and "z" in d.meta


def test_sparse_subsample_property_holds_when_it_returns():
    params = mf.EqualRevenueSpreadParams(30, 8.0)
    for seed in range(5):
        d = mf.sparse_subsample(params, 20, seed=seed)
        sets = d.meta["sets"]
        assert d.n == 20 and sets.shape == (20, 10)
        for i in range(d.n):
            on = np.zeros(30, dtype=bool)
            on[sets[i]] = True
            assert np.all(d.values[i, on] == 2.0 ** d.meta["z"][i]) and np.all(d.values[i, ~on] == 1.0)
            for j in range(i + 1, d.n):
                assert len(set(sets[i].tolist()) & set(sets[j].tolist())) < 30 / 6


def test_sparse_subsample_per_point_reaches_larger_k():
    # at m=6 the threshold 1 asks for pairwise-disjoint 2-sets, and at most 3 exist
    params = mf.EqualRevenueSpreadParams(6, 8.0)
    d = mf.sparse_subsample(params, 3, seed=0)
    assert sorted(d.meta["sets"].ravel().tolist()) == list(range(6))
    with pytest.raises(mf.IntersectionPropertyError):
        mf.sparse_subsample(params, 4, seed=0)


def test_sparse_subsample_is_deterministic_per_seed():
    params = mf.EqualRevenueSpreadParams(30, 8.0)
    a, b = mf.sparse_subsample(params, 20, seed=7), mf.sparse_subsample(params, 20, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.meta["sets"], b.meta["sets"])
    np.testing.assert_array_equal(a.meta["z"], b.meta["z"])


def test_sparse_subsample_reports_infeasibility():
    params = mf.EqualRevenueSpreadParams(30, 8.0)
    with pytest.raises(mf.IntersectionPropertyError):
        mf.sparse_subsample(params, 60, seed=0)


def test_expected_max_value():
    d = mf.ExplicitDistribution(np.array([[1.0, 3.0]]), np.array([1.0]))
    assert mf.expected_max_value(d) == 3.0
    H = 16.0
    d2 = mf.ExplicitDistribution(np.array([[1.0, 1.0], [1.0, H]]), np.array([0.5, 0.5]))
    assert mf.expected_max_value(d2) == pytest.approx((1 + H) / 2)
    inst = mf.HittingSetInstance(((0,), (1, 2)), m=3, H=4.0)
    assert mf.expected_max_value(mf.hitting_set_valuations(inst)) == pytest.approx(4.0)


def test_hitting_set_valuations_examples():
    inst = mf.HittingSetInstance(((0,),), m=2, H=4.0)
    d = mf.hitting_set_valuations(inst)
    np.testing.assert_allclose(d.values, [[4.0, 1.0]])
    inst2 = mf.HittingSetInstance(((0,), (1,)), m=2, H=3.0)
    d2 = mf.hitting_set_valuations(inst2)
    np.testing.assert_allclose(d2.values, [[3.0, 1.0], [1.0, 3.0]])
    singletons = mf.HittingSetInstance(tuple((i,) for i in range(5)), m=5, H=2.0)
    d3 = mf.hitting_set_valuations(singletons)
    assert d3.n == 5
    assert np.all((d3.values == 2.0).sum(axis=1) == 1)


def test_hitting_set_text_round_trip(tmp_path):
    inst = mf.HittingSetInstance(((0, 2), (1,), (0, 1, 3)), m=4, H=8.0)
    path = tmp_path / "hs.txt"
    mf.save_hitting_set(inst, path)
    assert path.read_text().splitlines()[0] == "4 3"
    back = mf.load_hitting_set(path, H=8.0)
    assert back.sets == inst.sets and back.m == 4


def test_monotone_sampler_invariants():
    sampler = mf.MonotoneUniformSampler(6, 4.0, seed=2)
    V = sampler.draw(10_000)
    assert np.all(np.diff(V, axis=1) >= 0)
    assert V.min() >= 1.0 and V.max() <= 4.0
    # max of m uniforms on [1, H]: mean 1 + (H-1) m/(m+1)
    expected_top = 1 + 3.0 * 6 / 7
    assert abs(V[:, -1].mean() - expected_top) < 0.03
    ones = mf.MonotoneUniformSampler(5, 1.0, seed=0).draw(10)
    np.testing.assert_allclose(ones, 1.0)


def test_family_invariants_fuzz():
    # every family emits class-valid draws, checked over 10^4 draws each
    n = 10_000
    V = mf.OverfitProductSampler(mf.OverfitProductParams(10, 0.3), 0).draw(n)
    assert np.all((V == 0) | (V == 1) | (V == 2))
    params = mf.EqualRevenueSpreadParams(9, 8.0)
    V2, sets, z = mf.EqualRevenueSpreadSampler(params, 0).draw_with_meta(n)
    assert np.all(V2 >= 1.0) and np.all(V2 <= 8.0)
    assert np.all((z >= 1) & (z <= 3))
    assert sets.shape == (n, 3)
    V3 = mf.MonotoneUniformSampler(4, 8.0, 0).draw(n)
    assert np.all(np.diff(V3, axis=1) >= 0) and V3.min() >= 1.0 and V3.max() <= 8.0


def test_distribution_json_round_trips():
    d = mf.scalar_equal_revenue(4.0)
    back = mf.distribution_from_json(d.to_json_dict())
    np.testing.assert_array_equal(back.values, d.values)
    np.testing.assert_array_equal(back.weights, d.weights)

    samp = mf.OverfitProductSampler(mf.OverfitProductParams(6, 0.2), seed=9)
    spec = mf.distribution_to_json(samp)
    samp2 = mf.distribution_from_json(spec)
    np.testing.assert_array_equal(samp.draw(20), samp2.draw(20))
