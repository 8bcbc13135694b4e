"""Samplers and parametric families: determinism, laws, class invariants."""

import json
import tracemalloc

import numpy as np
import pytest

import menuforge as mf
from menuforge import core
from menuforge.distributions import _draw_scales, _uniform_k_sets


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


def test_uniform_k_sets_are_sorted_distinct_and_uniform_over_pairs():
    n = 15000
    sets = _uniform_k_sets(np.random.default_rng(0), n, 6, 2)
    assert sets.shape == (n, 2)
    assert np.all(sets[:, 0] < sets[:, 1])  # sorted, hence distinct
    assert sets.min() >= 0 and sets.max() < 6
    freq = np.bincount(sets[:, 0] * 6 + sets[:, 1], minlength=36) / n
    pairs = [a * 6 + b for a in range(6) for b in range(a + 1, 6)]
    # each of the C(6, 2) = 15 pairs has frequency 1/15, within 4 sigma
    p = 1 / 15
    np.testing.assert_allclose(freq[pairs], p, atol=4 * np.sqrt(p * (1 - p) / n))


def test_draw_with_meta_draws_z_first():
    params = mf.EqualRevenueSpreadParams(12, 16.0)
    V, sets, z = mf.EqualRevenueSpreadSampler(params, 0).draw_with_meta(500, np.random.default_rng(7))
    np.testing.assert_array_equal(z, _draw_scales(np.random.default_rng(7), params.levels, 500))
    assert V.shape == (500, 12) and sets.shape == (500, params.k)


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



def _replaced(spec, path, value):
    """A copy of a JSON description with the field at ``path`` set to ``value``."""
    spec = json.loads(json.dumps(spec))
    obj = spec
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return spec


@pytest.mark.parametrize("spec, path", [
    ({"type": "monotone_uniform", "params": {"m": 3, "H": 4.0}}, ("params", "m")),
    ({"type": "monotone_uniform", "params": {"m": 3, "H": 4.0}, "seed": 0}, ("seed",)),
    ({"type": "sparse_subsample", "params": {"m": 6, "H": 4.0, "K": 1}}, ("params", "K")),
    ({"type": "hitting_set", "params": {"m": 3, "H": 4.0, "sets": [[0, 1]]}}, ("params", "sets", 0, 1)),
])
def test_distribution_json_counts_must_be_integral(spec, path):
    mf.distribution_from_json(_replaced(spec, path, 2.0))  # an integral number reads as an int
    for bad in (2.5, True, "2"):
        with pytest.raises(mf.ValidationError, match="not an integer"):
            mf.distribution_from_json(_replaced(spec, path, bad))


@pytest.mark.parametrize("spec, path", [
    ({"type": "monotone_uniform", "params": {"m": 3, "H": 4.0}}, ("params", "H")),
    ({"type": "overfit", "params": {"m": 3, "delta": 0.2}}, ("params", "delta")),
    ({"type": "equal_revenue", "params": {"m": 6, "H": 4.0}}, ("params", "H")),
    ({"type": "sparse_subsample", "params": {"m": 6, "H": 4.0, "K": 1}}, ("params", "H")),
    ({"type": "hitting_set", "params": {"m": 3, "H": 4.0, "sets": [[0, 1]]}}, ("params", "H")),
    ({"type": "explicit", "params": {"support": [[1.0, 2.0]], "weights": [1.0], "H": 4.0}}, ("params", "H")),
    ({"type": "explicit", "params": {"support": [[1.0, 2.0]], "weights": [1.0]}}, ("params", "support", 0, 1)),
    ({"type": "explicit", "params": {"support": [[1.0, 2.0]], "weights": [1.0]}}, ("params", "weights", 0)),
])
def test_distribution_json_numbers_must_be_finite_numbers(spec, path):
    mf.distribution_from_json(spec)
    for bad in (True, "2.5", float("nan"), float("inf")):
        with pytest.raises(mf.ValidationError, match="not a number|non-finite"):
            mf.distribution_from_json(_replaced(spec, path, bad))


def _whole_batch_overfit(rng, n, m, delta):
    u = rng.random((n, m))
    V = np.zeros((n, m))
    V[u < delta / m + delta] = 1.0
    V[u < delta / m] = 2.0
    return V


def _whole_batch_k_sets(rng, n, m, k):
    return np.sort(rng.random((n, m)).argsort(axis=1)[:, :k], axis=1)


def _whole_batch_spread(rng, n, params):
    z = _draw_scales(rng, params.levels, n)
    sets = _whole_batch_k_sets(rng, n, params.m, params.k)
    V = np.ones((n, params.m))
    V[np.arange(n)[:, None], sets] = 2.0 ** z[:, None]
    return V, sets, z


def _whole_batch_monotone(rng, n, m, H):
    V = 1.0 + (H - 1.0) * rng.random((n, m))
    V.sort(axis=1)
    return V


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_blocked_draws_match_the_whole_batch_formulas(monkeypatch):
    # small blocks put several block ends inside each batch; where a block ends
    # does not depend on its size
    monkeypatch.setattr(core, "_BLOCK_CELLS", 2**10)
    overfit = mf.OverfitProductParams(64, 0.1)
    spread = mf.EqualRevenueSpreadParams(30, 8.0)
    for m in (64, 30, 5):
        block = core._BLOCK_CELLS // m
        for n in (1, block - 1, block, block + 1, 2 * block + 3):
            if m == 64:
                got = mf.OverfitProductSampler(overfit, 0).draw(n, np.random.default_rng(n))
                _same_bytes(got, _whole_batch_overfit(np.random.default_rng(n), n, 64, 0.1))
            if m == 30:
                got = mf.EqualRevenueSpreadSampler(spread, 0).draw_with_meta(n, np.random.default_rng(n))
                for a, b in zip(got, _whole_batch_spread(np.random.default_rng(n), n, spread)):
                    _same_bytes(a, b)
                for k in (1, 10, 30):
                    got = _uniform_k_sets(np.random.default_rng(n), n, 30, k)
                    _same_bytes(got, _whole_batch_k_sets(np.random.default_rng(n), n, 30, k))
            if m == 5:
                got = mf.MonotoneUniformSampler(5, 8.0, 0).draw(n, np.random.default_rng(n))
                _same_bytes(got, _whole_batch_monotone(np.random.default_rng(n), n, 5, 8.0))


def test_sparse_subsample_does_not_depend_on_the_block_size(monkeypatch):
    params = mf.EqualRevenueSpreadParams(30, 8.0)
    want = mf.sparse_subsample(params, 20, seed=3)
    # one row per block: every candidate block of up to 64 sets is split
    monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
    got = mf.sparse_subsample(params, 20, seed=3)
    _same_bytes(got.values, want.values)
    _same_bytes(got.meta["sets"], want.meta["sets"])
    _same_bytes(got.meta["z"], want.meta["z"])


def _peak_bytes(draw):
    tracemalloc.start()
    try:
        out = draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


def test_sampler_draws_hold_their_output_plus_one_block():
    n = 100_000
    cases = [
        lambda: mf.OverfitProductSampler(mf.OverfitProductParams(64, 0.1), 0).draw(n),
        lambda: mf.EqualRevenueSpreadSampler(mf.EqualRevenueSpreadParams(30, 8.0), 0).draw_with_meta(n),
        lambda: mf.MonotoneUniformSampler(5, 8.0, 0).draw(n),
    ]
    for draw in cases:
        peak, out = _peak_bytes(draw)
        # the draws are 51 MB, 33 MB (values, sets and scales) and 4 MB; one block is 1 MB
        out_bytes = sum(a.nbytes for a in out) if isinstance(out, tuple) else out.nbytes
        assert peak < 1.25 * out_bytes


@pytest.mark.parametrize("n", [2.5, True, np.bool_(True), "3", 0, -1])
def test_draw_counts_must_be_integral(n):
    sampler = mf.MonotoneUniformSampler(3, 4.0, 0)
    with pytest.raises(mf.ValidationError):
        sampler.draw(n)
    with pytest.raises(mf.ValidationError):
        mf.estimate_revenue(mf.uniform_price_menu(3, 2.0), sampler, n, 0)


def test_integral_draw_counts_of_other_types_are_read_exactly():
    sampler = mf.MonotoneUniformSampler(3, 4.0, 0)
    want = sampler.draw(3, np.random.default_rng(1))
    for n in (np.int64(3), 3.0, np.float64(3.0)):
        _same_bytes(sampler.draw(n, np.random.default_rng(1)), want)
