"""Samplers and parametric families: determinism, laws, class invariants."""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import menuforge as mf
from menuforge import core
from menuforge.distributions import _draw_scales, _write_k_sets, row_maxima


def test_explicit_from_samples_keeps_duplicates():
    d = mf.explicit_from_samples([[1.0, 2.0]])
    assert d.n == 1 and d.weights[0] == 1.0
    d2 = mf.explicit_from_samples([[1.0, 2.0], [1.0, 2.0]])
    assert d2.n == 2
    np.testing.assert_allclose(d2.weights, [0.5, 0.5])


@pytest.mark.parametrize("make", [
    lambda: (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.25, 0.75])),
    lambda: (np.array([[2.0, 1.0], [4.0, 3.0]])[:, ::-1], np.array([0.75, 0.25])[::-1]),
    lambda: ([[1.0, 2.0], [3.0, 4.0]], [0.25, 0.75]),
], ids=["owning", "view", "list"])
def test_explicit_distribution_copies_its_inputs_and_freezes_the_copies(make):
    V, w = make()
    d = mf.ExplicitDistribution(V, w)
    assert not np.shares_memory(d.values, V) and not np.shares_memory(d.weights, w)
    assert not d.values.flags.writeable and not d.weights.flags.writeable
    assert all(not isinstance(a, np.ndarray) or a.flags.writeable for a in (V, w))
    V[0][0], w[0] = -7.0, 9.0
    assert d.values.tolist() == [[1.0, 2.0], [3.0, 4.0]] and d.weights.tolist() == [0.25, 0.75]


def test_explicit_distribution_copies_a_view_so_its_base_cannot_change_it():
    S = np.array([1.0, 2.0])
    d = mf.explicit_from_samples(S)  # read as a (1, m) view of S
    S[0] = -5.0
    assert d.values.tolist() == [[1.0, 2.0]] and S.flags.writeable


def test_explicit_distribution_cannot_change_through_a_view_taken_before_it():
    S = np.ones((3, 2))
    v = S[:]
    d = mf.explicit_from_samples(S)
    v[0, 0] = -5.0
    assert d.values[0, 0] == 1.0


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
        lambda s: mf.ExplicitSampler(
            mf.ExplicitDistribution(np.array([[1.0], [2.0], [4.0], [8.0]]), np.array([0.125, 0.5, 0.25, 0.125])), s),
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


@pytest.mark.parametrize("H, message", [
    (0.0, "at least 2"), (-4.0, "at least 2"), (1.0, "at least 2"), (3.0, "power of 2"),
    (np.inf, "finite"), (np.nan, "finite"),
])
def test_spread_params_reject_an_H_that_is_no_power_of_2_from_2(H, message):
    with pytest.raises(mf.ValidationError, match=message):
        mf.EqualRevenueSpreadParams(9, H)


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


def test_draw_scales_is_the_inverse_cdf_of_the_halving_law():
    # z = x where 1 - 2^(1-x) <= u < 1 - 2^-x for x < levels, the top level above
    for levels in range(1, 12):
        for seed in range(3):
            u = np.random.default_rng(seed).random(2000)
            cut = 1.0 - 2.0 ** -np.arange(1, levels)
            u[: 2 * cut.size] = np.concatenate((cut, np.nextafter(cut, 0.0)))  # on and just below each cut
            want = np.full(u.size, levels)
            for x in range(levels - 1, 0, -1):
                want[u < 1.0 - 2.0 ** -x] = x

            class Replay:
                def random(self, n):
                    return u[:n]

            z = _draw_scales(Replay(), levels, u.size)
            assert z.dtype == np.int64 and np.array_equal(z, want)


def test_uniform_k_sets_are_sorted_distinct_and_uniform_over_pairs():
    n = 15000
    rows = np.zeros((n, 6))
    _write_k_sets(np.random.default_rng(0), rows, 2, np.ones((n, 1)))
    assert set(np.unique(rows)) == {0.0, 1.0} and np.all(rows.sum(axis=1) == 2)
    sets = np.nonzero(rows)[1].reshape(n, 2)  # each row's items, ascending
    assert sets.shape == (n, 2)
    _same_bytes(sets, _whole_batch_k_sets(np.random.default_rng(0), n, 6, 2))
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
    sets, z = mf.spread_sets_and_scales(d.values)
    assert d.n == 1 and sets.shape == (1, 3) and z.shape == (1,)


def test_sparse_subsample_property_holds_when_it_returns():
    params = mf.EqualRevenueSpreadParams(30, 8.0)
    for seed in range(5):
        d = mf.sparse_subsample(params, 20, seed=seed)
        sets, z = mf.spread_sets_and_scales(d.values)
        assert d.n == 20 and sets.shape == (20, 10)
        for i in range(d.n):
            on = np.zeros(30, dtype=bool)
            on[sets[i]] = True
            assert np.all(d.values[i, on] == 2.0 ** z[i]) and np.all(d.values[i, ~on] == 1.0)
            for j in range(i + 1, d.n):
                assert len(set(sets[i].tolist()) & set(sets[j].tolist())) < 30 / 6


def test_sparse_subsample_per_point_reaches_larger_k():
    # at m=6 the threshold 1 asks for pairwise-disjoint 2-sets, and at most 3 exist
    params = mf.EqualRevenueSpreadParams(6, 8.0)
    d = mf.sparse_subsample(params, 3, seed=0)
    sets, _ = mf.spread_sets_and_scales(d.values)
    assert sorted(sets.ravel().tolist()) == list(range(6))
    with pytest.raises(mf.IntersectionPropertyError):
        mf.sparse_subsample(params, 4, seed=0)


def test_sparse_subsample_is_deterministic_per_seed():
    params = mf.EqualRevenueSpreadParams(30, 8.0)
    a, b = mf.sparse_subsample(params, 20, seed=7), mf.sparse_subsample(params, 20, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    (a_sets, a_z), (b_sets, b_z) = mf.spread_sets_and_scales(a.values), mf.spread_sets_and_scales(b.values)
    np.testing.assert_array_equal(a_sets, b_sets)
    np.testing.assert_array_equal(a_z, b_z)


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


@pytest.mark.parametrize("m", [1, 5, 16, 17, 64, 90])
def test_row_maxima_and_top_values_are_the_row_reduction_bit_for_bit(m):
    rng = np.random.default_rng(m)
    V = np.vstack((rng.random((500, m)) * 8, rng.integers(0, 3, size=(500, m))))  # continuous rows, tied rows
    want = V.max(axis=1).tobytes()
    assert row_maxima(V).tobytes() == want
    d = mf.explicit_from_samples(V)
    assert d.top_values.tobytes() == want
    assert d.top_values is d.top_values and not d.top_values.flags.writeable


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
    # 1-based items, one set per line; comment and blank lines are skipped
    path = tmp_path / "hs.txt"
    path.write_text("# m n\n4 3\n3 1\n\n2\n1 2 4\n")
    back = mf.load_hitting_set(path, H=8.0)
    assert back == mf.HittingSetInstance(((0, 2), (1,), (0, 1, 3)), m=4, H=8.0)


def test_hitting_set_instance_rejects_an_empty_set():
    # the text file cannot write an empty set, but the instance still checks
    with pytest.raises(mf.ValidationError, match="empty set in family"):
        mf.HittingSetInstance(((0,), ()), m=2, H=4.0)


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


@pytest.mark.parametrize("m, H, message", [
    (5, float("nan"), "H must be finite and at least 1, not nan"),
    (5, float("inf"), "H must be finite and at least 1, not inf"),
    (5, 0.5, "H must be finite and at least 1, not 0.5"),
    (0, 8.0, "m must be at least 1, not 0"),
    (-2, 8.0, "m must be at least 1, not -2"),
])
def test_samplers_reject_a_broken_m_or_H(m, H, message):
    with pytest.raises(mf.ValidationError, match=message):
        mf.MonotoneUniformSampler(m, H, 0)
    with pytest.raises(mf.ValidationError, match=message):
        mf.Sampler(m, H, "bounded", 0)


def test_samplers_reject_an_unknown_tag():
    with pytest.raises(mf.ValidationError, match="unknown value range tag 'odd'"):
        mf.Sampler(2, 8.0, "odd", 0)


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
    d = mf.ExplicitDistribution(np.array([[1.0], [2.0], [4.0]]), np.array([0.25, 0.5, 0.25]), tag="bounded", H=4.0)
    back = mf.distribution_from_json(d.to_json_dict())
    np.testing.assert_array_equal(back.values, d.values)
    np.testing.assert_array_equal(back.weights, d.weights)
    assert (back.tag, back.H) == ("bounded", 4.0)

    samp = mf.OverfitProductSampler(mf.OverfitProductParams(6, 0.2), seed=9)
    samp2 = mf.distribution_from_json({"type": "overfit", "params": {"m": 6, "delta": 0.2}, "seed": 9})
    np.testing.assert_array_equal(samp.draw(20), samp2.draw(20))



@pytest.mark.parametrize("tag", ["nonneg", "bounded", "monotone"])
def test_explicit_distribution_rejects_a_nan_bound(tag):
    # a NaN H passes every range check and would vanish from the JSON form
    with pytest.raises(mf.ValidationError, match="H is NaN"):
        mf.ExplicitDistribution(np.array([[1.0, 2.0]]), np.array([1.0]), tag=tag, H=float("nan"))


def test_explicit_distribution_keeps_an_infinite_bound():
    # inf is the "no H given" default of explicit JSON, which then omits H
    d = mf.ExplicitDistribution(np.array([[1.0, 2.0]]), np.array([1.0]), tag="bounded", H=float("inf"))
    assert "H" not in d.to_json_dict()["params"]


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
    ({"type": "overfit", "params": {"m": 3, "delta": 0.2}}, ("params", "m")),
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
    ({"type": "explicit", "params": {"support": [[1.0, 2.0], [2.0, 1.0]], "weights": [0.5, 0.5]}},
     ("params", "support", 1, 0)),
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
                values = np.arange(2.0, n + 2.0)[:, None]  # a value of its own for each row
                for k in (1, 10, 30):
                    got = np.ones((n, 30))
                    _write_k_sets(np.random.default_rng(n), got, k, values)
                    want = np.ones((n, 30))
                    want[np.arange(n)[:, None], _whole_batch_k_sets(np.random.default_rng(n), n, 30, k)] = values
                    _same_bytes(got, want)
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
    for a, b in zip(mf.spread_sets_and_scales(got.values), mf.spread_sets_and_scales(want.values)):
        _same_bytes(a, b)


def _block_loop_sparse_subsample(params, K, seed, used=None):
    """The candidate loop that ``sparse_subsample`` replaced, as the
    reference for its stream: each point draws blocks of 1, 2, 4, ..., 64,
    64, ... candidates until one is compatible, at most 10,000.  ``used``
    collects how many candidates each point looked at."""
    m, k = params.m, params.k
    threshold = m / 6.0
    rng = np.random.default_rng(seed)
    z = _draw_scales(rng, params.levels, K)
    sets = np.empty((K, k), dtype=int)
    accepted = np.zeros((K, m))
    for i in range(K):
        tried, b = 0, 1
        while tried < 10_000:
            b = min(b, 10_000 - tried)
            cand = _whole_batch_k_sets(rng, b, m, k)
            ind = np.zeros((b, m))
            ind[np.arange(b)[:, None], cand] = 1.0
            ok = np.flatnonzero((ind @ accepted[:i].T < threshold).all(axis=1))
            if ok.size:
                sets[i], accepted[i] = cand[ok[0]], ind[ok[0]]
                if used is not None:
                    used.append(tried + int(ok[0]) + 1)
                break
            tried += b
            b = min(2 * b, 64)
        else:
            raise mf.IntersectionPropertyError(
                f"accepted only {i} of {K} points after 10000 candidates each (m={m}, k={k}, threshold {threshold})"
            )
    return np.where(accepted > 0, 2.0 ** z[:, None], 1.0), sets, z


def _outcome(construct):
    """A construction's arrays, or the text of its IntersectionPropertyError."""
    try:
        return construct()
    except mf.IntersectionPropertyError as exc:
        return str(exc)


def test_sparse_subsample_reads_the_block_loops_stream(monkeypatch):
    used, infeasible = [], 0
    grid = list(itertools.product((6, 12, 30, 60, 90), (1, 3, 5, 8, 20, 30), range(3)))
    # one row per k-set writer block: the pool's writes are split at every row
    one_row = list(itertools.product((6, 12, 30), (3, 8, 25), range(2)))
    for block_cells, cases in ((core._BLOCK_CELLS, grid), (1, one_row)):
        monkeypatch.setattr(core, "_BLOCK_CELLS", block_cells)
        for m, K, seed in cases:
            params = mf.EqualRevenueSpreadParams(m, 8.0)
            want = _outcome(lambda: _block_loop_sparse_subsample(params, K, seed, used))
            got = _outcome(lambda: mf.sparse_subsample(params, K, seed))
            if isinstance(want, str):
                infeasible += 1
                assert got == want
            else:
                for a, b in zip((got.values, *mf.spread_sets_and_scales(got.values)), want):
                    _same_bytes(a, b)
    # the grid holds infeasible instances and points that read past the 127
    # candidates of the doubling blocks, into the blocks of 64
    assert infeasible >= 10 and max(used) > 1000


def test_sparse_subsample_outputs_are_pinned():
    # SHA-256 of the little-endian int64 bytes of the sets, then of the scales
    pinned = [
        "caad1dae468d1dc6b917b22fdb68296a0ac5025dbc549d6bd8b066713cb63a25",
        "90ea927733606c3f593b225196d236c9fa82b471a1a3c2a00a8d1ec98f10ae06",
        "49956d0a024820af1d99eaf28480930c5af664fd47d08503f27ec015acc56ca7",
        "c0d32300078ca1706cceb6b7872b979d4dbc2c356969bb9baa3e7365f90a4cdd",
        "e2ae1f32d6e6e1b8baed519620ef11fa8f898c3769d04c9fc62c48f6ba9cf564",
        "d24f8ff778c121eea0a9e35d6d94ec0208c309a7e38e3bc64dc701d59b0c13d1",
        "3800f3258f125c7617f8ccccb368ffa54023ba5dd93ddef6d85bc6c63995a863",
        "7ccefd080f17b3814b408354beac1a4aaddaf80b128e6470fe83c56ed3df650c",
        "7e634bb6a926639cdc462e709a05436438c662da28ac3affeb2ef9eaf690b126",
        "c1d2cbbfd0156ec9a81fcf603673f274d73cf8e7090776b35666022f563b6c05",
    ]
    # the samples of the lowerbound flip check at (m, H, K) = (90, 64, 128),
    # where most points keep their first candidate
    flip = [
        "ddfa3c96c63e82cd140216faa263a0f9a73eafc409e00633203d26809b2a2b04",
        "d78c1a2d34fd0bc4ae289e0adea86c927da8b8325fae1fffd74924a5fa20d7c6",
    ]
    for (m, H, K), digests in (((30, 8.0, 20), pinned), ((90, 64.0, 128), flip)):
        params = mf.EqualRevenueSpreadParams(m, H)
        for seed, digest in enumerate(digests):
            sets, z = mf.spread_sets_and_scales(mf.sparse_subsample(params, K, seed).values)
            data = sets.astype("<i8").tobytes() + z.astype("<i8").tobytes()
            assert hashlib.sha256(data).hexdigest() == digest, (m, H, K, seed)


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
        lambda: mf.EqualRevenueSpreadSampler(mf.EqualRevenueSpreadParams(30, 8.0), 0).draw(n),
        lambda: mf.MonotoneUniformSampler(5, 8.0, 0).draw(n),
    ]
    for draw in cases:
        peak, out = _peak_bytes(draw)
        # the draws are 51 MB, 33 MB (values, sets and scales), 24 MB (values only)
        # and 4 MB; one block is 1 MB
        out_bytes = sum(a.nbytes for a in out) if isinstance(out, tuple) else out.nbytes
        assert peak < 1.25 * out_bytes


def test_sparse_subsample_holds_its_output_plus_a_bounded_candidate_window():
    params = mf.EqualRevenueSpreadParams(30, 8.0)
    # seed 0 at K=30 reads 23,820 candidates, 5.7 MB as indicator rows;
    # at K=40 one point reads all 10,000 of its candidates and fails
    for K in (30, 40):
        peak, out = _peak_bytes(lambda: _outcome(lambda: mf.sparse_subsample(params, K, seed=0)))
        assert isinstance(out, str) == (K == 40)
        out_bytes = 0 if K == 40 else out.values.nbytes + out.weights.nbytes
        accepted = K * params.m * 8
        # the pool's 320 indicator rows are 77 KB; its draws and copies take a few times that
        assert peak < out_bytes + accepted + 1_000_000, K


@pytest.mark.parametrize("n", [2.5, True, np.bool_(True), "3", 0, -1])
def test_draw_counts_must_be_integral(n):
    sampler = mf.MonotoneUniformSampler(3, 4.0, 0)
    with pytest.raises(mf.ValidationError):
        sampler.draw(n)
    with pytest.raises(mf.ValidationError):
        mf.estimate_revenue(mf.uniform_price_menu(3, 2.0), sampler, n, 0)
    with pytest.raises(mf.ValidationError):
        mf.EqualRevenueSpreadSampler(mf.EqualRevenueSpreadParams(6, 4.0), 0).draw_with_meta(n)


def test_integral_draw_counts_of_other_types_are_read_exactly():
    sampler = mf.MonotoneUniformSampler(3, 4.0, 0)
    want = sampler.draw(3, np.random.default_rng(1))
    for n in (np.int64(3), 3.0, np.float64(3.0)):
        _same_bytes(sampler.draw(n, np.random.default_rng(1)), want)
