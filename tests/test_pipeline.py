"""Seeding and sample use of the desk-scale experiments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import menuforge as mf
from menuforge import cli, pipeline


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
        seen.append((dist, original(dist)))
        return seen[-1][1]

    monkeypatch.setattr(pipeline, "build_lp", recording_build_lp)
    m, delta, sample_n, seed = 8, 0.3, 260, 5
    mf.overfit_experiment(m, delta, sample_n, 100, seed)
    S = mf.OverfitProductSampler(mf.OverfitProductParams(m, delta), seed).draw(
        sample_n, np.random.default_rng(seed)
    )
    # build_lp receives the sample as drawn, and its types are the
    # sample's distinct rows with their summed weights
    drawn = mf.explicit_from_samples(S)
    whole = drawn.consolidated()
    ((dist, lp),) = seen
    assert np.array_equal(dist.values, drawn.values) and np.array_equal(dist.weights, drawn.weights)
    assert lp.n < sample_n  # the sample repeats rows
    assert np.array_equal(lp.values, whole.values)
    assert np.array_equal(lp.objective[m :: m + 1], whole.weights)


def test_item_pricing_from_samples_picks_the_baseline_menu_on_its_draws():
    for seed in range(3):
        sampler = mf.MonotoneUniformSampler(4, 8.0, seed=0)
        menu = mf.item_pricing_from_samples(sampler, 500, seed)
        V = sampler.draw(500, np.random.default_rng(seed))
        want, _ = mf.item_pricing_baseline(mf.explicit_from_samples(V))
        assert menu == want
        prices = mf.doubling_prices(V.max())
        means = [mf.revenue_batch(mf.uniform_price_menu(4, p), V).mean() for p in prices]
        assert menu == mf.uniform_price_menu(4, prices[int(np.argmax(means))])


def test_item_pricing_baseline_prices_up_to_the_support_bound():
    # largest value 3: prices 1, 2 and 4; a higher doubling price sells to no one
    d = mf.ExplicitDistribution(np.array([[3.0, 1.0], [2.5, 2.5], [1.0, 1.5]]), np.array([0.2, 0.5, 0.3]))
    menu, rev = mf.item_pricing_baseline(d)
    assert pipeline.support_bound(d) == 3.0
    revs = [mf.expected_revenue(mf.uniform_price_menu(2, p), d) for p in mf.doubling_prices(64.0)]
    assert revs[3:] == [0.0, 0.0, 0.0, 0.0] and rev == max(revs)
    assert menu == mf.uniform_price_menu(2, mf.doubling_prices(64.0)[int(np.argmax(revs))])
    # every value below 1: the single price 1
    low = mf.ExplicitDistribution(np.array([[0.5, 0.25]]), np.array([1.0]))
    assert pipeline.support_bound(low) == 1.0
    assert mf.item_pricing_baseline(low) == (mf.uniform_price_menu(2, 1.0), 0.0)


def _tie_edge_support(m):
    """For every doubling price p up to 8, a buyer whose top value is p, one
    at p - TIE_TOL/2 (inside the tie window, so it buys) and one at
    p - 2 TIE_TOL (outside, so it does not); buyer i's top value sits on
    item i mod m, its other items valued at most 0.5."""
    tops = [p - off for p in mf.doubling_prices(8.0) for off in (0.0, mf.TIE_TOL / 2, 2 * mf.TIE_TOL)]
    V = np.tile(np.linspace(0.0, 0.5, m), (len(tops), 1))
    V[np.arange(len(tops)), np.arange(len(tops)) % m] = tops
    return mf.explicit_from_samples(V)


@pytest.mark.parametrize("case", ["tie_edges_m3", "tie_edges_m1", "overfit_m64", "spread_m90"])
def test_item_pricing_scores_each_price_as_the_one_item_menu_on_top_values(case, monkeypatch):
    rng = np.random.default_rng(17)
    if case.startswith("tie_edges"):
        dist = _tie_edge_support(int(case[-1]))
    elif case == "overfit_m64":
        dist = mf.explicit_from_samples(mf.OverfitProductSampler(mf.OverfitProductParams(64, 0.1), 0).draw(3000, rng))
    else:
        sampler = mf.EqualRevenueSpreadSampler(mf.EqualRevenueSpreadParams(90, 64.0), 0)
        dist = mf.explicit_from_samples(sampler.draw(3000, rng))
    payments = []  # what item_pricing_baseline's kernel calls return, one per doubling price

    def recording_revenue_batch(menu, V):
        payments.append(mf.revenue_batch(menu, V))
        return payments[-1]

    monkeypatch.setattr(pipeline, "revenue_batch", recording_revenue_batch)
    got = mf.item_pricing_baseline(dist)
    prices = mf.doubling_prices(pipeline.support_bound(dist))
    assert len(payments) == len(prices)
    revs = []
    for p, pay in zip(prices, payments):
        menu = mf.uniform_price_menu(dist.m, p)
        assert pay.tobytes() == mf.revenue_batch(menu, dist.values).tobytes()
        revs.append(mf.expected_revenue(menu, dist))
        assert np.float64(mf.core.weighted_sum(dist.weights, pay)).tobytes() == np.float64(revs[-1]).tobytes()
    best = int(np.argmax(revs))
    assert got == (mf.uniform_price_menu(dist.m, prices[best]), revs[best])
    if case.startswith("tie_edges"):
        # price p sells to exactly the buyers whose top value is at least p - TIE_TOL
        sold = [(dist.top_values >= p - mf.TIE_TOL).mean() * p for p in prices]
        assert revs == pytest.approx(sold, rel=0, abs=1e-15) and 0 < min(revs)


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


def test_lower_bound_menu_earns_what_the_module_docstring_says_at_the_cli_defaults():
    # the docstring: 0.64 to 1.00 times the doubling baseline, 0.85 on average, over seeds 0:200
    args = cli.build_parser().parse_args(["experiment", "lowerbound", "--out", "unused.csv"])
    assert (args.m, args.H, args.K) == (30, 8.0, 20)
    ratios = np.array([mf.lower_bound_experiment(args.m, args.H, args.K, seed).ratio for seed in range(200)])
    assert (round(ratios.min(), 2), round(ratios.max(), 2), round(ratios.mean(), 2)) == (0.64, 1.00, 0.85)


def test_overfit_lp_menu_earns_what_the_module_docstring_says():
    # the docstring: m=64, delta=0.1, 200 sampled types, seeds 0-4, 100k fresh
    # draws from the stream [seed, 1], rounding by the multiplicative cover at H=2
    figures = []
    for seed in range(5):
        sampler = mf.OverfitProductSampler(mf.OverfitProductParams(64, 0.1), seed)
        S = sampler.draw(200, np.random.default_rng(seed))
        F = sampler.draw(100_000, np.random.default_rng([seed, 1]))
        menu = mf.extract_menu(mf.solve_lp(mf.build_lp(mf.explicit_from_samples(S))))
        rounded = [mf.round_menu(menu, mf.RoundingParams(eps, 2.0, "multiplicative")) for eps in (0.1, 0.01)]
        assert [r.size for r in rounded] == [menu.size] * 2  # rounding keeps every entry
        figures.append([menu.size, mf.revenue_batch(menu, S).mean(), mf.revenue_batch(menu, F).mean(),
                        mf.revenue_batch(mf.uniform_price_menu(64, 1.0), F).mean(),
                        *(mf.revenue_batch(r, F).mean() for r in rounded)])
    # entries; on the sample, fresh, the price-1 menu fresh; rounded fresh at epsilon 0.1 and 0.01
    doc = [51.0, 1.090, 0.981, 0.999, 0.514, 0.881]
    assert np.mean(figures, axis=0) == pytest.approx(doc, rel=0, abs=5e-4 + 1e-9)


def test_lower_bound_menu_beats_item_pricing_past_the_flip():
    # the docstring and the lowerbound help: 1.36 to 1.60 at m=90, H=64, K=128 and
    # 0.71 to 0.95 at the defaults, seeds 0:5 each
    past = [mf.lower_bound_experiment(90, 64.0, 128, seed).ratio for seed in range(5)]
    assert all(r > 1 for r in past)
    assert (round(min(past), 2), round(max(past), 2)) == (1.36, 1.60)
    defaults = [mf.lower_bound_experiment(30, 8.0, 20, seed).ratio for seed in range(5)]
    assert (round(min(defaults), 2), round(max(defaults), 2)) == (0.71, 0.95)


def _same_menu(a, b):
    for x, y in ((a.lotteries, b.lotteries), (a.prices, b.prices)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("m, H, K, seed", [(30, 8.0, 20, 0), (30, 64.0, 20, 1), (90, 64.0, 128, 0)])
def test_lower_bound_menu_is_the_same_after_a_json_round_trip(m, H, K, seed):
    dist = mf.sparse_subsample(mf.EqualRevenueSpreadParams(m, H), K, seed)
    back = mf.distribution_from_json(json.loads(json.dumps(dist.to_json_dict())))
    _same_menu(mf.lower_bound_menu(back), mf.lower_bound_menu(dist))


@pytest.mark.parametrize("values, message", [
    pytest.param([[1.0, 2.0], [2.0, 1.0]], "multiple of 3", id="m=2"),
    pytest.param([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0]], "row 1 is not", id="no value above 1"),
    pytest.param([[2.0, 4.0, 1.0, 1.0, 1.0, 1.0]], "row 0 is not", id="two values above 1"),
    pytest.param([[1.0, 2.0, 1.0], [3.0, 1.0, 1.0]], "row 1 is not", id="scale not a power of 2"),
    pytest.param([[2.0, 2.0, 1.0, 1.0, 1.0, 0.5]], "row 0 is not", id="a value below 1"),
    pytest.param([[2.0, 2.0, 2.0, 1.0, 1.0, 1.0]], "row 0 is not", id="more than m/3 items at 2^z"),
])
def test_lower_bound_menu_refuses_rows_that_are_not_spread_points(values, message):
    dist = mf.ExplicitDistribution(np.array(values), np.full(len(values), 1.0 / len(values)))
    with pytest.raises(mf.ValidationError, match=message):
        mf.lower_bound_menu(dist)


def test_lower_bound_menu_reads_the_evaluate_workloads_points_off_their_values():
    # perfbench's evaluate workload: draw_with_meta, then a distribution that
    # carries the sets and scales in meta, then the lower-bound menu
    params = mf.EqualRevenueSpreadParams(30, 8.0)
    V, sets, z = mf.EqualRevenueSpreadSampler(params, 0).draw_with_meta(200, np.random.default_rng(13))
    w = np.full(200, 1.0 / 200)
    with_meta = mf.ExplicitDistribution(V, w, tag="bounded", H=8.0, meta={"sets": sets, "z": z})
    menu = mf.lower_bound_menu(with_meta)
    want = np.zeros((200, 30))
    want[np.arange(200)[:, None], sets] = 1.0 / params.k
    _same_menu(menu, mf.Menu(want, 2.0 ** (z - 1.0)))
    _same_menu(menu, mf.lower_bound_menu(mf.ExplicitDistribution(V, w, tag="bounded", H=8.0)))
    # the meta arrays stay the caller's, and writing them changes nothing
    z[0], sets[1] = 3, np.arange(params.k)
    _same_menu(mf.lower_bound_menu(with_meta), menu)


def _forbid_the_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran before the config was checked")

    monkeypatch.setattr(pipeline, "solve_lp", no_lp)


def _pipeline_error(tmp_path, capsys, monkeypatch, config):
    """The error ``pipeline`` prints for ``config``, after checking that it
    exits 3 before any LP runs and writes no menu."""
    _forbid_the_lp(monkeypatch)
    path, out = tmp_path / "config.json", tmp_path / "menu.json"
    path.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("t", 0, "t must be at least 1"),
    ("epsilon", 1.5, "epsilon must lie in (0, 1)"),
    ("mode", "greedy", "unknown mode 'greedy'"),
    ("cover_kind", "additive", "pipeline covers are multiplicative or monotone_tail"),
    ("cover-kind", "monotone_tail", 'has the unknown field "cover-kind"'),
])
def test_pipeline_config_field_out_of_range_or_unknown_exits_3_before_the_lp(
    tmp_path, capsys, monkeypatch, field, value, message
):
    dist = {"type": "monotone_uniform", "params": {"m": 3, "H": 8.0}}
    config = {"dist": dist, "t": 8, "epsilon": 0.1, "H": 8.0, field: value}
    assert message in _pipeline_error(tmp_path, capsys, monkeypatch, config)


@pytest.mark.parametrize("mode", ["naive", "sample_and_round"])
def test_pipeline_H_under_1_exits_3_before_the_lp(tmp_path, capsys, monkeypatch, mode):
    dist = {"type": "explicit", "params": {"support": [[1.0, 2.0], [3.0, 0.5]], "weights": [0.5, 0.5]}}
    config = {"dist": dist, "t": 8, "epsilon": 0.1, "H": 0.5, "mode": mode}
    assert "H must be at least 1, not 0.5" in _pipeline_error(tmp_path, capsys, monkeypatch, config)


@pytest.mark.parametrize("mode", ["naive", "sample_and_round"])
def test_pipeline_H_under_the_samplers_H_exits_3_before_the_lp(tmp_path, capsys, monkeypatch, mode):
    dist = {"type": "monotone_uniform", "params": {"m": 3, "H": 16.0}}
    config = {"dist": dist, "t": 8, "epsilon": 0.1, "H": 8.0, "mode": mode}
    err = _pipeline_error(tmp_path, capsys, monkeypatch, config)
    assert "the sampler's H=16.0 exceeds the pipeline's H=8.0" in err


def test_sample_and_round_rejects_a_monotone_cover_of_an_untagged_sampler(monkeypatch):
    _forbid_the_lp(monkeypatch)
    sampler = mf.OverfitProductSampler(mf.OverfitProductParams(m=4, delta=0.1), seed=0)  # tagged nonneg
    cfg = mf.PipelineConfig(t=8, epsilon=0.1, H=2.0, cover_kind="monotone_tail")
    with pytest.raises(mf.ValidationError, match="sampler is tagged 'nonneg'"):
        mf.sample_and_round(sampler, cfg)


def test_pipeline_monotone_cover_of_an_untagged_distribution_exits_3_before_the_lp(tmp_path, capsys, monkeypatch):
    dist = {"type": "overfit", "params": {"m": 4, "delta": 0.1}}
    config = {"dist": dist, "t": 8, "epsilon": 0.1, "H": 2.0, "cover_kind": "monotone_tail"}
    assert "sampler is tagged 'nonneg'" in _pipeline_error(tmp_path, capsys, monkeypatch, config)


def test_sample_and_round_rejects_the_multiplicative_cover_of_an_untagged_sampler_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the sampler was drawn before the config was checked")

    monkeypatch.setattr(mf.OverfitProductSampler, "draw", no_draw)
    sampler = mf.OverfitProductSampler(mf.OverfitProductParams(m=8, delta=0.1), seed=0)  # values 0-2, tagged nonneg
    cfg = mf.PipelineConfig(t=50, epsilon=0.1, H=2.0)
    assert cfg.cover_kind == "multiplicative"
    with pytest.raises(mf.ValidationError, match="multiplicative covers are only certified for bounded or monotone "
                                                 "valuations; sampler is tagged 'nonneg'"):
        mf.sample_and_round(sampler, cfg)


_UNCERTIFIED_CONFIGS = {
    "overfit": {"dist": {"type": "overfit", "params": {"m": 8, "delta": 0.1}}, "t": 50, "epsilon": 0.1, "H": 2.0},
    "untagged_explicit": {
        "dist": {"type": "explicit", "params": {"support": [[1.0, 2.0], [3.0, 0.5], [2.0, 2.0], [1.5, 1.0]],
                                                "weights": [0.25, 0.25, 0.25, 0.25]}},
        "t": 40, "epsilon": 0.1, "H": 4.0,
    },
}


@pytest.mark.parametrize("name", sorted(_UNCERTIFIED_CONFIGS))
def test_pipeline_multiplicative_cover_of_an_untagged_distribution_exits_3_before_the_lp(
    tmp_path, capsys, monkeypatch, name
):
    assert "sampler is tagged 'nonneg'" in _pipeline_error(tmp_path, capsys, monkeypatch, _UNCERTIFIED_CONFIGS[name])


def test_pipeline_naive_mode_runs_on_an_untagged_distribution(tmp_path, capsys):
    # naive mode never rounds, so no cover has to certify the sampler
    path, out = tmp_path / "config.json", tmp_path / "menu.json"
    path.write_text(json.dumps({**_UNCERTIFIED_CONFIGS["overfit"], "mode": "naive"}))
    assert cli.main(["pipeline", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "menu entries 10\n"
    assert mf.load_menu(out).size == 10


# fits three seeded t=100 monotone samples (m=5, H=8), rounds each menu into
# the monotone_tail cover at the pipeline's resolution for epsilon 0.1, and
# prints the SHA-256 of every extracted and rounded menu's bytes
_MENU_DIGEST = """
import hashlib
import numpy as np
import menuforge as mf

params = mf.PipelineConfig(t=100, epsilon=0.1, H=8.0, cover_kind="monotone_tail").rounding_params()
digest = hashlib.sha256()
for seed in range(3):
    samples = mf.MonotoneUniformSampler(5, 8.0, 0).draw(100, np.random.default_rng(seed))
    dist = mf.explicit_from_samples(samples, tag="monotone", H=8.0)
    menu = mf.extract_menu(mf.solve_lp(mf.build_lp(dist)))
    for out in (menu, mf.round_menu(menu, params)):
        digest.update(out.lotteries.tobytes() + out.prices.tobytes())
print(digest.hexdigest())
"""


def test_menus_do_not_depend_on_numpy_simd_dispatch():
    """Extracted and rounded menus are the same bytes whichever SIMD paths
    NumPy dispatches to.

    The digest is taken under default dispatch, with the AVX-512 features
    disabled, and with X86_V3 (AVX2) disabled as well.  The first switch
    moves ``np.power``'s last ulp, so rounding must not take its powers
    from it; the second changes how a SIMD partial sort such as
    ``np.argpartition`` breaks exact ties, so the LP must not pick its rows
    with one.  The feature names come from NumPy's own dispatch list.  Out
    of scope: pre-FMA OpenBLAS kernels (``OPENBLAS_CORETYPE=Sandybridge``)
    still move LP menus, since the LP's matrix products change in the last
    ulp.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    avx512 = [f for f in dispatched if f.startswith("AVX512") or f == "X86_V4"]
    avx2 = avx512 + [f for f in dispatched if f == "X86_V3"]
    if not avx2:
        pytest.skip("NumPy dispatches none of X86_V3, X86_V4 or the AVX512 features on this CPU")
    src = str(Path(mf.__file__).resolve().parents[1])

    def digest(disabled):
        env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
        proc = subprocess.run([sys.executable, "-c", _MENU_DIGEST], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    default = digest([])
    assert digest(avx512) == default, avx512
    assert digest(avx2) == default, avx2
