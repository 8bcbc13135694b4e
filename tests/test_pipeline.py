"""Seeding and sample use of the desk-scale experiments."""

import json

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


def test_lower_bound_menu_beats_item_pricing_past_the_flip():
    # the docstring and the lowerbound help: 1.36 to 1.60 at m=90, H=64, K=128 and
    # 0.71 to 0.95 at the defaults, seeds 0:5 each
    past = [mf.lower_bound_experiment(90, 64.0, 128, seed).ratio for seed in range(5)]
    assert all(r > 1 for r in past)
    assert (round(min(past), 2), round(max(past), 2)) == (1.36, 1.60)
    defaults = [mf.lower_bound_experiment(30, 8.0, 20, seed).ratio for seed in range(5)]
    assert (round(min(defaults), 2), round(max(defaults), 2)) == (0.71, 0.95)


def test_lower_bound_menu_needs_the_construction_metadata():
    dist = mf.ExplicitDistribution(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([0.5, 0.5]))
    with pytest.raises(mf.ValidationError, match="lacks per-point"):
        mf.lower_bound_menu(dist)


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
