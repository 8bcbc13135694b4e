"""Two-leveled MAXREV: reductions, greedy coverage, derandomization, and the
coverage upper bound."""

import itertools
import math

import numpy as np
import pytest

import menuforge as mf
from menuforge import maxrev
from menuforge.core import weighted_sum
from oracles import derandomize_lotteries, expected_hit_fraction, hit_fraction, revenue_upper_bound


def _random_instance(rng, m, n_sets, H):
    sets = []
    for _ in range(n_sets):
        size = int(rng.integers(1, m + 1))
        sets.append(tuple(np.sort(rng.choice(m, size=size, replace=False)).tolist()))
    return mf.HittingSetInstance(tuple(sets), m=m, H=H)


def test_reduce_hitting_set_valuations():
    inst = mf.HittingSetInstance(((0,), (1,)), m=2, H=4.0)
    problem = mf.reduce_hitting_set(inst, k=1)
    np.testing.assert_allclose(problem.dist.values, [[4.0, 1.0], [1.0, 4.0]])
    assert problem.low == 1.0 and problem.high == 4.0


def test_reduce_hitting_set_true_menu_optimum_by_enumeration():
    # sets {1},{2}, k=1, H=4: the best single-item menu earns 2.0 (item 1 at
    # price 4; the other buyer walks), checked over all item/price menus
    inst = mf.HittingSetInstance(((0,), (1,)), m=2, H=4.0)
    d = mf.hitting_set_valuations(inst)
    best = 0.0
    for j, p in itertools.product(range(2), [1.0, 4.0]):
        menu = mf.Menu(np.eye(2)[[j]], np.array([p]))
        best = max(best, mf.expected_revenue(menu, d))
    assert best == pytest.approx(2.0)


def test_full_budget_hits_everything():
    inst = mf.HittingSetInstance(((0, 1), (2,), (1, 3)), m=4, H=8.0)
    problem = mf.reduce_hitting_set(inst, k=4)
    menu, value = mf.greedy_k_item_menu(problem)
    assert value == pytest.approx(8.0)  # full coverage earns H from everyone
    assert mf.expected_revenue(menu, problem.dist) == pytest.approx(8.0)


def test_greedy_shared_element():
    sets = ((0, 1), (0, 2), (0, 3))
    problem = mf.reduce_hitting_set(mf.HittingSetInstance(sets, m=4, H=4.0), k=1)
    menu, value = mf.greedy_k_item_menu(problem)
    assert value == pytest.approx(4.0)
    assert menu.size == 1 and menu.lotteries[0, 0] == 1.0


def test_greedy_singletons_counting():
    sets = ((0,), (1,), (2,))
    problem = mf.reduce_hitting_set(mf.HittingSetInstance(sets, m=3, H=4.0), k=2)
    _, value = mf.greedy_k_item_menu(problem)
    assert value == pytest.approx(1.0 + 3.0 * (2.0 / 3.0))


def test_greedy_tie_break_lowest_index():
    sets = ((2,), (1,))
    problem = mf.reduce_hitting_set(mf.HittingSetInstance(sets, m=3, H=2.0), k=1)
    menu, _ = mf.greedy_k_item_menu(problem)
    assert menu.lotteries[0, 1] == 1.0  # item 1 beats item 2 on the tie


def test_brute_force_k_menu_corners():
    inst = mf.HittingSetInstance(((0,), (1,), (0, 1)), m=2, H=4.0)
    problem = mf.reduce_hitting_set(inst, k=2)
    items, value = mf.brute_force_k_menu(problem)
    assert items == (0, 1) and value == pytest.approx(4.0)

    problem1 = mf.reduce_hitting_set(inst, k=1)
    items1, value1 = mf.brute_force_k_menu(problem1)
    # item 0 hits sets {0} and {0,1}: 2/3 coverage
    assert items1 == (0,) and value1 == pytest.approx(1.0 + 3.0 * (2.0 / 3.0))


def _scan_one_set_at_a_time(problem):
    S, w = problem.sets, problem.dist.weights
    best_frac, best = -1.0, ()
    for combo in itertools.combinations(range(problem.m), min(problem.k, problem.m)):
        frac = weighted_sum(w, S[:, combo].any(axis=1))  # the program's sum, not BLAS's
        if frac > best_frac + 1e-15:
            best_frac, best = frac, combo
    return best, problem.low + (problem.high - problem.low) * best_frac


def test_brute_force_k_menu_matches_the_sequential_scan():
    # many tied optima, and 120 sets at m=24, k=4 score the item sets in
    # more than one block; set and score must match bit for bit
    rng = np.random.default_rng(3)
    for m, n_sets, k in ((6, 5, 2), (10, 30, 3), (24, 40, 4), (24, 120, 4)):
        for _ in range(2):
            problem = mf.reduce_hitting_set(_random_instance(rng, m, n_sets, 4.0), k=k)
            assert mf.brute_force_k_menu(problem) == _scan_one_set_at_a_time(problem)


def test_brute_force_budget_guard():
    rng = np.random.default_rng(0)
    inst = _random_instance(rng, 30, 4, 2.0)
    problem = mf.reduce_hitting_set(inst, k=10)
    # C(30, 10) item sets, refused before any is scored
    assert math.comb(30, 10) > maxrev.BRUTE_FORCE_BUDGET
    with pytest.raises(mf.BudgetExceededError):
        mf.brute_force_k_menu(problem)


def test_greedy_matches_brute_force_on_unique_optima():
    # disjoint pairs: every greedy pick is the unique remaining optimum
    sets = ((0, 1), (2, 3), (4, 5))
    problem = mf.reduce_hitting_set(mf.HittingSetInstance(sets, m=6, H=8.0), k=3)
    _, g = mf.greedy_k_item_menu(problem)
    _, b = mf.brute_force_k_menu(problem)
    assert g == pytest.approx(b)


def test_greedy_approximation_guarantee_random():
    rng = np.random.default_rng(1)
    ratio_floor = 1.0 - 1.0 / np.e
    for _ in range(50):
        m = int(rng.integers(3, 13))
        n_sets = int(rng.integers(2, 11))
        k = int(rng.integers(1, 4))
        problem = mf.reduce_hitting_set(_random_instance(rng, m, n_sets, 4.0), k=k)
        _, g = mf.greedy_k_item_menu(problem)
        _, b = mf.brute_force_k_menu(problem)
        assert g >= ratio_floor * b - 1e-12


def test_zero_one_convention_prices_at_one_and_scores_exactly():
    # {0,1} valuations: hit-count score equals true expected menu revenue
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 7))
        V = (rng.random((n, m)) < 0.4).astype(float)
        V[V.sum(axis=1) == 0, 0] = 1.0  # keep every support set nonempty
        d = mf.explicit_from_samples(V, tag="unit_interval")
        problem = mf.KMenuProblem(d, 2, 0.0, 1.0)
        menu, value = mf.greedy_k_item_menu(problem)
        assert np.all(menu.prices == 1.0)
        assert mf.expected_revenue(menu, d) == pytest.approx(value, abs=1e-12)


def test_zero_h_convention_prices_at_h_and_scores_exactly():
    # {0,3} valuations: the greedy menu sells each item at 3, and the score it
    # reports is the revenue that menu earns
    V = np.array([[0, 3, 0, 0], [3, 0, 0, 0], [0, 0, 3, 3], [0, 3, 3, 0]], dtype=float)
    d = mf.explicit_from_samples(V)
    problem = mf.KMenuProblem(d, 2, 0.0, 3.0)
    menu, value = mf.greedy_k_item_menu(problem)
    assert np.all(menu.prices == 3.0)
    assert value == 2.25
    assert mf.expected_revenue(menu, d) == pytest.approx(value, abs=1e-12)


def test_reduction_faithfulness_dual_brute_force():
    # {0,1} MAXREV optimum == optimal hitting-set count, by two brute forces
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 6))
        inst = _random_instance(rng, m, n, 2.0)
        V = np.zeros((n, m))
        for i, s in enumerate(inst.sets):
            V[i, list(s)] = 1.0
        d = mf.explicit_from_samples(V, tag="unit_interval")
        k = int(rng.integers(1, 3))
        problem = mf.KMenuProblem(d, k, 0.0, 1.0)
        _, value = mf.brute_force_k_menu(problem)
        # independent oracle: enumerate item sets, count hits, evaluate menus
        best_count = 0.0
        best_menu_rev = 0.0
        for combo in itertools.combinations(range(m), min(k, m)):
            hits = sum(1 for s in inst.sets if set(combo) & set(s))
            best_count = max(best_count, hits / n)
            menu = mf.Menu(np.eye(m)[list(combo)], np.ones(len(combo)))
            best_menu_rev = max(best_menu_rev, mf.expected_revenue(menu, d))
        assert value == pytest.approx(best_count, abs=1e-12)
        assert value == pytest.approx(best_menu_rev, abs=1e-12)


def test_derandomize_point_masses():
    inst = mf.HittingSetInstance(((0,), (2,)), m=3, H=4.0)
    problem = mf.reduce_hitting_set(inst, k=2)
    menu = mf.Menu(np.eye(3)[[0, 2]], np.full(2, 4.0))
    items = derandomize_lotteries(menu, problem)
    assert set(items.tolist()) == {0, 2}


def test_derandomize_uniform_symmetric():
    inst = mf.HittingSetInstance(((0,), (1,)), m=2, H=4.0)
    problem = mf.reduce_hitting_set(inst, k=1)
    menu = mf.Menu(np.array([[0.5, 0.5]]), np.array([1.0]))
    items = derandomize_lotteries(menu, problem)
    assert len(items) == 1
    assert hit_fraction(items, problem) == pytest.approx(0.5)
    assert expected_hit_fraction(menu, problem) == pytest.approx(0.5)


def test_derandomize_never_below_expectation():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        n_sets = int(rng.integers(1, 7))
        problem = mf.reduce_hitting_set(_random_instance(rng, m, n_sets, 4.0), k=2)
        L = rng.dirichlet(np.ones(m), size=2) * rng.random((2, 1))
        menu = mf.Menu(L, np.ones(2))
        items = derandomize_lotteries(menu, problem)
        assert len(items) <= 2
        assert hit_fraction(items, problem) >= expected_hit_fraction(menu, problem) - 1e-12


def test_revenue_upper_bound_examples():
    inst = mf.HittingSetInstance(((0,), (0, 1)), m=2, H=4.0)
    problem = mf.reduce_hitting_set(inst, k=2)
    assert revenue_upper_bound(mf.Menu.empty(2), problem) == pytest.approx(1.0)
    full = mf.Menu(np.array([[1.0, 0.0]]), np.array([4.0]))
    assert revenue_upper_bound(full, problem) == pytest.approx(4.0)


def test_revenue_upper_bound_dominates_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        n_sets = int(rng.integers(1, 6))
        problem = mf.reduce_hitting_set(_random_instance(rng, m, n_sets, 8.0), k=3)
        k = int(rng.integers(1, 4))
        L = rng.dirichlet(np.ones(m), size=k) * rng.random((k, 1))
        menu = mf.Menu(L, 1.0 + 7.0 * rng.random(k))
        bound = revenue_upper_bound(menu, problem)
        assert bound >= mf.expected_revenue(menu, problem.dist) - 1e-12


def test_no_lottery_menu_beats_the_brute_force_score_fuzz():
    # each link of the soundness chain in oracles.py, on random k-lottery menus
    rng = np.random.default_rng(6)
    for _ in range(500):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        problem = mf.reduce_hitting_set(_random_instance(rng, m, int(rng.integers(1, 6)), 8.0), k=k)
        L = rng.dirichlet(np.ones(m), size=k) * rng.random((k, 1))
        menu = mf.Menu(L, 1.0 + 7.0 * rng.random(k))
        bound = revenue_upper_bound(menu, problem)
        expected = 1.0 + 7.0 * expected_hit_fraction(menu, problem)
        derandomized = 1.0 + 7.0 * hit_fraction(derandomize_lotteries(menu, problem), problem)
        _, best = mf.brute_force_k_menu(problem)
        assert mf.expected_revenue(menu, problem.dist) <= bound + 1e-12
        assert bound <= expected + 1e-12
        assert expected <= derandomized + 1e-12
        assert derandomized <= best + 1e-12


def test_two_level_validation():
    d = mf.explicit_from_samples(np.array([[1.0, 2.0], [1.0, 3.0]]))
    with pytest.raises(mf.ValidationError):
        mf.KMenuProblem(d, 1, 1.0, 3.0)


def test_levels_too_close_to_tell_apart_are_rejected_naming_both():
    # at H = 1.000001 every value is close to H, so every set would read as hit
    inst = mf.HittingSetInstance(((0,), (1,), (2,)), m=4, H=1.000001)
    with pytest.raises(mf.ValidationError, match=r"low=1\.0 and high=1\.000001"):
        mf.reduce_hitting_set(inst, k=1)


def test_the_high_value_matrix_is_computed_once(monkeypatch):
    calls = []
    isclose = np.isclose
    monkeypatch.setattr(np, "isclose", lambda a, b, *args, **kw: calls.append((a, b)) or isclose(a, b, *args, **kw))
    problem = mf.reduce_hitting_set(mf.HittingSetInstance(((0, 1), (2,)), m=3, H=4.0), k=1)
    np.testing.assert_array_equal(problem.sets, [[True, True, False], [False, False, True]])
    mf.greedy_k_item_menu(problem)
    mf.brute_force_k_menu(problem)
    assert sum(a is problem.dist.values and b == 4.0 for a, b in calls) == 1


def _greedy_score_and_revenue(sets, m):
    """The greedy item menu's hit-count score and its expected revenue on the
    {1,H} reduction of ``sets`` at H=4, k=1, and its hit fraction."""
    problem = mf.reduce_hitting_set(mf.HittingSetInstance(tuple(sets), m=m, H=4.0), 1)
    menu, score = mf.greedy_k_item_menu(problem)
    hit = weighted_sum(problem.dist.weights, problem.sets[:, menu.lotteries.argmax(axis=1)].any(axis=1))
    return score, mf.expected_revenue(menu, problem.dist), hit


def test_greedy_vs_opt_score_bounds_the_greedy_menus_revenue_with_equality_at_full_coverage():
    # the greedy-vs-opt experiment's greedy_revenue column is this score:
    # 1 + (H-1) f against the item menu's revenue H f, for hit fraction f
    for seed in range(4):
        rng = np.random.default_rng(seed)
        sets = [tuple(sorted(rng.choice(24, size=int(rng.integers(1, 4)), replace=False).tolist()))
                for _ in range(40)]
        score, revenue, hit = _greedy_score_and_revenue(sets, 24)
        assert hit < 1
        assert score == pytest.approx(1 + 3 * hit) and revenue == pytest.approx(4 * hit)
        assert score > revenue + 0.5  # 1.45-1.60 against 0.60-0.80
    score, revenue, hit = _greedy_score_and_revenue([(0, 1), (1, 2), (1,)], 3)
    assert hit == 1 and score == revenue == 4.0
