"""The optimal-menu LP against structure counts, known optima, and the
grid-search oracle."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import menuforge as mf
from menuforge import cli
from menuforge import lp as lp_module


def _uniform_dist(values):
    V = np.asarray(values, dtype=float)
    n = V.shape[0]
    return mf.ExplicitDistribution(V, np.full(n, 1.0 / n))


def test_lp_structure_counts():
    lp1 = mf.build_lp(_uniform_dist([[2.0]]))
    assert lp1.num_variables == 2
    assert lp1.num_ic_rows == 0

    lp2 = mf.build_lp(_uniform_dist([[1.0], [2.0]]))
    assert lp2.num_ic_rows == 2

    lp3 = mf.build_lp(_uniform_dist([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]))
    assert lp3.num_variables == 9
    assert lp3.num_ic_rows == 6
    # IC + IR + lottery mass rows
    assert lp3.A_ub.shape == (6 + 3 + 3, 9)


def test_single_type_full_surplus():
    d = _uniform_dist([[3.0, 1.0]])
    sol = mf.solve_lp(mf.build_lp(d))
    assert sol.objective == pytest.approx(3.0, abs=1e-7)
    menu = mf.extract_menu(sol)
    assert menu.size == 1
    assert mf.expected_revenue(menu, d) == pytest.approx(3.0, abs=1e-6)


def test_two_point_scalar_distribution():
    d = _uniform_dist([[1.0], [2.0]])
    sol = mf.solve_lp(mf.build_lp(d))
    assert sol.objective == pytest.approx(1.0, abs=1e-7)


def test_three_point_scalar_cross_checked_by_oracle():
    d = _uniform_dist([[1.0], [2.0], [4.0]])
    sol = mf.solve_lp(mf.build_lp(d))
    assert sol.objective == pytest.approx(4.0 / 3.0, abs=1e-7)
    _, bf = mf.brute_force_optimal(d, np.linspace(0, 4, 17), np.linspace(0, 1, 5))
    assert bf <= sol.objective + 1e-6
    assert sol.objective - bf <= 0.25 + 4.0 * 0.25  # one grid step's worth


def test_brute_force_single_type_hits_grid_surplus():
    d = _uniform_dist([[2.0]])
    menu, rev = mf.brute_force_optimal(d, np.linspace(0, 2, 9), np.linspace(0, 1, 5))
    assert rev == pytest.approx(2.0)
    assert menu.size >= 1


def test_brute_force_two_values_example():
    d = _uniform_dist([[1.0], [2.0]])
    _, rev = mf.brute_force_optimal(d, [1.0, 2.0], [0.0, 0.5, 1.0])
    assert rev == pytest.approx(1.0)


def test_brute_force_revenue_is_what_its_menu_earns():
    # the oracle scores menus with its own copy of the choice rule's revenue
    # half; values and prices on one half-step grid make utility ties common.
    # The entries a menu sells form a menu of at most n entries that earns as
    # much, so no 2-entry grid menu may beat the oracle's optimum.
    prices, levels = [0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0]
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        d = mf.ExplicitDistribution(rng.integers(0, 7, (n, m)) / 2.0, rng.dirichlet(np.ones(n)))
        menu, rev = mf.brute_force_optimal(d, prices, levels)
        assert rev == pytest.approx(mf.expected_revenue(menu, d), abs=1e-12)
        L, P = lp_module._grid_pairs(m, prices, levels)
        for pair in itertools.combinations(range(len(P)), 2):
            assert mf.expected_revenue(mf.Menu(L[list(pair)], P[list(pair)]), d) <= rev + 1e-12


def test_brute_force_budget():
    # two types over 13,486 grid pairs: 90,942,841 candidate menus, refused before any is scored
    d = _uniform_dist([[1.0, 1.0], [2.0, 2.0]])
    assert 13_486 + math.comb(13_486, 2) > lp_module.BRUTE_FORCE_BUDGET
    with pytest.raises(mf.BudgetExceededError):
        mf.brute_force_optimal(d, np.linspace(0, 2, 30), np.linspace(0, 1, 30))


def test_extract_menu_dedup_and_identity():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        d = mf.ExplicitDistribution(1 + 3 * rng.random((n, m)), rng.dirichlet(np.ones(n)))
        sol = mf.solve_lp(mf.build_lp(d))
        menu = mf.extract_menu(sol)  # the Menu constructor checks every entry
        assert menu.size <= n
        # re-evaluation identity: simulated revenue equals the LP objective
        assert mf.expected_revenue(menu, d) == pytest.approx(sol.objective, abs=1e-6)


def test_extracted_menu_realizes_ic_rows():
    rng = np.random.default_rng(1)
    d = mf.ExplicitDistribution(1 + 3 * rng.random((5, 3)), rng.dirichlet(np.ones(5)))
    sol = mf.solve_lp(mf.build_lp(d))
    menu = mf.extract_menu(sol)
    idx = mf.choose_batch(menu, d.values)
    U = d.values @ menu.lotteries.T - menu.prices
    for i in range(d.n):
        got = U[i, idx[i]] if idx[i] >= 0 else 0.0
        for j in range(d.n):
            alt = float(d.values[i] @ sol.lotteries[j] - sol.payments[j])
            assert got >= alt - 1e-6


# five per-type pairs of the LP optimum on the consolidated t=100 monotone
# sample (m=5, H=8) drawn from default_rng(417406410): types 0, 8, 58, 64
# and 89, each of weight 0.01 there
_MERGE_VALUES = [
    [1.0132582129597445, 4.050757052353214, 4.4334989215815845, 7.152759406575761, 7.769654653508488],
    [1.1731248726291312, 2.188824243547019, 3.3208036715263134, 6.622763506842235, 6.7100333327099655],
    [2.18846582733413, 3.194788431225231, 3.9990396595760425, 6.7001402141355575, 6.727263681559174],
    [2.286345002884915, 2.8255064157529115, 4.001618191349343, 7.037458439286346, 7.1321223895067805],
    [3.6114457854356, 4.15686982672105, 4.7048950041245945, 5.9520978742188815, 6.345395367090767],
]
_MERGE_SOLUTION = mf.LPSolution(
    lotteries=np.array([
        [0.0, 0.0, 0.0, 3.6263835899719155e-06, 0.99999637361641],
        [0.0, 0.0, 0.0, 3.6563860642546686e-06, 0.9999963436139357],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 3.6563860715821406e-06, 0.9999963436139284],
        [0.03671956350908859, 0.02355662429252511, 0.0, 0.1318267922145489, 0.8078970199838374],
    ]),
    payments=np.array([6.061235692946375, 6.061235683612922, 5.973966176837366, 6.061235683612921, 5.76937261988008]),
    objective=5.985409171377933,
    rounds=0, ic_rows_kept=0, ic_rows_purged=0,
)


@pytest.mark.xfail(strict=True, reason="extract_menu's DEDUP_TOL merge can move a type off an exact "
                                       "utility tie onto a strictly better, cheaper entry")
def test_extracted_menu_earns_the_objective_after_a_merge():
    # types 1 and 3 sit at an exact utility tie between their own pair and the
    # cheaper pairs of types 2 and 4; the merge gives them type 0's pair, 3e-8
    # away, which they like less, so they buy the cheaper entries
    d = mf.ExplicitDistribution(np.array(_MERGE_VALUES), np.full(5, 0.2))
    menu = mf.extract_menu(_MERGE_SOLUTION)
    assert mf.expected_revenue(menu, d) >= _MERGE_SOLUTION.objective - 1e-7


def test_lp_dominates_external_menus():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, m = 4, 2
        d = mf.ExplicitDistribution(1 + 3 * rng.random((n, m)), rng.dirichlet(np.ones(n)))
        obj = mf.solve_lp(mf.build_lp(d)).objective
        _, base = mf.item_pricing_baseline(d)
        assert obj >= base - 1e-7
        random_menu = mf.Menu(rng.dirichlet(np.ones(m), size=3), 1 + 3 * rng.random(3))
        assert obj >= mf.expected_revenue(random_menu, d) - 1e-7


def test_weight_scaling_invariance():
    rng = np.random.default_rng(3)
    V = 1 + 3 * rng.random((4, 2))
    w = rng.dirichlet(np.ones(4))
    a = mf.solve_lp(mf.build_lp(mf.ExplicitDistribution(V, w))).objective
    scaled = (w * 4.0) / (w * 4.0).sum()  # power-of-two scaling keeps floats exact
    b = mf.solve_lp(mf.build_lp(mf.ExplicitDistribution(V, scaled))).objective
    assert a == b


def test_duplicate_support_points_are_fine():
    d = mf.ExplicitDistribution(np.array([[2.0, 1.0], [2.0, 1.0]]), np.array([0.5, 0.5]))
    sol = mf.solve_lp(mf.build_lp(d))
    assert sol.objective == pytest.approx(2.0, abs=1e-7)


def _full_linprog(lp):
    """Reference: the whole LP, every IC row, in one linprog call."""
    res = linprog(
        -lp.objective,
        A_ub=lp.A_ub,
        b_ub=lp.b_ub,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    assert res.status == 0
    return float(lp.objective @ res.x)


def _solution_vector(sol):
    return np.hstack([sol.lotteries, sol.payments[:, None]]).ravel()


def _fuzz_distributions():
    """Seeded supports for the lazy solver: monotone, uniform and
    integer-valued overfit draws, with ties, duplicate rows, n=1 and n=2."""
    rng = np.random.default_rng(11)
    out = []
    for n in (1, 2, 3, 7, 25, 60):
        m = int(rng.integers(1, 6))
        mono = mf.MonotoneUniformSampler(m, 8.0, 0).draw(n, rng)
        out.append(mf.ExplicitDistribution(mono, rng.dirichlet(np.ones(n))))
        out.append(mf.ExplicitDistribution(1 + 3 * rng.random((n, m)), np.full(n, 1.0 / n)))
    for n, m, delta in ((2, 4, 0.3), (40, 6, 0.3), (120, 16, 0.2)):
        draws = mf.OverfitProductSampler(mf.OverfitProductParams(m, delta), 0).draw(n, rng)
        out.append(mf.explicit_from_samples(draws))  # duplicates kept as separate rows
    rows = np.repeat(1 + rng.integers(0, 3, (4, 3)).astype(float), 3, axis=0)
    out.append(mf.explicit_from_samples(rows))  # exact ties and triplicated rows
    draws = mf.OverfitProductSampler(mf.OverfitProductParams(64, 0.1), 3).draw(200, rng)
    out.append(mf.explicit_from_samples(draws).consolidated())
    return out


def test_lazy_solve_matches_full_lp_fuzz():
    for d in _fuzz_distributions():
        lp = mf.build_lp(d)
        sol = mf.solve_lp(lp)
        assert "A_ub" not in vars(lp) and "b_ub" not in vars(lp)  # the IC block was never assembled
        x = _solution_vector(sol)
        assert sol.objective == pytest.approx(_full_linprog(lp), abs=1e-7)
        assert np.max(lp.A_ub @ x - lp.b_ub) <= 1e-7
        # the row-free slacks the loop separates on are the stored rows' slacks
        n_ic = lp.num_ic_rows
        assert np.max(np.abs(lp.ic_violations(x) - (lp.A_ub @ x - lp.b_ub)[:n_ic]), initial=0.0) <= 1e-12
        assert sol.rounds >= 1
        assert sol.ic_rows_kept <= lp.num_ic_rows


def test_lazy_solve_keeps_few_ic_rows():
    V = mf.MonotoneUniformSampler(5, 8.0, 0).draw(100, np.random.default_rng(4))
    lp = mf.build_lp(mf.explicit_from_samples(V))
    sol = mf.solve_lp(lp)
    assert sol.ic_rows_kept < lp.num_ic_rows / 2
    # slack rows leave the relaxation, and the optimum and feasibility hold
    assert sol.ic_rows_purged > 0
    assert sol.objective == pytest.approx(_full_linprog(lp), abs=1e-7)
    assert np.max(lp.A_ub @ _solution_vector(sol) - lp.b_ub) <= 1e-7
    single = mf.solve_lp(mf.build_lp(_uniform_dist([[2.0, 1.0]])))
    assert (single.rounds, single.ic_rows_kept, single.ic_rows_purged) == (1, 0, 0)


def _seed_pairs(lp):
    """The seed's IC rows as {truthful type: set of reported types}."""
    i, r = np.divmod(lp_module._neighbour_ic_rows(lp), lp.n - 1)
    pairs = {t: set() for t in range(lp.n)}
    for a, b in zip(i.tolist(), (r + (r >= i)).tolist()):
        pairs[a].add(b)
    return pairs


def _check_seed_definition(V):
    """Assert that the seed holds each type of support V against its
    SEED_NEIGHBOURS nearest types (stable sort, ties to the lower index) and
    its DOWN_NEIGHBOURS nearest dominated types; return the seed's pairs, the
    number of types with an exact distance tie at the last nearest neighbour
    and the number with fewer than DOWN_NEIGHBOURS dominated types."""
    k, k_down = lp_module.SEED_NEIGHBOURS, lp_module.DOWN_NEIGHBOURS
    pairs = _seed_pairs(mf.build_lp(_uniform_dist(V)))
    ties = short = 0
    for a in range(V.shape[0]):
        dist = ((V - V[a]) ** 2).sum(axis=1)
        dist[a] = np.inf
        others = [j for j in np.argsort(dist, kind="stable").tolist() if j != a]
        dominated = [j for j in others if np.all(V[j] <= V[a])]
        assert pairs[a] == set(others[:k] + dominated[:k_down]), a
        ties += len(others) > k and dist[others[k - 1]] == dist[others[k]]
        short += len(dominated) < k_down
    return pairs, ties, short


def test_seed_holds_each_type_against_its_nearest_dominated_types():
    assert (lp_module.SEED_NEIGHBOURS, lp_module.DOWN_NEIGHBOURS) == (5, 2)
    # types 1-5 sit close to type 0 but each beats it in one coordinate,
    # so type 0's dominated types 6, 7 and 8 are all farther than its five
    # nearest; type 8 dominates no type
    V = np.array([[5.0, 5.0], [5.1, 4.96], [4.93, 5.12], [5.22, 4.91], [4.88, 5.17], [5.3, 4.97],
                  [4.0, 4.0], [3.0, 3.0], [1.0, 1.0]])
    pairs, _, _ = _check_seed_definition(V)
    assert pairs[0] == {1, 2, 3, 4, 5, 6, 7}
    assert len(pairs[8]) == 5


def _guard_supports():
    """Seeded supports for the seed's definition: monotone, box and
    integer-valued (exact distance ties, repeated rows), m in {1, 2, 5, 8}."""
    for seed, m in itertools.product(range(3), (1, 2, 5, 8)):
        rng = np.random.default_rng([29, seed, m])
        n = int(rng.integers(2, 61))
        yield mf.MonotoneUniformSampler(m, 8.0, 0).draw(n, rng)
        yield rng.uniform(0.0, 3.0, size=(n, m))
        yield rng.integers(0, 4, size=(n, m)).astype(float)


def test_seed_rows_are_the_stable_sort_and_dominance_definition():
    counts = np.array([_check_seed_definition(V)[1:] for V in _guard_supports()])
    # the grid holds exact ties at the k-th neighbour and types with fewer
    # than DOWN_NEIGHBOURS dominated types
    assert np.all(counts.sum(axis=0) > 0)


def test_purge_keeps_rows_added_in_the_last_two_rounds():
    assert lp_module.PURGE_ROUNDS == 2
    slack = lp_module.PURGE_SLACK
    streak = np.zeros(4, dtype=np.int64)  # four rows just added
    # first solve after adding: all slack, none deleted (the age guard)
    streak, drop = lp_module._purge(streak, np.array([1.0, 1.0, 2 * slack, slack]))
    assert not drop.any()
    # second solve: a row slack by more than PURGE_SLACK both times goes;
    # one that bound in between, or sat exactly at PURGE_SLACK, stays
    streak, drop = lp_module._purge(streak, np.array([1.0, 0.0, 2 * slack, 1.0]))
    assert drop.tolist() == [True, False, True, False]
    streak, drop = lp_module._purge(streak, np.ones(4))
    assert drop.tolist() == [True, False, True, True]


def test_highs_handle_methods_used_by_solve_lp():
    from scipy.optimize._highspy import _core as core  # solve_lp needs it: fail, never skip
    for name in ("addCols", "changeObjectiveSense", "addRows", "deleteRows", "run", "getSolution",
                 "setOptionValue", "getModelStatus", "modelStatusToString"):
        assert hasattr(core._Highs, name), name
    # max x + y  s.t.  x + 2y <= 4, 0 <= x, y <= 10; then add 3x + y <= 6,
    # then delete it again
    h = core._Highs()
    h.setOptionValue("output_flag", False)
    none = np.zeros(0, dtype=np.int32)
    status = h.addCols(2, np.array([1.0, 1.0]), np.zeros(2), np.full(2, 10.0), 0, none, none, np.zeros(0))
    assert status != core.HighsStatus.kError
    assert h.changeObjectiveSense(core.ObjSense.kMaximize) != core.HighsStatus.kError
    status = h.addRows(1, np.array([-np.inf]), np.array([4.0]), 2,
                       np.array([0], dtype=np.int32), np.array([0, 1], dtype=np.int32), np.array([1.0, 2.0]))
    assert status != core.HighsStatus.kError
    h.run()
    assert h.getModelStatus() == core.HighsModelStatus.kOptimal
    assert np.allclose(h.getSolution().col_value, [4.0, 0.0])
    status = h.addRows(1, np.array([-np.inf]), np.array([6.0]), 2,
                       np.array([0], dtype=np.int32), np.array([0, 1], dtype=np.int32), np.array([3.0, 1.0]))
    assert status != core.HighsStatus.kError
    h.run()
    assert h.getModelStatus() == core.HighsModelStatus.kOptimal
    assert np.allclose(h.getSolution().col_value, [1.6, 1.2])
    assert h.deleteRows(1, np.array([1], dtype=np.int32)) != core.HighsStatus.kError
    h.run()
    assert h.getModelStatus() == core.HighsModelStatus.kOptimal
    assert np.allclose(h.getSolution().col_value, [4.0, 0.0])


def _pairwise_ic_block(V):
    """Reference IC block, one (i, j) pair at a time."""
    n, m = V.shape
    width = m + 1
    rows, cols, data = [], [], []
    r = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c, v in zip(i * width + np.arange(width), np.append(-V[i], 1.0)):
                rows.append(r); cols.append(c); data.append(v)
            for c, v in zip(j * width + np.arange(width), np.append(V[i], -1.0)):
                rows.append(r); cols.append(c); data.append(v)
            r += 1
    return sp.csr_matrix((data, (rows, cols)), shape=(n * (n - 1), n * width))


def _assert_same_rows(got, want):
    assert got.shape == want.shape and got.nnz == want.nnz
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def test_ic_block_matches_pairwise_reference():
    rng = np.random.default_rng(5)
    cases = [np.array([[2.0]]), 1 + 3 * rng.random((6, 3)), rng.integers(0, 3, (9, 4)).astype(float)]
    for V in cases:
        lp = mf.build_lp(_uniform_dist(V))
        want = _pairwise_ic_block(V)
        want.sort_indices()
        got = lp.A_ub[: lp.num_ic_rows]
        got.sort_indices()
        _assert_same_rows(got, want)
        # rows built on demand, in any order and with repeats, are the
        # stored rows byte for byte
        ids = rng.integers(0, max(lp.num_ic_rows, 1), lp.num_ic_rows)
        on_demand = lp.ic_rows(ids)
        stored = lp.A_ub[ids]
        _assert_same_rows(on_demand, stored)
        assert on_demand.data.tobytes() == stored.data.tobytes()
        assert on_demand.indices.tobytes() == stored.indices.tobytes()
        _assert_same_rows(on_demand, want[ids])


def test_solve_lp_cli_reports_rounds_and_kept_rows(tmp_path, capsys):
    dist = tmp_path / "dist.json"
    d = _uniform_dist([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [3.0, 1.0]])
    dist.write_text(json.dumps(d.to_json_dict()))
    argv = ["solve-lp", "--dist", str(dist), "--out", str(tmp_path / "menu.json")]
    assert cli.main(argv) == 0
    words = capsys.readouterr().out.split()
    assert words[0] == "objective" and words[2] == "entries"
    assert words[4:6] == ["rounds", "1"]
    assert words[6:] == ["ic_rows_kept", "12", "ic_rows_purged", "0"]


def test_solve_lp_cli_has_no_tolerance_option(tmp_path, capsys):
    # the LP runs at one fixed accuracy, so --tol is a usage error
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(_uniform_dist([[1.0, 2.0], [2.0, 1.0]]).to_json_dict()))
    out = tmp_path / "menu.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-lp", "--dist", str(dist), "--out", str(out), "--tol", "1e-7"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err and not out.exists()


def test_solve_lp_cli_has_no_dump_option(tmp_path, capsys):
    # the LP is exported only as MenuLP's scipy form, so --dump-lp is a
    # usage error
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(_uniform_dist([[1.0, 2.0], [2.0, 1.0]]).to_json_dict()))
    out, dump = tmp_path / "menu.json", tmp_path / "lp.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-lp", "--dist", str(dist), "--out", str(out), "--dump-lp", str(dump)])
    assert exc.value.code == 2
    assert "--dump-lp" in capsys.readouterr().err and not out.exists() and not dump.exists()


def _spread_support(seed):
    """The JSON description of the K-point spread support at (m, H, K) = (30, 64, 20)."""
    return {"type": "sparse_subsample", "params": {"m": 30, "H": 64.0, "K": 20}, "seed": seed}


@pytest.mark.parametrize("seed", range(5))
def test_spread_support_lp_beats_both_constructions_and_its_menu_earns_the_objective(seed):
    dist = mf.distribution_from_json(_spread_support(seed))
    sol = mf.solve_lp(mf.build_lp(dist))
    lower_bound = mf.expected_revenue(mf.lower_bound_menu(dist), dist)
    _, item_pricing = mf.item_pricing_baseline(dist)
    assert sol.objective >= lower_bound - 1e-7
    assert sol.objective >= item_pricing - 1e-7
    assert abs(mf.expected_revenue(mf.extract_menu(sol), dist) - sol.objective) <= 1e-7


def test_spread_support_runs_through_solve_lp_and_evaluate(tmp_path, capsys):
    dist, menu = tmp_path / "dist.json", tmp_path / "menu.json"
    dist.write_text(json.dumps(_spread_support(1)))
    assert cli.main(["solve-lp", "--dist", str(dist), "--out", str(menu)]) == 0
    words = capsys.readouterr().out.split()
    assert words[0] == "objective" and abs(float(words[1]) - 5.945044642099) < 1e-9
    objective = float(words[1])
    assert cli.main(["evaluate", "--menu", str(menu), "--dist", str(dist)]) == 0
    words = capsys.readouterr().out.split()
    assert words[0] == "expected_revenue" and abs(float(words[1]) - objective) <= 1e-7
