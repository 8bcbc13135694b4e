"""The optimal-menu LP against structure counts, known optima, and the
grid-search oracle."""

import io
import json
import os
import subprocess
import sys

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
    assert lp1.num_ic_rows == 0 and lp1.num_ir_rows == 1

    lp2 = mf.build_lp(_uniform_dist([[1.0], [2.0]]))
    assert lp2.num_ic_rows == 2 and lp2.num_ir_rows == 2

    lp3 = mf.build_lp(_uniform_dist([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]))
    assert lp3.num_variables == 9
    assert lp3.num_ic_rows == 6 and lp3.num_ir_rows == 3
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


def test_brute_force_budget():
    d = _uniform_dist([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(mf.BudgetExceededError):
        mf.brute_force_optimal(d, np.linspace(0, 2, 30), np.linspace(0, 1, 30), budget=100)


def test_extract_menu_dedup_and_identity():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        d = mf.ExplicitDistribution(1 + 3 * rng.random((n, m)), rng.dirichlet(np.ones(n)))
        sol = mf.solve_lp(mf.build_lp(d))
        menu = mf.extract_menu(sol)
        assert menu.size <= n
        menu.validate()
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


def test_lp_dominates_external_menus():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, m = 4, 2
        d = mf.ExplicitDistribution(1 + 3 * rng.random((n, m)), rng.dirichlet(np.ones(n)))
        obj = mf.solve_lp(mf.build_lp(d)).objective
        _, base = mf.item_pricing_baseline(d, H=4.0)
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
    assert hasattr(core.HighsModelStatus, "kUnbounded")


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
    dist.write_text(json.dumps(mf.distribution_to_json(d)))
    dump = tmp_path / "lp.txt"
    argv = ["solve-lp", "--dist", str(dist), "--out", str(tmp_path / "menu.json"), "--dump-lp", str(dump)]
    assert cli.main(argv) == 0
    words = capsys.readouterr().out.split()
    assert words[0] == "objective" and words[2] == "entries"
    assert words[4:6] == ["rounds", "1"]
    assert words[6:] == ["ic_rows_kept", "12", "ic_rows_purged", "0"]
    assert dump.read_text() == _dump_text(mf.build_lp(d))


def _dump_text(lp):
    buf = io.StringIO()
    mf.dump_lp(lp, buf)
    return buf.getvalue()


def test_dump_lp_parses_back_to_the_lp():
    rng = np.random.default_rng(6)
    lp = mf.build_lp(_uniform_dist(rng.integers(0, 4, (5, 3)).astype(float)))
    lines = _dump_text(lp).strip().splitlines()
    objective = np.array([float(t) for t in lines[0].split()[1:]])
    rows, cols, data, rhs = [], [], [], []
    for r, line in enumerate(lines[1:-1]):
        terms, bound = line.split("<=")
        for term in terms.split():
            c, v = term.split(":")
            rows.append(r); cols.append(int(c)); data.append(float(v))
        rhs.append(float(bound))
    A = sp.csr_matrix((data, (rows, cols)), shape=(len(rhs), objective.size))
    assert np.array_equal(objective, lp.objective)
    assert np.array_equal(np.array(rhs), lp.b_ub)
    assert (A != lp.A_ub).nnz == 0
    assert len(data) == lp.A_ub.nnz


def test_dump_lp_shape():
    d = _uniform_dist([[1.0], [2.0]])
    lp = mf.build_lp(d)
    text = _dump_text(lp)
    assert "A_ub" not in vars(lp)  # the dump builds its rows on demand
    lines = text.strip().splitlines()
    assert lines[0].startswith("maximize ")
    # 2 IC + 2 IR + 2 mass rows, plus objective and bounds lines
    assert len(lines) == 1 + 6 + 1
    assert lines[-1].startswith("bounds ")


@pytest.mark.parametrize("tol", [0.0, -1.0, 1e-12, 1e-9, float("inf")])
def test_solve_lp_rejects_a_tolerance_highs_cannot_take(tol):
    lp = mf.build_lp(_uniform_dist([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(mf.ValidationError, match="tol"):
        mf.solve_lp(lp, tol=tol)


def test_solve_lp_accepts_the_smallest_tolerance_highs_takes():
    lp = mf.build_lp(_uniform_dist([[1.0, 2.0], [2.0, 1.0]]))
    assert mf.solve_lp(lp, tol=1e-8).objective == pytest.approx(mf.solve_lp(lp).objective, abs=1e-9)


def test_solve_lp_cli_with_a_bad_tolerance_exits_3(tmp_path, capsys):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(mf.distribution_to_json(_uniform_dist([[1.0, 2.0], [2.0, 1.0]]))))
    out = tmp_path / "menu.json"
    argv = ["solve-lp", "--dist", str(dist), "--out", str(out), "--tol"]
    for tol in ("0", "-1", "1e-12"):
        assert cli.main(argv + [tol]) == cli.EXIT_VALIDATION == 3
        assert "tol" in capsys.readouterr().err and not out.exists()
    # NaN in a child process: a NaN tolerance that reached HiGHS crashed the interpreter
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "menuforge.cli", *argv, "nan"], env=env, capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_VALIDATION
    assert "tol" in proc.stderr and not out.exists()
