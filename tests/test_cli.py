"""The menuforge command line at tiny sizes: printed results, written files
and exit codes."""

import json

import numpy as np

import menuforge as mf
from menuforge import cli


def _evaluate_inputs(tmp_path, menu_m=2):
    dist = mf.ExplicitDistribution(np.array([[1.0, 2.0], [3.0, 0.5], [2.0, 2.0]]), np.array([0.5, 0.25, 0.25]))
    menu = mf.Menu.from_entries([(np.full(menu_m, 1.0 / menu_m), 1.25), (np.eye(menu_m)[0], 2.0)])
    dist_path, menu_path = tmp_path / "dist.json", tmp_path / "menu.json"
    dist_path.write_text(json.dumps(mf.distribution_to_json(dist)))
    mf.save_menu(menu, menu_path)
    return dist, menu, ["evaluate", "--menu", str(menu_path), "--dist", str(dist_path)]


def test_evaluate_prints_and_writes_expected_revenue(tmp_path, capsys):
    dist, menu, argv = _evaluate_inputs(tmp_path)
    out = tmp_path / "rev.json"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    want = mf.expected_revenue(menu, dist)
    assert want > 0
    words = capsys.readouterr().out.split()
    assert words[0] == "expected_revenue" and float(words[1]) == want
    assert json.loads(out.read_text()) == {"expected_revenue": want}


def test_evaluate_menu_of_another_item_count_exits_3(tmp_path, capsys):
    _, _, argv = _evaluate_inputs(tmp_path, menu_m=3)
    assert cli.main(argv) == cli.EXIT_VALIDATION == 3
    assert "m=" in capsys.readouterr().err


def test_evaluate_missing_menu_file_exits_4(tmp_path):
    _, _, argv = _evaluate_inputs(tmp_path)
    (tmp_path / "menu.json").unlink()
    assert cli.main(argv) == cli.EXIT_IO == 4


def _lowerbound(tmp_path, name, *flags):
    out = tmp_path / name
    rc = cli.main(["experiment", "lowerbound", *flags, "--out", str(out)])
    return rc, out


def test_lowerbound_defaults_write_ten_rows_and_rerun_identically(tmp_path):
    rc, first = _lowerbound(tmp_path, "a.csv")
    assert rc == cli.EXIT_OK
    rows = [ln for ln in first.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "seed,lb_menu_revenue,item_baseline_revenue,ratio"
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(10))
    rc, second = _lowerbound(tmp_path, "b.csv")
    assert rc == cli.EXIT_OK and second.read_bytes() == first.read_bytes()


def test_lowerbound_per_point_flag_changes_nothing(tmp_path):
    _, plain = _lowerbound(tmp_path, "plain.csv", "--seeds", "3:6")
    rc, flagged = _lowerbound(tmp_path, "flagged.csv", "--seeds", "3:6", "--per-point")
    assert rc == cli.EXIT_OK and flagged.read_bytes() == plain.read_bytes()


def test_lowerbound_thread_fanout_writes_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("MENUFORGE_THREADS", "1")
    _, one = _lowerbound(tmp_path, "one.csv", "--seeds", "0:4")
    monkeypatch.setenv("MENUFORGE_THREADS", "2")
    rc, two = _lowerbound(tmp_path, "two.csv", "--seeds", "0:4")
    assert rc == cli.EXIT_OK and two.read_bytes() == one.read_bytes()


def test_lowerbound_without_enough_sparse_sets_exits_6(tmp_path, capsys):
    # at m=6 at most 3 pairwise-disjoint 2-sets exist
    rc, out = _lowerbound(tmp_path, "lb.csv", "--m", "6", "--K", "4", "--seeds", "0:1")
    assert rc == cli.EXIT_INFEASIBLE == 6
    assert "accepted only 3 of 4 points" in capsys.readouterr().err
    assert not out.exists()
