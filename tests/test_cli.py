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
