"""The menuforge command line at tiny sizes: printed results, written files
and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import menuforge as mf
from menuforge import cli


def _evaluate_inputs(tmp_path, menu_m=2):
    dist = mf.ExplicitDistribution(np.array([[1.0, 2.0], [3.0, 0.5], [2.0, 2.0]]), np.array([0.5, 0.25, 0.25]))
    menu = mf.Menu([np.full(menu_m, 1.0 / menu_m), np.eye(menu_m)[0]], [1.25, 2.0])
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
    mf.save_menu(mf.Menu.empty(3), tmp_path / "menu.json")  # no entries, still m=3
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


def _monotone(tmp_path):
    path = tmp_path / "mono.json"
    path.write_text(json.dumps({"type": "monotone_uniform", "params": {"m": 5, "H": 8.0}}))
    return str(path)


def _data_rows(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]


@pytest.mark.parametrize("argv", [
    ["experiment", "lowerbound"],
    ["experiment", "baseline", "--dist", "{mono.json}", "--n", "2000"],
])
def test_a_seed_range_split_in_two_writes_the_same_rows(tmp_path, argv):
    argv = [_monotone(tmp_path) if tok == "{mono.json}" else tok for tok in argv]
    rows = {}
    for seeds in ("0:4", "0:2", "2:4"):
        out = tmp_path / f"{seeds.replace(':', '_')}.csv"
        assert cli.main(argv + ["--seeds", seeds, "--out", str(out)]) == cli.EXIT_OK
        rows[seeds] = _data_rows(out)
    assert len(rows["0:4"]) == 4
    assert rows["0:4"] == rows["0:2"] + rows["2:4"]


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product over 10,000 elements across its threads,
    # which moves the last digits of a sum; each command sums more than that
    commands = [
        ["experiment", "baseline", "--dist", _monotone(tmp_path), "--n", "100000", "--seeds", "0:2"],
        ["experiment", "overfit", "--eval-n", "100", "--seeds", "1:3"],
        ["experiment", "greedy-vs-opt", "--m", "8", "--n-sets", "12000", "--k", "2", "--seeds", "0:2"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        outs = [tmp_path / f"{threads}-{i}.csv" for i in range(len(commands))]
        script = "from menuforge import cli\n" + "".join(
            f"assert cli.main({argv + ['--out', str(out)]!r}) == 0\n" for argv, out in zip(commands, outs)
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        written.append([out.read_bytes() for out in outs])
    assert written[1] == written[0]


def test_lowerbound_without_enough_sparse_sets_exits_6(tmp_path, capsys):
    # at m=6 at most 3 pairwise-disjoint 2-sets exist
    rc, out = _lowerbound(tmp_path, "lb.csv", "--m", "6", "--K", "4", "--seeds", "0:1")
    assert rc == cli.EXIT_INFEASIBLE == 6
    assert "accepted only 3 of 4 points" in capsys.readouterr().err
    assert not out.exists()


def _malformed(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    return str(path)


def test_evaluate_malformed_menu_exits_3_naming_the_field(tmp_path, capsys):
    _, _, argv = _evaluate_inputs(tmp_path)
    menu_flag = argv.index("--menu") + 1
    for text, field in (("{}", '"m"'), ('{"m": 2, "entries": [{"price": 1.0}]}', '"lottery"')):
        argv[menu_flag] = _malformed(tmp_path, text)
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert field in capsys.readouterr().err


def test_baseline_distribution_without_params_exits_3(tmp_path, capsys):
    dist = _malformed(tmp_path, '{"type": "overfit", "params": {}}')
    out = tmp_path / "b.csv"
    assert cli.main(["experiment", "baseline", "--dist", dist, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert '"m"' in capsys.readouterr().err and not out.exists()


def test_pipeline_config_of_the_wrong_shape_exits_3(tmp_path, capsys):
    out = tmp_path / "menu.json"
    good = {"dist": {"type": "monotone_uniform", "params": {"m": 2, "H": 4.0}}, "t": 5, "epsilon": 0.1, "H": 4.0}
    for text, named in (("[1, 2]", "JSON object"), (json.dumps({**good, "t": [5]}), '"t"')):
        config = _malformed(tmp_path, text)
        assert cli.main(["pipeline", "--config", config, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert named in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_menu_with_a_non_finite_entry_exits_3(tmp_path, capsys):
    # a NaN price would make a buyer of value 4 skip the (0.5, 1.0) entry and pay 0
    dist = _malformed(tmp_path, json.dumps({"type": "explicit", "params": {"support": [[4.0]], "weights": [1.0]}}))
    for bad in ('"price": NaN', '"price": Infinity', '"price": 1.0, "lottery": [NaN]'):
        menu = tmp_path / "menu.json"
        menu.write_text('{"m": 1, "entries": [{"lottery": [1.0], %s}, {"lottery": [0.5], "price": 1.0}]}' % bad)
        assert cli.main(["evaluate", "--menu", str(menu), "--dist", dist]) == cli.EXIT_VALIDATION
        assert "non-finite" in capsys.readouterr().err


def test_non_integral_json_counts_exit_3(tmp_path, capsys):
    _, _, argv = _evaluate_inputs(tmp_path)
    menu_flag = argv.index("--menu") + 1
    argv[menu_flag] = _malformed(tmp_path, '{"m": 2.7, "entries": [{"lottery": [0.5, 0.5], "price": 1.0}]}')
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert '"m"' in capsys.readouterr().err
    out = tmp_path / "out.json"
    good = {"dist": {"type": "monotone_uniform", "params": {"m": 2, "H": 4.0}}, "t": 5, "epsilon": 0.1, "H": 4.0}
    for field, value in (("t", 25.7), ("seed", 1.5), ("seed", True), ("t", "5")):
        config = _malformed(tmp_path, json.dumps({**good, field: value}))
        assert cli.main(["pipeline", "--config", config, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert f'"{field}"' in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_with_a_nan_weight_exits_3(tmp_path, capsys):
    # NaN fails every comparison, so a sum-to-one check written as "off by more than 1e-9" lets it through
    _, _, argv = _evaluate_inputs(tmp_path)
    dist = {"type": "explicit", "params": {"support": [[1.0, 2.0], [3.0, 0.5]], "weights": [0.5, float("nan")]}}
    argv[argv.index("--dist") + 1] = _malformed(tmp_path, json.dumps(dist))
    assert cli.main(argv) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert "nan" not in out and '"weights"' in err


JSON_NUMBER_INPUTS = {
    "menu": {"m": 2, "entries": [{"lottery": [0.5, 0.5], "price": 1.0}]},
    "explicit": {"type": "explicit", "params": {"support": [[1.0, 2.0], [3.0, 0.5]], "weights": [0.5, 0.5],
                                                "H": 4.0}},
    "monotone": {"type": "monotone_uniform", "params": {"m": 2, "H": 4.0}},
    "overfit": {"type": "overfit", "params": {"m": 4, "delta": 0.1}},
    "config": {"dist": {"type": "monotone_uniform", "params": {"m": 2, "H": 4.0}}, "t": 5, "epsilon": 0.1,
               "H": 4.0},
}


def _json_number_argv(tmp_path, source, path, value):
    """The argv of a command that reads ``JSON_NUMBER_INPUTS[source]`` with the
    number at ``path`` set to ``value``; None leaves the input as it is."""
    obj = json.loads(json.dumps(JSON_NUMBER_INPUTS[source]))
    if value is not None:
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    text = _malformed(tmp_path, json.dumps(obj))
    _, _, evaluate = _evaluate_inputs(tmp_path)
    out = ["--out", str(tmp_path / "out")]
    return {
        "menu": evaluate[:2] + [text] + evaluate[3:],
        "explicit": evaluate[:4] + [text],
        "config": ["pipeline", "--config", text] + out,
    }.get(source, ["experiment", "baseline", "--dist", text, "--n", "50", "--seeds", "0:1"] + out)


@pytest.mark.parametrize("source, path", [
    ("menu", ("entries", 0, "price")),
    ("menu", ("entries", 0, "lottery", 1)),
    ("explicit", ("params", "support", 1, 0)),
    ("explicit", ("params", "weights", 0)),
    ("explicit", ("params", "H")),
    ("monotone", ("params", "H")),
    ("overfit", ("params", "delta")),
    ("config", ("epsilon",)),
    ("config", ("H",)),
])
def test_json_numbers_that_are_not_finite_numbers_exit_3(tmp_path, capsys, source, path):
    assert cli.main(_json_number_argv(tmp_path, source, path, None)) == cli.EXIT_OK
    field = next(key for key in reversed(path) if isinstance(key, str))
    for bad in (True, "0.5", float("nan"), float("inf"), 10**400):
        capsys.readouterr()
        assert cli.main(_json_number_argv(tmp_path, source, path, bad)) == cli.EXIT_VALIDATION, bad
        assert f'"{field}"' in capsys.readouterr().err


def test_pipeline_monotone_cover_on_a_decreasing_support_exits_3(tmp_path, capsys):
    dist = {"type": "explicit", "params": {"support": [[3.0, 1.0], [2.0, 1.5]], "weights": [0.5, 0.5],
                                           "tag": "monotone"}}
    config = _malformed(tmp_path, json.dumps({"dist": dist, "t": 4, "epsilon": 0.1, "H": 4.0}))
    out = tmp_path / "menu.json"
    argv = ["pipeline", "--config", config, "--cover-kind", "monotone_tail", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "decreasing" in capsys.readouterr().err and not out.exists()


def test_empty_seed_list_exits_3(tmp_path):
    out = tmp_path / "lb.csv"
    assert cli.main(["experiment", "lowerbound", "--seeds", ",", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert not out.exists()


def _subcommand_inputs(tmp_path):
    """Tiny input files for the subcommand cases, keyed by placeholder."""
    paths = {name: tmp_path / name for name in ("menu.json", "dist.json", "mono.json", "config.json", "hs.txt")}
    mf.save_menu(mf.Menu([[0.5, 0.5], [1.0, 0.0], [0.3, 0.6]], [1.25, 2.0, 3.7]), paths["menu.json"])
    dist = mf.ExplicitDistribution(np.array([[1.0, 2.0], [3.0, 0.5], [2.0, 2.0]]), np.full(3, 1 / 3))
    paths["dist.json"].write_text(json.dumps(mf.distribution_to_json(dist)))
    mono = {"type": "monotone_uniform", "params": {"m": 3, "H": 8.0}, "seed": 3}
    paths["mono.json"].write_text(json.dumps(mono))
    paths["config.json"].write_text(json.dumps(
        {"dist": mono, "t": 12, "epsilon": 0.1, "H": 8.0, "cover_kind": "monotone_tail", "seed": 2}))
    paths["hs.txt"].write_text("6 4\n1 2\n2 3 4\n5\n1 6\n")
    return {"{" + name + "}": str(path) for name, path in paths.items()}


SUBCOMMANDS = {
    "round-menu": (["round-menu", "--menu", "{menu.json}", "--epsilon", "0.1", "--H", "4"], ["--out"]),
    "cover-enumerate": (["cover", "enumerate", "--kind", "monotone_tail", "--epsilon", "0.3", "--m", "3",
                         "--H", "2"], ["--out"]),
    "cover-round": (["cover", "round", "--kind", "multiplicative", "--epsilon", "0.1", "--m", "3", "--H", "4",
                     "--lottery", "0.2,0.3,0.4"], ["--out"]),
    "reduce-hitting-set": (["reduce-hitting-set", "--in", "{hs.txt}", "--H", "4", "--k", "2"], ["--out"]),
    "pipeline-sample-and-round": (["pipeline", "--config", "{config.json}"], ["--out", "--report"]),
    "pipeline-naive": (["pipeline", "--config", "{config.json}", "--mode", "naive"], ["--out", "--report"]),
    "overfit-no-lp": (["experiment", "overfit", "--no-lp", "--m", "8", "--sample-n", "30", "--eval-n", "200",
                       "--seeds", "0:2"], ["--out"]),
    "baseline": (["experiment", "baseline", "--dist", "{mono.json}", "--n", "200", "--seeds", "0:2"], ["--out"]),
    "greedy-vs-opt-random": (["experiment", "greedy-vs-opt", "--seeds", "0:2"], ["--out"]),
    "greedy-vs-opt-file": (["experiment", "greedy-vs-opt", "--hitting-set", "{hs.txt}"], ["--out"]),
    "solve-lp-dump-lp": (["solve-lp", "--dist", "{dist.json}"], ["--out", "--dump-lp"]),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_exits_0_and_reruns_byte_identically(tmp_path, name):
    inputs = _subcommand_inputs(tmp_path)
    template, flags = SUBCOMMANDS[name]
    argv = [inputs.get(tok, tok) for tok in template]
    written = []
    for run in ("a", "b"):
        files = [tmp_path / f"{run}{flag}" for flag in flags]
        assert cli.main(argv + [x for flag, f in zip(flags, files) for x in (flag, str(f))]) == cli.EXIT_OK
        written.append([f.read_bytes() for f in files])
    assert all(written[0]) and written[1] == written[0]


def test_pipeline_report_counts_the_written_menu(tmp_path):
    inputs = _subcommand_inputs(tmp_path)
    out, report = tmp_path / "menu.json", tmp_path / "report.csv"
    argv = ["pipeline", "--config", inputs["{config.json}"], "--out", str(out), "--report", str(report)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [ln for ln in report.read_text().splitlines() if not ln.startswith("#")]
    assert rows == ["seed,menu_entries", f"2,{mf.load_menu(out).size}"]


@pytest.mark.parametrize("argv", [
    ["pipeline", "--config", "{missing}"],
    ["reduce-hitting-set", "--in", "{missing}", "--H", "4", "--k", "2"],
    ["round-menu", "--menu", "{missing}", "--epsilon", "0.1", "--H", "4"],
])
def test_missing_input_file_exits_4(tmp_path, argv):
    argv = [str(tmp_path / "nope.json") if tok == "{missing}" else tok for tok in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_IO == 4


def test_unknown_cover_kind_is_a_usage_error(tmp_path):
    inputs = _subcommand_inputs(tmp_path)
    argv = ["round-menu", "--menu", inputs["{menu.json}"], "--epsilon", "0.1", "--H", "4",
            "--cover-kind", "hexagonal", "--out", str(tmp_path / "r.json")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_solver_failure_exits_5(tmp_path, monkeypatch, capsys):
    def fail(lp, tol=1e-7):
        raise mf.LPError("LP solve failed: status=stub")

    monkeypatch.setattr(cli, "solve_lp", fail)
    inputs = _subcommand_inputs(tmp_path)
    out = tmp_path / "m.json"
    assert cli.main(["solve-lp", "--dist", inputs["{dist.json}"], "--out", str(out)]) == cli.EXIT_SOLVER == 5
    assert "status=stub" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize(
    "kind, lottery",
    [
        ("multiplicative", "nan,0.5"),
        ("additive", "inf,0"),
        ("multiplicative", "-0.5,0.5"),
        ("multiplicative", "0.9,0.9"),
        ("monotone_tail", "0.7,0.7"),
    ],
)
def test_cover_round_of_a_non_lottery_exits_3(tmp_path, capsys, kind, lottery):
    out = tmp_path / "y.json"
    argv = ["cover", "round", "--kind", kind, "--epsilon", "0.1", "--m", "2", "--H", "4",
            f"--lottery={lottery}", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION == 3
    assert "lottery" in capsys.readouterr().err and not out.exists()


def test_cover_round_accepts_a_lottery_within_the_mass_slack(capsys):
    argv = ["cover", "round", "--kind", "additive", "--epsilon", "0.1", "--m", "2", "--lottery=0.5,0.5000000001"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.count(",") == 1
