"""The menuforge command line at tiny sizes: printed results, written files
and exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import menuforge as mf
from menuforge import cli


def _evaluate_inputs(tmp_path, menu_m=2):
    dist = mf.ExplicitDistribution(np.array([[1.0, 2.0], [3.0, 0.5], [2.0, 2.0]]), np.array([0.5, 0.25, 0.25]))
    menu = mf.Menu([np.full(menu_m, 1.0 / menu_m), np.eye(menu_m)[0]], [1.25, 2.0])
    dist_path, menu_path = tmp_path / "dist.json", tmp_path / "menu.json"
    dist_path.write_text(json.dumps(dist.to_json_dict()))
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


def test_lowerbound_default_rows_are_pinned(tmp_path):
    # seed, lb_menu_revenue, item_baseline_revenue, ratio at m=30, H=8, K=20
    pinned = [
        [0, 2.2, 2.4, 0.91666666666666641],
        [1, 1.9, 2.0, 0.94999999999999984],
        [2, 1.65, 2.0, 0.82499999999999984],
        [3, 1.65, 2.0, 0.82499999999999996],
        [4, 2.55, 3.6, 0.70833333333333337],
        [5, 2.05, 2.4, 0.85416666666666652],
        [6, 2.1, 2.4, 0.87500000000000011],
        [7, 2.4, 3.2, 0.75000000000000022],
        [8, 1.75, 2.0, 0.87499999999999989],
        [9, 2.4, 3.2, 0.74999999999999989],
    ]
    rc, out = _lowerbound(tmp_path, "lb.csv")
    assert rc == cli.EXIT_OK
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "seed,lb_menu_revenue,item_baseline_revenue,ratio" and len(lines) == 1 + len(pinned)
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    for row, want in zip(rows, pinned):
        assert row == pytest.approx(want, rel=0, abs=1e-12)


def test_overfit_header_and_rows_are_pinned(tmp_path):
    # the columns are the seed, then OverfitReport's fields; --no-lp leaves lp_on_sample NaN
    out = tmp_path / "o.csv"
    argv = ["experiment", "overfit", "--no-lp", "--m", "8", "--sample-n", "30", "--eval-n", "200", "--seeds", "0:2"]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines == [
        "seed,naive_on_sample,naive_on_fresh,price1_on_fresh,lp_on_sample",
        "0,0.59999999999999998,0.5,0.63500000000000001,nan",
        "1,0.59999999999999998,0.59999999999999998,0.59999999999999998,nan",
    ]


def test_greedy_vs_opt_rows_are_pinned(tmp_path):
    # instance, greedy_revenue, oracle_revenue, ratio at m=24, 40 sets, k=4, H=4
    out = tmp_path / "g.csv"
    argv = ["experiment", "greedy-vs-opt", "--m", "24", "--n-sets", "40", "--k", "4", "--H", "4", "--seeds", "0:2"]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines == [
        "instance,greedy_revenue,oracle_revenue,ratio",
        "0,3.625,3.7000000000000002,0.97972972972972971",
        "1,3.8499999999999996,3.9249999999999998,0.98089171974522293",
    ]


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


def _baseline_rows(tmp_path, dist, *flags):
    """The header comments and the data rows of one ``experiment baseline`` CSV."""
    out = tmp_path / "baseline.csv"
    assert cli.main(["experiment", "baseline", "--dist", dist, *flags, "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    header = lines.index("seed,baseline_revenue,expected_max_value,guarantee")
    return lines[:header], lines[header + 1:]


def test_baseline_sampler_rows_are_pinned(tmp_path):
    # seed, baseline_revenue, expected_max_value, guarantee: monotone m=5, H=8, 200 draws per seed
    _, rows = _baseline_rows(tmp_path, _monotone(tmp_path), "--n", "200", "--seeds", "0:3")
    assert rows == [
        "0,3.9799999999999995,6.8747970242906309,1.1457995040484386",
        "1,3.9599999999999995,6.8492664134634769,1.1415444022439127",
        "2,3.9399999999999995,6.9066646427057306,1.1511107737842885",
    ]


_FOUR_POINT = {"type": "explicit", "params": {"support": [[1.0, 2.0], [3.0, 0.5], [2.0, 2.0], [1.5, 1.0]],
                                             "weights": [0.25, 0.25, 0.25, 0.25]}}


def test_baseline_explicit_rows_are_pinned(tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(_FOUR_POINT))
    # no draws, so one row, no seed and no draw count
    comments, rows = _baseline_rows(tmp_path, str(dist), "--seeds", "0:2")
    assert rows == [",1.5,2.125,0.53125"]
    assert not any(line.startswith("# n=") for line in comments)


def test_baseline_guarantee_leaves_out_buyers_valuing_everything_below_1(tmp_path):
    # no buyer reaches the lowest doubling price 1, so the baseline earns 0
    # and so must its guarantee, though the expected maximum value is 0.7
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"type": "explicit", "params": {
        "support": [[0.5, 0.2], [0.9, 0.4]], "weights": [0.5, 0.5]}}))
    _, rows = _baseline_rows(tmp_path, str(dist))
    _, baseline, emax, guarantee = rows[0].split(",")
    assert (float(baseline), float(emax), float(guarantee)) == (0.0, 0.7, 0.0)


def _baseline_peak_bytes(tmp_path, n, seeds):
    argv = ["experiment", "baseline", "--dist", _monotone(tmp_path), "--n", str(n), "--seeds", seeds,
            "--out", str(tmp_path / "peak.csv")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == cli.EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_baseline_frees_each_seeds_sample_before_the_next_draw(tmp_path):
    # the distribution copies its sample, so a loop that kept the last seed's
    # distribution while drawing the next would hold three samples at once
    n, m = 50_000, 5
    one = _baseline_peak_bytes(tmp_path, n, "0:1")
    six = _baseline_peak_bytes(tmp_path, n, "0:6")
    assert six - one < 0.25 * n * m * 8, (six - one) / (n * m * 8)


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


def _main_alone(argv):
    """Exit code, printed text and standard error of one command run in a
    process of its own, so with a parser nothing else has used."""
    script = ("import sys\nfrom menuforge import cli\n"
              "try:\n    rc = cli.main(sys.argv[1:])\nexcept SystemExit as exc:\n    rc = exc.code\n"
              "sys.exit(rc)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_the_parser_is_built_once_and_every_command_reads_only_its_own_line(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    config = _subcommand_inputs(tmp_path)["{config.json}"]
    commands = [
        ["pipeline", "--config", config, "--t", "5", "--out", "{dir}/t5.json", "--report", "{dir}/t5.csv"],
        ["pipeline", "--config", config, "--out", "{dir}/t.json", "--report", "{dir}/t.csv"],
        ["pipeline", "--config", config, "--epsilon", "0.2", "--out", "{dir}/usage.json"],
        ["experiment", "lowerbound", "--seeds", "0:3", "--out", "{dir}/lb.csv"],
    ]
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir(), alone.mkdir()

    def in_process(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out.replace(str(together), str(alone)), captured.err

    got = [in_process([tok.replace("{dir}", str(together)) for tok in argv]) for argv in commands]
    want = [_main_alone([tok.replace("{dir}", str(alone)) for tok in argv]) for argv in commands]
    assert [rc for rc, _, _ in want] == [0, 0, 2, 0] and got == want
    files = sorted(p.name for p in alone.iterdir())
    assert files == sorted(p.name for p in together.iterdir()) == ["lb.csv", "t.csv", "t.json", "t5.csv", "t5.json"]
    assert all((together / name).read_bytes() == (alone / name).read_bytes() for name in files)


def test_lowerbound_without_enough_sparse_sets_exits_6(tmp_path, capsys):
    # at m=6 at most 3 pairwise-disjoint 2-sets exist
    rc, out = _lowerbound(tmp_path, "lb.csv", "--m", "6", "--K", "4", "--seeds", "0:1")
    assert rc == cli.EXIT_INFEASIBLE == 6
    assert "accepted only 3 of 4 points" in capsys.readouterr().err
    assert not out.exists()


def test_greedy_vs_opt_past_the_oracle_budget_exits_6(tmp_path, capsys):
    out = tmp_path / "g.csv"
    argv = ["experiment", "greedy-vs-opt", "--m", "40", "--k", "20", "--n-sets", "2", "--seeds", "0:1"]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_INFEASIBLE == 6
    assert "C(40,20) exceeds budget 1000000" in capsys.readouterr().err
    assert not out.exists()


_TINY_CONFIG = {"dist": {"type": "monotone_uniform", "params": {"m": 2, "H": 4.0}}, "t": 5, "epsilon": 0.1,
                "H": 4.0}


def _malformed(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    return str(path)


# each distribution type's required "params" fields, at values a baseline run accepts
_REQUIRED_PARAMS = {
    "explicit": {"support": [[1.0, 2.0]], "weights": [1.0]},
    "overfit": {"m": 4, "delta": 0.1},
    "equal_revenue": {"m": 6, "H": 4.0},
    "sparse_subsample": {"m": 6, "H": 4.0, "K": 2},
    "monotone_uniform": {"m": 2, "H": 4.0},
}


@pytest.mark.parametrize("kind, field", [(kind, f) for kind, params in _REQUIRED_PARAMS.items() for f in params])
def test_distribution_without_a_required_params_field_exits_3_naming_it(tmp_path, capsys, kind, field):
    out = tmp_path / "b.csv"

    def baseline(params) -> int:
        dist = _malformed(tmp_path, json.dumps({"type": kind, "params": params}))
        return cli.main(["experiment", "baseline", "--dist", dist, "--n", "20", "--seeds", "0:1", "--out", str(out)])

    assert baseline(_REQUIRED_PARAMS[kind]) == cli.EXIT_OK
    out.unlink()
    capsys.readouterr()
    assert baseline({k: v for k, v in _REQUIRED_PARAMS[kind].items() if k != field}) == cli.EXIT_VALIDATION
    assert f'{kind} distribution params lacks the field "{field}"' in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_menu_declaring_a_huge_m_exits_3_naming_the_entry(tmp_path, capsys):
    _, _, argv = _evaluate_inputs(tmp_path)
    argv[argv.index("--menu") + 1] = _malformed(
        tmp_path, json.dumps({"m": 10**13, "entries": [{"lottery": [0.5, 0.5], "price": 1.0}]}))
    out = tmp_path / "rev.json"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_VALIDATION
    assert "entry 0 has a lottery of shape (2,), menu declares m=10000000000000" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_empty_menu_declaring_more_items_than_an_array_holds_exits_3_naming_m(tmp_path, capsys):
    _, _, argv = _evaluate_inputs(tmp_path)
    argv[argv.index("--menu") + 1] = _malformed(tmp_path, json.dumps({"m": 2**62, "entries": []}))
    out = tmp_path / "rev.json"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_VALIDATION
    assert f'menu field "m" is {2**62}, more items than a NumPy array can hold' in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_epsilon_too_fine_to_round_exits_3_naming_the_configs_epsilon_and_H(tmp_path, capsys):
    config = {"dist": {"type": "monotone_uniform", "params": {"m": 2, "H": 8.0}}, "t": 10, "epsilon": 1e-8,
              "H": 8.0, "cover_kind": "monotone_tail"}
    out = tmp_path / "menu.json"
    assert cli.main(["pipeline", "--config", _malformed(tmp_path, json.dumps(config)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "the pipeline's epsilon=1e-08 and H=8.0 give the rounding resolution" in err
    assert f"(epsilon / ceil(log2 H))^2 = {(1e-8 / 3) ** 2}" in err and not out.exists()


def test_pipeline_config_field_a_flag_replaces_is_still_checked(tmp_path, capsys):
    config = {"dist": {"type": "monotone_uniform", "params": {"m": 2, "H": 4.0}}, "t": 2.5, "epsilon": 0.1,
              "H": 4.0}
    out = tmp_path / "menu.json"
    argv = ["pipeline", "--config", _malformed(tmp_path, json.dumps(config)), "--t", "20", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert 'field "t": 2.5 is not an integer' in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("argv", [
    ["cover", "enumerate", "--kind", "multiplicative", "--epsilon", "1e-17", "--m", "2", "--H", "4"],
    ["cover", "round", "--kind", "monotone_tail", "--epsilon", "1e-17", "--m", "2", "--H", "4",
     "--lottery", "0.2,0.3"],
    ["round-menu", "--menu", "{menu.json}", "--epsilon", "1e-17", "--H", "4"],
    # the rounding resolution (epsilon / ceil(log2 H))^2 is about 1.1e-17
    ["pipeline", "--config", "{tiny-epsilon.json}"],
], ids=["cover-enumerate", "cover-round", "round-menu", "pipeline"])
def test_an_epsilon_whose_complement_rounds_to_1_exits_3(tmp_path, capsys, argv):
    inputs = _subcommand_inputs(tmp_path)
    config = {"dist": {"type": "monotone_uniform", "params": {"m": 2, "H": 8.0}}, "t": 10, "epsilon": 1e-8,
              "H": 8.0, "cover_kind": "monotone_tail"}
    inputs["{tiny-epsilon.json}"] = _malformed(tmp_path, json.dumps(config))
    out = tmp_path / "out.json"
    assert cli.main([inputs.get(tok, tok) for tok in argv] + ["--out", str(out)]) == cli.EXIT_VALIDATION
    assert "1 - epsilon rounds to 1" in capsys.readouterr().err and not out.exists()


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
    for text, named in (("[1, 2]", "JSON object"), (json.dumps({**_TINY_CONFIG, "t": [5]}), '"t"')):
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
    for field, value in (("t", 25.7), ("seed", 1.5), ("seed", True), ("t", "5")):
        config = _malformed(tmp_path, json.dumps({**_TINY_CONFIG, field: value}))
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
    "config": _TINY_CONFIG,
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
    config = _malformed(tmp_path, json.dumps(
        {"dist": dist, "t": 4, "epsilon": 0.1, "H": 4.0, "cover_kind": "monotone_tail"}))
    out = tmp_path / "menu.json"
    argv = ["pipeline", "--config", config, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "decreasing" in capsys.readouterr().err and not out.exists()


def test_empty_seed_list_exits_3(tmp_path):
    out = tmp_path / "lb.csv"
    assert cli.main(["experiment", "lowerbound", "--seeds", ",", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("spec", ["a:b", "3:", "1,x", "-3:-1", "2,-1"])
def test_malformed_seeds_exit_3_quoting_the_spec(tmp_path, capsys, spec):
    out = tmp_path / "lb.csv"
    # "--seeds=" so that argparse reads a leading "-" as part of the value
    assert cli.main(["experiment", "lowerbound", f"--seeds={spec}", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert f"--seeds {spec!r}" in capsys.readouterr().err and not out.exists()


def _subcommand_inputs(tmp_path):
    """Tiny input files for the subcommand cases, keyed by placeholder."""
    names = ("menu.json", "dist.json", "mono.json", "config.json", "naive.json", "hs.txt")
    paths = {name: tmp_path / name for name in names}
    mf.save_menu(mf.Menu([[0.5, 0.5], [1.0, 0.0], [0.3, 0.6]], [1.25, 2.0, 3.7]), paths["menu.json"])
    dist = mf.ExplicitDistribution(np.array([[1.0, 2.0], [3.0, 0.5], [2.0, 2.0]]), np.full(3, 1 / 3))
    paths["dist.json"].write_text(json.dumps(dist.to_json_dict()))
    mono = {"type": "monotone_uniform", "params": {"m": 3, "H": 8.0}, "seed": 3}
    paths["mono.json"].write_text(json.dumps(mono))
    config = {"dist": mono, "t": 12, "epsilon": 0.1, "H": 8.0, "cover_kind": "monotone_tail", "seed": 2}
    paths["config.json"].write_text(json.dumps(config))
    paths["naive.json"].write_text(json.dumps({**config, "mode": "naive"}))
    paths["hs.txt"].write_text("6 4\n1 2\n2 3 4\n5\n1 6\n")
    return {"{" + name + "}": str(path) for name, path in paths.items()}


SUBCOMMANDS = {
    "round-menu": (["round-menu", "--menu", "{menu.json}", "--epsilon", "0.1", "--H", "4"], ["--out"]),
    "cover-enumerate": (["cover", "enumerate", "--kind", "monotone_tail", "--epsilon", "0.3", "--m", "3",
                         "--H", "2"], ["--out"]),
    "cover-enumerate-additive": (["cover", "enumerate", "--kind", "additive", "--epsilon", "0.5", "--m", "2"],
                                 ["--out"]),
    "cover-round": (["cover", "round", "--kind", "multiplicative", "--epsilon", "0.1", "--m", "3", "--H", "4",
                     "--lottery", "0.2,0.3,0.4"], ["--out"]),
    "reduce-hitting-set": (["reduce-hitting-set", "--in", "{hs.txt}", "--H", "4"], ["--out"]),
    "pipeline-sample-and-round": (["pipeline", "--config", "{config.json}"], ["--out", "--report"]),
    "pipeline-naive": (["pipeline", "--config", "{naive.json}"], ["--out", "--report"]),
    "overfit-no-lp": (["experiment", "overfit", "--no-lp", "--m", "8", "--sample-n", "30", "--eval-n", "200",
                       "--seeds", "0:2"], ["--out"]),
    "overfit-lp": (["experiment", "overfit", "--m", "8", "--sample-n", "30", "--eval-n", "200", "--seeds", "0:2"],
                   ["--out"]),
    "baseline": (["experiment", "baseline", "--dist", "{mono.json}", "--n", "200", "--seeds", "0:2"], ["--out"]),
    "greedy-vs-opt-random": (["experiment", "greedy-vs-opt", "--seeds", "0:2"], ["--out"]),
    "greedy-vs-opt-file": (["experiment", "greedy-vs-opt", "--hitting-set", "{hs.txt}"], ["--out"]),
    "solve-lp": (["solve-lp", "--dist", "{dist.json}"], ["--out"]),
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


_CONFIG = ["pipeline", "--config", "{config.json}"]
_ROUND_MENU = ["round-menu", "--menu", "{menu.json}", "--epsilon", "0.1", "--H", "4"]


@pytest.mark.parametrize("argv, flag, value", [
    # the LP runs at one fixed accuracy and is exported only as MenuLP's scipy form
    pytest.param(["solve-lp", "--dist", "{dist.json}"], "--tol", "1e-7", id="solve-lp-tol"),
    pytest.param(["solve-lp", "--dist", "{dist.json}"], "--dump-lp", "{lp.txt}", id="solve-lp-dump-lp"),
    # the level width is sqrt(epsilon); the cover kinds are the certified ones
    pytest.param(_ROUND_MENU, "--delta", "0.5", id="round-menu-delta"),
    pytest.param(_ROUND_MENU, "--cover-kind", "hexagonal", id="round-menu-unknown-cover-kind"),
    # the budget k belongs to a MAXREV problem, not to the valuations the command writes
    pytest.param(["reduce-hitting-set", "--in", "{hs.txt}", "--H", "4"], "--k", "1", id="reduce-hitting-set-k"),
    # the command enumerates within enumerate_cover's fixed budget
    pytest.param(["cover", "enumerate", "--kind", "additive", "--epsilon", "0.5", "--m", "2"], "--budget", "10",
                 id="cover-enumerate-budget"),
    # the doubling prices stop at each scored distribution's own largest value
    pytest.param(["experiment", "baseline", "--dist", "{mono.json}", "--seeds", "0"], "--H", "4", id="baseline-H"),
    # a pipeline run is read from its config; only --t and --seed override it
    pytest.param(_CONFIG, "--dist", "{mono.json}", id="pipeline-dist"),
    pytest.param(_CONFIG, "--epsilon", "0.1", id="pipeline-epsilon"),
    pytest.param(_CONFIG, "--H", "8", id="pipeline-H"),
    pytest.param(_CONFIG, "--cover-kind", "multiplicative", id="pipeline-cover-kind"),
    pytest.param(_CONFIG, "--mode", "naive", id="pipeline-mode"),
])
def test_a_flag_the_command_does_not_take_exits_2_and_writes_nothing(tmp_path, capsys, argv, flag, value):
    inputs = {**_subcommand_inputs(tmp_path), "{lp.txt}": str(tmp_path / "lp.txt")}
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        cli.main([inputs.get(tok, tok) for tok in argv + [flag, value]] + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2 and flag in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("source", ["4-point", "4-point-each-thrice", "reduce-hitting-set"])
def test_each_menu_solve_lp_writes_earns_its_printed_objective_under_evaluate(tmp_path, capsys, source):
    # the spread support's case is test_lp's test_spread_support_runs_through_solve_lp_and_evaluate
    dist, menu = tmp_path / "lp-dist.json", tmp_path / "lp-menu.json"
    if source == "reduce-hitting-set":
        hs = _subcommand_inputs(tmp_path)["{hs.txt}"]
        assert cli.main(["reduce-hitting-set", "--in", hs, "--H", "4", "--out", str(dist)]) == cli.EXIT_OK
    elif source == "4-point-each-thrice":
        support = _FOUR_POINT["params"]["support"] * 3
        dist.write_text(json.dumps({"type": "explicit", "params": {"support": support, "weights": [1 / 12] * 12}}))
    else:
        dist.write_text(json.dumps(_FOUR_POINT))
    assert cli.main(["solve-lp", "--dist", str(dist), "--out", str(menu)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--menu", str(menu), "--dist", str(dist)]) == cli.EXIT_OK
    lp, ev = (line.split() for line in capsys.readouterr().out.splitlines()[-2:])
    assert lp[0] == "objective" and ev[0] == "expected_revenue"
    assert float(ev[1]) >= float(lp[1]) - 1e-7
    if source == "4-point-each-thrice":
        # repeated support points are one type: the LP is the 4-point form's
        four = tmp_path / "four.json"
        four.write_text(json.dumps(_FOUR_POINT))
        assert cli.main(["solve-lp", "--dist", str(four), "--out", str(tmp_path / "four-menu.json")]) == cli.EXIT_OK
        assert capsys.readouterr().out.split() == lp


def test_a_sparse_subsample_description_and_its_explicit_form_give_the_same_solve_lp_bytes(tmp_path):
    spread = {"type": "sparse_subsample", "params": {"m": 30, "H": 64.0, "K": 20}, "seed": 1}
    written = []
    for name, dist in (("described", spread), ("explicit", mf.distribution_from_json(spread).to_json_dict())):
        path, menu = tmp_path / f"{name}.json", tmp_path / f"{name}-menu.json"
        path.write_text(json.dumps(dist))
        assert cli.main(["solve-lp", "--dist", str(path), "--out", str(menu)]) == cli.EXIT_OK
        written.append(menu.read_bytes())
    assert written[1] == written[0]


def test_round_menu_writes_a_menu_evaluate_scores(tmp_path, capsys):
    inputs = _subcommand_inputs(tmp_path)
    rounded = tmp_path / "rounded.json"
    assert cli.main([inputs.get(tok, tok) for tok in _ROUND_MENU] + ["--out", str(rounded)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--menu", str(rounded), "--dist", inputs["{dist.json}"]]) == cli.EXIT_OK
    words = capsys.readouterr().out.splitlines()[-1].split()
    want = mf.expected_revenue(mf.load_menu(rounded), mf.load_distribution(inputs["{dist.json}"]))
    assert words[0] == "expected_revenue" and float(words[1]) == want > 0


@pytest.mark.parametrize("argv", [
    pytest.param(_CONFIG + ["--t", "1000000000000000"], id="pipeline-t"),
    pytest.param(["experiment", "baseline", "--dist", "{mono.json}", "--n", "1000000000000000"], id="baseline-n"),
    pytest.param(["experiment", "overfit", "--no-lp", "--sample-n", "1000000000000000", "--seeds", "0"],
                 id="overfit-sample-n"),
])
def test_an_input_too_large_to_allocate_exits_3_without_a_traceback(tmp_path, capsys, argv):
    # 10^15 rows of float64 exceed any address space, so the first allocation fails at once
    inputs = _subcommand_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main([inputs.get(tok, tok) for tok in argv] + ["--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()


def test_pipeline_dist_given_as_a_path_exits_3_naming_dist(tmp_path, capsys):
    inputs = _subcommand_inputs(tmp_path)
    config = json.loads(Path(inputs["{config.json}"]).read_text())
    path = _malformed(tmp_path, json.dumps({**config, "dist": inputs["{mono.json}"]}))
    out = tmp_path / "out.json"
    assert cli.main(["pipeline", "--config", path, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert 'field "dist": distribution must be a JSON object' in capsys.readouterr().err and not out.exists()


def test_reduce_hitting_set_output_is_the_explicit_distribution_solve_lp_and_evaluate_read(tmp_path):
    inputs = _subcommand_inputs(tmp_path)  # hs.txt: 4 sets over m=6, 1-based
    dist, menu = tmp_path / "dist.json", tmp_path / "menu.json"
    argv = ["reduce-hitting-set", "--in", inputs["{hs.txt}"], "--H", "4", "--out", str(dist)]
    assert cli.main(argv) == cli.EXIT_OK
    want = mf.hitting_set_valuations(mf.load_hitting_set(inputs["{hs.txt}"], H=4.0))
    assert json.loads(dist.read_text()) == want.to_json_dict()  # no "k": no reader reads one
    assert cli.main(["solve-lp", "--dist", str(dist), "--out", str(menu)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--menu", str(menu), "--dist", str(dist)]) == cli.EXIT_OK


def test_pipeline_report_counts_the_written_menu(tmp_path):
    inputs = _subcommand_inputs(tmp_path)
    out, report = tmp_path / "menu.json", tmp_path / "report.csv"
    argv = ["pipeline", "--config", inputs["{config.json}"], "--out", str(out), "--report", str(report)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [ln for ln in report.read_text().splitlines() if not ln.startswith("#")]
    assert rows == ["seed,menu_entries", f"2,{mf.load_menu(out).size}"]


@pytest.mark.parametrize("H", ["inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["round-menu", "--menu", "{menu.json}", "--epsilon", "0.1", "--out", "{out}"],
    ["cover", "enumerate", "--kind", "monotone_tail", "--epsilon", "0.1", "--m", "2", "--out", "{out}"],
    ["cover", "round", "--kind", "multiplicative", "--epsilon", "0.1", "--m", "3", "--lottery", "0.2,0.3,0.4"],
    ["cover", "enumerate", "--kind", "additive", "--epsilon", "0.1", "--m", "2", "--out", "{out}"],
    ["experiment", "lowerbound", "--seeds", "0", "--out", "{out}"],
    ["experiment", "greedy-vs-opt", "--seeds", "0", "--out", "{out}"],
    ["reduce-hitting-set", "--in", "{hs.txt}", "--out", "{out}"],
])
def test_a_non_finite_H_exits_3_naming_H(tmp_path, capsys, argv, H):
    inputs = _subcommand_inputs(tmp_path)
    out = tmp_path / "out"
    inputs["{out}"] = str(out)
    assert cli.main([inputs.get(tok, tok) for tok in argv] + ["--H", H]) == cli.EXIT_VALIDATION
    assert f"H must be finite, not {H}" in capsys.readouterr().err and not out.exists()


def test_baseline_guarantee_uses_each_seeds_largest_value(tmp_path):
    # monotone m=3 draws on [1, 8]: each seed's largest value lies in (4, 8), so 3 doubling bands
    inputs = _subcommand_inputs(tmp_path)
    comments, rows = _baseline_rows(tmp_path, inputs["{mono.json}"], "--n", "50", "--seeds", "0:3")
    assert "# n=50" in comments and not any(line.startswith("# H=") for line in comments)
    assert len(rows) == 3
    for row in rows:
        _, _, emax, guarantee = map(float, row.split(","))
        assert guarantee == emax / (2.0 * 3)


def test_baseline_on_the_overfit_sampler_reaches_its_guarantee(tmp_path):
    # values 0-2 at m=64: most buyers value some item at 2, the top doubling price
    dist = _malformed(tmp_path, json.dumps({"type": "overfit", "params": {"m": 64, "delta": 0.1}}))
    _, rows = _baseline_rows(tmp_path, dist, "--n", "20000", "--seeds", "0:2")
    assert len(rows) == 2
    for row in rows:
        _, revenue, _, guarantee = map(float, row.split(","))
        assert revenue >= guarantee > 0


@pytest.mark.parametrize("flag, value, message", [
    ("--m", "0", "m must be at least 1"),
    ("--m", "-3", "m must be at least 1"),
    ("--n-sets", "0", "set family is empty"),
    ("--k", "0", "k must be at least 1"),
    ("--H", "1", "H must exceed 1"),
    ("--H", "1.000001", "low=1.0 and high=1.000001 are too close to tell apart"),
])
def test_greedy_vs_opt_argument_out_of_range_exits_3_naming_it(tmp_path, capsys, flag, value, message):
    out = tmp_path / "g.csv"
    argv = ["experiment", "greedy-vs-opt", "--seeds", "0", flag, value, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err and not out.exists()


def test_greedy_vs_opt_from_a_file_echoes_the_instance(tmp_path):
    inputs = _subcommand_inputs(tmp_path)  # hs.txt: 4 sets over m=6
    out = tmp_path / "g.csv"
    argv = ["experiment", "greedy-vs-opt", "--hitting-set", inputs["{hs.txt}"], "--m", "0", "--n-sets", "99"]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    header = out.read_text().splitlines()
    assert "# m=6" in header and "# n_sets=4" in header


@pytest.mark.parametrize("flag, name", [("--sample-n", "sample_n"), ("--eval-n", "eval_n")])
def test_overfit_draw_count_of_0_exits_3_naming_it(tmp_path, capsys, monkeypatch, flag, name):
    def no_draws(self, n, rng):
        raise AssertionError("drew before checking the draw counts")

    monkeypatch.setattr(mf.OverfitProductSampler, "_draw", no_draws)
    out = tmp_path / "o.csv"
    argv = ["experiment", "overfit", "--no-lp", "--m", "8", "--seeds", "0", flag, "0", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert f"{name} must be at least 1" in capsys.readouterr().err and not out.exists()


def test_round_menu_checks_the_prices_against_H(tmp_path, capsys):
    inputs = _subcommand_inputs(tmp_path)  # its menu's top price is 3.7
    out = tmp_path / "r.json"
    argv = ["round-menu", "--menu", inputs["{menu.json}"], "--epsilon", "0.1", "--out", str(out)]
    assert cli.main(argv + ["--H", "3"]) == cli.EXIT_VALIDATION == 3
    assert "exceeds H=3.0" in capsys.readouterr().err and not out.exists()
    assert cli.main(argv + ["--H", "4"]) == cli.EXIT_OK


def test_round_menu_drops_a_zero_entry_as_evaluate_reads_it(tmp_path, capsys):
    # a price-0 entry holds the zero lottery, which the implicit zero entry repeats
    inputs = _subcommand_inputs(tmp_path)
    menu = mf.load_menu(inputs["{menu.json}"])
    with_zero = tmp_path / "with_zero.json"
    mf.save_menu(mf.Menu(np.vstack((menu.lotteries, [0.0, 0.0])), np.append(menu.prices, 0.0)), with_zero)
    rounded = {}
    for name, path in (("plain", inputs["{menu.json}"]), ("with_zero", str(with_zero))):
        out = tmp_path / f"{name}-rounded.json"
        argv = ["round-menu", "--menu", path, "--epsilon", "0.1", "--H", "4", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        rounded[name] = out.read_bytes()
        assert cli.main(["evaluate", "--menu", path, "--dist", inputs["{dist.json}"]]) == cli.EXIT_OK
    assert rounded["with_zero"] == rounded["plain"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "entries 3 -> 3" and printed[2] == "entries 4 -> 3" and printed[1] == printed[3]


def test_round_menu_at_epsilon_0_exits_3_naming_epsilon(tmp_path, capsys):
    inputs = _subcommand_inputs(tmp_path)
    out = tmp_path / "r.json"
    argv = ["round-menu", "--menu", inputs["{menu.json}"], "--epsilon", "0", "--H", "4", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "epsilon must lie in (0, 1)" in capsys.readouterr().err and not out.exists()


def _hitting_set_file(text, message, name):
    argv = ["reduce-hitting-set", "--in", "{bad}", "--H", "4"]
    return pytest.param(argv, text, message, id=name)


def _json_dist(dist, message, name):
    return pytest.param(["evaluate", "--menu", "{menu.json}", "--dist", "{bad}"], json.dumps(dist), message, id=name)


@pytest.mark.parametrize("argv, text, message", [
    _hitting_set_file("", "empty hitting-set file", "hitting-set-empty-file"),
    _hitting_set_file("6\n1 2\n", 'first line must be "m n"', "hitting-set-bad-header"),
    _hitting_set_file("3 2\n1 2\n", "header declares 2 sets, file has 1", "hitting-set-count"),
    _hitting_set_file("3 1\n2 2\n", "duplicate item inside a set", "hitting-set-duplicate-item"),
    _hitting_set_file("3 1\n1 4\n", "item 4 lies outside the items 1..3", "hitting-set-item-out-of-range"),
    _hitting_set_file("x 2\n1\n2\n", "line 1: 'x' is not an integer", "hitting-set-header-not-an-integer"),
    _hitting_set_file("# two sets\n3 2\n\n1 a\n3\n", "line 4: 'a' is not an integer",
                      "hitting-set-item-not-an-integer"),
    _json_dist({"type": "gaussian", "params": {}}, "unknown distribution type 'gaussian'", "unknown-dist-type"),
    _json_dist({"type": "hitting_set", "params": {"sets": [[0, 1], [2]], "m": 3, "H": 4.0}},
               "unknown distribution type 'hitting_set'", "hitting-set-dist-type"),
    _json_dist({"type": "explicit", "params": {"support": [[1.0, 2.0]], "weights": [1.0]}, "Tag": "monotone"},
               'distribution has the unknown field "Tag"', "dist-unknown-field"),
    _json_dist({"type": "explicit", "params": {"support": [[1.0, 2.0]], "weights": [1.0], "Tag": "monotone"}},
               'explicit distribution params has the unknown field "Tag"', "dist-params-unknown-field"),
    pytest.param(["cover", "enumerate", "--kind", "additive", "--epsilon", "0.1", "--m", "0"], "",
                 "m must be at least 1", id="cover-enumerate-m-0"),
    # the count would have about 127,876 digits, more than Python prints
    pytest.param(["cover", "enumerate", "--kind", "multiplicative", "--epsilon", "0.5", "--m", "100000"], "",
                 "m=100000", id="cover-enumerate-count-too-long"),
    pytest.param(["experiment", "lowerbound", "--K", "0", "--seeds", "0"], "", "K must be at least 1",
                 id="lowerbound-K-0"),
    pytest.param(["evaluate", "--menu", "{menu.json}", "--dist", "{mono.json}"], "",
                 "does not describe an explicit distribution", id="evaluate-sampler"),
    pytest.param(["cover", "round", "--kind", "multiplicative", "--epsilon", "0.1", "--m", "2",
                  "--lottery", "0.2,0.3,0.4"], "", "lottery has 3 coordinates, spec says m=2", id="cover-round-m"),
    pytest.param(["cover", "round", "--kind", "multiplicative", "--epsilon", "0.1", "--m", "2",
                  "--lottery", "0.5,x"], "", "--lottery '0.5,x': 'x' is not a number", id="cover-round-lottery-token"),
    pytest.param(["evaluate", "--menu", "{bad}", "--dist", "{dist.json}"], '{"m": 2, "entries": {}}',
                 'menu field "entries" must be a list', id="menu-entries-not-a-list"),
    pytest.param(["evaluate", "--menu", "{bad}", "--dist", "{dist.json}"], '{"m": 2}',
                 'menu lacks the field "entries"', id="menu-without-entries"),
    pytest.param(["evaluate", "--menu", "{bad}", "--dist", "{dist.json}"],
                 '{"m": 2, "Entries": [{"lottery": [1.0, 0.0], "price": 1.5}]}',
                 'menu has the unknown field "Entries"', id="menu-unknown-field"),
    pytest.param(["evaluate", "--menu", "{bad}", "--dist", "{dist.json}"],
                 '{"m": 2, "entries": [{"lottery": [1.0, 0.0], "price": 1.5, "prices": 2.0}]}',
                 'menu entry 0 has the unknown field "prices"', id="menu-entry-unknown-field"),
    pytest.param(["evaluate", "--menu", "{bad}", "--dist", "{dist.json}"],
                 '{"m": 2, "entries": [{"lottery": [0.6, 0.5], "price": 1.5}]}',
                 "lottery mass 1.1 exceeds 1", id="menu-lottery-mass"),
    pytest.param(["evaluate", "--menu", "{bad}", "--dist", "{dist.json}"], '{"m": 2,',
                 "Expecting property name", id="menu-not-json"),
    # NumPy's generators take no negative seed, wherever a seed is read from
    pytest.param(["pipeline", "--config", "{bad}"], json.dumps({**_TINY_CONFIG, "seed": -1}),
                 'field "seed": -1 is not a nonnegative integer', id="negative-config-seed"),
    pytest.param(["pipeline", "--config", "{config.json}", "--seed=-1"], "",
                 "--seed: -1 is not a nonnegative integer", id="negative-seed-flag"),
    pytest.param(["experiment", "baseline", "--dist", "{bad}", "--n", "20", "--seeds", "0"],
                 json.dumps({"type": "monotone_uniform", "params": {"m": 2, "H": 4.0}, "seed": -1}),
                 'distribution field "seed": -1 is not a nonnegative integer', id="negative-sampler-seed"),
    pytest.param(["solve-lp", "--dist", "{bad}"],
                 json.dumps({"type": "sparse_subsample", "params": {"m": 6, "H": 4.0, "K": 2}, "seed": -1}),
                 'distribution field "seed": -1 is not a nonnegative integer', id="negative-sparse-subsample-seed"),
])
def test_malformed_input_exits_3_naming_the_fault(tmp_path, capsys, argv, text, message):
    inputs = {**_subcommand_inputs(tmp_path), "{bad}": _malformed(tmp_path, text)}
    out = tmp_path / "out"
    assert cli.main([inputs.get(tok, tok) for tok in argv] + ["--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and not out.exists()
    if "{bad}" in argv:  # a malformed file is named once, before the fault
        assert err.startswith(f"error: {inputs['{bad}']}: ") and err.count(inputs["{bad}"]) == 1


@pytest.mark.parametrize("argv", [
    ["pipeline", "--config", "{missing}"],
    ["reduce-hitting-set", "--in", "{missing}", "--H", "4"],
    ["round-menu", "--menu", "{missing}", "--epsilon", "0.1", "--H", "4"],
])
def test_missing_input_file_exits_4(tmp_path, argv):
    argv = [str(tmp_path / "nope.json") if tok == "{missing}" else tok for tok in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_IO == 4


def test_solver_failure_exits_5(tmp_path, monkeypatch, capsys):
    def fail(lp):
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
