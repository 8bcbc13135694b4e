"""Command-line front door.

One process per run, validate-then-run (no partial outputs), reruns with
identical configuration produce byte-identical artifacts.  Numbers are
written with 17 significant digits and '.' decimals regardless of locale.
Experiment subcommands emit CSV with one row per seed; the run
configuration is echoed into every CSV as leading comment lines.
Experiments run their seeds in order, one after another.  Each row depends
only on its seed and the configuration, so a long sweep can be split into
processes over disjoint ``--seeds`` ranges whose data rows, concatenated,
are the rows of the whole range.

Exit codes: 0 success, 2 usage, 3 validation, 4 I/O, 5 solver failure,
6 infeasible construction or exhausted combinatorial budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .core import (
    ValidationError,
    expected_revenue,
    json_field,
    json_float,
    json_int,
    load_menu,
    save_menu,
)
from .covers import CoverSpec, enumerate_cover, round_lottery
from .distributions import (
    ExplicitDistribution,
    ExplicitSampler,
    HittingSetInstance,
    IntersectionPropertyError,
    Sampler,
    distribution_from_json,
    expected_max_value,
    explicit_from_samples,
    load_distribution,
    load_hitting_set,
)
from .lp import BudgetExceededError, LPError, build_lp, dump_lp, extract_menu, solve_lp
from .maxrev import brute_force_k_menu, greedy_k_item_menu, reduce_hitting_set
from .pipeline import (
    PipelineConfig,
    item_pricing_baseline,
    lower_bound_experiment,
    overfit_experiment,
    sample_and_round,
)
from .rounding import RoundingParams, round_menu

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_SOLVER = 5
EXIT_INFEASIBLE = 6


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _parse_seeds(spec: str) -> list[int]:
    spec = spec.strip()
    if ":" in spec:
        a, b = spec.split(":", 1)
        lo, hi = int(a), int(b)
        if hi <= lo:
            raise ValidationError(f"empty seed range {spec!r}")
        return list(range(lo, hi))
    seeds = [int(tok) for tok in spec.split(",") if tok]
    if not seeds:
        raise ValidationError(f"no seeds in {spec!r}")
    return seeds


def _write_json(path: str, obj) -> None:
    text = json.dumps(obj, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, config: dict, columns: list[str], rows: list[list]) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in sorted(config.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_experiment(args, name: str, config: dict, columns: list[str], rows: list[list]) -> int:
    """Write an experiment's CSV to ``args.out``, echoing ``config`` plus the
    experiment name and the package version."""
    _write_csv(args.out, {**config, "experiment": name, "version": __version__}, columns, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _load_dist_arg(path: str) -> ExplicitDistribution:
    obj = load_distribution(path)
    if not isinstance(obj, ExplicitDistribution):
        raise ValidationError(f"{path} does not describe an explicit distribution")
    return obj


def _cmd_evaluate(args) -> int:
    menu = load_menu(args.menu)
    dist = _load_dist_arg(args.dist)
    rev = expected_revenue(menu, dist)
    if args.out:
        _write_json(args.out, {"expected_revenue": rev})
    print(f"expected_revenue {_fmt(rev)}")
    return EXIT_OK


def _cmd_solve_lp(args) -> int:
    dist = _load_dist_arg(args.dist)
    lp = build_lp(dist)
    sol = solve_lp(lp, tol=args.tol)
    menu = extract_menu(sol)
    save_menu(menu, args.out)
    if args.dump_lp:
        with open(args.dump_lp, "w", encoding="utf-8") as fh:
            dump_lp(lp, fh)
    print(
        f"objective {_fmt(sol.objective)} entries {menu.size} "
        f"rounds {sol.rounds} ic_rows_kept {sol.ic_rows_kept} ic_rows_purged {sol.ic_rows_purged}"
    )
    return EXIT_OK


def _cmd_round_menu(args) -> int:
    menu = load_menu(args.menu)
    params = RoundingParams(
        epsilon=args.epsilon, H=args.H, delta=args.delta, cover_kind=args.cover_kind
    )
    rounded = round_menu(menu, params)
    save_menu(rounded, args.out)
    print(f"entries {menu.size} -> {rounded.size}")
    return EXIT_OK


def _cover_spec(args) -> CoverSpec:
    return CoverSpec(kind=args.kind, epsilon=args.epsilon, m=args.m, H=args.H)


def _cmd_cover_enumerate(args) -> int:
    enum = enumerate_cover(_cover_spec(args), budget=args.budget)
    payload: dict = {"count": enum.count, "exact_count": enum.exact_count}
    if enum.lotteries is None:
        payload["lotteries"] = None
    else:
        payload["lotteries"] = [[float(v) for v in row] for row in enum.lotteries]
    if args.out:
        _write_json(args.out, payload)
    print(f"count {enum.count} exact {enum.exact_count}")
    return EXIT_OK


def _cmd_cover_round(args) -> int:
    x = np.array([float(tok) for tok in args.lottery.split(",")])
    spec = _cover_spec(args)
    if x.size != spec.m:
        raise ValidationError(f"lottery has {x.size} coordinates, spec says m={spec.m}")
    y = round_lottery(x, spec)
    if args.out:
        _write_json(args.out, {"lottery": [float(v) for v in y]})
    print(",".join(_fmt(float(v)) for v in y))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValidationError(f"pipeline config {args.config} must be a JSON object")
    dist_spec = raw.get("dist")
    if args.dist:
        dist_spec = args.dist
    if dist_spec is None:
        raise ValidationError("pipeline config needs a 'dist' entry or --dist")
    if isinstance(dist_spec, str):
        source = load_distribution(dist_spec)
    else:
        source = distribution_from_json(dist_spec)

    def setting(key: str, convert, default=None):
        """The command-line value, else the config's, else ``default``."""
        if getattr(args, key) is not None:
            return getattr(args, key)
        return json_field(raw, key, f"pipeline config {args.config}", convert) if key in raw else default

    fields = {
        "t": setting("t", json_int),
        "epsilon": setting("epsilon", json_float),
        "H": setting("H", json_float),
        "cover_kind": setting("cover_kind", str, "multiplicative"),
        "seed": setting("seed", json_int, 0),
        "mode": setting("mode", str, "sample_and_round"),
    }
    missing = [k for k in ("t", "epsilon", "H") if fields[k] is None]
    if missing:
        raise ValidationError(f"pipeline config lacks {missing}")
    cfg = PipelineConfig(**fields)
    sampler = source if isinstance(source, Sampler) else ExplicitSampler(source, cfg.seed)
    menu = sample_and_round(sampler, cfg)
    save_menu(menu, args.out)
    if args.report:
        echo = {f"pipeline.{k}": v for k, v in fields.items()}
        echo["version"] = __version__
        _write_csv(args.report, echo, ["seed", "menu_entries"], [[cfg.seed, menu.size]])
    print(f"menu entries {menu.size}")
    return EXIT_OK


def _cmd_experiment_overfit(args) -> int:
    rows = []
    for seed in _parse_seeds(args.seeds):
        r = overfit_experiment(
            args.m, args.delta, args.sample_n, args.eval_n, seed, include_lp=not args.no_lp
        )
        rows.append([seed, r.naive_on_sample, r.naive_on_fresh, r.price1_on_fresh, r.lp_on_sample])

    config = {
        "m": args.m,
        "delta": args.delta,
        "sample_n": args.sample_n,
        "eval_n": args.eval_n,
        "include_lp": not args.no_lp,
    }
    cols = ["seed", "naive_on_sample", "naive_on_fresh", "price1_on_fresh", "lp_on_sample"]
    return _write_experiment(args, "overfit", config, cols, rows)


def _cmd_experiment_lowerbound(args) -> int:
    rows = []
    for seed in _parse_seeds(args.seeds):
        r = lower_bound_experiment(args.m, args.H, args.K, seed)
        rows.append([seed, r.lb_menu_revenue, r.item_baseline_revenue, r.ratio])

    config = {"m": args.m, "H": args.H, "K": args.K}
    cols = ["seed", "lb_menu_revenue", "item_baseline_revenue", "ratio"]
    return _write_experiment(args, "lowerbound", config, cols, rows)


def _cmd_experiment_baseline(args) -> int:
    source = load_distribution(args.dist)
    rows = []
    for seed in _parse_seeds(args.seeds):
        if isinstance(source, ExplicitDistribution):
            dist = source
        else:
            rng = np.random.default_rng(seed)
            dist = explicit_from_samples(source.draw(args.n, rng), tag=source.tag, H=source.H)
        H = args.H if args.H is not None else float(dist.values.max())
        _, rev = item_pricing_baseline(dist, H=H)
        emax = expected_max_value(dist)
        bound = emax / (2.0 * max(1, math.ceil(math.log2(max(H, 2.0)))))
        rows.append([seed, rev, emax, bound])

    config = {"dist": args.dist, "n": args.n}
    cols = ["seed", "baseline_revenue", "expected_max_value", "guarantee"]
    return _write_experiment(args, "baseline", config, cols, rows)


def _cmd_experiment_greedy(args) -> int:
    seeds = _parse_seeds(args.seeds)

    def row(instance: int, inst: HittingSetInstance) -> list:
        problem = reduce_hitting_set(inst, args.k)
        _, greedy_rev = greedy_k_item_menu(problem)
        _, opt_rev = brute_force_k_menu(problem)
        return [instance, greedy_rev, opt_rev, greedy_rev / opt_rev if opt_rev else float("inf")]

    def run(seed: int) -> list:
        rng = np.random.default_rng(seed)
        sets = []
        for _ in range(args.n_sets):
            size = int(rng.integers(1, args.m + 1))
            sets.append(tuple(np.sort(rng.choice(args.m, size=size, replace=False)).tolist()))
        return row(seed, HittingSetInstance(tuple(sets), m=args.m, H=args.H))

    if args.hitting_set:
        rows = [row(0, load_hitting_set(args.hitting_set, H=args.H))]
    else:
        rows = [run(seed) for seed in seeds]
    config = {"m": args.m, "n_sets": args.n_sets, "k": args.k, "H": args.H, "hitting_set": args.hitting_set or ""}
    cols = ["instance", "greedy_revenue", "oracle_revenue", "ratio"]
    return _write_experiment(args, "greedy-vs-opt", config, cols, rows)


def _cmd_reduce_hitting_set(args) -> int:
    inst = load_hitting_set(args.infile, H=args.H)
    problem = reduce_hitting_set(inst, args.k)
    payload = problem.dist.to_json_dict()
    payload["params"]["k"] = args.k
    _write_json(args.out, payload)
    print(f"wrote {problem.dist.n} valuations over m={problem.dist.m} items")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="menuforge", description=__doc__)
    p.add_argument("--version", action="version", version=f"menuforge {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="exact expected revenue of a menu on an explicit distribution")
    ev.add_argument("--menu", required=True)
    ev.add_argument("--dist", required=True)
    ev.add_argument("--out")
    ev.set_defaults(func=_cmd_evaluate)

    lp = sub.add_parser("solve-lp", help="optimal menu for an explicit distribution by LP")
    lp.add_argument("--dist", required=True)
    lp.add_argument("--out", required=True)
    lp.add_argument("--tol", type=float, default=1e-7)
    lp.add_argument("--dump-lp", help="also write the LP in sparse text form")
    lp.set_defaults(func=_cmd_solve_lp)

    rm = sub.add_parser("round-menu", help="round a menu into a lottery cover")
    rm.add_argument("--menu", required=True)
    rm.add_argument("--out", required=True)
    rm.add_argument("--epsilon", type=float, required=True)
    rm.add_argument("--H", type=float, required=True)
    rm.add_argument("--delta", type=float, default=None)
    rm.add_argument("--cover-kind", default="multiplicative", choices=["multiplicative", "monotone_tail"])
    rm.set_defaults(func=_cmd_round_menu)

    cov = sub.add_parser("cover", help="enumerate a cover or round one lottery")
    covsub = cov.add_subparsers(dest="cover_command", required=True)
    for name in ("enumerate", "round"):
        c = covsub.add_parser(name)
        c.add_argument("--kind", required=True, choices=["additive", "multiplicative", "monotone_tail"])
        c.add_argument("--epsilon", type=float, required=True)
        c.add_argument("--m", type=int, required=True)
        c.add_argument("--H", type=float, default=1.0)
        c.add_argument("--out")
        if name == "enumerate":
            c.add_argument("--budget", type=int, default=1_000_000)
            c.set_defaults(func=_cmd_cover_enumerate)
        else:
            c.add_argument("--lottery", required=True, help="comma-separated probabilities")
            c.set_defaults(func=_cmd_cover_round)

    pl = sub.add_parser("pipeline", help="sample, fit by LP, round into a cover")
    pl.add_argument("--config", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--report")
    pl.add_argument("--dist", help="override the config's distribution (path)")
    pl.add_argument("--t", type=int)
    pl.add_argument("--epsilon", type=float)
    pl.add_argument("--H", type=float)
    pl.add_argument("--cover-kind", choices=["multiplicative", "monotone_tail"])
    pl.add_argument("--seed", type=int,
                    help="seed of the t draws, overriding the config's \"seed\"; a sampler's own \"seed\" has no effect")
    pl.add_argument("--mode", choices=["naive", "sample_and_round"])
    pl.set_defaults(func=_cmd_pipeline)

    ex = sub.add_parser("experiment", help="seeded experiment suites, CSV out")
    exsub = ex.add_subparsers(dest="experiment_command", required=True)

    ov = exsub.add_parser("overfit")
    ov.add_argument("--m", type=int, default=64)
    ov.add_argument("--delta", type=float, default=0.1)
    ov.add_argument("--sample-n", type=int, default=200)
    ov.add_argument("--eval-n", type=int, default=10_000)
    ov.add_argument("--seeds", default="0:10")
    ov.add_argument("--no-lp", action="store_true")
    ov.add_argument("--out", required=True)
    ov.set_defaults(func=_cmd_experiment_overfit)

    lb = exsub.add_parser("lowerbound")
    lb.add_argument("--m", type=int, default=30)
    lb.add_argument("--H", type=float, default=8.0)
    lb.add_argument("--K", type=int, default=20)
    lb.add_argument("--seeds", default="0:10")
    lb.add_argument("--per-point", action="store_true", help="no effect; kept so older command lines parse")
    lb.add_argument("--out", required=True)
    lb.set_defaults(func=_cmd_experiment_lowerbound)

    ba = exsub.add_parser("baseline")
    ba.add_argument("--dist", required=True, help="a sampler's own \"seed\" has no effect; --seeds seeds the draws")
    ba.add_argument("--n", type=int, default=1000, help="draws per seed for sampler inputs")
    ba.add_argument("--H", type=float)
    ba.add_argument("--seeds", default="0:10")
    ba.add_argument("--out", required=True)
    ba.set_defaults(func=_cmd_experiment_baseline)

    gr = exsub.add_parser("greedy-vs-opt")
    gr.add_argument("--hitting-set", help="instance file; otherwise random instances per seed")
    gr.add_argument("--m", type=int, default=10)
    gr.add_argument("--n-sets", type=int, default=8)
    gr.add_argument("--k", type=int, default=2)
    gr.add_argument("--H", type=float, default=4.0)
    gr.add_argument("--seeds", default="0:10")
    gr.add_argument("--out", required=True)
    gr.set_defaults(func=_cmd_experiment_greedy)

    rh = sub.add_parser("reduce-hitting-set", help="hitting-set instance to MAXREV valuations")
    rh.add_argument("--in", dest="infile", required=True)
    rh.add_argument("--H", type=float, required=True)
    rh.add_argument("--k", type=int, required=True)
    rh.add_argument("--out", required=True)
    rh.set_defaults(func=_cmd_reduce_hitting_set)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntersectionPropertyError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
