"""Command-line front door.

One process per run, validate-then-run (no partial outputs), reruns with
identical configuration produce byte-identical artifacts.  Numbers are
written with 17 significant digits and '.' decimals regardless of locale.
Experiment subcommands emit CSV with one row per seed, with two
exceptions: ``experiment baseline`` on an explicit distribution has no
draws to seed, so it writes one row with an empty seed field, and
``experiment greedy-vs-opt --hitting-set FILE`` scores that one instance,
so it writes one row, ``instance`` 0, whatever ``--seeds`` says.  The run
configuration is echoed into every CSV as leading comment lines.
Experiments run their seeds in order, one after another.  Each row depends
only on its seed and the configuration, so a long sweep can be split into
processes over disjoint ``--seeds`` ranges whose data rows, concatenated,
are the rows of the whole range.

``pipeline`` reads its run from one JSON config: an inline distribution
under "dist", "t", "epsilon", "H" and optionally "cover_kind", "seed" and
"mode".  Only ``--t`` and ``--seed`` override it, so one config serves a sweep;
the config is still checked whole, the fields they replace included.  A config,
distribution or menu field that no reader reads is a validation error, and
so is a negative seed, in a "seed" field, ``--seed`` or ``--seeds``.

Exit codes: 0 success, 2 usage, 3 validation (including an input too large
to allocate, such as ``--t 1000000000000000``), 4 I/O, 5 solver failure,
6 infeasible construction or exhausted combinatorial budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import __version__
from .core import (
    ValidationError,
    expected_revenue,
    json_float,
    json_int,
    json_object,
    json_seed,
    load_menu,
    naming_file,
    read_json,
    save_menu,
    write_json,
)
from .covers import COVER_KINDS, CoverSpec, enumerate_cover, round_lottery
from .distributions import (
    ExplicitDistribution,
    ExplicitSampler,
    HittingSetInstance,
    IntersectionPropertyError,
    Sampler,
    distribution_from_json,
    expected_max_value,
    explicit_from_samples,
    hitting_set_valuations,
    load_distribution,
    load_hitting_set,
)
from .lp import BudgetExceededError, LPError, build_lp, extract_menu, solve_lp
from .maxrev import brute_force_k_menu, greedy_k_item_menu, reduce_hitting_set
from .pipeline import (
    LowerBoundReport,
    OverfitReport,
    PipelineConfig,
    item_pricing_baseline,
    item_pricing_guarantee,
    lower_bound_experiment,
    overfit_experiment,
    sample_and_round,
)
from .rounding import CERTIFIED_TAGS, RoundingParams, round_menu

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_SOLVER = 5
EXIT_INFEASIBLE = 6
# the exit code of each failure a command reports; the first row an exception
# matches wins, so ValueError, the base of ValidationError, comes first; a
# MemoryError is an input asking for more rows than can be allocated
_EXIT_CODES = {ValueError: EXIT_VALIDATION, MemoryError: EXIT_VALIDATION,
               IntersectionPropertyError: EXIT_INFEASIBLE, BudgetExceededError: EXIT_INFEASIBLE,
               LPError: EXIT_SOLVER, OSError: EXIT_IO}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _seed_flag(flag: str, value: int) -> int:
    """A seed given on the command line, read by :func:`json_seed`; a
    rejected one raises :class:`ValidationError` naming ``flag``."""
    try:
        return json_seed(value)
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _parse_seeds(spec: str) -> list[int]:
    """The seeds of a ``--seeds`` spec: a range ``lo:hi`` or a list ``a,b,c``
    of nonnegative integers."""
    spec = spec.strip()
    try:
        if ":" in spec:
            a, b = spec.split(":", 1)
            seeds = list(range(int(a), int(b)))
        else:
            seeds = [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise ValidationError(f"--seeds {spec!r} is not a range lo:hi or a list of integers") from None
    if not seeds:
        raise ValidationError(f"--seeds {spec!r} holds no seeds")
    _seed_flag(f"--seeds {spec!r}", min(seeds))
    return seeds


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
        write_json(args.out, {"expected_revenue": rev})
    print(f"expected_revenue {_fmt(rev)}")
    return EXIT_OK


def _cmd_solve_lp(args) -> int:
    dist = _load_dist_arg(args.dist)
    sol = solve_lp(build_lp(dist))
    menu = extract_menu(sol)
    save_menu(menu, args.out)
    print(
        f"objective {_fmt(sol.objective)} entries {menu.size} "
        f"rounds {sol.rounds} ic_rows_kept {sol.ic_rows_kept} ic_rows_purged {sol.ic_rows_purged}"
    )
    return EXIT_OK


def _cmd_round_menu(args) -> int:
    menu = load_menu(args.menu)
    rounded = round_menu(menu, RoundingParams(args.epsilon, args.H, args.cover_kind))
    save_menu(rounded, args.out)
    print(f"entries {menu.size} -> {rounded.size}")
    return EXIT_OK


def _cover_spec(args) -> CoverSpec:
    return CoverSpec(kind=args.kind, epsilon=args.epsilon, m=args.m, H=args.H)


def _cmd_cover_enumerate(args) -> int:
    enum = enumerate_cover(_cover_spec(args))
    if args.out:
        lotteries = None if enum.lotteries is None else enum.lotteries.tolist()
        write_json(args.out, {"count": enum.count, "exact_count": enum.exact_count, "lotteries": lotteries})
    print(f"count {enum.count} exact {enum.exact_count}")
    return EXIT_OK


def _cmd_cover_round(args) -> int:
    coords = []
    for tok in args.lottery.split(","):
        try:
            coords.append(float(tok))
        except ValueError:
            raise ValidationError(f"--lottery {args.lottery!r}: {tok!r} is not a number") from None
    x = np.array(coords)
    spec = _cover_spec(args)
    if x.size != spec.m:
        raise ValidationError(f"lottery has {x.size} coordinates, spec says m={spec.m}")
    y = round_lottery(x, spec).tolist()
    if args.out:
        write_json(args.out, {"lottery": y})
    print(",".join(map(_fmt, y)))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    if args.seed is not None:
        _seed_flag("--seed", args.seed)
    flags = {key: value for key, value in (("t", args.t), ("seed", args.seed)) if value is not None}
    defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig) if f.default is not dataclasses.MISSING}
    readers = {"dist": distribution_from_json, "t": json_int, "epsilon": json_float, "H": json_float,
               "cover_kind": str, "seed": json_seed, "mode": str}
    # every field present is read, the ones a flag replaces included
    with naming_file(args.config):
        fields = json_object(read_json(args.config), "pipeline config", readers, optional=(*defaults, *flags))
    source = fields.pop("dist")
    fields = {**defaults, **fields, **flags}
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


def _report_columns(report: type) -> list[str]:
    """An experiment CSV's columns: the seed, then the fields of its report
    dataclass, whose ``dataclasses.astuple`` is the rest of each row."""
    return ["seed", *(f.name for f in dataclasses.fields(report))]


def _cmd_experiment_overfit(args) -> int:
    rows = [
        [seed, *dataclasses.astuple(overfit_experiment(
            args.m, args.delta, args.sample_n, args.eval_n, seed, include_lp=not args.no_lp))]
        for seed in _parse_seeds(args.seeds)
    ]
    config = {
        "m": args.m,
        "delta": args.delta,
        "sample_n": args.sample_n,
        "eval_n": args.eval_n,
        "include_lp": not args.no_lp,
    }
    return _write_experiment(args, "overfit", config, _report_columns(OverfitReport), rows)


def _cmd_experiment_lowerbound(args) -> int:
    rows = [[seed, *dataclasses.astuple(lower_bound_experiment(args.m, args.H, args.K, seed))]
            for seed in _parse_seeds(args.seeds)]
    config = {"m": args.m, "H": args.H, "K": args.K}
    return _write_experiment(args, "lowerbound", config, _report_columns(LowerBoundReport), rows)


def _cmd_experiment_baseline(args) -> int:
    source = load_distribution(args.dist)
    seeds = _parse_seeds(args.seeds)
    config = {"dist": args.dist}

    def row(seed, dist: ExplicitDistribution) -> list:
        _, rev = item_pricing_baseline(dist)
        return [seed, rev, expected_max_value(dist), item_pricing_guarantee(dist)]

    if isinstance(source, ExplicitDistribution):
        rows = [row("", source)]
    else:
        config["n"] = args.n
        # each seed's sample is freed before the next one is drawn
        rows = [row(seed, explicit_from_samples(source.draw(args.n, np.random.default_rng(seed)),
                                                tag=source.tag, H=source.H)) for seed in seeds]

    cols = ["seed", "baseline_revenue", "expected_max_value", "guarantee"]
    return _write_experiment(args, "baseline", config, cols, rows)


def _cmd_experiment_greedy(args) -> int:
    seeds = _parse_seeds(args.seeds)

    def row(instance: int, inst: HittingSetInstance) -> list:
        problem = reduce_hitting_set(inst, args.k)
        _, greedy_rev = greedy_k_item_menu(problem)
        _, opt_rev = brute_force_k_menu(problem)
        return [instance, greedy_rev, opt_rev, greedy_rev / opt_rev]

    def run(seed: int) -> list:
        rng = np.random.default_rng(seed)
        sets = []
        for _ in range(args.n_sets):
            size = int(rng.integers(1, args.m + 1))
            sets.append(tuple(np.sort(rng.choice(args.m, size=size, replace=False)).tolist()))
        return row(seed, HittingSetInstance(tuple(sets), m=args.m, H=args.H))

    m, n_sets = args.m, args.n_sets
    if args.hitting_set:
        inst = load_hitting_set(args.hitting_set, H=args.H)
        m, n_sets = inst.m, inst.n
        rows = [row(0, inst)]
    else:
        if args.m < 1:  # before run draws set sizes from [1, m]
            raise ValidationError("m must be at least 1")
        rows = [run(seed) for seed in seeds]
    config = {"m": m, "n_sets": n_sets, "k": args.k, "H": args.H, "hitting_set": args.hitting_set or ""}
    cols = ["instance", "greedy_revenue", "oracle_revenue", "ratio"]
    return _write_experiment(args, "greedy-vs-opt", config, cols, rows)


def _cmd_reduce_hitting_set(args) -> int:
    dist = hitting_set_valuations(load_hitting_set(args.infile, H=args.H))
    write_json(args.out, dist.to_json_dict())
    print(f"wrote {dist.n} valuations over m={dist.m} items")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and each subcommand's function reads the module's names
    when it runs."""
    p = argparse.ArgumentParser(prog="menuforge", description=__doc__)
    p.add_argument("--version", action="version", version=f"menuforge {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="exact expected revenue of a menu on an explicit distribution")
    ev.add_argument("--menu", required=True)
    ev.add_argument("--dist", required=True)
    ev.add_argument("--out")
    ev.set_defaults(func=_cmd_evaluate)

    lp = sub.add_parser(
        "solve-lp", help="optimal menu for an explicit distribution by LP; repeated support points are one type"
    )
    lp.add_argument("--dist", required=True)
    lp.add_argument("--out", required=True)
    lp.set_defaults(func=_cmd_solve_lp)

    rm = sub.add_parser("round-menu", help="round a menu into a lottery cover")
    rm.add_argument("--menu", required=True)
    rm.add_argument("--out", required=True)
    rm.add_argument("--epsilon", type=float, required=True)
    rm.add_argument("--H", type=float, required=True)
    rm.add_argument("--cover-kind", default="multiplicative", choices=list(CERTIFIED_TAGS))
    rm.set_defaults(func=_cmd_round_menu)

    cov = sub.add_parser("cover", help="enumerate a cover or round one lottery")
    covsub = cov.add_subparsers(dest="cover_command", required=True)
    for name in ("enumerate", "round"):
        c = covsub.add_parser(name)
        c.add_argument("--kind", required=True, choices=COVER_KINDS)
        c.add_argument("--epsilon", type=float, required=True)
        c.add_argument("--m", type=int, required=True)
        c.add_argument("--H", type=float, default=1.0)
        c.add_argument("--out")
        if name == "enumerate":
            c.set_defaults(func=_cmd_cover_enumerate)
        else:
            c.add_argument("--lottery", required=True, help="comma-separated probabilities")
            c.set_defaults(func=_cmd_cover_round)

    pl = sub.add_parser("pipeline", help="sample, fit by LP, round into a cover, all as a JSON config says")
    pl.add_argument("--config", required=True, help="the run: \"dist\" (an inline distribution object), "
                    "\"t\", \"epsilon\", \"H\", \"cover_kind\", \"seed\" and \"mode\"")
    pl.add_argument("--out", required=True)
    pl.add_argument("--report")
    pl.add_argument("--t", type=int, help="sample size, overriding the config's \"t\"")
    pl.add_argument("--seed", type=int,
                    help="seed of the t draws, overriding the config's \"seed\"; a sampler's own \"seed\" has no effect")
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

    lb = exsub.add_parser("lowerbound", description=(
        "Each row's ratio is the lower-bound menu's revenue over the doubling item-pricing baseline's. "
        "Over seeds 0:5 it is 0.71-0.95 at the defaults (m=30, H=8, K=20) and 1.36-1.60 past the flip, "
        "at --m 90 --H 64 --K 128."))
    lb.add_argument("--m", type=int, default=30)
    lb.add_argument("--H", type=float, default=8.0)
    lb.add_argument("--K", type=int, default=20)
    lb.add_argument("--seeds", default="0:10")
    lb.add_argument("--per-point", action="store_true", help="no effect; kept so older command lines parse")
    lb.add_argument("--out", required=True)
    lb.set_defaults(func=_cmd_experiment_lowerbound)

    ba = exsub.add_parser("baseline")
    ba.add_argument("--dist", required=True,
                    help="an explicit distribution is scored once, as it is; a sampler is scored on --n draws "
                         "per seed, --seeds seeding them (its own \"seed\" has no effect)")
    ba.add_argument("--n", type=int, default=1000, help="draws per seed for sampler inputs; unused on explicit ones")
    ba.add_argument("--seeds", default="0:10")
    ba.add_argument("--out", required=True)
    ba.set_defaults(func=_cmd_experiment_baseline)

    gr = exsub.add_parser("greedy-vs-opt", description=(
        "greedy_revenue and oracle_revenue are hit-count scores, 1 + (H-1) f for an item set hitting a "
        "fraction f of the sets, not revenues: below full coverage they exceed the revenue H f that the "
        "item menu pricing every item at H earns, and they equal it at f = 1. With 40 sets of 1-3 items "
        "over m=24, k=1, H=4 and seeds 0:4, greedy scores 1.45-1.60 where its menu earns 0.60-0.80."))
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
    rh.add_argument("--out", required=True)
    rh.set_defaults(func=_cmd_reduce_hitting_set)

    return p


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    A usage error exits 2 through argparse.  The parser is built on the
    first call only, so in-process callers that run many commands pay for
    it once.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
