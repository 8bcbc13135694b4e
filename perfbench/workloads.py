"""The three benchmark workloads: fit_large, evaluate and sweep.

A workload is built from the run seed, a scratch directory, the
:class:`checks.Checks` that collects failed checks, and the trace recorder
(None when not tracing).  It builds its inputs in ``prepare`` (input
generation, traced as the "setup" phase), runs every kind of operation
once in ``warm_up``, and then hands out a fixed list of operations.  An
operation is ``(label, call, inspect)``: ``call`` is timed, ``inspect``
runs untimed right after it, checks the result and returns whether the
operation succeeded.  ``finish`` makes the checks that need the whole run
and returns the workload's out-of-sample revenue with its Monte Carlo
standard error.

Seeds: every input stream comes from ``numpy.random.SeedSequence`` keyed
by (run seed, purpose, index).  Purpose 1 is fitting, 2 is fresh
evaluation draws and 3 is check-only draws, so fresh draws never come
from a stream used for fitting.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from menuforge import cli, core, distributions, lp, pipeline, rounding

import checks as ref

FIT, FRESH, CHECK = 1, 2, 3
# solve_lp's default tolerance: its objective is within this of the optimum
LP_TOL = 1e-7


def stream(seed, purpose, index=0):
    return np.random.default_rng(np.random.SeedSequence([seed, purpose, index]))


def int_seed(seed, purpose, index=0, bound=10**9):
    """A plain integer seed for APIs that take one (cfg.seed, --seeds)."""
    return int(np.random.SeedSequence([seed, purpose, index]).generate_state(1, dtype=np.uint64)[0] % bound)


def capture(module, names, store):
    """Record the arguments and result of each call to module.<name> in store."""
    for name in names:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            store[_name] = (args, result)
            return result

        setattr(module, name, wrapper)


class FitLarge:
    """Menu fitting dominated by the LP.

    One round is FITS_PER_ROUND ``sample_and_round`` fits at t=T on distinct
    monotone samples, then one ``overfit_experiment`` with its LP.  Solve
    times vary by about 18% between samples, so a run needs many of them:
    ROUND_S gives 5 rounds, 30 fits, at 25 seconds.
    """

    ROUND_S = 5.0
    M, H, EPS, T = 5, 8.0, 0.1, 100
    FITS_PER_ROUND = 6
    OVERFIT_M, OVERFIT_DELTA, OVERFIT_SAMPLE_N, OVERFIT_EVAL_N = 64, 0.1, 200, 10_000
    FRESH_N = 20_000
    DENSE_T = 10

    def __init__(self, seed, work_dir, checks, recorder):
        self.seed, self.checks, self.recorder = seed, checks, recorder
        self.oos, self.price1 = [], []
        self.ipm_case = None
        self.captured = {}
        self.findings = {"guarantee_violations": 0, "valuations_checked": 0,
                         "lp_fits": 0, "lp_realized_gap_over_1e-9": 0, "lp_realized_gap_max": 0.0}

    def _cfg(self, t, fit_index):
        return pipeline.PipelineConfig(
            t=t, epsilon=self.EPS, H=self.H, cover_kind="monotone_tail",
            seed=int_seed(self.seed, FIT, fit_index),
        )

    def prepare(self):
        self.sampler = distributions.MonotoneUniformSampler(self.M, self.H, int_seed(self.seed, FIT))
        self.fresh = self.sampler.draw(self.FRESH_N, stream(self.seed, FRESH))
        capture(pipeline, ("build_lp", "solve_lp", "extract_menu"), self.captured)

    def warm_up(self):
        pipeline.sample_and_round(self.sampler, self._cfg(30, 10**6))
        pipeline.overfit_experiment(self.OVERFIT_M, self.OVERFIT_DELTA, 40, 1000, int_seed(self.seed, FIT, 10**6 + 1))

    def operations(self, rounds):
        ops = []
        for r in range(rounds):
            for j in range(self.FITS_PER_ROUND):
                cfg = self._cfg(self.T, r * self.FITS_PER_ROUND + j)
                ops.append((f"sample_and_round_t{self.T}", self._fit_call(cfg), self._fit_inspect(cfg)))
            # even seeds: the experiment also reads stream seed + 1 for its fresh draws
            oseed = 2 * int_seed(self.seed, FIT, 10**7 + r)
            ops.append(("overfit_experiment_lp", self._overfit_call(oseed), self._overfit_inspect))
        return ops

    def _fit_call(self, cfg):
        def call():
            self.captured.clear()
            return pipeline.sample_and_round(self.sampler, cfg)
        return call

    def _fit_inspect(self, cfg):
        def inspect(rounded, _err):
            c = self.checks
            (emp,), menu_lp = self.captured["build_lp"]
            sol = self.captured["solve_lp"][1]
            menu = self.captured["extract_menu"][1]
            V, w = emp.values, emp.weights
            c.expect(
                V.shape == (cfg.t, self.M) and np.all(np.diff(V, axis=1) >= 0)
                and V.min() >= 1.0 and V.max() <= self.H,
                f"fit seed {cfg.seed}: LP support is not {cfg.t} monotone draws in [1, H]",
            )
            before = ref.payments(menu.lotteries, menu.prices, V)
            self._realized_gap(float(w @ before), sol.objective)
            item = ref.doubling_item_revenue(V, w, self.H)
            c.expect(sol.objective >= item - LP_TOL,
                     f"fit seed {cfg.seed}: LP objective {sol.objective!r} below item pricing {item!r}")
            mult, add = rounding.guarantee_bound(cfg.rounding_params())
            after = ref.payments(rounded.lotteries, rounded.prices, V)
            # Reported, not gated (see the README): on some seeds LP menus carry
            # entries priced below 1, which round_menu lumps into level 1, and
            # buyers who chose them then pay less than the bound allows.
            violations = int(((after - (mult * before - add)) < -1e-9).sum())
            self.findings["guarantee_violations"] += violations
            self.findings["valuations_checked"] += len(V)
            if self.recorder is not None:
                self.recorder.count("rounding.guarantee_violations", violations)
            self.oos.append(ref.mean_and_se(ref.payments(rounded.lotteries, rounded.prices, self.fresh)))
            if self.ipm_case is None:
                self.ipm_case = (menu_lp, sol.objective)
            return True
        return inspect

    def _realized_gap(self, realized, objective):
        """Reported, not gated (see the README): the extracted menu's revenue
        on the sample falls short of the LP objective by up to 1e-5 on some
        seeds, since IC holds only to the solver's 1e-9 feasibility tolerance
        and extract_menu merges pairs within 1e-7."""
        gap = abs(realized - objective)
        f = self.findings
        f["lp_fits"] += 1
        f["lp_realized_gap_over_1e-9"] += gap > 1e-9
        f["lp_realized_gap_max"] = max(f["lp_realized_gap_max"], gap)

    def _overfit_call(self, oseed):
        def call():
            self.captured.clear()
            return pipeline.overfit_experiment(
                self.OVERFIT_M, self.OVERFIT_DELTA, self.OVERFIT_SAMPLE_N, self.OVERFIT_EVAL_N, oseed
            )
        return call

    def _overfit_inspect(self, report, _err):
        c = self.checks
        (emp,), _ = self.captured["build_lp"]
        sol = self.captured["solve_lp"][1]
        menu = lp.extract_menu(sol)
        V, w = emp.values, emp.weights
        self._realized_gap(float(w @ ref.payments(menu.lotteries, menu.prices, V)), sol.objective)
        c.expect(report.lp_on_sample == sol.objective, "overfit report does not carry the LP objective")
        c.expect(report.lp_on_sample >= report.naive_on_sample - LP_TOL,
                 f"overfit LP {report.lp_on_sample!r} fits the sample worse than the naive menu {report.naive_on_sample!r}")
        item = ref.doubling_item_revenue(V, w, float(V.max()))
        c.expect(sol.objective >= item - LP_TOL, f"overfit LP objective {sol.objective!r} below item pricing {item!r}")
        self.price1.append(report.price1_on_fresh)
        return True

    def finish(self):
        c = self.checks
        c.add(ref.price1_check(float(np.mean(self.price1)), len(self.price1) * self.OVERFIT_EVAL_N,
                               self.OVERFIT_M, self.OVERFIT_DELTA, "overfit_experiment"))
        menu_lp, objective = self.ipm_case
        ipm = ref.ipm_objective(menu_lp)
        c.expect(abs(ipm - objective) <= 1e-6, f"interior-point objective {ipm!r} vs simplex {objective!r}")
        V = self.sampler.draw(self.DENSE_T, stream(self.seed, CHECK))
        dist = distributions.ExplicitDistribution(V, np.full(self.DENSE_T, 1.0 / self.DENSE_T))
        program = lp.solve_lp(lp.build_lp(dist)).objective
        dense = ref.dense_lp_objective(V, dist.weights)
        c.expect(abs(program - dense) <= 1e-6, f"small LP: program {program!r} vs dense reference {dense!r}")
        return ref.pooled(self.oos, shared_draws=True)


class Evaluate:
    """The buyer-choice kernel on fixed menus and large fresh batches.

    Families: monotone (m=5, H=8), overfit product (m=64, delta=0.1; integer
    values, so utility ties are everywhere) and equal-revenue spread (m=30,
    H=8).  One operation is revenue_batch plus choose_batch on one family.
    The menus are the same in every run (built from MENU_SEED); the batches
    are drawn from the run seed.
    """

    ROUND_S = 2.4
    N = 100_000
    MENU_K = 200
    OVERFIT_FIT_N = 150
    LOOP_N = 1000
    WARM_N = 10_000
    MENU_SEED = 0

    def __init__(self, seed, work_dir, checks, recorder):
        self.seed, self.checks = seed, checks
        self.first = {}

    def prepare(self):
        s, f = self.seed, self.MENU_SEED
        mono = distributions.MonotoneUniformSampler(5, 8.0, 0)
        over = distributions.OverfitProductSampler(distributions.OverfitProductParams(64, 0.1), 0)
        spread = distributions.EqualRevenueSpreadSampler(distributions.EqualRevenueSpreadParams(30, 8.0), 0)

        # monotone: each entry a random partial lottery priced at 90% of its
        # value to one fitting draw
        rng = stream(f, FIT, 10)
        X = rng.dirichlet(np.ones(5), size=self.MENU_K) * rng.uniform(0.5, 1.0, size=(self.MENU_K, 1))
        anchors = mono.draw(self.MENU_K, stream(f, FIT, 11))
        mono_menu = core.Menu(X, 0.9 * (anchors * X).sum(axis=1))
        # overfit: the sample-memorizing menu, about 200 entries
        over_menu = pipeline.naive_overfit_menu(over.draw(self.OVERFIT_FIT_N, stream(f, FIT, 12)))
        # spread: one lower-bound entry per fitting draw
        V, sets, z = spread.draw_with_meta(self.MENU_K, stream(f, FIT, 13))
        fit_dist = distributions.ExplicitDistribution(
            V, np.full(self.MENU_K, 1.0 / self.MENU_K), tag="bounded", H=8.0, meta={"sets": sets, "z": z})
        spread_menu = pipeline.lower_bound_menu(fit_dist)

        self.families = [
            ("monotone", mono_menu, mono.draw(self.N, stream(s, FRESH, 0))),
            ("overfit", over_menu, over.draw(self.N, stream(s, FRESH, 1))),
            ("spread", spread_menu, spread.draw(self.N, stream(s, FRESH, 2))),
        ]

    def warm_up(self):
        for _, menu, batch in self.families:
            core.revenue_batch(menu, batch[: self.WARM_N])
            core.choose_batch(menu, batch[: self.WARM_N])

    def operations(self, rounds):
        return [
            (f"kernel_{name}", self._call(menu, batch), self._inspect(f, name, menu, batch))
            for _ in range(rounds)
            for f, (name, menu, batch) in enumerate(self.families)
        ]

    @staticmethod
    def _call(menu, batch):
        return lambda: (core.revenue_batch(menu, batch), core.choose_batch(menu, batch))

    def _inspect(self, family, name, menu, batch):
        def inspect(result, _err):
            c = self.checks
            pay, idx = result
            if name in self.first:
                first_pay, first_idx = self.first[name]
                c.expect(np.array_equal(pay, first_pay) and np.array_equal(idx, first_idx),
                         f"{name}: kernel outputs differ between calls")
                return True
            self.first[name] = (pay, idx)
            c.expect(np.array_equal(pay, np.where(idx >= 0, menu.prices[idx], 0.0)),
                     f"{name}: revenue_batch is not the price of the choose_batch entry")
            rows = stream(self.seed, CHECK, family).choice(self.N, self.LOOP_N, replace=False)
            wrong = [
                (int(i), (int(idx[i]), float(pay[i])), want)
                for i in rows
                if (int(idx[i]), float(pay[i])) != (want := ref.choice_loop(menu.lotteries, menu.prices, batch[i]))
            ]
            c.expect(not wrong, f"{name}: {len(wrong)} of {self.LOOP_N} buyers differ from the loop, first {wrong[:1]}")
            return True
        return inspect

    def finish(self):
        over_batch = self.families[1][2]
        price1 = float((over_batch.max(axis=1) >= 1.0 - ref.TIE_TOL).mean())
        self.checks.add(ref.price1_check(price1, self.N, 64, 0.1, "evaluate overfit batch"))
        return ref.pooled([ref.mean_and_se(pay) for pay, _ in self.first.values()], shared_draws=False)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_csv(path):
    """(header, rows of floats) of a menuforge experiment CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


class Sweep:
    """The seeded CLI suite, one command per operation, through cli.main.

    ``experiment lowerbound`` with its default arguments exits 6 on every
    seed; it stays in the list and counts as failed.
    """

    ROUND_S = 1.65
    M, H = 5, 8.0
    GREEDY_H = 4.0
    FRESH_N = 20_000
    KNOWN_FAILURE = ("lowerbound_default", 6, "no batch of K=20 draws")

    def __init__(self, seed, work_dir, checks, recorder):
        self.seed, self.checks, self.work_dir, self.recorder = seed, checks, work_dir, recorder
        self.warm_bytes = {}
        self.oos = {}
        self.inspected = set()

    def prepare(self):
        s = self.seed
        inputs = os.path.join(self.work_dir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        for phase in ("warm", "timed"):
            os.makedirs(os.path.join(self.work_dir, phase), exist_ok=True)
        dist_path = os.path.join(inputs, "monotone.json")
        with open(dist_path, "w", encoding="utf-8") as fh:
            json.dump({"type": "monotone_uniform", "params": {"m": self.M, "H": self.H},
                       "seed": int_seed(s, FIT, 0)}, fh)
        config_path = os.path.join(inputs, "pipeline.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"dist": {"type": "monotone_uniform", "params": {"m": self.M, "H": self.H},
                                "seed": int_seed(s, FIT, 1)},
                       "t": 40, "epsilon": 0.1, "H": self.H, "cover_kind": "monotone_tail", "seed": 0}, fh)
        a = int_seed(s, FIT, 2)
        # Nine commands.  Greedy-vs-opt does a seed-independent amount of work
        # and sits in the middle of the durations, with four faster and four
        # slower commands around it, so op_p50_ms names it in every run.
        pipeline_cmd = ["pipeline", "--config", config_path]
        self.commands = [
            ("overfit", ["experiment", "overfit", "--no-lp", "--seeds", f"{a}:{a + 4}"], ["--out"]),
            ("lowerbound_per_point", ["experiment", "lowerbound", "--per-point", "--seeds", f"{a}:{a + 2}"], ["--out"]),
            ("greedy_vs_opt", ["experiment", "greedy-vs-opt", "--m", "24", "--n-sets", "40", "--k", "4",
                               "--H", str(self.GREEDY_H), "--seeds", f"{a}:{a + 2}"], ["--out"]),
            ("baseline", ["experiment", "baseline", "--dist", dist_path, "--n", "100000",
                          "--seeds", f"{a}:{a + 4}"], ["--out"]),
            ("pipeline_t20", pipeline_cmd + ["--t", "20", "--seed", str(a)], ["--out", "--report"]),
            ("pipeline_t30", pipeline_cmd + ["--t", "30", "--seed", str(a + 1)], ["--out", "--report"]),
            ("pipeline_t60", pipeline_cmd + ["--t", "60", "--seed", str(a + 2)], ["--out", "--report"]),
            ("pipeline_t60b", pipeline_cmd + ["--t", "60", "--seed", str(a + 3)], ["--out", "--report"]),
            ("lowerbound_default", ["experiment", "lowerbound"], ["--out"]),
        ]
        self.fresh = distributions.MonotoneUniformSampler(self.M, self.H, 0).draw(self.FRESH_N, stream(s, FRESH))

    def _argv(self, label, argv, flags, phase):
        files = [os.path.join(self.work_dir, phase, f"{label}{flag.replace('-', '_')}") for flag in flags]
        return argv + [x for pair in zip(flags, files) for x in pair], files

    @staticmethod
    def _main(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code

    def warm_up(self):
        for label, argv, flags in self.commands:
            full, files = self._argv(label, argv, flags, "warm")
            self._main(full)
            self.warm_bytes[label] = [read_bytes(f) if os.path.exists(f) else None for f in files]

    def operations(self, rounds):
        ops = []
        for _ in range(rounds):
            for label, argv, flags in self.commands:
                full, files = self._argv(label, argv, flags, "timed")
                ops.append((label, self._call(full), self._inspect(label, files)))
        return ops

    def _call(self, argv):
        return lambda: self._main(argv)

    def _inspect(self, label, files):
        def inspect(rc, err):
            c = self.checks
            if rc != 0:
                known, code, text = self.KNOWN_FAILURE
                if not (label == known and rc == code and text in err):
                    print(f"perfbench: {label} failed with exit {rc}: {err.strip()}", file=sys.stderr)
                return False
            data = [read_bytes(f) for f in files]
            if self.recorder is not None:
                self.recorder.count("cli.csv_bytes", sum(len(d) for d in data))
            c.expect(data == self.warm_bytes[label], f"{label}: output bytes differ from the warm-up call")
            if label not in self.inspected:
                self.inspected.add(label)
                self._check_content(label, files)
            return True
        return inspect

    def _check_content(self, label, files):
        c = self.checks
        if label.startswith("pipeline"):
            with open(files[0], encoding="utf-8") as fh:
                menu = json.load(fh)
            L = np.array([e["lottery"] for e in menu["entries"]], dtype=float).reshape(-1, menu["m"])
            P = np.array([e["price"] for e in menu["entries"]], dtype=float)
            c.expect(menu["m"] == self.M and np.all(L >= 0) and np.all(L.sum(axis=1) <= 1 + 1e-9)
                     and np.all(P > 0), f"{label}: menu is not a valid m={self.M} lottery menu")
            _, rows = read_csv(files[1])
            c.expect(rows[0][1] == len(P), f"{label}: report says {rows[0][1]} entries, menu has {len(P)}")
            self.oos[label] = ref.mean_and_se(ref.payments(L, P, self.fresh))
            return
        header, rows = read_csv(files[0])
        col = {name: i for i, name in enumerate(header)}
        if label == "overfit":
            price1 = float(np.mean([r[col["price1_on_fresh"]] for r in rows]))
            c.add(ref.price1_check(price1, 10_000 * len(rows), 64, 0.1, "experiment overfit"))
        elif label in ("lowerbound_per_point", "lowerbound_default"):
            for r in rows:
                lb, base, ratio = r[col["lb_menu_revenue"]], r[col["item_baseline_revenue"]], r[col["ratio"]]
                c.expect(lb > 0 and base > 0 and abs(ratio - lb / base) <= 1e-12 * ratio,
                         f"{label}: inconsistent row {r}")
        elif label == "greedy_vs_opt":
            for r in rows:
                # scores are low + (high - low) * covered fraction, with low 1 and high H
                greedy = (r[col["greedy_revenue"]] - 1.0) / (self.GREEDY_H - 1.0)
                oracle = (r[col["oracle_revenue"]] - 1.0) / (self.GREEDY_H - 1.0)
                c.expect(greedy >= (1.0 - 1.0 / math.e) * oracle - 1e-12,
                         f"greedy covers {greedy!r}, below (1 - 1/e) of the oracle's {oracle!r}")
        elif label == "baseline":
            for r in rows:
                c.expect(r[col["baseline_revenue"]] >= r[col["guarantee"]],
                         f"baseline row {r} is below its guarantee")

    def finish(self):
        return ref.pooled(list(self.oos.values()), shared_draws=True)


WORKLOADS = {"fit_large": FitLarge, "evaluate": Evaluate, "sweep": Sweep}
