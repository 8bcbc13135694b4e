"""Spans and counts around menuforge's public functions, recorded from outside.

:func:`install` replaces each traced function, in every ``menuforge``
module that binds it, with a wrapper that records a span (name, layer,
start, end, parent, phase) and the work counts that can be read off the
call's arguments and result.  Nothing in ``src/`` is changed: the
wrappers follow whatever path the program takes because they sit on the
names the modules call each other through.

The recorder keeps spans in memory and is written out once, at the end
of a run.  It assumes one thread, which holds while ``MENUFORGE_THREADS``
is at its default of 1.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

import numpy as np

LAYERS = ("lp", "core", "distributions", "rounding", "covers", "pipeline", "maxrev", "cli")


def _kernel_counts(args, kwargs, result):
    menu = args[0]
    V = np.atleast_2d(np.asarray(args[1] if len(args) > 1 else kwargs["V"]))
    n, k, m = V.shape[0], menu.size, menu.m
    # float64 arrays the kernel reads (V, lotteries, prices) plus the n x k
    # utility matrix it computes; derived from shapes, not measured
    return {"core.cells": n * k, "core.bytes_computed": 8 * (n * m + k * m + k + n * k)}


def _greedy_counts(args, kwargs, result):
    # each greedy step scores every item once
    return {"maxrev.item_sets_scored": result[0].size * args[0].m}


def _brute_counts(args, kwargs, result):
    problem = args[0]
    return {"maxrev.item_sets_scored": math.comb(problem.m, min(problem.k, problem.m))}


def _draw_counts(args, kwargs, result):
    return {"distributions.draws": np.asarray(result).shape[0]}


def _draw_meta_counts(args, kwargs, result):
    return {"distributions.draws": result[0].shape[0]}


# layer -> {traced name: (metric that takes the span's self time, counts)}.
# A dotted name is a method.  Spans without a metric of their own still count
# toward their layer's self time in the trace file and in pipeline/cli self_s.
TRACED = {
    "lp": {
        "build_lp": ("lp.build_s", None),
        "solve_lp": ("lp.solve_s", lambda a, k, r: {
            "lp.calls": 1, "lp.ic_rows": a[0].num_ic_rows, "lp.nnz": a[0].A_ub.nnz}),
        "extract_menu": ("lp.extract_s", lambda a, k, r: {"lp.menu_entries": r.size}),
        "brute_force_optimal": (None, None),
    },
    "core": {
        "revenue_batch": ("core.revenue_batch_s", _kernel_counts),
        "choose_batch": ("core.choose_batch_s", _kernel_counts),
        "expected_revenue": (None, None),
        "estimate_revenue": (None, None),
    },
    "distributions": {
        "Sampler.draw": ("distributions.draw_s", _draw_counts),
        "EqualRevenueSpreadSampler.draw_with_meta": ("distributions.draw_s", _draw_meta_counts),
        "ExplicitDistribution.consolidated": ("distributions.consolidate_s", lambda a, k, r: {
            "distributions.rows_in": a[0].n, "distributions.rows_kept": r.n}),
        "sparse_subsample": ("distributions.sparse_subsample_s", None),
        "explicit_from_samples": (None, None),
        "expected_max_value": (None, None),
        "distribution_from_json": (None, None),
        "load_distribution": (None, None),
        "load_hitting_set": (None, None),
        "hitting_set_valuations": (None, None),
    },
    "rounding": {
        "round_menu": ("rounding.round_s", lambda a, k, r: {
            "rounding.entries_in": a[0].size, "rounding.entries_kept": r.size}),
        "guarantee_bound": (None, None),
    },
    "covers": {
        "round_lottery": ("covers.round_lottery_s", lambda a, k, r: {"covers.lotteries_rounded": 1}),
        "enumerate_cover": (None, None),
    },
    "pipeline": {
        name: (None, None)
        for name in (
            "sample_and_round", "overfit_experiment", "lower_bound_experiment",
            "item_pricing_baseline", "item_pricing_from_samples", "naive_overfit_menu",
            "lower_bound_menu", "uniform_price_menu", "doubling_prices",
        )
    },
    "maxrev": {
        "greedy_k_item_menu": ("maxrev.greedy_s", _greedy_counts),
        "brute_force_k_menu": ("maxrev.brute_force_s", _brute_counts),
        "reduce_hitting_set": (None, None),
    },
    "cli": {"main": (None, None)},
}

# Every per-layer metric the traced run reports, with its unit.  A layer that
# does not run in a workload reports 0.
PER_LAYER_UNITS = {
    "lp.build_s": "s", "lp.solve_s": "s", "lp.extract_s": "s", "lp.calls": "count",
    "lp.ic_rows": "count", "lp.nnz": "count", "lp.menu_entries": "count",
    "rounding.entries_in": "count", "rounding.entries_kept": "count", "rounding.round_s": "s",
    "rounding.guarantee_violations": "count",
    "covers.round_lottery_s": "s", "covers.lotteries_rounded": "count",
    "core.revenue_batch_s": "s", "core.choose_batch_s": "s", "core.cells": "count",
    "core.bytes_computed": "bytes",
    "distributions.draw_s": "s", "distributions.draws": "count",
    "distributions.consolidate_s": "s", "distributions.support_kept": "ratio",
    "distributions.sparse_subsample_s": "s",
    "maxrev.greedy_s": "s", "maxrev.brute_force_s": "s", "maxrev.item_sets_scored": "count",
    "pipeline.self_s": "s", "cli.self_s": "s", "cli.csv_bytes": "bytes",
}


class Recorder:
    """Spans and counts of one run, kept in memory.

    ``phase`` is None while nothing should be recorded (warm-up and output
    checks); otherwise it labels the spans: "setup" for input generation,
    "ops" for the timed operations.
    """

    def __init__(self):
        self.phase = None
        self.spans = []        # [name, layer, start, end, parent, phase, self_s, metric]
        self.counts = {}
        self._stack = []       # [span index, seconds covered by child spans]

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, layer, name, fn, metric, counter):
        rec = self
        # nested draws (draw -> draw_with_meta) count their rows once
        outer_only = metric == "distributions.draw_s"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.phase is None:
                return fn(*args, **kwargs)
            parent = rec._stack[-1][0] if rec._stack else None
            nested = parent is not None and rec.spans[parent][7] == metric
            idx = len(rec.spans)
            rec.spans.append([name, layer, 0.0, 0.0, parent, rec.phase, 0.0, metric])
            rec._stack.append([idx, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, covered = rec._stack.pop()
                span = rec.spans[idx]
                span[2], span[3], span[6] = start, end, (end - start) - covered
                if rec._stack:
                    rec._stack[-1][1] += end - start
            if counter is not None and not (outer_only and nested):
                for key, value in counter(args, kwargs, result).items():
                    rec.count(key, value)
            return result

        return traced

    def per_layer(self) -> dict:
        """The per-layer metrics: self seconds per metric and layer, and counts."""
        out = {key: 0.0 if unit == "s" else 0 for key, unit in PER_LAYER_UNITS.items()}
        for _, layer, _, _, _, _, self_s, metric in self.spans:
            if metric is not None:
                out[metric] += self_s
            if layer in ("pipeline", "cli"):
                out[f"{layer}.self_s"] += self_s
        for key, value in self.counts.items():
            if key in out:
                out[key] += value
        rows_in = self.counts.get("distributions.rows_in", 0)
        if rows_in:
            out["distributions.support_kept"] = self.counts["distributions.rows_kept"] / rows_in
        return out

    def dump(self, path) -> None:
        spans = [
            {"name": n, "layer": ly, "start": s, "end": e, "parent": p, "phase": ph, "self_s": so}
            for n, ly, s, e, p, ph, so, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": self.counts}, fh)
            fh.write("\n")


def install(recorder: Recorder) -> None:
    """Put a recording wrapper on every traced function, wherever it is bound."""
    mods = [importlib.import_module(f"menuforge.{layer}") for layer in LAYERS]
    loaded = [m for name, m in sys.modules.items() if name == "menuforge" or name.startswith("menuforge.")]
    for layer, mod in zip(LAYERS, mods):
        for name, (metric, counter) in TRACED[layer].items():
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, recorder.wrap(layer, name, cls.__dict__[meth], metric, counter))
                continue
            orig = getattr(mod, name)
            wrapped = recorder.wrap(layer, name, orig, metric, counter)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
