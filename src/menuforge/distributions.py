"""Valuation distributions: explicit supports, black-box samplers, and the
parametric families used by the experiments.

Explicit distributions are finite weighted supports stored as arrays and
are the inputs to exact evaluation and to the menu LP.  Samplers model
black-box access: they only promise i.i.d. draws, deterministic under a
fixed seed.

The parametric families:

* ``OverfitProductSampler``: i.i.d. coordinates taking value 1 with
  probability delta, 2 with probability delta/m, else 0.  Sample-optimal
  menus for this family memorize the drawn supports and collapse on
  fresh draws, which is the overfitting exhibit.
* ``EqualRevenueSpreadSampler``: value 2^z on a uniformly random set S of
  k = m/3 items and 1 elsewhere, with z following the truncated
  equal-revenue law Pr[z = x] = 2^-x for x = 1..log2(H) and the residual
  2^-log2(H) folded into the top scale.  A batch draws all its z first,
  then its sets, which the k-set writer ``_write_k_sets`` marks straight
  in the value rows as 2^z.  The values alone fix each point's set and
  scale, since 2^z >= 2 > 1: ``spread_sets_and_scales`` reads them back,
  and is the one place that does.
* ``sparse_subsample``: K points of the spread family whose sets
  pairwise meet in fewer than m/6 items, each set drawn uniformly among
  those compatible with the sets before it; the lower-bound menu
  construction needs that sparsity.  Its candidate sets come from the
  same k-set writer as the spread sampler's, marked as 1 in indicator rows.
* hitting-set valuations: value H on a given set, 1 elsewhere, one
  valuation per set; the MAXREV reduction instances.  They are read from
  one form only, the 1-based text file of :func:`load_hitting_set`;
  ``reduce-hitting-set`` writes them out as an explicit distribution.
* ``MonotoneUniformSampler``: sorted i.i.d. uniforms on [1, H], a
  generator of monotone valuations for the tail-probability covers.

Every sampler writes its batch straight into its output array.  The
draws that need temporaries as large as their input (the overfit
family's uniforms, the k-set writer's uniforms and their argsort) run in
row blocks of about ``core._BLOCK_CELLS`` values, the choice kernel's
block size, so a batch holds its output plus one block while it draws.
Blocking does not change a single byte: ``Generator.random`` fills its
output row-major, so consecutive (rows, m) calls read the same doubles
as one (n, m) call, and each output row depends on its own doubles only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import (ValidationError, json_float, json_floats, json_int, json_object, json_value, naming_file, read_json,
                   sample_count)

VALUE_RANGE_TAGS = ("unit_interval", "bounded", "monotone", "nonneg")


class IntersectionPropertyError(RuntimeError):
    """The pairwise set-sparsity required by the lower-bound construction
    could not be achieved within the candidate cap."""


@dataclass(frozen=True)
class ExplicitDistribution:
    """Finite weighted support of valuations, stored row-per-type.

    The tag names the value class the rows must lie in, and the
    constructor checks it: "nonneg" for any finite nonnegative values,
    "unit_interval" for [0, 1]^m, "bounded" for [1, H]^m and "monotone"
    for nondecreasing rows in [1, H]^m (each bound within a relative
    1e-12).  No package code reads or writes ``meta``, and it is neither
    copied nor frozen; besides tests, only perfbench's ``evaluate`` workload
    passes it.
    """

    values: np.ndarray          # (n, m)
    weights: np.ndarray         # (n,)
    tag: str = "nonneg"
    H: float = float("inf")
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        V = np.array(self.values, dtype=float)
        w = np.array(self.weights, dtype=float)
        if V.ndim != 2 or V.size < 1:
            raise ValidationError("support must be a non-empty (n, m) array")
        if w.shape != (V.shape[0],):
            raise ValidationError("one weight per support point required")
        if not np.all(np.isfinite(w)):
            raise ValidationError("non-finite weight")
        if np.any(w < 0):
            raise ValidationError("negative weight")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {w.sum()}, expected 1 within 1e-9")
        if self.tag not in VALUE_RANGE_TAGS:
            raise ValidationError(f"unknown value range tag {self.tag!r}")
        if math.isnan(self.H):
            raise ValidationError("H is NaN; give a number, or inf for no bound")
        lo, hi = V.min(), V.max()  # NaN if any value is NaN
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0:
            raise ValidationError("support values must be finite and nonnegative")
        if self.tag == "unit_interval" and hi > 1 + 1e-12:
            raise ValidationError("unit_interval support exceeds 1")
        if self.tag in ("bounded", "monotone") and (lo < 1 - 1e-12 or hi > self.H * (1 + 1e-12)):
            raise ValidationError(f"{self.tag} support leaves [1, H={self.H}]")
        if self.tag == "monotone" and np.any(V[:, 1:] < V[:, :-1]):
            raise ValidationError("monotone support has a decreasing row")
        V.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", V)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @functools.cached_property
    def top_values(self) -> np.ndarray:
        """Each support point's largest value, computed once, read-only."""
        top = row_maxima(self.values)
        top.setflags(write=False)
        return top

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def consolidated(self) -> "ExplicitDistribution":
        """Merge exactly-identical support points, summing their weights.

        Exact operation: expected revenue of any menu is unchanged.
        :func:`~menuforge.lp.build_lp` calls it, so the menu LP has one
        type per distinct valuation.
        """
        uniq, inv = np.unique(self.values, axis=0, return_inverse=True)
        w = np.zeros(uniq.shape[0])
        np.add.at(w, inv, self.weights)
        return ExplicitDistribution(uniq, w, tag=self.tag, H=self.H)

    def to_json_dict(self) -> dict:
        params = {"support": self.values.tolist(), "weights": self.weights.tolist(), "tag": self.tag}
        if np.isfinite(self.H):
            params["H"] = float(self.H)
        return {"type": "explicit", "params": params}


def explicit_from_samples(samples, tag: str = "nonneg", H: float = float("inf")) -> ExplicitDistribution:
    """Uniform empirical distribution over drawn valuations.

    Duplicates are kept as separate points, so the result has exactly one
    support row per sample.
    """
    V = np.asarray(samples, dtype=float)
    if V.ndim == 1:
        V = V[None, :]
    if V.shape[0] < 1:
        raise ValidationError("need at least one sample")
    n = V.shape[0]
    return ExplicitDistribution(V, np.full(n, 1.0 / n), tag=tag, H=H)


def row_maxima(V: np.ndarray) -> np.ndarray:
    """``V.max(axis=1)``, as one ``np.maximum`` per column up to m=16 items
    and as ``V.max(axis=1)`` above; the maximum is exact, so the bits
    agree.  The row reduction runs a length-m inner loop per row, which
    the column-wise form beats at small m and loses to past m of about
    16-20: on 100k rows, 1.1 against 5.3 ms at m=5, 56 against 9.8 ms at m=64."""
    if V.shape[1] > 16:
        return V.max(axis=1)
    return functools.reduce(np.maximum, V.T)


def expected_max_value(dist: ExplicitDistribution) -> float:
    """E[max_i v_i], the single-item surplus upper bound on revenue."""
    return core.weighted_sum(dist.weights, dist.top_values)


def _integral_log2(H: float) -> int:
    if not math.isfinite(H):
        raise ValidationError(f"H must be finite, not {H}")
    if H < 2:
        raise ValidationError("H must be at least 2")
    L = round(math.log2(H))
    if 2 ** L != H:
        raise ValidationError(f"H={H} must be an integral power of 2")
    return L


def _row_blocks(n: int, m: int):
    """Slices of consecutive rows of an (n, m) batch, ``core._BLOCK_CELLS``
    values each (at least one row), covering all n rows in order."""
    rows = max(1, core._BLOCK_CELLS // m)
    return (slice(s, min(s + rows, n)) for s in range(0, n, rows))


class Sampler:
    """Black-box access to a valuation distribution.

    ``draw(n)`` advances the sampler's own stream; ``draw(n, rng)`` uses
    the caller's generator instead and leaves the sampler untouched.  Two
    samplers built with the same seed produce identical draw sequences.
    A single instance must not be shared across concurrent drawers.  The
    constructor checks m >= 1, the tag, and, for "bounded" and "monotone"
    values, a finite H >= 1.
    """

    m: int
    H: float
    tag: str

    def __init__(self, m: int, H: float, tag: str, seed: int):
        self.m = int(m)
        self.H = float(H)
        self.tag = tag
        if self.m < 1:
            raise ValidationError(f"m must be at least 1, not {m}")
        if tag not in VALUE_RANGE_TAGS:
            raise ValidationError(f"unknown value range tag {tag!r}")
        if tag in ("bounded", "monotone") and not (math.isfinite(self.H) and self.H >= 1):
            raise ValidationError(f"H must be finite and at least 1, not {H}")
        self._rng = np.random.default_rng(seed)

    def draw(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        return self._draw(sample_count(n), self._rng if rng is None else rng)

    def _draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class ExplicitSampler(Sampler):
    """Sampling with replacement from an explicit distribution."""

    def __init__(self, dist: ExplicitDistribution, seed: int):
        H = dist.H if np.isfinite(dist.H) else float(dist.values.max())
        super().__init__(dist.m, H, dist.tag, seed)
        self.dist = dist

    def _draw(self, n, rng):
        idx = rng.choice(self.dist.n, size=n, p=self.dist.weights)
        return self.dist.values[idx]


@dataclass(frozen=True)
class OverfitProductParams:
    """Parameters of the overfitting product family.

    Each coordinate is 1 with probability delta, 2 with probability
    delta/m, 0 otherwise, independently.  Requires delta in (0, 1/2) and
    valid per-coordinate probabilities.
    """

    m: int
    delta: float

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("m must be at least 1")
        if not (0.0 < self.delta < 0.5):
            raise ValidationError("delta must lie in (0, 1/2)")
        if self.delta + self.delta / self.m > 1.0:
            raise ValidationError("per-item probabilities exceed 1")


class OverfitProductSampler(Sampler):
    def __init__(self, params: OverfitProductParams, seed: int):
        super().__init__(params.m, 2.0, "nonneg", seed)
        self.params = params

    def _draw(self, n, rng):
        p = self.params
        V = np.empty((n, self.m))
        for block in _row_blocks(n, self.m):
            u = rng.random(V[block].shape)
            # 1 below delta/m + delta, and 1 more below delta/m
            np.add(u < p.delta / p.m + p.delta, u < p.delta / p.m, out=V[block], dtype=float)
        return V


@dataclass(frozen=True)
class EqualRevenueSpreadParams:
    """Parameters of the spread equal-revenue family: k = m/3 items get
    value 2^z, the rest get 1."""

    m: int
    H: float

    def __post_init__(self):
        if self.m < 3 or self.m % 3 != 0:
            raise ValidationError("m must be a positive multiple of 3")
        _integral_log2(self.H)

    @property
    def k(self) -> int:
        return self.m // 3

    @property
    def levels(self) -> int:
        return _integral_log2(self.H)


def _write_k_sets(rng: np.random.Generator, rows: np.ndarray, k: int, values: np.ndarray) -> None:
    """Write ``values[i]`` at k uniformly random items of ``rows[i]``, for
    each row of the (n, m) array ``rows``; ``values`` is an (n, 1) column.

    Row i's items are the first k positions of a uniformly random
    permutation (the argsort of m i.i.d. uniforms).  The uniforms are
    drawn in row blocks of ``core._BLOCK_CELLS``, each block's argsort
    written into its rows before the next block is drawn, so the writer
    holds its rows plus one block.  The items are the ones a single
    (n, m) draw would give, since ``Generator.random`` fills row-major,
    and no sort is needed, since a write does not depend on order.
    """
    for block in _row_blocks(*rows.shape):
        u = rng.random(rows[block].shape)
        np.put_along_axis(rows[block], u.argsort(axis=1)[:, :k], values[block], axis=1)


def _draw_scales(rng: np.random.Generator, levels: int, n: int) -> np.ndarray:
    """z with Pr[z=x] = 2^-x for x < levels and the residual at the top."""
    u = rng.random(n)
    # inverse CDF: z - 1 counts the cumulative thresholds 1/2, 3/4, ... at or below u
    return np.searchsorted(1.0 - 2.0 ** -np.arange(1.0, levels), u, side="right") + 1


class EqualRevenueSpreadSampler(Sampler):
    def __init__(self, params: EqualRevenueSpreadParams, seed: int):
        super().__init__(params.m, params.H, "bounded", seed)
        self.params = params

    def _draw(self, n, rng):
        z = _draw_scales(rng, self.params.levels, n)
        V = np.ones((n, self.m))
        _write_k_sets(rng, V, self.params.k, 2.0 ** z[:, None])
        return V

    def draw_with_meta(self, n: int, rng: np.random.Generator | None = None):
        """Draws plus their construction data, (values, sets (n, k), z (n,)),
        as :func:`spread_sets_and_scales` reads it off the values."""
        V = self.draw(n, rng)
        return (V, *spread_sets_and_scales(V))


def spread_sets_and_scales(values) -> tuple[np.ndarray, np.ndarray]:
    """Each row's set S, ascending, and scale z, as (sets (n, k), z (n,)).

    Raises :class:`ValidationError` unless every row of the (n, m) array
    ``values`` is a point of the spread family: m a positive multiple of
    3, value 2^z with z a positive integer on exactly k = m/3 items, and
    exactly 1 on every other item.  Beside the values it holds (n, m)
    booleans and the (n, k) sets, so reading a draw costs no more than
    the sets it returns.
    """
    V = np.asarray(values, dtype=float)
    if V.ndim != 2 or V.shape[1] < 3 or V.shape[1] % 3:
        raise ValidationError(f"spread points have m a positive multiple of 3 items; the values have shape {V.shape}")
    m = V.shape[1]
    k = m // 3
    top = V.max(axis=1)
    # top = mantissa * 2^exponent is 2^z, z >= 1, iff the mantissa is 0.5 and z = exponent - 1 >= 1
    mantissa, exponent = np.frexp(top)
    on = V == top[:, None]
    bad = (mantissa != 0.5) | (exponent < 2) | (on.sum(axis=1) != k) | ((V == 1.0).sum(axis=1) != m - k)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"row {i} is not a spread point: 2^z, z a positive integer, on {k} of its {m} items and 1 elsewhere"
        )
    sets = np.flatnonzero(on)
    sets %= m  # in place: the read holds one (n, k) array, not two
    return sets.reshape(-1, k), (exponent - 1).astype(np.intp)


# a power of two: the doubling blocks then fill the first _CANDIDATE_BLOCK - 1
# candidates, and a candidate c among them ends its block at 2^bit_length(c + 1) - 1
_CANDIDATE_BLOCK = 64      # most candidate sets in one block of a point's stream
_CANDIDATE_CAP = 10_000    # candidates a point may try before the construction fails
_CANDIDATE_DRAW = 256      # fewest candidates drawn into sparse_subsample's pool at once


def sparse_subsample(params: EqualRevenueSpreadParams, K: int, seed: int) -> ExplicitDistribution:
    """K points of the spread family whose sets pairwise meet in fewer
    than m/6 items.

    That is the half-overlap condition the lower-bound menu needs.  The
    K scales z come first from the stream seeded with ``seed``.  Then
    point i's set is drawn uniformly among the k-sets that meet every
    accepted set in fewer than m/6 items: it is the first compatible one
    of the point's candidates, uniform k-sets read in order from the
    stream.  The candidates are grouped in blocks, the first of one
    candidate and each further one twice as large, up to
    ``_CANDIDATE_BLOCK``: when m is large next to K nearly every first
    candidate is compatible, and the points follow the family's i.i.d.
    law.  The block holding the kept candidate is used up, so the next
    point's candidates start at that block's end.

    Candidate j of the whole stream is the j-th group of m uniforms
    after the scales, however the k-set writer ``_write_k_sets`` is
    chunked, so the candidates are written ``_CANDIDATE_DRAW`` or more at
    a time into a pool of at most ``_CANDIDATE_BLOCK + _CANDIDATE_DRAW``
    indicator rows.  The doubling blocks are tested against the accepted
    sets in one product, then each later block in its own.

    Raises :class:`IntersectionPropertyError` when some point finds no
    compatible candidate among ``_CANDIDATE_CAP``.
    """
    if K < 1:
        raise ValidationError("K must be at least 1")
    m, k = params.m, params.k
    threshold = m / 6.0
    rng = np.random.default_rng(seed)
    z = _draw_scales(rng, params.levels, K)
    accepted = np.zeros((K, m))  # indicator rows of the accepted sets
    pool = np.empty((0, m))  # indicator rows of the point's candidates, from its first one on
    for i in range(K):
        tried, w = 0, _CANDIDATE_BLOCK - 1  # the doubling blocks 1 + 2 + ... + _CANDIDATE_BLOCK / 2
        while tried < _CANDIDATE_CAP:
            w = min(w, _CANDIDATE_CAP - tried)
            if len(pool) < w:
                ind = np.zeros((max(w - len(pool), _CANDIDATE_DRAW), m))
                _write_k_sets(rng, ind, k, np.ones((len(ind), 1)))
                pool = np.concatenate([pool, ind])
            ok = np.flatnonzero((pool[:w] @ accepted[:i].T < threshold).all(axis=1))
            if ok.size:
                c = int(ok[0])
                accepted[i] = pool[c]
                # the point uses up c's block
                pool = pool[(1 << (c + 1).bit_length()) - 1 if tried == 0 else w:]
                break
            pool, tried, w = pool[w:], tried + w, _CANDIDATE_BLOCK
        else:
            raise IntersectionPropertyError(
                f"accepted only {i} of {K} points after {_CANDIDATE_CAP} candidates each "
                f"(m={m}, k={k}, threshold {threshold})"
            )
    V = np.where(accepted > 0, 2.0 ** z[:, None], 1.0)
    return ExplicitDistribution(V, np.full(K, 1.0 / K), tag="bounded", H=params.H)


@dataclass(frozen=True)
class HittingSetInstance:
    """A family of non-empty subsets of range(m), plus the value scale H."""

    sets: tuple
    m: int
    H: float

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("m must be at least 1")
        if not math.isfinite(self.H):
            raise ValidationError(f"H must be finite, not {self.H}")
        if self.H <= 1:
            raise ValidationError("H must exceed 1")
        if len(self.sets) == 0:
            raise ValidationError("set family is empty")
        norm = []
        for s in self.sets:
            t = tuple(sorted(int(e) for e in s))
            if len(t) == 0:
                raise ValidationError("empty set in family")
            if len(set(t)) != len(t):
                raise ValidationError("duplicate item inside a set")
            if t[0] < 0 or t[-1] >= self.m:
                raise ValidationError(f"set {t} leaves range(m={self.m})")
            norm.append(t)
        object.__setattr__(self, "sets", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.sets)


def hitting_set_valuations(inst: HittingSetInstance) -> ExplicitDistribution:
    """One valuation per set: H on the set, 1 elsewhere, uniform weights."""
    V = np.ones((inst.n, inst.m))
    for i, s in enumerate(inst.sets):
        V[i, list(s)] = inst.H
    return ExplicitDistribution(V, np.full(inst.n, 1.0 / inst.n), tag="bounded", H=inst.H)


def load_hitting_set(path, H: float) -> HittingSetInstance:
    """Plain text format: first line "m n", then one line of space-separated
    1-based item indices per set.  Blank lines and lines starting with "#"
    are skipped."""
    with naming_file(path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, ln.split()) for no, ln in enumerate(fh, 1) if ln.strip() and not ln.startswith("#")]
        if not lines:
            raise ValidationError("empty hitting-set file")

        def integer(no: int, tok: str) -> int:
            try:
                return int(tok)
            except ValueError:
                raise ValidationError(f"line {no}: {tok!r} is not an integer") from None

        (head_no, header), rows = lines[0], lines[1:]
        if len(header) != 2:
            raise ValidationError('first line must be "m n"')
        m, n = (integer(head_no, tok) for tok in header)
        if len(rows) != n:
            raise ValidationError(f"header declares {n} sets, file has {len(rows)}")
        sets = [tuple(integer(no, tok) for tok in tokens) for no, tokens in rows]
        outside = [e for s in sets for e in s if not 1 <= e <= m]
        if outside:
            raise ValidationError(f"item {outside[0]} lies outside the items 1..{m}")
        return HittingSetInstance(tuple(tuple(e - 1 for e in s) for s in sets), m=m, H=H)


class MonotoneUniformSampler(Sampler):
    """m i.i.d. uniforms on [1, H], sorted ascending: monotone valuations."""

    def __init__(self, m: int, H: float, seed: int):
        super().__init__(m, H, "monotone", seed)

    def _draw(self, n, rng):
        # in place, the same doubles as 1 + (H - 1) * r
        V = rng.random((n, self.m))
        V *= self.H - 1.0
        V += 1.0
        V.sort(axis=1)
        return V


# each type's "params" fields and their readers; only "explicit" may leave out "tag" and "H"
_PARAMS = {"explicit": {"support": json_floats, "weights": json_floats, "tag": json_value, "H": json_float},
           "overfit": {"m": json_int, "delta": json_float}, "equal_revenue": {"m": json_int, "H": json_float},
           "sparse_subsample": {"m": json_int, "H": json_float, "K": json_int},
           "monotone_uniform": {"m": json_int, "H": json_float}}


def distribution_from_json(d: dict):
    """Build a distribution or sampler from its JSON description.

    Explicit supports come back as :class:`ExplicitDistribution`; every
    parametric type comes back as a seeded sampler.  ``sparse_subsample``
    descriptions are materialized into their explicit distribution, and
    their ``"seed"`` chooses its points.  A sampler's ``"seed"`` seeds only
    its own stream, which no CLI command draws from: ``pipeline`` draws
    from the config's ``seed`` and ``experiment baseline`` from each of
    its ``--seeds`` (an explicit distribution it scores once, undrawn), so
    descriptions that differ only in that seed give identical outputs.
    Counts must be integral numbers and a seed a nonnegative one; every
    other number, in a field or an array, must be a finite number, not a
    boolean or a string.
    A field that no reader reads, say a misspelled one, is an error.
    """
    d = json_object(d, "distribution", {"type": str, "params": json_value, "seed": core.json_seed},
                    optional=("params", "seed"))
    kind, seed = d["type"], d.get("seed", 0)
    if kind not in _PARAMS:
        raise ValidationError(f"unknown distribution type {kind!r}")
    p = json_object(d.get("params", {}), f"{kind} distribution params", _PARAMS[kind],
                    optional=("tag", "H") if kind == "explicit" else ())
    if kind == "explicit":
        return ExplicitDistribution(p.pop("support"), **p)
    if kind == "overfit":
        return OverfitProductSampler(OverfitProductParams(**p), seed)
    if kind == "equal_revenue":
        return EqualRevenueSpreadSampler(EqualRevenueSpreadParams(**p), seed)
    if kind == "sparse_subsample":
        return sparse_subsample(EqualRevenueSpreadParams(p["m"], p["H"]), p["K"], seed)
    # the one type left: monotone_uniform
    return MonotoneUniformSampler(**p, seed=seed)


def load_distribution(path):
    with naming_file(path):
        return distribution_from_json(read_json(path))
