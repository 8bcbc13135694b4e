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
  2^-log2(H) folded into the top scale.
* ``sparse_subsample``: K points of the spread family whose sets
  pairwise meet in fewer than m/6 items, each set drawn uniformly among
  those compatible with the sets before it; the lower-bound menu
  construction needs that sparsity.
* hitting-set valuations: value H on a given set, 1 elsewhere, one
  valuation per set; the MAXREV reduction instances.
* ``MonotoneUniformSampler``: sorted i.i.d. uniforms on [1, H], a
  generator of monotone valuations for the tail-probability covers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError, Valuation


class IntersectionPropertyError(RuntimeError):
    """The pairwise set-sparsity required by the lower-bound construction
    could not be achieved within the candidate cap."""


@dataclass(frozen=True)
class ExplicitDistribution:
    """Finite weighted support of valuations, stored row-per-type.

    ``meta`` optionally carries per-point construction data (the set S
    and scale z of the equal-revenue spread family) that the lower-bound
    menu needs.
    """

    values: np.ndarray          # (n, m)
    weights: np.ndarray         # (n,)
    tag: str = "nonneg"
    H: float = float("inf")
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        V = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValidationError("support must be a non-empty (n, m) array")
        if w.shape != (V.shape[0],):
            raise ValidationError("one weight per support point required")
        if np.any(w < 0):
            raise ValidationError("negative weight")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {w.sum()}, expected 1 within 1e-9")
        V.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", V)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def support(self) -> list[Valuation]:
        return [Valuation(self.values[i], tag=self.tag, H=self.H) for i in range(self.n)]

    def consolidated(self) -> "ExplicitDistribution":
        """Merge exactly-identical support points, summing their weights.

        Exact operation: expected revenue of any menu is unchanged.
        Useful before building the menu LP, where duplicate rows only add
        vacuous incentive constraints.
        """
        uniq, inv = np.unique(self.values, axis=0, return_inverse=True)
        w = np.zeros(uniq.shape[0])
        np.add.at(w, inv, self.weights)
        return ExplicitDistribution(uniq, w, tag=self.tag, H=self.H)

    def to_json_dict(self) -> dict:
        params = {
            "support": [[float(x) for x in row] for row in self.values],
            "weights": [float(x) for x in self.weights],
            "tag": self.tag,
        }
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


def expected_max_value(dist: ExplicitDistribution) -> float:
    """E[max_i v_i], the single-item surplus upper bound on revenue."""
    return float(dist.weights @ dist.values.max(axis=1))


def scalar_equal_revenue(H: float) -> ExplicitDistribution:
    """The one-item dyadic equal-revenue core: Pr[v = 2^x] = 2^-x.

    The law is supported on {2, 4, ..., H} with the leftover mass 2^-log2(H)
    placed on a unit-value atom that never buys at any dyadic price >= 2.
    Every single price 2^j then earns exactly 2 - 2^(j - log2 H), so the
    best single price earns 2 - 2^(1 - log2 H), strictly below 2.
    """
    L = _integral_log2(H)
    vals = [1.0] + [float(2 ** x) for x in range(1, L + 1)]
    wts = [2.0 ** -L] + [2.0 ** -x for x in range(1, L + 1)]
    return ExplicitDistribution(np.array(vals)[:, None], np.array(wts), tag="bounded", H=float(H))


def _integral_log2(H: float) -> int:
    L = round(math.log2(H))
    if 2 ** L != H:
        raise ValidationError(f"H={H} must be an integral power of 2")
    if L < 1:
        raise ValidationError("H must be at least 2")
    return L


class Sampler:
    """Black-box access to a valuation distribution.

    ``draw(n)`` advances the sampler's own stream; ``draw(n, rng)`` uses
    the caller's generator instead and leaves the sampler untouched.  Two
    samplers built with the same seed produce identical draw sequences.
    A single instance must not be shared across concurrent drawers.
    """

    m: int
    H: float
    tag: str

    def __init__(self, m: int, H: float, tag: str, seed: int):
        self.m = int(m)
        self.H = float(H)
        self.tag = tag
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def draw(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        if n < 1:
            raise ValidationError("n must be at least 1")
        return self._draw(int(n), self._rng if rng is None else rng)

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
        u = rng.random((n, self.m))
        V = np.zeros((n, self.m))
        V[u < p.delta / p.m + p.delta] = 1.0
        V[u < p.delta / p.m] = 2.0
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


def floyd_subset(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """Floyd's algorithm: a uniform size-k subset of range(m), sorted."""
    chosen: set[int] = set()
    for j in range(m - k, m):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return np.array(sorted(chosen), dtype=int)


def _draw_scales(rng: np.random.Generator, levels: int, n: int) -> np.ndarray:
    """z with Pr[z=x] = 2^-x for x < levels and the residual at the top."""
    u = rng.random(n)
    # inverse CDF over cumulative thresholds 1/2, 3/4, ...
    z = np.full(n, levels, dtype=int)
    cum = 0.0
    for x in range(1, levels):
        cum += 2.0 ** -x
        z[(u >= cum - 2.0 ** -x) & (u < cum)] = x
    return z


class EqualRevenueSpreadSampler(Sampler):
    def __init__(self, params: EqualRevenueSpreadParams, seed: int):
        super().__init__(params.m, params.H, "bounded", seed)
        self.params = params

    def _draw(self, n, rng):
        V, _, _ = self.draw_with_meta(n, rng)
        return V

    def draw_with_meta(self, n: int, rng: np.random.Generator | None = None):
        """Draws plus their construction data: (values, sets (n, k), z (n,))."""
        rng = self._rng if rng is None else rng
        p = self.params
        z = _draw_scales(rng, p.levels, n)
        sets = np.empty((n, p.k), dtype=int)
        V = np.ones((n, self.m))
        for i in range(n):
            s = floyd_subset(rng, self.m, p.k)
            sets[i] = s
            V[i, s] = 2.0 ** z[i]
        return V, sets, z


_CANDIDATE_BLOCK = 64      # most candidate sets drawn at once for one point
_CANDIDATE_CAP = 10_000    # candidates a point may try before the construction fails


def sparse_subsample(params: EqualRevenueSpreadParams, K: int, seed: int) -> ExplicitDistribution:
    """K points of the spread family whose sets pairwise meet in fewer
    than m/6 items.

    That is the half-overlap condition the lower-bound menu needs.  The
    K scales z come first from the stream seeded with ``seed``.  Then
    point i's set is drawn uniformly among the k-sets that meet every
    accepted set in fewer than m/6 items: uniform candidate k-sets are
    drawn in blocks, their overlaps with the accepted sets are counted
    in one product, and the first compatible candidate is kept.  A
    point's first block holds one candidate and each further block
    twice as many, up to ``_CANDIDATE_BLOCK``: when m is large next to K
    nearly every first candidate is compatible, and the points follow
    the family's i.i.d. law.

    Raises :class:`IntersectionPropertyError` when some point finds no
    compatible candidate among ``_CANDIDATE_CAP``.
    """
    if K < 1:
        raise ValidationError("K must be at least 1")
    m, k = params.m, params.k
    threshold = m / 6.0
    rng = np.random.default_rng(seed)
    z = _draw_scales(rng, params.levels, K)
    sets = np.empty((K, k), dtype=int)
    accepted = np.zeros((K, m))  # indicator rows of the accepted sets
    for i in range(K):
        tried, b = 0, 1
        while tried < _CANDIDATE_CAP:
            b = min(b, _CANDIDATE_CAP - tried)
            cand = np.sort(rng.random((b, m)).argsort(axis=1)[:, :k], axis=1)
            ind = np.zeros((b, m))
            ind[np.arange(b)[:, None], cand] = 1.0
            ok = np.flatnonzero((ind @ accepted[:i].T < threshold).all(axis=1))
            if ok.size:
                sets[i], accepted[i] = cand[ok[0]], ind[ok[0]]
                break
            tried += b
            b = min(2 * b, _CANDIDATE_BLOCK)
        else:
            raise IntersectionPropertyError(
                f"accepted only {i} of {K} points after {_CANDIDATE_CAP} candidates each "
                f"(m={m}, k={k}, threshold {threshold})"
            )
    V = np.where(accepted > 0, 2.0 ** z[:, None], 1.0)
    return ExplicitDistribution(
        V,
        np.full(K, 1.0 / K),
        tag="bounded",
        H=params.H,
        meta={"sets": sets, "z": z},
    )


@dataclass(frozen=True)
class HittingSetInstance:
    """A family of non-empty subsets of range(m), plus the value scale H."""

    sets: tuple
    m: int
    H: float

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("m must be at least 1")
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
    1-based item indices per set."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValidationError("empty hitting-set file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValidationError('first line must be "m n"')
    m, n = int(header[0]), int(header[1])
    if len(lines) - 1 != n:
        raise ValidationError(f"header declares {n} sets, file has {len(lines) - 1}")
    sets = [tuple(int(tok) - 1 for tok in ln.split()) for ln in lines[1:]]
    return HittingSetInstance(tuple(sets), m=m, H=H)


def save_hitting_set(inst: HittingSetInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{inst.m} {inst.n}\n")
        for s in inst.sets:
            fh.write(" ".join(str(e + 1) for e in s) + "\n")


class MonotoneUniformSampler(Sampler):
    """m i.i.d. uniforms on [1, H], sorted ascending: monotone valuations."""

    def __init__(self, m: int, H: float, seed: int):
        if H < 1:
            raise ValidationError("H must be at least 1")
        super().__init__(m, H, "monotone", seed)

    def _draw(self, n, rng):
        V = 1.0 + (self.H - 1.0) * rng.random((n, self.m))
        V.sort(axis=1)
        return V


def distribution_to_json(obj) -> dict:
    if isinstance(obj, ExplicitDistribution):
        return obj.to_json_dict()
    if isinstance(obj, OverfitProductSampler):
        return {"type": "overfit", "params": {"m": obj.m, "delta": obj.params.delta}, "seed": obj.seed}
    if isinstance(obj, EqualRevenueSpreadSampler):
        return {"type": "equal_revenue", "params": {"m": obj.m, "H": obj.H}, "seed": obj.seed}
    if isinstance(obj, MonotoneUniformSampler):
        return {"type": "monotone_uniform", "params": {"m": obj.m, "H": obj.H}, "seed": obj.seed}
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def distribution_from_json(d: dict):
    """Build a distribution or sampler from its JSON description.

    Explicit supports come back as :class:`ExplicitDistribution`; every
    parametric type comes back as a seeded sampler.  ``sparse_subsample``
    descriptions are materialized into their explicit distribution.
    """
    kind = d.get("type")
    params = d.get("params", {})
    seed = int(d.get("seed", 0))
    if kind == "explicit":
        return ExplicitDistribution(
            np.asarray(params["support"], dtype=float),
            np.asarray(params["weights"], dtype=float),
            tag=params.get("tag", "nonneg"),
            H=float(params.get("H", "inf")),
        )
    if kind == "overfit":
        return OverfitProductSampler(OverfitProductParams(int(params["m"]), float(params["delta"])), seed)
    if kind == "equal_revenue":
        return EqualRevenueSpreadSampler(EqualRevenueSpreadParams(int(params["m"]), float(params["H"])), seed)
    if kind == "sparse_subsample":
        return sparse_subsample(
            EqualRevenueSpreadParams(int(params["m"]), float(params["H"])), int(params["K"]), seed
        )
    if kind == "hitting_set":
        inst = HittingSetInstance(tuple(tuple(s) for s in params["sets"]), int(params["m"]), float(params["H"]))
        return hitting_set_valuations(inst)
    if kind == "monotone_uniform":
        return MonotoneUniformSampler(int(params["m"]), float(params["H"]), seed)
    raise ValidationError(f"unknown distribution type {kind!r}")


def load_distribution(path):
    with open(path, "r", encoding="utf-8") as fh:
        return distribution_from_json(json.load(fh))
