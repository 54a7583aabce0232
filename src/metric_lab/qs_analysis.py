"""Empirical quasisymmetric distortion of sampled maps.

The central object is the distortion envelope: the minimal nondecreasing
step function dominating every sampled (source ratio, image ratio) pair of
ordered triples (x, y, z) with x != z.  Triples with y = x are kept: they
contribute (0, 0) and anchor the envelope at the origin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnvelopeError, DomainError
from .metric_core import FiniteMetricSpace

TRIPLE_BUDGET_DEFAULT = 10 ** 6
# Largest sampled budget: the draw holds three budget-long int64 vectors and
# their ratios, about 62 bytes per triple (659 MB measured at 10^7 on 250
# points); a larger budget is refused unless it enumerates every triple.
MAX_TRIPLE_BUDGET = 10 ** 7
_ENVELOPE_ROWS = 8  # x rows per part of the all-triples envelope


@dataclass(frozen=True, eq=False)
class SampledMap:
    """An injective assignment between the points of two finite spaces."""

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    assignment: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.assignment, dtype=int)
        if f.shape != (self.domain.n,):
            raise DomainError(
                f"assignment must cover all {self.domain.n} domain points")
        if self.domain.n and (f.min() < 0 or f.max() >= self.codomain.n):
            raise DomainError("assignment image out of range")
        if np.unique(f).size != f.size:
            raise DomainError("assignment must be injective (image ratios need "
                              "nonzero denominators)")
        coincide = self.codomain.dist[np.ix_(f, f)] == 0
        np.fill_diagonal(coincide, False)
        if coincide.any():
            raise DomainError("distinct points must have distinct images (image "
                              "ratios need nonzero denominators)")
        object.__setattr__(self, "assignment", f)


@dataclass(frozen=True, eq=False)
class DistortionEnvelope:
    """Minimal monotone step function eta_hat(t) = max{s : breakpoint t' <= t}.

    Breakpoints are strictly increasing in both coordinates; the function is
    0 below the first breakpoint.
    """

    ts: np.ndarray
    ss: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        ss = np.asarray(self.ss, dtype=float)
        if ts.shape != ss.shape or ts.ndim != 1 or ts.size == 0:
            raise DomainError("envelope needs matching 1-d breakpoint arrays")
        if np.any(np.diff(ts) <= 0):
            raise DomainError("envelope t-breakpoints must strictly increase")
        if np.any(np.diff(ss) < 0):
            raise DomainError("envelope values must be nondecreasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "ss", ss)

    @property
    def breakpoints(self):
        return list(zip(self.ts.tolist(), self.ss.tolist()))

    def eval_linear(self, t, allow_extrapolation: bool = False):
        """Piecewise-linear evaluation between breakpoints.

        Outside the sampled t-range this is an extrapolation; it is refused
        unless explicitly allowed (then clamped to the boundary value).
        """
        t = float(t)
        if t < self.ts[0] - 1e-15 or t > self.ts[-1] + 1e-15:
            if not allow_extrapolation:
                raise DomainError(
                    f"t={t} outside sampled envelope range [{self.ts[0]}, {self.ts[-1]}]")
            return float(self.ss[0] if t < self.ts[0] else self.ss[-1])
        return float(np.interp(t, self.ts, self.ss))


def envelope_from_samples(t, s) -> DistortionEnvelope:
    """Running max of s by ascending t, deduplicated to strict increases."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.size == 0:
        raise DomainError("no samples to build an envelope from")
    order = np.argsort(t, kind="stable")
    t, s = t[order], s[order]
    run = np.maximum.accumulate(s)
    # last sample of each equal-t group carries the group's running max
    last_of_group = np.append(t[1:] != t[:-1], True)
    t, run = t[last_of_group], run[last_of_group]
    keep = np.empty(t.size, dtype=bool)
    keep[0] = True
    keep[1:] = run[1:] > np.maximum.accumulate(run)[:-1]
    return DistortionEnvelope(t[keep], run[keep])


def _envelope_all(f: SampledMap) -> DistortionEnvelope:
    """envelope_from_samples of every ordered triple (x, y, z) with x != z,
    without holding them all: the samples of _ENVELOPE_ROWS x rows at a time
    are reduced to their staircase and merged into the running one.  A sample
    dominated within its part is dominated in the whole, so the staircase of
    the parts' staircases is the staircase of all samples, built from the
    same divisions, comparisons and maxima; SampledMap's distinct images keep
    every image ratio a number (no 0/0), which the merge needs."""
    DX = f.domain.dist
    img = f.codomain.dist[np.ix_(f.assignment, f.assignment)]
    n = f.domain.n
    env = None
    for x0 in range(0, n, _ENVELOPE_ROWS):
        xs = np.arange(x0, min(x0 + _ENVELOPE_ROWS, n))
        dx, ix = DX[xs], img[xs]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = dx[:, None, :] / dx[:, :, None]   # [x, z, y] = d(x,y)/d(x,z)
            s = ix[:, None, :] / ix[:, :, None]
        zmask = np.ones((len(xs), n), dtype=bool)   # z != x
        zmask[np.arange(len(xs)), xs] = False
        part = envelope_from_samples(t[zmask].ravel(), s[zmask].ravel())
        if env is not None:  # two sorted runs: the stable sort merges them
            part = envelope_from_samples(np.concatenate((env.ts, part.ts)),
                                         np.concatenate((env.ss, part.ss)))
        env = part
    return env


def _triple_samples_budget(f: SampledMap, budget: int, seed: int):
    DX, DY = f.domain.dist, f.codomain.dist
    a = f.assignment
    n = f.domain.n
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, n, size=budget)
    ys = rng.integers(0, n, size=budget)
    zs = rng.integers(0, n, size=budget)
    ok = xs != zs
    xs, ys, zs = xs[ok], ys[ok], zs[ok]
    t = DX[xs, ys] / DX[xs, zs]
    s = DY[a[xs], a[ys]] / DY[a[xs], a[zs]]
    return t, s


def distortion_envelope(f: SampledMap, triple_budget=TRIPLE_BUDGET_DEFAULT,
                        seed: int = 0) -> DistortionEnvelope:
    """Envelope of image-to-source triple ratios of f.

    "all" enumerates every ordered triple (x, y, z) with x != z; an integer
    budget, at least 1, draws that many seeded uniform triples instead.  A
    budget at least the number of ordered triples falls back to full
    enumeration; any other budget above MAX_TRIPLE_BUDGET is refused.
    """
    n = f.domain.n
    if n < 3:
        raise DomainError("need at least 3 points to sample triples")
    if triple_budget != "all" and int(triple_budget) < 1:
        raise DomainError(f"triple budget must be positive, got {triple_budget}")
    if triple_budget != "all" and int(triple_budget) >= n * n * (n - 1):
        triple_budget = "all"
    if triple_budget == "all":
        return _envelope_all(f)
    if int(triple_budget) > MAX_TRIPLE_BUDGET:
        raise DomainError(
            f"triple budget {triple_budget} exceeds {MAX_TRIPLE_BUDGET} sampled triples; "
            f"'all' enumerates the {n * n * (n - 1)} ordered triples")
    return envelope_from_samples(*_triple_samples_budget(f, int(triple_budget), seed))


def envelope_invert(eta: DistortionEnvelope) -> DistortionEnvelope:
    """The inverse-map envelope t -> 1 / eta^{-1}(1/t).

    Needs eta strictly increasing on strictly positive breakpoints; the
    origin anchor (0, 0), if present, is dropped.  Each positive breakpoint
    (t, s) maps to (1/s, 1/t); piecewise-linear semantics in between, and
    anything outside the transformed range is extrapolation.
    """
    ts, ss = eta.ts, eta.ss
    pos = (ts > 0) & (ss > 0)
    ts, ss = ts[pos], ss[pos]
    if ts.size < 1:
        raise DegenerateEnvelopeError("no strictly positive breakpoints to invert")
    flat = np.nonzero(np.diff(ss) <= 0)[0]
    if flat.size:
        i = int(flat[0])
        raise DegenerateEnvelopeError(
            f"flat segment between breakpoints t={ts[i]} and t={ts[i + 1]}")
    # distinct values one ulp apart can collide under the reciprocal; the
    # envelope constructor collapses those collisions
    return envelope_from_samples(1.0 / ss[::-1], 1.0 / ts[::-1])

