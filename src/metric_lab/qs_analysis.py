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


def _triple_samples_all(f: SampledMap):
    DX, DY = f.domain.dist, f.codomain.dist
    n = f.domain.n
    img = DY[np.ix_(f.assignment, f.assignment)]
    ts, ss = [], []
    for x0 in range(0, n, 64):  # 64 base points at a time, n^2 ratios each
        xs = np.arange(x0, min(x0 + 64, n))
        dx, ix = DX[xs], img[xs]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = dx[:, None, :] / dx[:, :, None]   # [x, z, y] = d(x,y)/d(x,z)
            s = ix[:, None, :] / ix[:, :, None]
        zmask = np.ones((len(xs), n), dtype=bool)   # z != x
        zmask[np.arange(len(xs)), xs] = False
        ts.append(t[zmask].ravel())
        ss.append(s[zmask].ravel())
    return np.concatenate(ts), np.concatenate(ss)


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
    enumeration.
    """
    n = f.domain.n
    if n < 3:
        raise DomainError("need at least 3 points to sample triples")
    if triple_budget != "all" and int(triple_budget) < 1:
        raise DomainError(f"triple budget must be positive, got {triple_budget}")
    if triple_budget != "all" and int(triple_budget) >= n * n * (n - 1):
        triple_budget = "all"
    if triple_budget == "all":
        t, s = _triple_samples_all(f)
    else:
        t, s = _triple_samples_budget(f, int(triple_budget), seed)
    return envelope_from_samples(t, s)


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

