"""Empirical quasisymmetric and quasiconformal distortion of sampled maps.

The central object is the distortion envelope: the minimal nondecreasing
step function dominating every sampled (source ratio, image ratio) pair of
ordered triples (x, y, z) with x != z.  Triples with y = x are kept: they
contribute (0, 0) and anchor the envelope at the origin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnvelopeError, DomainError
from .metric_core import FiniteMetricSpace, decreasing_scales

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

    Breakpoints are strictly increasing in both coordinates; evaluation below
    the first breakpoint returns 0.
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

    def eval_step(self, t):
        """Right-continuous step evaluation (the sound bound from samples)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.ts, t, side="right") - 1
        out = np.where(idx >= 0, self.ss[np.maximum(idx, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

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

    def t_range(self):
        return float(self.ts[0]), float(self.ts[-1])


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


def _triple_samples_all(f: SampledMap, chunk: int = 64):
    DX, DY = f.domain.dist, f.codomain.dist
    n = f.domain.n
    img = DY[np.ix_(f.assignment, f.assignment)]
    ts, ss = [], []
    for x0 in range(0, n, chunk):
        xs = np.arange(x0, min(x0 + chunk, n))
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


def _as_table(eta):
    if isinstance(eta, DistortionEnvelope):
        return eta.ts, eta.ss
    ts, ss = eta
    return np.asarray(ts, dtype=float), np.asarray(ss, dtype=float)


def check_eta(envelope: DistortionEnvelope, eta):
    """Does the candidate distortion function dominate the measured envelope?

    eta is a breakpoint table (pairs of arrays or another envelope),
    evaluated by piecewise-linear interpolation; it must be nondecreasing and
    defined on the envelope's whole breakpoint range.  Returns (ok, worst)
    where worst is the (t, envelope value, eta value) of the largest defect.
    """
    ts, ss = _as_table(eta)
    if np.any(np.diff(ts) <= 0):
        raise DomainError("eta table breakpoints must strictly increase")
    if np.any(np.diff(ss) < 0):
        raise DomainError("eta must be nondecreasing on the envelope range")
    lo, hi = float(ts[0]), float(ts[-1])
    if envelope.ts[0] < lo - 1e-15 or envelope.ts[-1] > hi + 1e-15:
        raise DomainError(
            f"eta undefined on part of the envelope range "
            f"[{envelope.ts[0]}, {envelope.ts[-1]}] vs [{lo}, {hi}]")
    eta_vals = np.interp(envelope.ts, ts, ss)
    defect = envelope.ss - eta_vals
    worst_i = int(np.argmax(defect))
    ok = bool(defect[worst_i] <= 1e-12)
    worst = None if ok else (float(envelope.ts[worst_i]),
                             float(envelope.ss[worst_i]),
                             float(eta_vals[worst_i]))
    return ok, worst


def envelope_compose(theta: DistortionEnvelope, eta: DistortionEnvelope) -> DistortionEnvelope:
    """theta o eta, evaluated piecewise-linearly at merged breakpoints.

    Merged means eta's own breakpoints plus the pullbacks of theta's
    breakpoints through eta where eta's sampled range reaches them.
    """
    ts = list(eta.ts)
    s_lo, s_hi = float(eta.ss[0]), float(eta.ss[-1])
    for u in theta.ts:
        if s_lo <= u <= s_hi:
            ts.append(float(np.interp(u, eta.ss, eta.ts)))
    ts = np.unique(np.asarray(ts))
    inner = np.interp(ts, eta.ts, eta.ss)
    outer = np.array([theta.eval_linear(v, allow_extrapolation=True) for v in inner])
    return envelope_from_samples(ts, outer)


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


@dataclass(frozen=True)
class DiamRatioReport:
    pair: tuple
    ratio: float
    lower: float
    upper: float
    holds: bool
    margin_low: float
    margin_high: float


def diam_ratio_check(f: SampledMap, subset_pairs, envelope=None) -> list[DiamRatioReport]:
    """Verify the nested-set diameter inequalities with the measured envelope.

    For A inside B: 1/(2 eta(diam B / diam A)) <= diam f(A)/diam f(B)
    <= eta(2 diam A / diam B), with eta the measured step envelope.
    """
    if envelope is None:
        envelope = distortion_envelope(f, "all")
    out = []
    for A, B in subset_pairs:
        A, B = list(A), list(B)
        if not set(A) <= set(B):
            raise DomainError("diam_ratio_check needs A to be a subset of B")
        if len(A) < 2 or len(B) < 2:
            raise DomainError("degenerate diameter: subsets need at least 2 points")
        dA = f.domain.submatrix(A).diameter()
        dB = f.domain.submatrix(B).diameter()
        fA = f.codomain.submatrix(f.assignment[A]).diameter()
        fB = f.codomain.submatrix(f.assignment[B]).diameter()
        ratio = fA / fB
        denom = envelope.eval_step(dB / dA)
        lower = np.inf if denom == 0 else 1.0 / (2.0 * denom)
        upper = envelope.eval_step(2.0 * dA / dB)
        holds = bool(lower - 1e-12 <= ratio <= upper + 1e-12)
        out.append(DiamRatioReport((tuple(A), tuple(B)), ratio, float(lower),
                                   float(upper), holds,
                                   float(ratio - lower), float(upper - ratio)))
    return out


@dataclass(frozen=True)
class QcRow:
    radius: float
    h_max: float
    points_used: int
    points_skipped: int


def qc_constant_probe(f: SampledMap, radii) -> list[QcRow]:
    """Per-radius quasiconformality estimates sup/inf of image displacements.

    For each point x and radius r: (max image distance over d(x,y) <= r)
    divided by (min image distance over d(x,y) >= r); the row reports the max
    over points.  Points with nothing inside or nothing outside are skipped
    and counted.
    """
    radii = decreasing_scales(radii, "radii")
    DX, DY = f.domain.dist, f.codomain.dist
    a = f.assignment
    img = DY[np.ix_(a, a)]
    n = f.domain.n
    rows = []
    for r in radii:
        worst, used, skipped = 0.0, 0, 0
        for x in range(n):
            d = DX[x]
            near = (d <= r) & (np.arange(n) != x)
            far = d >= r
            if not near.any() or not far.any():
                skipped += 1
                continue
            ratio = img[x][near].max() / img[x][far].min()
            worst = max(worst, float(ratio))
            used += 1
        rows.append(QcRow(r, worst, used, skipped))
    return rows
