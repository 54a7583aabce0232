"""Blow-up pipeline: rescaled pointed windows, model comparison, trends.

A scan extracts windows (X, p, d/lambda) at a schedule of shrinking scales,
compares each against model tangent windows of equal radius via pointed GH,
and reports the per-scale bound table plus a trend verdict.  Verdicts are
deliberately modest: a decreasing upper-bound column is evidence for a
tangent, never a certificate.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fractal_gen import model_tangent_space
from .gh_solver import Correspondence, pointed_gh_bounds
from .metric_core import FiniteMetricSpace, PointedWindow, decreasing_scales, rescale

TREND_BAND = 1e-3  # least-squares slope below this magnitude counts as flat
_NEAREST_CHUNK = 1 << 18  # entries of one seed distance block: 2 MB of float64


def resolution_rule(rule) -> float:
    """K of the resolution rule "lambda/K" (mesh lambda / K), positive and finite."""
    try:
        K = float(rule.removeprefix("lambda/")) if rule.startswith("lambda/") else math.nan
    except (AttributeError, ValueError):  # not a string, or K not a number
        K = math.nan
    if not 0 < K < math.inf:  # also refuses nan
        raise DomainError(f"bad resolution rule {rule!r}; expected lambda/K, K > 0 finite")
    return K


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """One blow-up experiment: generator, center, scale schedule, models (names
    of MODEL_KINDS) and the rule "lambda/K" (scale lambda at mesh lambda / K)."""

    generator: object
    center: object
    scales: tuple
    window_radius: float
    models: tuple
    rule: str = "lambda/64"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scales", decreasing_scales(self.scales))
        if not 0 < float(self.window_radius) < math.inf:
            raise DomainError(
                f"window radius must be positive and finite, got {self.window_radius}")
        object.__setattr__(self, "models", tuple(self.models))
        if not self.models:
            raise DomainError("at least one model tangent is required")
        resolution_rule(self.rule)

    def h_of(self, lam: float) -> float:
        return lam / resolution_rule(self.rule)


def extract_window(gen, p, lam: float, R: float, h: float) -> PointedWindow:
    """Sample the generator at mesh h, divide the metric by lam, keep the
    closed ball of rescaled radius R around p."""
    if lam <= 0 or R <= 0:
        raise DomainError("scale and radius must be positive")
    space, base = gen.sample_ball(p, lam * R, h)
    return PointedWindow(rescale(space, lam), base, lam, R)


def _label_coordinates(space: FiniteMetricSpace):
    pos = np.empty((space.n, 2))
    tags = []
    for i, label in enumerate(space.labels):
        if not (isinstance(label, tuple) and len(label) >= 2):
            return None, None
        try:
            pos[i] = (float(label[0]), float(label[1]))
        except (TypeError, ValueError):
            return None, None
        tags.append(label[2] if len(label) > 2 else None)
    return pos, tags


# Seed geometry: normalized planar position plus a lift coordinate that
# separates metrically distinct nodes sharing a planar position.  Slit lips
# move by a hair inside the plane (same side of the cut stays attractive);
# glued-on sheets move far along the lift axis so they only match each other.
_LIP_OFFSETS = {"L": (-1, 0), "R": (1, 0), "U": (0, 1), "D": (0, -1)}


def _seed_coordinates(W: PointedWindow):
    pos, tags = _label_coordinates(W.space)
    if pos is None:
        return None
    planar = (pos - pos[W.base]) / W.scale
    span = float(np.abs(planar).max()) + 1.0
    q = np.zeros((len(planar), 3))
    q[:, :2] = planar
    for i, tag in enumerate(tags):
        if tag in _LIP_OFFSETS:
            q[i, :2] += np.asarray(_LIP_OFFSETS[tag]) * (1e-6 * span)
        elif tag == "H":
            q[i, 2] = 2.0 * span
        elif tag == "A":
            q[i, 2] = span
        elif tag == "B":
            q[i, 2] = -span
        elif tag == "P":
            label = W.space.labels[i]
            slit_id = float(label[3]) if len(label) > 3 else 0.0
            sheet = label[4] if len(label) > 4 else "G"
            lift = {"A": 0.25, "B": -0.25}.get(sheet, 0.0)
            q[i, 2] = (3.0 + slit_id + lift) * span
    return q


def _nearest(q, p) -> np.ndarray:
    """Index of the nearest row of p to each row of q, by squared Euclidean
    distance summed one coordinate at a time; exact ties go to the lowest
    index.  A coordinate that is zero in both (the lift of planar windows)
    adds exact zeros and is skipped.  Rows of q are taken in chunks of at most
    _NEAREST_CHUNK entries of the distance block, so the temporaries stay
    bounded on large windows."""
    cols = [c for c in range(q.shape[1]) if q[:, c].any() or p[:, c].any()] or [0]
    out = np.empty(len(q), dtype=np.intp)
    step = max(1, _NEAREST_CHUNK // len(p))
    for s in range(0, len(q), step):
        block = q[s:s + step]
        d2 = np.subtract.outer(block[:, cols[0]], p[:, cols[0]])
        d2 *= d2
        diff = np.empty_like(d2)
        for c in cols[1:]:
            np.subtract.outer(block[:, c], p[:, c], out=diff)
            diff *= diff
            d2 += diff
        out[s:s + step] = d2.argmin(axis=1)
    return out


def nearest_position_seed(W1: PointedWindow, W2: PointedWindow):
    """Correspondence matching every point to the nearest label position of
    the other window, both normalized to their window's base and scale; None
    when labels carry no coordinates.  Among points at exactly the same
    distance the one of lowest index is taken."""
    q1 = _seed_coordinates(W1)
    q2 = _seed_coordinates(W2)
    if q1 is None or q2 is None:
        return None
    f = _nearest(q1, q2)
    g = _nearest(q2, q1)
    pairs = {(int(i), int(f[i])) for i in range(len(q1))}
    pairs.update((int(g[j]), int(j)) for j in range(len(q2)))
    pairs.add((W1.base, W2.base))
    return Correspondence(tuple(sorted(pairs)))


@dataclass(frozen=True)
class ScanRow:
    lam: float
    points: int
    results: dict          # model kind -> GhResult
    seconds: dict          # model kind -> wall-clock seconds
    reused: tuple = ()     # model kinds whose result an earlier row solved


@dataclass(frozen=True)
class Verdict:
    best_model: str
    final_gap: float
    trend: str             # decreasing | flat | increasing | inconclusive

    @property
    def conclusive(self) -> bool:
        return self.trend != "inconclusive"


@dataclass(frozen=True)
class ScanReport:
    rows: tuple
    radius: float
    models: tuple
    verdict: Verdict | None = None


def tangent_scan(cfg: ScanConfig) -> ScanReport:
    """Extract a window per scale and bound its pointed GH distance to every
    model window of equal radius and relative mesh h/lambda = 1/K (one window
    per kind, built at the first scale), by pointed_gh_bounds seeded by cfg.seed.

    Solves are memoised for this call only, keyed on the model kind, the
    window's base, the shape and sha256 of its distance matrix and the
    position seed correspondence: with cfg.seed fixed for the call, every
    input of the solve, so a hit is the earlier GhResult itself and its row
    lists the model in ScanRow.reused.  Hits happen only at exactly
    self-similar centres (a square's corner, a cone point), where every
    rescaled window is the same finite space.  A row's seconds cover the
    seed and the solve, or for a hit the lookup."""
    import hashlib  # OpenSSL's _hashlib loads with the first scan, not at start-up

    h_rel = cfg.h_of(cfg.scales[0]) / cfg.scales[0]
    model_windows = {kind: model_tangent_space(kind, cfg.window_radius, h_rel)
                     for kind in cfg.models}
    solved: dict = {}
    rows = []
    for lam in cfg.scales:
        W = extract_window(cfg.generator, cfg.center, lam, cfg.window_radius, cfg.h_of(lam))
        dist = np.ascontiguousarray(W.space.dist)
        window_key = (W.base, dist.shape, hashlib.sha256(dist).digest())
        results, seconds, reused = {}, {}, []
        for kind, M in model_windows.items():
            t0 = time.perf_counter()
            seed = nearest_position_seed(W, M)
            key = (kind, *window_key, seed.pairs if seed is not None else None)
            res = solved.get(key)
            if res is None:
                res = solved[key] = pointed_gh_bounds(W, M, extra_seeds=[seed],
                                                      seed=cfg.seed)
            else:
                reused.append(kind)
            seconds[kind] = time.perf_counter() - t0
            results[kind] = res
        rows.append(ScanRow(lam, W.space.n, results, seconds, tuple(reused)))
    report = ScanReport(tuple(rows), cfg.window_radius, cfg.models)
    if len(rows) >= 3:
        report = ScanReport(report.rows, report.radius, report.models,
                            classify_tangent(report))
    return report


def _trend_of(column) -> str:
    slope = float(np.polyfit(np.arange(len(column)), np.asarray(column), 1)[0])
    if slope < -TREND_BAND:
        return "decreasing"
    if slope > TREND_BAND:
        return "increasing"
    return "flat"


def classify_tangent(report: ScanReport) -> Verdict:
    """Best model by final upper bound; trend from the slope of its column;
    inconclusive when the runner-up is within the summed lower-bound gaps."""
    if len(report.rows) < 3:
        raise DomainError("need at least 3 scan rows to classify a tangent")
    final = report.rows[-1]
    uppers = {kind: res.upper for kind, res in final.results.items()}
    order = sorted(uppers, key=lambda k: (uppers[k], k))
    best = order[0]
    trend = _trend_of([row.results[best].upper for row in report.rows])
    if len(order) > 1:
        second = order[1]
        gap_b = final.results[best].upper - final.results[best].lower
        gap_s = final.results[second].upper - final.results[second].lower
        if uppers[second] - uppers[best] < gap_b + gap_s:
            trend = "inconclusive"
    final_gap = final.results[best].upper - final.results[best].lower
    return Verdict(best, float(final_gap), trend)

