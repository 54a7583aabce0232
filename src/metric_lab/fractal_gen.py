"""Generators for the explicit spaces of the lab.

Slit carpets and pillow carpets live on 4-neighbor grid graphs with the
shortest-path metric, hop counts from a breadth-first search.  The unit
square and the seven model tangents are lattice kinds, one table walked and
filled by one sampler: the Euclidean metric of their grid nodes, or the grid
metric of t, l and d in closed form.  A carpet's or a model's path of m grid
steps is grids.grid_steps(h, m)[m] long either way.
Snowflake curves are polylines with their arc-length metric or the chordal
metric of the plane (the one blow-up scans care about); Wu's line and the
product rugs are closed-form metrics evaluated pairwise; every window kind
is an entry of make_generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, ResolutionError, ScheduleError
from .grids import GraphBuilder, GridGraph, grid_steps
from .metric_core import TOL, FiniteMetricSpace, PointedWindow

MODEL_KINDS = ("plane", "half", "quarter", "t", "l", "d", "line")

# Most mesh steps across an extent or window radius; 2^12 admits h = 2^-12.
MAX_MESH_STEPS = 2 ** 12
# Most points of a whole carpet or rug, or of a window: its n x n float64
# matrix is then at most 128 MiB.  At the bound `gen` of a carpet holds one
# such matrix at its peak (about 180 MB) and of a rug about four (580 MB),
# measured on a 2-core x86 machine.
MAX_SPACE_POINTS = 2 ** 12
# Flatness values lie in [1, MAX_FLATNESS): a bump's legs, l/6 of the segment
# they refine, are then shorter than it, so refining shrinks segments and
# moves no vertex by more than a segment's length.
MAX_FLATNESS = 6.0
# Largest |endpoint| of a snowflake window.  The vertices of any stage then
# stay within a few thousand spans of the window, below 2^77, so the crossing
# sweep's products of four coordinates stay finite.
MAX_SNOWFLAKE_WINDOW = 2.0 ** 64


def _pairwise(P, dist) -> np.ndarray:
    """Matrix dist(P_i, P_j) of coordinate rows P, filled 2^16 entries at a time."""
    n = len(P[0])
    d = np.empty((n, n))
    rows = max(1, 2 ** 16 // max(n, 1))
    for a in range(0, n, rows):
        d[a:a + rows] = dist(P[:, a:a + rows, None], P)
    return d


def _squares(p, q):
    """Squared distances of planar points, inf past the float range as in
    Python; np.linalg.norm is their sqrt."""
    with np.errstate(over="ignore"):
        dx, dy = p[0] - q[0], p[1] - q[1]
        return dx * dx + dy * dy


def _euclidean_space(points) -> FiniteMetricSpace:
    """Planar points with the Euclidean metric, labelled by their coordinates."""
    P = np.asarray(points, dtype=float)
    return FiniteMetricSpace(_pairwise(P.T, lambda p, q: np.sqrt(_squares(p, q))),
                             tuple(map(tuple, P.tolist())))


def _mesh_steps(h: float, span: float = 1.0) -> int:
    """Steps, at most MAX_MESH_STEPS, of a mesh h that divides span exactly."""
    if not (h > 0 and span / h <= MAX_MESH_STEPS):  # also refuses nan and inf
        raise ResolutionError(f"mesh {h} must be positive, with at most "
                              f"{MAX_MESH_STEPS} steps across length {span}")
    M = round(span / h)
    if M < 1 or abs(span / h - M) > 1e-9 * max(M, 1):
        raise ResolutionError(f"mesh {h} must divide an interval of length {span} exactly")
    return M


def _check_space_points(n: int, h: float) -> None:
    """ResolutionError if mesh h gives a whole space or a window more than
    MAX_SPACE_POINTS points; called before its n x n matrix is allocated."""
    if n > MAX_SPACE_POINTS:
        raise ResolutionError(f"mesh {h} gives {n} or more points, more than the "
                              f"{MAX_SPACE_POINTS} of a whole generated space")


def _check_resolution(radius_phys: float, h: float) -> None:
    """The window geometry check of every sampler and model_tangent_space:
    DomainError unless radius and mesh are positive and finite, and
    ResolutionError unless the radius, padded by TOL as the samplers pad it,
    spans 1 to MAX_MESH_STEPS meshes."""
    if not (0 < radius_phys < math.inf and 0 < h < math.inf):  # also refuses nan
        raise DomainError(f"radius {radius_phys} and mesh {h} must be positive and finite")
    if h > radius_phys or (radius_phys + TOL) / h > MAX_MESH_STEPS:
        raise ResolutionError(f"mesh {h} cannot resolve a window of radius "
                              f"{radius_phys} in 1 to {MAX_MESH_STEPS} steps")


# ---------------------------------------------------------------------------
# Slit carpets and pillow carpets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlitSchedule:
    """Slit length fractions per dyadic generation: generation i slits have
    length r[i] / 2^i, centered in every generation-i dyadic square."""

    r: tuple

    def __post_init__(self):
        r = tuple(float(v) for v in self.r)
        if any(not (0.0 < v < 1.0) for v in r):
            raise ScheduleError(f"slit fractions must lie in (0, 1), got {r}")
        object.__setattr__(self, "r", r)

    @classmethod
    def harmonic(cls, levels: int) -> "SlitSchedule":
        """The square-summability-violating preset: the i-th generation
        (1-based) gets fraction 1/sqrt(i+1), staying strictly below 1.
        A negative level count raises ScheduleError; 0 is the plain grid.
        Level i centres its slits only when 1/h is divisible by 2^(i+1), so
        more levels than log2(MAX_MESH_STEPS) raise ResolutionError before
        the schedule is built."""
        if levels < 0:
            raise ScheduleError(f"slit generations must be non-negative, got {levels}")
        if levels > MAX_MESH_STEPS.bit_length() - 1:
            raise ResolutionError(
                f"{levels} slit generations need 1/h divisible by 2^{levels}; no mesh "
                f"of at most {MAX_MESH_STEPS} steps resolves more than "
                f"{MAX_MESH_STEPS.bit_length() - 1}")
        return cls(tuple(1.0 / math.sqrt(i + 2) for i in range(levels)))


def _slit_table(sched: SlitSchedule, M: int, box=None):
    """Slits in grid units: (number, column, y0, y1) with endpoints snapped
    to grid nodes, listed by number.  Slits are numbered level by level,
    column by column, bottom to top over the whole square, and only those
    that meet the index box (xa, xb, ya, yb), by default [0, M]^2, are
    listed: column in [xa, xb] and [y0, y1] meeting [ya, yb].  The 2^i slits
    of a level-i column share it; slits of different levels never share a
    column.  A slit's ends depend on its row alone, so every row of every
    level is checked, and a box refuses what the whole table refuses."""
    xa, xb, ya, yb = (0, M, 0, M) if box is None else box
    slits = []
    first = 0  # number of the level's first slit
    for i, ri in enumerate(sched.r):
        if M % (2 ** (i + 1)):
            raise ResolutionError(
                f"level {i}: 1/h = {M} must be divisible by {2 ** (i + 1)} "
                "to center the slits on grid nodes")
        size = M >> i
        half = ri * size / 2.0
        rows = []
        for ky in range(2 ** i):
            cy = ky * size + size // 2
            y0, y1 = round(cy - half), round(cy + half)
            if y1 - y0 < 2:
                raise ResolutionError(
                    f"level {i}: mesh 1/{M} too coarse to resolve slits of "
                    f"length {ri}/2^{i} (need at least 2 grid edges)")
            if y0 <= yb and ya <= y1:
                rows.append((ky, y0, y1))
        for kx in range(max(-((size // 2 - xa) // size), 0),
                        min((xb - size // 2) // size, 2 ** i - 1) + 1):
            col = kx * size + size // 2
            slits.extend((first + kx * 2 ** i + ky, col, y0, y1) for ky, y0, y1 in rows)
        first += 4 ** i
    return slits


def slit_carpet_graph(sched: SlitSchedule, h: float, pillows: bool = False) -> GridGraph:
    """Unit-square grid with slits carved (and optionally pillows attached).

    Slit-interior nodes are duplicated into a left and a right copy; slit
    endpoints stay single, so each slit becomes a boundary cycle of the
    intrinsic metric.  A pillow is two sheets of the slit's size glued along
    three sides, its mouth identified with that cycle node by node.
    """
    return _slit_carpet_box(sched, h, 0, 0, MAX_MESH_STEPS, (), pillows=pillows)


def _slit_carpet_box(sched: SlitSchedule, h: float, cx: int, cy: int, K: int,
                     tags: tuple, pillows: bool = False) -> GridGraph:
    """The carpet's graph on the index box [cx - K, cx + K] x [cy - K, cy + K]
    clipped to [0, M]^2, pillows to depth K past a pillow center's ("P", slit,
    sheet, u, v), on which a carpet window is measured.  The whole carpet's
    loops run over the box in order with the same slit numbers, so nodes off
    the box's low edges keep their order."""
    M = _mesh_steps(h)
    xa, xb, ya, yb = max(cx - K, 0), min(cx + K, M), max(cy - K, 0), min(cy + K, M)
    slits = _slit_table(sched, M, (xa, xb, ya, yb))
    by_col: dict = {}
    for (_, col, y0, y1) in slits:
        by_col.setdefault(col, []).append((y0, y1))
    cv = int(tags[4]) if len(tags) == 5 and tags[0] == "P" and tags[4] in range(M + 1) else 0

    b = GraphBuilder(h)

    def key(ix, iy, side=None):
        pos = (ix * h, iy * h)
        if side is not None:
            for (y0, y1) in by_col.get(ix, ()):
                if y0 < iy < y1:
                    return b.node(pos + (side,))
        return b.node(pos)

    for ix in range(xa, xb + 1):
        for iy in range(ya, yb + 1):
            if ix < xb:
                b.edge(key(ix, iy, "R"), key(ix + 1, iy, "L"))
            if iy < yb:
                if any(y0 <= iy < y1 for (y0, y1) in by_col.get(ix, ())):
                    b.edge(key(ix, iy, "L"), key(ix, iy + 1, "L"))
                    b.edge(key(ix, iy, "R"), key(ix, iy + 1, "R"))
                else:
                    b.edge(key(ix, iy), key(ix, iy + 1))

    for slit_id, col, y0, y1 in (slits if pillows else ()):
        m = y1 - y0
        ua, ub, vb = max(ya - y0, 0), min(yb - y0, m), min(K + cv, m)

        def pnode(sheet, u, v):
            if v == 0:
                return key(col, y0 + u, "L" if sheet == "A" else "R")
            tag = "G" if (u == 0 or u == m or v == m) else sheet
            return b.node((col * h, (y0 + u) * h, "P", slit_id, tag, u, v))

        for sheet in ("A", "B"):
            for u in range(ua, ub + 1):
                for v in range(vb + 1):
                    if u < ub:
                        b.edge(pnode(sheet, u, v), pnode(sheet, u + 1, v))
                    if v < vb:
                        b.edge(pnode(sheet, u, v), pnode(sheet, u, v + 1))
    return b.build()


def whole_carpet_graph(sched: SlitSchedule, h: float, pillows: bool = False) -> GridGraph:
    """The graph of the whole slit carpet, with a two-sheet pillow glued
    mouth-to-slit at every slit when pillows is set; its space() is every
    grid node with the shortest-path metric.

    The node count is checked twice: the (M + 1)^2 grid nodes before the
    graph is built, which would take gigabytes near MAX_MESH_STEPS, and the
    graph's nodes, lips and pillows included, before any matrix exists.  Cost
    is quadratic in the node count, so a mesh that gives more than
    MAX_SPACE_POINTS nodes raises ResolutionError; for fine meshes prefer a
    window, make_generator("slit-carpet", sched=sched).sample_ball, which
    builds only the box around its center.
    """
    _check_space_points((_mesh_steps(h) + 1) ** 2, h)
    graph = slit_carpet_graph(sched, h, pillows)
    _check_space_points(graph.n, h)
    return graph


# ---------------------------------------------------------------------------
# Snowflake polylines
# ---------------------------------------------------------------------------

def _flatness_values(flatness, stages: int) -> list:
    """l_1 .. l_stages of a schedule name or of a finite sequence of numbers,
    every one of which, used or not, must lie in [1, MAX_FLATNESS)."""
    named = {"standard": [2.0] * stages,
             "1+2^-k": [1.0 + 2.0 ** -k for k in range(1, stages + 1)]}
    try:
        seq = named[flatness] if isinstance(flatness, str) else [float(v) for v in flatness]
    except (KeyError, TypeError, ValueError):
        raise ScheduleError(f"flatness must be one of {tuple(named)} or a "
                            f"sequence of numbers, got {flatness!r}") from None
    if not all(1.0 <= l < MAX_FLATNESS for l in seq):  # also refuses nan
        raise ConstructionError(f"flatness values {seq} must lie in [1, {MAX_FLATNESS:g})")
    if len(seq) < stages:
        raise ScheduleError(f"flatness schedule has {len(seq)} values, {stages} stages needed")
    return seq[:stages]


def _refine_polyline(P: np.ndarray, l: float) -> np.ndarray:
    """One construction stage: replace every segment by the four-segment bump
    with legs l/2 times the base (the middle third)."""
    p, q = P[:-1], P[1:]
    d = q - p
    m1, m2 = p + d / 3.0, p + 2.0 * d / 3.0
    lengths = np.linalg.norm(d, axis=1, keepdims=True)
    normal = np.stack([-d[:, 1], d[:, 0]], axis=1) / np.where(lengths > 0, lengths, 1.0)
    height = math.sqrt(max(l * l - 1.0, 0.0)) / 2.0 * (lengths / 3.0)
    apex = (m1 + m2) / 2.0 + normal * height
    out = np.empty((4 * len(p) + 1, 2))
    out[0::4] = P
    out[1::4], out[2::4], out[3::4] = m1, apex, m2
    return out


def _segments_intersect(P: np.ndarray) -> bool:
    """Any proper crossing between non-adjacent segments of the polyline."""
    a, c = P[:-1], P[1:]
    n = len(a)

    def orient(p, q, r):
        return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    for i in range(n - 2):
        js = np.arange(i + 2, n)
        p, q = a[i], c[i]
        r, s = a[js], c[js]
        d1 = orient(p[None, :], q[None, :], r)
        d2 = orient(p[None, :], q[None, :], s)
        d3 = orient(r, s, np.broadcast_to(p, r.shape))
        d4 = orient(r, s, np.broadcast_to(q, r.shape))
        crossing = (d1 * d2 < -1e-18) & (d3 * d4 < -1e-18)
        if crossing.any():
            return True
    return False


def _stage_polyline(window, flatness, stage: int) -> np.ndarray:
    """Vertices of the stage-`stage` construction, at most stage 6, over the
    window [a, b], which must have a < b within +-MAX_SNOWFLAKE_WINDOW."""
    if stage < 0:
        raise DomainError(f"snowflake stage must be non-negative, got {stage}")
    if stage > 6:
        raise ConstructionError(f"a stage-{stage} polyline has more than 4097 vertices, "
                                "the most the self-intersection sweep checks (stage 6)")
    a, b = float(window[0]), float(window[1])
    if not -MAX_SNOWFLAKE_WINDOW <= a < b <= MAX_SNOWFLAKE_WINDOW:  # also refuses nan
        raise DomainError(f"window must be a finite nondegenerate interval within "
                          f"+-2^64, got {window}")
    P = np.array([[a, 0.0], [b, 0.0]])
    for l in _flatness_values(flatness, stage):
        P = _refine_polyline(P, l)
    return P


def snowflake_polyline(stage: int, flatness="standard",
                       window=(0.0, 1.0)) -> FiniteMetricSpace:
    """Snowflake curve over [a, b] at the given stage, arc-length metric.

    The flatness l_k is a schedule name, "standard" (equilateral, l_k = 2) or
    "1+2^-k", or a sequence of at least `stage` numbers (fewer raise
    ScheduleError before any refinement): legs are l_k/2 times the base, so
    l_k = 1 flattens the stage exactly.  A value of the sequence outside
    [1, MAX_FLATNESS), nan included, raises ConstructionError before any
    refinement, and a window [a, b] not within +-MAX_SNOWFLAKE_WINDOW with
    a < b raises DomainError.
    Stages whose segments cross are rejected by a pairwise sweep, which
    stops at 4097 vertices (stage 6); later stages raise ConstructionError.
    """
    P = _stage_polyline(window, flatness, stage)
    if _segments_intersect(P):
        raise ConstructionError(f"stage-{stage} polyline self-intersects")
    seg = np.linalg.norm(np.diff(P, axis=0), axis=1)
    arc = np.concatenate(([0.0], np.cumsum(seg)))
    dist = np.abs(arc[:, None] - arc[None, :])
    labels = tuple((float(x), float(y)) for x, y in P)
    return FiniteMetricSpace(dist, labels)


class FlatSnowflakeGenerator:
    """Flat snowflake curve as a subset of the plane, chordal metric.

    The default flatness schedule "1+2^-k" (l_k = 1 + 2^-k <= 1.5 < 2) tends
    to 1, so bumps created at late stages flatten out while the curve stays
    inside the standard construction's non-crossing envelope; blow-up windows
    are sampled by refining the construction locally until every segment is
    below the requested mesh.  The window and schedule are checked here; a
    schedule too short for a window's depth raises ScheduleError in sample_ball.
    """

    def __init__(self, flatness="1+2^-k", window=(0.0, 1.0)):
        _stage_polyline(window, flatness, 0)  # checks the window and the schedule
        self.flatness = flatness
        self.window = (float(window[0]), float(window[1]))

    def stage_vertices(self, stage: int) -> np.ndarray:
        return _stage_polyline(self.window, self.flatness, stage)

    def vertex_position(self, stage: int, index: int):
        P = self.stage_vertices(stage)
        if not (0 <= index < len(P)):
            raise DomainError(f"stage-{stage} polyline has {len(P)} vertices")
        return (float(P[index, 0]), float(P[index, 1]))

    def _center_position(self, center) -> tuple:
        if isinstance(center, tuple) and len(center) == 3 and center[0] == "vertex":
            return self.vertex_position(int(center[1]), int(center[2]))
        return (float(center[0]), float(center[1]))

    def sample_ball(self, center, radius_phys: float, h: float):
        """Vertices within chordal distance radius_phys of the center vertex,
        refined until every nearby segment is shorter than h, and counted."""
        _check_resolution(radius_phys, h)
        cpos = np.asarray(self._center_position(center))
        span = self.window[1] - self.window[0]
        depth = max(1, math.ceil(math.log(span / h) / math.log(3.0)))
        P = np.array([[self.window[0], 0.0], [self.window[1], 0.0]])
        for l in _flatness_values(self.flatness, depth):
            seglen = np.linalg.norm(np.diff(P, axis=0), axis=1)
            dist_to_c = np.linalg.norm(P - cpos, axis=1)
            near = np.minimum(dist_to_c[:-1], dist_to_c[1:])
            # segments below the mesh, or too far out to reach the ball, stay coarse
            refine = (seglen > h) & (near - 2.0 * seglen <= 2.0 * radius_phys)
            keep = np.ones(4 * len(refine) + 1, dtype=bool)
            keep[1::4] = keep[2::4] = keep[3::4] = refine
            P = _refine_polyline(P, l)[keep]
        dist_to_c = np.linalg.norm(P - cpos, axis=1)
        keep = np.nonzero(dist_to_c <= radius_phys + TOL)[0]
        base_candidates = np.nonzero(dist_to_c[keep] <= 1e-12)[0]
        if base_candidates.size == 0:
            raise DomainError(f"center {tuple(cpos)} is not a vertex of the curve")
        _check_space_points(len(keep), h)
        return _euclidean_space(P[keep]), int(base_candidates[0])


# ---------------------------------------------------------------------------
# The square map H -> T and the exact slit-plane metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlitPlanePoint:
    """A point of the slit plane T (closure of the plane minus the open ray
    x > 0).  Points on the ray exist twice, tagged by lip: +1 above, -1 below."""

    x: float
    y: float
    side: int = 0

    def __post_init__(self):
        if self.side not in (-1, 0, 1):
            raise DomainError(f"lip tag must be -1, 0 or +1, got {self.side}")
        if self.side != 0 and not (self.y == 0.0 and self.x > 0):
            raise DomainError("lip tags only apply to points on the open ray")
        if self.side == 0 and self.y == 0.0 and self.x > 0:
            raise DomainError(f"point ({self.x}, 0) lies on the slit: tag a lip")

    @property
    def radius(self) -> float:
        return math.hypot(self.x, self.y)


def square_map_phi(r: float, theta: float) -> SlitPlanePoint:
    """The half-plane-to-slit-plane square map (radius, angle) -> (r^2, 2 angle).

    The two boundary rays of the half plane land on the two distinct lips of
    the slit: angle 0 on the upper lip, angle pi on the lower one.
    """
    if r < 0:
        raise DomainError(f"radius must be nonnegative, got {r}")
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"angle {theta} outside [0, pi]")
    if r == 0.0:
        return SlitPlanePoint(0.0, 0.0, 0)
    if theta == 0.0:
        return SlitPlanePoint(r * r, 0.0, +1)
    if theta == math.pi:
        return SlitPlanePoint(r * r, 0.0, -1)
    ang = 2.0 * theta
    return SlitPlanePoint(r * r * math.cos(ang), r * r * math.sin(ang), 0)


def _lip_sign(p: SlitPlanePoint) -> int:
    if p.y > 0:
        return 1
    if p.y < 0:
        return -1
    return p.side  # on the axis: lip tag for the cut, 0 for x <= 0


def slit_plane_distance(p: SlitPlanePoint, q: SlitPlanePoint) -> float:
    """Intrinsic metric of T: straight line when the segment misses the open
    ray, otherwise the two-leg geodesic through the tip."""
    direct = math.hypot(p.x - q.x, p.y - q.y)
    sp, sq = _lip_sign(p), _lip_sign(q)
    if sp * sq >= 0:
        return direct
    if p.y == 0.0 and q.y == 0.0:  # opposite lips
        return p.x + q.x
    x_cross = p.x + (q.x - p.x) * (0.0 - p.y) / (q.y - p.y)
    if x_cross <= 0.0:
        return direct
    return p.radius + q.radius


def phi_half_disk_sample(n_r: int = 6, n_theta: int = 7, r_min: float = 0.25,
                         r_max: float = 1.0):
    """A polar grid of the closed half disk (origin excluded), its image under
    the square map, and both metrics: (domain space, codomain space).

    The domain carries the Euclidean metric of the half plane; the codomain
    carries the exact intrinsic slit-plane metric, so the pair feeds straight
    into quasisymmetry probes with the identity assignment.
    """
    rs = np.linspace(r_min, r_max, n_r)
    thetas = np.linspace(0.0, math.pi, n_theta)
    pts = [(float(r), float(t)) for r in rs for t in thetas]
    dom = _euclidean_space([[r * math.cos(t), r * math.sin(t)] for r, t in pts])
    imgs = [square_map_phi(r, t) for r, t in pts]
    n = len(imgs)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = slit_plane_distance(imgs[i], imgs[j])
    cod = FiniteMetricSpace(d, tuple((p.x, p.y, p.side) for p in imgs))
    return dom, cod


# ---------------------------------------------------------------------------
# Wu's distorted line
# ---------------------------------------------------------------------------

def wu_L(alpha: float, c: float) -> float:
    """Slope constant of the inner linear branch of the distortion profile."""
    if not (0 < alpha < 1) or not (0 < c < 1):
        raise ScheduleError(f"need alpha, c in (0,1), got {alpha}, {c}")
    return (1.0 / c) * (c * alpha / (1.0 - c * (1.0 - alpha))) ** alpha


def wu_phi(u: float, alpha: float, c: float) -> float:
    """The normalized distortion profile on [0, 1]: linear with slope
    L(alpha, c) up to c, then a shifted power of exponent alpha."""
    if u < 0 or u > 1 + 1e-12:
        raise DomainError(f"profile argument {u} outside [0, 1]")
    if u <= c:
        return wu_L(alpha, c) * u
    return ((u - c * (1.0 - alpha)) / (1.0 - c * (1.0 - alpha))) ** alpha


@dataclass(frozen=True)
class WuSchedule:
    """Parameters (alpha_n, c_n, s_n) of the distorted intervals
    I_n = [1/n - s_n, 1/n], 1-indexed by n.

    Construction checks every term once (ScheduleError): alpha_n in (0, 1)
    increases, c_n in (0, 1), I_n misses I_{n+1}, s_n L(alpha_n, c_n) decreases.
    """

    alpha: tuple
    c: tuple
    s: tuple

    def __post_init__(self):
        sl_prev = math.inf
        for n, (a, c, s) in enumerate(zip(self.alpha, self.c, self.s), start=1):
            if not (0 < a < 1):
                raise ScheduleError(f"alpha_{n} = {a} outside (0, 1)")
            if n >= 2 and a <= self.alpha[n - 2]:
                raise ScheduleError(f"alpha must increase, violated at n={n}")
            if not (0 < c < 1):
                raise ScheduleError(f"c_{n} = {c} outside (0, 1)")
            if not (0 < s < 2.0 * (1.0 / n - 1.0 / (n + 1))):
                raise ScheduleError(f"s_{n} = {s} violates s_n < 2(1/n - 1/(n+1))")
            if 1.0 / n - s <= 1.0 / (n + 1):
                raise ScheduleError(f"s_{n} = {s} makes I_{n} touch I_{n + 1}")
            sl = s * wu_L(a, c)
            if sl >= sl_prev:
                raise ScheduleError(f"s_n L(alpha_n, c_n) must decrease, "
                                    f"violated at n={n}")
            sl_prev = sl

    def validate(self, N: int) -> None:
        terms = min(len(self.alpha), len(self.c), len(self.s))
        if not 0 <= N <= terms:
            raise ScheduleError(f"schedule truncation {N} outside 0..{terms}")

    def interval(self, n: int):
        s = self.s[n - 1]
        return (1.0 / n - s, 1.0 / n)


def default_wu_schedule(N: int) -> WuSchedule:
    """A valid schedule with L -> infinity: alpha_n = n/(n+1), c_n = 2^(-n^2),
    s_n small enough for disjointness and decreasing s_n L_n; N outside 0..25
    raises ScheduleError."""
    if not 0 <= N <= 25:
        raise ScheduleError(f"default schedule truncation {N} outside 0..25")
    alpha = tuple(n / (n + 1.0) for n in range(1, N + 1))
    c = tuple(2.0 ** (-n * n) for n in range(1, N + 1))
    s = []
    sl_prev = math.inf
    for n in range(1, N + 1):
        L = wu_L(alpha[n - 1], c[n - 1])
        cap = 0.5 * (1.0 / n - 1.0 / (n + 1))
        val = min(cap, 4.0 ** -n / L, 0.5 * sl_prev / L)
        s.append(val)
        sl_prev = val * L
    return WuSchedule(alpha, c, tuple(s))


def _wu_interval_of(v: float, sched: WuSchedule, N: int):
    for n in range(1, N + 1):
        a, b = sched.interval(n)
        if a <= v <= b:
            return n
    return None


def wu_line_metric(x: float, y: float, sched: WuSchedule, truncation: int) -> float:
    """The five-branch distorted metric on the line: plain Euclidean outside
    the intervals I_n (n <= truncation), profile-distorted inside, and sums
    of boundary hops across intervals.  The schedule checked its terms when
    it was built; a truncation outside 0..terms raises ScheduleError."""
    sched.validate(truncation)
    if x == y:
        return 0.0
    x, y = (x, y) if x < y else (y, x)

    def delta_n(u, v, n):
        s = sched.s[n - 1]
        return s * wu_phi(abs(u - v) / s, sched.alpha[n - 1], sched.c[n - 1])

    nx = _wu_interval_of(x, sched, truncation)
    ny = _wu_interval_of(y, sched, truncation)
    if nx is not None and nx == ny:
        return delta_n(x, y, nx)
    if nx is None and ny is None:
        return y - x
    if nx is None:  # x below or between intervals, y inside I_m
        a_m, _ = sched.interval(ny)
        return abs(x - a_m) + delta_n(a_m, y, ny)
    if ny is None:
        _, b_n = sched.interval(nx)
        return delta_n(x, b_n, nx) + abs(b_n - y)
    _, b_n = sched.interval(nx)
    a_m, _ = sched.interval(ny)
    return delta_n(x, b_n, nx) + abs(b_n - a_m) + delta_n(a_m, y, ny)


# ---------------------------------------------------------------------------
# Product rugs
# ---------------------------------------------------------------------------

def product_rug_space(line_metric, extent=(-1.0, 1.0),
                      h: float = 0.25) -> FiniteMetricSpace:
    """Grid sample of (R x R, sqrt(delta^2 + |.|^2)) at mesh h for a
    distorted line metric delta, one of the tuples ("rickman", eps) for the
    power metric |.|^eps and ("wu", schedule, truncation) for Wu's line.
    A mesh that is not positive and finite raises DomainError, and one that
    does not divide hi - lo or gives more than MAX_SPACE_POINTS points
    ResolutionError; the grid is lo + h*i, i >= 0.
    """
    lo, hi = float(extent[0]), float(extent[1])
    if not hi > lo:
        raise DomainError(f"extent must be increasing, got {extent}")
    if not 0.0 < h < math.inf:  # also refuses nan
        raise DomainError(f"rug mesh must be positive and finite, got {h}")
    if isinstance(line_metric, tuple) and line_metric and line_metric[0] == "rickman":
        eps = float(line_metric[1])
        if not (0.0 < eps < 1.0):
            raise DomainError(f"rickman exponent must be in (0, 1), got {eps}")
        delta = lambda u, v: abs(u - v) ** eps
    elif isinstance(line_metric, tuple) and line_metric and line_metric[0] == "wu":
        _, sched, N = line_metric
        delta = lambda u, v: wu_line_metric(u, v, sched, N)
    else:
        raise DomainError(f"unrecognized line metric {line_metric!r}")

    K = _mesh_steps(h, hi - lo) + 1
    _check_space_points(K * K, h)
    xs = lo + h * np.arange(K)
    dvals = np.zeros((K, K))
    for i in range(K):
        for j in range(i + 1, K):
            dvals[i, j] = dvals[j, i] = float(delta(float(xs[i]), float(xs[j])))
    ii, yy = np.meshgrid(np.arange(K), xs, indexing="ij")
    flat_i = ii.ravel()
    flat_y = yy.ravel()
    d = np.sqrt(dvals[flat_i[:, None], flat_i[None, :]] ** 2
                + (flat_y[:, None] - flat_y[None, :]) ** 2)
    labels = tuple((float(xs[i]), float(y)) for i, y in zip(flat_i, flat_y))
    return FiniteMetricSpace(d, labels)


# ---------------------------------------------------------------------------
# Windows: lattice kinds and carpets, one registry
# ---------------------------------------------------------------------------

def _grid_node(center, h: float):
    """Grid indices (ix, iy) of a planar center, which must lie within 1e-9
    of a node of the h-grid, to which lattice and carpet windows snap it."""
    try:
        cx, cy = float(center[0]), float(center[1])
    except (TypeError, ValueError, IndexError):
        raise DomainError(f"center {center!r} is not a planar position") from None
    icx, icy = round(cx / h), round(cy / h)
    if (abs(icx * h - cx) > 1e-9 or abs(icy * h - cy) > 1e-9
            or max(abs(icx), abs(icy)) > 2 ** 53):  # past it nodes share float positions
        raise DomainError(f"center {center} is not a node of the h={h} grid within 2^53 steps")
    return icx, icy


def _index_span(c: int, K: int, lo: float, hi: float, h: float) -> np.ndarray:
    """The indices of [c - K, c + K] whose node i*h can lie in [lo - TOL, hi +
    TOL], one wider on each side lest rounding drop one; the caller decides."""
    a = c - K if lo == -math.inf else max(c - K, math.floor((lo - TOL) / h) - 1)
    b = c + K if hi == math.inf else min(c + K, math.ceil((hi + TOL) / h) + 1)
    return np.arange(a, b + 1)


# Tags of lattice points, by code: plain points (all of a region's), the upper
# and lower lips of the slit, the half plane H of l, and the two sheets of d.
_TAGS = ((), ("U",), ("D",), ("H",), ("A",), ("B",))
_PLAIN, _UP, _DOWN, _H, _A, _B = range(len(_TAGS))


def _part(x, y, keep, tag: int):
    return x[keep], y[keep], np.full(np.count_nonzero(keep), tag)


def _join(*parts):
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _nodes(x, y):  # a region's points at grid indices (x, y) before its box test
    return x, y, np.full(len(x), _PLAIN)


def _t_points(x, y):
    """The points of t at grid indices (x, y): the plane, two lips on x > 0."""
    lip = (y == 0) & (x >= 1)
    return _join(_part(x, y, ~lip, _PLAIN), _part(x, y, lip, _UP), _part(x, y, lip, _DOWN))


def _l_points(x, y):
    """The points of l whose folded indices are (x, y): t's, and H's (+-x, y)."""
    up = y >= 1
    return _join(_t_points(x, y), _part(x, y, up & (x >= 0), _H), _part(-x, y, up & (x >= 1), _H))


def _d_points(x, y):
    """The points of d at (x, y): the seam (the quarter's boundary), and the
    two sheets off it."""
    quarter = (x >= 0) & (y >= 0)
    seam = quarter & ((x == 0) | (y == 0))
    sheet = quarter & ~seam
    return _join(_part(x, y, seam, _PLAIN), _part(x, y, sheet, _A), _part(x, y, sheet, _B))


def _l1(p, q):
    return np.abs(p[0] - q[0]) + np.abs(p[1] - q[1])


def _side(y, g):
    """+1 above the x-axis or on the upper lip, -1 below it or on the lower
    lip, 0 on the axis off the slit."""
    return np.sign(y) + (g == _UP) - (g == _DOWN)


def _t_hops(p, q):
    """Grid steps between points of t: l1, except between the sides of the
    slit over x > 0, where the path goes round the tip."""
    (x, y, g), (u, v, k) = p, q
    around = (_side(y, g) * _side(v, k) < 0) & (x > 0) & (u > 0)
    return np.where(around, x + u + np.abs(y) + np.abs(v), _l1(p, q))


def _h_to_t_hops(p, q):
    """Grid steps from H's point p = (s, t) to t's point q = (u, v): t to
    the seam, along it, then into t.  H's seam is t's boundary unrolled, the
    upper lip at s = u > 0, the lower lip at s = -u < 0, the origin at s = 0,
    so q over the slit is |v| past seam point +-u on its side, and q
    elsewhere |u| + |v| past the origin."""
    (s, t, _), (u, v, k) = p, q
    slit = u > 0
    return (t + np.abs(s - np.where(slit, _side(v, k) * u, 0)) + np.abs(v)
            + np.where(slit, 0, np.abs(u)))


def _l_hops(p, q):
    """Grid steps between points of l: t's within t, l1 within H, and across
    the seam from H to t."""
    hp, hq = p[2] == _H, q[2] == _H
    return np.where(hp & hq, _l1(p, q),
                    np.where(hp, _h_to_t_hops(p, q),
                             np.where(hq, _h_to_t_hops(q, p), _t_hops(p, q))))


def _d_hops(p, q):
    """Grid steps between points of d: l1 within a sheet or from the seam;
    from sheet to sheet through the x-axis or the y-axis, whichever is shorter."""
    (x, y, g), (u, v, k) = p, q
    across = (g != k) & (g != _PLAIN) & (k != _PLAIN)
    return np.where(across, np.minimum(np.abs(x - u) + y + v, np.abs(y - v) + x + u),
                    _l1(p, q))


# The lattice kinds: (closed box (x_lo, x_hi, y_lo, y_hi) of the points, padded
# by TOL; points at folded grid indices; grid steps, at least the l1 distance of
# the folded indices, or None: Euclidean; lexsort keys, or None: x, y, then tag).
_LATTICE = {
    "square": ((0.0, 1.0, 0.0, 1.0), _nodes, None, None),
    "plane": ((-math.inf, math.inf, -math.inf, math.inf), _nodes, None, None),
    "half": ((-math.inf, math.inf, 0.0, math.inf), _nodes, None, None),
    "quarter": ((0.0, math.inf, 0.0, math.inf), _nodes, None, None),
    "line": ((-math.inf, math.inf, 0.0, 0.0), _nodes, None, None),
    "t": ((-math.inf, math.inf, -math.inf, math.inf), _t_points, _t_hops, None),
    "l": ((-math.inf, math.inf, -math.inf, math.inf), _l_points, _l_hops,
          lambda x, y, g: (g, y, x, g == _H)),
    "d": ((0.0, math.inf, 0.0, math.inf), _d_points, _d_hops,
          lambda x, y, g: (x, y, np.where(g == _B, x, np.maximum(x, 1)), g == _B)),
}


class _LatticeWindowGenerator:
    """Windows of a _LATTICE kind: a region's Euclidean metric is its intrinsic
    one; a model's m grid steps are T[m] long, T = grid_steps(h, ...) as for a
    carpet's grid graph, so its windows are its grid graph's."""

    def __init__(self, name: str):
        self._name, (self._box, self._points, self._hops, self._order) = name, _LATTICE[name]

    def sample_ball(self, center, radius_phys: float, h: float):
        """Points within radius_phys + TOL of the center point (its grid node,
        then its key's tags; a region measures from the center as given):
        (space, base index).  The ball is counted column by column of the index
        box of radius K, clipped to the kind's box, then filled in row blocks."""
        _check_resolution(radius_phys, h)
        ix, iy = _grid_node(center, h)
        tags = tuple(center[2:])
        c = np.array([[ix], [iy], [_TAGS.index(tags) if tags in _TAGS else -1]])
        fx = abs(ix) if c[2, 0] == _H else ix  # l's H is walked folded
        outside = DomainError(f"center {tuple(center)} lies outside the region {self._name!r}")
        if not (np.stack(self._points(np.array([fx]), c[1])) == c).all(0).any():
            raise outside
        R = radius_phys + TOL
        if self._hops is None:  # squared distances of the nodes (x * h, y * h), sqrt
            K, scale, gauge, reach, finish = math.floor(R / h), h, _squares, R * R, np.sqrt
            o = (float(center[0]), float(center[1]))
        else:  # grid steps, m of them T[m] long; one step wider lest rounding drop one
            K, scale, o, gauge = math.floor(R / h) + 1, 1, c, self._hops
            T = grid_steps(h, 2 * K)
            finish, reach = T.__getitem__, np.searchsorted(T, R, "right") - 1  # T[reach] <= R
        x_lo, x_hi, y_lo, y_hi = self._box
        ys = _index_span(iy, K, y_lo, y_hi, h)
        parts, count = [np.empty((3, 0), dtype=int)], 0  # no column may meet the box
        for x in _index_span(fx, K, x_lo, x_hi, h):
            P = np.stack(self._points(np.full(len(ys), x), ys))
            X, Y = P[:2] * h
            keep = ((x_lo - TOL <= X) & (X <= x_hi + TOL) & (y_lo - TOL <= Y)
                    & (Y <= y_hi + TOL) & (gauge(o, P * scale) <= reach))
            parts.append(P[:, keep])
            count += np.count_nonzero(keep)
            _check_space_points(min(count, MAX_SPACE_POINTS + 1), h)
        P = np.concatenate(parts, axis=1)
        P = P[:, np.lexsort(self._order(*P) if self._order else P[::-1])]
        base = np.nonzero((P == c).all(0))[0]
        if not base.size:
            raise outside
        d = _pairwise(P * scale, lambda p, q: finish(gauge(p, q)))
        labels = tuple((x * h, y * h) + _TAGS[k] for x, y, k in P.T.tolist())
        return FiniteMetricSpace(d, labels), int(base[0])


class _GraphWindowGenerator:
    """Windows of a slit or pillow carpet in its shortest-path metric, each
    measured on _slit_carpet_box, the carpet's graph on the index box
    [ix - K, ix + K] x [iy - K, iy + K] around the center node."""

    def __init__(self, sched: SlitSchedule, pillows: bool):
        self._sched, self._pillows = sched, pillows

    def sample_ball(self, center, radius_phys: float, h: float):
        """Nodes within distance radius_phys of the center node (snapped to
        the h-grid node (ix, iy), then its key's tags): (space, base index).
        K = ceil(2R/h) + 1, as window geodesics, joined through the base, stay
        within 2R of it; the ball is counted before its matrix is built."""
        _check_resolution(radius_phys, h)
        ix, iy = _grid_node(center, h)
        key = (ix * h, iy * h) + tuple(center[2:])
        graph = _slit_carpet_box(self._sched, h, ix, iy, math.ceil(2.0 * radius_phys / h) + 1,
                                 key[2:], pillows=self._pillows)
        if key not in graph.index:
            raise DomainError(f"center {tuple(center)} is not a node of the grid graph")
        base = graph.index[key]
        R = radius_phys + TOL
        sel = np.nonzero(graph.distances_from([base], R)[0] <= R)[0]
        _check_space_points(len(sel), h)
        return graph.space_on(sel, 2 * R), int(np.nonzero(sel == base)[0][0])


def unit_square_generator() -> _LatticeWindowGenerator:
    return make_generator("square")


def make_generator(name: str, **params):
    """The one registry of window kinds: the lattice kinds of _LATTICE (the
    square, the Euclidean models and t, l and d), "flat-snowflake" (params
    flatness, window) and "slit-carpet" and "pillow-carpet" (param sched);
    each has sample_ball(center, R, h)."""
    if name in _LATTICE:
        return _LatticeWindowGenerator(name)
    if name == "flat-snowflake":
        return FlatSnowflakeGenerator(**params)
    if name in ("slit-carpet", "pillow-carpet"):
        return _GraphWindowGenerator(params["sched"], name == "pillow-carpet")
    raise DomainError(f"unknown generator {name!r}")


def model_tangent_space(kind: str, R: float, h: float) -> PointedWindow:
    """Pointed window of radius R around the distinguished point of a model
    tangent: plane, half plane (origin on the edge), quarter plane (corner),
    the slit plane t (tip), the gluings l = t+half and d = quarter+quarter
    (seam origins), or the 1-d line: make_generator(kind)'s lattice window
    at the origin, whose R and h pass _check_resolution.
    """
    if kind not in MODEL_KINDS:
        raise DomainError(f"unknown model tangent kind {kind!r}; "
                          f"expected one of {MODEL_KINDS}")
    return PointedWindow(*make_generator(kind).sample_ball((0.0, 0.0), R, h), 1.0, R)
