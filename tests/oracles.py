"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own search code: exhaustive
enumeration for GH distances, a recompute-everything copy of the GH upper
bound's local search, a frozen copy of the exact branch and bound that
recomputes every candidate cost (warm-started by the library's gh_bounds),
a frozen copy of the exact search's slot loop before its pair-mismatch table,
a frozen copy of the certified GH lower bound that both exact copies use,
a hand-rolled heap Dijkstra with its own graph construction for intrinsic
metrics, a plain Floyd-Warshall, a frozen copy of the Euclidean
model-window sampler, a frozen scipy-backed grid graph (csr adjacency and
Dijkstra; the library counts hops by breadth-first search) with a frozen
builder of the whole slit carpet, a frozen unbounded, symmetrised
graph-window search (over model graphs padded to 3R), frozen builders of
the t, l and d model graphs (the library writes their metrics in closed
form), a frozen copy of
the flat-snowflake window sampler that refines segment by segment, a frozen
metric-axiom check that scans every triangle slab, the nested-list space
JSON that the streaming space writer must match byte for byte, a frozen
all-triples distortion envelope that sorts every triple at once, a
breakpoint-counting step evaluation of distortion envelopes, a frozen copy
of the boundary expansion probe that translates both points of every pair
and compares scalar visual distances, a pair-by-pair nearest-position seed,
and a frozen blow-up scan loop that solves every window against every model.
"""
from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from metric_lab.boundary_free_group import (
    BoundaryPoint,
    ExpansionStats,
    ReducedWord,
    enumerate_words,
    translate_boundary,
    visual_distance,
)
from metric_lab.errors import DomainError
from metric_lab.fractal_gen import (
    _flatness_values,
    _refine_polyline,
    _slit_table,
    model_tangent_space,
)
from metric_lab.gh_solver import (
    Correspondence,
    GhResult,
    _eccentricity_order,
    _pair_distortion,
    gh_bounds,
    pointed_gh_bounds,
)
from metric_lab.metric_core import AxiomViolation
from metric_lab.tangent_lab import _seed_coordinates, extract_window, nearest_position_seed


# ---------------------------------------------------------------------------
# Exhaustive Gromov-Hausdorff
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _surjections(k: int, j: int):
    """All surjections from range(k) onto range(j), as tuples of images."""
    if j == 0:
        return (() ,) if k == 0 else ()
    if k < j:
        return ()
    out = []
    for assign in itertools.product(range(j), repeat=k):
        if len(set(assign)) == j:
            out.append(assign)
    return tuple(out)


def minimal_full_correspondences(nx: int, ny: int):
    """Yield every minimal full correspondence between range(nx) and range(ny).

    A full correspondence is minimal iff each pair is the unique cover of one
    of its endpoints, i.e. the relation is a partition of the two point sets
    into stars: X-centers carry nonempty sets of Y-leaves and vice versa.
    Distortion is monotone under adding pairs, so every full correspondence
    dominates a minimal one; the minimum over this family is the minimum over
    all full correspondences.
    """
    xs, ys = tuple(range(nx)), tuple(range(ny))
    for a in range(nx + 1):
        for A in itertools.combinations(xs, a):
            x_leaves = [x for x in xs if x not in A]
            for b in range(ny + 1):
                for B in itertools.combinations(ys, b):
                    y_leaves = [y for y in ys if y not in B]
                    for psi in _surjections(len(x_leaves), b):
                        base = [(x_leaves[i], B[psi[i]]) for i in range(len(x_leaves))]
                        for phi in _surjections(len(y_leaves), a):
                            pairs = base + [(A[phi[i]], y_leaves[i])
                                            for i in range(len(y_leaves))]
                            yield pairs


def gh_exhaustive(X, Y, base_pair=None, chunk: int = 20000) -> float:
    """Exact GH distance by enumerating all (minimal) full correspondences."""
    DX, DY = np.asarray(X.dist), np.asarray(Y.dist)
    extra = [tuple(base_pair)] if base_pair is not None else []
    best = np.inf
    batch = []
    width = 0

    def flush():
        nonlocal best, batch, width
        if not batch:
            return
        k = len(batch)
        I = np.zeros((k, width), dtype=int)
        J = np.zeros((k, width), dtype=int)
        for r, pairs in enumerate(batch):
            arr = np.asarray(pairs, dtype=int)
            m = len(pairs)
            I[r, :m], J[r, :m] = arr[:, 0], arr[:, 1]
            if m < width:  # pad by repeating the first pair: distortion unchanged
                I[r, m:], J[r, m:] = arr[0, 0], arr[0, 1]
        dis = np.abs(DX[I[:, :, None], I[:, None, :]]
                     - DY[J[:, :, None], J[:, None, :]]).max(axis=(1, 2))
        best = min(best, float(dis.min()))
        batch, width = [], 0

    for pairs in minimal_full_correspondences(X.n, Y.n):
        pairs = pairs + [p for p in extra if p not in pairs]
        batch.append(pairs)
        width = max(width, len(pairs))
        if len(batch) >= chunk:
            flush()
    flush()
    return best / 2.0


def _worst_pair(DX, DY, I, J):
    """(dis, (row, col)) of the pair-pair distortion matrix, first max in row-major order."""
    m = np.abs(DX[I][:, I] - DY[J][:, J])
    idx = int(np.argmax(m))
    return float(m.flat[idx]), divmod(idx, len(I))


def reference_local_search(DX, DY, I, J, base_pair, moves: int):
    """Worst-pair repair hill-climb that rebuilds every matrix it reads.

    Each move takes the first worst pair (row-major), re-pairs one of its
    endpoints to the partner minimising the pair's worst mismatch against
    the other pairs (lowest index on ties), keeps the endpoints covered, and
    accepts only a strict decrease of the full distortion, recomputed from
    scratch.  Returns (dis, I, J).
    """
    nx, ny = DX.shape[0], DY.shape[0]
    I, J = np.array(I, dtype=int), np.array(J, dtype=int)
    cur, where = _worst_pair(DX, DY, I, J)
    for _ in range(moves):
        if cur <= 0:
            break
        improved = False
        for k in where:
            if base_pair is not None and (I[k], J[k]) == base_pair:
                continue
            others = np.ones(len(I), dtype=bool)
            others[k] = False
            Io, Jo = I[others], J[others]
            row = np.abs(DX[I[k]][Io][None, :] - DY[:, Jo]).max(axis=1)
            jbest = int(np.lexsort((np.arange(ny), row))[0])
            row2 = np.abs(DX[:, Io] - DY[J[k]][Jo][None, :]).max(axis=1)
            ibest = int(np.lexsort((np.arange(nx), row2))[0])
            if row[jbest] <= row2[ibest] and row[jbest] < cur:
                trial = (I[k], jbest)
            elif row2[ibest] < cur:
                trial = (ibest, J[k])
            else:
                continue
            oldI, oldJ = I[k], J[k]
            I[k], J[k] = trial
            if oldI not in I or oldJ not in J:
                I[k], J[k] = oldI, oldJ
                continue
            new, nwhere = _worst_pair(DX, DY, I, J)
            if new < cur - 1e-15:
                cur, where = new, nwhere
                improved = True
                break
            I[k], J[k] = oldI, oldJ
        if not improved:
            break
    return cur, I, J


def count_full_correspondences(nx: int, ny: int) -> int:
    """Number of full binary relations (used only to sanity-check tiny cases)."""
    count = 0
    cells = list(itertools.product(range(nx), range(ny)))
    for bits in itertools.product((0, 1), repeat=len(cells)):
        chosen = [c for c, b in zip(cells, bits) if b]
        if not chosen:
            continue
        if len({i for i, _ in chosen}) == nx and len({j for _, j in chosen}) == ny:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Frozen GH lower bound
# ---------------------------------------------------------------------------

def _reference_directed_gap(a, b) -> float:
    """sup over values of a of the distance to the nearest value of b; both sorted."""
    pos = np.searchsorted(b, a)
    left = np.where(pos > 0, a - b[np.maximum(pos - 1, 0)], np.inf)
    right = np.where(pos < len(b), b[np.minimum(pos, len(b) - 1)] - a, np.inf)
    return float(np.minimum(left, right).max())


def reference_lower_bound(X, Y, base_pair=None) -> float:
    """Frozen copy of the library's certified lower bound: half the Hausdorff
    mismatch of the realized distance values (0 included on both sides), and
    when pointed, at least half the mismatch of the two base rows' values."""
    def values(D):
        return np.unique(np.concatenate(([0.0], D[np.triu_indices(D.shape[0], 1)])))

    a, b = values(X.dist), values(Y.dist)
    lb = max(_reference_directed_gap(a, b), _reference_directed_gap(b, a)) / 2.0
    if base_pair is not None:
        a = np.unique(X.dist[base_pair[0]])
        b = np.unique(Y.dist[base_pair[1]])
        lb = max(lb, max(_reference_directed_gap(a, b), _reference_directed_gap(b, a)) / 2.0)
    return lb


# ---------------------------------------------------------------------------
# Frozen exact GH branch and bound
# ---------------------------------------------------------------------------

def reference_exact_small(X, Y, *,
                          budget: int = 5_000_000, base_pair=None,
                          seed: int = 0) -> GhResult:
    """Frozen branch and bound that recomputes every candidate cost.

    Slots are the X points (choose an image) followed by the uncovered Y
    points (choose a preimage), both in decreasing-eccentricity order with
    lower-index tie break; the pruning bound is the current partial
    distortion.  An upper bound from gh_bounds with min(40, 8 + 2*max(nx, ny))
    restarts seeds the incumbent.  Returns a GhResult whose lower bound is
    clamped to the exact value.
    """
    if X.n == 0 or Y.n == 0:
        raise DomainError("GH distance of an empty space")
    DX, DY = X.dist, Y.dist
    nx, ny = X.n, Y.n

    warm = gh_bounds(X, Y, seed=seed, restarts=min(40, 8 + 2 * max(nx, ny)),
                     base_pair=base_pair)
    lower = reference_lower_bound(X, Y, base_pair)
    bestI, bestJ = warm.witness.arrays()
    best_dis = _pair_distortion(DX, DY, bestI, bestJ)

    xs = _eccentricity_order(DX)
    ys_order = _eccentricity_order(DY)

    pre_I = [int(base_pair[0])] if base_pair is not None else []
    pre_J = [int(base_pair[1])] if base_pair is not None else []

    nodes = 0
    exhausted = False

    I_buf = np.empty(nx + ny + 1, dtype=int)
    J_buf = np.empty(nx + ny + 1, dtype=int)
    I_buf[:len(pre_I)] = pre_I
    J_buf[:len(pre_J)] = pre_J

    def dfs(slot: int, k: int, cur: float):
        # slot < nx: assign image of xs[slot]; afterwards cover remaining Y
        nonlocal best_dis, bestI, bestJ, nodes, exhausted
        if exhausted:
            return
        if slot == nx:
            covered = set(J_buf[:k].tolist())
            rest = [int(y) for y in ys_order if int(y) not in covered]
            dfs_y(rest, k, cur)
            return
        x = int(xs[slot])
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        I, J = I_buf[:k], J_buf[:k]
        if k:
            delta = np.abs(DX[x, I][None, :] - DY[:, J]).max(axis=1)
        else:
            delta = np.zeros(ny)
        order = np.lexsort((np.arange(ny), delta))
        for y in order:
            d = max(cur, float(delta[y]))
            if d >= best_dis:
                break  # candidates sorted: the rest only get worse
            I_buf[k], J_buf[k] = x, int(y)
            dfs(slot + 1, k + 1, d)
            if exhausted:
                return

    def dfs_y(rest, k: int, cur: float):
        nonlocal best_dis, bestI, bestJ, nodes, exhausted
        if exhausted:
            return
        if not rest:
            if cur < best_dis:
                best_dis = cur
                bestI = I_buf[:k].copy()
                bestJ = J_buf[:k].copy()
            return
        y = rest[0]
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        I, J = I_buf[:k], J_buf[:k]
        delta = np.abs(DX[:, I] - DY[y, J][None, :]).max(axis=1)
        order = np.lexsort((np.arange(nx), delta))
        for x in order:
            d = max(cur, float(delta[x]))
            if d >= best_dis:
                break
            I_buf[k], J_buf[k] = int(x), y
            dfs_y(rest[1:], k + 1, d)
            if exhausted:
                return

    k0 = len(pre_I)
    cur0 = 0.0
    if k0:
        cur0 = float(np.abs(DX[pre_I[0], pre_I[0]] - DY[pre_J[0], pre_J[0]]))
    dfs(0, k0, cur0)

    witness = Correspondence(tuple(zip(bestI.tolist(), bestJ.tolist())))
    if exhausted:
        return GhResult(lower=lower, upper=best_dis / 2.0, exact=None, witness=witness)
    value = best_dis / 2.0
    return GhResult(lower=min(lower, value), upper=value, exact=value, witness=witness)


def reference_exact_search(X, Y, *, budget: int = 200_000, base_pair=None,
                           seed: int = 0) -> GhResult:
    """Frozen copy of the library's exact search as it stood before the
    pair-mismatch table: the child L is rebuilt from colX and rowY with three
    numpy calls, the forward check rebuilds |colX[x] - rowY[live]|, every slot
    orders its candidates with a stable numpy argsort, and the pair buffers
    are numpy arrays.  Same nodes in the same order, so an exhausted result
    (which depends on that order) must match it bit for bit.
    """
    if X.n == 0 or Y.n == 0:
        raise DomainError("GH distance of an empty space")
    DX, DY = X.dist, Y.dist
    nx, ny = X.n, Y.n

    lower = reference_lower_bound(X, Y, base_pair)
    best_dis, bestI, bestJ = np.inf, None, None
    if nx == ny and (base_pair is None or base_pair[0] == base_pair[1]):
        bestI = bestJ = np.arange(nx)  # the identity, as in gh_bounds' seeds
        best_dis = float(np.abs(DX - DY).max())

    xs = _eccentricity_order(DX).tolist()
    ys_order = _eccentricity_order(DY).tolist()

    nodes = 0
    exhausted = False
    closed = best_dis / 2.0 <= lower + 1e-15  # nothing left to find
    I_buf = np.empty(nx + ny + 1, dtype=int)
    J_buf = np.empty(nx + ny + 1, dtype=int)
    # colX[x] is DX[:, x] as a column, rowY[y] is DY[:, y] as a row (views):
    # fixing the pair (x, y) raises L to at least |colX[x] - rowY[y]|
    colX, rowY = DX.T[:, :, None], DY.T[:, None, :]

    def child(L, x: int, y: int):
        out = np.subtract(colX[x], rowY[y])
        np.abs(out, out=out)
        return np.maximum(out, L, out=out)

    def dfs(slot: int, k: int, cur: float, L, rest):
        nonlocal best_dis, bestI, bestJ, nodes, exhausted, closed
        if slot == nx:  # every X point has an image; cover the remaining Y
            covered = set(J_buf[:k].tolist())
            rest = [y for y in ys_order if y not in covered]
        on_x = slot < nx
        if not on_x and slot - nx == len(rest):
            if cur < best_dis:
                best_dis = cur
                bestI = I_buf[:k].copy()
                bestJ = J_buf[:k].copy()
                closed = best_dis / 2.0 <= lower + 1e-15
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if on_x:
            x = xs[slot]
            cost = L[x]
        else:
            y = rest[slot - nx]
            cost = L[:, y]
        order = cost.argsort(kind="stable")
        costs = cost[order]
        if on_x:
            # forward check: the child L of every live candidate at once,
            # shape (candidates, nx, ny), freed before recursing
            live = order[:costs.searchsorted(best_dis)]
            T = np.abs(colX[x][None] - rowY[live])
            np.maximum(T, L, out=T)
            bound = np.maximum(T.min(axis=2).max(axis=1), T.min(axis=1).max(axis=1))
            del T
            bound = bound.tolist()
        else:
            bound = [-np.inf] * len(order)
        for c, cc, b in zip(order.tolist(), costs.tolist(), bound):
            d = max(cur, cc)
            if d >= best_dis:
                break  # candidates sorted: the rest only get worse
            if b >= best_dis:
                continue
            pair = (x, c) if on_x else (c, y)
            I_buf[k], J_buf[k] = pair
            dfs(slot + 1, k + 1, d, child(L, *pair), rest)
            if exhausted or closed:
                return

    if base_pair is not None:
        b1, b2 = int(base_pair[0]), int(base_pair[1])
        I_buf[0], J_buf[0] = b1, b2
        cur0 = float(np.abs(DX[b1, b1] - DY[b2, b2]))
        root = (1, cur0, np.abs(colX[b1] - rowY[b2]))
    else:
        root = (0, 0.0, np.zeros((nx, ny)))
    if not closed:  # else the identity already meets the lower bound
        dfs(0, *root, None)

    if exhausted:
        full = gh_bounds(X, Y, seed=seed, base_pair=base_pair)
        I, J = full.witness.arrays()
        dis = _pair_distortion(DX, DY, I, J)
        if dis < best_dis:
            best_dis, bestI, bestJ = dis, I, J
    witness = Correspondence(tuple(zip(bestI.tolist(), bestJ.tolist())))
    value = best_dis / 2.0
    closed = not exhausted or value <= lower + 1e-15
    return GhResult(lower=lower, upper=value, exact=value if closed else None,
                    witness=witness)


# ---------------------------------------------------------------------------
# Independent shortest paths
# ---------------------------------------------------------------------------

def dijkstra_dict(adj: dict, source):
    """Heap Dijkstra over an adjacency dict {node: [(nbr, weight), ...]}."""
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    tie = 0
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, np.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, np.inf) - 1e-15:
                dist[v] = nd
                tie += 1
                heapq.heappush(heap, (nd, tie, v))
    return dist


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths; weights has inf where there is no edge."""
    d = weights.copy().astype(float)
    n = d.shape[0]
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


def single_slit_grid_adjacency(M: int, r0: float):
    """Independent construction of the unit-square grid with one centered slit.

    Nodes are (ix, iy) or (ix, iy, 'L'/'R') for duplicated slit-interior
    points; the slit is the vertical segment of length r0 centered at
    (1/2, 1/2).  Returns (adjacency dict, step).
    """
    h = 1.0 / M
    col = M // 2
    y0 = round((0.5 - r0 / 2.0) * M)
    y1 = round((0.5 + r0 / 2.0) * M)

    def node(ix, iy, approach=0):
        # approach < 0: reached moving right (from the left); > 0: from the right
        if ix == col and y0 < iy < y1:
            return (ix, iy, "L") if approach < 0 else (ix, iy, "R")
        return (ix, iy)

    adj: dict = {}

    def add(u, v):
        adj.setdefault(u, []).append((v, h))
        adj.setdefault(v, []).append((u, h))

    for ix in range(M + 1):
        for iy in range(M + 1):
            if ix < M:  # horizontal edge (ix,iy)-(ix+1,iy)
                u = node(ix, iy, approach=+1)
                v = node(ix + 1, iy, approach=-1)
                add(u, v)
            if iy < M:  # vertical edge (ix,iy)-(ix,iy+1)
                if ix == col and y0 <= iy < y1:
                    add(node(ix, iy, -1), node(ix, iy + 1, -1))
                    add(node(ix, iy, +1), node(ix, iy + 1, +1))
                else:
                    add((ix, iy), (ix, iy + 1))
    return adj, h


# ---------------------------------------------------------------------------
# Euclidean model windows
# ---------------------------------------------------------------------------

_TOL = 1e-9  # metric_core.TOL, repeated so the copy below stays frozen

# Region predicate and one_dim flag per Euclidean model tangent.
REFERENCE_EUCLID_MODELS = {
    "plane": (lambda x, y: True, False),
    "half": (lambda x, y: y >= -_TOL, False),
    "quarter": (lambda x, y: x >= -_TOL and y >= -_TOL, False),
    "line": (lambda x, y: True, True),
}

# The closed unit square, as the square's windows compare against it.
REFERENCE_SQUARE = lambda x, y: -_TOL <= x <= 1 + _TOL and -_TOL <= y <= 1 + _TOL


def reference_euclid_window(pred, R: float, h: float, one_dim: bool = False,
                            center=(0.0, 0.0)):
    """Frozen Euclidean window around a grid-node center, the origin by
    default: every node of the index box around it, in order, that lies in
    the region and the ball: (labels, dist, base)."""
    K = math.floor((R + _TOL) / h)
    cx, cy = center
    icx, icy = round(cx / h), round(cy / h)
    pts = []
    base = None
    ys = (icy,) if one_dim else range(icy - K, icy + K + 1)
    for ix in range(icx - K, icx + K + 1):
        for iy in ys:
            x, y = ix * h, iy * h
            if (x - cx) * (x - cx) + (y - cy) * (y - cy) <= (R + _TOL) ** 2 and pred(x, y):
                if ix == icx and iy == icy:
                    base = len(pts)
                pts.append((x, y))
    arr = np.array(pts)
    d = np.linalg.norm(arr[:, None, :] - arr[None, :, :], axis=-1)
    return tuple((float(x), float(y)) for x, y in pts), d, base


# ---------------------------------------------------------------------------
# Graph windows
# ---------------------------------------------------------------------------

class ReferenceGridGraph:
    """Frozen scipy-backed grid graph: node keys, the edge list as given and
    a symmetric csr adjacency of the deduplicated edges, each of length h."""

    def __init__(self, keys, edges, h: float):
        self.keys = tuple(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.edges = list(edges)
        n = len(self.keys)
        pairs = {(u, v) if u < v else (v, u) for u, v in self.edges}  # csr would sum duplicates
        uv = np.array(list(pairs), dtype=int).reshape(-1, 2)
        self.adjacency = csr_matrix((np.full(len(uv), float(h)), (uv[:, 0], uv[:, 1])),
                                    shape=(n, n))


class ReferenceGraphBuilder:
    """Accumulates node keys and edges of length h, then freezes a
    ReferenceGridGraph."""

    def __init__(self, h: float):
        self.h = h
        self._index: dict = {}
        self._edges: list = []

    def node(self, key) -> int:
        return self._index.setdefault(key, len(self._index))

    def edge(self, u: int, v: int) -> None:
        self._edges.append((u, v))

    def build(self) -> ReferenceGridGraph:
        return ReferenceGridGraph(self._index, self._edges, self.h)


def reference_carpet_graph(sched, h: float, pillows: bool = False) -> ReferenceGridGraph:
    """Frozen builder of the whole slit carpet's graph (pillows optional):
    slit-interior nodes are split into an "L" and an "R" copy, slit ends stay
    single, and a pillow's two sheets are glued to a slit's lips, its nodes
    keyed (x, y, "P", slit, sheet or "G", u, v), in the library's node order."""
    M = round(1.0 / h)
    slits = _slit_table(sched, M)
    by_col: dict = {}
    for (_, col, y0, y1) in slits:
        by_col.setdefault(col, []).append((y0, y1))
    b = ReferenceGraphBuilder(h)

    def key(ix, iy, side=None):
        pos = (ix * h, iy * h)
        if side is not None:
            for (y0, y1) in by_col.get(ix, ()):
                if y0 < iy < y1:
                    return b.node(pos + (side,))
        return b.node(pos)

    for ix in range(M + 1):
        for iy in range(M + 1):
            if ix < M:
                b.edge(key(ix, iy, "R"), key(ix + 1, iy, "L"))
            if iy < M:
                if any(y0 <= iy < y1 for (y0, y1) in by_col.get(ix, ())):
                    b.edge(key(ix, iy, "L"), key(ix, iy + 1, "L"))
                    b.edge(key(ix, iy, "R"), key(ix, iy + 1, "R"))
                else:
                    b.edge(key(ix, iy), key(ix, iy + 1))

    for slit_id, (_, col, y0, y1) in enumerate(slits if pillows else ()):
        m = y1 - y0

        def pnode(sheet, u, v):
            if v == 0:
                return key(col, y0 + u, "L" if sheet == "A" else "R")
            tag = "G" if (u == 0 or u == m or v == m) else sheet
            return b.node((col * h, (y0 + u) * h, "P", slit_id, tag, u, v))

        for sheet in ("A", "B"):
            for u in range(m + 1):
                for v in range(m + 1):
                    if u < m:
                        b.edge(pnode(sheet, u, v), pnode(sheet, u + 1, v))
                    if v < m:
                        b.edge(pnode(sheet, u, v), pnode(sheet, u, v + 1))
    return b.build()


def reference_carpet_matrix(sched, h: float, pillows: bool = False):
    """Frozen whole-carpet space: one unbounded scipy Dijkstra from every
    node of reference_carpet_graph: (labels, dist)."""
    graph = reference_carpet_graph(sched, h, pillows)
    return graph.keys, dijkstra(graph.adjacency, directed=False)


def reference_graph_adjacency(graph) -> dict:
    """The adjacency dict {key: [(key, h), ...]} of a ReferenceGridGraph's
    edges as given, for dijkstra_dict, which needs no scipy."""
    h = float(graph.adjacency.data[0])
    adj: dict = {k: [] for k in graph.keys}
    for u, v in graph.edges:
        adj[graph.keys[u]].append((graph.keys[v], h))
        adj[graph.keys[v]].append((graph.keys[u], h))
    return adj


def reference_graph_window(graph, key, R: float):
    """Frozen graph window around the node key: one unbounded scipy Dijkstra
    from it selects the nodes within R + TOL, unbounded Dijkstra rows from
    every selected node over the whole graph give the matrix, which is then
    symmetrised: (labels, dist, base)."""
    base = graph.index[key]
    row = dijkstra(graph.adjacency, directed=False, indices=[base])[0]
    sel = np.nonzero(row <= R + _TOL)[0]
    d = dijkstra(graph.adjacency, directed=False, indices=sel)[:, sel]
    d = np.minimum(d, d.T)
    return tuple(graph.keys[i] for i in sel), d, int(np.nonzero(sel == base)[0][0])


# Frozen builders of the t, l and d models' grid graphs on the index box
# [-K, K]^2 (d: [0, K]^2), each node keyed by its planar position and tags.

def _build_t_graph(K: int, h: float) -> ReferenceGraphBuilder:
    b = ReferenceGraphBuilder(h)

    def node(ix, iy, lip=None):
        pos = (ix * h, iy * h)
        if iy == 0 and ix >= 1 and lip is not None:
            return b.node(pos + (lip,))
        return b.node(pos)

    for ix in range(-K, K + 1):
        for iy in range(-K, K + 1):
            if ix < K:
                if iy == 0 and ix >= 0:  # along the cut: one chain per lip
                    b.edge(node(ix, 0, "U"), node(ix + 1, 0, "U"))
                    b.edge(node(ix, 0, "D"), node(ix + 1, 0, "D"))
                else:
                    b.edge(node(ix, iy), node(ix + 1, iy))
            if iy < K:
                up = node(ix, iy + 1, "D" if iy + 1 == 0 else None)
                lo = node(ix, iy, "U" if iy == 0 else None)
                b.edge(lo, up)
    return b


def _build_l_graph(K: int, h: float) -> ReferenceGraphBuilder:
    b = _build_t_graph(K, h)

    def hnode(s, t):
        if t == 0:  # the seam: the boundary cycle of T, arc length matched
            if s == 0:
                return b.node((0.0, 0.0))
            return b.node((abs(s) * h, 0.0, "U" if s > 0 else "D"))
        return b.node((s * h, t * h, "H"))

    for s in range(-K, K + 1):
        for t in range(0, K + 1):
            if s < K and t >= 1:
                b.edge(hnode(s, t), hnode(s + 1, t))
            if t < K:
                b.edge(hnode(s, t), hnode(s, t + 1))
    return b


def _build_d_graph(K: int, h: float) -> ReferenceGraphBuilder:
    b = ReferenceGraphBuilder(h)

    def node(sheet, ix, iy):
        pos = (ix * h, iy * h)
        if ix == 0 or iy == 0:
            return b.node(pos)  # glued boundary, shared by both sheets
        return b.node(pos + (sheet,))

    for sheet in ("A", "B"):
        for ix in range(0, K + 1):
            for iy in range(0, K + 1):
                if ix < K:
                    b.edge(node(sheet, ix, iy), node(sheet, ix + 1, iy))
                if iy < K:
                    b.edge(node(sheet, ix, iy), node(sheet, ix, iy + 1))
    return b


REFERENCE_MODEL_GRAPHS = {"t": _build_t_graph, "l": _build_l_graph, "d": _build_d_graph}


def reference_model_graph_window(kind: str, R: float, h: float):
    """Frozen t/l/d model window: reference_graph_window at the origin of
    the model graph padded to half-width 3R."""
    K = math.ceil(3.0 * R / h) + 1
    return reference_graph_window(REFERENCE_MODEL_GRAPHS[kind](K, h).build(), (0.0, 0.0), R)


def reference_snowflake_window(gen, center, R: float, h: float):
    """Frozen flat-snowflake window: every stage refines the polyline one
    segment at a time, keeping coarse the segments below the mesh or too far
    out to reach the ball: (labels, dist, base), or None when the center is
    no vertex of the refined curve."""
    cpos = np.asarray(gen._center_position(center))
    span = gen.window[1] - gen.window[0]
    depth = max(1, math.ceil(math.log(span / h) / math.log(3.0)))
    P = [np.array([gen.window[0], 0.0]), np.array([gen.window[1], 0.0])]
    for l in _flatness_values(gen.flatness, depth):
        out = [P[0]]
        for p, q in zip(P[:-1], P[1:]):
            seglen = float(np.linalg.norm(q - p))
            near = min(np.linalg.norm(cpos - p), np.linalg.norm(cpos - q))
            if seglen <= h or near - 2.0 * seglen > 2.0 * R:
                out.append(q)
            else:
                out.extend(_refine_polyline(np.stack([p, q]), l)[1:])
        P = out
    V = np.stack(P)
    dist_to_c = np.linalg.norm(V - cpos, axis=1)
    keep = np.nonzero(dist_to_c <= R + _TOL)[0]
    bases = np.nonzero(dist_to_c[keep] <= 1e-12)[0]
    if bases.size == 0:
        return None  # the center is no vertex of the refined curve
    V = V[keep]
    d = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
    return tuple((float(x), float(y)) for x, y in V), d, int(bases[0])


# ---------------------------------------------------------------------------
# Metric axioms
# ---------------------------------------------------------------------------

def reference_validate_metric(m) -> list:
    """Frozen axiom check that evaluates every triangle slab in full.

    Same contract as metric_core.validate_metric: one AxiomViolation per
    violated axiom, with the first worst witness in scan order.
    """
    d = m.dist
    n = m.n
    out = []
    if n == 0:
        return out

    diag = np.abs(np.diag(d))
    if diag.max(initial=0.0) > _TOL:
        i = int(np.argmax(diag))
        out.append(AxiomViolation("identity", (i,), float(diag[i])))

    asym = np.abs(d - d.T)
    if asym.max(initial=0.0) > _TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        out.append(AxiomViolation("symmetry", (int(i), int(j)), float(asym[i, j])))

    off = d + np.diag(np.full(n, np.inf))
    if n > 1 and off.min() <= _TOL:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        out.append(AxiomViolation("positivity", (int(i), int(j)), float(d[i, j])))

    worst_excess = 0.0
    worst_triple = None
    for k in range(n):
        excess = d - (d[:, k][:, None] + d[k, :][None, :])
        e = float(excess.max())
        if e > worst_excess:
            worst_excess = e
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            worst_triple = (int(i), k, int(j))
    if worst_excess > _TOL and worst_triple is not None:
        out.append(AxiomViolation("triangle", worst_triple, worst_excess))
    return out


# ---------------------------------------------------------------------------
# Space JSON and distortion envelopes
# ---------------------------------------------------------------------------

def _reference_label(label):
    if isinstance(label, tuple):
        return [_reference_label(x) for x in label]
    if isinstance(label, np.integer):
        return int(label)
    if isinstance(label, np.floating):
        return float(label)
    return label


def reference_space_json(m) -> dict:
    """The space as nested lists: json.dump(indent=1, sort_keys=True) of it,
    newline-terminated, is the byte reference for metric_core.write_space."""
    return {"labels": [_reference_label(l) for l in m.labels], "dist": m.dist.tolist()}


def reference_envelope_all(f):
    """Frozen all-triples distortion envelope, (ts, ss): every ordered triple's
    (source ratio, image ratio) held at once and sorted once, then the running
    maximum by ascending t, kept where it strictly increases."""
    DX, DY = f.domain.dist, f.codomain.dist
    n = f.domain.n
    img = DY[np.ix_(f.assignment, f.assignment)]
    ts, ss = [], []
    for x0 in range(0, n, 64):
        xs = np.arange(x0, min(x0 + 64, n))
        dx, ix = DX[xs], img[xs]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = dx[:, None, :] / dx[:, :, None]
            s = ix[:, None, :] / ix[:, :, None]
        zmask = np.ones((len(xs), n), dtype=bool)
        zmask[np.arange(len(xs)), xs] = False
        ts.append(t[zmask].ravel())
        ss.append(s[zmask].ravel())
    t, s = np.concatenate(ts), np.concatenate(ss)
    order = np.argsort(t, kind="stable")
    t, s = t[order], s[order]
    run = np.maximum.accumulate(s)
    last_of_group = np.append(t[1:] != t[:-1], True)
    t, run = t[last_of_group], run[last_of_group]
    keep = np.empty(t.size, dtype=bool)
    keep[0] = True
    keep[1:] = run[1:] > np.maximum.accumulate(run)[:-1]
    return t[keep], run[keep]


def reference_eval_step(env, t):
    """Step evaluation of a distortion envelope by counting breakpoints: the
    value of the last breakpoint at or below t, 0 below the first; t is a
    number or an array."""
    t = np.asarray(t, dtype=float)
    below = (env.ts <= t[..., None]).sum(axis=-1)
    out = np.where(below > 0, env.ss[np.maximum(below - 1, 0)], 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Boundary expansion probe
# ---------------------------------------------------------------------------

def reference_expansion_probe(p: BoundaryPoint, m: int, samples="all",
                              depth: int | None = None, a: float = 2.0,
                              seed: int = 0) -> ExpansionStats:
    """Frozen pair-loop probe: d(gx, gy)/d(x, y) over every pair of U(p, m),
    g = prefix^-1, both points translated and both distances computed by the
    scalar visual_distance, pair by pair."""
    if depth is None:
        depth = p.depth
    if m > depth:
        raise DomainError(f"cylinder depth {m} exceeds truncation depth {depth}")
    prefix = ReducedWord(p.prefix.letters[:m], p.rank)
    g = prefix.inverse()
    words = enumerate_words(p.rank, depth, prefix.letters)
    if samples != "all":
        if int(samples) < 1:
            raise DomainError("sample count must be positive")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(words), size=min(int(samples), len(words)), replace=False)
        words = [words[i] for i in np.sort(idx)]
    pts = [BoundaryPoint(ReducedWord(w, p.rank)) for w in words]
    ratios = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = visual_distance(pts[i], pts[j], a)
            if d == 0.0:
                continue
            gd = visual_distance(translate_boundary(g, pts[i]),
                                 translate_boundary(g, pts[j]), a)
            ratios.append(gd / d)
    if not ratios:
        return ExpansionStats(1.0, 1.0, 1.0, 0)
    arr = np.asarray(ratios)
    return ExpansionStats(float(arr.min()), float(arr.max()), float(arr.mean()),
                          len(ratios))


# ---------------------------------------------------------------------------
# Position seeds
# ---------------------------------------------------------------------------

def _reference_nearest(a, b) -> list:
    """For each point of a, the lowest index of b at the least squared
    distance, summed coordinate by coordinate one pair at a time."""
    out = []
    for x in a.tolist():
        best, arg = math.inf, -1
        for j, y in enumerate(b.tolist()):
            d2 = 0.0
            for u, v in zip(x, y):
                d2 += (u - v) * (u - v)
            if d2 < best:
                best, arg = d2, j
        out.append(arg)
    return out


def reference_position_seed(W1, W2):
    """nearest_position_seed by brute force over every pair of points, on the
    library's seed coordinates: both nearest maps plus the base pair, sorted."""
    q1, q2 = _seed_coordinates(W1), _seed_coordinates(W2)
    if q1 is None or q2 is None:
        return None
    pairs = {(i, j) for i, j in enumerate(_reference_nearest(q1, q2))}
    pairs.update((i, j) for j, i in enumerate(_reference_nearest(q2, q1)))
    pairs.add((W1.base, W2.base))
    return Correspondence(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# Blow-up scan
# ---------------------------------------------------------------------------

def reference_tangent_scan(cfg) -> list:
    """Frozen scan loop without a memo: one pointed_gh_bounds solve per scale
    and model.  Returns [(lam, points, {model kind: GhResult})] per scale."""
    model_cache: dict = {}
    rows = []
    for lam in cfg.scales:
        h = cfg.h_of(lam)
        W = extract_window(cfg.generator, cfg.center, lam, cfg.window_radius, h)
        results = {}
        for kind in cfg.models:
            h_eff = h / lam
            ck = (kind, cfg.window_radius, round(h_eff, 12))
            M = model_cache.get(ck)
            if M is None:
                M = model_cache[ck] = model_tangent_space(kind, cfg.window_radius, h_eff)
            results[kind] = pointed_gh_bounds(
                W, M, extra_seeds=[nearest_position_seed(W, M)], seed=cfg.seed)
        rows.append((lam, W.space.n, results))
    return rows
