"""Exact and bounded Gromov-Hausdorff distance between finite metric spaces.

Everything is computed through the correspondence-distortion identity
d_GH = (1/2) * inf over full correspondences R of dis(R), where
dis(R) = sup |d_X(x,x') - d_Y(y,y')| over pairs (x,y), (x',y') in R.

The exact solver is a branch and bound over correspondences of the form
graph(f) + graph(g): an assignment f of every X-point to a Y-image followed by
an assignment of every still-uncovered Y-point to an X-preimage.  Every
minimal full correspondence has this shape (each relation pair must be the
unique cover of one of its endpoints), and distortion is monotone under
adding pairs, so the minimum over this family is the true minimum.
"""
from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .metric_core import FiniteMetricSpace, PointedWindow

EXACT_BUDGET = 200_000  # default node budget of the exact search
_EXACT_AUTO_PAIRS = 400  # method="auto" runs the exact search iff nx*ny is at most this
_RESTARTS = 200  # default gh_bounds seeds, deterministic ones included
_LOCAL_MOVES = 80  # repair moves per gh_bounds seed
_MAX_PAIR_BUDGET = 4e8  # seeds of k pairs with k^2 above this run no moves
_PARALLEL_WORK = 1.6e7  # restarts * (nx+ny)^2 from which restarts run in worker processes


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A full relation between two index sets, stored as a tuple of (i, j) pairs."""

    pairs: tuple

    def arrays(self):
        p = np.asarray(self.pairs, dtype=int).reshape(-1, 2)
        return p[:, 0], p[:, 1]

    def check_full(self, nx: int, ny: int) -> None:
        I, J = self.arrays()
        for side, covered, total in (("X", I, nx), ("Y", J, ny)):
            outside = covered[(covered < 0) | (covered >= total)]
            if len(outside):
                raise DomainError(f"correspondence index {outside[0]} outside "
                                  f"0..{total - 1} of {side}")
            missing = np.setdiff1d(np.arange(total), covered)
            if len(missing):
                raise DomainError(f"correspondence does not cover {side} index {missing[0]}")


@dataclass(frozen=True, eq=False)
class GhResult:
    """Bounds (and optionally the exact value) of a GH distance."""

    lower: float
    upper: float
    exact: float | None = None
    witness: Correspondence | None = None

    def __post_init__(self):
        value = self.upper if self.exact is None else self.exact
        if not (self.lower - 1e-12 <= value <= self.upper + 1e-12):
            raise DomainError(f"inconsistent GhResult: lower {self.lower}, "
                              f"exact {self.exact}, upper {self.upper}")

    def to_json(self) -> dict:
        obj = {"lower": self.lower, "upper": self.upper, "exact": self.exact}
        if self.witness is not None:
            obj["witness"] = [list(p) for p in self.witness.pairs]
        return obj


def _pair_distortion(DX, DY, I, J) -> float:
    """max over pair-pairs of |DX[i,i'] - DY[j,j']|, 1024 rows at a time."""
    k = len(I)
    worst = 0.0
    for lo in range(0, k, 1024):
        hi = min(lo + 1024, k)
        a = DX[I[lo:hi]][:, I]
        b = DY[J[lo:hi]][:, J]
        worst = max(worst, float(np.abs(a - b).max()))
    return worst


def distortion_of_correspondence(X: FiniteMetricSpace, Y: FiniteMetricSpace,
                                 R: Correspondence) -> float:
    """Worst additive mismatch of paired distances; R must cover both sides."""
    R.check_full(X.n, Y.n)
    I, J = R.arrays()
    return _pair_distortion(X.dist, Y.dist, I, J)


def map_distortion(f, X: FiniteMetricSpace, Y: FiniteMetricSpace):
    """(additive metric distortion of f, surjectivity defect of its image)."""
    f = np.asarray(f, dtype=int)
    if f.shape != (X.n,):
        raise DomainError(f"map must assign every one of {X.n} domain points")
    if X.n and (f.min() < 0 or f.max() >= Y.n):
        bad = int(f[(f < 0) | (f >= Y.n)][0])
        raise DomainError(f"image index {bad} out of range for {Y.n} codomain points")
    dist = float(np.abs(X.dist - Y.dist[f][:, f]).max()) if X.n else 0.0
    defect = float(Y.dist[f, :].min(axis=0).max()) if X.n else 0.0
    return dist, defect


def correspondence_from_map(f, X: FiniteMetricSpace, Y: FiniteMetricSpace) -> Correspondence:
    """graph(f) completed with a nearest-preimage pair for every Y point."""
    f = np.asarray(f, dtype=int)
    pairs = {(int(x), int(f[x])) for x in range(X.n)}
    near = np.argmin(Y.dist[f, :], axis=0)  # for each y, the x whose image is closest
    pairs.update((int(near[y]), int(y)) for y in range(Y.n))
    return Correspondence(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------

def _directed_value_gap(a: np.ndarray, b: np.ndarray) -> float:
    """sup over values of a of the distance to the nearest value of b; both sorted."""
    pos = np.searchsorted(b, a)
    left = np.where(pos > 0, a - b[np.maximum(pos - 1, 0)], np.inf)
    right = np.where(pos < len(b), b[np.minimum(pos, len(b) - 1)] - a, np.inf)
    return float(np.minimum(left, right).max())


def _values_with_zero(D) -> np.ndarray:
    return np.unique(np.concatenate(([0.0], D[np.triu_indices(D.shape[0], 1)])))


def _value_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two sorted value sets."""
    return max(_directed_value_gap(a, b), _directed_value_gap(b, a))


def _value_set_mismatch(DX, DY) -> float:
    """Hausdorff mismatch of realized distance values (0 included on both sides).

    Any full correspondence of distortion D matches every realized X-distance
    to a realized Y-distance (possibly 0, when two points share a partner)
    within D, and symmetrically; so half of this mismatch bounds d_GH below.
    """
    return _value_gap(_values_with_zero(DX), _values_with_zero(DY))


def _lower_bound(X: FiniteMetricSpace, Y: FiniteMetricSpace, base_pair=None) -> float:
    """Certified lower bound; both solvers call it first, so it refuses a base
    pair outside either space."""
    lb = _value_set_mismatch(X.dist, Y.dist) / 2.0  # covers the diameter gap
    if base_pair is not None:
        b1, b2 = base_pair
        for side, b, n in (("X", b1, X.n), ("Y", b2, Y.n)):
            if not isinstance(b, (int, np.integer)):
                raise DomainError(f"base index {b!r} of {side} is not an integer")
            if not 0 <= b < n:
                raise DomainError(f"base index {b} outside 0..{n - 1} of {side}")
        lb = max(lb, _value_gap(np.unique(X.dist[b1]), np.unique(Y.dist[b2])) / 2.0)
    return lb


def _check_nonnegative(**counts) -> None:
    for name, value in counts.items():
        if value < 0:
            raise DomainError(f"{name} {value} is negative")


# ---------------------------------------------------------------------------
# Upper bound: seeded maps + local search on the worst-pair repair move
# ---------------------------------------------------------------------------

def _eccentricity_order(D):
    ecc = D.max(axis=1)
    return np.lexsort((np.arange(len(ecc)), -ecc))


def _signed_coordinate(D, base: int) -> np.ndarray:
    """Distance to base, signed by which side of the farthest point one sits on.

    For interval-like spaces this recovers a monotone coordinate; for others
    it is merely a deterministic seeding feature.
    """
    far = int(np.argmax(D[base]))
    side = np.where(D[far] <= D[far, base], 1.0, -1.0)
    return side * D[base]


def _rank_match(keys_x: np.ndarray, keys_y: np.ndarray):
    """Monotone rank-proportional matching of two sorted key vectors."""
    nx, ny = len(keys_x), len(keys_y)
    ox = np.argsort(keys_x, kind="stable")
    oy = np.argsort(keys_y, kind="stable")
    f = np.empty(nx, dtype=int)
    f[ox] = oy[np.round(np.linspace(0, ny - 1, nx)).astype(int)]
    g = np.empty(ny, dtype=int)
    g[oy] = ox[np.round(np.linspace(0, nx - 1, ny)).astype(int)]
    return f, g


def _nearest_half(keys_from: np.ndarray, keys_to: np.ndarray) -> np.ndarray:
    order = np.argsort(keys_to, kind="stable")
    sorted_to = keys_to[order]
    pos = np.clip(np.searchsorted(sorted_to, keys_from), 0, len(sorted_to) - 1)
    left = np.maximum(pos - 1, 0)
    choose = np.where(np.abs(sorted_to[pos] - keys_from)
                      <= np.abs(keys_from - sorted_to[left]), pos, left)
    return order[choose]


def _value_match(keys_x: np.ndarray, keys_y: np.ndarray):
    """Nearest-value matching of two key vectors (better than rank matching
    when the keys are unevenly spaced)."""
    return _nearest_half(keys_x, keys_y), _nearest_half(keys_y, keys_x)


def _pairs_from_maps(nx, ny, f, g, base_pair):
    """Sorted distinct pairs of graph(f), of g on the Y points f misses, and the base pair."""
    missed = np.ones(ny, dtype=bool)
    missed[f] = False
    keys = [np.arange(nx) * ny + f, g[missed] * ny + np.flatnonzero(missed)]
    if base_pair is not None:
        keys.append([base_pair[0] * ny + base_pair[1]])
    keys = np.unique(np.concatenate(keys))  # key x * ny + y sorts as the pair (x, y) does
    return keys // ny, keys % ny


def _local_search(DX, DY, I, J, base_pair, moves: int):
    """Hill-climb on dis: repair an endpoint of the worst pair, strict descent.

    The k x k pair-distortion matrix M is kept across moves, so a move costs
    an O((nx+ny)*k) candidate scan plus an O(k^2) argmax over M, with no
    rebuild, in about k^2 + 2*(nx+ny)*k floats.  moves == 0 keeps nothing.
    """
    I, J = I.copy(), J.copy()
    if moves <= 0:
        return _pair_distortion(DX, DY, I, J), I, J
    k = len(I)
    GX, GY = DX.take(I, axis=1), DY.take(J, axis=1)  # column m: distances to the ends of pair m
    M = GX.take(I, axis=0)
    np.abs(np.subtract(M, GY.take(J, axis=0), out=M), out=M)
    idx = int(np.argmax(M))  # first maximum in row-major order
    cur, where = float(M.flat[idx]), divmod(idx, k)
    candJ, candI = np.empty_like(GY), np.empty_like(GX)
    for _ in range(moves):
        if cur <= 0:
            break
        for p in where:
            if base_pair is not None and (I[p], J[p]) == base_pair:
                continue
            # the unique cover of both its ends: any re-pairing uncovers a point
            if np.count_nonzero(I == I[p]) == 1 and np.count_nonzero(J == J[p]) == 1:
                continue
            # re-pair pair p on either side; zeroing its own column leaves each
            # row max unchanged (entries >= 0, and k >= 2 when cur > 0)
            np.abs(np.subtract(GX[I[p]], GY, out=candJ), out=candJ)  # replace J[p]
            np.abs(np.subtract(GX, GY[J[p]], out=candI), out=candI)  # replace I[p]
            candJ[:, p] = candI[:, p] = 0.0
            rowJ, rowI = candJ.max(axis=1), candI.max(axis=1)
            jbest, ibest = int(np.argmin(rowJ)), int(np.argmin(rowI))
            if rowJ[jbest] <= rowI[ibest] and rowJ[jbest] < cur:
                trial, new_row = (I[p], jbest), candJ[jbest]
            elif rowI[ibest] < cur:
                trial, new_row = (ibest, J[p]), candI[ibest]
            else:
                continue
            oldI, oldJ = I[p], J[p]
            I[p], J[p] = trial
            # the replaced pair may have been the unique cover of its endpoints
            if oldI not in I or oldJ not in J:
                I[p], J[p] = oldI, oldJ
                continue
            old_row, old_col = M[p].copy(), M[:, p].copy()
            M[p] = new_row
            M[:, p] = np.abs(DX[I, I[p]] - DY[J, J[p]])
            idx = int(np.argmax(M))
            if M.flat[idx] < cur - 1e-15:
                cur, where = float(M.flat[idx]), divmod(idx, k)
                GX[:, p], GY[:, p] = DX[:, I[p]], DY[:, J[p]]
                break
            M[p], M[:, p] = old_row, old_col
            I[p], J[p] = oldI, oldJ
        else:  # neither endpoint of the worst pair could be improved
            break
    return cur, I, J


def _polish(DX, DY, I, J, base_pair):
    """(dis, I, J) of one gh_bounds seed: _local_search, with no moves above _MAX_PAIR_BUDGET."""
    moves = _LOCAL_MOVES if len(I) ** 2 <= _MAX_PAIR_BUDGET else 0
    return _local_search(DX, DY, I, J, base_pair, moves)


def _restart_seeds(DX, DY, maps, base_pair):
    """(dis, I, J) of each random restart map (f, g), lazily and in order."""
    for f, g in maps:
        yield _polish(DX, DY, *_pairs_from_maps(len(DX), len(DY), f, g, base_pair), base_pair)


_worker_spaces = None  # (DX, DY, base_pair), set only inside a restart worker


def _start_restart_worker(DX, DY, base_pair):
    global _worker_spaces
    _worker_spaces = DX, DY, base_pair


def _restart_chunk(maps):
    """_restart_seeds of one chunk in a restart worker, with I and J None
    unless dis is a strict running minimum of the chunk: a chunk is a
    subsequence in seed order, so only those seeds can win the fold."""
    DX, DY, base_pair = _worker_spaces
    out, low = [], np.inf
    for dis, I, J in _restart_seeds(DX, DY, maps, base_pair):
        out.append((dis, I, J) if dis < low else (dis, None, None))
        low = min(low, dis)
    return out


def _restart_workers(restarts: int, points: int) -> int:
    """Worker processes for the random restarts, 1 meaning none: one per
    usable CPU when there are at least two, the "fork" start method exists
    and the restart work restarts * points^2 (points = nx + ny) reaches
    _PARALLEL_WORK.  That is where two workers save about 4x their start-up,
    as measured on a 2-core machine: the pool of a 100 MB process started in
    about 30 ms, and a unit of work cost about 1.5e-8 s serially."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, restarts)
    if workers < 2 or restarts * points ** 2 < _PARALLEL_WORK:
        return 1
    import multiprocessing  # loads on first use, not at import

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):  # a daemon may not have children
        return 1
    return workers


def _restart_results(DX, DY, maps, base_pair):
    """(dis, I, J) of each random restart map, in seed order: lazily in this
    process, or from one strided chunk per worker (_restart_chunk) in forked
    processes that have all exited before the first result is yielded.
    Forked, not spawned: a spawned worker would import numpy and the lab
    again on every call, and the workers run only numpy and pickling, no
    lock that another thread of this process could hold."""
    workers = _restart_workers(len(maps), len(DX) + len(DY))
    if workers == 1:
        yield from _restart_seeds(DX, DY, maps, base_pair)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_restart_worker,
                             initargs=(DX, DY, base_pair)) as pool:
        chunks = list(pool.map(_restart_chunk, [maps[w::workers] for w in range(workers)]))
    for r in range(len(maps)):
        yield chunks[r % workers][r // workers]


def gh_bounds(X: FiniteMetricSpace, Y: FiniteMetricSpace, *,
              seed: int = 0, restarts: int = _RESTARTS,
              extra_seeds=(), base_pair=None) -> GhResult:
    """Certified lower bound and local-search upper bound; exact always absent.

    The lower bound is half the Hausdorff mismatch of realized distance
    values (which covers the diameter gap).  The upper bound is half
    the distortion of the best full correspondence found from deterministic
    seeds (extra_seeds, each a Correspondence or a skipped None, then identity
    when sizes agree, eccentricity-rank and signed-coordinate matchings) plus
    seeded random restarts, each polished by a worst-pair repair search.
    Seeds are folded in that order, keeping the first strict minimum and
    stopping once the upper meets the lower bound.  The restarts run in
    forked worker processes, one strided chunk per usable CPU, when the
    process may use more than one CPU and their work restarts * (nx+ny)^2
    reaches _PARALLEL_WORK; the fold is the same, so the result never
    depends on the CPU count.
    Fixed seed, deterministic output.  An extra seed must cover both sides
    once the base pair is added, and restarts must not be negative;
    otherwise DomainError.
    A repair move on a seed of k pairs costs an O((nx+ny)*k) candidate scan
    plus an O(k^2) argmax over the kept matrix (about k^2 + 2*(nx+ny)*k
    floats); seeds with k^2 > _MAX_PAIR_BUDGET are only evaluated, in chunks.
    """
    if X.n == 0 or Y.n == 0:
        raise DomainError("GH bounds of an empty space")
    _check_nonnegative(restarts=restarts)
    DX, DY = X.dist, Y.dist
    nx, ny = X.n, Y.n
    lower = _lower_bound(X, Y, base_pair)

    seeds = []
    if nx == ny and (base_pair is None or base_pair[0] == base_pair[1]):
        ident = np.arange(nx)
        seeds.append((ident, ident))
    eccx, eccy = DX.max(axis=1), DY.max(axis=1)
    seeds.append(_rank_match(eccx, eccy))
    seeds.append(_value_match(eccx, eccy))
    if base_pair is not None:
        sx = _signed_coordinate(DX, base_pair[0])
        sy = _signed_coordinate(DY, base_pair[1])
        seeds.append(_rank_match(sx, sy))
        seeds.append(_value_match(sx, sy))
        seeds.append(_rank_match(DX[base_pair[0]], DY[base_pair[1]]))
        seeds.append(_value_match(DX[base_pair[0]], DY[base_pair[1]]))

    rng = np.random.default_rng(seed)
    maps = []
    if nx + ny <= 2000:  # random restarts only pay off at small sizes
        maps = [(rng.integers(0, ny, size=nx), rng.integers(0, nx, size=ny))
                for _ in range(max(0, restarts - len(seeds)))]

    given = []
    for item in extra_seeds:
        if item is None:
            continue
        if not isinstance(item, Correspondence):
            raise DomainError(f"a {type(item).__name__} seed is not a Correspondence or None")
        if base_pair is not None and tuple(base_pair) not in item.pairs:
            item = Correspondence(tuple(item.pairs) + (tuple(base_pair),))
        item.check_full(nx, ny)
        given.append(item.arrays())

    fixed = itertools.chain(given, (_pairs_from_maps(nx, ny, f, g, base_pair)
                                    for f, g in seeds))
    best = (np.inf, None, None)
    for dis, I, J in itertools.chain((_polish(DX, DY, I, J, base_pair) for I, J in fixed),
                                     _restart_results(DX, DY, maps, base_pair)):
        if dis < best[0]:
            best = (dis, I, J)
        if best[0] / 2.0 <= lower + 1e-15:
            break

    dis, I, J = best
    witness = Correspondence(tuple(zip(I.tolist(), J.tolist())))
    upper = dis / 2.0
    return GhResult(lower=lower, upper=upper, exact=None, witness=witness)


# ---------------------------------------------------------------------------
# Exact search
# ---------------------------------------------------------------------------

def gh_exact_small(X: FiniteMetricSpace, Y: FiniteMetricSpace, *,
                   budget: int = EXACT_BUDGET, base_pair=None,
                   seed: int = 0) -> GhResult:
    """Branch-and-bound exact GH distance; exact absent if the budget runs out.

    Slots are the X points (choose an image) followed by the uncovered Y
    points (choose a preimage), both in decreasing-eccentricity order with
    lower-index tie break.  One nx x ny matrix L holds each pair's worst
    mismatch against the pairs fixed so far, so a slot's candidate costs are
    a row or a column of L and fixing a pair is one elementwise maximum.
    Fixing (x, y) raises L to at least P[x, y] = |DX[:, x, None] -
    DY[None, :, y]|.  The table P of all (nx*ny)^2 entries is built once per
    call, after the identity check, when nx*ny is at most _EXACT_AUTO_PAIRS
    (1.28 MB there); above that each entry is computed when needed, with the
    same floats.  Candidates run in cost order (numpy's stable argsort on X
    slots, Python's stable sort on the at most nx candidates of a Y slot, so
    ties go to the lower index either way) until the cost reaches the
    incumbent.  On X slots a forward check also skips a candidate when some
    point's cheapest partner in the child's L already reaches it (max over
    rows of the row minimum, likewise columns), as no completion below can
    do better.  Each level holds O(nx*ny) floats; the budget counts slots
    entered.  The first incumbent is the identity when sizes agree and the
    bases coincide (or the pair is unpointed), otherwise the leaf of the
    first descent, a greedy dive on L.  The search stops as soon as an
    incumbent meets the lower bound; only when the budget runs out does
    gh_bounds run at its defaults, and the better witness (the only one if
    no leaf was reached) is kept.  The result is exact whenever the search
    finished or its upper meets the lower bound.  A negative budget raises
    DomainError.
    """
    if X.n == 0 or Y.n == 0:
        raise DomainError("GH distance of an empty space")
    _check_nonnegative(budget=budget)
    DX, DY = X.dist, Y.dist
    nx, ny = X.n, Y.n

    lower = _lower_bound(X, Y, base_pair)
    best_dis, bestI, bestJ = np.inf, None, None
    if nx == ny and (base_pair is None or base_pair[0] == base_pair[1]):
        bestI = bestJ = list(range(nx))  # the identity, as in gh_bounds' seeds
        best_dis = float(np.abs(DX - DY).max())

    xs = _eccentricity_order(DX).tolist()
    ys_order = _eccentricity_order(DY).tolist()

    nodes = 0
    exhausted = False
    closed = best_dis / 2.0 <= lower + 1e-15  # nothing left to find
    I_buf = [0] * (nx + ny + 1)
    J_buf = [0] * (nx + ny + 1)
    # colX[x] is DX[:, x] as a column, rowY[y] is DY[:, y] as a row (views):
    # fixing the pair (x, y) raises L to at least P[x, y] = |colX[x] - rowY[y]|
    colX, rowY = DX.T[:, :, None], DY.T[:, None, :]
    if closed or nx * ny > _EXACT_AUTO_PAIRS:  # no search, or too large a table
        def pairs(index):
            """P[x, ys] for index = (x, ys), computed when there is no table."""
            x, ys = index
            return np.abs(colX[x] - rowY[ys])
    else:  # the table P, (nx*ny)^2 floats
        pairs = np.abs(colX[:, None] - rowY[None]).__getitem__

    def dfs(slot: int, k: int, cur: float, L, rest):
        nonlocal best_dis, bestI, bestJ, nodes, exhausted, closed
        if slot == nx:  # every X point has an image; cover the remaining Y
            covered = set(J_buf[:k])
            rest = [y for y in ys_order if y not in covered]
        on_x = slot < nx
        if not on_x and slot - nx == len(rest):
            if cur < best_dis:
                best_dis = cur
                bestI, bestJ = I_buf[:k], J_buf[:k]
                closed = best_dis / 2.0 <= lower + 1e-15
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if on_x:
            x = xs[slot]
            cost = L[x]
            order = cost.argsort(kind="stable")
            costs = cost[order]
            # forward check: the child L of every live candidate at once,
            # shape (candidates, nx, ny), freed before recursing; indexing
            # the table with the array live copies, so T may be overwritten
            live = order[:costs.searchsorted(best_dis)]
            T = pairs((x, live))
            np.maximum(T, L, out=T)
            bound = np.maximum(T.min(axis=2).max(axis=1), T.min(axis=1).max(axis=1))
            del T
            order, costs, bound = order.tolist(), costs.tolist(), bound.tolist()
        else:
            y = rest[slot - nx]
            col = L[:, y].tolist()
            order = sorted(range(nx), key=col.__getitem__)
            costs = map(col.__getitem__, order)
            bound = itertools.repeat(-np.inf)
        for c, cc, b in zip(order, costs, bound):
            d = cc if cc > cur else cur
            if d >= best_dis:
                break  # candidates sorted: the rest only get worse
            if b >= best_dis:
                continue
            pair = (x, c) if on_x else (c, y)
            I_buf[k], J_buf[k] = pair
            dfs(slot + 1, k + 1, d, np.maximum(pairs(pair), L), rest)
            if exhausted or closed:
                return

    if not closed:  # else the identity already meets the lower bound
        if base_pair is None:
            dfs(0, 0, 0.0, np.zeros((nx, ny)), None)
        else:
            b1, b2 = int(base_pair[0]), int(base_pair[1])
            I_buf[0], J_buf[0] = b1, b2
            dfs(0, 1, float(np.abs(DX[b1, b1] - DY[b2, b2])), pairs((b1, b2)), None)

    witness = None if bestI is None else Correspondence(tuple(zip(bestI, bestJ)))
    if exhausted:  # gh_bounds' upper is its witness's distortion halved: doubling is exact
        full = gh_bounds(X, Y, seed=seed, base_pair=base_pair)
        if 2.0 * full.upper < best_dis:
            best_dis, witness = 2.0 * full.upper, full.witness
    value = best_dis / 2.0
    closed = not exhausted or value <= lower + 1e-15
    return GhResult(lower=lower, upper=value, exact=value if closed else None,
                    witness=witness)


def gh_distance(X: FiniteMetricSpace, Y: FiniteMetricSpace, *, method: str = "auto",
                base_pair=None, seed: int = 0, budget: int = EXACT_BUDGET,
                restarts: int = _RESTARTS, extra_seeds=()) -> GhResult:
    """GH bounds of X and Y, pointed when base_pair = (bx, by) is given, from the
    solver that method names: "exact" is gh_exact_small (seed, budget),
    "bounds" is gh_bounds (seed, restarts, extra_seeds), and "auto" is the
    exact search iff nx*ny <= _EXACT_AUTO_PAIRS.  Others raise DomainError,
    as does a negative budget or restart count."""
    if method not in ("auto", "exact", "bounds"):
        raise DomainError(f"unknown GH method {method!r}")
    _check_nonnegative(budget=budget, restarts=restarts)
    if method == "exact" or (method == "auto" and X.n * Y.n <= _EXACT_AUTO_PAIRS):
        return gh_exact_small(X, Y, budget=budget, base_pair=base_pair, seed=seed)
    return gh_bounds(X, Y, seed=seed, restarts=restarts, extra_seeds=extra_seeds,
                     base_pair=base_pair)


def pointed_gh_bounds(W1: PointedWindow, W2: PointedWindow, **options) -> GhResult:
    """gh_distance of the windows' spaces with base matched to base; windows of
    unequal rescaled radii are compared anyway, with a warning: pointed
    convergence tolerates radius slack."""
    if abs(W1.radius - W2.radius) > 1e-12:
        warnings.warn(
            f"pointed windows have different radii ({W1.radius} vs {W2.radius}); "
            "comparing anyway", stacklevel=2)
    return gh_distance(W1.space, W2.space, base_pair=(W1.base, W2.base), **options)
