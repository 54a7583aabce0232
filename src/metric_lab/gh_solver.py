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
# seeds of k pairs with k^2 above this run no moves: a search reads all k^2
# pair-pairs before its first move, though it keeps only O((nx+ny)*k) floats
_MAX_PAIR_BUDGET = 4e8
_PARALLEL_WORK = 1.6e7  # restarts * (nx+ny)^2 from which restarts run in worker processes
_DISTORTION_ENTRIES = 2 ** 16  # entries per block of _pair_distortion and _local_search


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
    """max over pair-pairs of |DX[i,i'] - DY[j,j']|, in blocks of rows of at
    most _DISTORTION_ENTRIES entries per temporary."""
    k = len(I)
    rows = max(_DISTORTION_ENTRIES // max(k, 1), 1)
    worst = 0.0
    for lo in range(0, k, rows):
        a = DX[I[lo:lo + rows]][:, I]
        a -= DY[J[lo:lo + rows]][:, J]
        worst = max(worst, float(np.abs(a, out=a).max()))
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

    Row a of the pair-distortion matrix is |GX[I[a]] - GY[J[a]]|, column m of
    GX and GY holding the distances to the ends of pair m.  No k x k matrix
    is kept, only top[a], the maximum of row a, and arg[a], the first column
    where it occurs, so the worst pair (the first maximum in row-major order)
    is (a, arg[a]) for the first a with the largest top.  Rows and candidate
    scans are read in blocks of at most _DISTORTION_ENTRIES entries of one
    buffer.  Re-pairing pair p changes only row and column p, so a trial is
    dropped in O(k), before its scan, when a row it leaves alone reaches
    cur; otherwise it costs an O((nx+ny)*k) candidate scan, O(k)
    bookkeeping and O(k) per re-read row (row p and the rows whose maximum
    was in column p), in about (nx+ny)*k floats.  moves == 0 keeps nothing.
    """
    I, J = I.copy(), J.copy()
    if moves <= 0:
        return _pair_distortion(DX, DY, I, J), I, J
    k = len(I)
    GX, GY = DX.take(I, axis=1), DY.take(J, axis=1)  # column m: distances to the ends of pair m
    block = max(_DISTORTION_ENTRIES // k, 1)  # rows per block
    buf = np.empty(min(block, max(k, len(DX), len(DY))) * k)
    top, arg = np.empty(k), np.empty(k, dtype=np.intp)

    def read_rows(rows):
        """Set top and arg of the given rows."""
        for lo in range(0, len(rows), block):
            r = rows[lo:lo + block]
            blk = buf[:len(r) * k].reshape(len(r), k)
            np.take(GX, I[r], axis=0, out=blk, mode="clip")
            blk -= GY.take(J[r], axis=0)
            np.abs(blk, out=blk)
            arg[r] = blk.argmax(axis=1)
            top[r] = blk[np.arange(len(r)), arg[r]]

    def best_row(G, v, p):
        """First g minimising the max over columns m != p of |v[m] - G[g, m]|, and that max."""
        n = len(G)
        worst = np.empty(n)
        for lo in range(0, n, block):
            blk = buf[:min(block, n - lo) * k].reshape(-1, k)
            np.abs(np.subtract(v, G[lo:lo + block], out=blk), out=blk)
            # zeroing pair p's own column leaves each row max over the other
            # columns unchanged (entries >= 0, and k >= 2 when cur > 0)
            blk[:, p] = 0.0
            blk.max(axis=1, out=worst[lo:lo + len(blk)])
        g = int(np.argmin(worst))
        return g, worst[g]

    read_rows(np.arange(k))
    a = int(np.argmax(top))  # first maximum of the matrix in row-major order
    cur, where = float(top[a]), (a, int(arg[a]))
    for _ in range(moves):
        if cur <= 0:
            break
        for p in where:
            if base_pair is not None and (I[p], J[p]) == base_pair:
                continue
            # the unique cover of both its ends: any re-pairing uncovers a point
            if np.count_nonzero(I == I[p]) == 1 and np.count_nonzero(J == J[p]) == 1:
                continue
            # a move changes only row and column p: a row whose maximum lies
            # elsewhere and reaches cur - 1e-15 keeps any move from descending
            held = (top >= cur - 1e-15) & (arg != p)
            held[p] = False
            if held.any():
                continue
            jbest, vJ = best_row(GY, GX[I[p]], p)  # replace J[p]
            ibest, vI = best_row(GX, GY[J[p]], p)  # replace I[p]
            if vJ <= vI and vJ < cur:
                trial = (I[p], jbest)
            elif vI < cur:
                trial = (ibest, J[p])
            else:
                continue
            oldI, oldJ = I[p], J[p]
            I[p], J[p] = trial
            # the replaced pair may have been the unique cover of its endpoints
            if oldI not in I or oldJ not in J:
                I[p], J[p] = oldI, oldJ
                continue
            old_top, old_arg = top.copy(), arg.copy()
            GX[:, p], GY[:, p] = DX[:, I[p]], DY[:, J[p]]
            col = np.abs(GX[I, p] - GY[J, p])  # the new column p
            rise = col > top
            top[rise], arg[rise] = col[rise], p
            arg[(col == top) & (arg > p)] = p  # p is now the first column reaching top
            stale = (arg == p) & (col < top)  # the maximum was in column p and fell
            stale[p] = True
            read_rows(np.flatnonzero(stale))
            a = int(np.argmax(top))
            if top[a] < cur - 1e-15:
                cur, where = float(top[a]), (a, int(arg[a]))
                break
            top[:], arg[:] = old_top, old_arg
            GX[:, p], GY[:, p] = DX[:, oldI], DY[:, oldJ]
            I[p], J[p] = oldI, oldJ
        else:  # neither endpoint of the worst pair could be improved
            break
    return cur, I, J


def _cannot_beat(DX, DY, I, J, moves: int, bound: float) -> bool:
    """True when _local_search(DX, DY, I, J, _, moves) is sure to end at dis >= bound.

    The pairs (a, a + h) for a < h = k // 2 share no index.  An accepted
    move re-pairs exactly one index, and at most moves are accepted, so at
    most moves indices change and each breaks at most one of these pairs.
    When more than moves of them have |DX[I[a], I[a+h]] - DY[J[a], J[a+h]]|
    >= bound, one keeps both ends, and the search's final dis, the maximum
    over all such entries with the same float expression, is >= bound.
    With moves == 0 one such pair suffices.  O(k).
    """
    h = len(I) // 2
    if h <= moves:  # too few pairs to certify anything
        return False
    entries = np.abs(DX[I[:h], I[h:2 * h]] - DY[J[:h], J[h:2 * h]])
    return np.count_nonzero(entries >= bound) > moves


def _polish(DX, DY, I, J, base_pair, bound=np.inf):
    """(dis, I, J) of one gh_bounds seed: _local_search, with no moves above
    _MAX_PAIR_BUDGET; (inf, None, None), without a search, when _cannot_beat
    shows that its dis would be at least bound."""
    moves = _LOCAL_MOVES if len(I) ** 2 <= _MAX_PAIR_BUDGET else 0
    if _cannot_beat(DX, DY, I, J, moves, bound):
        return np.inf, None, None
    return _local_search(DX, DY, I, J, base_pair, moves)


def _random_maps(nx: int, ny: int, count: int, seed: int):
    """count random restart maps (f, g), drawn from default_rng(seed) one at a
    time; numpy.random is imported at the first draw."""
    if count:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield rng.integers(0, ny, size=nx), rng.integers(0, nx, size=ny)


def _restart_seeds(DX, DY, maps, base_pair, low):
    """(dis, I, J) of each random restart map (f, g), lazily and in order,
    with I and J None unless dis is below low and every earlier dis: only
    those seeds can win a fold whose best is at most low.  A restart whose
    start has more than `moves` disjoint pairs (a, a + k//2) with an entry
    at or above that running minimum is (inf, None, None), unsearched
    (_cannot_beat): its search re-pairs at most `moves` indices, so one of
    those pairs keeps both ends, and its dis would not be below it."""
    for f, g in maps:
        I, J = _pairs_from_maps(len(DX), len(DY), f, g, base_pair)
        dis, I, J = _polish(DX, DY, I, J, base_pair, low)
        yield (dis, I, J) if dis < low else (dis, None, None)
        low = min(low, dis)


_worker_spaces = None  # (DX, DY, base_pair, low), set only inside a restart worker


def _start_restart_worker(DX, DY, base_pair, low):
    global _worker_spaces
    _worker_spaces = DX, DY, base_pair, low


def _restart_chunk(maps):
    """_restart_seeds of one chunk in a restart worker, from the fold's best
    after the fixed seeds: a chunk is a subsequence in seed order, so a seed
    at or above its running minimum cannot be a strict running minimum of
    the whole fold."""
    DX, DY, base_pair, low = _worker_spaces
    return list(_restart_seeds(DX, DY, maps, base_pair, low))


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


def _restart_results(DX, DY, count, seed, base_pair, low):
    """(dis, I, J) of each of count random restarts (_random_maps), in seed
    order, I and J None where dis cannot win a fold whose best after the
    fixed seeds is low: lazily in this process, or from one strided chunk
    per worker (_restart_chunk) in forked processes that have all exited
    before the first result is yielded; only then is the list of maps drawn.
    Forked, not spawned: a spawned worker would import numpy and the lab
    again on every call, and the workers run only numpy and pickling, no
    lock that another thread of this process could hold."""
    maps = _random_maps(len(DX), len(DY), count, seed)
    workers = _restart_workers(count, len(DX) + len(DY))
    if workers == 1:
        yield from _restart_seeds(DX, DY, maps, base_pair, low)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    maps = list(maps)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_restart_worker,
                             initargs=(DX, DY, base_pair, low)) as pool:
        chunks = list(pool.map(_restart_chunk, [maps[w::workers] for w in range(workers)]))
    for r in range(count):
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
    stopping once the upper meets the lower bound.  The restart maps are
    drawn from default_rng(seed) only once the fold reaches them, so a call
    that stops before its restarts draws none.  A restart is searched only if _cannot_beat
    leaves it a chance against the running best: more than `moves` disjoint
    pairs (a, a + k//2) of its start whose entry reaches the best, `moves`
    being its search's move limit, keep its final distortion at or above
    the best, since each accepted move re-pairs one index and so breaks at
    most one of them.  Such a restart could not be a strict minimum, so the
    fold, and with it lower, upper and witness, is the same as with every
    restart searched.  The restarts run in
    forked worker processes, one strided chunk per usable CPU, when the
    process may use more than one CPU and their work restarts * (nx+ny)^2
    reaches _PARALLEL_WORK; each worker certifies against the best after
    the fixed seeds, lowered by its own chunk's running minimum, and the
    fold is the same, so the result never depends on the CPU count.
    Fixed seed, deterministic output.  An extra seed must cover both sides
    once the base pair is added, and restarts must not be negative;
    otherwise DomainError.
    A repair move on a seed of k pairs costs an O((nx+ny)*k) candidate scan
    plus O(k) per pair-distortion row it re-reads, in about (nx+ny)*k floats
    (no k x k matrix); seeds with k^2 > _MAX_PAIR_BUDGET are only evaluated,
    in chunks.
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

    # random restarts only pay off at small sizes
    count = max(0, restarts - len(seeds)) if nx + ny <= 2000 else 0

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

    def fold(results) -> bool:
        """Keep the first strict minimum of results; True once it meets lower."""
        nonlocal best
        for dis, I, J in results:
            if dis < best[0]:
                best = (dis, I, J)
            if best[0] / 2.0 <= lower + 1e-15:
                return True
        return False

    if not fold(_polish(DX, DY, I, J, base_pair) for I, J in fixed):
        fold(_restart_results(DX, DY, count, seed, base_pair, best[0]))

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
