"""Grid-graph machinery behind the intrinsic-metric generators.

Spaces that the lab cannot write down in closed form are realized as
4-neighbor grid graphs with step h and measured with shortest paths; the
graph metric overestimates Euclidean lengths by up to a factor sqrt(2), a
slack every desk-scale tolerance in the test suite quotes.  A grid graph is
its node keys, its undirected edges and the one length h of every edge; an
edge given twice counts once.  Every distance request is one scipy Dijkstra
call, optionally bounded by a distance limit.  With one edge length, a path
of k edges sums to the same float in either direction, so distance matrices
are exactly symmetric; on a dyadic mesh every sum is exact, and
GridGraph.is_hop_metric certifies a whole graph's matrix in O(n E) instead of
the O(n^3) triangle scan.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .metric_core import TOL, FiniteMetricSpace

_CERTIFY_ROWS = 64  # source rows per block of GridGraph.is_hop_metric


class GridGraph:
    """Immutable graph on hashable node keys whose every edge has length h;
    every generator's key begins with the node's planar position."""

    def __init__(self, keys, edges, h: float):
        from scipy.sparse import csr_matrix  # scipy loads on first use, not at import

        self.keys = tuple(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        if len(self.index) != len(self.keys):
            raise DomainError("duplicate node keys in grid graph")
        self.h = float(h)
        n = len(self.keys)
        pairs = {(u, v) if u < v else (v, u) for u, v in edges}  # csr would sum duplicates
        uv = np.array(list(pairs), dtype=int).reshape(-1, 2)
        self.adjacency = csr_matrix((np.full(len(uv), self.h), (uv[:, 0], uv[:, 1])),
                                    shape=(n, n))

    @property
    def n(self) -> int:
        return len(self.keys)

    def distances_from(self, sources, limit: float = np.inf) -> np.ndarray:
        """Shortest-path rows for the given source node ids, one scipy
        Dijkstra pass over the undirected adjacency; nodes farther than
        limit read inf."""
        from scipy.sparse.csgraph import dijkstra

        sources = np.atleast_1d(np.asarray(sources, dtype=int))
        return dijkstra(self.adjacency, directed=False, indices=sources, limit=limit)

    def distance(self, u: int, v: int) -> float:
        return float(self.distances_from([u])[0, v])

    def space_on(self, node_ids, limit: float = np.inf) -> FiniteMetricSpace:
        """Metric subspace on the given nodes; paths run through the full
        graph, searched up to limit, which must cover every pair."""
        node_ids = np.asarray(node_ids, dtype=int)
        d = self.distances_from(node_ids, limit)[:, node_ids]
        if d.size and not np.all(np.isfinite(d)):
            raise DomainError(f"requested nodes are not mutually connected within {limit}")
        return FiniteMetricSpace(d, tuple(self.keys[i] for i in node_ids))

    def space(self) -> FiniteMetricSpace:
        return self.space_on(np.arange(self.n))

    def is_hop_metric(self, dist) -> bool:
        """Whether the n x n matrix dist is exactly h times this graph's
        hop-count metric, which makes it a metric that validate_metric accepts.

        Checked on the matrix itself, in blocks of _CERTIFY_ROWS source rows,
        with H = rint(dist / h): H * h == dist bit for bit; exact symmetry,
        H >= 0 and a zero diagonal; |H[i,u] - H[i,v]| <= 1 on every edge
        (u, v), so H is at most the hop distance; every off-diagonal H[i,j]
        has a neighbour k of j with H[i,k] = H[i,j] - 1, so H is at least it.
        The integer triangle inequality then holds in floats too, because
        h > TOL and 4 eps max(dist) <= TOL bound every rounding of a sum.
        """
        d = np.asarray(dist, dtype=float)
        n, h = self.n, self.h
        if d.shape != (n, n) or not h > TOL:
            return False
        if n and not 4 * np.finfo(float).eps * float(d.max()) <= TOL:
            return False
        # neighbour table, each row padded with the node itself (a zero step)
        both = (self.adjacency + self.adjacency.T).tocsr()
        degree = np.diff(both.indptr)
        nbr = np.repeat(np.arange(n), degree.max(initial=0) + 1).reshape(n, -1)
        nbr[np.repeat(np.arange(n), degree),
            np.arange(both.nnz) - np.repeat(both.indptr[:-1], degree)] = both.indices
        for lo in range(0, n, _CERTIFY_ROWS):
            rows = d[lo:lo + _CERTIFY_ROWS]
            own = (np.arange(len(rows)), np.arange(lo, lo + len(rows)))
            H = np.rint(rows / h)
            exact = np.array_equal(H * h, rows) and np.array_equal(rows, d[:, lo:lo + len(rows)].T)
            if not (exact and H.min() >= 0 and not H[own].any()):
                return False
            down = np.zeros(H.shape, dtype=bool)
            down[own] = True
            for k in nbr.T:  # one neighbour slot at a time: H[i,j] - H[i,k] per node j
                step = H - H[:, k]
                if np.abs(step).max() > 1:
                    return False
                down |= step == 1
            if not down.all():
                return False
        return True


class GraphBuilder:
    """Accumulates node keys and edges of length h, then freezes a GridGraph."""

    def __init__(self, h: float):
        self.h = h
        self._index: dict = {}
        self._edges: list = []

    def node(self, key) -> int:
        return self._index.setdefault(key, len(self._index))

    def edge(self, u: int, v: int) -> None:
        self._edges.append((u, v))

    def build(self) -> GridGraph:
        return GridGraph(self._index, self._edges, self.h)  # keys in insertion (index) order
