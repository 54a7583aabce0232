"""Grid-graph machinery behind the intrinsic-metric generators.

Spaces that the lab cannot write down in closed form are realized as
4-neighbor grid graphs with step h and measured with shortest paths; the
graph metric overestimates Euclidean lengths by up to a factor sqrt(2), a
slack every desk-scale tolerance in the test suite quotes.  A grid graph is
its node keys, its undirected edges and the one length h of every edge; an
edge given twice counts once.  Every distance request is one scipy Dijkstra
call, optionally bounded by a distance limit.  With one edge length, a path
of k edges sums to the same float in either direction, so distance matrices
are exactly symmetric, and metric_core.validate_metric certifies a whole
graph's matrix from its hop counts in O(n^2) instead of the O(n^3) triangle
scan.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .metric_core import FiniteMetricSpace


class GridGraph:
    """Immutable graph on hashable node keys whose every edge has length h;
    every generator's key begins with the node's planar position."""

    def __init__(self, keys, edges, h: float):
        from scipy.sparse import csr_matrix  # scipy loads on first use, not at import

        self.keys = tuple(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        if len(self.index) != len(self.keys):
            raise DomainError("duplicate node keys in grid graph")
        n = len(self.keys)
        pairs = {(u, v) if u < v else (v, u) for u, v in edges}  # csr would sum duplicates
        uv = np.array(list(pairs), dtype=int).reshape(-1, 2)
        self.adjacency = csr_matrix((np.full(len(uv), float(h)), (uv[:, 0], uv[:, 1])),
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
