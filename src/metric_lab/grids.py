"""Grid-graph machinery behind the intrinsic-metric generators.

Spaces that the lab cannot write down in closed form are realized as
4-neighbor grid graphs with step h and measured with shortest paths; the
graph metric overestimates Euclidean lengths by up to a factor sqrt(2), a
slack every desk-scale tolerance in the test suite quotes.  Every
distance request is one scipy Dijkstra call; an edge given twice keeps its
smaller weight.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DomainError
from .metric_core import FiniteMetricSpace


class GridGraph:
    """Immutable weighted graph on hashable node keys; every generator's key
    begins with the node's planar position."""

    def __init__(self, keys, edges):
        self.keys = tuple(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        if len(self.index) != len(self.keys):
            raise DomainError("duplicate node keys in grid graph")
        n = len(self.keys)
        seen = {}
        for u, v, w in edges:
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            seen[pair] = min(w, seen.get(pair, w))
        rows, cols, data = [], [], []
        for (u, v), w in seen.items():
            rows += [u, v]
            cols += [v, u]
            data += [w, w]
        self.adjacency = csr_matrix((data, (rows, cols)), shape=(n, n))

    @property
    def n(self) -> int:
        return len(self.keys)

    def distances_from(self, sources) -> np.ndarray:
        """Shortest-path rows for the given source node ids, one scipy
        Dijkstra pass over the undirected adjacency."""
        sources = np.atleast_1d(np.asarray(sources, dtype=int))
        return dijkstra(self.adjacency, directed=False, indices=sources)

    def distance(self, u: int, v: int) -> float:
        return float(self.distances_from([u])[0, v])

    def space_on(self, node_ids) -> FiniteMetricSpace:
        """Metric subspace on the given nodes; paths run through the full graph."""
        node_ids = np.asarray(node_ids, dtype=int)
        rows = self.distances_from(node_ids)
        d = rows[:, node_ids]
        d = np.minimum(d, d.T)  # exact up to float noise; symmetrize it away
        if d.size and not np.all(np.isfinite(d)):
            raise DomainError("requested nodes are not mutually connected")
        return FiniteMetricSpace(d, tuple(self.keys[i] for i in node_ids))

    def space(self) -> FiniteMetricSpace:
        return self.space_on(np.arange(self.n))


class GraphBuilder:
    """Accumulates node keys and edges, then freezes a GridGraph."""

    def __init__(self):
        self._index: dict = {}
        self._edges: list = []

    def node(self, key) -> int:
        return self._index.setdefault(key, len(self._index))

    def edge(self, u: int, v: int, w: float) -> None:
        self._edges.append((u, v, w))

    def build(self) -> GridGraph:
        return GridGraph(self._index, self._edges)  # keys in insertion (index) order
