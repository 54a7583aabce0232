"""Grid-graph machinery behind the intrinsic-metric generators.

Spaces that the lab cannot write down in closed form are realized as
4-neighbor grid graphs with step h and measured with shortest paths; the
graph metric overestimates Euclidean lengths by up to a factor sqrt(2), a
slack every desk-scale tolerance in the test suite quotes.  A grid graph is
its node keys, its undirected edges and the one length h of every edge; an
edge given twice counts once.  Every edge has the same length, so a shortest
path is a fewest-hops path: every distance request is one bit-parallel
breadth-first search for hop counts H, optionally stopped at a distance
limit, and a path of m edges is T[m] = grid_steps(h, m)[m] long, the running
sum the t, l and d models use too.  Distance matrices are therefore exactly
symmetric, and metric_core.validate_metric certifies a whole graph's matrix
from its hop counts in O(n^2) instead of the O(n^3) triangle scan.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .metric_core import FiniteMetricSpace


def grid_steps(h: float, m: int) -> np.ndarray:
    """T = [0, h, h + h, ...] up to m steps: T[k] is k edges of length h
    summed one at a time, as a path search adds them edge by edge."""
    return np.concatenate(([0.0], np.cumsum(np.full(m, float(h)))))


class GridGraph:
    """Immutable graph on hashable node keys whose every edge has length h;
    every generator's key begins with the node's planar position."""

    def __init__(self, keys, edges, h: float):
        self.keys = tuple(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        if len(self.index) != len(self.keys):
            raise DomainError("duplicate node keys in grid graph")
        self.h = float(h)
        n = len(self.keys)
        uv = np.unique(np.sort(np.asarray(edges, dtype=np.intp).reshape(-1, 2), axis=1), axis=0)
        a, b = np.concatenate((uv[:, 0], uv[:, 1])), np.concatenate((uv[:, 1], uv[:, 0]))
        order = np.argsort(a, kind="stable")
        a, b = a[order], b[order]
        deg = np.bincount(a, minlength=n)
        slot = np.arange(len(a)) - (np.cumsum(deg) - deg)[a]
        # neighbour k of node i is _nbr[k, i]; missing neighbours point at row n,
        # which every bitset array of the search keeps zero
        self._nbr = np.full((max(deg.max(initial=0), 1), n), n, dtype=np.intp)
        self._nbr[slot, a] = b

    @property
    def n(self) -> int:
        return len(self.keys)

    def _hops(self, sources, targets, limit: float):
        """Hop counts from sources to targets, one BFS level at a time up to
        the last level whose length is at most limit: (H, reached, T), with
        H[t, s] the hops from sources[s] to targets[t] where reached[t, s].

        Each node holds a bitset row over the sources (uint64 words); a level
        is new = OR_k frontier[nbr_k] & unseen, and H is kept as bit planes:
        the pairs first reached at level l are OR-ed into plane p for every
        set bit p of l, and the planes are unpacked once at the end."""
        n, k = self.n, len(sources)
        words = (k + 63) // 64
        T = grid_steps(self.h, n)
        last = max(int(np.searchsorted(T, limit, "right")) - 1, 0)
        bits = np.arange(k, dtype="<u8")
        frontier = np.zeros((n + 1, words), dtype="<u8")
        np.bitwise_or.at(frontier, (sources, bits // 64), np.uint64(1) << bits % 64)
        unseen = ~frontier[:n]  # the padding bits past k stay set and are never read
        new, gathered = np.zeros_like(frontier), np.empty((n, words), dtype="<u8")
        planes: list = []
        for level in range(1, last + 1):  # mode="clip": "raise" would buffer out
            np.take(frontier, self._nbr[0], axis=0, out=new[:n], mode="clip")
            for nbr in self._nbr[1:]:
                np.take(frontier, nbr, axis=0, out=gathered, mode="clip")
                new[:n] |= gathered
            new[:n] &= unseen
            if not new.any():
                break
            unseen ^= new[:n]
            reached_now = new[targets]
            if level.bit_length() > len(planes):
                planes.append(np.zeros((len(targets), words), dtype="<u8"))
            for p, plane in enumerate(planes):
                if level >> p & 1:
                    plane |= reached_now
            frontier, new = new, frontier

        def unpack(rows):
            return np.unpackbits(rows.view(np.uint8), axis=1, count=k, bitorder="little")

        H = np.zeros((len(targets), k), dtype=np.min_scalar_type(2 ** len(planes) - 1))
        for p, plane in enumerate(planes):
            H |= unpack(plane).astype(H.dtype) << p
        return H, unpack(~unseen[targets]).astype(bool), T

    def distances_from(self, sources, limit: float = np.inf) -> np.ndarray:
        """Shortest-path rows for the given source node ids, one search from
        all of them; nodes farther than limit read inf."""
        sources = np.atleast_1d(np.asarray(sources, dtype=np.intp))
        H, reached, T = self._hops(sources, np.arange(self.n), limit)
        return np.where(reached, T[H], np.inf).T

    def distance(self, u: int, v: int) -> float:
        return float(self.distances_from([u])[0, v])

    def space_on(self, node_ids, limit: float = np.inf) -> FiniteMetricSpace:
        """Metric subspace on the given nodes; paths run through the full
        graph, searched up to limit, which must cover every pair.  Only the
        requested nodes' columns are kept, and the matrix T[H] is handed to
        the space frozen, without a copy."""
        node_ids = np.asarray(node_ids, dtype=np.intp)
        H, reached, T = self._hops(node_ids, node_ids, limit)
        if not reached.all():
            raise DomainError(f"requested nodes are not mutually connected within {limit}")
        d = T[H]
        d.flags.writeable = False
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
