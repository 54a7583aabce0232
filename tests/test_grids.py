"""Tests for the grid-graph layer."""

import numpy as np
import pytest

from metric_lab.fractal_gen import SlitSchedule, whole_carpet_graph
from metric_lab.grids import GridGraph
from metric_lab.metric_core import TOL, FiniteMetricSpace, validate_metric

from .oracles import reference_validate_metric


class TestGridGraph:
    @pytest.mark.parametrize("edges", [[(0, 1), (1, 0), (1, 2)],
                                       [(0, 1), (0, 1), (2, 1)]])
    def test_duplicate_edge_counts_once(self, edges):
        # csr_matrix would sum a repeated entry into one edge of length 2h
        g = GridGraph(["a", "b", "c"], edges, 0.5)
        assert g.distance(0, 1) == 0.5
        assert g.distance(0, 2) == 1.0


def path_graph(n, h):
    return GridGraph(range(n), [(i, i + 1) for i in range(n - 1)], h)


def checked(graph, d):
    """What `gen` concludes about a matrix: [] if the graph certifies it,
    else validate_metric's report."""
    return [] if graph.is_hop_metric(d) else validate_metric(FiniteMetricSpace(d))


def edge_list(graph):
    coo = graph.adjacency.tocoo()
    return list(zip(coo.row.tolist(), coo.col.tolist()))


def mutations(graph, d, seed):
    """(name, graph, matrix) of each planted error: nine symmetric edits of one
    entry by +h, -h or +2h, one broken symmetry, one non-dyadic entry, and the
    true matrix against an edge list missing one edge or holding one extra."""
    h, n = graph.h, graph.n
    rng = np.random.default_rng(seed)
    out = []
    for k in range(11):
        i, j = rng.choice(n, size=2, replace=False)
        m = d.copy()
        if k < 9:
            m[i, j] += (h, -h, 2 * h)[k % 3]
            m[j, i] = m[i, j]
        elif k == 9:
            m[i, j] += h
        else:
            m[i, j] = m[j, i] = d[i, j] + h / 3
        out.append((f"edit-{k}", graph, m))
    edges = edge_list(graph)
    out.append(("edge-missing", GridGraph(graph.keys, edges[1:], h), d))
    i, j = np.argwhere(np.isclose(d, 2 * h, rtol=0, atol=TOL))[0]
    out.append(("edge-extra", GridGraph(graph.keys, edges + [(i, j)], h), d))
    return out


CARPETS = [(1 / 8, False), (1 / 16, False), (1 / 32, False), (1 / 8, True), (1 / 16, True)]
CARPET_IDS = ["slit-1/8", "slit-1/16", "slit-1/32", "pillow-1/8", "pillow-1/16"]


@pytest.fixture(scope="module", params=CARPETS, ids=CARPET_IDS)
def carpet(request):
    h, pillows = request.param
    graph = whole_carpet_graph(SlitSchedule.harmonic(2), h, pillows)
    return graph, graph.space().dist


class TestHopMetricCertificate:
    def test_every_generated_carpet_is_certified_and_is_a_metric(self, carpet):
        # the reproduce carpet (1/16), and the benchmark's (slit 1/32, pillow
        # 1/16), are certified: `gen` never takes the fallback on them
        graph, d = carpet
        assert graph.is_hop_metric(d)
        assert reference_validate_metric(FiniteMetricSpace(d)) == []

    def test_every_planted_error_is_refused_and_the_fallback_matches(self, carpet):
        # the brute-force reference costs O(n^3) (8 s at 1146 points), so the
        # fallback is compared with it up to 312 points; above, the fallback is
        # validate_metric, held to the reference on seeded matrices elsewhere
        graph, d = carpet
        for name, g, m in mutations(graph, d, graph.n):
            assert not g.is_hop_metric(m), name
            if graph.n <= 312:
                assert checked(g, m) == reference_validate_metric(FiniteMetricSpace(m)), name

    def test_row_blocks_cover_a_graph_of_several_blocks(self):
        # 200 nodes: four blocks, the last one partial
        g = path_graph(200, 0.25)
        d = g.space().dist.copy()
        assert g.is_hop_metric(d)
        d[150, 199] = d[199, 150] = d[150, 199] + 0.25
        assert not g.is_hop_metric(d)

    @pytest.mark.parametrize("h", [0.1, 1 / 3, 0.3])
    def test_a_mesh_whose_sums_are_inexact_takes_the_fallback(self, h):
        # 10 * 0.1 sums to 0.9999999999999999, not rint(10) * 0.1
        g = path_graph(40, h)
        d = g.space().dist
        assert not g.is_hop_metric(d)
        assert checked(g, d) == reference_validate_metric(FiniteMetricSpace(d)) == []

    @pytest.mark.parametrize("h", [TOL / 2, 2.0 ** 20])
    def test_meshes_whose_rounding_tol_does_not_cover_are_refused(self, h):
        # h <= TOL would fail positivity; at 2^20 a float sum may round by more than TOL
        g = path_graph(4, h)
        assert not g.is_hop_metric(g.space().dist)

    @pytest.mark.parametrize("d", [np.zeros((3, 3)), np.zeros((4, 4)),
                                   np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1],
                                             [3, 2, 1, 0]]) * -1.0])
    def test_a_matrix_of_another_shape_or_sign_is_refused(self, d):
        assert not path_graph(4, 1.0).is_hop_metric(d)
