"""Tests for the grid-graph layer and the certificate of its matrices."""

import tracemalloc

import numpy as np
import pytest

from metric_lab.fractal_gen import SlitSchedule, whole_carpet_graph
from metric_lab import metric_core
from metric_lab.errors import DomainError
from metric_lab.grids import GridGraph, grid_steps
from metric_lab.metric_core import TOL, FiniteMetricSpace, _is_grid_metric, validate_metric

from .oracles import reference_validate_metric


class TestGridGraph:
    @pytest.mark.parametrize("edges", [[(0, 1), (1, 0), (1, 2)],
                                       [(0, 1), (0, 1), (2, 1)]])
    def test_duplicate_edge_counts_once(self, edges):
        # csr_matrix would sum a repeated entry into one edge of length 2h
        g = GridGraph(["a", "b", "c"], edges, 0.5)
        assert g.distance(0, 1) == 0.5
        assert g.distance(0, 2) == 1.0

    def test_a_limit_below_the_requested_spread_is_refused(self):
        g = path_graph(5, 0.25)
        assert g.space_on([0, 2, 4], 1.0).dist[0, 2] == 1.0
        with pytest.raises(DomainError, match="not mutually connected within 0.75"):
            g.space_on([0, 2, 4], 0.75)
        assert g.distances_from([0], 0.75)[0].tolist() == [0.0, 0.25, 0.5, 0.75, np.inf]

    def test_disconnected_nodes_are_refused_and_read_inf(self):
        g = GridGraph(["a", "b", "c"], [(0, 1)], 0.5)
        assert g.distances_from([0, 2]).tolist() == [[0.0, 0.5, np.inf], [np.inf, np.inf, 0.0]]
        with pytest.raises(DomainError, match="not mutually connected"):
            g.space()
        assert g.space_on([]).n == 0

    @pytest.mark.parametrize("h", [0.1, 0.3, 1 / 3])
    def test_more_than_one_word_of_sources_sums_the_steps_of_grid_steps(self, h):
        # 150 sources fill three 64-bit words; a path of m edges is grid_steps(h, m)[m]
        d = path_graph(150, h).space().dist
        T = grid_steps(h, 149)
        assert np.array_equal(d, T[np.abs(np.subtract.outer(np.arange(150), np.arange(150)))])

    def test_a_whole_carpet_matrix_is_filled_from_the_bit_planes_in_row_blocks(self, tmp_path):
        # 1146 points, a 10 MB matrix: the hop-count planes and one block of
        # rows ride on it (1.6 MB traced); unpacking every plane at once into
        # n x n hop counts, their reached mask and T[H] took 3.8 MB.  The
        # certificate (64-row blocks: 2.4 MB) and the writer (all labels as
        # one JSON text: 0.4 MB) then stay below that peak
        graph = whole_carpet_graph(SlitSchedule.harmonic(2), 1 / 32)
        tracemalloc.start()
        try:
            m = graph.space()
            fill = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert validate_metric(m) == []
            check = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            metric_core.write_space(m, str(tmp_path / "k.json"))
            write = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert m.n == 1146 and not m.dist.flags.writeable
        assert fill - m.dist.nbytes <= 2.5 * 2 ** 20
        assert check <= 2 * 2 ** 20 and write <= 0.25 * 2 ** 20


def path_graph(n, h):
    return GridGraph(range(n), [(i, i + 1) for i in range(n - 1)], h)


def agrees(d):
    """validate_metric's report on d, asserted equal to the full reference."""
    m = FiniteMetricSpace(d)
    report = validate_metric(m)
    assert report == reference_validate_metric(m)
    return report


def mutations(d, h, seed):
    """(name, matrix) of each planted error: nine symmetric edits of one entry
    by +h, -h or +2h, one broken symmetry and one entry off the h-grid."""
    n = len(d)
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
        out.append((f"edit-{k}", m))
    return out


CARPETS = [(1 / 8, False), (1 / 16, False), (1 / 32, False), (1 / 8, True), (1 / 16, True)]
CARPET_IDS = ["slit-1/8", "slit-1/16", "slit-1/32", "pillow-1/8", "pillow-1/16"]


@pytest.fixture(scope="module", params=CARPETS, ids=CARPET_IDS)
def carpet(request):
    h, pillows = request.param
    return h, whole_carpet_graph(SlitSchedule.harmonic(2), h, pillows).space().dist


class TestHopMetricCertificate:
    """validate_metric's certificate that a matrix is h times the hop metric
    of its own unit graph (metric_core._is_grid_metric), held to the
    brute-force reference."""

    def test_every_generated_carpet_is_certified_and_is_a_metric(self, carpet):
        # the reproduce carpet (1/16), and the benchmark's (slit 1/32, pillow
        # 1/16), are certified: `gen` never runs the triangle scan on them
        _, d = carpet
        assert _is_grid_metric(d)
        assert reference_validate_metric(FiniteMetricSpace(d)) == []

    def test_every_planted_error_is_refused_and_the_report_matches(self, carpet):
        # the brute-force reference costs O(n^3) (8 s at 1146 points), so the
        # report is compared with it up to 312 points; above, the full check
        # is validate_metric's, held to the reference on seeded matrices elsewhere
        h, d = carpet
        for name, m in mutations(d, h, len(d)):
            assert not _is_grid_metric(m), name
            if len(d) <= 312:
                agrees(m)

    def test_row_blocks_cover_a_graph_of_several_blocks(self):
        # 200 nodes: two blocks of at most 2^15 entries, the last one partial
        d = path_graph(200, 0.25).space().dist.copy()
        assert _is_grid_metric(d)
        d[150, 199] = d[199, 150] = d[150, 199] + 0.25
        assert not _is_grid_metric(d)
        assert [v.axiom for v in agrees(d)] == ["triangle"]

    @pytest.mark.parametrize("h", [0.1, 1 / 3, 0.3, 1 / 44])
    def test_a_mesh_whose_sums_are_inexact_is_certified(self, h):
        # 10 * 0.1 sums to 0.9999999999999999, not rint(10) * 0.1: within TOL/4
        d = path_graph(40, h).space().dist
        assert _is_grid_metric(d)
        assert agrees(d) == []

    @pytest.mark.parametrize("h", [TOL / 2, 2.0 ** 20])
    def test_meshes_whose_rounding_tol_does_not_cover_are_refused(self, h):
        # h <= TOL would fail positivity; at 2^20 a float sum may round by more than TOL
        d = path_graph(4, h).space().dist
        assert not _is_grid_metric(d)
        agrees(d)

    @pytest.mark.parametrize("d", [np.zeros((1, 1)), np.zeros((3, 3)), np.zeros((4, 4)),
                                   np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1],
                                             [3, 2, 1, 0]]) * -1.0])
    def test_a_matrix_without_a_positive_mesh_is_refused(self, d):
        assert not _is_grid_metric(d)
        agrees(d)

    def test_the_degree_bound_sends_an_equilateral_space_to_the_full_check(self):
        # equilateral = the hop metric of a complete graph: certified up to
        # degree _CERTIFY_DEGREE_MAX, the full check above it
        k = metric_core._CERTIFY_DEGREE_MAX
        assert _is_grid_metric(1.0 - np.eye(k + 1))
        for n in (k + 2, 100):
            d = 1.0 - np.eye(n)
            assert not _is_grid_metric(d)
            assert agrees(d) == []
