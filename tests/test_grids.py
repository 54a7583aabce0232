"""Tests for the grid-graph layer."""

import pytest

from metric_lab.grids import GridGraph


class TestGridGraph:
    @pytest.mark.parametrize("edges", [[(0, 1), (1, 0), (1, 2)],
                                       [(0, 1), (0, 1), (2, 1)]])
    def test_duplicate_edge_counts_once(self, edges):
        # csr_matrix would sum a repeated entry into one edge of length 2h
        g = GridGraph(["a", "b", "c"], edges, 0.5)
        assert g.distance(0, 1) == 0.5
        assert g.distance(0, 2) == 1.0
