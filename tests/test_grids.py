"""Tests for the grid-graph layer."""

import pytest

from metric_lab.grids import GridGraph


class TestGridGraph:
    @pytest.mark.parametrize("edges", [[(0, 1, 1.0), (0, 1, 2.0)],
                                       [(1, 0, 2.0), (0, 1, 1.0)]])
    def test_duplicate_edge_keeps_the_smaller_weight(self, edges):
        g = GridGraph(["a", "b"], edges)
        assert g.distance(0, 1) == 1.0
