"""Tests for distance-matrix validation, rescaling, balls and coarse stats."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_lab.errors import DomainError, MalformedMatrixError
from metric_lab.metric_core import (
    FiniteMetricSpace,
    epsilon_net,
    geometry_stats,
    read_space,
    rescale,
    restrict_ball,
    space_from_json,
    space_to_json,
    validate_metric,
    write_json_atomic,
    write_space,
    write_text_atomic,
)


def line_space(points):
    pts = np.asarray(points, dtype=float)
    return FiniteMetricSpace(np.abs(pts[:, None] - pts[None, :]),
                             tuple(float(p) for p in pts))


class TestValidateMetric:
    def test_path_metric_on_three_points_is_clean(self):
        m = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert validate_metric(m) == []

    def test_triangle_violation_reports_worst_witness(self):
        m = FiniteMetricSpace([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        report = validate_metric(m)
        assert [v.axiom for v in report] == ["triangle"]
        v = report[0]
        assert set(v.witness) == {0, 1, 2}
        assert v.witness[1] == 1  # the midpoint certifying the excess
        assert v.magnitude == pytest.approx(3.0, abs=1e-12)

    def test_positivity_violation_for_distinct_points_at_zero(self):
        m = FiniteMetricSpace([[0, 0], [0, 0]])
        report = validate_metric(m)
        assert [v.axiom for v in report] == ["positivity"]
        assert set(report[0].witness) == {0, 1}

    def test_asymmetry_and_nonzero_diagonal_are_reported(self):
        m = FiniteMetricSpace([[0.5, 1], [2, 0]])
        axioms = {v.axiom for v in validate_metric(m)}
        assert "identity" in axioms and "symmetry" in axioms

    def test_nan_matrix_is_malformed(self):
        with pytest.raises(MalformedMatrixError):
            FiniteMetricSpace([[0, np.nan], [np.nan, 0]])

    def test_non_square_matrix_is_malformed(self):
        with pytest.raises(MalformedMatrixError):
            FiniteMetricSpace([[0, 1, 2], [1, 0, 1]])


class TestRescale:
    def test_identity_rescale(self):
        m = line_space([0, 1, 3])
        r = rescale(m, 1.0)
        assert np.array_equal(r.dist, m.dist)
        assert r.labels == m.labels

    def test_halving(self):
        m = FiniteMetricSpace([[0, 2], [2, 0]])
        assert np.array_equal(rescale(m, 2.0).dist, [[0, 1], [1, 0]])

    def test_nonpositive_factor_rejected(self):
        m = line_space([0, 1])
        with pytest.raises(DomainError):
            rescale(m, 0.0)
        with pytest.raises(DomainError):
            rescale(m, -2.0)

    @given(l1=st.floats(0.1, 10), l2=st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_composition_law(self, l1, l2):
        m = line_space([0.0, 0.7, 2.4, 3.1])
        twice = rescale(rescale(m, l1), l2)
        once = rescale(m, l1 * l2)
        assert np.allclose(twice.dist, once.dist, rtol=1e-12, atol=0)


class TestRestrictBall:
    def test_whole_space_when_radius_exceeds_diameter(self):
        m = line_space([0, 1, 2])
        w = restrict_ball(m, 1, 10.0)
        assert w.space.n == 3
        assert w.space.labels == m.labels
        assert w.scale == 1.0

    def test_singleton_below_min_gap(self):
        m = line_space([0, 1, 2])
        w = restrict_ball(m, 2, 0.5)
        assert w.space.n == 1
        assert w.space.labels == (2.0,)

    def test_line_example(self):
        m = line_space([0, 1, 2, 3])
        w = restrict_ball(m, 0, 1.5)
        assert w.space.labels == (0.0, 1.0)
        assert w.base == 0

    def test_commutes_with_rescale(self):
        m = line_space([0.0, 0.4, 1.1, 2.2, 3.9])
        lam, R = 2.0, 1.2
        a = restrict_ball(rescale(m, lam), 2, R / lam)
        b = restrict_ball(m, 2, R)
        assert a.space.labels == b.space.labels
        assert np.allclose(a.space.dist, rescale(b.space, lam).dist, atol=1e-12)


class TestGeometryStats:
    def test_uniform_grid_on_segment(self):
        m = line_space(np.linspace(0, 1, 33))
        stats = geometry_stats(m, [0.5, 0.25])
        assert stats.diameter == pytest.approx(1.0)
        assert stats.doubling_estimate <= 3
        assert stats.perfectness_constant is not None

    def test_two_point_space_not_uniformly_perfect_between_scales(self):
        m = line_space([0, 1])
        stats = geometry_stats(m, [0.5])
        assert stats.doubling_estimate <= 2
        assert stats.perfectness_constant is None

    def test_singleton(self):
        m = FiniteMetricSpace(np.zeros((1, 1)))
        stats = geometry_stats(m, [1.0])
        assert stats.diameter == 0.0
        assert stats.doubling_estimate == 1

    def test_empty_space_rejected(self):
        with pytest.raises(DomainError):
            geometry_stats(FiniteMetricSpace(np.zeros((0, 0))), [1.0])

    def test_scales_must_descend(self):
        m = line_space([0, 1, 2])
        with pytest.raises(DomainError):
            geometry_stats(m, [0.25, 0.5])

    def test_doubling_monotone_under_net_subsampling(self):
        m = line_space(np.linspace(0, 1, 65))
        scales = [0.5, 0.25]
        eps = min(scales) / 8  # below smallest probe scale / 4
        net = epsilon_net(m, eps)
        sub = m.submatrix(net)
        assert (geometry_stats(sub, scales).doubling_estimate
                <= geometry_stats(m, scales).doubling_estimate)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        m = line_space([0, 0.5, 2.25])
        path = tmp_path / "space.json"
        write_space(m, str(path))
        back = read_space(str(path))
        assert back.labels == m.labels
        assert np.array_equal(back.dist, m.dist)

    def test_asymmetric_matrix_rejected(self):
        obj = {"labels": [0, 1], "dist": [[0, 1], [1.5, 0]]}
        with pytest.raises(MalformedMatrixError):
            space_from_json(obj)

    def test_tuple_labels_survive(self):
        m = FiniteMetricSpace([[0, 1], [1, 0]], ((0.0, 1.0), (2.0, 3.0)))
        assert space_from_json(space_to_json(m)).labels == m.labels


class TestAtomicWriters:
    def test_json_is_indented_sorted_and_newline_terminated(self, tmp_path):
        obj = {"b": [1, 2.5], "a": {"d": None, "c": "x"}}
        path = tmp_path / "out.json"
        write_json_atomic(obj, str(path))
        assert path.read_text() == json.dumps(obj, indent=1, sort_keys=True) + "\n"

    @pytest.mark.parametrize("write,bad", [(write_json_atomic, {"x": object()}),
                                           (write_text_atomic, 123)])
    def test_failed_write_keeps_old_bytes_and_leaves_no_temp_file(self, tmp_path,
                                                                  write, bad):
        path = tmp_path / "out.json"
        path.write_bytes(b'{"old": 1}\n')
        with pytest.raises(TypeError):
            write(bad, str(path))
        assert path.read_bytes() == b'{"old": 1}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
