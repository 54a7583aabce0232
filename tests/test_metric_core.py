"""Tests for distance-matrix validation, rescaling, nets and JSON interchange."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from metric_lab import metric_core
from metric_lab.errors import DomainError, MalformedMatrixError
from metric_lab.fractal_gen import SlitSchedule, unit_square_generator, whole_carpet_graph
from metric_lab.metric_core import (
    TOL,
    FiniteMetricSpace,
    decreasing_scales,
    epsilon_net,
    rescale,
    space_from_json,
    validate_metric,
    write_json_atomic,
    write_space,
    write_text_atomic,
)
from metric_lab.tangent_lab import ScanConfig
from .oracles import floyd_warshall, reference_space_json, reference_validate_metric


def line_space(points):
    pts = np.asarray(points, dtype=float)
    return FiniteMetricSpace(np.abs(pts[:, None] - pts[None, :]),
                             tuple(float(p) for p in pts))


# Seeded matrix families for the comparison with the frozen reference.  Each
# draws a size and a scale in [1e-3, 1e6]; the tied and near-TOL lines put
# several slabs, or the worst excess and TOL, within a few ulps of each other,
# where a filter without rounding slack or without exact re-evaluation fails.

def _base(rng):
    n = int(rng.integers(2, 13))
    scale = 10.0 ** rng.uniform(-3, 6)
    kind = rng.integers(4)
    if kind == 0:
        x = rng.random((n, 1))
        d = cdist(x, x)
    elif kind == 1:
        x = rng.random((n, 2))
        d = cdist(x, x)
    elif kind == 2:
        x = rng.random((n, 3))
        d = cdist(x, x, "cityblock")
    else:
        x = rng.integers(0, 4, (n, 2)).astype(float)
        d = cdist(x, x, "cityblock")
    return d * scale, scale


def _valid(rng):
    return _base(rng)[0]


def _perturbed(rng):
    d, scale = _base(rng)
    i, j = rng.choice(d.shape[0], 2, replace=False)
    delta = scale * 10.0 ** rng.uniform(-12, 0) * rng.choice([-1, 1])
    d[i, j] += delta
    d[j, i] += delta
    return d


def _powered(rng):
    return _base(rng)[0] ** rng.uniform(0.5, 3)


def _rounded(rng):
    d, scale = _base(rng)
    step = scale * rng.choice([0.1, 0.25, 1 / 3, 0.5])
    return np.round(d / step) * step


def _asymmetric(rng):
    d, scale = _base(rng)
    n = d.shape[0]
    noise = rng.random((n, n)) * (rng.random((n, n)) < 0.2)
    return d + noise * scale * 10.0 ** rng.uniform(-12, 0)


def _tied_line(rng):
    n = int(rng.integers(5, 13))
    scale = 10.0 ** rng.uniform(-3, 6)
    x = np.sort(rng.choice(4 * n, n, replace=False)) * rng.choice([0.1, 0.3, 0.7])
    d = np.abs(x[:, None] - x[None, :]) * scale
    d[0, n - 1] += d[0, 1]
    return d


def _near_tol_line(rng):
    n = int(rng.integers(3, 13))
    scale = 10.0 ** rng.uniform(4, 6)
    x = np.sort(rng.random(n)) * scale
    d = np.abs(x[:, None] - x[None, :])
    d[0, n - 1] += TOL + int(rng.integers(-4, 5)) * np.spacing(scale)
    if rng.random() < 0.5:
        d[n - 1, 0] = d[0, n - 1]
    return d


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

    @pytest.mark.parametrize("numpy_max", [None, 0], ids=["numpy-slabs", "cdist-filter"])
    def test_matches_frozen_reference_on_seeded_matrices(self, monkeypatch, numpy_max):
        # every seeded matrix is small: the default takes the numpy slabs, and
        # a limit of 0 sends the same matrices through the Chebyshev filter
        if numpy_max is not None:
            monkeypatch.setattr(metric_core, "_NUMPY_SLABS_MAX", numpy_max)
        rng = np.random.default_rng(20261018)
        families = (_valid, _perturbed, _powered, _rounded, _asymmetric,
                    _tied_line, _near_tol_line)
        violated = 0
        for t in range(1400):
            m = FiniteMetricSpace(families[t % len(families)](rng))
            expected = reference_validate_metric(m)
            assert validate_metric(m) == expected, (t, m.dist.tolist())
            violated += any(v.axiom == "triangle" for v in expected)
        assert 600 <= violated <= 1200

    @pytest.mark.parametrize("extra", [0, 1], ids=["numpy-slabs", "cdist-filter"])
    def test_first_of_tied_slabs_wins_on_both_sides_of_the_limit(self, monkeypatch, extra):
        # integer L1 distances on a 23-column grid: every midpoint of a planted
        # pair is a slab with exactly its excess.  Pairs A and B tie at 0.5;
        # B's first midpoint (k = 75) comes before A's (k = 232), and pair C's
        # 0.25 excess appears earlier still (k = 1) and must be overtaken.
        import scipy.spatial.distance

        calls = []
        monkeypatch.setattr(scipy.spatial.distance, "cdist",
                            lambda *args: calls.append(args) or cdist(*args))
        n = metric_core._NUMPY_SLABS_MAX + extra
        x, y = np.arange(n) % 23, np.arange(n) // 23
        d = (np.abs(np.subtract.outer(x, x)) + np.abs(np.subtract.outer(y, y))).astype(float)
        for (a, b), excess in (((10 * 23 + 1, n - 1), 0.5), ((3 * 23 + 5, 6 * 23 + 9), 0.5),
                               ((0, 2 * 23 + 2), 0.25)):
            d[a, b] += excess
            d[b, a] += excess
        m = FiniteMetricSpace(d)
        assert validate_metric(m) == reference_validate_metric(m)
        assert len(calls) == extra  # the filter runs only above the limit
        [violation] = validate_metric(m)
        assert violation.witness == (3 * 23 + 5, 75, 6 * 23 + 9)
        assert violation.magnitude == 0.5

    def test_grid_metrics_and_their_near_misses_match_the_reference(self):
        # h times the hop metric of a random connected graph (the certificate's
        # domain, on exact and inexact meshes, some above its degree bound or
        # its rounding bound), two in three with one entry or pair moved by an
        # amount near TOL/4, TOL or h: certified or not, the report is the
        # reference's
        rng = np.random.default_rng(20261020)
        certified = violated = 0
        for t in range(500):
            n = int(rng.integers(2, 41))
            w = np.full((n, n), np.inf)
            for i in range(1, n):
                for j in {int(rng.integers(i))} | set(rng.integers(n, size=int(rng.integers(3)))):
                    if j != i:
                        w[i, j] = w[j, i] = 1.0
            h = float(rng.choice([0.1, 1 / 3, 2.0 ** -5, 1.7, 3e-9, 2.0 ** 20]))
            d = floyd_warshall(w) * h
            if t % 3:
                i, j = rng.integers(n, size=2)
                d[i, j] += rng.choice([-1, 1]) * rng.choice([TOL / 5, TOL / 3, TOL, h / 2, h])
                if rng.random() < 0.7:
                    d[j, i] = d[i, j]
            m = FiniteMetricSpace(d)
            expected = reference_validate_metric(m)
            assert validate_metric(m) == expected, (t, h, d.tolist())
            certified += metric_core._is_grid_metric(d)
            violated += bool(expected)
        assert certified >= 80 and violated >= 100, (certified, violated)

    def test_non_square_matrix_is_malformed(self):
        with pytest.raises(MalformedMatrixError):
            FiniteMetricSpace([[0, 1, 2], [1, 0, 1]])


class TestOneMatrixPerSpace:
    def test_a_writeable_array_or_view_is_copied(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        for given in (d, d[:, :], d.T):
            sp = FiniteMetricSpace(given)
            assert sp.dist is not given and not np.shares_memory(sp.dist, d)
            d[0, 1] = d[1, 0] = 5.0
            assert sp.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]
            d[0, 1] = d[1, 0] = 1.0
        assert not sp.dist.flags.writeable

    def test_a_read_only_view_is_copied(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        view = d[:, :]
        view.flags.writeable = False
        sp = FiniteMetricSpace(view)
        d[0, 1] = d[1, 0] = 5.0
        assert sp.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_a_frozen_owned_array_is_kept_without_a_copy(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        d.flags.writeable = False
        assert FiniteMetricSpace(d).dist is d

    def test_a_carpet_space_keeps_the_matrix_its_search_filled(self, monkeypatch):
        given = []
        post_init = FiniteMetricSpace.__post_init__

        def spy(space):
            given.append(space.dist)
            post_init(space)

        monkeypatch.setattr(FiniteMetricSpace, "__post_init__", spy)
        sp = whole_carpet_graph(SlitSchedule.harmonic(1), 1 / 8).space()
        assert sp.dist is given[-1]


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


class TestEpsilonNet:
    def test_line_net(self):
        assert epsilon_net(line_space([0, 1, 2, 3]), 1.5) == [0, 3]
        assert epsilon_net(line_space([0, 1, 2, 3]), 1.5, start=2) == [2, 0]
        assert epsilon_net(FiniteMetricSpace(np.zeros((0, 0))), 1.0) == []

    @pytest.mark.parametrize("eps", [-1.0, math.nan])
    def test_negative_or_nan_radius_is_refused(self, eps):
        # the insertion loop never ends at such a radius; a space that fails
        # on first use makes a missing check fail instead of hang
        class Untouched:
            def __getattr__(self, name):
                raise AssertionError(f"space read before the radius check: {name}")
        with pytest.raises(DomainError, match="net radius"):
            epsilon_net(Untouched(), eps)

    @pytest.mark.parametrize("start", [-1, 3, 9])
    def test_start_outside_the_space_is_refused(self, start):
        with pytest.raises(DomainError, match="start index"):
            epsilon_net(line_space([0, 1, 2]), 1.5, start=start)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.25, 0.5, 2.0])
    def test_net_is_separated_and_covers(self, eps):
        P = np.random.default_rng(7).random((60, 2))
        m = FiniteMetricSpace(cdist(P, P))
        net = epsilon_net(m, eps, start=5)
        assert net[0] == 5 and len(set(net)) == len(net)
        sub = m.dist[np.ix_(net, net)]
        assert np.all(sub[~np.eye(len(net), dtype=bool)] > eps)
        assert np.all(m.dist[:, net].min(axis=1) <= eps)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
    def test_commutes_with_rescale(self, lam):
        # dyadic factors scale every distance and the radius exactly
        m = line_space([0.0, 0.4, 1.1, 2.2, 3.9, 4.0, 6.5])
        for eps in (0.3, 1.0, 2.5):
            assert epsilon_net(rescale(m, lam), eps / lam) == epsilon_net(m, eps)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        m = line_space([0, 0.5, 2.25])
        path = tmp_path / "space.json"
        write_space(m, str(path))
        with open(path) as fh:
            back = space_from_json(json.load(fh))
        assert back.labels == m.labels
        assert np.array_equal(back.dist, m.dist)

    def test_asymmetric_matrix_rejected(self):
        obj = {"labels": [0, 1], "dist": [[0, 1], [1.5, 0]]}
        with pytest.raises(MalformedMatrixError):
            space_from_json(obj)

    def test_tuple_labels_survive(self):
        m = FiniteMetricSpace([[0, 1], [1, 0]], ((0.0, 1.0), (2.0, 3.0)))
        assert space_from_json(reference_space_json(m)).labels == m.labels

    @pytest.mark.parametrize("n", [0, 1])
    def test_round_trip_of_tiny_spaces(self, tmp_path, n):
        m = FiniteMetricSpace(np.zeros((n, n)))
        path = tmp_path / "space.json"
        write_space(m, str(path))
        with open(path) as fh:
            back = space_from_json(json.load(fh))
        assert back.n == n and back.labels == m.labels
        assert np.array_equal(back.dist, m.dist)

    @pytest.mark.parametrize("m", [
        FiniteMetricSpace(np.zeros((0, 0))),
        FiniteMetricSpace([[0.0]], ("only",)),
        FiniteMetricSpace([[0, 1e-07], [1e-07, 0]], (3, "b")),
        FiniteMetricSpace([[-0.0, 1e16, 5e-324], [1e16, 0.0, 0.1 + 0.2],
                           [5e-324, 0.1 + 0.2, -0.0]],
                          (0.5, (1, (2.5, "x")), np.int64(7))),
        whole_carpet_graph(SlitSchedule((0.5,)), 1 / 8).space(),
    ], ids=["n0", "n1", "n2", "n3-floats", "carpet"])
    def test_space_bytes_equal_json_dump(self, tmp_path, m):
        path = tmp_path / "space.json"
        write_space(m, str(path))
        expected = tmp_path / "expected.json"
        with open(expected, "w") as fh:
            json.dump(reference_space_json(m), fh, indent=1, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == expected.read_bytes()


class TestAtomicWriters:
    def test_json_is_indented_sorted_and_newline_terminated(self, tmp_path):
        obj = {"b": [1, 2.5], "a": {"d": None, "c": "x"}}
        path = tmp_path / "out.json"
        write_json_atomic(obj, str(path))
        assert path.read_text() == json.dumps(obj, indent=1, sort_keys=True) + "\n"

    @pytest.mark.parametrize("write,bad", [
        (write_json_atomic, {"x": object()}),
        (write_text_atomic, 123),
        (write_space, FiniteMetricSpace([[0, 1], [1, 0]], (0, object())))])
    def test_failed_write_keeps_old_bytes_and_leaves_no_temp_file(self, tmp_path,
                                                                  write, bad):
        path = tmp_path / "out.json"
        path.write_bytes(b'{"old": 1}\n')
        with pytest.raises(TypeError):
            write(bad, str(path))
        assert path.read_bytes() == b'{"old": 1}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


@pytest.mark.parametrize("obj", [{"dist": [[0, 1]]}, {"dist": [0, 1]},
                                 {"dist": [[0, math.nan], [math.nan, 0]]},
                                 {"dist": [[0, math.inf], [math.inf, 0]]}])
def test_json_reader_refuses_non_square_or_non_finite_matrices(obj):
    # FiniteMetricSpace makes both checks for the reader
    with pytest.raises(MalformedMatrixError):
        space_from_json(obj)


class TestDecreasingScales:
    @pytest.mark.parametrize("scales", [[math.nan], [0.5, math.nan], [0.0], [math.inf],
                                        [math.inf, 0.5], [-0.25], [0.5, -0.25]])
    def test_scales_must_be_positive_and_finite(self, scales):
        with pytest.raises(DomainError, match="positive and finite"):
            decreasing_scales(scales)

    @pytest.mark.parametrize("scales", [[0.25, 0.5], [0.5, 0.5], [1.0, 0.5, 0.5],
                                        [1.0, 0.25, 0.5]])
    def test_scales_must_strictly_decrease(self, scales):
        with pytest.raises(DomainError, match="strictly decreasing"):
            decreasing_scales(scales)

    @pytest.mark.parametrize("scales", [[1, 0.5], (2.0 ** -k for k in (1, 2)),
                                        np.array([0.5, 0.25]), range(3, 0, -1)],
                             ids=["list", "generator", "array", "range"])
    def test_a_decreasing_list_comes_back_as_a_tuple_of_floats(self, scales):
        out = decreasing_scales(scales)
        assert isinstance(out, tuple) and len(out) in (2, 3)
        assert all(type(v) is float for v in out)
        assert list(out) == sorted(out, reverse=True)


def test_an_empty_scale_list_is_refused():
    # decreasing_scales refuses it for ScanConfig, its one caller
    with pytest.raises(DomainError, match="scales must be nonempty"):
        ScanConfig(generator=unit_square_generator(), center=(0.0, 0.0), scales=(),
                   window_radius=1.0, models=("quarter",))
