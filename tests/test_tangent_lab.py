"""Tests for window extraction, blow-up scans and tangent verdicts."""

import math
import tracemalloc

import numpy as np
import pytest

from metric_lab import tangent_lab
from metric_lab.errors import DomainError, ResolutionError
from metric_lab.fractal_gen import (
    FlatSnowflakeGenerator,
    make_generator,
    model_tangent_space,
    unit_square_generator,
)
from metric_lab.gh_solver import GhResult
from metric_lab.metric_core import FiniteMetricSpace, PointedWindow, rescale
from metric_lab.tangent_lab import (
    ScanConfig,
    ScanReport,
    ScanRow,
    classify_tangent,
    extract_window,
    nearest_position_seed,
    tangent_scan,
)

from .oracles import reference_position_seed, reference_tangent_scan


def synthetic_report(columns):
    """Build a ScanReport from {model: [upper bounds]} with zero lower bounds."""
    n = len(next(iter(columns.values())))
    rows = []
    for i in range(n):
        results = {m: GhResult(lower=0.0, upper=col[i]) for m, col in columns.items()}
        rows.append(ScanRow(2.0 ** -(3 + i), 10, results, {m: 0.0 for m in columns}))
    return ScanReport(tuple(rows), 1.0, tuple(columns))


class ScaledGenerator:
    """A test fake: gen with its metric multiplied by c > 0, so scanning it at
    scales c*lambda must reproduce the scan of gen at lambda."""

    def __init__(self, gen, c):
        self._gen, self._c = gen, c

    def sample_ball(self, center, radius_phys, h):
        space, base = self._gen.sample_ball(center, radius_phys / self._c, h / self._c)
        return rescale(space, 1.0 / self._c), base


class TestExtractWindow:
    def test_whole_space_at_scale_one(self):
        gen = unit_square_generator()
        w = extract_window(gen, (0.0, 0.0), 1.0, 2.0, 0.5)
        assert w.space.n == 9  # every node of the 1/2-grid on the square
        assert w.scale == 1.0

    def test_square_corner_window_matches_quarter_model(self):
        gen = unit_square_generator()
        lam = 2.0 ** -4
        w = extract_window(gen, (0.0, 0.0), lam, 1.0, lam / 16)
        m = model_tangent_space("quarter", 1.0, 1 / 16)
        assert w.space.n == m.space.n
        ours = sorted((round(l[0] / lam, 9), round(l[1] / lam, 9))
                      for l in w.space.labels)
        theirs = sorted((round(l[0], 9), round(l[1], 9)) for l in m.space.labels)
        assert ours == theirs

    def test_window_monotone_in_radius(self):
        gen = unit_square_generator()
        big = extract_window(gen, (0.5, 0.5), 2.0 ** -3, 1.0, 2.0 ** -7)
        small = extract_window(gen, (0.5, 0.5), 2.0 ** -3, 0.5, 2.0 ** -7)
        assert set(small.space.labels) <= set(big.space.labels)

    @pytest.mark.parametrize("name", ["plane", "half", "quarter", "line"])
    def test_model_generators_refuse_a_mesh_coarser_than_the_window(self, name):
        with pytest.raises(ResolutionError):
            extract_window(make_generator(name), (0.0, 0.0), 0.5, 1.0, 1.0)

    def test_bad_scale_rejected(self):
        gen = unit_square_generator()
        with pytest.raises(DomainError):
            extract_window(gen, (0.0, 0.0), -1.0, 1.0, 0.1)


class TestScan:
    def test_square_corner_scan_reports_quarter(self):
        cfg = ScanConfig(generator=unit_square_generator(), center=(0.0, 0.0),
                         scales=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
                         window_radius=1.0, models=("quarter", "half"),
                         rule="lambda/8")
        report = tangent_scan(cfg)
        assert report.verdict is not None
        assert report.verdict.best_model == "quarter"
        assert report.verdict.conclusive
        for row in report.rows:
            assert row.results["quarter"].upper <= row.results["half"].upper

    def test_edge_interior_point_looks_like_half_plane(self):
        cfg = ScanConfig(generator=unit_square_generator(), center=(0.5, 0.0),
                         scales=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
                         window_radius=1.0, models=("quarter", "half"),
                         rule="lambda/8")
        report = tangent_scan(cfg)
        assert report.verdict.best_model == "half"

    def test_model_scanned_against_itself_is_discretization_tight(self):
        cfg = ScanConfig(generator=make_generator("plane"),
                         center=(0.0, 0.0),
                         scales=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4),
                         window_radius=1.0, models=("plane",), rule="lambda/8")
        report = tangent_scan(cfg)
        for row in report.rows:
            assert row.results["plane"].upper <= 2.0 / 8.0  # C*h/lam with C=2

    def test_scale_equivariance(self):
        gen = unit_square_generator()
        c = 4.0
        base_cfg = ScanConfig(generator=gen, center=(0.0, 0.0),
                              scales=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
                              window_radius=1.0, models=("quarter",),
                              rule="lambda/8")
        scaled_cfg = ScanConfig(generator=ScaledGenerator(gen, c),
                                center=(0.0, 0.0),
                                scales=tuple(c * s for s in base_cfg.scales),
                                window_radius=1.0, models=("quarter",),
                                rule="lambda/8")
        a = tangent_scan(base_cfg)
        b = tangent_scan(scaled_cfg)
        for ra, rb in zip(a.rows, b.rows):
            assert rb.lam == pytest.approx(c * ra.lam)
            assert ra.results["quarter"].upper == pytest.approx(
                rb.results["quarter"].upper, abs=1e-9)

    def test_flat_snowflake_decreasing_trend(self):
        gen = FlatSnowflakeGenerator()
        cfg = ScanConfig(generator=gen, center=("vertex", 3, 17),
                         scales=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
                         window_radius=1.0, models=("line",), rule="lambda/32")
        report = tangent_scan(cfg)
        ups = [row.results["line"].upper for row in report.rows]
        assert ups[-1] < ups[0]

    def test_scales_must_decrease(self):
        with pytest.raises(DomainError):
            ScanConfig(generator=unit_square_generator(), center=(0, 0),
                       scales=(0.25, 0.5), window_radius=1.0, models=("plane",))

    @pytest.mark.parametrize("scales,radius", [((0.5, math.nan), 1.0), ((math.inf, 0.5), 1.0),
                                               ((0.5, 0.0), 1.0),
                                               ((0.5, 0.25), math.nan),
                                               ((0.5, 0.25), math.inf),
                                               ((0.5, 0.25), 0.0)])
    def test_scales_and_radius_must_be_finite(self, scales, radius):
        with pytest.raises(DomainError, match="finite"):
            ScanConfig(generator=unit_square_generator(), center=(0, 0),
                       scales=scales, window_radius=radius, models=("plane",))

    @pytest.mark.parametrize("rule", ["lambda/0", "lambda/-8", "lambda/inf", "lambda/nan",
                                      "foo", "lambda/abc", "Lambda/8",
                                      lambda lam: lam / 8])
    def test_rule_needs_a_finite_positive_divisor(self, rule):
        with pytest.raises(DomainError, match="resolution rule"):
            ScanConfig(generator=unit_square_generator(), center=(0, 0),
                       scales=(0.5, 0.25), window_radius=1.0, models=("plane",),
                       rule=rule)


def corner_config(scales=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5), generator=None):
    return ScanConfig(generator=generator or unit_square_generator(), center=(0.0, 0.0),
                      scales=scales, window_radius=1.0, models=("quarter", "half"),
                      rule="lambda/4")


@pytest.fixture
def solves(monkeypatch):
    """Count the pointed GH solves a scan makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = tangent_lab.pointed_gh_bounds
    monkeypatch.setattr(tangent_lab, "pointed_gh_bounds", counting)
    return calls


class RescaledTemplate:
    """Fake generator: one fixed window, scaled to every requested scale (so
    every rescaled window has the same matrix), with a base and labels that
    may change from call to call."""

    def __init__(self, bases, swap_labels=(False,)):
        # diameter below 1: any point can be the base of a radius-1 window
        self.template = model_tangent_space("quarter", 0.5, 1 / 8).space
        self.bases, self.swap, self.calls = bases, swap_labels, 0

    def sample_ball(self, center, radius_phys, h):
        i, self.calls = self.calls, self.calls + 1
        labels = [(l[1], l[0]) if self.swap[i % len(self.swap)] else l
                  for l in self.template.labels]
        labels = tuple((x * radius_phys, y * radius_phys) for x, y in labels)
        space = FiniteMetricSpace(self.template.dist * radius_phys, labels)
        return space, self.bases[i % len(self.bases)]


def assert_rows_equal_the_frozen_loop(report, cfg):
    want = reference_tangent_scan(cfg)
    assert len(report.rows) == len(want)
    for row, (lam, points, results) in zip(report.rows, want):
        assert (row.lam, row.points) == (lam, points)
        for kind in cfg.models:
            got, ref = row.results[kind], results[kind]
            assert (got.lower, got.upper, got.exact) == (ref.lower, ref.upper, ref.exact)
            assert got.witness.pairs == ref.witness.pairs


class TestScanMemo:
    @pytest.mark.parametrize("scales", [(2.0 ** -3, 2.0 ** -4, 2.0 ** -5), (2.0, 1.0, 0.5)])
    def test_rows_equal_the_frozen_scan_loop(self, scales):
        # the second schedule clips the first window at the square's far sides
        cfg = corner_config(scales)
        assert_rows_equal_the_frozen_loop(tangent_scan(cfg), cfg)

    def test_one_model_window_per_kind_on_a_non_dyadic_schedule(self, monkeypatch):
        built = []

        def counting(kind, R, h):
            built.append(kind)
            return model_tangent_space(kind, R, h)

        monkeypatch.setattr(tangent_lab, "model_tangent_space", counting)
        cfg = ScanConfig(generator=unit_square_generator(), center=(0.0, 0.0),
                         scales=(0.3, 0.2, 0.1), window_radius=1.0,
                         models=("quarter", "half"), rule="lambda/7")
        report = tangent_scan(cfg)
        assert built == ["quarter", "half"]
        assert_rows_equal_the_frozen_loop(report, cfg)

    def test_mixed_case_model_kind_is_refused(self):
        cfg = ScanConfig(generator=unit_square_generator(), center=(0.0, 0.0),
                         scales=(0.5, 0.25), window_radius=1.0, models=("Quarter",),
                         rule="lambda/4")
        with pytest.raises(DomainError, match="unknown model tangent kind"):
            tangent_scan(cfg)

    def test_self_similar_corner_solves_each_model_once(self, solves):
        report = tangent_scan(corner_config())
        assert len(solves) == 2
        assert [row.reused for row in report.rows] == [(), ("quarter", "half"),
                                                       ("quarter", "half")]
        for row in report.rows[1:]:
            for kind in ("quarter", "half"):
                assert row.results[kind] is report.rows[0].results[kind]

    def test_clipped_window_is_solved_on_its_own(self, solves):
        report = tangent_scan(corner_config((2.0, 1.0, 0.5)))
        assert len(solves) == 4
        assert [row.reused for row in report.rows] == [(), (), ("quarter", "half")]

    def test_memo_lives_for_one_call(self, solves):
        tangent_scan(corner_config())
        tangent_scan(corner_config())
        assert len(solves) == 4

    @pytest.mark.parametrize("bases,swap,last_reused", [
        ((0, 1, 2), (False,), ()),                                 # a new base per row
        ((0,), (False, True, False), ("quarter", "half"))])      # mirrored labels in row 1
    def test_same_matrix_with_another_base_or_seed_is_solved_again(self, solves, bases,
                                                                   swap, last_reused):
        cfg = corner_config(generator=RescaledTemplate(bases, swap))
        report = tangent_scan(cfg)
        twin = RescaledTemplate(bases, swap)
        windows = [extract_window(twin, (0, 0), lam, 1.0, lam / 4) for lam in cfg.scales]
        M = model_tangent_space("quarter", 1.0, 1 / 4)
        keys = [(w.base, nearest_position_seed(w, M).pairs) for w in windows]
        assert all(np.array_equal(w.space.dist, windows[0].space.dist) for w in windows)
        assert keys[1] not in (keys[0], keys[2])
        assert [row.reused for row in report.rows] == [(), (), last_reused]
        assert len(solves) == 6 - len(last_reused)


class TestClassify:
    def test_zero_column_wins_flat_and_conclusive(self):
        report = synthetic_report({"plane": [0.0, 0.0, 0.0],
                                   "half": [0.4, 0.4, 0.4]})
        v = classify_tangent(report)
        assert v.best_model == "plane"
        assert v.trend == "flat"
        assert v.conclusive

    def test_tied_models_are_inconclusive(self):
        # equal uppers with zero lowers: the gap rule fires
        report = synthetic_report({"a": [0.3, 0.2, 0.11],
                                   "b": [0.3, 0.2, 0.12]})
        v = classify_tangent(report)
        assert v.trend == "inconclusive"
        assert not v.conclusive

    def test_monotone_column_is_decreasing(self):
        report = synthetic_report({"a": [0.30, 0.18, 0.11, 0.06]})
        v = classify_tangent(report)
        assert v.trend == "decreasing"

    def test_needs_three_rows(self):
        report = synthetic_report({"a": [0.3, 0.2]})
        with pytest.raises(DomainError):
            classify_tangent(report)


class TestSeeds:
    def test_position_seed_none_for_plain_labels(self):
        from metric_lab.metric_core import FiniteMetricSpace, PointedWindow
        sp = FiniteMetricSpace([[0, 1], [1, 0]], ("a", "b"))
        w = PointedWindow(sp, 0, 1.0, 1.0)
        assert nearest_position_seed(w, w) is None

    def test_position_seed_is_identity_for_identical_windows(self):
        w = model_tangent_space("quarter", 1.0, 1 / 8)
        seed = nearest_position_seed(w, w)
        assert all(i == j for i, j in seed.pairs)

    def test_pillow_points_partner_their_own_slit_and_sheet(self):
        # the window holds pillows of three slits, both sheets and their
        # glued rims: every pillow point shares its planar position with lip
        # nodes and with the other sheets, and only the lift keeps them apart
        from metric_lab.fractal_gen import SlitSchedule

        gen = make_generator("pillow-carpet", sched=SlitSchedule((0.5, 0.5)))
        W = extract_window(gen, (0.5, 0.25), 0.5, 1.0, 1 / 16)
        labels = W.space.labels
        pillow = {l[3:5] for l in labels if len(l) > 2 and l[2] == "P"}
        assert {slit for slit, _ in pillow} == {0, 1, 3}
        assert {sheet for _, sheet in pillow} == {"A", "B", "G"}
        seed = nearest_position_seed(W, W)
        partners = [(labels[i], labels[j]) for i, j in seed.pairs if labels[i][2:3] == ("P",)]
        assert len(partners) >= sum(len(l) > 2 and l[2] == "P" for l in labels)
        for mine, theirs in partners:
            assert theirs[2:5] == mine[2:5]


def tied_points(W1, W2) -> int:
    """Points of W1 at exactly the same least seed distance from two or more
    points of W2 (the seed coordinates' squared distances, as summed)."""
    q1, q2 = tangent_lab._seed_coordinates(W1), tangent_lab._seed_coordinates(W2)
    d2 = sum((q1[:, None, c] - q2[None, :, c]) ** 2 for c in range(q1.shape[1]))
    return int(np.sum((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1))


def line_window(labels, base, radius):
    """A window of points on the x-axis, labelled (x, 0, tags...)."""
    xs = [label[0] for label in labels]
    return PointedWindow(FiniteMetricSpace(np.abs(np.subtract.outer(xs, xs)), labels),
                         base, 1.0, radius)


def seed_windows(case):
    from metric_lab.fractal_gen import SlitSchedule

    if case == "grid-ties":  # every odd fine node sits halfway between coarse ones
        return model_tangent_space("quarter", 1.0, 1 / 8), model_tangent_space("half", 1.0, 1 / 4)
    sched = SlitSchedule((0.5, 0.5))
    if case == "lips":
        W = extract_window(make_generator("slit-carpet", sched=sched), (0.5, 0.25),
                           1 / 4, 1.0, 1 / 32)
        return W, model_tangent_space("t", 1.0, 1 / 8)
    W = extract_window(make_generator("pillow-carpet", sched=sched), (0.5, 0.25),
                       1 / 2, 1.0, 1 / 16)
    return W, extract_window(make_generator("slit-carpet", sched=sched), (0.5, 0.25),
                             1 / 4, 1.0, 1 / 32)


class TestPositionSeedOracle:
    @pytest.mark.parametrize("chunk", [1, 1000, tangent_lab._NEAREST_CHUNK])
    @pytest.mark.parametrize("case", ["grid-ties", "lips", "pillow"])
    def test_matches_the_pairwise_oracle(self, monkeypatch, case, chunk):
        # chunk 1 takes one row per block; 1000 cuts the grid case's 58 rows
        # against 29 points into blocks of 34 and 24, and 29 rows against 58
        # into blocks of 17 and 12
        monkeypatch.setattr(tangent_lab, "_NEAREST_CHUNK", chunk)
        W1, W2 = seed_windows(case)
        assert tied_points(W1, W2) + tied_points(W2, W1) > 0
        for a, b in ((W1, W2), (W2, W1)):
            assert nearest_position_seed(a, b).pairs == reference_position_seed(a, b).pairs

    def test_exact_ties_take_the_lowest_index(self):
        # the point at x = 1/2 of W1 lies halfway between x = 0 and x = 1 of W2
        W1 = line_window(((0.0, 0.0), (0.5, 0.0)), 0, 1.0)
        W2 = line_window(((0.0, 0.0), (1.0, 0.0)), 0, 1.0)
        assert nearest_position_seed(W1, W2).pairs == ((0, 0), (1, 0), (1, 1))
        W2 = line_window(((1.0, 0.0), (0.0, 0.0)), 1, 1.0)
        assert nearest_position_seed(W1, W2).pairs == ((0, 1), (1, 0))

    def test_a_lift_on_one_side_only_still_counts(self):
        # W2's glued sheet "H" shares W1's planar position (1, 0) but lies far
        # along the lift axis, which is zero everywhere in W1: W1's point 1
        # takes W2's point 2, half a unit away in the plane
        W1 = line_window(((0.0, 0.0), (1.0, 0.0), (1.5, 0.0)), 0, 1.5)
        W2 = line_window(((0.0, 0.0), (1.0, 0.0, "H"), (1.5, 0.0)), 0, 1.5)
        seed = nearest_position_seed(W1, W2)
        assert seed.pairs == ((0, 0), (1, 1), (1, 2), (2, 2))
        assert seed.pairs == reference_position_seed(W1, W2).pairs

    def test_memory_stays_within_the_chunks_on_large_windows(self):
        # a 40 x 40 grid seen from two bases: a whole distance block would be
        # 1600 x 1600 float64 = 20 MB, two of them at once (41 MB traced); the
        # 2 MB chunks and the pairs read 6.4 MB
        xy = np.array([(x, y) for x in range(40) for y in range(40)], dtype=float)
        space = FiniteMetricSpace(np.hypot(np.subtract.outer(xy[:, 0], xy[:, 0]),
                                           np.subtract.outer(xy[:, 1], xy[:, 1])),
                                  tuple(map(tuple, xy.tolist())))
        W1 = PointedWindow(space, 0, 1.0, float(space.dist[0].max()))
        W2 = PointedWindow(space, 820, 1.0, float(space.dist[820].max()))
        tracemalloc.start()
        try:
            seed = nearest_position_seed(W1, W2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seed.pairs) >= space.n
        assert peak < 12e6, peak


class TestSlitCarpetScan:
    def test_slit_endpoint_scan_is_reported_not_asserted(self):
        # constant fractions keep the slit visible at every scale: the table
        # is exploratory output; only its internal sanity is asserted.  Each
        # window builds only its box, so the scan reaches h = 2^-11
        from metric_lab.fractal_gen import SlitSchedule

        gen = make_generator("slit-carpet", sched=SlitSchedule((0.5, 0.5)))
        cfg = ScanConfig(generator=gen, center=(0.5, 0.25),
                         scales=tuple(2.0 ** -k for k in range(3, 9)),
                         window_radius=1.0, models=("t", "plane"),
                         rule="lambda/8")
        report = tangent_scan(cfg)
        for row in report.rows:
            assert row.points == 153
            for res in row.results.values():
                assert 0.0 <= res.lower <= res.upper
        # the tip's window is the same at every scale from 2^-3 down, so every
        # later row reuses the first row's solves
        assert [len(row.reused) for row in report.rows] == [0, 2, 2, 2, 2, 2]
        assert report.verdict is not None

