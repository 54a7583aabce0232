"""Tests for carpets, snowflakes, the square map, Wu's line and model tangents."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from metric_lab.errors import (
    ConstructionError,
    DomainError,
    ResolutionError,
    ScheduleError,
)
from metric_lab import fractal_gen
from metric_lab.fractal_gen import (
    MAX_SPACE_POINTS,
    MODEL_KINDS,
    FlatSnowflakeGenerator,
    SlitSchedule,
    default_wu_schedule,
    make_generator,
    model_tangent_space,
    phi_half_disk_sample,
    product_rug_space,
    slit_plane_distance,
    snowflake_polyline,
    square_map_phi,
    SlitPlanePoint,
    wu_L,
    wu_line_metric,
    WuSchedule,
    whole_carpet_graph,
)
from metric_lab.grids import GridGraph
from metric_lab.metric_core import validate_metric

from .oracles import (
    REFERENCE_EUCLID_MODELS,
    REFERENCE_MODEL_GRAPHS,
    REFERENCE_SQUARE,
    dijkstra_dict,
    reference_carpet_graph,
    reference_carpet_matrix,
    reference_euclid_window,
    reference_graph_adjacency,
    reference_graph_window,
    reference_model_graph_window,
    reference_snowflake_window,
    single_slit_grid_adjacency,
)


def slit_carpet_space(sched, h):
    return whole_carpet_graph(sched, h).space()


def pillow_carpet_space(sched, h):
    return whole_carpet_graph(sched, h, pillows=True).space()


class TestSlitCarpet:
    def test_harmonic_level_count_must_not_be_negative(self):
        assert SlitSchedule.harmonic(0) == SlitSchedule(())
        with pytest.raises(ScheduleError, match="-2"):
            SlitSchedule.harmonic(-2)

    def test_more_levels_than_any_mesh_resolves_are_refused_before_building(self):
        # level i needs 1/h divisible by 2^(i + 1), and 1/h <= MAX_MESH_STEPS = 2^12
        assert len(SlitSchedule.harmonic(12).r) == 12
        t0 = time.perf_counter()
        for levels in (13, 10 ** 8):
            with pytest.raises(ResolutionError, match=f"{levels} slit generations"):
                SlitSchedule.harmonic(levels)
        assert time.perf_counter() - t0 < 0.1

    def test_zero_levels_is_plain_grid(self):
        sp = slit_carpet_space(SlitSchedule(()), 1 / 8)
        assert sp.n == 81
        i0 = sp.labels.index((0.0, 0.0))
        i1 = sp.labels.index((1.0, 1.0))
        # 4-neighbor intrinsic metric: corner-to-corner is the L1 value
        assert sp.dist[i0, i1] == pytest.approx(2.0, abs=1e-12)
        assert sp.dist[i0, i1] >= math.sqrt(2.0)
        assert validate_metric(sp) == []

    def test_slit_duplicates_and_detour(self):
        h = 1 / 16
        sp = slit_carpet_space(SlitSchedule((0.5,)), h)
        iL = sp.labels.index((0.5, 0.5, "L"))
        iR = sp.labels.index((0.5, 0.5, "R"))
        # the two sides of the slit midpoint: around either endpoint
        assert sp.dist[iL, iR] == pytest.approx(0.5, abs=1e-12)
        ia = sp.labels.index((0.5 - h, 0.5))
        ib = sp.labels.index((0.5 + h, 0.5))
        assert sp.dist[ia, ib] == pytest.approx(0.5 + 2 * h, abs=1e-12)
        assert validate_metric(sp) == []

    def test_straddle_matches_independent_dijkstra(self):
        h = 1 / 16
        sp = slit_carpet_space(SlitSchedule((0.5,)), h)
        adj, step = single_slit_grid_adjacency(16, 0.5)
        dist = dijkstra_dict(adj, (7, 8))  # (0.5 - h, 0.5) in grid units
        oracle = dist[(9, 8)]
        ia = sp.labels.index((0.5 - h, 0.5))
        ib = sp.labels.index((0.5 + h, 0.5))
        assert sp.dist[ia, ib] == pytest.approx(oracle, abs=1e-12)

    def test_intrinsic_dominates_euclidean(self):
        sp = slit_carpet_space(SlitSchedule.harmonic(2), 1 / 16)
        pos = np.array([(l[0], l[1]) for l in sp.labels])
        euclid = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        assert np.all(sp.dist >= euclid - 1e-12)

    def test_two_levels_validate(self):
        sp = slit_carpet_space(SlitSchedule((0.5, 0.5)), 1 / 16)
        assert validate_metric(sp) == []

    def test_resolution_error_names_level(self):
        with pytest.raises(ResolutionError, match="level 0"):
            slit_carpet_space(SlitSchedule((0.1,)), 1 / 8)

    def test_mesh_must_center_slits(self):
        with pytest.raises(ResolutionError, match="divisible"):
            slit_carpet_space(SlitSchedule((0.5, 0.5)), 1 / 6)

    @pytest.mark.parametrize("box", [(0, 64, 0, 64), (0, 0, 0, 0), (10, 30, 40, 47),
                                     (31, 33, 0, 64), (50, 64, 20, 21), (5, 6, 5, 6)])
    def test_a_box_lists_the_slits_it_meets_by_their_whole_carpet_numbers(self, box):
        # the whole table numbers its slits 0, 1, ... (pillow keys carry the
        # number); a box keeps those whose column lies in [xa, xb] and whose
        # ends meet [ya, yb], under the same numbers
        sched = SlitSchedule.harmonic(4)
        whole = fractal_gen._slit_table(sched, 64)
        assert [s[0] for s in whole] == list(range(1 + 4 + 16 + 64))
        xa, xb, ya, yb = box
        assert fractal_gen._slit_table(sched, 64, box) == [
            s for s in whole if xa <= s[1] <= xb and s[2] <= yb and ya <= s[3]]

    def test_a_window_clear_of_an_unresolved_level_is_refused_as_the_whole_carpet_is(self):
        # level 1 (fraction 0.05, slits 0.4 grid edges long, centred on rows
        # 4 and 12) cannot be resolved at h = 1/16; the window's box
        # [0, 4] x [5, 11] meets no level-1 slit
        sched = SlitSchedule((0.5, 0.05))
        message = "level 1: mesh 1/16 too coarse"
        with pytest.raises(ResolutionError, match=message):
            slit_carpet_space(sched, 1 / 16)
        with pytest.raises(ResolutionError, match=message):
            make_generator("slit-carpet", sched=sched).sample_ball((1 / 16, 0.5), 1 / 16, 1 / 16)

    def test_harmonic_preset(self):
        sched = SlitSchedule.harmonic(3)
        assert sched.r == pytest.approx((1 / math.sqrt(2), 1 / math.sqrt(3), 0.5))
        assert all(0 < v < 1 for v in sched.r)

    def test_slit_fraction_bounds(self):
        with pytest.raises(ScheduleError):
            SlitSchedule((1.0,))
        with pytest.raises(ScheduleError):
            SlitSchedule((0.5, -0.2))


class TestGraphWindows:
    """Every graph window equals the frozen unbounded, symmetrised search,
    bit for bit and in the same order."""

    @pytest.mark.parametrize("R,h", [(1.0, 1 / 8), (1.5, 1 / 8), (1.0, 1 / 16),
                                     (0.75, 1 / 16)])
    @pytest.mark.parametrize("kind", ["t", "l", "d"])
    def test_model_windows_match_frozen_reference(self, kind, R, h):
        labels, dist, base = reference_model_graph_window(kind, R, h)
        w = model_tangent_space(kind, R, h)
        assert w.space.labels == labels
        assert np.array_equal(w.space.dist, dist)
        assert w.base == base
        assert np.array_equal(w.space.dist, w.space.dist.T)

    @pytest.mark.parametrize("h,R", [(1 / 8, 1.5), (1 / 16, 0.5), (0.3, 1.5), (1 / 3, 1.0),
                                     (0.1, 0.5)])
    @pytest.mark.parametrize("kind,centers", [
        # grid indices and tags: the tip, lips, both sides and the negative axis
        ("t", [(0, 0), (3, 0, "U"), (2, 0, "D"), (1, 2), (2, -1), (-2, 0)]),
        # lips, H (above the lips and the negative axis), and t off the seam
        ("l", [(2, 0, "U"), (3, 0, "D"), (2, 1, "H"), (-1, 2, "H"), (1, -2), (-2, 1)]),
        # the seam on both axes and both sheets
        ("d", [(0, 0), (2, 0), (0, 3), (1, 2, "A"), (3, 1, "B")]),
    ])
    def test_model_windows_off_the_origin_match_the_frozen_graphs(self, kind, centers, h, R):
        # the frozen graph is wide enough for every path between window points
        graph = REFERENCE_MODEL_GRAPHS[kind](math.ceil(3 * R / h) + 4, h).build()
        for ix, iy, *tags in centers:
            center = (ix * h, iy * h, *tags)
            sp, base = make_generator(kind).sample_ball(center, R, h)
            labels, dist, ref_base = reference_graph_window(graph, center, R)
            assert sp.labels == labels, center
            assert np.array_equal(sp.dist, dist), center
            assert base == ref_base, center

    @pytest.mark.parametrize("M", [16, 32, 64])
    @pytest.mark.parametrize("pillows", [False, True])
    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    def test_carpet_windows_match_frozen_reference(self, levels, pillows, M):
        # each window builds only its box; the reference searches the whole
        # carpet.  Centres: the corners and edge midpoints (boxes clipped at
        # the carpet's edges), seeded grid nodes, slit lips and pillow nodes
        h, sched = 1 / M, SlitSchedule.harmonic(levels)
        graph = reference_carpet_graph(sched, h, pillows)
        gen = make_generator("pillow-carpet" if pillows else "slit-carpet", sched=sched)
        rng = np.random.default_rng(1000 * levels + 10 * pillows + M)
        centers = [(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0) if (x, y) in graph.index]
        for tagged in (2, 3, 7):  # grid nodes, slit lips, pillow nodes
            keys = [k for k in graph.keys if len(k) == tagged]
            centers += [keys[i] for i in rng.choice(len(keys), min(len(keys), 2), replace=False)]
        # the reference searches the whole carpet from every window node, so
        # the finer meshes get only the smaller radii (R <= 256 h^2)
        for R in (1 / 16, 1 / 8, 1 / 4, 1 / 2):
            for center in centers if h <= R <= 256 * h * h else ():
                sp, base = gen.sample_ball(center, R, h)
                labels, dist, ref_base = reference_graph_window(graph, center, R)
                assert sp.labels == labels, (center, R)
                assert np.array_equal(sp.dist, dist), (center, R)
                assert base == ref_base, (center, R)

    @pytest.mark.parametrize("levels,M,pillows", [(2, 16, False), (2, 32, False),
                                                  (2, 16, True), (3, 56, False)])
    def test_whole_carpets_match_frozen_dijkstra(self, levels, M, pillows):
        # the breadth-first hop counts through T against scipy's Dijkstra
        # over the frozen csr graph: 312, 1146, 705 and 3428 points
        sched = SlitSchedule.harmonic(levels)
        labels, dist = reference_carpet_matrix(sched, 1 / M, pillows)
        sp = whole_carpet_graph(sched, 1 / M, pillows).space()
        assert sp.labels == labels
        assert np.array_equal(sp.dist, dist)

    def test_small_carpet_with_lips_and_pillows_matches_hand_written_dijkstra(self):
        # an oracle without scipy: the heap Dijkstra over the frozen edge list
        sched, h = SlitSchedule.harmonic(2), 1 / 8
        sp = whole_carpet_graph(sched, h, pillows=True).space()
        adj = reference_graph_adjacency(reference_carpet_graph(sched, h, pillows=True))
        assert {len(k) for k in sp.labels} == {2, 3, 7}  # grid nodes, lips, pillows
        rows = [dijkstra_dict(adj, u) for u in sp.labels]
        oracle = np.array([[row[v] for v in sp.labels] for row in rows])
        assert np.array_equal(sp.dist, oracle)

    @pytest.mark.parametrize("pillows", [False, True])
    def test_fine_carpet_window_builds_only_its_box(self, pillows):
        # harmonic(8) at lambda = 2^-8, h = lambda/16: the whole carpet has 4097^2
        # grid nodes, the window's box 67^2 (and its pillows to depth 33)
        gen = make_generator("pillow-carpet" if pillows else "slit-carpet",
                             sched=SlitSchedule.harmonic(8))
        tracemalloc.start()
        try:
            sp, base = gen.sample_ball((0.375, 0.5), 2.0 ** -8, 2.0 ** -12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert sp.labels[base] == (0.375, 0.5)
        assert np.array_equal(sp.dist, sp.dist.T) and sp.dist[base].max() <= 2.0 ** -8

    @pytest.mark.parametrize("space", [slit_carpet_space, pillow_carpet_space])
    def test_whole_carpets_are_exactly_symmetric(self, space):
        d = space(SlitSchedule.harmonic(2), 1 / 16).dist
        assert np.array_equal(d, d.T)

    def test_single_slit_window_matches_independent_dijkstra(self):
        M, R = 16, 0.3
        gen = make_generator("slit-carpet", sched=SlitSchedule((0.5,)))
        sp, base = gen.sample_ball((0.375, 0.5), R, 1 / M)
        adj, step = single_slit_grid_adjacency(M, 0.5)
        nodes = [(round(l[0] * M), round(l[1] * M)) + tuple(l[2:]) for l in sp.labels]
        assert nodes[base] == (6, 8)
        rows = {u: dijkstra_dict(adj, u) for u in nodes}
        assert {v for v, dv in rows[(6, 8)].items() if dv <= R + 1e-9} == set(nodes)
        oracle = np.array([[rows[u][v] for v in nodes] for u in nodes])
        assert np.allclose(sp.dist, oracle, rtol=0, atol=1e-12)

    def test_non_dyadic_mesh_snaps_the_center(self):
        # 24 * (1/80) != 0.3 in floats; the center is still a grid node
        gen = make_generator("slit-carpet", sched=SlitSchedule((0.5,)))
        sp, base = gen.sample_ball((0.3, 0.0), 0.125, 1 / 80)
        assert sp.labels[base] == (24 * (1 / 80), 0.0)
        assert sp.dist[base].max() <= 0.125 + 1e-9

    @pytest.mark.parametrize("center", [(0.5, 0.5), (0.3 + 1 / 160, 0.0)])
    def test_center_off_the_carpet_graph_is_refused(self, center):
        # a slit-interior point exists only as its two lips; a point between
        # grid nodes is no node at all
        gen = make_generator("slit-carpet", sched=SlitSchedule((0.5,)))
        with pytest.raises(DomainError, match="not a node"):
            gen.sample_ball(center, 0.125, 1 / 80)

    @pytest.mark.parametrize("space", ["square", "slit-carpet"])
    def test_non_planar_center_is_a_domain_error(self, space):
        gen = make_generator(space, sched=SlitSchedule((0.5,)))
        with pytest.raises(DomainError, match="planar position"):
            gen.sample_ball(("vertex", 3, 17), 0.125, 1 / 16)


class TestPillowCarpet:
    def test_no_slits_reduces_to_plain_carpet(self):
        a = slit_carpet_space(SlitSchedule(()), 1 / 8)
        b = pillow_carpet_space(SlitSchedule(()), 1 / 8)
        assert a.labels == b.labels
        assert np.array_equal(a.dist, b.dist)

    def test_pillow_bounds_duplicate_distance(self):
        h = 1 / 16
        sched = SlitSchedule((0.5,))
        plain = slit_carpet_space(sched, h)
        pillow = pillow_carpet_space(sched, h)
        iL = pillow.labels.index((0.5, 0.5, "L"))
        iR = pillow.labels.index((0.5, 0.5, "R"))
        jL = plain.labels.index((0.5, 0.5, "L"))
        jR = plain.labels.index((0.5, 0.5, "R"))
        # attaching sheets only adds paths, and the over-the-pillow route
        # bounds the gap by the pillow circumference 2*l(s)
        assert pillow.dist[iL, iR] <= plain.dist[jL, jR] + 1e-12
        assert pillow.dist[iL, iR] <= 2 * 0.5 + 1e-12
        assert validate_metric(pillow) == []

    def test_pillow_adds_points_but_keeps_carpet_metric_dominated(self):
        h = 1 / 8
        sched = SlitSchedule((0.5,))
        plain = slit_carpet_space(sched, h)
        pillow = pillow_carpet_space(sched, h)
        assert pillow.n > plain.n
        common = [l for l in plain.labels]
        pi = [pillow.labels.index(l) for l in common]
        qi = [plain.labels.index(l) for l in common]
        assert np.all(pillow.dist[np.ix_(pi, pi)] <= plain.dist[np.ix_(qi, qi)] + 1e-12)


class TestSnowflake:
    def test_stage_zero_is_an_interval(self):
        sp = snowflake_polyline(0, window=(0.25, 0.75))
        assert sp.n == 2
        assert sp.dist[0, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_standard_arc_length(self, stage):
        sp = snowflake_polyline(stage)
        assert sp.dist[0, -1] == pytest.approx((4.0 / 3.0) ** stage, rel=1e-12)

    def test_nearly_flat_arc_length(self):
        sp = snowflake_polyline(3, [1 + 1e-6] * 3)
        assert abs(sp.dist[0, -1] - 1.0) < 1e-5

    def test_exactly_flat_stage_collapses(self):
        sp = snowflake_polyline(2, [1.0, 1.0])
        ys = np.array([l[1] for l in sp.labels])
        assert np.all(ys == 0.0)

    def test_legs_shorter_than_half_base_rejected(self):
        with pytest.raises(ConstructionError):
            snowflake_polyline(1, [0.9])

    def test_self_intersecting_stage_rejected(self):
        with pytest.raises(ConstructionError, match="self-intersects"):
            snowflake_polyline(3, [4.0, 4.0, 4.0])

    def test_arc_metric_is_valid(self):
        sp = snowflake_polyline(3)
        assert validate_metric(sp) == []

    def test_negative_stage_rejected(self):
        # range(1, 0) is empty, so stage -1 used to pass as a 2-point stage 0
        with pytest.raises(DomainError, match="stage"):
            snowflake_polyline(-1)
        with pytest.raises(DomainError, match="stage"):
            FlatSnowflakeGenerator().vertex_position(-1, 0)

    @pytest.mark.parametrize("flatness", [[1.5, 1.5], (), [2.0]])
    def test_short_flatness_schedule_is_a_schedule_error(self, flatness):
        # used to end in an IndexError from the schedule lookup
        with pytest.raises(ScheduleError, match="3 stages"):
            snowflake_polyline(3, flatness)

    @pytest.mark.parametrize("flatness", ["Standard", "flat", lambda k: 2.0, [1.5, "x"]])
    def test_flatness_is_a_name_or_numbers(self, flatness):
        with pytest.raises(ScheduleError, match="flatness"):
            snowflake_polyline(2, flatness)
        with pytest.raises(ScheduleError, match="flatness"):
            FlatSnowflakeGenerator(flatness)

    def test_named_schedules_equal_their_values(self):
        for name, values in (("standard", [2.0] * 3), ("1+2^-k", [1.5, 1.25, 1.125])):
            a, b = snowflake_polyline(3, name), snowflake_polyline(3, values)
            assert np.array_equal(a.dist, b.dist) and a.labels == b.labels

    def test_stage_beyond_the_sweep_limit_raises_before_building(self):
        t0 = time.perf_counter()
        with pytest.raises(ConstructionError, match="4097"):
            snowflake_polyline(7)  # 16385 vertices: a 2.1 GB arc-length matrix
        assert time.perf_counter() - t0 < 1.0


class TestFlatSnowflakeGenerator:
    def test_window_is_a_chordal_ball_around_the_vertex(self):
        gen = FlatSnowflakeGenerator()
        sp, base = gen.sample_ball(("vertex", 3, 17), 2.0 ** -4, 2.0 ** -9)
        assert sp.dist[base].max() <= 2.0 ** -4 + 1e-9
        assert validate_metric(sp) == []
        pos = np.array(sp.labels)
        center = np.asarray(gen.vertex_position(3, 17))
        assert np.linalg.norm(pos[base] - center) == 0.0

    @pytest.mark.parametrize("K", [4, 16, 64])
    @pytest.mark.parametrize("flatness", ["1+2^-k", "standard"])
    def test_windows_match_frozen_segment_loop(self, flatness, K):
        # one refinement per stage under a keep mask refines the same segments
        # as the frozen loop over segments, at the benchmark scan's centre
        gen, center = FlatSnowflakeGenerator(flatness), ("vertex", 3, 17)
        for k in range(1, 9):
            lam = 2.0 ** -k
            ref = reference_snowflake_window(gen, center, lam, lam / K)
            if ref is None:  # a mesh too coarse to refine down to stage 3
                with pytest.raises(DomainError, match="not a vertex"):
                    gen.sample_ball(center, lam, lam / K)
                continue
            sp, base = gen.sample_ball(center, lam, lam / K)
            labels, dist, ref_base = ref
            assert sp.labels == labels, k
            assert np.array_equal(sp.dist, dist), k
            assert base == ref_base, k

    def test_stage_vertices_are_the_polyline_vertices(self):
        # one stage loop builds both: same schedule, same window, same vertices
        gen = FlatSnowflakeGenerator(window=(0.25, 0.75))
        sp = snowflake_polyline(3, [1 + 2.0 ** -k for k in (1, 2, 3)], window=(0.25, 0.75))
        assert np.array_equal(gen.stage_vertices(3), np.array(sp.labels))

    def test_chord_never_exceeds_arc(self):
        sp = snowflake_polyline(3, [1 + 2.0 ** -k for k in (1, 2, 3)])
        pos = np.array(sp.labels)
        chord = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        assert np.all(chord <= sp.dist + 1e-12)

    def test_mesh_refinement_is_consistent(self):
        gen = FlatSnowflakeGenerator()
        a, _ = gen.sample_ball(("vertex", 3, 17), 2.0 ** -4, 2.0 ** -8)
        b, _ = gen.sample_ball(("vertex", 3, 17), 2.0 ** -4, 2.0 ** -9)
        assert b.n >= a.n

    def test_schedule_as_values_samples_the_same_window(self):
        # 2^-4 at mesh 2^-9 refines to depth ceil(9 log 2 / log 3) = 6
        flat = FlatSnowflakeGenerator([1.0 + 2.0 ** -k for k in range(1, 7)])
        a, base_a = FlatSnowflakeGenerator().sample_ball(("vertex", 3, 17), 2.0 ** -4,
                                                         2.0 ** -9)
        b, base_b = flat.sample_ball(("vertex", 3, 17), 2.0 ** -4, 2.0 ** -9)
        assert base_a == base_b and a.labels == b.labels
        assert np.array_equal(a.dist, b.dist)

    def test_schedule_shorter_than_the_depth_is_a_schedule_error(self):
        gen = FlatSnowflakeGenerator([1.5, 1.25, 1.125, 1.0625, 1.03125])
        gen.sample_ball((0.0, 0.0), 2.0 ** -3, 2.0 ** -3 / 16)  # depth 5
        with pytest.raises(ScheduleError, match="6 stages"):
            gen.sample_ball(("vertex", 3, 17), 2.0 ** -4, 2.0 ** -9)

    def test_resolution_check(self):
        gen = FlatSnowflakeGenerator()
        with pytest.raises(ResolutionError):
            gen.sample_ball(("vertex", 3, 17), 0.01, 0.5)


class TestSquareMap:
    def test_right_angle_lands_on_negative_axis(self):
        p = square_map_phi(1.0, math.pi / 2)
        assert p.x == pytest.approx(-1.0)
        assert abs(p.y) < 1e-12
        assert p.side == 0

    def test_boundary_rays_map_to_distinct_lips(self):
        p1 = square_map_phi(0.7, 0.0)
        p2 = square_map_phi(0.7, math.pi)
        assert (p1.x, p1.y) == (p2.x, p2.y) == (pytest.approx(0.49), 0.0)
        assert p1.side == 1 and p2.side == -1
        assert slit_plane_distance(p1, p2) == pytest.approx(2 * 0.49)

    def test_angle_domain_checked(self):
        with pytest.raises(DomainError):
            square_map_phi(1.0, -0.1)
        with pytest.raises(DomainError):
            square_map_phi(1.0, math.pi + 0.1)

    def test_untagged_point_on_the_cut_rejected(self):
        with pytest.raises(DomainError):
            SlitPlanePoint(0.5, 0.0, 0)

    def test_crossing_negative_axis_is_direct(self):
        a = SlitPlanePoint(-1.0, 1.0)
        b = SlitPlanePoint(-1.0, -1.0)
        assert slit_plane_distance(a, b) == pytest.approx(2.0)

    def test_blocked_crossing_goes_around_the_tip(self):
        a = SlitPlanePoint(1.0, 0.5)
        b = SlitPlanePoint(1.0, -0.5)
        expected = math.hypot(1, 0.5) * 2
        assert slit_plane_distance(a, b) == pytest.approx(expected)

    def test_half_disk_sample_metrics_are_valid(self):
        dom, cod = phi_half_disk_sample()
        assert validate_metric(dom) == []
        assert validate_metric(cod) == []
        assert dom.n == cod.n


class TestWuLine:
    def test_spot_value(self):
        assert wu_L(0.5, 0.5) == pytest.approx(1.154700538, abs=1e-8)

    def test_coincident_points(self):
        sched = default_wu_schedule(6)
        assert wu_line_metric(0.37, 0.37, sched, 6) == 0.0

    def test_euclidean_outside_all_intervals(self):
        sched = default_wu_schedule(6)
        pairs = [(1.5, 2.7), (-3.0, -1.0), (1.01, 1.25), (2.0, 5.0), (-0.5, 0.009)]
        for x, y in pairs:
            assert wu_line_metric(x, y, sched, 6) == abs(x - y)

    def test_interval_traversal_costs_its_width(self):
        sched = default_wu_schedule(6)
        a, b = sched.interval(3)
        assert wu_line_metric(a, b, sched, 3) == pytest.approx(b - a, rel=1e-12)

    def test_symmetry_and_axioms_on_a_sample(self):
        sched = default_wu_schedule(8)
        xs = np.concatenate([np.linspace(-0.2, 1.2, 29),
                             [sum(sched.interval(3)) / 2,
                              sum(sched.interval(5)) / 2]])
        n = len(xs)
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = d[j, i] = wu_line_metric(float(xs[i]), float(xs[j]),
                                                   sched, 8)
        from metric_lab.metric_core import FiniteMetricSpace
        assert validate_metric(FiniteMetricSpace(d)) == []

    def test_schedule_violations_rejected(self):
        good = default_wu_schedule(4)
        with pytest.raises(ScheduleError):
            WuSchedule((0.5, 0.4), good.c[:2], good.s[:2]).validate(2)  # alpha drops
        with pytest.raises(ScheduleError):
            WuSchedule(good.alpha[:2], good.c[:2], (0.9, 0.9)).validate(2)  # s too big
        with pytest.raises(ScheduleError):
            good.validate(99)  # truncation beyond provided terms

    def test_truncation_must_not_be_negative(self):
        assert default_wu_schedule(0) == WuSchedule((), (), ())
        with pytest.raises(ScheduleError, match="-1"):
            default_wu_schedule(-1)
        with pytest.raises(ScheduleError, match="-1"):
            product_rug_space(("wu", default_wu_schedule(4), -1))

    def test_metric_and_rug_validate_the_schedule(self):
        good = default_wu_schedule(4)
        with pytest.raises(ScheduleError):  # no invalid schedule reaches either
            WuSchedule((0.5, 0.4), good.c[:2], good.s[:2])  # alpha drops
        with pytest.raises(ScheduleError):
            wu_line_metric(0.1, 0.2, good, 99)
        with pytest.raises(ScheduleError):
            product_rug_space(("wu", good, 99))  # truncation beyond provided terms


class TestProductRug:
    def test_rickman_near_one_is_almost_euclidean(self):
        rug = product_rug_space(("rickman", 0.999), (-1.0, 1.0), 0.25)
        pos = np.array(rug.labels)
        euclid = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        mask = euclid > 0
        assert np.all(np.abs(rug.dist[mask] / euclid[mask] - 1.0) < 0.01)

    def test_vertical_pairs_are_plain_euclidean(self):
        rug = product_rug_space(("rickman", 0.5), (-1.0, 1.0), 0.5)
        i = rug.labels.index((0.5, -0.5))
        j = rug.labels.index((0.5, 0.5))
        assert rug.dist[i, j] == pytest.approx(1.0)

    def test_axioms_on_20_by_20_sample(self):
        rug = product_rug_space(("rickman", 0.5), (-0.95, 0.95), 0.1)
        assert rug.n == 400
        assert validate_metric(rug) == []

    def test_wu_rug(self):
        sched = default_wu_schedule(4)
        rug = product_rug_space(("wu", sched, 4), (0.0, 1.0), 0.25)
        assert validate_metric(rug) == []

    def test_exponent_domain(self):
        with pytest.raises(DomainError):
            product_rug_space(("rickman", 1.0), (-1, 1), 0.5)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_mesh_must_be_positive_and_finite(self, h):
        with pytest.raises(DomainError, match="mesh"):
            product_rug_space(("rickman", 0.5), (-1, 1), h)

    @pytest.mark.parametrize("h", [0.3, 10.0, 3.0, 2.0 / 3.0 + 1e-6])
    def test_mesh_must_divide_the_extent(self, h):
        # h = 0.3 used to sample a column at x = 1.1, h = 10 a 1-point rug
        with pytest.raises(ResolutionError, match="divide"):
            product_rug_space(("rickman", 0.5), (-1, 1), h)

    @pytest.mark.parametrize("h,extent", [(1 / 8, (-1, 1)), (1 / 4, (-1, 1)),
                                          (2.0 / 3.0, (-1, 1)), (1.0, (0, 3))])
    def test_grid_runs_from_lo_to_hi(self, h, extent):
        rug = product_rug_space(("rickman", 0.5), extent, h)
        xs = sorted({x for x, _ in rug.labels})
        assert xs[0] == extent[0] and xs[-1] == pytest.approx(extent[1], abs=1e-12)
        assert len(xs) == round((extent[1] - extent[0]) / h) + 1
        if h in (1 / 8, 1 / 4):  # dyadic: the bits of np.arange(lo, hi + h/2, h)
            assert xs == list(np.arange(extent[0], extent[1] + h / 2, h))

    def test_line_metric_is_one_of_the_two_tuples(self):
        with pytest.raises(DomainError, match="unrecognized line metric"):
            product_rug_space(lambda u, v: abs(u - v), (-1, 1), 0.5)


class TestOneSpellingOfNames:
    @pytest.mark.parametrize("kind", ["Quarter", "HALF", "T"])
    def test_mixed_case_model_kind_is_refused(self, kind):
        with pytest.raises(DomainError, match="unknown model tangent kind"):
            model_tangent_space(kind, 1.0, 0.25)

    @pytest.mark.parametrize("name", ["Square", "PLANE", "Flat-Snowflake"])
    def test_mixed_case_generator_is_refused(self, name):
        with pytest.raises(DomainError, match="unknown generator"):
            make_generator(name)


class TestModelTangents:
    @pytest.mark.parametrize("R,h", [(math.nan, 0.25), (math.inf, 0.25), (1.0, math.nan)])
    def test_non_finite_radius_or_mesh_is_refused(self, R, h):
        with pytest.raises(DomainError, match="finite"):
            model_tangent_space("quarter", R, h)

    @pytest.mark.parametrize("gen", [FlatSnowflakeGenerator(), make_generator("square"),
                                     make_generator("slit-carpet",
                                                    sched=SlitSchedule((0.5,)))])
    @pytest.mark.parametrize("R,h", [(math.nan, 0.125), (math.inf, 0.125), (1.0, math.nan)])
    def test_generators_refuse_non_finite_geometry(self, gen, R, h):
        center = ("vertex", 2, 3) if isinstance(gen, FlatSnowflakeGenerator) else (0.5, 0.5)
        with pytest.raises(DomainError, match="finite"):
            gen.sample_ball(center, R, h)

    def test_nan_mesh_does_not_divide_the_square(self):
        with pytest.raises(ResolutionError):
            slit_carpet_space(SlitSchedule((0.5,)), math.nan)

    def test_quarter_boundary_ray_distance_is_exact(self):
        w = model_tangent_space("quarter", 1.0, 1 / 8)
        i = w.space.labels.index((1.0, 0.0))
        assert w.space.dist[w.base, i] == pytest.approx(1.0, abs=1e-12)
        j = w.space.labels.index((0.0, 1.0))
        assert w.space.dist[w.base, j] == pytest.approx(1.0, abs=1e-12)

    def test_t_slit_sides_detour_through_the_tip(self):
        h = 1 / 8
        w = model_tangent_space("t", 1.5, h)
        iu = w.space.labels.index((1.0, h))
        idn = w.space.labels.index((1.0, -h))
        assert w.space.dist[iu, idn] == pytest.approx(2.0 + 2 * h, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(REFERENCE_EUCLID_MODELS))
    def test_euclidean_windows_match_frozen_reference(self, kind):
        pred, one_dim = REFERENCE_EUCLID_MODELS[kind]
        for R in (0.25, 0.5, 1.0, 1.5):
            for h in (1 / 2, 1 / 3, 1 / 4, 1 / 7, 1 / 8, 1 / 10, 0.3):
                assert (R / h) ** 2 <= 2000  # a bigger plane window is too large
                if h > R:  # the reference would return the base point alone
                    with pytest.raises(ResolutionError):
                        model_tangent_space(kind, R, h)
                    continue
                labels, dist, base = reference_euclid_window(pred, R, h, one_dim)
                w = model_tangent_space(kind, R, h)
                assert w.space.labels == labels, (R, h)
                assert np.array_equal(w.space.dist, dist), (R, h)
                assert w.base == base, (R, h)

    @pytest.mark.parametrize("h", [1 / 4, 1 / 8, 1 / 3, 0.3])
    def test_square_windows_match_frozen_reference_away_from_the_origin(self, h):
        # corners, edge midpoints and inner nodes, so that the walk is clipped
        # at 1 + TOL as well as at -TOL; at h = 0.3 the last node is 0.9
        M = math.floor((1 + 1e-9) / h)
        gen = make_generator("square")
        for i in sorted({0, 1, M // 2, M}):
            for j in sorted({0, M // 2, M - 1, M}):
                center = (i * h, j * h)
                for R in (0.25, 0.5, 1.0, 1.5):
                    if h > R:
                        continue
                    labels, dist, base = reference_euclid_window(REFERENCE_SQUARE, R, h,
                                                                 center=center)
                    sp, b = gen.sample_ball(center, R, h)
                    assert sp.labels == labels, (center, R)
                    assert np.array_equal(sp.dist, dist), (center, R)
                    assert b == base, (center, R)

    @pytest.mark.parametrize("h,centers", [
        (0.1, [(0.3, 0.1), (0.7, 0.9), (0.5, 0.5), (1.0, 0.3), (0.0, 0.6)]),
        (0.15, [(0.45, 0.3), (0.9, 0.15)]),
        (0.3, [(0.6, 0.9), (0.3, 0.0)]),
        (1 / 3, [(0.333333333333, 0.666666666667), (1.0, 0.333333333333)])])
    def test_square_windows_match_frozen_reference_at_decimal_centres(self, h, centers):
        # a decimal centre differs from its node (ix * h, iy * h) by rounding,
        # by 3e-13 at h = 1/3: the ball is measured from the centre as given
        gen = make_generator("square")
        for center in centers:
            for R in (0.25, 0.5, 1.0, 1.5):
                if h > R:
                    continue
                labels, dist, base = reference_euclid_window(REFERENCE_SQUARE, R, h,
                                                             center=center)
                sp, b = gen.sample_ball(center, R, h)
                assert sp.labels == labels, (center, R)
                assert np.array_equal(sp.dist, dist), (center, R)
                assert b == base, (center, R)

    @pytest.mark.parametrize("kind", ["square", "plane", "half", "quarter", "line"])
    @pytest.mark.parametrize("tag", ["U", "D", "H", "A", "B", "Z"])
    def test_a_tagged_centre_lies_outside_a_region(self, kind, tag):
        # a region's points are untagged grid nodes; the tag used to be dropped
        with pytest.raises(DomainError, match="lies outside the region"):
            make_generator(kind).sample_ball((0.0, 0.0, tag), 0.5, 1 / 8)

    @pytest.mark.parametrize("kind", ["plane", "line", "t", "slit-carpet"])
    @pytest.mark.parametrize("center", [(1e300, 0.0), (0.0, -1e17)])
    def test_a_centre_past_2_53_grid_steps_is_refused(self, kind, center):
        # nodes that far out share float positions, and their indices overflow
        # int64: the plane used to return a window of coinciding points at 1e17
        gen = make_generator(kind, sched=SlitSchedule((0.5,)))
        with pytest.raises(DomainError, match="within 2\\^53 steps"):
            gen.sample_ball(center, 0.5, 1 / 8)

    @pytest.mark.parametrize("kind,center", [("square", (6.5, 0.0)), ("quarter", (-2.0, 0.5)),
                                             ("line", (0.0, 3.0))])
    def test_a_centre_whose_index_box_misses_the_region_lies_outside_it(self, kind, center):
        # no column (square, quarter) or no row (line) of the walk meets the box
        with pytest.raises(DomainError, match="lies outside the region"):
            make_generator(kind).sample_ball(center, 0.5, 0.5)

    @pytest.mark.parametrize("kind,center", [
        ("t", (-0.5, 0.25)), ("t", (0.5, 0.0, "U")), ("t", (0.75, -0.125)),
        ("l", (0.5, 0.0, "D")), ("l", (-0.25, 0.5, "H")), ("l", (0.25, -0.25)),
        ("d", (0.5, 0.25, "A")), ("d", (0.0, 0.5)), ("d", (0.25, 0.75, "B"))])
    def test_graph_model_windows_away_from_the_origin(self, kind, center):
        # the model's box grows to hold the centre's: the window equals the
        # frozen search on a graph wide enough for every path
        R, h = 0.5, 1 / 8
        sp, base = make_generator(kind).sample_ball(center, R, h)
        big = REFERENCE_MODEL_GRAPHS[kind](24, h).build()
        labels, dist, ref_base = reference_graph_window(big, center, R)
        order = [labels.index(label) for label in sp.labels]
        assert sorted(order) == list(range(len(labels)))
        assert np.array_equal(sp.dist, dist[np.ix_(order, order)])
        assert sp.labels[base] == labels[ref_base] == center

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            model_tangent_space("wedge", 1.0, 0.25)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_mesh_coarser_than_the_radius_is_refused(self, kind):
        with pytest.raises(ResolutionError, match="cannot resolve"):
            model_tangent_space(kind, 1.0, 2.0)
        assert model_tangent_space(kind, 1.0, 1.0).space.n >= 2  # h == R still samples

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_windows_are_valid_metric_spaces(self, kind):
        w = model_tangent_space(kind, 1.0, 1 / 8)
        assert validate_metric(w.space) == []
        assert w.space.dist[w.base].max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_refinement_consistency(self, kind):
        # pointed GH upper bound between meshes h and h/2 stays below C*h;
        # C = 2 covers the measured constants (<= 1.0) with margin
        from metric_lab.gh_solver import pointed_gh_bounds
        from metric_lab.tangent_lab import nearest_position_seed

        h = 1 / 8
        w1 = model_tangent_space(kind, 1.0, h)
        w2 = model_tangent_space(kind, 1.0, h / 2)
        seed = nearest_position_seed(w1, w2)
        res = pointed_gh_bounds(w1, w2, extra_seeds=[seed], restarts=20)
        assert res.upper <= 2.0 * h + 1e-12


class TestValuesAreCheckedWhereTheyEnter:
    def test_invalid_wu_schedule_is_refused_at_construction(self):
        good = default_wu_schedule(4)
        with pytest.raises(ScheduleError, match="alpha must increase"):
            WuSchedule((0.5, 0.4), good.c[:2], good.s[:2])
        with pytest.raises(ScheduleError, match="s_1"):
            WuSchedule(good.alpha[:2], good.c[:2], (math.nan, 0.01))
        with pytest.raises(ScheduleError, match="outside 0..4"):
            good.validate(5)

    @pytest.mark.parametrize("flatness", [[math.inf] * 8, [0.9] * 8, [1.5, 2.0, math.nan]])
    def test_flat_snowflake_refuses_flatness_outside_one_to_inf(self, flatness):
        with pytest.raises(ConstructionError, match="flatness"):
            FlatSnowflakeGenerator(flatness)

    def test_nan_flatness_is_refused_before_refining(self):
        # used to fail late, as MalformedMatrixError from the distance matrix
        with pytest.raises(ConstructionError, match="flatness"):
            snowflake_polyline(2, [math.nan, 1.5])

    @pytest.mark.parametrize("gen,center,R,h", [
        (FlatSnowflakeGenerator(), (0.0, 0.0), 0.25, 0.0),  # ZeroDivisionError
        (FlatSnowflakeGenerator(), (0.0, 0.0), 0.25, -1.0),  # math domain error
        (make_generator("square"), (0.0, 0.0), 1.0, 0.0),  # ZeroDivisionError
        (make_generator("square"), (0.0, 0.0), -1.0, -2.0),  # a 1-point window
        (make_generator("slit-carpet", sched=SlitSchedule((0.5,))), (0.5, 0.5), 0.0, 0.0)])
    def test_window_radius_and_mesh_must_be_positive(self, gen, center, R, h):
        with pytest.raises(DomainError, match="positive and finite"):
            gen.sample_ball(center, R, h)

    @pytest.mark.parametrize("R,h", [(0.0, 0.25), (1.0, -0.25)])
    def test_model_window_refuses_non_positive_geometry(self, R, h):
        with pytest.raises(DomainError, match="positive and finite"):
            model_tangent_space("quarter", R, h)


class TestLargestStepCount:
    def test_mesh_steps_are_bounded(self):
        from metric_lab.fractal_gen import MAX_MESH_STEPS, _mesh_steps

        assert MAX_MESH_STEPS >= 2 ** 12
        assert _mesh_steps(2.0 ** -12) == 2 ** 12
        for h in (1e-300, 2.0 ** -1000, 5e-324):  # 10^300 steps, say, used to pass
            with pytest.raises(ResolutionError, match="steps"):
                _mesh_steps(h)

    @pytest.mark.parametrize("h,extent", [(1e-300, (-1.0, 1.0)), (1.0, (-1e308, 1e308))])
    def test_rug_refuses_more_steps_than_the_bound(self, h, extent):
        # 1e-300 ended in numpy's "Maximum allowed size exceeded", an infinite
        # span in an OverflowError from round()
        with pytest.raises(ResolutionError, match="steps"):
            product_rug_space(("rickman", 0.5), extent, h)

    @pytest.mark.parametrize("kind", ["plane", "t"])
    def test_model_window_refuses_more_steps_than_the_bound(self, kind):
        t0 = time.perf_counter()
        with pytest.raises(ResolutionError, match="steps"):
            model_tangent_space(kind, 1e300, 1 / 16)
        assert time.perf_counter() - t0 < 1.0


class TestSpacePointBound:
    @pytest.mark.parametrize("n,admitted", [(1, True), (MAX_SPACE_POINTS, True),
                                            (MAX_SPACE_POINTS + 1, False)])
    def test_the_bound_admits_exactly_max_space_points(self, n, admitted):
        if admitted:
            fractal_gen._check_space_points(n, 0.5)
        else:
            with pytest.raises(ResolutionError, match=f"gives {n} or more points"):
                fractal_gen._check_space_points(n, 0.5)

    @pytest.mark.parametrize("build,n", [
        # 65^2 = 4225 grid nodes at h = 1/64, at every level, with or without pillows
        (lambda: slit_carpet_space(SlitSchedule(()), 1 / 64), 4225),
        (lambda: slit_carpet_space(SlitSchedule.harmonic(1), 1 / 64), 4225),
        (lambda: slit_carpet_space(SlitSchedule.harmonic(2), 1 / 64), 4225),
        (lambda: pillow_carpet_space(SlitSchedule(()), 1 / 64), 4225),
        (lambda: pillow_carpet_space(SlitSchedule.harmonic(1), 1 / 64), 4225),
        # 49^2 grid nodes pass, the 4713 nodes with lips and pillows do not
        (lambda: pillow_carpet_space(SlitSchedule.harmonic(1), 1 / 48), 4713),
        (lambda: product_rug_space(("rickman", 0.5), (-1.0, 1.0), 1 / 32), 4225),
        (lambda: product_rug_space(("wu", default_wu_schedule(4), 4), (0.0, 1.0), 1 / 64),
         4225),
        (lambda: product_rug_space(("rickman", 0.5), (0.0, 64.0), 1.0), 4225),
        # a Euclidean window stops counting at the first point above the bound:
        # a disc of 4293 grid points at h = 1/37, a line of 2 * 2048 + 1
        (lambda: model_tangent_space("plane", 1.0, 1 / 37), 4097),
        (lambda: model_tangent_space("line", 1.0, 1 / 2048), 4097),
        (lambda: make_generator("square").sample_ball((0.5, 0.5), 0.5, 1 / 80), 4097),
        # so does a t, l or d window, one mesh finer than the finest admitted
        (lambda: model_tangent_space("t", 1.0, 1 / 45), 4097),
        (lambda: model_tangent_space("l", 1.0, 1 / 37), 4097),
        (lambda: model_tangent_space("d", 1.0, 1 / 64), 4097),
        # a snowflake window is counted once refined: 5802 vertices at h = 2^-1/2047
        (lambda: FlatSnowflakeGenerator().sample_ball((0.0, 0.0), 0.5, 0.5 / 2047), 5802),
    ], ids=["slit-0", "slit-1", "slit-2", "pillow-0", "pillow-1", "pillow-1-graph",
            "rickman-rug", "wu-rug", "unit-mesh-rug", "plane-window", "line-window",
            "square-window", "t-window", "l-window", "d-window", "snowflake-window"])
    def test_a_space_above_the_bound_is_refused_before_its_matrix(self, build, n):
        # an n x n float64 matrix of 4225 points alone takes 136 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError, match=f"gives {n} or more points"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_a_region_window_walks_only_the_indices_that_meet_its_box(self):
        # the quarter plane at h = 2^-11 reaches its 4097th point in its first
        # three columns, a few thousand of the 4097^2 indices of its index box
        t0 = time.process_time()
        with pytest.raises(ResolutionError, match="gives 4097 or more points"):
            model_tangent_space("quarter", 1.0, 2.0 ** -11)
        assert time.process_time() - t0 < 0.25

    @pytest.mark.parametrize("pillows", [False, True])
    def test_the_grid_is_counted_before_the_graph_is_built(self, monkeypatch, pillows):
        def graph(*args):
            raise AssertionError("carpet graph built before the grid was counted")
        monkeypatch.setattr(fractal_gen, "slit_carpet_graph", graph)
        space = pillow_carpet_space if pillows else slit_carpet_space
        with pytest.raises(ResolutionError, match="16785409 or more points"):
            space(SlitSchedule.harmonic(1), 2.0 ** -12)

    @pytest.mark.parametrize("build,n", [
        # a ball of radius K steps holds 2K^2 + 2K + 1 grid nodes: the carpet
        # ball, clear of the slit, 4325 at K = 46
        (lambda: make_generator("slit-carpet", sched=SlitSchedule.harmonic(1))
         .sample_ball((0.25, 0.25), 0.25, 1 / 184), 4325),
    ], ids=["carpet-window"])
    def test_a_graph_window_is_counted_before_its_matrix(self, monkeypatch, build, n):
        def space_on(*args):
            raise AssertionError("window matrix built before the ball was counted")
        monkeypatch.setattr(GridGraph, "space_on", space_on)
        with pytest.raises(ResolutionError, match=f"gives {n} or more points"):
            build()

    @pytest.mark.parametrize("pillows", [False, True])
    def test_a_carpet_window_holds_no_rows_over_its_box(self, pillows):
        # 2113 points at h = 2^-8 in a box of about 131^2 nodes: the search
        # keeps only the window's columns (Dijkstra rows over the box took
        # 334 MiB, 761 MiB with pillows); the matrix alone is 34 MiB
        gen = make_generator("pillow-carpet" if pillows else "slit-carpet",
                             sched=SlitSchedule.harmonic(2))
        tracemalloc.start()
        try:
            sp, base = gen.sample_ball((0.375, 0.5), 2.0 ** -3, 2.0 ** -8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.n == 2113 and sp.labels[base] == (0.375, 0.5)
        assert peak < 128 * 2 ** 20

    # the finest admitted meshes at R = 1 (the square's at R = 1.5, all of it):
    # the t ball holds 2K^2 + 2K + 1 grid points and K lips, 4005 at K = 44; l
    # holds 3997 at K = 36, d 4033 at K = 63, the plane's disc 4053 at K = 36
    @pytest.mark.parametrize("kind,K,n", [
        ("t", 44, 4005), ("l", 36, 3997), ("d", 63, 4033), ("plane", 36, 4053),
        ("half", 50, 3973), ("quarter", 71, 4025), ("line", 2047, 4095), ("square", 63, 4096)])
    def test_the_finest_admitted_model_window_stays_under_one_gib(self, kind, K, n):
        # the matrix and the space's copy of it take 2 n^2 * 8 bytes, 256 MiB at
        # n = 4096; an n x n x 2 broadcast of a region's matrix takes 700-770 MiB
        R = 1.5 if kind == "square" else 1.0
        tracemalloc.start()
        try:
            space, _ = make_generator(kind).sample_ball((0.0, 0.0), R, 1 / K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.n == n and peak < 400 * 2 ** 20
        with pytest.raises(ResolutionError, match="gives 4097 or more points"):
            make_generator(kind).sample_ball((0.0, 0.0), R, 1 / (K + 1))


@pytest.mark.parametrize("window",[(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
def test_snowflake_window_is_checked_where_it_enters(window):
    # FlatSnowflakeGenerator(window=(1, 0)) used to end in a math domain error
    # at its first sample_ball; an infinite window in a late MalformedMatrixError
    with pytest.raises(DomainError, match="window"):
        FlatSnowflakeGenerator(window=window)
    with pytest.raises(DomainError, match="window"):
        snowflake_polyline(2, window=window)


@pytest.mark.parametrize("flatness,window,error", [
    ([1.5, 1e300], (0.0, 1.0), ConstructionError),
    ([1.5, 6.0], (0.0, 1.0), ConstructionError),  # legs as long as their segment
    ([1.5, 1.5], (0.0, 1e300), DomainError),
    ([1.5, 1.5], (-2.0 ** 65, 0.0), DomainError)])
def test_overflowing_flatness_or_window_is_refused_without_numpy_warnings(flatness, window,
                                                                          error):
    # both used to overflow in _refine_polyline and _segments_intersect and end
    # in MalformedMatrixError after numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="flatness" if error is ConstructionError else "window"):
            snowflake_polyline(2, flatness, window)
        with pytest.raises(error):
            FlatSnowflakeGenerator(flatness, window)


def test_largest_flatness_and_window_build_without_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert snowflake_polyline(2, [5.99, 5.99]).n == 17
        assert snowflake_polyline(1, [1.5], (-2.0 ** 64, 2.0 ** 64)).n == 5
