"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not computed.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from metric_lab.boundary_free_group import (
    BoundaryPoint,
    ReducedWord,
    cylinder_ball,
    enumerate_words,
    expanding_cover,
    gromov_product_prefix,
    translate_boundary,
    visual_distance,
)
from metric_lab.cli import main as cli_main
from metric_lab.fractal_gen import (
    FlatSnowflakeGenerator,
    SlitSchedule,
    default_wu_schedule,
    phi_half_disk_sample,
    slit_carpet_graph,
    wu_L,
    wu_line_metric,
)
from metric_lab.gh_solver import (
    correspondence_from_map,
    distortion_of_correspondence,
    gh_exact_small,
    map_distortion,
    pointed_gh_bounds,
)
from metric_lab.metric_core import FiniteMetricSpace
from metric_lab.qs_analysis import SampledMap, distortion_envelope, envelope_invert
from metric_lab.tangent_lab import ScanConfig, tangent_scan

from .oracles import dijkstra_dict, gh_exhaustive, single_slit_grid_adjacency

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_space(rng, n):
    pts = rng.random((n, 2))
    return FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_01_exact_solver_agrees_with_enumeration():
    """Branch and bound equals exhaustive enumeration on 50 random pairs."""
    rng = np.random.default_rng(10)
    t0 = time.monotonic()
    for _ in range(50):
        X = random_space(rng, int(rng.integers(3, 7)))
        Y = random_space(rng, int(rng.integers(3, 7)))
        got = gh_exact_small(X, Y).exact
        want = gh_exhaustive(X, Y)
        assert got is not None
        assert abs(got - want) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(1, f"50 pairs (3-6 points) match enumeration to 1e-12 in {elapsed:.1f}s")


def test_02_two_point_law():
    """gh_exact_small on two-point spaces equals |a-b|/2."""
    rng = np.random.default_rng(20)
    for _ in range(20):
        a, b = rng.uniform(0.1, 3.0, size=2)
        X = FiniteMetricSpace([[0.0, a], [a, 0.0]])
        Y = FiniteMetricSpace([[0.0, b], [b, 0.0]])
        got = gh_exact_small(X, Y).exact
        assert abs(got - abs(a - b) / 2.0) <= 1e-12
        assert abs(got - gh_exhaustive(X, Y)) <= 1e-12
    report(2, "20 seeded two-point pairs satisfy d_GH = |a-b|/2 to 1e-12")


def test_03_eps_isometry_bridge():
    """Measured (dist, defect) = (e1, e2) forces a GH bound below 2 max."""
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(3, 7))
        X, Y = random_space(rng, n), random_space(rng, m)
        f = rng.integers(0, m, size=n)
        e1, e2 = map_distortion(f, X, Y)
        eps = max(e1, e2)
        R = correspondence_from_map(f, X, Y)
        upper = distortion_of_correspondence(X, Y, R) / 2.0
        assert upper <= 2.0 * eps + 1e-12
        assert gh_exact_small(X, Y).exact <= 2.0 * eps + 1e-12
    report(3, "20 seeded maps: GH upper bound <= 2 max(dist, defect), no violations")


def test_04_free_group_exact_expansion():
    """Every cylinder pair at depth 5 expands by exactly 2^m under g."""
    t0 = time.monotonic()
    rank, depth, a = 2, 5, 2.0
    checked = 0
    for m in (1, 2, 3):
        for el in expanding_cover(m, depth, rank):
            prefix = el.cylinder.prefix
            words = enumerate_words(rank, depth, prefix.letters)
            pts = [BoundaryPoint(ReducedWord(w, rank)) for w in words]
            g = el.contraction
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    d = visual_distance(pts[i], pts[j], a)
                    gd = visual_distance(translate_boundary(g, pts[i]),
                                         translate_boundary(g, pts[j]), a)
                    assert gd == (2.0 ** m) * d  # exact powers of two, no tolerance
                    checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(4, f"{checked} cylinder pairs expand by exactly 2^m (m=1,2,3) "
              f"in {elapsed:.1f}s")


def test_05_ultrametric_and_four_point_condition():
    """Depth-4 boundary of F(a,b): ultrametric and delta=0, exhaustively."""
    rank, depth = 2, 4
    pts = [BoundaryPoint(ReducedWord(w, rank)) for w in enumerate_words(rank, depth)]
    n = len(pts)
    D = np.array([[visual_distance(x, y) for y in pts] for x in pts])
    # the cylinder U(p, 0) is the whole boundary, realized as the same matrix
    assert np.array_equal(cylinder_ball(pts[0], 0, depth).dist, D)
    assert np.all(D[:, :, None] <= np.maximum(D[:, None, :], D[None, :, :]) + 0)
    for x in range(n):
        lhs = D[x][:, None, None] + D[None, :, :]
        rhs = np.maximum(D[x][None, :, None] + D[:, None, :],
                         D[x][None, None, :] + D[:, :, None])
        assert np.all(lhs <= rhs)
    report(5, f"ultrametric + zero-hyperbolic four-point condition on all "
              f"{n}^3 triples and {n}^4 quadruples")


def test_06_snowflake_envelope_power_law():
    """Envelope of (X, d) -> (X, d^0.5) on 30 reals is s = sqrt(t)."""
    pts = np.linspace(0.0, 1.0, 30)
    gaps = np.abs(pts[:, None] - pts[None, :])
    f = SampledMap(FiniteMetricSpace(gaps), FiniteMetricSpace(gaps ** 0.5),
                   np.arange(30))
    env = distortion_envelope(f, "all")
    worst = float(np.abs(env.ss - env.ts ** 0.5).max())
    assert worst <= 1e-12
    report(6, f"{len(env.ts)} breakpoints satisfy s = t^0.5 within {worst:.1e}")


def test_07_envelope_inversion_round_trip():
    """invert(invert(env)) returns env at interior breakpoints, 1e-9."""
    pts = np.linspace(0.0, 1.0, 30)
    gaps = np.abs(pts[:, None] - pts[None, :])
    snow = SampledMap(FiniteMetricSpace(gaps), FiniteMetricSpace(gaps ** 0.5),
                      np.arange(30))
    dom, cod = phi_half_disk_sample()
    phi = SampledMap(dom, cod, np.arange(dom.n))
    for name, f in (("snowflake", snow), ("phi", phi)):
        env = distortion_envelope(f, "all")
        back = envelope_invert(envelope_invert(env))
        for t, s in env.breakpoints:
            if t <= 0:
                continue
            assert abs(back.eval_linear(t, allow_extrapolation=True) - s) <= 1e-9
    report(7, "round trip within 1e-9 on the snowflake and square-map envelopes")


def test_08_flat_snowflake_tangent_trend():
    """Blow-up at a stage-3 vertex approaches the segment model."""
    t0 = time.monotonic()
    gen = FlatSnowflakeGenerator()  # l_k = 1 + 2^-k
    cfg = ScanConfig(generator=gen, center=("vertex", 3, 17),
                     scales=tuple(2.0 ** -k for k in range(3, 8)),
                     window_radius=1.0, models=("line",), rule="lambda/64")
    rep = tangent_scan(cfg)
    ups = [row.results["line"].upper for row in rep.rows]
    violations = sum(1 for u, v in zip(ups, ups[1:]) if v > u + 1e-12)
    assert violations <= 1
    assert ups[-1] <= 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(8, f"uppers {['%.4f' % u for u in ups]}: {violations} non-monotone "
              f"step(s), final {ups[-1]:.4f} <= 0.05 in {elapsed:.0f}s")


def test_09_square_corner_tangent_is_quarter_plane():
    """Scan of the unit square at its corner picks the quarter plane."""
    from metric_lab.fractal_gen import unit_square_generator

    rule_k = 16.0  # h(lambda) = lambda/16; bound C*h/lambda with C = 4
    cfg = ScanConfig(generator=unit_square_generator(), center=(0.0, 0.0),
                     scales=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
                     window_radius=1.0, models=("quarter", "half", "t"),
                     rule=f"lambda/{rule_k:g}")
    rep = tangent_scan(cfg)
    assert rep.verdict is not None
    assert rep.verdict.best_model == "quarter"
    assert rep.verdict.conclusive
    final_upper = rep.rows[-1].results["quarter"].upper
    assert final_upper <= 4.0 / rule_k
    report(9, f"best model quarter, final upper {final_upper:.4f} <= "
              f"{4.0 / rule_k}, verdict conclusive")


def test_10_slit_carpet_detour_against_independent_run():
    """Duplicate slit-side points: detour checked on a doubled-resolution grid."""
    sched = SlitSchedule((0.5,))
    graph = slit_carpet_graph(sched, 1.0 / 128.0)
    iL = graph.index[(0.5, 0.5, "L")]
    iR = graph.index[(0.5, 0.5, "R")]
    ours = graph.distance(iL, iR)

    adj, _ = single_slit_grid_adjacency(256, 0.5)
    dist = dijkstra_dict(adj, (128, 128, "L"))
    oracle = dist[(128, 128, "R")]
    assert abs(ours - oracle) <= 0.10 * oracle
    report(10, f"intrinsic gap {ours:.6f} vs doubled-grid oracle {oracle:.6f} "
               f"(within 10%)")


def test_11_wu_formula_spot_values():
    """L(1/2, 1/2) and the Euclidean branch of the distorted line."""
    assert abs(wu_L(0.5, 0.5) - 1.154700538) <= 1e-8
    sched = default_wu_schedule(8)
    pairs = [(1.5, 2.7), (-2.0, -0.5), (1.01, 1.2), (3.0, 7.0), (-0.25, 0.009)]
    for x, y in pairs:
        assert wu_line_metric(x, y, sched, 8) == abs(x - y)
    report(11, "L(1/2,1/2) = 1.154700538 to 1e-8; five off-interval pairs exact")


def test_12_reproduce_manifest_determinism(tmp_path):
    """Two consecutive manifest runs yield identical checksums, and every one
    equals the benchmark's recorded reference (perfbench/reference.json)."""
    manifest = os.path.join(REPO_ROOT, "manifests", "acceptance.json")
    runner = CliRunner()
    sums = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        old = os.getcwd()
        os.chdir(workdir)
        try:
            result = runner.invoke(cli_main, ["reproduce", manifest,
                                              "--out-index", "index.json"])
            assert result.exit_code == 0, result.output
            payload = json.loads((workdir / "index.json").read_text())
            assert payload["ok"]
            sums.append({e["name"]: e["checksums"] for e in payload["experiments"]})
        finally:
            os.chdir(old)
    assert sums[0] == sums[1]
    with open(os.path.join(REPO_ROOT, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)["cli"]
    for name, checksums in sums[0].items():
        assert checksums, name
        for path, digest in checksums.items():
            assert digest == reference[path], f"{name}: {path}"
    report(12, f"{len(sums[0])} experiments byte-identical across two runs "
               "and equal to the recorded reference")
