"""Tests for the GH solver against exhaustive enumeration and forced values."""

import concurrent.futures
import inspect
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from metric_lab import gh_solver
from metric_lab.errors import DomainError
from metric_lab.fractal_gen import (
    FlatSnowflakeGenerator,
    model_tangent_space,
    unit_square_generator,
)
from metric_lab.gh_solver import (
    Correspondence,
    GhResult,
    _local_search,
    _pairs_from_maps,
    _value_set_mismatch,
    correspondence_from_map,
    distortion_of_correspondence,
    gh_bounds,
    gh_distance,
    gh_exact_small,
    map_distortion,
    pointed_gh_bounds,
)
from metric_lab.metric_core import (
    FiniteMetricSpace,
    PointedWindow,
    epsilon_net,
    rescale,
)
from metric_lab.tangent_lab import extract_window, nearest_position_seed

from .oracles import (
    count_full_correspondences,
    gh_exhaustive,
    minimal_full_correspondences,
    reference_exact_search,
    reference_exact_small,
    reference_local_search,
    reference_lower_bound,
)


def random_space(rng, n, scale=1.0):
    """Random points in the plane with the Euclidean metric."""
    pts = rng.random((n, 2)) * scale
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return FiniteMetricSpace(d)


def two_point_space(gap):
    return FiniteMetricSpace([[0.0, gap], [gap, 0.0]])


class TestDistortion:
    def test_identity_bijection_has_zero_distortion(self):
        rng = np.random.default_rng(1)
        X = random_space(rng, 5)
        R = Correspondence(tuple((i, i) for i in range(5)))
        assert distortion_of_correspondence(X, X, R) == 0.0

    def test_two_point_gap_mismatch(self):
        R = Correspondence(((0, 0), (1, 1)))
        assert distortion_of_correspondence(two_point_space(1), two_point_space(3), R) == 2.0

    def test_one_to_two_matching_pays_the_spread(self):
        X = two_point_space(1.0)
        Y = FiniteMetricSpace([[0, 0.7, 1], [0.7, 0, 0.7], [1, 0.7, 0]])
        R = Correspondence(((0, 0), (0, 2), (1, 1)))  # X point 0 paired twice, D = 1
        assert distortion_of_correspondence(X, Y, R) >= 1.0

    def test_non_full_correspondence_names_uncovered_index(self):
        X, Y = two_point_space(1), two_point_space(2)
        with pytest.raises(DomainError, match="Y index 1"):
            distortion_of_correspondence(X, Y, Correspondence(((0, 0), (1, 0))))

    @pytest.mark.parametrize("pairs,message", [
        (((-1, 0), (0, 1), (1, 2)), "index -1 outside 0..2 of X"),
        (((0, 0), (1, 1), (2, 2), (5, 0)), "index 5 outside 0..2 of X"),
        (((0, 0), (1, 1), (2, -1)), "index -1 outside 0..2 of Y")])
    def test_index_outside_a_side_is_refused(self, pairs, message):
        # -1 used to wrap to the last point (distortion 2.0), 5 to escape as
        # numpy's IndexError
        X = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(DomainError, match=message):
            distortion_of_correspondence(X, X, Correspondence(pairs))

    def test_a_600_pair_correspondence_is_measured_in_small_blocks(self):
        # 600 pairs of two 300-point spaces: one block of every row held three
        # 600 x 600 temporaries (11 MB traced); blocks of at most 2^16
        # pair-pairs keep the peak near 1.3 MB, and the max stays exact
        rng = np.random.default_rng(4)
        X, Y = random_space(rng, 300), random_space(rng, 300)
        R = Correspondence(tuple(sorted({(i, i) for i in range(300)}
                                        | {(i, (i + 1) % 300) for i in range(300)})))
        I, J = R.arrays()
        want = float(np.abs(X.dist[np.ix_(I, I)] - Y.dist[np.ix_(J, J)]).max())
        tracemalloc.start()
        try:
            got = distortion_of_correspondence(X, Y, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(R.pairs) == 600 and got == want
        assert peak < 4 * 2 ** 20


class TestExactSmall:
    def test_self_distance_zero_with_identity_witness(self):
        rng = np.random.default_rng(2)
        X = random_space(rng, 5)
        res = gh_exact_small(X, X)
        assert res.exact == 0.0
        I, J = res.witness.arrays()
        assert np.array_equal(np.sort(I), np.sort(J))

    def test_two_point_law(self):
        res = gh_exact_small(two_point_space(1.0), two_point_space(3.0))
        assert res.exact == pytest.approx(1.0, abs=1e-12)

    def test_two_point_full_correspondence_count_is_seven(self):
        # sanity for the enumeration oracle itself
        assert count_full_correspondences(2, 2) == 7

    def test_singleton_vs_two_points(self):
        X = FiniteMetricSpace(np.zeros((1, 1)))
        res = gh_exact_small(X, two_point_space(2.0))
        assert res.exact == pytest.approx(1.0, abs=1e-12)

    def test_empty_space_rejected(self):
        with pytest.raises(DomainError):
            gh_exact_small(FiniteMetricSpace(np.zeros((0, 0))), two_point_space(1))

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_exhaustive_enumeration(self, trial):
        rng = np.random.default_rng(100 + trial)
        X = random_space(rng, int(rng.integers(3, 6)))
        Y = random_space(rng, int(rng.integers(3, 6)))
        res = gh_exact_small(X, Y)
        assert res.exact == pytest.approx(gh_exhaustive(X, Y), abs=1e-12)

    def test_budget_exhaustion_returns_bounds_only(self):
        rng = np.random.default_rng(7)
        X, Y = random_space(rng, 7), random_space(rng, 7)
        res = gh_exact_small(X, Y, budget=10)
        assert res.exact is None
        assert res.lower <= res.upper

    def test_lower_bound_above_the_exact_value_is_an_error(self, monkeypatch):
        # gh_bounds misses the optimum here, so a lower bound between the
        # exact value and its upper bound only contradicts the exact value
        rng = np.random.default_rng(1)
        X, Y = random_space(rng, 5), random_space(rng, 5)
        exact = gh_exact_small(X, Y).exact
        upper = gh_bounds(X, Y, restarts=18).upper
        assert exact < upper
        monkeypatch.setattr(gh_solver, "_lower_bound", lambda *a: (exact + upper) / 2)
        with pytest.raises(DomainError, match="inconsistent"):
            gh_exact_small(X, Y)

    @pytest.mark.parametrize("base_pair", [None, (0, 0)])
    def test_gh_bounds_runs_only_when_the_budget_runs_out(self, monkeypatch, base_pair):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return gh_bounds(*args, **kwargs)

        monkeypatch.setattr(gh_solver, "gh_bounds", counting)
        rng = np.random.default_rng(7)
        X, Y = random_space(rng, 7), random_space(rng, 7)
        assert gh_exact_small(X, Y, base_pair=base_pair).exact is not None
        assert calls == []
        res = gh_exact_small(X, Y, budget=10, base_pair=base_pair)
        assert res.exact is None and len(calls) == 1
        assert distortion_of_correspondence(X, Y, res.witness) / 2.0 == res.upper

    def test_search_stops_once_the_incumbent_meets_the_lower_bound(self, monkeypatch):
        # a pointed 3 x 8 pair whose optimum equals its lower bound: the search
        # closes within 30 nodes, where a full search would run out of budget
        rng = np.random.default_rng(117)
        nx, ny = (int(v) for v in rng.integers(3, 9, size=2))
        X, Y = random_space(rng, nx), random_space(rng, ny)
        monkeypatch.setattr(gh_solver, "gh_bounds", None)  # the exhaustion pass
        res = gh_exact_small(X, Y, budget=30, base_pair=(0, 0))
        assert res.exact == res.upper == res.lower
        assert res.exact == pytest.approx(gh_exhaustive(X, Y, base_pair=(0, 0)), abs=1e-12)
        assert distortion_of_correspondence(X, Y, res.witness) / 2.0 == res.upper

    def test_exhausted_search_meeting_the_lower_bound_is_exact(self):
        # the exhaustion pass finds the identity; its zero meets the lower bound
        pts = np.random.default_rng(5).random((21, 2))[:20]
        X = FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
        res = gh_distance(X, X)
        assert (res.lower, res.upper, res.exact) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("base_pair", [None, (3, 3)])
    def test_identity_is_the_first_incumbent(self, monkeypatch, base_pair):
        # the search alone closes X against itself, no exhaustion pass needed
        pts = np.random.default_rng(5).random((21, 2))[:20]
        X = FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
        monkeypatch.setattr(gh_solver, "gh_bounds", None)
        res = gh_exact_small(X, X, base_pair=base_pair)
        assert (res.lower, res.upper, res.exact) == (0.0, 0.0, 0.0)
        assert distortion_of_correspondence(X, X, res.witness) == 0.0

    def test_budget_out_before_any_leaf_takes_the_restart_witness(self):
        rng = np.random.default_rng(7)
        X, Y = random_space(rng, 7), random_space(rng, 7)
        res = gh_exact_small(X, Y, budget=1)  # the dive needs 7 X slots
        full = gh_bounds(X, Y)
        assert res.exact is None
        assert res.upper == full.upper and res.lower == full.lower
        assert res.witness.pairs == full.witness.pairs

    def test_symmetry_under_argument_swap(self):
        rng = np.random.default_rng(11)
        X, Y = random_space(rng, 5), random_space(rng, 6)
        a = gh_exact_small(X, Y).exact
        b = gh_exact_small(Y, X).exact
        assert a == pytest.approx(b, abs=1e-12)

    def test_triangle_inequality_on_small_triples(self):
        rng = np.random.default_rng(13)
        spaces = [random_space(rng, int(rng.integers(3, 7))) for _ in range(4)]
        vals = {}
        for i in range(4):
            for j in range(i + 1, 4):
                vals[i, j] = gh_exact_small(spaces[i], spaces[j]).exact
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(4):
                    if k in (i, j):
                        continue
                    a, b = vals[tuple(sorted((i, k)))], vals[tuple(sorted((k, j)))]
                    assert vals[i, j] <= a + b + 1e-9

    def test_scaling_law(self):
        rng = np.random.default_rng(17)
        X, Y = random_space(rng, 4), random_space(rng, 5)
        lam = 3.0
        scaled = gh_exact_small(rescale(X, 1 / lam), rescale(Y, 1 / lam)).exact
        assert scaled == pytest.approx(lam * gh_exact_small(X, Y).exact, rel=1e-10)


class TestExactAgainstFrozenReference:
    @pytest.mark.parametrize("batch", range(12))
    def test_matches_recompute_everything_reference(self, batch):
        for trial in range(25 * batch, 25 * batch + 25):
            rng = np.random.default_rng(900 + trial)
            nx, ny = (int(v) for v in rng.integers(3, 8, size=2))
            X, Y = random_space(rng, nx), random_space(rng, ny)
            base_pair = (0, 0) if trial % 2 else None
            res = gh_exact_small(X, Y, base_pair=base_pair)
            ref = reference_exact_small(X, Y, base_pair=base_pair)
            assert res.exact == ref.exact
            assert res.lower == ref.lower
            assert distortion_of_correspondence(X, Y, res.witness) / 2.0 == res.upper

    @pytest.mark.parametrize("batch", range(4))
    def test_small_budgets_give_the_exact_value_or_restart_bounds(self, batch):
        exhausted = 0
        for trial in range(6 * batch, 6 * batch + 6):
            rng = np.random.default_rng(1300 + trial)
            nx, ny = (int(v) for v in rng.integers(7, 9, size=2))
            X, Y = random_space(rng, nx), random_space(rng, ny)
            base_pair = (0, 0) if trial % 2 else None
            exact = gh_exact_small(X, Y, base_pair=base_pair).exact
            full = gh_bounds(X, Y, base_pair=base_pair)
            for budget in (10, 30, 100, 500):
                res = gh_exact_small(X, Y, budget=budget, base_pair=base_pair)
                assert res.exact is None or res.exact == exact
                assert res.lower <= exact <= res.upper <= full.upper
                assert distortion_of_correspondence(X, Y, res.witness) / 2.0 == res.upper
                exhausted += res.exact is None
        assert exhausted >= 6


def benchmark_nets():
    """The exact workload's three pointed eps-nets: the square corner window
    at lambda = 1/8 (mesh 1/64) against the half and t model tangents (mesh 1/8)."""
    corner = extract_window(unit_square_generator(), (0.0, 0.0), 1 / 8, 1.0, 1 / 64)
    out = []
    for kind, eps in (("half", 0.45), ("half", 0.35), ("t", 0.45)):
        M = model_tangent_space(kind, 1.0, 1 / 8)
        out.append(tuple(W.space.submatrix(epsilon_net(W.space, eps, start=W.base))
                         for W in (corner, M)))
    return out


def assert_same_search(X, Y, **options):
    res = gh_exact_small(X, Y, **options)
    ref = reference_exact_search(X, Y, **options)
    assert (res.lower, res.upper, res.exact) == (ref.lower, ref.upper, ref.exact)
    assert res.witness.pairs == ref.witness.pairs
    return res


class TestLowerBoundAgainstFrozenCopy:
    """Both exact oracles take their lower bound from the frozen copy, so the
    library's lower bound is pinned to it here."""

    def test_seeded_pointed_and_unpointed_pairs(self):
        base_row_wins = 0
        for trial in range(80):
            rng = np.random.default_rng(5200 + trial)
            nx, ny = (int(v) for v in rng.integers(1, 12, size=2))
            X, Y = random_space(rng, nx), random_space(rng, ny)
            if trial % 4 == 3:  # integer distances: many ties among the values
                X, Y = line_space(nx), line_space(ny)
            base_pair = (int(rng.integers(nx)), int(rng.integers(ny))) if trial % 2 else None
            lower = gh_solver._lower_bound(X, Y, base_pair)
            assert lower == reference_lower_bound(X, Y, base_pair)
            base_row_wins += lower > reference_lower_bound(X, Y)
        assert base_row_wins >= 5

    def test_benchmark_nets(self):
        for X, Y in benchmark_nets():
            for base_pair in (None, (0, 0), (X.n - 1, 0)):
                assert (gh_solver._lower_bound(X, Y, base_pair)
                        == reference_lower_bound(X, Y, base_pair))


class TestExactAgainstFrozenSearch:
    """The pair-mismatch table and the Python sort on Y slots visit the same
    nodes in the same order; an exhausted result depends on that order, so
    these equalities pin it."""

    @pytest.mark.parametrize("budget", [10, 1_000, 50_000, 200_000])
    def test_benchmark_nets(self, budget):
        results = [assert_same_search(X, Y, budget=budget, base_pair=(0, 0))
                   for X, Y in benchmark_nets()]
        if budget >= 1_000:  # the two larger nets exhaust even 200 000 nodes
            assert [r.exact is None for r in results] == [False, True, True]

    @pytest.mark.parametrize("batch", range(4))
    def test_random_small_pairs(self, batch):
        for trial in range(25 * batch, 25 * batch + 25):
            rng = np.random.default_rng(4100 + trial)
            nx, ny = (int(v) for v in rng.integers(3, 9, size=2))
            X, Y = random_space(rng, nx), random_space(rng, ny)
            base_pair = (int(rng.integers(nx)), int(rng.integers(ny))) if trial % 2 else None
            assert_same_search(X, Y, base_pair=base_pair)

    @pytest.mark.parametrize("trial", [2, 4, 7, 10, 11, 12, 17, 21, 23, 25])
    def test_skinny_pairs_that_exhaust_the_budget(self, trial):
        rng = np.random.default_rng(2026 + trial)
        nx, ny = int(rng.integers(3, 6)), int(rng.integers(16, 19))
        X, Y = random_space(rng, nx), random_space(rng, ny)
        res = assert_same_search(X, Y, budget=20_000,
                                 base_pair=(0, 0) if trial % 2 else None)
        assert res.exact is None

    def test_no_table_above_the_auto_exact_limit(self):
        # 17 x 29 = 493 pairs > 400: a table would hold 493^2 floats (1.9 MB)
        X = model_tangent_space("quarter", 1.0, 0.25).space
        Y = model_tangent_space("half", 1.0, 0.25).space
        assert X.n * Y.n > gh_solver._EXACT_AUTO_PAIRS
        gh_exact_small(X, Y, budget=10)  # warm up lazily built state
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = gh_exact_small(X, Y, budget=2000)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert res.upper == pytest.approx(0.4332, abs=1e-4)
        assert distortion_of_correspondence(X, Y, res.witness) / 2.0 == res.upper


class TestBounds:
    def test_identical_spaces_collapse_to_zero(self):
        rng = np.random.default_rng(3)
        X = random_space(rng, 9)
        res = gh_bounds(X, X)
        assert res.lower == 0.0
        assert res.upper == 0.0
        assert res.exact is None

    def test_diameter_gap_bound_on_segments(self):
        a = FiniteMetricSpace(np.abs(np.subtract.outer(np.linspace(0, 1, 5),
                                                       np.linspace(0, 1, 5))))
        b = FiniteMetricSpace(np.abs(np.subtract.outer(np.linspace(0, 3, 5),
                                                       np.linspace(0, 3, 5))))
        res = gh_bounds(a, b)
        assert res.lower >= 1.0
        assert res.upper >= res.lower

    @pytest.mark.parametrize("pointed", [False, True])
    def test_value_set_mismatch_covers_the_diameter_gap(self, pointed):
        # the lower bound has no separate diameter term: the value-set
        # mismatch reaches the diameter gap bit for bit
        rng = np.random.default_rng(31 + pointed)
        for _ in range(200):
            X = random_space(rng, int(rng.integers(1, 9)), scale=float(rng.uniform(0.1, 3)))
            Y = random_space(rng, int(rng.integers(1, 9)), scale=float(rng.uniform(0.1, 3)))
            gap = abs(X.diameter() - Y.diameter())
            assert _value_set_mismatch(X.dist, Y.dist) >= gap
            base_pair = (int(rng.integers(X.n)), int(rng.integers(Y.n))) if pointed else None
            assert gh_bounds(X, Y, restarts=0, base_pair=base_pair).lower >= gap / 2.0

    def test_sandwich_against_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = random_space(rng, int(rng.integers(3, 7)))
            Y = random_space(rng, int(rng.integers(3, 7)))
            bounds = gh_bounds(X, Y)
            exact = gh_exact_small(X, Y).exact
            assert bounds.lower <= exact + 1e-12
            assert exact <= bounds.upper + 1e-12

    def test_seed_that_misses_a_point_is_refused(self):
        # the seed misses X 2 and Y 2: taken as it stood it certified upper 0
        # where the exact value is 0.5
        X = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        Y = FiniteMetricSpace([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        seed = Correspondence(((0, 0), (1, 1)))
        assert gh_exact_small(X, Y).exact == 0.5
        with pytest.raises(DomainError, match="does not cover X index 2"):
            gh_bounds(X, Y, extra_seeds=[seed])
        with pytest.raises(DomainError, match="does not cover X index 2"):
            gh_distance(X, Y, method="bounds", extra_seeds=[seed])
        # the base pair completes a seed before the check
        full = gh_bounds(X, Y, extra_seeds=[seed], base_pair=(2, 2))
        assert distortion_of_correspondence(X, Y, full.witness) / 2.0 == full.upper

    @pytest.mark.parametrize("seed", [
        (np.array([0, 1]), np.array([0, 1, 2])),  # f too short: a broadcast error
        (np.array([0, 1, -1]), np.array([0, 1, 2])),  # -1 became the key of (1, 2)
        ((0, 0), (1, 1), (2, 2)),  # the pairs of a Correspondence, unwrapped
    ], ids=["short-map", "negative-image", "bare-pairs"])
    def test_seed_that_is_not_a_correspondence_is_refused(self, seed):
        X = Y = line_space(3)
        with pytest.raises(DomainError, match="Correspondence or None"):
            gh_bounds(X, Y, extra_seeds=[seed])
        with pytest.raises(DomainError, match="Correspondence or None"):
            gh_distance(X, Y, method="bounds", extra_seeds=[None, seed])

    def test_inverted_bounds_rejected_without_exact(self):
        with pytest.raises(DomainError, match="inconsistent"):
            GhResult(lower=0.5, upper=0.25)
        assert GhResult(lower=0.25, upper=0.25).exact is None

    def test_local_search_upper_dominates_exact_on_subsample_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            X12, Y12 = random_space(rng, 12), random_space(rng, 12)
            keep_x = rng.choice(12, size=8, replace=False)
            keep_y = rng.choice(12, size=8, replace=False)
            X8, Y8 = X12.submatrix(np.sort(keep_x)), Y12.submatrix(np.sort(keep_y))
            upper = gh_bounds(X8, Y8).upper
            exact = gh_exact_small(X8, Y8)
            if exact.exact is not None:
                assert upper >= exact.exact - 1e-12


class TestLocalSearch:
    @pytest.mark.parametrize("batch", range(24))
    def test_matches_recompute_everything_reference(self, batch):
        # Y is a jittered copy of a prefix of X's point set and the start maps
        # are the index identity with a third of X scrambled, so the search
        # makes many moves before it stalls.  Rejected moves followed by an
        # accepted one are rare, hence 600 cases.
        for trial in range(25 * batch, 25 * batch + 25):
            rng = np.random.default_rng(300 + trial)
            nx, ny = (int(v) for v in rng.integers(3, 41, size=2))
            pts = rng.random((max(nx, ny), 2))
            X = FiniteMetricSpace(np.linalg.norm(pts[:nx, None] - pts[None, :nx], axis=-1))
            q = pts[:ny] + 0.02 * rng.random((ny, 2))
            Y = FiniteMetricSpace(np.linalg.norm(q[:, None] - q[None], axis=-1))
            base_pair = (int(rng.integers(nx)), int(rng.integers(ny))) if trial % 2 else None
            f, g = np.minimum(np.arange(nx), ny - 1), np.minimum(np.arange(ny), nx - 1)
            f[rng.integers(0, nx, size=nx // 3)] = rng.integers(0, ny, size=nx // 3)
            I, J = _pairs_from_maps(nx, ny, f, g, base_pair)
            pairs = {(x, int(f[x])) for x in range(nx)}
            pairs |= {(int(g[y]), y) for y in range(ny) if y not in set(f.tolist())}
            pairs |= {base_pair} if base_pair is not None else set()
            assert list(zip(I.tolist(), J.tolist())) == sorted(pairs)
            if trial % 3 == 0:  # a correspondence holding duplicate pairs
                dup = rng.integers(0, len(I), size=3)
                I, J = np.concatenate([I, I[dup]]), np.concatenate([J, J[dup]])
            for moves in (0, 1, 80):
                dis, I2, J2 = _local_search(X.dist, Y.dist, I, J, base_pair, moves)
                ref, I3, J3 = reference_local_search(X.dist, Y.dist, I, J, base_pair, moves)
                assert dis == ref
                assert np.array_equal(I2, I3) and np.array_equal(J2, J3)

    @pytest.mark.parametrize("scan,model", [("snowflake", "line"), ("corner", "quarter"),
                                            ("corner", "half"), ("corner", "t")])
    def test_upper_is_half_the_witness_distortion_on_acceptance_windows(self, scan, model):
        # coarsest scale of acceptance scans 08 (rule lambda/64) and 09 (lambda/16)
        gen, center, k = {"snowflake": (FlatSnowflakeGenerator(), ("vertex", 3, 17), 64),
                          "corner": (unit_square_generator(), (0.0, 0.0), 16)}[scan]
        lam = 2.0 ** -3
        W = extract_window(gen, center, lam, 1.0, lam / k)
        M = model_tangent_space(model, 1.0, 1.0 / k)
        res = pointed_gh_bounds(W, M, extra_seeds=[nearest_position_seed(W, M)])
        assert distortion_of_correspondence(W.space, M.space, res.witness) / 2.0 == res.upper


def bounds_on_both_paths(monkeypatch, X, Y, **options):
    """gh_bounds with one usable CPU (the serial path) and with two (the
    parallel path once the restart work reaches _PARALLEL_WORK), and the
    number of worker pools each call started."""
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    results = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        before = len(pools)
        results.append((gh_bounds(X, Y, **options), len(pools) - before))
        assert multiprocessing.active_children() == []  # no worker outlives the call
    return results


def assert_same_bounds(a: GhResult, b: GhResult):
    assert (a.lower, a.upper, a.exact) == (b.lower, b.upper, b.exact)
    assert a.witness.pairs == b.witness.pairs


class TestParallelRestarts:
    @pytest.mark.parametrize("scan,model,parallel", [
        ("snowflake", "line", 1), ("corner", "quarter", 0),  # quarter closes before any restart
        ("corner", "half", 1), ("corner", "t", 1)])
    def test_acceptance_windows_give_the_serial_result(self, monkeypatch, scan, model, parallel):
        gen, center, k = {"snowflake": (FlatSnowflakeGenerator(), ("vertex", 3, 17), 64),
                          "corner": (unit_square_generator(), (0.0, 0.0), 16)}[scan]
        lam = 2.0 ** -3
        W = extract_window(gen, center, lam, 1.0, lam / k)
        M = model_tangent_space(model, 1.0, 1.0 / k)
        (serial, pools1), (par, pools2) = bounds_on_both_paths(
            monkeypatch, W.space, M.space, base_pair=(W.base, M.base),
            extra_seeds=[nearest_position_seed(W, M)])
        assert (pools1, pools2) == (0, parallel)
        assert_same_bounds(serial, par)

    # every trial runs its restarts (trial 1's deterministic seeds would close
    # it); 55 (pointed) and 76 (unpointed) stop at a random restart that meets
    # the lower bound, seeds 33 and 176 of 200
    @pytest.mark.parametrize("trial", list(range(2, 14)) + [55, 76])
    def test_small_pairs_give_the_serial_result(self, monkeypatch, trial):
        monkeypatch.setattr(gh_solver, "_PARALLEL_WORK", 0)
        rng = np.random.default_rng(trial)
        nx, ny = (int(v) for v in rng.integers(3, 8, size=2))
        X, Y = random_space(rng, nx), random_space(rng, ny)
        base_pair = (0, 0) if trial % 2 else None
        (serial, _), (par, pools) = bounds_on_both_paths(monkeypatch, X, Y, seed=trial,
                                                         base_pair=base_pair)
        assert pools == 1
        assert_same_bounds(serial, par)
        if trial in (55, 76):
            assert serial.upper == serial.lower

    def test_a_daemonic_process_runs_its_restarts_serially(self, monkeypatch):
        # a pool worker may not start processes of its own
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        monkeypatch.setattr(gh_solver, "_PARALLEL_WORK", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(3)
        X, Y = random_space(rng, 5), random_space(rng, 6)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply(gh_bounds, (X, Y))
        assert_same_bounds(inside, gh_bounds(X, Y))

    def test_the_path_follows_the_restart_work(self, monkeypatch):
        # 3 + 4 points, 200 - 2 deterministic seeds = 198 restarts: work 198 * 7^2
        rng = np.random.default_rng(5)
        X, Y = random_space(rng, 3), random_space(rng, 4)
        for limit, pools in ((198 * 49, 1), (198 * 49 + 1, 0)):
            monkeypatch.setattr(gh_solver, "_PARALLEL_WORK", limit)
            (_, serial_pools), (_, parallel_pools) = bounds_on_both_paths(monkeypatch, X, Y)
            assert (serial_pools, parallel_pools) == (0, pools)


class TestPointed:
    def window(self, dist, base, radius):
        return PointedWindow(FiniteMetricSpace(dist), base, 1.0, radius)

    def test_same_window_twice_is_zero(self):
        w = self.window([[0, 1, 1], [1, 0, 2], [1, 2, 0]], 0, 1.0)
        res = pointed_gh_bounds(w, w)
        assert res.upper == 0.0

    def test_v_windows_with_unequal_arms(self):
        w1 = self.window([[0, 1, 1], [1, 0, 2], [1, 2, 0]], 0, 2.0)
        w2 = self.window([[0, 1, 2], [1, 0, 3], [2, 3, 0]], 0, 2.0)
        res = pointed_gh_bounds(w1, w2, method="exact")
        assert res.exact == pytest.approx(0.5, abs=1e-12)

    def test_pointed_exact_at_least_unpointed_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            X = random_space(rng, 5)
            Y = random_space(rng, 5)
            free = gh_exact_small(X, Y).exact
            pointed = gh_exact_small(X, Y, base_pair=(0, 0)).exact
            assert pointed >= free - 1e-12

    def test_pointed_matches_pointed_enumeration(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            X = random_space(rng, int(rng.integers(3, 6)))
            Y = random_space(rng, int(rng.integers(3, 6)))
            res = gh_exact_small(X, Y, base_pair=(0, 0))
            assert res.exact == pytest.approx(gh_exhaustive(X, Y, base_pair=(0, 0)),
                                              abs=1e-12)

    def test_unknown_method_is_refused(self):
        w = self.window([[0, 1], [1, 0]], 0, 1.0)
        with pytest.raises(DomainError, match="exat"):
            pointed_gh_bounds(w, w, method="exat")
        assert pointed_gh_bounds(w, w, method="bounds").exact is None

    def test_each_solver_gets_only_its_keywords(self):
        w1 = self.window([[0, 1, 1], [1, 0, 2], [1, 2, 0]], 0, 2.0)
        w2 = self.window([[0, 1, 2], [1, 0, 3], [2, 3, 0]], 0, 2.0)
        bounds = pointed_gh_bounds(w1, w2, method="bounds", budget=10, seed=1)
        assert bounds.exact is None
        assert bounds.upper == pointed_gh_bounds(w1, w2, method="bounds", seed=1).upper
        exact = pointed_gh_bounds(w1, w2, method="exact", restarts=3,
                                  extra_seeds=[None], budget=10 ** 6)
        assert exact.exact == pytest.approx(0.5, abs=1e-12)

    def test_window_with_integer_labels_runs_without_a_position_seed(self):
        # integer labels carry no coordinates: the position seed is None, and
        # gh_bounds skips it, as a scan passes it on
        rng = np.random.default_rng(47)
        W1 = PointedWindow(random_space(rng, 24), 0, 1.0, 1.0)
        W2 = PointedWindow(random_space(rng, 20), 3, 1.0, 1.0)
        assert W1.space.labels[:3] == (0, 1, 2)
        seed = nearest_position_seed(W1, W2)
        assert seed is None
        res = pointed_gh_bounds(W1, W2, extra_seeds=[seed], method="bounds")
        ref = pointed_gh_bounds(W1, W2, method="bounds")
        assert (res.lower, res.upper) == (ref.lower, ref.upper)
        assert res.witness.pairs == ref.witness.pairs

    @pytest.mark.parametrize("method", ["auto", "exact", "bounds"])
    def test_keyword_no_solver_takes_is_refused(self, method):
        w = self.window([[0, 1], [1, 0]], 0, 1.0)
        with pytest.raises(TypeError, match="'bogus'"):
            pointed_gh_bounds(w, w, method=method, bogus=1)

    def test_radius_mismatch_warns(self):
        w1 = self.window([[0, 1], [1, 0]], 0, 1.0)
        w2 = self.window([[0, 1], [1, 0]], 0, 2.0)
        with pytest.warns(UserWarning, match="different radii"):
            pointed_gh_bounds(w1, w2)


def line_space(n):
    xs = np.arange(n, dtype=float)
    return FiniteMetricSpace(np.abs(xs[:, None] - xs[None, :]))


class TestDispatch:
    def keyword_only(self, fn):
        params = inspect.signature(fn).parameters.values()
        return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}

    def test_keywords_are_method_plus_the_solvers_options(self):
        ours = self.keyword_only(gh_distance)
        bounds, exact = self.keyword_only(gh_bounds), self.keyword_only(gh_exact_small)
        assert set(ours) == {"method"} | set(bounds) | set(exact)
        for name in set(bounds) | set(exact):  # no solver default is overridden
            assert ours[name] == {**bounds, **exact}[name]
        assert exact["budget"] == gh_solver.EXACT_BUDGET

    @pytest.mark.parametrize("ny,exact", [(20, True), (21, False)])
    def test_auto_runs_the_exact_search_iff_nx_ny_at_most_400(self, ny, exact):
        X, Y = line_space(20), line_space(ny)
        assert (gh_distance(X, Y).exact is not None) is exact
        w1, w2 = (PointedWindow(S, 0, 1.0, 20.0) for S in (X, Y))
        assert (pointed_gh_bounds(w1, w2).exact is not None) is exact

    @pytest.mark.parametrize("solver", [gh_bounds, gh_exact_small])
    @pytest.mark.parametrize("base_pair,message", [
        ((-1, 0), "base index -1 outside 0..2 of X"), ((3, 0), "base index 3 outside 0..2 of X"),
        ((0, -1), "base index -1 outside 0..3 of Y"), ((0, 4), "base index 4 outside 0..3 of Y")])
    def test_base_pair_out_of_range_is_refused(self, solver, base_pair, message):
        with pytest.raises(DomainError, match=message):
            solver(line_space(3), line_space(4), base_pair=base_pair)

    @pytest.mark.parametrize("solver", [gh_bounds, gh_exact_small])
    @pytest.mark.parametrize("base_pair,message", [
        ((1.5, 0), "base index 1.5 of X is not an integer"),
        ((0, 2.0), "base index 2.0 of Y is not an integer")])
    def test_non_integer_base_index_is_refused(self, solver, base_pair, message):
        with pytest.raises(DomainError, match=message):
            solver(line_space(3), line_space(4), base_pair=base_pair)

    @pytest.mark.parametrize("solver,options", [
        (gh_distance, {"method": "exact", "budget": -5}),
        (gh_distance, {"method": "bounds", "budget": -1}),
        (gh_distance, {"restarts": -1}),
        (gh_exact_small, {"budget": -1}),
        (gh_bounds, {"restarts": -3})])
    def test_negative_budget_or_restarts_is_refused(self, solver, options):
        (name, value), = ((k, v) for k, v in options.items() if k != "method")
        with pytest.raises(DomainError, match=f"{name} {value} is negative"):
            solver(line_space(3), line_space(4), **options)

    def test_zero_budget_enters_no_slot_and_falls_back_to_gh_bounds(self):
        rng = np.random.default_rng(7)
        X, Y = random_space(rng, 7), random_space(rng, 6)
        res, full = gh_distance(X, Y, budget=0), gh_bounds(X, Y)
        assert res.exact is None
        assert (res.lower, res.upper) == (full.lower, full.upper)
        assert res.witness.pairs == full.witness.pairs


class TestMapDistortion:
    def test_isometric_bijection(self):
        rng = np.random.default_rng(41)
        X = random_space(rng, 6)
        perm = rng.permutation(6)
        Y = X.submatrix(perm)
        f = np.argsort(perm)  # x sits at position f[x] of Y
        assert map_distortion(f, X, Y) == (0.0, 0.0)

    def test_constant_map_to_two_point_space(self):
        X = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        Y = two_point_space(2.0)
        dist, defect = map_distortion(np.zeros(3, dtype=int), X, Y)
        assert dist == pytest.approx(X.diameter())
        assert defect == pytest.approx(2.0)

    def test_out_of_range_image_rejected(self):
        X = two_point_space(1.0)
        with pytest.raises(DomainError):
            map_distortion([0, 5], X, X)

    def test_eps_isometry_bridge(self):
        # dist(f) <= e1 and defect <= e2 force d_GH < 2 max(e1, e2)
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            X = random_space(rng, n)
            Y = random_space(rng, n)
            f = rng.integers(0, n, size=n)
            e1, e2 = map_distortion(f, X, Y)
            eps = max(e1, e2)
            R = correspondence_from_map(f, X, Y)
            upper = distortion_of_correspondence(X, Y, R) / 2.0
            assert upper <= 2 * eps + 1e-12
            exact = gh_exact_small(X, Y).exact
            assert exact <= 2 * eps + 1e-12


class TestOracleInternals:
    def test_minimal_family_covers_both_sides(self):
        for pairs in minimal_full_correspondences(3, 2):
            assert {i for i, _ in pairs} == {0, 1, 2}
            assert {j for _, j in pairs} == {0, 1}

    def test_exhaustive_matches_tiny_brute_force(self):
        # for 2x2, check enumeration of minimal correspondences against the
        # literal scan of all 7 full relations
        rng = np.random.default_rng(47)
        X, Y = random_space(rng, 2), random_space(rng, 2)
        best = np.inf
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for mask in range(1, 16):
            chosen = [cells[b] for b in range(4) if mask >> b & 1]
            if {i for i, _ in chosen} != {0, 1} or {j for _, j in chosen} != {0, 1}:
                continue
            best = min(best, distortion_of_correspondence(
                X, Y, Correspondence(tuple(chosen))))
        assert gh_exhaustive(X, Y) == pytest.approx(best / 2.0, abs=1e-15)
