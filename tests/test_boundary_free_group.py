"""Tests for reduced words, visual metrics, cylinders and the expanding action."""

import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_lab import boundary_free_group as bfg
from metric_lab.boundary_free_group import (
    BoundaryPoint,
    ReducedWord,
    cylinder_ball,
    cylinder_summary,
    enumerate_words,
    expanding_cover,
    expansion_factor_probe,
    first_extension,
    gromov_product_prefix,
    reduce_word,
    translate_boundary,
    visual_distance,
    word_to_string,
)
from metric_lab.errors import AlphabetError, DomainError, InsufficientDepthError

from .oracles import reference_expansion_probe


def point(word, rank):
    return BoundaryPoint(reduce_word(word, rank))


def all_points(rank, depth):
    return [BoundaryPoint(ReducedWord(w, rank)) for w in enumerate_words(rank, depth)]


class TestReduceWord:
    def test_adjacent_inverse_pair_cancels(self):
        assert reduce_word("aA", 2).letters == ()

    def test_inner_cancellation(self):
        assert str(reduce_word("abBa", 2)) == "aa"

    def test_unknown_letter_rejected(self):
        with pytest.raises(AlphabetError):
            reduce_word("axz", 2)
        with pytest.raises(AlphabetError):
            reduce_word([1, 5], 2)

    @given(st.text(alphabet="abAB", max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_reduction_is_idempotent(self, text):
        once = reduce_word(text, 2)
        assert reduce_word(once.letters, 2).letters == once.letters

    def test_string_round_trip(self):
        w = reduce_word("aBab", 2)
        assert reduce_word(word_to_string(w.letters), 2).letters == w.letters


class TestGromovProduct:
    def test_equal_points_saturate(self):
        x = point("abab", 2)
        assert gromov_product_prefix(x, x) == 4

    def test_divergence_after_first_letter(self):
        x = point("aba", 3)
        y = point("aca", 3)
        assert gromov_product_prefix(x, y) == 1

    def test_depth_mismatch_rejected(self):
        with pytest.raises(DomainError):
            gromov_product_prefix(point("ab", 2), point("aba", 2))

    def test_tree_inequality_exhaustive_depth4(self):
        # (x,y) >= min((x,z),(y,z)) holds exactly on a tree boundary
        pts = all_points(2, 4)
        P = np.array([[gromov_product_prefix(x, y) for y in pts] for x in pts])
        lhs = P[:, :, None]
        rhs = np.minimum(P[:, None, :], P[None, :, :])
        assert np.all(lhs >= rhs)


class TestVisualDistance:
    def test_zero_iff_equal(self):
        x = point("ab", 2)
        assert visual_distance(x, x) == 0.0

    def test_product_one_base_two(self):
        x = point("aba", 3)
        y = point("aca", 3)
        assert visual_distance(x, y, 2.0) == 0.5

    def test_base_must_exceed_one(self):
        x = point("ab", 2)
        with pytest.raises(DomainError):
            visual_distance(x, x, 1.0)

    @pytest.mark.parametrize("a", [2.0, 3.0, 1.5])
    def test_ultrametric_exhaustive_depth4(self, a):
        pts = all_points(2, 4)
        D = np.array([[visual_distance(x, y, a) for y in pts] for x in pts])
        lhs = D[:, :, None]
        rhs = np.maximum(D[:, None, :], D[None, :, :])
        assert np.all(lhs <= rhs + 1e-15)

    def test_four_point_condition_delta_zero(self):
        # d(x,y)+d(z,w) <= max(d(x,z)+d(y,w), d(x,w)+d(y,z)) exactly
        pts = all_points(2, 4)
        D = np.array([[visual_distance(x, y) for y in pts] for x in pts])
        n = len(pts)
        for x in range(n):  # chunk the quadruple scan over the first index
            lhs = D[x][:, None, None] + D[None, :, :]          # [y,z,w]
            rhs = np.maximum(D[x][None, :, None] + D[:, None, :],   # d(x,z)+d(y,w)
                             D[x][None, None, :] + D[:, :, None])   # d(x,w)+d(y,z)
            assert np.all(lhs <= rhs + 1e-15)


class TestCylinders:
    def test_full_prefix_gives_singleton(self):
        p = point("aba", 2)
        ball = cylinder_ball(p, 3, 3)
        assert ball.n == 1
        assert ball.labels == ("aba",)

    def test_rank2_depth3_first_letter_fixed(self):
        # each later letter has 3 non-cancelling choices: 3^(N-m) points;
        # the 4 cylinders of depth 1 partition all 4*3^2 = 36 depth-3 words
        p = point("aaa", 2)
        ball = cylinder_ball(p, 1, 3)
        assert ball.n == 9
        assert all(lbl.startswith("a") for lbl in ball.labels)
        assert len(enumerate_words(2, 3)) == 36

    def test_diameter_is_a_to_minus_m(self):
        p = point("abab", 2)
        for m in (1, 2, 3):
            ball = cylinder_ball(p, m, 4)
            assert ball.diameter() == pytest.approx(2.0 ** (-m), abs=0)

    def test_sampled_ball_is_subset(self):
        p = point("aaaa", 2)
        full = set(cylinder_ball(p, 1, 4).labels)
        sample = cylinder_ball(p, 1, 4, count=5, seed=3)
        assert sample.n == 5
        assert set(sample.labels) <= full

    def test_depth_overflow_rejected(self):
        p = point("ab", 2)
        with pytest.raises(DomainError):
            cylinder_ball(p, 3, 2)

    def test_negative_cylinder_depth_rejected(self):
        with pytest.raises(DomainError, match="outside 0..4"):
            cylinder_ball(point("abab", 2), -1, 5)

    def test_word_count_bound_is_checked_before_enumerating(self, monkeypatch):
        # 4 * 3^39 words at depth 40 would exhaust memory in the enumeration
        def enumerate_nothing(*args):
            raise AssertionError("words enumerated above the bound")

        monkeypatch.setattr(bfg, "enumerate_words", enumerate_nothing)
        p = BoundaryPoint(first_extension(reduce_word("a", 2), 40))
        for probe in (lambda: cylinder_ball(p, 0, 40, count=5),
                      lambda: expansion_factor_probe(p, 1, samples=5)):
            with pytest.raises(DomainError, match=f"at most {bfg.MAX_CYLINDER_WORDS}"):
                probe()

    def test_word_count_is_the_number_enumerated(self):
        for rank in (1, 2, 3):
            for depth in range(6):
                for w in {w[:m] for m in range(depth + 1) for w in enumerate_words(rank, depth)}:
                    assert bfg._word_count(rank, depth, len(w)) == \
                        len(enumerate_words(rank, depth, w))

    def test_prefix_longer_than_depth_rejected(self):
        # there is no such word; enumeration must refuse rather than search forever
        with pytest.raises(DomainError, match="exceeds word depth"):
            enumerate_words(2, 1, (1, 2))
        with pytest.raises(DomainError):
            enumerate_words(2, -1)

    def test_first_extension_is_the_first_enumerated_word(self):
        # every reduced prefix of every depth 0..6, ranks 1..3: 31 521 cases
        cases = 0
        for rank in (1, 2, 3):
            for depth in range(7):
                for k in range(depth + 1):
                    for w in enumerate_words(rank, k):
                        got = first_extension(ReducedWord(w, rank), depth)
                        assert got.letters == enumerate_words(rank, depth, w)[0]
                        cases += 1
        assert cases == 31_521
        with pytest.raises(DomainError, match="exceeds word depth"):
            first_extension(ReducedWord((1, 2), 2), 1)

    @pytest.mark.parametrize("a", [1.1, 2.5])
    def test_entries_equal_scalar_visual_distance(self, a):
        ball = cylinder_ball(point("abab", 2), 0, 6, a=a)
        pts = [point(lbl, 2) for lbl in ball.labels]
        expected = np.array([[visual_distance(x, y, a) for y in pts] for x in pts])
        assert np.array_equal(ball.dist, expected)

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_visual_parameter_at_most_one_rejected(self, a):
        # at a = 0.5 the depth-4 cylinder would break the triangle inequality
        with pytest.raises(DomainError, match="must exceed 1"):
            cylinder_ball(point("abab", 2), 0, 4, a=a)

    def test_sampled_ball_matches_sampled_probe_words(self):
        p = point("aaaa", 2)
        ball = cylinder_ball(p, 1, 4, count=4, seed=5)
        stats = expansion_factor_probe(p, 1, samples=4, depth=4, seed=5)
        assert ball.n == 4
        assert stats.count == 4 * 3 // 2  # distinct depth-4 words: no zero distance


class TestCylinderSummary:
    def test_points_and_diameter_equal_the_matrix_ones(self):
        # every cylinder prefix of ranks 1..3 up to depth 4 (rank 3: 3), whole
        # and sampled, at bases whose powers round, and at 1e300, whose a^-2
        # underflows to 0
        cases = 0
        for rank, deepest in ((1, 4), (2, 4), (3, 3)):
            for depth in range(1, deepest + 1):
                for m in range(depth + 1):
                    for w in enumerate_words(rank, m):
                        p = BoundaryPoint(first_extension(ReducedWord(w, rank), depth))
                        for count, seed in (("all", 0), (1, 0), (3, 7)):
                            for a in (2.0, 1.1, 1e300):
                                ball = cylinder_ball(p, m, depth, count, a, seed)
                                got = cylinder_summary(p, m, depth, count, a, seed)
                                assert got == (ball.n, ball.diameter()), (w, depth, count, a)
                                assert type(got[1]) is float
                                cases += 1
        assert cases == 4_419

    def test_the_largest_cylinder_needs_no_matrix(self):
        # 3750 words: cylinder_ball's matrix alone takes 107 MiB
        p = BoundaryPoint(first_extension(reduce_word("", 3), 5))
        tracemalloc.start()
        try:
            points, diameter = cylinder_summary(p, 0, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (points, diameter) == (3750, 1.0)
        assert peak < 16 * 2 ** 20

    def test_refuses_what_cylinder_ball_refuses(self):
        with pytest.raises(DomainError, match="must exceed 1"):
            cylinder_summary(point("abab", 2), 0, 4, a=1.0)
        with pytest.raises(DomainError, match="at most"):
            cylinder_summary(BoundaryPoint(first_extension(reduce_word("a", 2), 40)), 0, 40)


class TestTranslation:
    def test_identity_translation(self):
        x = point("abab", 2)
        g = reduce_word("", 2)
        assert translate_boundary(g, x).prefix.letters == x.prefix.letters

    def test_prefix_stripping(self):
        x = point("abab", 2)
        g = reduce_word("ab", 2).inverse()
        assert str(translate_boundary(g, x)) == "ab"

    def test_round_trip_up_to_lost_depth(self):
        x = point("abab", 2)
        g = reduce_word("ba", 2)
        there = translate_boundary(g, x)
        back = translate_boundary(g.inverse(), there)
        assert back.prefix.letters == x.prefix.letters

    def test_consuming_whole_prefix_errors(self):
        x = point("ab", 2)
        g = reduce_word("ab", 2).inverse()
        with pytest.raises(InsufficientDepthError):
            translate_boundary(g, x)


class TestExpansion:
    def test_exact_factor_depth5(self):
        p = point("ababa", 2)
        for m in (1, 2, 3):
            stats = expansion_factor_probe(p, m)
            assert stats.minimum == stats.maximum == 2.0 ** m
            assert stats.mean == 2.0 ** m

    @pytest.mark.parametrize("samples", [0, -3])
    def test_non_positive_sample_count_rejected(self, samples):
        p = point("abab", 2)
        with pytest.raises(DomainError, match="sample count must be positive"):
            expansion_factor_probe(p, 1, samples=samples)

    def test_m_beyond_known_prefix_rejected(self):
        # U(p, 3) is undefined when only two letters of p are known
        with pytest.raises(DomainError, match="outside 0..2"):
            expansion_factor_probe(point("ab", 2), 3, depth=5)
        with pytest.raises(DomainError):
            expansion_factor_probe(point("abab", 2), -1)

    def test_visual_parameter_checked_without_pairs(self):
        # m == depth leaves one word and no pair; a <= 1 is still refused
        with pytest.raises(DomainError, match="must exceed 1"):
            expansion_factor_probe(point("abab", 2), 4, a=1.0)

    def test_m_zero_is_identity(self):
        p = point("abab", 2)
        stats = expansion_factor_probe(p, 0)
        assert stats.minimum == stats.maximum == 1.0

    def test_cover_m1_rank2_has_four_cylinders(self):
        cover = expanding_cover(1, 4, 2)
        assert len(cover) == 4
        prefixes = {str(el.cylinder.prefix) for el in cover}
        assert prefixes == {"a", "A", "b", "B"}

    def test_cover_partitions_depth_n_points(self):
        cover = expanding_cover(2, 4, 2)
        seen = {}
        for el in cover:
            ball = cylinder_ball(el.cylinder.p, el.cylinder.m, 4)
            for lbl in ball.labels:
                assert lbl not in seen
                seen[lbl] = str(el.cylinder.prefix)
        assert len(seen) == len(enumerate_words(2, 4))

    def test_contraction_blows_cylinder_up_to_full_diameter(self):
        # translating a cylinder by its contraction strips the prefix: the
        # image is every reduced word at the reduced depth that can follow
        # the prefix, a set of full diameter 1 = a^m times the cylinder's
        m, depth, rank = 2, 5, 2
        for el in expanding_cover(m, depth, rank):
            ball = cylinder_ball(el.cylinder.p, m, depth)
            imgs = set()
            for lbl in ball.labels:
                moved = translate_boundary(el.contraction, point(lbl, rank))
                imgs.add(str(moved))
            last = el.cylinder.prefix.letters[-1]
            expected = {word_to_string(w) for w in enumerate_words(rank, depth - m)
                        if w[0] != -last}
            assert imgs == expected
            pts = [point(s, rank) for s in sorted(imgs)]
            diam = max(visual_distance(a, b) for a in pts for b in pts)
            assert diam == (2.0 ** m) * ball.diameter() == 1.0

    def test_quasi_self_similarity_equality(self):
        # within each cylinder the translated metric is exactly a^m times the
        # original: H = 1 in the bilipschitz magnification law
        m, depth, rank = 2, 5, 2
        el = expanding_cover(m, depth, rank)[0]
        ball = cylinder_ball(el.cylinder.p, m, depth)
        pts = [point(lbl, rank) for lbl in ball.labels]
        moved = [translate_boundary(el.contraction, q) for q in pts]
        D = np.array([[visual_distance(a, b) for b in pts] for a in pts])
        DM = np.array([[visual_distance(a, b) for b in moved] for a in moved])
        assert np.array_equal(DM, (2.0 ** m) * D)


# The frozen pair loop costs about 14 us a pair (2-core x86 machine, CPython
# 3.11): the full-cylinder cases above this many pairs (up to 7 million at
# rank 3, depth 5) are left to the sampled probes of the same grid.
_REFERENCE_PAIR_CAP = 30_000
_PROBE_POINTS = {2: "abABabA", 3: "abcAB"}


@pytest.mark.parametrize("rank,depth",
                         [(2, d) for d in range(1, 8)] + [(3, d) for d in range(1, 6)])
def test_probe_matches_frozen_pair_loop(rank, depth):
    p = point(_PROBE_POINTS[rank][:depth], rank)
    for m in range(depth + 1):
        n = len(enumerate_words(rank, depth, p.prefix.letters[:m]))
        for samples in ("all", 5, 40):
            if samples == "all" and n * (n - 1) // 2 > _REFERENCE_PAIR_CAP:
                continue
            for a in (2.0, 3.0, 1.1, 2.5):
                kw = dict(samples=samples, a=a, seed=depth + m)
                assert expansion_factor_probe(p, m, **kw) == \
                    reference_expansion_probe(p, m, **kw), (m, samples, a)


def test_largest_probe_holds_one_vector_of_its_pairs():
    # 3750 words (rank 3, depth 5, m = 0), 7 029 375 pairs: the ratio vector
    # takes 54 MiB, one n x n float matrix 107 MiB; the probe used to build
    # two of those with their prefix-length matrices, 295 MiB in all
    p = BoundaryPoint(first_extension(ReducedWord((), 3), 5))
    expansion_factor_probe(p, 0, samples=5)  # warm up lazily built state
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stats = expansion_factor_probe(p, 0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20
    assert stats == bfg.ExpansionStats(1.0, 1.0, 1.0, 3750 * 3749 // 2)


class TestCylinderSpacesValidate:
    def test_cylinder_ball_is_a_valid_metric_space(self):
        from metric_lab.metric_core import validate_metric

        ball = cylinder_ball(point("abab", 2), 1, 4)
        assert validate_metric(ball) == []
