"""Tests for distortion envelopes and envelope inversion."""

import numpy as np
import pytest

from metric_lab import qs_analysis
from metric_lab.errors import DegenerateEnvelopeError, DomainError
from metric_lab.metric_core import FiniteMetricSpace, rescale
from metric_lab.qs_analysis import (
    MAX_TRIPLE_BUDGET,
    DistortionEnvelope,
    SampledMap,
    distortion_envelope,
    envelope_from_samples,
    envelope_invert,
)

from .oracles import reference_envelope_all, reference_eval_step


def line_space(points):
    pts = np.asarray(points, dtype=float)
    return FiniteMetricSpace(np.abs(pts[:, None] - pts[None, :]),
                             tuple(float(p) for p in pts))


def snowflake_space(points, eps):
    pts = np.asarray(points, dtype=float)
    return FiniteMetricSpace(np.abs(pts[:, None] - pts[None, :]) ** eps,
                             tuple(float(p) for p in pts))


def identity_map(domain, codomain):
    return SampledMap(domain, codomain, np.arange(domain.n))


@pytest.fixture
def snowflake30():
    pts = np.linspace(0.0, 1.0, 30)
    return identity_map(line_space(pts), snowflake_space(pts, 0.5))


class TestEnvelope:
    def test_identity_map_envelope_is_diagonal(self):
        m = line_space([0.0, 0.3, 1.0, 2.2])
        env = distortion_envelope(identity_map(m, m), "all")
        assert np.allclose(env.ss, env.ts, rtol=0, atol=0)
        assert env.ts[0] == 0.0 and env.ss[0] == 0.0

    def test_global_scaling_leaves_ratios_alone(self):
        m = line_space([0.0, 0.4, 1.1, 3.0])
        env = distortion_envelope(identity_map(m, rescale(m, 7.0)), "all")
        assert np.allclose(env.ss, env.ts)

    def test_snowflake_envelope_is_exact_power_law(self, snowflake30):
        env = distortion_envelope(snowflake30, "all")
        assert np.all(np.abs(env.ss - env.ts ** 0.5) <= 1e-12)

    def test_non_injective_map_rejected(self):
        m = line_space([0, 1, 2])
        with pytest.raises(DomainError):
            SampledMap(m, m, np.array([0, 0, 1]))

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, snowflake30, budget):
        # -3 used to escape as numpy's "negative dimensions are not allowed"
        with pytest.raises(DomainError, match="budget"):
            distortion_envelope(snowflake30, budget)

    def test_budget_sampling_is_dominated_by_full_envelope(self, snowflake30):
        full = distortion_envelope(snowflake30, "all")
        sub = distortion_envelope(snowflake30, 2000, seed=1)
        # subsampled envelope is pointwise below the full one
        for t, s in sub.breakpoints:
            assert s <= reference_eval_step(full, t) + 1e-12

    def test_envelope_minimality(self, snowflake30):
        env = distortion_envelope(snowflake30, "all")
        # removing any breakpoint strictly lowers the step function there
        for k in range(1, len(env.ts)):
            thinned = DistortionEnvelope(np.delete(env.ts, k), np.delete(env.ss, k))
            assert reference_eval_step(thinned, env.ts[k]) < env.ss[k]

    def test_fewer_than_three_points_rejected(self):
        m = line_space([0, 1])
        with pytest.raises(DomainError):
            distortion_envelope(identity_map(m, m))


def l1_space(points):
    P = np.asarray(points, dtype=float)
    return FiniteMetricSpace(np.abs(P[:, None, :] - P[None, :, :]).sum(axis=-1))


def seeded_pairs():
    """(name, map) of seeded spaces whose ratios repeat across x rows: integer
    points of a line or a grid, so equal-t groups span the 8-row parts."""
    rng = np.random.default_rng(20261020)
    out = []
    for k, n in enumerate((3, 7, 8, 9, 17, 24, 33, 41)):
        dom = line_space(rng.choice(3 * n, size=n, replace=False))
        grid = rng.choice(49, size=n, replace=False)
        cod = l1_space(np.stack([grid % 7, grid // 7], axis=1))
        out.append((f"line-grid-{n}", SampledMap(dom, cod, rng.permutation(n))))
        dom = l1_space(rng.integers(0, 4, size=(n, 2)))  # coincident points: 0/0 source ratios
        cod = snowflake_space(rng.choice(5 * n, size=n, replace=False), 0.5)
        out.append((f"coincident-domain-{n}", SampledMap(dom, cod, np.arange(n))))
        pts = rng.random((n, 2))
        out.append((f"random-{n}", SampledMap(
            FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)),
            snowflake_space(rng.random(n), 0.7), rng.permutation(n))))
    return out


class TestEnvelopeAgainstFrozenReference:
    @pytest.mark.parametrize("n", [30, 120])
    def test_reproduce_and_benchmark_pairs(self, n):
        # the `reproduce` pair (30 points) and the benchmark's (120 points)
        pts = np.linspace(0.0, 1.0, n)
        env = distortion_envelope(identity_map(line_space(pts), snowflake_space(pts, 0.5)), "all")
        ts, ss = reference_envelope_all(identity_map(line_space(pts), snowflake_space(pts, 0.5)))
        assert env.ts.tobytes() == ts.tobytes() and env.ss.tobytes() == ss.tobytes()

    @pytest.mark.parametrize("name,f", seeded_pairs())
    def test_seeded_spaces_with_repeated_ratios(self, name, f):
        env = distortion_envelope(f, "all")
        ts, ss = reference_envelope_all(f)
        assert env.ts.tobytes() == ts.tobytes() and env.ss.tobytes() == ss.tobytes()

    def test_parts_are_merged_into_one_staircase(self, monkeypatch):
        # parts of 1, 2 and 3 rows of 17 x 17 samples (a bound below one row
        # still takes a row) give the bytes of one sort of every triple
        f = dict(seeded_pairs())["coincident-domain-17"]
        assert f.domain.n == 17
        ts, ss = reference_envelope_all(f)
        for samples in (1, 17 * 17, 2 * 17 * 17, 3 * 17 * 17 + 16):
            monkeypatch.setattr(qs_analysis, "_ENVELOPE_SAMPLES", samples)
            env = distortion_envelope(f, "all")
            assert env.ts.tobytes() == ts.tobytes() and env.ss.tobytes() == ss.tobytes()


class TestTripleBudget:
    def test_a_budget_above_the_bound_is_refused_before_sampling(self, monkeypatch):
        # 217^2 * 216 ordered triples exceed the bound, so no fallback to "all"
        pts = np.arange(217.0)
        f = identity_map(line_space(pts), snowflake_space(pts, 0.5))
        monkeypatch.setattr(qs_analysis, "_triple_samples_budget", None)
        with pytest.raises(DomainError, match=f"exceeds {MAX_TRIPLE_BUDGET}"):
            distortion_envelope(f, MAX_TRIPLE_BUDGET + 1)

    @pytest.mark.parametrize("budget", [30 * 30 * 29, MAX_TRIPLE_BUDGET + 1, 10 ** 12])
    def test_a_budget_covering_every_triple_enumerates_them(self, snowflake30, budget):
        full = distortion_envelope(snowflake30, "all")
        env = distortion_envelope(snowflake30, budget)
        assert env.ts.tobytes() == full.ts.tobytes() and env.ss.tobytes() == full.ss.tobytes()


class TestSampledMap:
    def test_distinct_points_with_one_image_are_refused(self):
        # their image ratio would be 0/0
        m, c = line_space([0, 1, 2]), line_space([0, 1, 1, 3])
        SampledMap(m, c, np.array([0, 1, 3]))
        with pytest.raises(DomainError, match="distinct images"):
            SampledMap(m, c, np.array([0, 1, 2]))

    @pytest.mark.parametrize("assignment,match", [
        ([0, 1], "cover all 3"), ([0, 1, 2, 3], "cover all 3"),
        ([-1, 0, 1], "out of range"), ([0, 1, 4], "out of range")])
    def test_assignment_covers_the_domain_inside_the_codomain(self, assignment, match):
        m, c = line_space([0, 1, 2]), line_space([0, 1, 2, 3])
        with pytest.raises(DomainError, match=match):
            SampledMap(m, c, np.array(assignment))


class TestEnvelopeBreakpoints:
    @pytest.mark.parametrize("ts,ss,match", [
        ([0.0, 1.0], [0.0], "matching 1-d"),
        ([[0.0, 1.0]], [[0.0, 1.0]], "matching 1-d"),
        ([], [], "matching 1-d"),
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "strictly increase"),
        ([0.0, 1.0, 2.0], [0.0, 2.0, 1.0], "nondecreasing")])
    def test_breakpoints_must_be_monotone_and_matched(self, ts, ss, match):
        with pytest.raises(DomainError, match=match):
            DistortionEnvelope(np.array(ts), np.array(ss))

    def test_step_evaluation_is_zero_below_and_right_continuous(self):
        env = DistortionEnvelope(np.array([0.5, 1.0, 2.0]), np.array([1.0, 3.0, 4.0]))
        assert reference_eval_step(env, 0.25) == 0.0
        assert reference_eval_step(env, 1.0) == 3.0
        assert reference_eval_step(env, 1.0 - 1e-12) == 1.0
        assert list(reference_eval_step(env, np.array([0.5, 1.5, 9.0]))) == [1.0, 3.0, 4.0]

    @pytest.mark.parametrize("t", [0.25, 2.5])
    def test_linear_evaluation_outside_the_sampled_range(self, t):
        # refused unless extrapolation is allowed, then clamped to the end value
        env = DistortionEnvelope(np.array([0.5, 1.0, 2.0]), np.array([1.0, 3.0, 4.0]))
        with pytest.raises(DomainError, match="outside sampled envelope range"):
            env.eval_linear(t)
        assert env.eval_linear(t, allow_extrapolation=True) == (1.0 if t < 0.5 else 4.0)
        assert env.eval_linear(1.5) == 3.5


class TestEnvelopeAlgebra:
    def test_invert_identity(self):
        t = np.linspace(0.1, 4.0, 12)
        env = DistortionEnvelope(t, t)
        inv = envelope_invert(env)
        assert np.allclose(inv.ts, inv.ss)

    def test_invert_power_law_two_routes_agree(self):
        # route 1: invert the measured forward envelope
        pts = np.linspace(0.0, 1.0, 25)
        fwd = identity_map(line_space(pts), snowflake_space(pts, 0.5))
        bwd = identity_map(snowflake_space(pts, 0.5), line_space(pts))
        inv_algebra = envelope_invert(distortion_envelope(fwd, "all"))
        env_direct = distortion_envelope(bwd, "all")
        # route 2: measure the inverse map directly; compare where both sampled
        for t, s in env_direct.breakpoints:
            if t == 0.0:
                continue
            if inv_algebra.ts[0] <= t <= inv_algebra.ts[-1]:
                assert abs(inv_algebra.eval_linear(t) - s) <= 1e-9

    def test_involution_at_interior_breakpoints(self, snowflake30):
        env = distortion_envelope(snowflake30, "all")
        back = envelope_invert(envelope_invert(env))
        for t, s in env.breakpoints:
            if t <= 0:
                continue
            assert abs(back.eval_linear(t, allow_extrapolation=True) - s) <= 1e-9

    def test_flat_segment_refused(self):
        # measured envelopes collapse flats, but a hand-built table may hold one
        flat = envelope_from_samples(np.array([0.5, 1.0]), np.array([1.0, 1.0]))
        assert flat.ts.size == 1
        with pytest.raises(DegenerateEnvelopeError, match="flat segment"):
            envelope_invert(DistortionEnvelope(np.array([0.5, 1.0, 2.0]),
                                               np.array([1.0, 1.0, 3.0])))


class TestScalingInvariance:
    def test_pre_and_post_rescale_leave_envelope_unchanged(self):
        pts = np.linspace(0.0, 1.0, 15)
        dom, cod = line_space(pts), snowflake_space(pts, 0.5)
        base = distortion_envelope(identity_map(dom, cod), "all")
        pre = distortion_envelope(identity_map(rescale(dom, 3.0), cod), "all")
        post = distortion_envelope(identity_map(dom, rescale(cod, 0.25)), "all")
        probes = np.linspace(0.0, base.ts[-1], 200)
        for other in (pre, post):
            assert np.allclose(reference_eval_step(other, probes),
                               reference_eval_step(base, probes), rtol=1e-9, atol=1e-12)


class TestSquareMapDistortion:
    """The half-plane-to-slit-plane square map, probed empirically."""

    def test_single_monotone_eta_bounds_both_resolutions(self):
        from metric_lab.fractal_gen import phi_half_disk_sample

        envs = []
        for n_r, n_t in ((6, 7), (11, 13)):
            dom, cod = phi_half_disk_sample(n_r, n_t)
            f = SampledMap(dom, cod, np.arange(dom.n))
            envs.append(distortion_envelope(f, "all"))
        merged = envelope_from_samples(
            np.concatenate([e.ts for e in envs]),
            np.concatenate([e.ss for e in envs]))
        # the running max of both sample sets dominates each envelope
        for env in envs:
            assert np.all(env.ss <= reference_eval_step(merged, env.ts))
        assert merged.ss.max() <= 40.0  # frozen from the computed envelopes

