"""Tests for distortion envelopes, envelope algebra and the QC probe."""

import numpy as np
import pytest

from metric_lab.errors import DegenerateEnvelopeError, DomainError
from metric_lab.metric_core import FiniteMetricSpace, rescale
from metric_lab.qs_analysis import (
    DistortionEnvelope,
    SampledMap,
    check_eta,
    diam_ratio_check,
    distortion_envelope,
    envelope_compose,
    envelope_from_samples,
    envelope_invert,
    qc_constant_probe,
)


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
            assert s <= full.eval_step(t) + 1e-12

    def test_envelope_minimality(self, snowflake30):
        env = distortion_envelope(snowflake30, "all")
        # removing any breakpoint strictly lowers the step function there
        for k in range(1, len(env.ts)):
            thinned = DistortionEnvelope(np.delete(env.ts, k), np.delete(env.ss, k))
            assert thinned.eval_step(env.ts[k]) < env.ss[k]

    def test_fewer_than_three_points_rejected(self):
        m = line_space([0, 1])
        with pytest.raises(DomainError):
            distortion_envelope(identity_map(m, m))


class TestCheckEta:
    def test_envelope_dominates_itself(self, snowflake30):
        env = distortion_envelope(snowflake30, "all")
        ok, worst = check_eta(env, env)
        assert ok and worst is None

    def test_linear_eta_fails_below_one(self, snowflake30):
        env = distortion_envelope(snowflake30, "all")
        ok, worst = check_eta(env, (env.ts, env.ts))
        assert not ok
        t, env_s, eta_s = worst
        assert t < 1.0 and env_s > eta_s  # sqrt(t) > t exactly there

    def test_true_power_law_passes(self, snowflake30):
        env = distortion_envelope(snowflake30, "all")
        ok, _ = check_eta(env, (env.ts, env.ts ** 0.5 + 1e-13))
        assert ok

    def test_eta_undefined_at_breakpoint_rejected(self, snowflake30):
        env = distortion_envelope(snowflake30, "all")
        with pytest.raises(DomainError):
            check_eta(env, (env.ts[:4], env.ss[:4]))


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
            lo, hi = inv_algebra.t_range()
            if lo <= t <= hi:
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

    def test_compose_linear_forms(self):
        u = np.linspace(0.01, 14.0, 20)
        theta = DistortionEnvelope(u, 2 * u)
        t = np.linspace(0.1, 3.0, 8)
        eta = DistortionEnvelope(t, 3 * t)
        comp = envelope_compose(theta, eta)
        assert np.allclose(comp.ss, 6 * comp.ts, rtol=1e-12)


class TestDiamRatio:
    def test_equal_sets_ratio_one(self, snowflake30):
        rows = diam_ratio_check(snowflake30, [(range(30), range(30))])
        assert rows[0].ratio == 1.0
        assert rows[0].holds

    def test_identity_nested_pairs_hold(self):
        m = line_space(np.linspace(0, 2, 12))
        f = identity_map(m, m)
        pairs = [(range(3), range(12)), (range(4, 8), range(2, 10))]
        for row in diam_ratio_check(f, pairs):
            assert row.holds

    def test_snowflake_nested_intervals_hold(self, snowflake30):
        pairs = [(range(10), range(30)), (range(5, 15), range(30)),
                 (range(12, 18), range(8, 25))]
        for row in diam_ratio_check(snowflake30, pairs):
            assert row.holds

    def test_singleton_subset_rejected(self, snowflake30):
        with pytest.raises(DomainError):
            diam_ratio_check(snowflake30, [([3], range(30))])


class TestQcProbe:
    def test_isometry_scores_one_at_realized_radii(self):
        m = line_space(np.linspace(0, 1, 21))
        f = identity_map(m, m)
        rows = qc_constant_probe(f, [0.5, 0.25, 0.1])
        for row in rows:
            assert row.h_max == pytest.approx(1.0)

    def test_snowflake_is_metrically_conformal_on_the_line(self):
        # image distance is a monotone function of source distance, so the
        # sup/inf ratio at any realized radius is exactly 1 at every scale
        pts = np.linspace(0.0, 1.0, 201)
        f = identity_map(line_space(pts), snowflake_space(pts, 0.5))
        rows = qc_constant_probe(f, [0.4, 0.1, 0.02])
        hs = [row.h_max for row in rows]
        assert all(h == pytest.approx(1.0, abs=1e-12) for h in hs)
        assert hs[-1] <= hs[0] + 1e-12  # trend toward 1 as r shrinks

    def test_isolated_points_are_skipped_and_counted(self):
        m = line_space([0.0, 0.01, 5.0])
        f = identity_map(m, m)
        rows = qc_constant_probe(f, [0.5])
        assert rows[0].points_skipped >= 1

    def test_radii_must_descend(self):
        m = line_space([0, 1, 2])
        with pytest.raises(DomainError):
            qc_constant_probe(identity_map(m, m), [0.1, 0.5])

    @pytest.mark.parametrize("radii", [[np.nan], [np.inf], [np.inf, 0.5], [0.5, np.nan],
                                       [0.0]])
    def test_radii_must_be_positive_and_finite(self, radii):
        m = line_space([0, 1, 2])
        with pytest.raises(DomainError, match="positive and finite"):
            qc_constant_probe(identity_map(m, m), radii)


class TestScalingInvariance:
    def test_pre_and_post_rescale_leave_envelope_unchanged(self):
        pts = np.linspace(0.0, 1.0, 15)
        dom, cod = line_space(pts), snowflake_space(pts, 0.5)
        base = distortion_envelope(identity_map(dom, cod), "all")
        pre = distortion_envelope(identity_map(rescale(dom, 3.0), cod), "all")
        post = distortion_envelope(identity_map(dom, rescale(cod, 0.25)), "all")
        probes = np.linspace(0.0, base.ts[-1], 200)
        for other in (pre, post):
            assert np.allclose(other.eval_step(probes), base.eval_step(probes),
                               rtol=1e-9, atol=1e-12)


class TestSquareMapDistortion:
    """The half-plane-to-slit-plane square map, probed empirically."""

    def test_qc_probe_is_bounded_on_the_half_disk(self):
        from metric_lab.fractal_gen import phi_half_disk_sample

        dom, cod = phi_half_disk_sample()
        f = SampledMap(dom, cod, np.arange(dom.n))
        rows = qc_constant_probe(f, [0.5, 0.3, 0.2])
        for row in rows:
            assert row.points_used > 0
            assert row.h_max <= 4.0  # frozen from the computed table

    def test_single_monotone_eta_bounds_both_resolutions(self):
        from metric_lab.fractal_gen import phi_half_disk_sample
        from metric_lab.qs_analysis import check_eta, envelope_from_samples

        envs = []
        for n_r, n_t in ((6, 7), (11, 13)):
            dom, cod = phi_half_disk_sample(n_r, n_t)
            f = SampledMap(dom, cod, np.arange(dom.n))
            envs.append(distortion_envelope(f, "all"))
        merged = envelope_from_samples(
            np.concatenate([e.ts for e in envs]),
            np.concatenate([e.ss for e in envs]))
        for env in envs:
            ok, worst = check_eta(env, merged)
            assert ok, worst
        assert merged.ss.max() <= 40.0  # frozen from the computed envelopes


class TestCompositionConsistency:
    def test_envelope_of_composition_below_composed_envelopes(self):
        pts = np.linspace(0.0, 1.0, 20)
        gaps = np.abs(pts[:, None] - pts[None, :])
        A = FiniteMetricSpace(gaps)
        B = FiniteMetricSpace(gaps ** 0.5)
        C = FiniteMetricSpace(gaps ** 0.25)
        ident = np.arange(20)
        env_f = distortion_envelope(SampledMap(A, B, ident), "all")
        env_g = distortion_envelope(SampledMap(B, C, ident), "all")
        env_gf = distortion_envelope(SampledMap(A, C, ident), "all")
        comp = envelope_compose(env_g, env_f)
        lo, hi = comp.t_range()
        for t, s in env_gf.breakpoints:
            if lo <= t <= hi:
                assert s <= comp.eval_linear(t) + 1e-9


def test_an_empty_radius_list_is_refused():
    m = line_space([0, 1, 2])
    with pytest.raises(DomainError, match="radii must be nonempty"):
        qc_constant_probe(identity_map(m, m), [])
