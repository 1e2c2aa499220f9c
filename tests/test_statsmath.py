"""Numerical primitives: special functions, truncated normal, orthonormalization, R-hat."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from ammivi import statsmath
from ammivi.statsmath import (DegenerateInputError, fix_signs, gelman_rubin, log_ndtr,
                              ndtri_exp, orthonormalize_interaction, sample_trunc_normal,
                              trunc_normal_moments)
from conftest import quad_moments


class TestSpecialFunctions:
    """The library's special functions against scipy.special, the implementation they replace."""

    def test_log_ndtr_matches_scipy(self):
        x = np.concatenate([np.linspace(-1e3, 38.0, 20_001), np.linspace(-21.0, 8.0, 2_901)])
        got = np.array([log_ndtr(float(v)) for v in x])
        want = special.log_ndtr(x)
        normal = np.abs(want) >= np.finfo(float).tiny
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0)
        # above x = 37.5, log Phi(x) = -Phi(-x) is subnormal and has no relative precision
        assert np.all(np.abs(got[~normal] - want[~normal]) < np.finfo(float).tiny)

    def test_ndtri_exp_matches_scipy(self):
        y = np.concatenate([-np.geomspace(1e-300, 1e4, 20_001), np.linspace(-3.0, -1e-3, 3_001)])
        np.testing.assert_allclose(ndtri_exp(y), special.ndtri_exp(y), rtol=1e-13, atol=0)

    def test_ndtri_exp_deep_tail_inverts_scipy_log_ndtr(self):
        # below y = -1e4 scipy's own ndtri_exp strays from the root by up to 6.6e-13
        # (at y = -2.5e5, against 60-digit arithmetic), so this tail is checked backwards
        y = -np.geomspace(1e4, 2.5e5, 2_001)
        np.testing.assert_allclose(special.log_ndtr(ndtri_exp(y)), y, rtol=1e-13, atol=0)

    def test_round_trip(self):
        z = np.linspace(-700.0, 37.0, 7_371)
        back = ndtri_exp(np.array([log_ndtr(float(v)) for v in z]))
        np.testing.assert_allclose(back, z, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("name", ["digamma", "gammaln"])
    def test_gamma_functions_match_scipy(self, name):
        x = np.geomspace(1e-3, 1e6, 20_001)
        got = np.array([getattr(statsmath, name)(float(v)) for v in x])
        want = getattr(special, name)(x)
        # relative, and absolute where |value| < 1: near the roots of digamma (1.46)
        # and of gammaln (1 and 2), where no relative bound holds
        np.testing.assert_array_less(np.abs(got - want), 1e-13 * np.maximum(np.abs(want), 1.0))

    def test_ndtri_exp_float_and_array_paths_agree_bitwise(self):
        newton = statsmath._NEWTON_BELOW
        y = np.concatenate([-np.geomspace(1e-300, 2.5e5, 5_001), np.linspace(-3.0, 0.0, 3_001),
                            np.log([0.075, 0.5, 0.925]),
                            [np.nextafter(newton, 0.0), newton, np.nextafter(newton, -np.inf)]])
        want = np.array([ndtri_exp(float(v)) for v in y])
        assert np.array_equal(ndtri_exp(y), want)
        assert ndtri_exp(0.0) == np.inf and ndtri_exp(np.log(0.5)) == 0.0

class TestTruncNormalMoments:
    def test_half_normal_closed_form(self):
        mean, var = trunc_normal_moments(0.0, 1.0)
        assert mean == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-12)
        assert var == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-12)

    def test_negligible_truncation(self):
        mean, var = trunc_normal_moments(10.0, 1.0)
        assert mean == pytest.approx(10.0, abs=1e-9)
        assert var == pytest.approx(1.0, abs=1e-9)

    def test_deep_left_tail_vs_quadrature(self):
        mean, var = trunc_normal_moments(-5.0, 1.0)
        om, ov = quad_moments(-5.0, 1.0)
        assert mean == pytest.approx(om, abs=1e-8)
        assert var == pytest.approx(ov, abs=1e-8)

    def test_location_grid_vs_quadrature(self):
        for location in np.linspace(-8.0, 8.0, 33):
            for scale_sq in (0.25, 1.0, 4.0):
                mean, var = trunc_normal_moments(float(location), scale_sq)
                om, ov = quad_moments(float(location), scale_sq)
                assert abs(mean - om) < 1e-8, (location, scale_sq)
                assert abs(var - ov) < 1e-8, (location, scale_sq)

    def test_both_branches_accurate_near_switch(self):
        # just below and above the tail-series switch, each branch must
        # agree with the quadrature oracle
        for location in (-24.9, -25.1, -30.0):
            mean, var = trunc_normal_moments(location, 1.0)
            om, ov = quad_moments(location, 1.0)
            assert mean == pytest.approx(om, rel=1e-6)
            assert var == pytest.approx(ov, rel=1e-5)

    def test_rejects_bad_params(self, rng):
        with pytest.raises(ValueError):
            trunc_normal_moments(0.0, 0.0)
        with pytest.raises(ValueError):
            trunc_normal_moments(np.nan, 1.0)
        with pytest.raises(ValueError):
            trunc_normal_moments(0.0, np.inf)
        with pytest.raises(ValueError):
            sample_trunc_normal(rng, 0.0, 0.0)
        with pytest.raises(ValueError):
            sample_trunc_normal(rng, np.nan, 1.0)

    @given(location=st.floats(-30.0, 30.0), scale_sq=st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_mean_above_location_and_variance_reduced(self, location, scale_sq):
        mean, var = trunc_normal_moments(location, scale_sq)
        assert np.isfinite(mean) and np.isfinite(var)
        # strict inequalities hold mathematically; allow float rounding to
        # equality when the truncated mass is negligible
        assert mean >= location
        assert 0 < var <= scale_sq


class TestSampleTruncNormal:
    def test_support(self, rng):
        draws = sample_trunc_normal(rng, 0.0, 1.0, size=1000)
        assert np.all(draws > 0)
        assert sample_trunc_normal(rng, -3.0, 4.0) > 0

    def test_half_normal_mean(self, rng):
        n = 10 ** 6
        draws = sample_trunc_normal(rng, 0.0, 1.0, size=n)
        mean, var = trunc_normal_moments(0.0, 1.0)
        se = np.sqrt(var / n)
        assert abs(draws.mean() - mean) < 3 * se

    def test_deep_tail_matches_quadrature(self, rng):
        n = 10 ** 5
        draws = sample_trunc_normal(rng, -8.0, 1.0, size=n)
        om, ov = quad_moments(-8.0, 1.0)
        assert abs(draws.mean() - om) < 3 * np.sqrt(ov / n)

    def test_moment_match_various_params(self, rng):
        n = 200_000
        for loc, v in [(-2.0, 0.5), (1.5, 2.0), (-0.3, 1.0)]:
            draws = sample_trunc_normal(rng, loc, v, size=n)
            mean, var = trunc_normal_moments(loc, v)
            assert abs(draws.mean() - mean) < 3 * np.sqrt(var / n)

    # standardized truncation points alpha = -location / s, from far inside
    # the support to the deep tail; 0.49/0.51 straddle the old sampler's switch
    @pytest.mark.parametrize("alpha", [-40.0, -3.0, 0.0, 0.49, 0.51, 3.0, 8.0, 40.0, 200.0])
    def test_law_matches_scipy_truncnorm(self, rng, alpha):
        s = 2.0
        draws = sample_trunc_normal(rng, -alpha * s, s * s, size=20_000)
        assert np.all(draws > 0)
        law = stats.truncnorm(alpha, np.inf, loc=-alpha * s, scale=s)
        assert stats.kstest(draws, law.cdf).pvalue > 0.01

    # -80 puts log Phi(location / s) below -690, in ndtri_exp's Newton tail
    @pytest.mark.parametrize("location", [-80.0, -3.0, 0.3, 5.0, 60.0])
    def test_float_draw_is_the_one_element_of_size_one(self, location):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(200):
            single = sample_trunc_normal(rng, location, 4.0)
            batch = sample_trunc_normal(twin, location, 4.0, size=1)
            assert isinstance(single, float) and single == batch[0]
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("size", [None, 1, 7, 1000])
    def test_one_uniform_per_draw(self, size):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        sample_trunc_normal(rng, 0.3, 0.01, size=size)
        twin.random(1 if size is None else size)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestFixSigns:
    def test_negative_leading_entry_flips_pair(self):
        gamma = np.array([[-0.5, 0.5], [0.5, -0.5]])
        delta = np.array([[1.0, 2.0], [3.0, 4.0]])
        got_gamma, got_delta = fix_signs(gamma.copy(), delta.copy())
        assert np.array_equal(got_gamma, [[0.5, 0.5], [-0.5, -0.5]])
        assert np.array_equal(got_delta, [[-1.0, 2.0], [-3.0, 4.0]])

    def test_zero_first_row_uses_next_entry(self):
        gamma = np.array([[0.0, 0.0], [-0.6, 0.6], [0.6, -0.6]])
        delta = np.ones((2, 2))
        got_gamma, got_delta = fix_signs(gamma.copy(), delta.copy())
        assert np.array_equal(got_gamma[:, 0], -gamma[:, 0])
        assert np.array_equal(got_gamma[:, 1], gamma[:, 1])
        assert np.array_equal(got_delta, [[-1.0, 1.0], [-1.0, 1.0]])

    def test_entry_within_tolerance_of_zero_is_skipped(self):
        gamma = np.array([[-1e-13], [0.7], [-0.7]])
        delta = np.array([[2.0], [-2.0]])
        got_gamma, got_delta = fix_signs(gamma.copy(), delta.copy())
        assert np.array_equal(got_gamma, gamma)
        assert np.array_equal(got_delta, delta)
        got_gamma, got_delta = fix_signs(-gamma, -delta)
        assert np.array_equal(got_gamma, gamma)
        assert np.array_equal(got_delta, delta)


class TestOrthonormalizeInteraction:
    def test_hand_example(self):
        gamma, delta = orthonormalize_interaction(
            np.array([[1.0], [2.0], [3.0]]), np.array([[1.0], [0.0], [-1.0], [0.0]]))
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        # first entry is negative after centering, so the column is flipped
        assert np.allclose(gamma[:, 0], -expected, atol=1e-12)

    def test_postconditions(self, rng):
        gamma, delta = orthonormalize_interaction(
            rng.standard_normal((25, 2)), rng.standard_normal((12, 2)))
        for mat in (gamma, delta):
            assert np.max(np.abs(mat.sum(axis=0))) < 1e-10
            assert np.max(np.abs(mat.T @ mat - np.eye(2))) < 1e-10
        assert np.all(gamma[0] > 0)

    def test_idempotent(self, rng):
        gamma, delta = orthonormalize_interaction(
            rng.standard_normal((10, 2)), rng.standard_normal((8, 2)))
        gamma2, delta2 = orthonormalize_interaction(gamma, delta)
        assert np.max(np.abs(gamma2 - gamma)) < 1e-12
        assert np.max(np.abs(delta2 - delta)) < 1e-12

    def test_column_space_matches_qr_oracle(self, rng):
        raw = rng.standard_normal((25, 2))
        gamma, _ = orthonormalize_interaction(raw, rng.standard_normal((12, 2)))
        centered = raw - raw.mean(axis=0)
        q_oracle, _ = np.linalg.qr(centered)
        # principal angles between the two orthonormal bases
        sv = np.linalg.svd(q_oracle.T @ gamma, compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) < 1e-8

    def test_rank_deficiency_error(self):
        col = np.ones((5, 1)) * 3.0  # constant column: zero after centering
        with pytest.raises(DegenerateInputError):
            orthonormalize_interaction(col, np.random.default_rng(0).standard_normal((5, 1)))

    def test_too_few_rows_error(self):
        with pytest.raises(DegenerateInputError):
            orthonormalize_interaction(np.ones((2, 2)), np.ones((5, 2)))


class TestGelmanRubin:
    def test_well_mixed_chains(self, rng):
        draws = rng.standard_normal(4000).reshape(4, 1000)
        assert gelman_rubin(draws) < 1.01

    def test_separated_chains(self, rng):
        draws = np.vstack([rng.standard_normal(500),
                           rng.standard_normal(500) + 100.0])
        assert gelman_rubin(draws) > 1.1

    @staticmethod
    def scripted_rhat(draws):
        """Independent split-R-hat evaluation of (chains x iterations) draws."""
        n = draws.shape[1] // 2
        seqs = [draws[c, a:a + n] for c in range(draws.shape[0]) for a in (0, n)]
        means = np.array([s.mean() for s in seqs])
        w = np.mean([s.var(ddof=1) for s in seqs])
        b = n * means.var(ddof=1)
        return np.sqrt(((n - 1) / n * w + b / n) / w)

    def test_matches_scripted_formula(self, rng):
        draws = rng.normal(0.0, 1.0, (3, 40)) + np.array([[0.0], [0.5], [-0.2]])
        assert gelman_rubin(draws) == pytest.approx(self.scripted_rhat(draws), abs=1e-12)

    def test_trailing_axes_match_scripted_formula_entry_by_entry(self, rng):
        draws = rng.normal(0.0, 1.0, (3, 40, 4, 2)) + rng.normal(0.0, 0.5, (3, 1, 4, 2))
        rhat = gelman_rubin(draws)
        assert rhat.shape == (4, 2)
        for idx in np.ndindex(4, 2):
            want = self.scripted_rhat(draws[(slice(None), slice(None), *idx)])
            assert rhat[idx] == pytest.approx(want, abs=1e-12)

    @given(scale=st.floats(0.1, 50.0), shift=st.floats(-100.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, scale, shift):
        draws = np.random.default_rng(7).normal(0.0, 1.0, (4, 60))
        base = gelman_rubin(draws)
        moved = gelman_rubin(draws * scale + shift)
        assert moved == pytest.approx(base, rel=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            gelman_rubin(np.zeros((1, 100)))
        with pytest.raises(ValueError):
            gelman_rubin(np.ones((4, 100)))
        with pytest.raises(ValueError):
            gelman_rubin(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="2-d"):
            gelman_rubin(np.random.default_rng(0).standard_normal(100))
