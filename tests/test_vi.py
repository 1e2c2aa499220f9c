"""Coordinate-ascent updates, ELBO, convergence and post-processing."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, log_ndtr

from ammivi import gibbs, vi
from ammivi.model import (THETA_FIELDS, Dataset, Hyperparams, ModelConfig, ThetaPoint,
                          mean_matrix)
from ammivi.simulate import SimScenario, simulate
from ammivi.statsmath import centered_svd, sample_trunc_normal
from conftest import complete_dataset, random_dataset, random_theta


def zero_theta(I, J, Q=0, sigma2=1.0):
    return ThetaPoint(mu=0.0, g=np.zeros(I), e=np.zeros(J),
                      lam=np.full(Q, 1.0), gamma=np.zeros((I, Q)),
                      delta=np.zeros((J, Q)), sigma2=sigma2)


def assert_valid_state(state):
    """Every variational variance and the q(tau) shape and rate are finite and > 0."""
    for name in [f"Sigma_q_{block}" for block in vi.BLOCKS] + ["a_q", "b_q"]:
        val = np.asarray(getattr(state, name))
        assert np.all(np.isfinite(val)) and np.all(val > 0), name


def state_with_variances(theta, dataset, config, rng):
    """Variational state at theta with randomized, honest variances."""
    state = vi.init_state(theta, dataset, config)
    state.Sigma_q_mu = float(rng.uniform(0.05, 0.4))
    state.Sigma_q_g = rng.uniform(0.05, 0.4, state.mu_q_g.size)
    state.Sigma_q_e = rng.uniform(0.05, 0.4, state.mu_q_e.size)
    state.Sigma_q_lambda = rng.uniform(0.05, 0.4, state.n_components)
    state.Sigma_q_gamma = rng.uniform(0.05, 0.4, state.mu_q_gamma.shape)
    state.Sigma_q_delta = rng.uniform(0.05, 0.4, state.mu_q_delta.shape)
    state.a_q = float(rng.uniform(3.0, 20.0))
    state.b_q = float(rng.uniform(3.0, 20.0))
    assert_valid_state(state)
    return state


def sample_from_state(state, n_draws, rng):
    """Independent draws from every variational factor (sampling path,
    not the moment formulas)."""
    I, Q = state.mu_q_gamma.shape
    J = state.mu_q_delta.shape[0]
    mu = rng.normal(state.mu_q_mu, np.sqrt(state.Sigma_q_mu), n_draws)
    g = state.mu_q_g + np.sqrt(state.Sigma_q_g) * rng.standard_normal((n_draws, I))
    e = state.mu_q_e + np.sqrt(state.Sigma_q_e) * rng.standard_normal((n_draws, J))
    gamma = (state.mu_q_gamma
             + np.sqrt(state.Sigma_q_gamma) * rng.standard_normal((n_draws, I, Q)))
    delta = (state.mu_q_delta
             + np.sqrt(state.Sigma_q_delta) * rng.standard_normal((n_draws, J, Q)))
    lam = np.empty((n_draws, Q))
    for q in range(Q):
        lam[:, q] = sample_trunc_normal(
            rng, float(state.mu_q_lambda[q]), float(state.Sigma_q_lambda[q]), size=n_draws)
        gamma[:, 0, q] = sample_trunc_normal(
            rng, float(state.mu_q_gamma[0, q]), float(state.Sigma_q_gamma[0, q]),
            size=n_draws)
    tau = rng.gamma(state.a_q, 1.0 / state.b_q, n_draws)
    return mu, g, e, lam, gamma, delta, tau


class TestInitState:
    def test_means_reproduce_theta(self, rng, hyper):
        ds, _ = simulate(SimScenario(I=10, J=6, Q=1, lambda_true=(15.0,), seed=2))
        theta = random_theta(rng, 10, 6, 1)
        theta = ThetaPoint(mu=theta.mu, g=theta.g, e=theta.e, lam=[15.0],
                           gamma=np.abs(theta.gamma), delta=theta.delta,
                           sigma2=theta.sigma2)
        state = vi.init_state(theta, ds, ModelConfig(Q=1, hyper=hyper))
        cache = vi.expectations(state)
        # truncation bias is tiny when the location is many sds above 0
        assert abs(cache.tilde_lambda[0] - 15.0) < 1e-3
        assert np.max(np.abs(cache.tilde_g - theta.g)) < 1e-12
        assert cache.tilde_tau == pytest.approx(1.0 / theta.sigma2, rel=1e-12)

    def test_lambda_clipped(self, rng, hyper):
        ds = random_dataset(rng, 5, 4)
        theta = zero_theta(5, 4, Q=1)
        theta = ThetaPoint(mu=0.0, g=theta.g, e=theta.e, lam=[0.0],
                           gamma=theta.gamma, delta=theta.delta, sigma2=1.0)
        state = vi.init_state(theta, ds, ModelConfig(Q=1, hyper=hyper))
        assert state.mu_q_lambda[0] == 1e-6
        assert_valid_state(state)

    def test_gamma_first_row_sign_fixed(self, rng, hyper):
        ds = random_dataset(rng, 5, 4)
        theta = random_theta(rng, 5, 4, 2)
        gamma = theta.gamma.copy()
        gamma[0] = [-1.0, -2.0]
        theta = ThetaPoint(mu=theta.mu, g=theta.g, e=theta.e, lam=theta.lam,
                           gamma=gamma, delta=theta.delta, sigma2=1.0)
        state = vi.init_state(theta, ds, ModelConfig(Q=2, hyper=hyper))
        assert np.all(state.mu_q_gamma[0] > 0)
        # paired delta flip keeps the bilinear product intact
        fitted = (state.mu_q_gamma * state.mu_q_lambda) @ state.mu_q_delta.T
        want = (gamma * theta.lam) @ theta.delta.T
        assert np.allclose(fitted, want, atol=1e-9)

    def test_dimension_mismatch(self, rng, hyper):
        ds = random_dataset(rng, 5, 4)
        with pytest.raises(ValueError):
            vi.init_state(zero_theta(6, 4), ds, ModelConfig(Q=0, hyper=hyper))


class TestUpdateMu:
    def test_flat_prior_sample_mean(self):
        ds = complete_dataset(np.full((2, 2), 5.0))
        hyper = Hyperparams(mu_mu=0.0, sigma2_mu=1e6)
        cache = vi.point_mass_cache(zero_theta(2, 2))
        state = vi.init_state(zero_theta(2, 2), ds, ModelConfig(Q=0, hyper=hyper))
        mean, var = vi.update_mu(state, ds, hyper, cache)
        assert mean == pytest.approx(5.0, abs=1e-4)

    def test_prior_domination(self):
        ds = complete_dataset(np.full((2, 2), 5.0))
        hyper = Hyperparams(mu_mu=-3.0, sigma2_mu=1e-12)
        cache = vi.point_mass_cache(zero_theta(2, 2))
        state = vi.init_state(zero_theta(2, 2), ds, ModelConfig(Q=0, hyper=hyper))
        mean, _ = vi.update_mu(state, ds, hyper, cache)
        assert mean == pytest.approx(-3.0, abs=1e-9)

    def test_hand_arithmetic_2x2(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        ds = complete_dataset(y)
        hyper = Hyperparams(mu_mu=1.0, sigma2_mu=4.0)
        theta = ThetaPoint(mu=0.0, g=[0.5, -0.5], e=[0.2, -0.2],
                           lam=np.zeros(0), gamma=np.zeros((2, 0)),
                           delta=np.zeros((2, 0)), sigma2=2.0)
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds, ModelConfig(Q=0, hyper=hyper))
        mean, var = vi.update_mu(state, ds, hyper, cache)
        tau = 0.5
        resid_sum = (y.sum() - (0.5 - 0.5) * 2 - (0.2 - 0.2) * 2)
        prec = 4 * tau + 0.25
        assert var == pytest.approx(1.0 / prec, abs=1e-12)
        assert mean == pytest.approx((tau * resid_sum + 0.25) / prec, abs=1e-12)


class TestUpdateMainEffects:
    def test_g_is_row_mean_of_residuals_flat_prior(self, rng):
        y = rng.normal(0.0, 1.0, (3, 4))
        ds = complete_dataset(y)
        hyper = Hyperparams(mu_mu=0.0, sigma2_g=1e9)
        theta = zero_theta(3, 4)
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds, ModelConfig(Q=0, hyper=hyper))
        means, _ = vi.update_g(state, ds, hyper, cache)
        assert np.allclose(means, y.mean(axis=1), atol=1e-8)

    def test_shrinkage_to_zero(self, rng):
        ds = complete_dataset(rng.normal(0.0, 1.0, (3, 4)))
        hyper = Hyperparams(sigma2_g=1e-12, sigma2_e=1e-12)
        theta = zero_theta(3, 4)
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds, ModelConfig(Q=0, hyper=hyper))
        g_means, _ = vi.update_g(state, ds, hyper, cache)
        e_means, _ = vi.update_e(state, ds, hyper, cache)
        assert np.max(np.abs(g_means)) < 1e-9
        assert np.max(np.abs(e_means)) < 1e-9

    def test_matches_full_conditional_oracle(self, rng, hyper):
        ds = random_dataset(rng, 3, 3, missing=0.2)
        theta = random_theta(rng, 3, 3, 1)
        config = ModelConfig(Q=1, hyper=hyper)
        for block, updater in (("g", vi.update_g), ("e", vi.update_e)):
            cache = vi.point_mass_cache(theta)
            state = vi.init_state(theta, ds, config)
            means, variances = updater(state, ds, hyper, cache)
            o_means, o_vars = gibbs.full_conditional(block, theta, ds, hyper)
            assert np.max(np.abs(means - o_means)) < 1e-12
            assert np.max(np.abs(variances - o_vars)) < 1e-12

    def test_match_closed_form_away_from_point_masses(self, rng, hyper):
        I, J = 8, 6
        ds = random_dataset(rng, I, J, missing=0.2)
        state = state_with_variances(random_theta(rng, I, J, 2), ds,
                                     ModelConfig(Q=2, hyper=hyper), rng)
        theta = vi.posterior_mean_theta(state)
        resid = ds.y - mean_matrix(theta)[ds.rows, ds.cols]
        tau = state.a_q / state.b_q
        n_rows = np.bincount(ds.rows, minlength=I)
        n_cols = np.bincount(ds.cols, minlength=J)
        expected = {
            vi.update_mu: ((tau * (resid + theta.mu).sum() + hyper.mu_mu / hyper.sigma2_mu)
                           / (ds.n_obs * tau + 1.0 / hyper.sigma2_mu)),
            vi.update_g: (tau * np.bincount(ds.rows, weights=resid + theta.g[ds.rows])
                          / (n_rows * tau + 1.0 / hyper.sigma2_g)),
            vi.update_e: (tau * np.bincount(ds.cols, weights=resid + theta.e[ds.cols])
                          / (n_cols * tau + 1.0 / hyper.sigma2_e)),
        }
        for update, want in expected.items():
            work = state.copy()
            means, _ = update(work, ds, hyper, vi.expectations(work))
            assert np.max(np.abs(means - want)) < 1e-9


class TestUpdateBilinear:
    def test_lambda_plugin_recovery(self, rng):
        ds0, truth = simulate(SimScenario(I=12, J=8, Q=1, lambda_true=(20.0,),
                                          sigma2_g=0.0001, sigma2_e=0.0001,
                                          mu_mean=0.0, mu_sd=1e-6,
                                          sigma2_y=1e-12, seed=4))
        theta = ThetaPoint(mu=truth.mu, g=truth.g, e=truth.e, lam=[1.0],
                           gamma=truth.gamma, delta=truth.delta, sigma2=1e-8)
        hyper = Hyperparams(mu_mu=0.0)
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds0, ModelConfig(Q=1, hyper=hyper))
        vi.update_lambda(state, ds0, hyper, cache, 0, vi._resid(cache, ds0, 0))
        assert cache.tilde_lambda[0] == pytest.approx(20.0, abs=1e-3)

    def test_lambda_orthogonal_residual(self, rng):
        # residual orthogonal to the gamma-delta pattern: location <= 0,
        # truncation still keeps the mean positive but tiny
        I, J = 6, 5
        gamma = np.zeros((I, 1))
        gamma[0, 0], gamma[1, 0] = 1.0, -1.0
        delta = np.zeros((J, 1))
        delta[0, 0] = 1.0
        y = np.zeros((I, J))
        y[0, 0] = 1.0
        y[1, 0] = 1.0  # even pattern, orthogonal to gamma[:,0] * delta[:,0]
        ds = complete_dataset(y)
        theta = ThetaPoint(mu=0.0, g=np.zeros(I), e=np.zeros(J), lam=[1.0],
                           gamma=gamma, delta=delta, sigma2=1.0)
        hyper = Hyperparams(mu_mu=0.0)
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds, ModelConfig(Q=1, hyper=hyper))
        loc, _ = vi.update_lambda(state, ds, hyper, cache, 0, vi._resid(cache, ds, 0))
        assert loc <= 1e-12
        assert 0 < cache.tilde_lambda[0] < 1.0

    def test_gamma_single_cell_precision(self):
        # one observed column entry per row: precision = tau*E[lam^2]*E[d^2] + 1
        ds = Dataset(rows=[0, 1], cols=[0, 0], y=[1.0, 2.0],
                     n_genotypes=2, n_environments=1,
                     genotype_labels=("a", "b"), environment_labels=("x",))
        theta = ThetaPoint(mu=0.0, g=[0.0, 0.0], e=[0.0], lam=[3.0],
                           gamma=[[0.5], [0.5]], delta=[[0.7]], sigma2=2.0)
        hyper = Hyperparams(mu_mu=0.0)
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds, ModelConfig(Q=1, hyper=hyper))
        _, variances = vi.update_gamma(state, ds, hyper, cache, 0, vi._resid(cache, ds, 0))
        expected_prec = 0.5 * 9.0 * 0.49 + 1.0
        assert np.allclose(1.0 / variances, expected_prec, atol=1e-12)

    def test_first_row_truncated_mean_positive(self, rng, hyper):
        ds = random_dataset(rng, 5, 4)
        theta = random_theta(rng, 5, 4, 1)
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds, ModelConfig(Q=1, hyper=hyper))
        vi.update_gamma(state, ds, hyper, cache, 0, vi._resid(cache, ds, 0))
        assert cache.tilde_gamma[0, 0] > 0


class TestUpdateTau:
    def test_zero_residual(self, rng, hyper):
        theta = random_theta(rng, 4, 3, 1)
        ds = complete_dataset(mean_matrix(theta))
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds, ModelConfig(Q=1, hyper=hyper))
        a_q, b_q = vi.update_tau(state, ds, hyper, cache, vi.expected_sse(cache, ds))
        assert a_q == hyper.a + 6.0
        assert b_q == pytest.approx(hyper.b, abs=1e-12)

    def test_direct_formula(self):
        # n=4 with residual sum of squares 2
        y = np.array([[1.0, 1.0], [0.0, 0.0]])
        ds = complete_dataset(y)
        hyper = Hyperparams(mu_mu=0.0, a=0.1, b=0.1)
        theta = zero_theta(2, 2)
        cache = vi.point_mass_cache(theta)
        state = vi.init_state(theta, ds, ModelConfig(Q=0, hyper=hyper))
        a_q, b_q = vi.update_tau(state, ds, hyper, cache, vi.expected_sse(cache, ds))
        assert a_q == pytest.approx(2.1, abs=1e-12)
        assert b_q == pytest.approx(1.1, abs=1e-12)
        assert cache.tilde_tau == pytest.approx(21.0 / 11.0, abs=1e-12)

    def test_expected_sse_matches_monte_carlo(self, rng, hyper):
        ds = random_dataset(rng, 3, 3)
        theta = random_theta(rng, 3, 3, 1)
        config = ModelConfig(Q=1, hyper=hyper)
        state = state_with_variances(theta, ds, config, rng)
        cache = vi.expectations(state)
        analytic = vi.expected_sse(cache, ds)

        n = 400_000
        mu, g, e, lam, gamma, delta, _ = sample_from_state(state, n, rng)
        cells = mu[:, None] + g[:, ds.rows] + e[:, ds.cols]
        cells += np.einsum("dq,dnq,dnq->dn", lam, gamma[:, ds.rows, :],
                           delta[:, ds.cols, :])
        sse = np.sum((ds.y - cells) ** 2, axis=1)
        se = sse.std() / np.sqrt(n)
        assert abs(analytic - sse.mean()) < 3 * se


class TestGridGatherEquivalence:
    """The I x J grid gathers against per-observation formulas that index
    factor rows once per observed cell."""

    @staticmethod
    def ref_resid(c, ds):
        out = ds.y - c.tilde_mu - c.tilde_g[ds.rows] - c.tilde_e[ds.cols]
        for q in range(c.tilde_lambda.size):
            out -= c.tilde_lambda[q] * c.tilde_gamma[ds.rows, q] * c.tilde_delta[ds.cols, q]
        return out

    def ref_partial(self, c, ds, q):
        return (self.ref_resid(c, ds)
                + c.tilde_lambda[q] * c.tilde_gamma[ds.rows, q] * c.tilde_delta[ds.cols, q])

    def ref_sse(self, c, ds):
        r = self.ref_resid(c, ds)
        total = r @ r + ds.n_obs * c.var_mu + c.var_g[ds.rows].sum() + c.var_e[ds.cols].sum()
        for q in range(c.tilde_lambda.size):
            total += np.sum(c.tilde_lambda_sq[q] * c.tilde_gamma_sq[ds.rows, q]
                            * c.tilde_delta_sq[ds.cols, q]
                            - (c.tilde_lambda[q] * c.tilde_gamma[ds.rows, q]
                               * c.tilde_delta[ds.cols, q]) ** 2)
        return total

    def ref_lambda(self, c, ds, hyper, q):
        gd = c.tilde_gamma[ds.rows, q] * c.tilde_delta[ds.cols, q]
        gd_sq = c.tilde_gamma_sq[ds.rows, q] * c.tilde_delta_sq[ds.cols, q]
        prec = c.tilde_tau * gd_sq.sum() + 1.0 / hyper.sigma2_lambda
        return c.tilde_tau * (gd @ self.ref_partial(c, ds, q)) / prec, 1.0 / prec

    def ref_factor(self, c, ds, q, other, other_sq, own_idx, other_idx, n):
        """Location and variance of column q of gamma (own_idx = rows) or delta (own_idx = cols)."""
        weights = other[other_idx, q] * self.ref_partial(c, ds, q)
        prec = (c.tilde_tau * c.tilde_lambda_sq[q]
                * np.bincount(own_idx, weights=other_sq[other_idx, q], minlength=n) + 1.0)
        loc = c.tilde_tau * c.tilde_lambda[q] * np.bincount(own_idx, weights, minlength=n) / prec
        return loc, 1.0 / prec

    @staticmethod
    def assert_rel(actual, expected):
        actual, expected = np.asarray(actual), np.asarray(expected)
        assert actual.shape == expected.shape
        scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
        assert float(np.max(np.abs(actual - expected), initial=0.0)) <= 1e-12 * scale

    @pytest.mark.parametrize("Q", [0, 1, 2])
    def test_matches_per_observation_formulas(self, Q, hyper):
        rng = np.random.default_rng(40 + Q)
        for _ in range(6):
            I, J = int(rng.integers(3, 12)), int(rng.integers(2, 9))
            ds = random_dataset(rng, I, J, missing=float(rng.uniform(0.0, 0.4)))
            order = rng.permutation(ds.n_obs)
            ds = Dataset(rows=ds.rows[order], cols=ds.cols[order], y=ds.y[order],
                         n_genotypes=I, n_environments=J,
                         genotype_labels=ds.genotype_labels,
                         environment_labels=ds.environment_labels)
            config = ModelConfig(Q=Q, hyper=hyper)
            state = state_with_variances(random_theta(rng, I, J, Q), ds, config, rng)
            cache = vi.expectations(state)
            self.assert_rel(vi._resid(cache, ds), self.ref_resid(cache, ds))
            self.assert_rel(vi.expected_sse(cache, ds), self.ref_sse(cache, ds))
            for q in range(Q):
                partial = vi._resid(cache, ds, q)
                self.assert_rel(partial, self.ref_partial(cache, ds, q))
                expected = {
                    vi.update_lambda: self.ref_lambda(cache, ds, hyper, q),
                    vi.update_gamma: self.ref_factor(cache, ds, q, cache.tilde_delta,
                                                     cache.tilde_delta_sq, ds.rows, ds.cols, I),
                    vi.update_delta: self.ref_factor(cache, ds, q, cache.tilde_gamma,
                                                     cache.tilde_gamma_sq, ds.cols, ds.rows, J),
                }
                for update, (loc, var) in expected.items():
                    got_loc, got_var = update(copy.deepcopy(state), ds, hyper,
                                              copy.deepcopy(cache), q, partial.copy())
                    self.assert_rel(got_loc, loc)
                    self.assert_rel(got_var, var)


def prior_matched_state(I, J, Q, hyper):
    return vi.VariationalState(
        mu_q_mu=hyper.mu_mu, Sigma_q_mu=hyper.sigma2_mu,
        mu_q_g=np.zeros(I), Sigma_q_g=np.full(I, hyper.sigma2_g),
        mu_q_e=np.zeros(J), Sigma_q_e=np.full(J, hyper.sigma2_e),
        mu_q_lambda=np.zeros(Q), Sigma_q_lambda=np.full(Q, hyper.sigma2_lambda),
        mu_q_gamma=np.zeros((I, Q)), Sigma_q_gamma=np.ones((I, Q)),
        mu_q_delta=np.zeros((J, Q)), Sigma_q_delta=np.ones((J, Q)),
        a_q=hyper.a, b_q=hyper.b)


class TestElbo:
    def test_prior_matched_state_zero(self, hyper):
        state = prior_matched_state(4, 3, 2, hyper)
        assert vi._neg_kl(state, hyper) == pytest.approx(0.0, abs=1e-10)

    def test_matches_monte_carlo_oracle(self, rng):
        hyper = Hyperparams(mu_mu=1.0, sigma2_mu=4.0, sigma2_g=2.0,
                            sigma2_e=2.0, sigma2_lambda=9.0, a=2.0, b=3.0)
        ds = complete_dataset(np.array([[1.0, -0.5], [2.0, 0.5]]))
        theta = random_theta(rng, 2, 2, 1)
        config = ModelConfig(Q=1, hyper=hyper)
        state = state_with_variances(theta, ds, config, rng)
        analytic = vi.elbo(state, ds, hyper, vi.expected_sse(vi.expectations(state), ds))

        n = 300_000
        mu, g, e, lam, gamma, delta, tau = sample_from_state(state, n, rng)
        cells = mu[:, None] + g[:, ds.rows] + e[:, ds.cols]
        cells += np.einsum("dq,dnq,dnq->dn", lam, gamma[:, ds.rows, :],
                           delta[:, ds.cols, :])
        log2pi = np.log(2 * np.pi)

        def log_norm(x, m, v):
            return -0.5 * (log2pi + np.log(v) + (x - m) ** 2 / v)

        def log_trunc(x, m, v):
            return log_norm(x, m, v) - log_ndtr(m / np.sqrt(v))

        # log joint density of data and parameters
        log_p = np.sum(0.5 * (np.log(tau)[:, None] - log2pi)
                       - 0.5 * tau[:, None] * (ds.y - cells) ** 2, axis=1)
        log_p += log_norm(mu, hyper.mu_mu, hyper.sigma2_mu)
        log_p += log_norm(g, 0.0, hyper.sigma2_g).sum(axis=1)
        log_p += log_norm(e, 0.0, hyper.sigma2_e).sum(axis=1)
        log_p += (np.log(2.0) + log_norm(lam, 0.0, hyper.sigma2_lambda)).sum(axis=1)
        log_p += (np.log(2.0) + log_norm(gamma[:, 0, :], 0.0, 1.0)).sum(axis=1)
        log_p += log_norm(gamma[:, 1:, :], 0.0, 1.0).sum(axis=(1, 2))
        log_p += log_norm(delta, 0.0, 1.0).sum(axis=(1, 2))
        log_p += (hyper.a * np.log(hyper.b) - gammaln(hyper.a)
                  + (hyper.a - 1) * np.log(tau) - hyper.b * tau)

        # log variational density
        log_q = log_norm(mu, state.mu_q_mu, state.Sigma_q_mu)
        log_q += log_norm(g, state.mu_q_g, state.Sigma_q_g).sum(axis=1)
        log_q += log_norm(e, state.mu_q_e, state.Sigma_q_e).sum(axis=1)
        log_q += log_trunc(lam, state.mu_q_lambda, state.Sigma_q_lambda).sum(axis=1)
        log_q += log_trunc(gamma[:, 0, :], state.mu_q_gamma[0],
                           state.Sigma_q_gamma[0]).sum(axis=1)
        log_q += log_norm(gamma[:, 1:, :], state.mu_q_gamma[1:],
                          state.Sigma_q_gamma[1:]).sum(axis=(1, 2))
        log_q += log_norm(delta, state.mu_q_delta,
                          state.Sigma_q_delta).sum(axis=(1, 2))
        log_q += (state.a_q * np.log(state.b_q) - gammaln(state.a_q)
                  + (state.a_q - 1) * np.log(tau) - state.b_q * tau)

        diff = log_p - log_q
        se = diff.std() / np.sqrt(n)
        assert abs(analytic - diff.mean()) < 3 * se

    def test_monotone_over_sweeps(self, rng, hyper):
        ds, _ = simulate(SimScenario(I=15, J=8, Q=2, lambda_true=(18.0, 9.0),
                                     missing_fraction=0.2, seed=11))
        from ammivi.freqfit import frequentist_fit
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = vi.fit(ds, ModelConfig(Q=2, hyper=hyper), frequentist_fit(ds, 2))
        trace = result.elbo_trace
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8 * np.abs(trace[:-1]))

    @pytest.mark.parametrize("Q", [0, 1, 2])
    def test_trace_matches_from_scratch_elbo(self, Q, hyper):
        """Each sweep's ELBO, built from update_tau's expected SSE, is the ELBO of its state."""
        ds, _ = simulate(SimScenario(I=12, J=7, Q=max(Q, 1), lambda_true=(18.0, 9.0)[:max(Q, 1)],
                                     missing_fraction=0.3, seed=17))
        from ammivi.freqfit import frequentist_fit
        states = {}
        result = vi.fit(ds, ModelConfig(Q=Q, hyper=hyper, max_iter=25), frequentist_fit(ds, Q),
                        callback=lambda sweep, state: states.update({sweep: state.copy()}))
        assert sorted(states) == list(range(1, result.n_iter + 1))
        for sweep, state in states.items():
            want = vi.elbo(state, ds, hyper, vi.expected_sse(vi.expectations(state), ds))
            assert abs(result.elbo_trace[sweep] - want) <= 1e-12 * abs(want), sweep

    def test_decrease_is_reported(self, rng, hyper, monkeypatch):
        ds = random_dataset(rng, 5, 4)
        from ammivi.freqfit import frequentist_fit
        trace = [-100.0, -90.0, -90.0 * (1 + 5e-9), -95.0, -80.0, -80.0 * (1 + 2e-8)]
        values = iter(trace)
        monkeypatch.setattr(vi, "elbo", lambda state, dataset, hyper, sse: next(values))
        config = ModelConfig(Q=1, hyper=hyper, max_iter=5, tol=1e-300)
        with pytest.warns(RuntimeWarning) as caught:
            result = vi.fit(ds, config, frequentist_fit(ds, 1))
        # a 5e-9 relative step (sweep 2) is tolerated; a 2e-8 relative one (sweep 5) is not
        assert [str(w.message) for w in caught] == [
            f"ELBO decreased at sweep 3: {trace[2]!r} -> -95.0",
            f"ELBO decreased at sweep 5: -80.0 -> {trace[5]!r}"]
        assert result.elbo_trace.tolist() == trace


class TestRidgeStep:
    """The closed-form step along the additive ridge (mu + c + d, g - c, e - d)."""

    # distinct prior precisions, strong enough that the optimum is well away from the start
    HYPER = Hyperparams(mu_mu=48.0, sigma2_mu=4.0, sigma2_g=1.0, sigma2_e=2.0)

    def stepped_state(self, rng, Q=2):
        ds = random_dataset(rng, 9, 6, missing=0.3)
        config = ModelConfig(Q=Q, hyper=self.HYPER)
        state = state_with_variances(random_theta(rng, 9, 6, Q), ds, config, rng)
        cache = vi.expectations(state)
        before = state.copy(), vi._resid(cache, ds)
        vi._ridge_step(state, self.HYPER, cache)
        return ds, state, cache, before

    def elbo_at(self, state, ds):
        return vi.elbo(state, ds, self.HYPER, vi.expected_sse(vi.expectations(state), ds))

    @pytest.mark.parametrize("Q", [0, 1, 2])
    def test_cell_means_and_variances_stay_put(self, rng, Q):
        ds, state, cache, (start, resid) = self.stepped_state(rng, Q)
        assert abs(state.mu_q_mu - start.mu_q_mu) > 1e-3
        np.testing.assert_allclose(vi._resid(cache, ds), resid, rtol=0, atol=1e-12)
        for block in vi.BLOCKS:
            assert np.array_equal(getattr(state, f"Sigma_q_{block}"),
                                  getattr(start, f"Sigma_q_{block}"))
        fresh = vi.expectations(state)
        assert cache.tilde_mu == fresh.tilde_mu
        assert np.array_equal(cache.tilde_g, fresh.tilde_g)
        assert np.array_equal(cache.tilde_e, fresh.tilde_e)

    def test_second_call_is_a_fixed_point(self, rng):
        ds, state, cache, _ = self.stepped_state(rng)
        c, d = vi._ridge_step(state, self.HYPER, cache)
        assert abs(c) < 1e-12 and abs(d) < 1e-12

    def test_elbo_is_maximal_along_the_ridge(self, rng):
        ds, state, _, (start, _) = self.stepped_state(rng)
        best = self.elbo_at(state, ds)
        assert best > self.elbo_at(start, ds)
        for c, d in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
            shifted = state.copy()
            shifted.mu_q_mu += c + d
            shifted.mu_q_g -= c
            shifted.mu_q_e -= d
            assert best >= self.elbo_at(shifted, ds), (c, d)


SMALL_SCENARIOS = ["recovery-q2", "init-study"] + [
    f"bench-small-n{n}-q{q}" for n in (100, 250, 500, 1000) for q in (1, 2)]


def fit_scenario(name, missing):
    from ammivi.freqfit import frequentist_fit
    from ammivi.model import default_hyperparams
    from ammivi.simulate import scenario_by_name
    scenario = dataclasses.replace(scenario_by_name(name), missing_fraction=missing)
    ds, _ = simulate(scenario)
    return vi.fit(ds, ModelConfig(Q=scenario.Q, hyper=default_hyperparams(ds)),
                  frequentist_fit(ds, scenario.Q))


@pytest.mark.parametrize("name", SMALL_SCENARIOS)
def test_converges_on_incomplete_small_grids(name):
    """With 20% of cells missing, VI converges within the sweep cap and the ELBO never falls."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = fit_scenario(name, 0.2)
    assert result.converged and result.n_iter < 1000


@pytest.mark.parametrize("name", ["recovery-q2", "bench-small-n100-q1", "bench-small-n250-q2",
                                  "bench-small-n500-q1", "bench-small-n1000-q2"])
def test_ridge_step_leaves_complete_grid_fits_alone(name, monkeypatch):
    """On complete grids CAVI sits on the ridge optimum already: the fit is
    the one without the step, to 1e-10 and in as many sweeps."""
    with_step = fit_scenario(name, 0.0)
    monkeypatch.setattr(vi, "_ridge_step", lambda *args: (0.0, 0.0))
    without = fit_scenario(name, 0.0)
    assert with_step.converged and with_step.n_iter == without.n_iter
    assert abs(with_step.elbo_trace[-1] - without.elbo_trace[-1]) <= 1e-10
    for block in THETA_FIELDS:
        np.testing.assert_allclose(getattr(with_step.theta, block),
                                   getattr(without.theta, block), rtol=0, atol=1e-10)


class TestFit:
    def test_deterministic(self, hyper):
        ds, _ = simulate(SimScenario(I=10, J=6, Q=1, lambda_true=(15.0,), seed=7))
        from ammivi.freqfit import frequentist_fit
        init = frequentist_fit(ds, 1)
        config = ModelConfig(Q=1, hyper=hyper, seed=3)
        r1 = vi.fit(ds, config, init)
        r2 = vi.fit(ds, config, init)
        assert np.array_equal(r1.elbo_trace, r2.elbo_trace)
        assert r1.theta.mu == r2.theta.mu
        assert np.array_equal(r1.theta.gamma, r2.theta.gamma)

    def test_converges_and_fits_simulated_data(self):
        ds, truth = simulate(SimScenario(I=25, J=12, Q=1, lambda_true=(20.0,),
                                         seed=8))
        from ammivi.analysis import rmse
        from ammivi.freqfit import frequentist_fit
        from ammivi.model import default_hyperparams
        config = ModelConfig(Q=1, hyper=default_hyperparams(ds))
        result = vi.fit(ds, config, frequentist_fit(ds, 1))
        assert result.converged
        assert result.n_iter <= config.max_iter
        fitted = mean_matrix(result.theta)[ds.rows, ds.cols]
        # noise sd is 1: the fit should track observations without
        # interpolating the noise, and beat it against the true cell means
        assert 0.6 <= rmse(fitted, ds.y) <= 1.0
        truth_cells = mean_matrix(truth)[ds.rows, ds.cols]
        assert rmse(fitted, truth_cells) <= 0.6

    def test_degenerate_interaction_scenario(self):
        ds, truth = simulate(SimScenario(I=25, J=12, Q=1, lambda_true=(1e-6,),
                                         seed=13))
        from ammivi.freqfit import frequentist_fit
        from ammivi.model import default_hyperparams
        config = ModelConfig(Q=1, hyper=default_hyperparams(ds))
        result = vi.fit(ds, config, frequentist_fit(ds, 1))
        assert result.converged
        assert np.corrcoef(result.theta.g, truth.g)[0, 1] > 0.95

    def test_variances_positive_after_fit(self, hyper):
        ds, _ = simulate(SimScenario(I=8, J=6, Q=2, lambda_true=(10.0, 5.0),
                                     seed=21))
        from ammivi.freqfit import frequentist_fit
        result = vi.fit(ds, ModelConfig(Q=2, hyper=hyper), frequentist_fit(ds, 2))
        assert_valid_state(result.state)
        cache = vi.expectations(result.state)
        assert np.all(cache.tilde_lambda_sq >= cache.tilde_lambda ** 2)
        assert np.all(cache.tilde_gamma_sq >= cache.tilde_gamma ** 2 - 1e-15)

    def test_callback_sees_every_sweep(self, rng, hyper):
        ds = random_dataset(rng, 5, 4)
        from ammivi.freqfit import frequentist_fit
        seen = []
        result = vi.fit(ds, ModelConfig(Q=1, hyper=hyper), frequentist_fit(ds, 1),
                        callback=lambda k, s: seen.append(k))
        assert seen == list(range(1, result.n_iter + 1))

    @pytest.mark.parametrize("max_iter", [5, 1000])
    def test_change_trace(self, rng, hyper, max_iter):
        ds = random_dataset(rng, 6, 5, missing=0.2)
        from ammivi.freqfit import frequentist_fit
        init = frequentist_fit(ds, 1)
        config = ModelConfig(Q=1, hyper=hyper, max_iter=max_iter)
        states = [vi.init_state(init, ds, config)]
        result = vi.fit(ds, config, init, callback=lambda k, s: states.append(s.copy()))
        assert result.change_trace.shape == (result.n_iter,)
        assert result.change_trace.tolist() == [
            after.mean_changes(before) for before, after in zip(states, states[1:])]
        assert (result.change_trace[-1] < config.tol) == result.converged
        assert result.converged == (max_iter == 1000)

    @pytest.mark.parametrize("Q", [0, 1, 2])
    def test_residual_built_once_per_use(self, rng, hyper, Q, monkeypatch):
        """One residual for the first SSE, then per sweep one each for mu, g
        and e, one shared by each component's three updates, and one for the SSE."""
        ds = random_dataset(rng, 6, 5, missing=0.2)
        from ammivi.freqfit import frequentist_fit
        calls = []
        resid = vi._resid
        monkeypatch.setattr(vi, "_resid", lambda *args: calls.append(args) or resid(*args))
        config = ModelConfig(Q=Q, hyper=hyper, max_iter=3, tol=1e-300)
        result = vi.fit(ds, config, frequentist_fit(ds, Q))
        assert result.n_iter == 3
        assert len(calls) == 1 + result.n_iter * (3 + Q + 1)


class TestPostProcess:
    def test_cell_means_invariant(self, rng):
        for _ in range(100):
            I, J, Q = rng.integers(3, 10), rng.integers(3, 8), int(rng.integers(1, 3))
            theta = random_theta(rng, int(I), int(J), Q)
            out = vi.post_process(theta)
            assert np.max(np.abs(mean_matrix(out) - mean_matrix(theta))) < 1e-10

    def test_matches_svd_of_the_dense_centered_matrix(self, rng):
        # the factor-based SVD agrees with the SVD of the I x J matrix itself
        for _ in range(50):
            I, J, Q = int(rng.integers(3, 12)), int(rng.integers(3, 9)), int(rng.integers(1, 3))
            theta = random_theta(rng, I, J, Q)
            svals, gamma, delta = centered_svd(
                (theta.gamma * theta.lam) @ theta.delta.T, Q)
            out = vi.post_process(theta)
            assert np.max(np.abs(out.lam - svals[:Q])) < 1e-10
            assert np.max(np.abs(out.gamma - gamma)) < 1e-8
            assert np.max(np.abs(out.delta - delta)) < 1e-8

    def test_idempotent_on_constrained_point(self):
        _, truth = simulate(SimScenario(I=10, J=8, Q=2, lambda_true=(12.0, 6.0),
                                        seed=17))
        out = vi.post_process(truth)
        assert out.mu == pytest.approx(truth.mu, abs=1e-10)
        assert np.max(np.abs(out.g - truth.g)) < 1e-10
        assert np.max(np.abs(out.lam - truth.lam)) < 1e-10
        assert np.max(np.abs(out.gamma - truth.gamma)) < 1e-10

    def test_orders_lambda(self, rng):
        _, truth = simulate(SimScenario(I=10, J=8, Q=2, lambda_true=(12.0, 6.0),
                                        seed=18))
        swapped = ThetaPoint(mu=truth.mu, g=truth.g, e=truth.e,
                             lam=truth.lam[::-1].copy(),
                             gamma=truth.gamma[:, ::-1].copy(),
                             delta=truth.delta[:, ::-1].copy(),
                             sigma2=truth.sigma2)
        out = vi.post_process(swapped)
        assert out.lam[0] >= out.lam[1]
        assert np.max(np.abs(out.lam - truth.lam)) < 1e-10

    def test_output_satisfies_constraints(self, rng):
        theta = random_theta(rng, 8, 6, 2)
        out = vi.post_process(theta)
        assert abs(out.g.sum()) < 1e-9
        assert abs(out.e.sum()) < 1e-9
        assert np.max(np.abs(out.gamma.sum(axis=0))) < 1e-9
        assert np.max(np.abs(out.gamma.T @ out.gamma - np.eye(2))) < 1e-9
        assert out.lam[0] >= out.lam[1] >= 0
        for q in range(2):
            nz = np.nonzero(np.abs(out.gamma[:, q]) > 1e-12)[0]
            assert out.gamma[nz[0], q] > 0

    def test_bilinear_part_invariant_for_centered_factors(self, rng):
        # when the factor columns are already centered, the interaction
        # matrix itself (not just the cell means) is preserved
        raw_g = rng.standard_normal((8, 2))
        raw_d = rng.standard_normal((6, 2))
        gamma = raw_g - raw_g.mean(axis=0)
        delta = raw_d - raw_d.mean(axis=0)
        theta = ThetaPoint(mu=1.0, g=rng.standard_normal(8),
                           e=rng.standard_normal(6), lam=[5.0, 2.0],
                           gamma=gamma, delta=delta, sigma2=1.0)
        out = vi.post_process(theta)
        before = (gamma * theta.lam) @ delta.T
        after = (out.gamma * out.lam) @ out.delta.T
        assert np.max(np.abs(before - after)) < 1e-10

    def test_q0_recenters_main_effects(self):
        theta = ThetaPoint(mu=10.0, g=[1.0, 2.0], e=[3.0, 5.0],
                           lam=np.zeros(0), gamma=np.zeros((2, 0)),
                           delta=np.zeros((2, 0)), sigma2=1.0)
        out = vi.post_process(theta)
        assert abs(out.g.sum()) < 1e-12 and abs(out.e.sum()) < 1e-12
        assert out.mu == pytest.approx(10.0 + 1.5 + 4.0, abs=1e-12)
