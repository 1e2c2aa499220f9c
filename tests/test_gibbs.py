"""Gibbs sampler: conditionals, cross-check with VI updates, posterior checks."""

from dataclasses import replace

import numpy as np
import pytest

from ammivi import gibbs, vi
from ammivi.freqfit import frequentist_fit
from ammivi.model import (THETA_FIELDS, Hyperparams, ModelConfig, ThetaPoint, default_hyperparams,
                          post_process)
from ammivi.simulate import SimScenario, simulate
from ammivi.statsmath import gelman_rubin, sample_trunc_normal
from conftest import complete_dataset, random_dataset, random_theta


def zero_theta(I, J, sigma2=1.0):
    return ThetaPoint(mu=0.0, g=np.zeros(I), e=np.zeros(J), lam=np.zeros(0),
                      gamma=np.zeros((I, 0)), delta=np.zeros((J, 0)),
                      sigma2=sigma2)


class TestFullConditionals:
    def test_mu_flat_prior(self, rng):
        y = rng.normal(3.0, 1.0, (4, 3))
        ds = complete_dataset(y)
        hyper = Hyperparams(mu_mu=0.0, sigma2_mu=1e12)
        theta = zero_theta(4, 3, sigma2=2.0)
        mean, var = gibbs.full_conditional("mu", theta, ds, hyper)
        assert mean == pytest.approx(y.mean(), rel=1e-9)
        assert var == pytest.approx(2.0 / 12, rel=1e-9)

    def test_tau_conjugacy(self, rng):
        theta = random_theta(rng, 4, 3, 1)
        ds = random_dataset(rng, 4, 3)
        hyper = Hyperparams(mu_mu=0.0, a=0.7, b=1.3)
        from ammivi.model import mean_matrix
        sse = np.sum((ds.y - mean_matrix(theta)[ds.rows, ds.cols]) ** 2)
        shape, rate = gibbs.full_conditional("tau", theta, ds, hyper)
        assert shape == pytest.approx(0.7 + ds.n_obs / 2.0, abs=1e-12)
        assert rate == pytest.approx(1.3 + sse / 2.0, rel=1e-12)

    def test_unknown_block(self, rng, hyper):
        theta = random_theta(rng, 3, 3, 1)
        ds = random_dataset(rng, 3, 3)
        with pytest.raises(ValueError):
            gibbs.full_conditional("nope", theta, ds, hyper)

    def test_matches_vi_updates_at_point_masses(self, rng, hyper):
        """Every conditional equals the VI update run on a point-mass cache.

        The two derivations are written independently, so agreement to
        1e-10 cross-validates both.
        """
        config2 = ModelConfig(Q=2, hyper=hyper)
        for k in range(100):
            r = np.random.default_rng(1000 + k)
            I, J = int(r.integers(4, 9)), int(r.integers(4, 8))
            ds = random_dataset(r, I, J, missing=float(r.uniform(0.0, 0.25)))
            theta = random_theta(r, I, J, 2)

            def fresh():
                return (vi.init_state(theta, ds, config2),
                        vi.point_mass_cache(theta))

            state, cache = fresh()
            assert np.allclose(vi.update_mu(state, ds, hyper, cache),
                               gibbs.full_conditional("mu", theta, ds, hyper),
                               atol=1e-10)
            for block, updater in (("g", vi.update_g), ("e", vi.update_e)):
                state, cache = fresh()
                got = updater(state, ds, hyper, cache)
                want = gibbs.full_conditional(block, theta, ds, hyper)
                assert np.max(np.abs(np.concatenate(got)
                                     - np.concatenate(want))) < 1e-10
            for q in (0, 1):
                state, cache = fresh()
                got = vi.update_lambda(state, ds, hyper, cache, q, vi._resid(cache, ds, q))
                want = gibbs.full_conditional("lambda", theta, ds, hyper, q=q)
                assert np.max(np.abs(np.asarray(got) - np.asarray(want))) < 1e-10
                for block, updater in (("gamma", vi.update_gamma),
                                       ("delta", vi.update_delta)):
                    state, cache = fresh()
                    got = updater(state, ds, hyper, cache, q, vi._resid(cache, ds, q))
                    want = gibbs.full_conditional(block, theta, ds, hyper, q=q)
                    assert np.max(np.abs(np.concatenate(got)
                                         - np.concatenate(want))) < 1e-10
            state, cache = fresh()
            got = vi.update_tau(state, ds, hyper, cache, vi.expected_sse(cache, ds))
            want = gibbs.full_conditional("tau", theta, ds, hyper)
            assert np.max(np.abs(np.asarray(got) - np.asarray(want))) < 1e-10


class TestGibbsFit:
    def test_deterministic(self, hyper):
        ds, _ = simulate(SimScenario(I=6, J=5, Q=1, lambda_true=(10.0,), seed=3))
        config = ModelConfig(Q=1, hyper=hyper, seed=5)
        d1 = gibbs.gibbs_fit(ds, config, n_chains=2, n_iter=50, n_burn=10)
        d2 = gibbs.gibbs_fit(ds, config, n_chains=2, n_iter=50, n_burn=10)
        assert np.array_equal(d1.mu, d2.mu)
        assert np.array_equal(d1.gamma, d2.gamma)

    def test_burn_in_scans_are_not_stored(self, hyper):
        ds, _ = simulate(SimScenario(I=6, J=5, Q=2, lambda_true=(10.0, 4.0), seed=3))
        config = ModelConfig(Q=2, hyper=hyper, seed=5)
        burnt = gibbs.gibbs_fit(ds, config, n_chains=2, n_iter=40, n_burn=15)
        whole = gibbs.gibbs_fit(ds, config, n_chains=2, n_iter=40, n_burn=0)
        assert burnt.n_iter == 25
        for name in ("mu", "g", "e", "lam", "gamma", "delta", "sigma2"):
            assert np.array_equal(getattr(burnt, name), getattr(whole, name)[:, 15:]), name
            assert np.shares_memory(burnt.flat(name), getattr(burnt, name)), name

    def test_init_dimensions_checked(self, rng, hyper):
        ds, _ = simulate(SimScenario(I=6, J=5, Q=1, lambda_true=(10.0,), seed=3))
        for I, J, Q in ((6, 5, 2), (6, 4, 1)):
            with pytest.raises(ValueError, match="init dimensions"):
                gibbs.gibbs_fit(ds, ModelConfig(Q=1, hyper=hyper), n_chains=1,
                                n_iter=5, n_burn=0, init=random_theta(rng, I, J, Q))

    def test_draws_are_post_processed(self, hyper):
        ds, _ = simulate(SimScenario(I=6, J=5, Q=1, lambda_true=(10.0,), seed=3))
        draws = gibbs.gibbs_fit(ds, ModelConfig(Q=1, hyper=hyper),
                                n_chains=1, n_iter=20, n_burn=5)
        g = draws.g[0]
        assert np.max(np.abs(g.sum(axis=1))) < 1e-9
        gam = draws.gamma[0]
        norms = np.einsum("tiq,tiq->tq", gam, gam)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        assert np.all(draws.lam >= 0)

    def test_posterior_sigma2_recovery(self):
        ds, _ = simulate(SimScenario(I=6, J=10, Q=1, lambda_true=(20.0,), seed=31))
        from ammivi.model import default_hyperparams
        config = ModelConfig(Q=1, hyper=default_hyperparams(ds), seed=2)
        draws = gibbs.gibbs_fit(ds, config, n_chains=2, n_iter=1500, n_burn=300)
        sigma2 = draws.flat("sigma2").mean()
        assert 0.8 <= sigma2 <= 1.2
        for k in range(6):
            assert gelman_rubin(draws.g[:, :, k]) < 1.05

    def test_q0_matches_analytic_posterior(self):
        """Q=0 posterior means vs a tau-quadrature linear-model oracle.

        Given tau the model is linear-Gaussian, so the posterior of
        (mu, g, e) is Normal with known mean and tau has a closed-form
        marginal likelihood; integrating over a tau grid gives the exact
        posterior mean to quadrature accuracy.
        """
        y = np.array([[1.0, 2.0], [0.5, 2.5]])
        ds = complete_dataset(y)
        hyper = Hyperparams(mu_mu=1.5, sigma2_mu=4.0, sigma2_g=2.0,
                            sigma2_e=2.0, a=2.0, b=2.0)
        config = ModelConfig(Q=0, hyper=hyper, seed=9)
        draws = gibbs.gibbs_fit(ds, config, n_chains=4, n_iter=8000, n_burn=1000)

        # analytic posterior mean of beta = (mu, g1, g2, e1, e2)
        X = np.zeros((4, 5))
        X[:, 0] = 1.0
        X[np.arange(4), 1 + ds.rows] = 1.0
        X[np.arange(4), 3 + ds.cols] = 1.0
        m0 = np.array([1.5, 0, 0, 0, 0])
        S0 = np.diag([4.0, 2.0, 2.0, 2.0, 2.0])
        S0inv = np.linalg.inv(S0)

        taus = np.linspace(1e-3, 30.0, 6000)
        log_w = np.empty(taus.size)
        means = np.empty((taus.size, 5))
        for k, tau in enumerate(taus):
            C = X @ S0 @ X.T + np.eye(4) / tau
            dev = ds.y - X @ m0
            sign, logdet = np.linalg.slogdet(C)
            log_w[k] = (-0.5 * logdet - 0.5 * dev @ np.linalg.solve(C, dev)
                        + (hyper.a - 1) * np.log(tau) - hyper.b * tau)
            P = S0inv + tau * X.T @ X
            means[k] = np.linalg.solve(P, S0inv @ m0 + tau * X.T @ ds.y)
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        beta = w @ means
        # apply the same recentering the sampler's post-processing applies
        g_bar = beta[1:3].mean()
        e_bar = beta[3:5].mean()
        oracle_mu = beta[0] + g_bar + e_bar
        oracle_g = beta[1:3] - g_bar
        oracle_e = beta[3:5] - e_bar

        assert draws.flat("mu").mean() == pytest.approx(oracle_mu, abs=0.02)
        assert np.allclose(draws.flat("g").mean(axis=0), oracle_g, atol=0.02)
        assert np.allclose(draws.flat("e").mean(axis=0), oracle_e, atol=0.02)


def reference_gibbs(dataset, config, n_chains, n_iter, n_burn):
    """gibbs_fit's sampler with every block drawn from `full_conditional`.

    Each conditional rebuilds its residual from scratch; the RNG calls, their
    order and the post-processing are gibbs_fit's.
    """
    hyper, I, J = config.hyper, dataset.n_genotypes, dataset.n_environments
    base = frequentist_fit(dataset, config.Q)
    kept = {name: [] for name in THETA_FIELDS}
    for c in range(n_chains):
        rng = np.random.default_rng([config.seed, c])
        theta = gibbs._jittered_init(base, rng)
        for t in range(n_iter):
            m, v = gibbs.full_conditional("mu", theta, dataset, hyper)
            theta = replace(theta, mu=rng.normal(m, np.sqrt(v)))
            means, variances = gibbs.full_conditional("g", theta, dataset, hyper)
            theta.g[:] = means + np.sqrt(variances) * rng.standard_normal(I)
            means, variances = gibbs.full_conditional("e", theta, dataset, hyper)
            theta.e[:] = means + np.sqrt(variances) * rng.standard_normal(J)
            for q in range(config.Q):
                loc, var = gibbs.full_conditional("lambda", theta, dataset, hyper, q=q)
                theta.lam[q] = sample_trunc_normal(rng, loc, var)
                locs, variances = gibbs.full_conditional("gamma", theta, dataset, hyper, q=q)
                theta.gamma[0, q] = sample_trunc_normal(rng, locs[0], variances[0])
                theta.gamma[1:, q] = locs[1:] + np.sqrt(variances[1:]) * rng.standard_normal(I - 1)
                locs, variances = gibbs.full_conditional("delta", theta, dataset, hyper, q=q)
                theta.delta[:, q] = locs + np.sqrt(variances) * rng.standard_normal(J)
            shape, rate = gibbs.full_conditional("tau", theta, dataset, hyper)
            theta = replace(theta, sigma2=1.0 / rng.gamma(shape, 1.0 / rate))
            if t >= n_burn:
                rep = post_process(theta)
                for name in THETA_FIELDS:
                    kept[name].append(getattr(rep, name))
    return {name: np.reshape(kept[name], (n_chains, n_iter - n_burn, *np.shape(kept[name][0])))
            for name in THETA_FIELDS}


class TestRunningResidual:
    @pytest.mark.parametrize("missing", [0.0, 0.3])
    @pytest.mark.parametrize("Q", [0, 1, 2])
    def test_draws_match_full_conditional_sampler(self, Q, missing):
        """The running-residual scan draws what the from-scratch conditionals draw.

        Only rounding separates the two, so each block agrees to 1e-12 of its
        largest draw; a wrong residual patch moves the draws far more.
        """
        ds, _ = simulate(SimScenario(I=9, J=6, Q=Q, lambda_true=(12.0, 5.0)[:Q],
                                     missing_fraction=missing, seed=40 + Q))
        config = ModelConfig(Q=Q, hyper=default_hyperparams(ds), seed=8)
        draws = gibbs.gibbs_fit(ds, config, n_chains=2, n_iter=30, n_burn=5)
        want = reference_gibbs(ds, config, n_chains=2, n_iter=30, n_burn=5)
        for name in THETA_FIELDS:
            got = getattr(draws, name)
            assert got.shape == want[name].shape, name
            scale = max(float(np.max(np.abs(want[name]), initial=0.0)), 1e-300)
            assert float(np.max(np.abs(got - want[name]), initial=0.0)) <= 1e-12 * scale, name


class TestMcmcShortInit:
    def assert_finite_start(self, ds, Q, seed):
        config = ModelConfig(Q=Q, hyper=default_hyperparams(ds), seed=seed)
        theta = gibbs.mcmc_short_init(ds, config)
        assert theta.g.shape == (ds.n_genotypes,) and theta.e.shape == (ds.n_environments,)
        assert theta.lam.shape == (Q,) and theta.gamma.shape == (ds.n_genotypes, Q)
        for name in THETA_FIELDS:
            assert np.all(np.isfinite(getattr(theta, name))), name
        assert theta.sigma2 > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_grid(self, seed):
        for Q in (0, 1, 2):
            ds, _ = simulate(SimScenario(I=6, J=10, Q=Q, lambda_true=(20.0, 8.0)[:Q],
                                         seed=seed))
            self.assert_finite_start(ds, Q, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_85x17_grid(self, seed):
        ds, _ = simulate(SimScenario(I=85, J=17, Q=2, lambda_true=(25.0, 12.0),
                                     missing_fraction=1.0 - 810.0 / (85 * 17), seed=seed))
        assert ds.n_obs == 810
        self.assert_finite_start(ds, 2, seed)


class TestSummaries:
    def make_draws(self, arr_mu):
        arr_mu = np.asarray(arr_mu, dtype=float)
        c, t = arr_mu.shape
        return gibbs.PosteriorDraws(
            mu=arr_mu, g=np.zeros((c, t, 2)) + arr_mu[:, :, None],
            e=np.zeros((c, t, 2)), lam=np.zeros((c, t, 1)),
            gamma=np.zeros((c, t, 2, 1)), delta=np.zeros((c, t, 2, 1)),
            sigma2=np.ones((c, t)))

    def test_reported_blocks_in_table_order(self):
        # gamma and delta columns can flip sign between draws, so they are not summarised
        summary = gibbs.summarize(self.make_draws(np.zeros((2, 10))))
        assert list(summary) == ["mu", "g", "e", "lam", "sigma2"]
        assert summary["g"]["q50"].shape == (2,)

    def test_constant_draws(self):
        draws = self.make_draws(np.full((2, 10), 7.0))
        summary = gibbs.summarize(draws)
        for key in ("q05", "q50", "q95", "mean"):
            assert summary["mu"][key] == pytest.approx(7.0, abs=1e-12)

    def test_median_linear_interpolation(self):
        draws = self.make_draws(np.arange(1.0, 101.0).reshape(1, 100))
        summary = gibbs.summarize(draws)
        assert summary["mu"]["q50"] == pytest.approx(50.5, abs=1e-12)

    def test_matches_sort_oracle(self, rng):
        vals = rng.normal(0.0, 1.0, (3, 50))
        draws = self.make_draws(vals)
        summary = gibbs.summarize(draws)
        flat = np.sort(vals.ravel())
        for level, key in ((0.05, "q05"), (0.5, "q50"), (0.95, "q95")):
            pos = level * (flat.size - 1)
            lo, hi = int(np.floor(pos)), int(np.ceil(pos))
            want = flat[lo] + (pos - lo) * (flat[hi] - flat[lo])
            assert summary["mu"][key] == pytest.approx(want, abs=1e-12)

    def test_no_kept_draws_error(self):
        draws = self.make_draws(np.zeros((2, 0)))
        with pytest.raises(ValueError):
            gibbs.summarize(draws)

    def test_rhat_table_shapes(self, hyper):
        ds, _ = simulate(SimScenario(I=5, J=4, Q=1, lambda_true=(8.0,), seed=6))
        draws = gibbs.gibbs_fit(ds, ModelConfig(Q=1, hyper=hyper),
                                n_chains=2, n_iter=100, n_burn=20)
        table = gibbs.rhat_table(draws)
        assert table["g"].shape == (5,)
        assert table["e"].shape == (4,)
        assert table["lam"].shape == (1,)
        assert np.all(np.isfinite(table["mu"]))

    def test_rhat_table_matches_per_entry_loop(self, hyper):
        ds, _ = simulate(SimScenario(I=5, J=4, Q=2, lambda_true=(8.0, 4.0), seed=6))
        draws = gibbs.gibbs_fit(ds, ModelConfig(Q=2, hyper=hyper),
                                n_chains=3, n_iter=60, n_burn=10)
        table = gibbs.rhat_table(draws)
        assert list(table) == ["mu", "sigma2", "g", "e", "lam"]
        for name, rhat in table.items():
            block = getattr(draws, name)
            for idx in np.ndindex(block.shape[2:]):
                want = gelman_rubin(block[(slice(None), slice(None), *idx)])
                assert np.asarray(rhat)[idx] == want, (name, idx)

    def test_stacked_draws_reject_non_positive_sigma2(self):
        sigma2 = np.ones((2, 10))
        for bad in (0.0, -1.0):
            sigma2[1, 7] = bad
            with pytest.raises(ValueError, match="sigma2"):
                replace(self.make_draws(np.zeros((2, 10))), sigma2=sigma2)
