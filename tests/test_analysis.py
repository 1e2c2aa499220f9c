"""Predictive summaries, RMSE, heatmap export and comparison reports."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammivi import analysis, gibbs, vi
from ammivi.analysis import DimensionMismatchError, compare, export_heatmap, predict, rmse
from ammivi.freqfit import frequentist_fit
from ammivi.model import ModelConfig, default_hyperparams, mean_matrix
from ammivi.simulate import SimScenario, simulate
from ammivi.model import THETA_FIELDS, Dataset
from conftest import random_dataset


def small_fit(seed=3, Q=1):
    ds, truth = simulate(SimScenario(I=6, J=5, Q=Q,
                                     lambda_true=(12.0, 5.0)[:Q], seed=seed))
    config = ModelConfig(Q=Q, hyper=default_hyperparams(ds))
    return ds, vi.fit(ds, config, frequentist_fit(ds, Q))


class TestPredict:
    def test_degenerate_fit_collapses_to_point(self):
        ds, fit = small_fit()
        tiny = fit.state.copy()
        tiny.Sigma_q_mu = 1e-18
        tiny.Sigma_q_g[:] = 1e-18
        tiny.Sigma_q_e[:] = 1e-18
        tiny.Sigma_q_lambda[:] = 1e-18
        tiny.Sigma_q_gamma[:] = 1e-18
        tiny.Sigma_q_delta[:] = 1e-18
        tiny.a_q, tiny.b_q = 1e12, 1e12 * fit.theta.sigma2
        degen = vi.FitResult(state=tiny, theta=fit.theta,
                             elbo_trace=fit.elbo_trace, change_trace=fit.change_trace,
                             n_iter=fit.n_iter, converged=True, wall_time=0.0)
        summary = predict(degen, ds, n_draws=500, seed=1)
        point = mean_matrix(vi.posterior_mean_theta(tiny))
        for mat in (summary.q05, summary.q50, summary.q95, summary.mean):
            assert np.max(np.abs(mat - point)) < 1e-6

    def test_quantiles_monotone(self):
        ds, fit = small_fit()
        for noise in (False, True):
            summary = predict(fit, ds, n_draws=800, include_noise=noise, seed=2)
            assert np.all(summary.q05 <= summary.q50)
            assert np.all(summary.q50 <= summary.q95)

    def test_vi_predictive_mean_matches_analytic(self):
        ds, fit = small_fit()
        n = 60_000
        summary = predict(fit, ds, n_draws=n, seed=4)
        cache = vi.expectations(fit.state)
        analytic = (cache.tilde_mu + cache.tilde_g[:, None] + cache.tilde_e[None, :]
                    + (cache.tilde_gamma * cache.tilde_lambda) @ cache.tilde_delta.T)
        # loose 3-s.e.-style bound using the predictive spread
        spread = (summary.q95 - summary.q05) / 3.29
        assert np.all(np.abs(summary.mean - analytic) < 3 * spread / np.sqrt(n) + 1e-3)

    def test_mcmc_draws_branch(self, hyper):
        ds, _ = simulate(SimScenario(I=5, J=4, Q=1, lambda_true=(8.0,), seed=6))
        draws = gibbs.gibbs_fit(ds, ModelConfig(Q=1, hyper=hyper),
                                n_chains=2, n_iter=200, n_burn=50)
        summary = predict(draws, ds, n_draws=100, seed=0)
        assert summary.mean.shape == (5, 4)
        assert np.all(summary.q05 <= summary.q95)

    def test_dimension_mismatch(self, rng):
        ds, fit = small_fit()
        other = random_dataset(rng, 9, 9)
        with pytest.raises(DimensionMismatchError):
            predict(fit, other)

    def test_observed_mask(self, rng):
        ds = random_dataset(rng, 6, 5, missing=0.2)
        config = ModelConfig(Q=0, hyper=default_hyperparams(ds))
        fit = vi.fit(ds, config, frequentist_fit(ds, 0))
        summary = predict(fit, ds, n_draws=50, seed=0)
        assert summary.observed.sum() == ds.n_obs
        assert summary.observed[ds.rows, ds.cols].all()


def dense_cells(mu, g, e, lam, gamma, delta, _sigma2):
    """The draws x I x J cell-mean array, built whole."""
    cells = g[:, :, None] + (mu[:, None] + e)[:, None, :]
    lam_gamma = gamma * lam[:, None, :]
    for q in range(lam.shape[1]):
        cells += lam_gamma[:, :, q, None] * delta[:, None, :, q]
    return cells


class TestBlockedPredict:
    """predict walks blocks of genotype rows; the result must not depend on it."""

    SEED = 7

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 7 x 5 grid, 60 draws: 300 cells per row, so blocks of 3, 3 and 1 rows
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 900)

    @staticmethod
    def fitted(Q, kind):
        ds, _ = simulate(SimScenario(I=7, J=5, Q=Q, lambda_true=(12.0, 5.0)[:Q],
                                     missing_fraction=0.2, seed=11))
        config = ModelConfig(Q=Q, hyper=default_hyperparams(ds), seed=2)
        if kind == "vi":
            return ds, vi.fit(ds, config, frequentist_fit(ds, Q))
        return ds, gibbs.gibbs_fit(ds, config, n_chains=2, n_iter=60, n_burn=20)

    def parameter_draws(self, fit, n_draws):
        rng = np.random.default_rng(self.SEED)
        if isinstance(fit, vi.FitResult):
            return analysis._vi_parameter_draws(fit, n_draws, rng)
        pick = rng.choice(len(fit.flat("mu")), size=n_draws, replace=False)
        return [fit.flat(name)[pick] for name in THETA_FIELDS]

    @pytest.mark.parametrize("kind", ["vi", "mcmc"])
    @pytest.mark.parametrize("Q", [0, 1, 2])
    def test_matches_dense_reference(self, Q, kind):
        ds, fit = self.fitted(Q, kind)
        summary = predict(fit, ds, n_draws=60, seed=self.SEED)
        cells = dense_cells(*self.parameter_draws(fit, 60))
        qs = np.quantile(cells, [0.05, 0.50, 0.95], axis=0)
        for got, want in zip((summary.q05, summary.q50, summary.q95), qs):
            assert np.array_equal(got, want)
        assert np.allclose(summary.mean, cells.mean(axis=0), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["vi", "mcmc"])
    def test_noise_seeded_ordered_and_mask_free(self, kind):
        ds, fit = self.fitted(2, kind)
        first = predict(fit, ds, n_draws=60, include_noise=True, seed=self.SEED)
        again = predict(fit, ds, n_draws=60, include_noise=True, seed=self.SEED)
        # the same grid with one more cell missing
        spare = (np.bincount(ds.rows)[ds.rows] > 1) & (np.bincount(ds.cols)[ds.cols] > 1)
        keep = np.arange(ds.n_obs) != np.flatnonzero(spare)[0]
        fewer = Dataset(rows=ds.rows[keep], cols=ds.cols[keep], y=ds.y[keep],
                        n_genotypes=ds.n_genotypes, n_environments=ds.n_environments,
                        genotype_labels=ds.genotype_labels,
                        environment_labels=ds.environment_labels)
        masked = predict(fit, fewer, n_draws=60, include_noise=True, seed=self.SEED)
        assert masked.observed.sum() == first.observed.sum() - 1
        for name in ("mean", "q05", "q50", "q95"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
            assert np.array_equal(getattr(masked, name), getattr(first, name))
        assert np.all(first.q05 <= first.q50) and np.all(first.q50 <= first.q95)
        plain = predict(fit, ds, n_draws=60, seed=self.SEED)
        assert np.mean(first.q95 - first.q05) > np.mean(plain.q95 - plain.q05)


class TestPredictMemory:
    @pytest.mark.parametrize("include_noise", [False, True])
    def test_peak_below_one_dense_array(self, include_noise):
        ds, _ = simulate(SimScenario(I=60, J=40, Q=2, lambda_true=(12.0, 5.0), seed=4))
        config = ModelConfig(Q=2, hyper=default_hyperparams(ds))
        fit = vi.fit(ds, config, frequentist_fit(ds, 2))
        n_draws = 4000
        dense_bytes = n_draws * ds.n_genotypes * ds.n_environments * 8
        tracemalloc.start()
        try:
            predict(fit, ds, n_draws=n_draws, include_noise=include_noise, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes, (peak, dense_bytes)


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_arithmetic(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_empty_and_mismatch(self):
        with pytest.raises(ValueError):
            rmse([], [])
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_properties(self, values, seed):
        r = np.random.default_rng(seed)
        a = np.array(values)
        b = a + r.normal(0.0, 1.0, a.size)
        assert rmse(a, b) >= 0.0
        assert rmse(a, a) == 0.0
        perm = r.permutation(a.size)
        assert rmse(a[perm], b[perm]) == pytest.approx(rmse(a, b), rel=1e-12)


class TestExportHeatmap:
    def test_files_and_shapes(self, tmp_path):
        ds, fit = small_fit()
        summary = predict(fit, ds, n_draws=200, seed=0)
        paths = export_heatmap(summary, ds, tmp_path / "hm")
        assert len(paths) == 4
        for path in paths:
            lines = Path(path).read_text().strip().splitlines()
            assert len(lines) == 7  # header + 6 genotypes
            assert lines[0].split(",")[0] == "genotype"
            assert len(lines[1].split(",")) == 6  # label + 5 environments

    def test_mask_counts_observations(self, rng, tmp_path):
        ds = random_dataset(rng, 85, 17, missing=1.0 - 810 / (85 * 17))
        config = ModelConfig(Q=0, hyper=default_hyperparams(ds))
        fit = vi.fit(ds, config, frequentist_fit(ds, 0))
        summary = predict(fit, ds, n_draws=50, seed=0)
        paths = export_heatmap(summary, ds, tmp_path / "hm")
        mask = np.loadtxt(paths[-1], delimiter=",", skiprows=1,
                          usecols=range(1, 18))
        assert int(mask.sum()) == 810

    def test_reexport_byte_identical_and_parseable(self, tmp_path):
        ds, fit = small_fit()
        summary = predict(fit, ds, n_draws=200, seed=5)
        paths1 = export_heatmap(summary, ds, tmp_path / "a")
        paths2 = export_heatmap(summary, ds, tmp_path / "b")
        for p1, p2 in zip(paths1, paths2):
            assert Path(p1).read_bytes() == Path(p2).read_bytes()
        reloaded = np.loadtxt(paths1[1], delimiter=",", skiprows=1,
                              usecols=range(1, 6))
        assert np.max(np.abs(reloaded - summary.q50)) < 1e-9


class TestCompare:
    def degenerate_draws(self, theta, I, J, Q, n_iter=10):
        shape = (1, n_iter)
        return gibbs.PosteriorDraws(
            mu=np.full(shape, theta.mu),
            g=np.broadcast_to(theta.g, shape + (I,)).copy(),
            e=np.broadcast_to(theta.e, shape + (J,)).copy(),
            lam=np.broadcast_to(theta.lam, shape + (Q,)).copy(),
            gamma=np.broadcast_to(theta.gamma, shape + (I, Q)).copy(),
            delta=np.broadcast_to(theta.delta, shape + (J, Q)).copy(),
            sigma2=np.full(shape, theta.sigma2))

    def test_self_comparison_zero_gaps(self):
        ds, fit = small_fit()
        draws = self.degenerate_draws(fit.theta, 6, 5, 1)
        report = compare(fit, draws, ds)
        assert max(row[5] for row in report.rows) < 1e-12
        assert report.vi_rmse == pytest.approx(report.mcmc_rmse, abs=1e-12)

    def test_dimension_mismatch(self):
        ds, fit = small_fit(Q=1)
        _, fit2 = small_fit(Q=2)
        draws = self.degenerate_draws(fit2.theta, 6, 5, 2)
        with pytest.raises(DimensionMismatchError):
            compare(fit, draws, ds)

    def test_report_serialization(self, tmp_path):
        ds, fit = small_fit()
        draws = self.degenerate_draws(fit.theta, 6, 5, 1)
        report = compare(fit, draws, ds)
        report.to_csv(tmp_path / "cmp.csv")
        text = report.to_text()
        assert "RMSE" in text and "ratio" in text
        lines = (tmp_path / "cmp.csv").read_text().strip().splitlines()
        assert lines[0].startswith("parameter,")
        assert len(lines) == 1 + len(report.rows)

    def test_agreement_on_simulated_data(self):
        ds, _ = simulate(SimScenario(I=6, J=10, Q=1, lambda_true=(20.0,), seed=44))
        config = ModelConfig(Q=1, hyper=default_hyperparams(ds), seed=1)
        fit = vi.fit(ds, config, frequentist_fit(ds, 1))
        draws = gibbs.gibbs_fit(ds, config, n_chains=2, n_iter=1500, n_burn=300)
        report = compare(fit, draws, ds)
        assert max(report.max_gap("mu"), report.max_gap("g["),
                   report.max_gap("e[")) < 0.1
