"""Predictive summaries, RMSE, heatmap export and comparison reports."""

import dataclasses
import itertools
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammivi import analysis, gibbs, vi
from ammivi.analysis import compare, export_heatmap, predict, rmse
from ammivi.freqfit import frequentist_fit
from ammivi.model import (DimensionMismatchError, ModelConfig, default_hyperparams, mean_matrix,
                          post_process)
from ammivi.simulate import SimScenario, scenario_by_name, simulate
from ammivi.model import QUANTILE_LEVELS, THETA_FIELDS, Dataset
from conftest import random_dataset


def small_fit(seed=3, Q=1, I=6, J=5):
    ds, truth = simulate(SimScenario(I=I, J=J, Q=Q,
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

    def test_dimension_mismatch(self, rng, hyper):
        ds, fit = small_fit()
        draws = gibbs.gibbs_fit(ds, ModelConfig(Q=1, hyper=hyper),
                                n_chains=2, n_iter=5, n_burn=0)
        other = random_dataset(rng, 9, 9)
        for result, what in ((fit, "fit"), (draws, "draws")):
            with pytest.raises(DimensionMismatchError, match=f"^{what} dimensions"):
                predict(result, other)

    def test_observed_mask(self, rng):
        ds = random_dataset(rng, 6, 5, missing=0.2)
        config = ModelConfig(Q=0, hyper=default_hyperparams(ds))
        fit = vi.fit(ds, config, frequentist_fit(ds, 0))
        summary = predict(fit, ds, n_draws=50, seed=0)
        assert summary.observed.sum() == ds.n_obs
        assert summary.observed[ds.rows, ds.cols].all()
        assert not np.shares_memory(summary.observed, ds.observed)


def dense_cells(mu, g, e, lam, gamma, delta, _sigma2):
    """The draws x I x J cell-mean array, built whole."""
    cells = g[:, :, None] + (mu[:, None] + e)[:, None, :]
    lam_gamma = gamma * lam[:, None, :]
    for q in range(lam.shape[1]):
        cells += lam_gamma[:, :, q, None] * delta[:, None, :, q]
    return cells


class TestBlockedPredict:
    """predict summarises one row by a run of environments per block, on a thread
    pool; the result must depend on neither the blocks nor the worker count."""

    SEED = 7

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 7 x 5 grid, at most 130 cell draws per block: each row splits into
        # environment runs of 3 + 2 at 40 draws and 2 + 2 + 1 at 60 draws
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 8 * 130)

    @staticmethod
    def set_workers(monkeypatch, workers):
        monkeypatch.setattr(analysis, "_worker_count", lambda: workers)

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
            return vi.parameter_draws(fit, n_draws, rng)
        pick = rng.choice(len(fit.flat("mu")), size=n_draws, replace=False)
        return [fit.flat(name)[pick] for name in THETA_FIELDS]

    @pytest.mark.parametrize("kind", ["vi", "mcmc"])
    @pytest.mark.parametrize("Q", [0, 1, 2])
    def test_matches_dense_reference(self, Q, kind, monkeypatch):
        ds, fit = self.fitted(Q, kind)
        # draw counts where the quantile positions fall on and between order
        # statistics, with whole rows (1 to 21 draws) and ragged runs (40, 60)
        for workers, n_draws in itertools.product((1, 2, 3), (1, 2, 3, 21, 40, 60)):
            self.set_workers(monkeypatch, workers)
            summary = predict(fit, ds, n_draws=n_draws, seed=self.SEED)
            cells = dense_cells(*self.parameter_draws(fit, n_draws))
            qs = np.quantile(cells, [0.05, 0.50, 0.95], axis=0)
            for got, want in zip((summary.q05, summary.q50, summary.q95), qs):
                assert np.array_equal(got, want), (workers, n_draws)
            assert np.allclose(summary.mean, cells.mean(axis=0), rtol=1e-12, atol=0.0)

    def test_sorted_read_off_equals_np_quantile(self):
        # interpolating from one side only differs from numpy in the last bit at
        # some draw counts and not others, so every count up to 400 is tried
        rng = np.random.default_rng(self.SEED)
        for n_draws in [*range(1, 401), 4000]:
            cells = rng.normal(3.0, 5.0, size=(2, 3, n_draws))
            want = np.quantile(cells, QUANTILE_LEVELS, axis=-1)
            cells.sort(axis=-1)
            got = analysis._sorted_quantiles(cells, analysis._linear_positions(n_draws))
            assert np.array_equal(got, want), n_draws

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

    @pytest.mark.parametrize("kind", ["vi", "mcmc"])
    def test_noise_independent_of_worker_count(self, kind, monkeypatch):
        ds, fit = self.fitted(2, kind)
        grids = []
        # 8 workers can outnumber the cores; with frequent thread switches a lost
        # or misplaced write to the shared grids would change them
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 8, 1, 3):
                self.set_workers(monkeypatch, workers)
                # 60 draws: blocks of 2, 2 and 1 environments, so the last block of
                # a row draws its noise into a shortened view of the scratch buffer
                summary = predict(fit, ds, n_draws=60, include_noise=True, seed=self.SEED)
                # 7 rows x 3 runs = 21 blocks; the budget holds two blocks of 2 x 60
                # cell draws per worker, so 8 workers are capped at 4
                assert summary.threads == min(workers, analysis._BLOCK_CELLS // (2 * 2 * 60))
                grids.append([getattr(summary, name) for name in ("mean", "q05", "q50", "q95")])
        finally:
            sys.setswitchinterval(interval)
        for other in grids[1:]:
            for got, want in zip(other, grids[0]):
                assert np.array_equal(got, want)

    def test_threads_joined_and_worker_errors_raised(self, monkeypatch):
        self.set_workers(monkeypatch, 3)
        ds, fit = self.fitted(1, "vi")
        before = threading.active_count()
        predict(fit, ds, n_draws=60, seed=self.SEED)
        assert threading.active_count() == before

        def broken(cells, positions):
            raise FloatingPointError("worker failed")

        monkeypatch.setattr(analysis, "_sorted_quantiles", broken)
        with pytest.raises(FloatingPointError, match="worker failed"):
            predict(fit, ds, n_draws=60, seed=self.SEED)
        assert threading.active_count() == before


class TestPredictMemory:
    N_DRAWS = 4000

    @pytest.fixture(scope="class")
    def fitted(self):
        ds, _ = simulate(SimScenario(I=60, J=40, Q=2, lambda_true=(12.0, 5.0), seed=4))
        config = ModelConfig(Q=2, hyper=default_hyperparams(ds))
        return ds, vi.fit(ds, config, frequentist_fit(ds, 2))

    def peak_bytes(self, fitted, include_noise):
        ds, fit = fitted
        tracemalloc.start()
        try:
            predict(fit, ds, n_draws=self.N_DRAWS, include_noise=include_noise, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("include_noise", [False, True])
    def test_peak_below_one_dense_array(self, fitted, include_noise):
        ds, _ = fitted
        dense_bytes = self.N_DRAWS * ds.n_genotypes * ds.n_environments * 8
        peak = self.peak_bytes(fitted, include_noise)
        assert peak < dense_bytes, (peak, dense_bytes)

    @pytest.mark.parametrize("include_noise", [False, True])
    def test_workers_share_one_block_budget(self, fitted, include_noise, monkeypatch):
        peaks = {}
        for workers in (1, 4, 8):
            monkeypatch.setattr(analysis, "_worker_count", lambda: workers)
            peaks[workers] = self.peak_bytes(fitted, include_noise)
        assert max(peaks[4], peaks[8]) - peaks[1] <= analysis._BLOCK_CELLS * 8, peaks

    @pytest.fixture(scope="class")
    def by_genotypes(self):
        """A VI fit and a stack of 2 x 2500 draws on 60 x 40 and 120 x 40 grids, Q = 2."""
        out = {}
        for I in (60, 120):
            ds, _ = simulate(SimScenario(I=I, J=40, Q=2, lambda_true=(12.0, 5.0), seed=4))
            fit = vi.fit(ds, ModelConfig(Q=2, hyper=default_hyperparams(ds)),
                         frequentist_fit(ds, 2))
            # more draws than predict takes, so it copies the N_DRAWS it picks
            flat = vi.parameter_draws(fit, 5000, np.random.default_rng(0))
            draws = gibbs.PosteriorDraws(*(a.reshape(2, 2500, *a.shape[1:]) for a in flat))
            out[I] = ds, {"vi": fit, "mcmc": draws}
        return out

    def draw_bytes(self, fit):
        """Bytes of the N_DRAWS parameter draws that predict makes or picks."""
        if isinstance(fit, vi.FitResult):
            draws = vi.parameter_draws(fit, self.N_DRAWS, np.random.default_rng(0))
        else:
            draws = [fit.flat(name)[:self.N_DRAWS] for name in THETA_FIELDS]
        return sum(a.nbytes for a in draws)

    @pytest.mark.parametrize("include_noise", [False, True])
    @pytest.mark.parametrize("kind", ["vi", "mcmc"])
    def test_working_memory_does_not_grow_with_genotypes(self, by_genotypes, kind,
                                                         include_noise):
        # beyond the draws, predict holds the environment side laid out once, the
        # output grids and each worker's buffers; doubling I adds only the 77 kB of
        # grids and, with noise, the streams of the new blocks
        working = {I: self.peak_bytes((ds, fits[kind]), include_noise)
                   - self.draw_bytes(fits[kind])
                   for I, (ds, fits) in by_genotypes.items()}
        assert working[120] - working[60] < 2 ** 20, working


class TestVIParameterDraws:
    @pytest.fixture(scope="class")
    def large_fit(self):
        """A VI fit on a 200 x 100 grid, Q = 2."""
        ds, _ = simulate(SimScenario(I=200, J=100, Q=2, lambda_true=(12.0, 5.0), seed=4))
        return vi.fit(ds, ModelConfig(Q=2, hyper=default_hyperparams(ds)),
                      frequentist_fit(ds, 2))

    def test_normal_blocks_are_mean_plus_sd_times_z(self):
        _, fit = small_fit(Q=2, I=7, J=5)
        st, D = fit.state, 50
        mu, g, e, lam, gamma, delta, sigma2 = vi.parameter_draws(
            fit, D, np.random.default_rng(8))
        twin = np.random.default_rng(8)
        assert np.array_equal(mu, twin.normal(st.mu_q_mu, np.sqrt(st.Sigma_q_mu), D))
        for block, draws in (("g", g), ("e", e), ("gamma", gamma), ("delta", delta)):
            mean, var = getattr(st, f"mu_q_{block}"), getattr(st, f"Sigma_q_{block}")
            want = mean + np.sqrt(var) * twin.standard_normal((D, *mean.shape))
            if block == "gamma":  # its first row is drawn from truncated normals after delta
                want[:, 0] = gamma[:, 0]
            assert np.array_equal(draws, want), block
        assert np.all(lam > 0) and np.all(gamma[:, 0] > 0) and np.all(sigma2 > 0)

    def test_peak_memory_is_the_output(self, large_fit):
        tracemalloc.start()
        try:
            draws = vi.parameter_draws(large_fit, 4000, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = sum(a.nbytes for a in draws)
        assert peak - out <= 2 ** 20, (peak, out)


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
        # (I, J, Q) of the VI fit, then of the draws and data
        for vi_shape, data_shape in [((6, 5, 1), (6, 5, 2)),
                                     ((8, 6, 1), (8, 5, 1)),
                                     ((8, 5, 1), (8, 6, 1))]:
            I, J, Q = vi_shape
            _, fit = small_fit(Q=Q, I=I, J=J)
            I, J, Q = data_shape
            ds, fit2 = small_fit(Q=Q, I=I, J=J)
            draws = self.degenerate_draws(fit2.theta, I, J, Q)
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

    @staticmethod
    def lambda_sds(report):
        """VI's and MCMC's sds of the lambda rows."""
        rows = [row for row in report.rows if row[0].startswith("lambda")]
        return np.array([row[3] for row in rows]), np.array([row[4] for row in rows])

    def test_lambda_sd_unchanged_along_scale_ridge(self):
        ds, fit = small_fit(Q=2, I=7, J=5)
        moved = fit.state.copy()
        # gamma_q a, delta_q b, lambda_q / (a b), each variance scaled by its factor squared;
        # the factors put component 1's raw lambda below component 2's
        for q, (a, b) in enumerate([(2.0, 2.0), (0.5, 1.0)]):
            moved.mu_q_gamma[:, q] *= a
            moved.Sigma_q_gamma[:, q] *= a ** 2
            moved.mu_q_delta[:, q] *= b
            moved.Sigma_q_delta[:, q] *= b ** 2
            moved.mu_q_lambda[q] /= a * b
            moved.Sigma_q_lambda[q] /= (a * b) ** 2
        raw_lam = vi.expectations(moved).tilde_lambda
        assert raw_lam[0] < raw_lam[1]
        twin = dataclasses.replace(fit, state=moved,
                                   theta=post_process(vi.posterior_mean_theta(moved)))
        np.testing.assert_allclose(twin.theta.lam, fit.theta.lam, rtol=1e-9)
        draws = self.degenerate_draws(fit.theta, 7, 5, 2)
        want, _ = self.lambda_sds(compare(fit, draws, ds))
        got, _ = self.lambda_sds(compare(twin, draws, ds))
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_lambda_sd_near_gibbs_on_recovery_q2(self):
        ds, _ = simulate(scenario_by_name("recovery-q2"))
        config = ModelConfig(Q=2, hyper=default_hyperparams(ds), seed=3)
        fit = vi.fit(ds, config, frequentist_fit(ds, 2))
        draws = gibbs.gibbs_fit(ds, config, n_chains=4, n_iter=1500, n_burn=500)
        vi_sd, mcmc_sd = self.lambda_sds(compare(fit, draws, ds))
        ratio = vi_sd / mcmc_sd
        assert ratio.shape == (2,) and np.all((0.5 <= ratio) & (ratio <= 2.0)), ratio
