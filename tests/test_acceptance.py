"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (also echoed in the pytest
terminal summary). Criterion 6 runs a reduced-iteration smoke benchmark by
default; set AMMIVI_FULL_BENCH=1 for the full-length sampler settings and
the stricter speed threshold.
"""

import functools
import os

import numpy as np
import pytest

import conftest
from ammivi import analysis, gibbs, vi
from ammivi.analysis import benchmark_rows
from ammivi.freqfit import frequentist_fit
from ammivi.gibbs import mcmc_short_init
from ammivi.model import ModelConfig, default_hyperparams, mean_matrix
from ammivi.simulate import SimScenario, scenario_by_name, simulate, with_seed
from ammivi.statsmath import gelman_rubin, orthonormalize_interaction, trunc_normal_moments
from conftest import quad_moments, random_dataset, random_theta

FULL_BENCH = os.environ.get("AMMIVI_FULL_BENCH", "") == "1"


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"criterion {number:2d} FAIL  {description}"
                print(line)
                conftest.ACCEPTANCE_LINES.append(line)
                raise
            line = f"criterion {number:2d} PASS  {description}"
            print(line)
            conftest.ACCEPTANCE_LINES.append(line)
        return wrapper
    return deco


def fit_vi(dataset, Q, seed=0, **kwargs):
    config = ModelConfig(Q=Q, hyper=default_hyperparams(dataset), seed=seed,
                         **kwargs)
    return vi.fit(dataset, config, frequentist_fit(dataset, Q)), config


@criterion(1, "ELBO non-decreasing each sweep over 50 random scenarios")
def test_criterion_1_elbo_monotonicity():
    rng = np.random.default_rng(2024)
    for k in range(50):
        I = int(rng.integers(6, 26))
        J = int(rng.integers(4, 13))
        Q = int(rng.integers(1, 3))
        lam = tuple(sorted(rng.uniform(2.0, 25.0, Q), reverse=True))
        missing = 0.2 if k % 2 else 0.0
        ds, _ = simulate(SimScenario(I=I, J=J, Q=Q, lambda_true=lam,
                                     missing_fraction=missing, seed=3000 + k))
        result, _ = fit_vi(ds, Q, max_iter=200)
        trace = result.elbo_trace
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8 * np.abs(trace[:-1])), (k, I, J, Q)


@criterion(2, "VI one-step updates equal Gibbs conditionals at point masses (1e-10)")
def test_criterion_2_one_step_equivalence(hyper):
    config = ModelConfig(Q=2, hyper=hyper)
    for k in range(100):
        rng = np.random.default_rng(500 + k)
        I, J = int(rng.integers(4, 10)), int(rng.integers(4, 8))
        ds = random_dataset(rng, I, J, missing=float(rng.uniform(0.0, 0.3)))
        theta = random_theta(rng, I, J, 2)

        def fresh():
            return vi.init_state(theta, ds, config), vi.point_mass_cache(theta)

        checks = []
        state, cache = fresh()
        checks.append((vi.update_mu(state, ds, hyper, cache),
                       gibbs.full_conditional("mu", theta, ds, hyper)))
        for block, updater in (("g", vi.update_g), ("e", vi.update_e)):
            state, cache = fresh()
            checks.append((updater(state, ds, hyper, cache),
                           gibbs.full_conditional(block, theta, ds, hyper)))
        for q in (0, 1):
            state, cache = fresh()
            checks.append((vi.update_lambda(state, ds, hyper, cache, q, vi._resid(cache, ds, q)),
                           gibbs.full_conditional("lambda", theta, ds, hyper, q=q)))
            for block, updater in (("gamma", vi.update_gamma),
                                   ("delta", vi.update_delta)):
                state, cache = fresh()
                checks.append((updater(state, ds, hyper, cache, q, vi._resid(cache, ds, q)),
                               gibbs.full_conditional(block, theta, ds, hyper, q=q)))
        state, cache = fresh()
        checks.append((vi.update_tau(state, ds, hyper, cache, vi.expected_sse(cache, ds)),
                       gibbs.full_conditional("tau", theta, ds, hyper)))
        for got, want in checks:
            got = np.concatenate([np.atleast_1d(np.asarray(v, dtype=float))
                                  for v in got])
            want = np.concatenate([np.atleast_1d(np.asarray(v, dtype=float))
                                   for v in want])
            assert np.max(np.abs(got - want)) < 1e-10


@criterion(3, "parameter recovery at strong interaction (r>0.95 main, r>0.9 bilinear)")
def test_criterion_3_recovery_strong_interaction():
    ds, truth = simulate(scenario_by_name("recovery-lambda20"))
    result, _ = fit_vi(ds, 1)
    assert result.converged
    theta = result.theta
    assert np.corrcoef(theta.g, truth.g)[0, 1] > 0.95
    assert np.corrcoef(theta.e, truth.e)[0, 1] > 0.95
    est = ((theta.gamma * theta.lam) @ theta.delta.T).ravel()
    true = ((truth.gamma * truth.lam) @ truth.delta.T).ravel()
    assert np.corrcoef(est, true)[0, 1] > 0.9


@criterion(4, "degenerate interaction: fit converges, main effects still recovered")
def test_criterion_4_degenerate_interaction():
    ds, truth = simulate(scenario_by_name("recovery-lambda0"))
    result, _ = fit_vi(ds, 1)
    assert result.converged
    theta = result.theta
    assert np.corrcoef(theta.g, truth.g)[0, 1] > 0.95
    assert np.corrcoef(theta.e, truth.e)[0, 1] > 0.95
    est = ((theta.gamma * theta.lam) @ theta.delta.T).ravel()
    true = ((truth.gamma * truth.lam) @ truth.delta.T).ravel()
    denom = est.std() * true.std()
    corr = float(np.mean((est - est.mean()) * (true - true.mean())) / denom) \
        if denom > 0 else float("nan")
    # interaction recovery is reported, not asserted: with a near-zero
    # signal the bilinear part is not identifiable from the data
    print(f"  [criterion 4 report] bilinear correlation at lambda~0: {corr:.3f}")


@criterion(5, "VI and Gibbs agree on main effects within 0.1 (R-hat < 1.05)")
def test_criterion_5_vi_mcmc_agreement():
    ds, _ = simulate(SimScenario(I=6, J=10, Q=1, lambda_true=(20.0,), seed=77))
    result, config = fit_vi(ds, 1)
    draws = gibbs.gibbs_fit(ds, config, n_chains=4, n_iter=6000, n_burn=1000)
    rhat = gibbs.rhat_table(draws)
    assert rhat["mu"] < 1.05
    assert np.all(rhat["g"] < 1.05)
    assert np.all(rhat["e"] < 1.05)
    theta = result.theta
    assert abs(theta.mu - draws.flat("mu").mean()) < 0.1
    assert np.max(np.abs(theta.g - draws.flat("g").mean(axis=0))) < 0.1
    assert np.max(np.abs(theta.e - draws.flat("e").mean(axis=0))) < 0.1


@criterion(6, "speed: MCMC/VI wall-time ratio at the large scenario; "
              "small scenarios near parity")
def test_criterion_6_speed_ratio():
    smoke = not FULL_BENCH
    threshold = 1.3 if smoke else 2.0
    large = benchmark_rows("large", q_values=(2,), smoke=smoke)
    by_n = {row[4]: row for row in large}
    name, I, J, Q, n, vi_t, mcmc_t, ratio = by_n[5000]
    print(f"  [criterion 6 report] {name}: VI {vi_t:.2f}s MCMC {mcmc_t:.2f}s "
          f"ratio {ratio!r} (need >= {threshold})")
    assert ratio >= threshold
    small = benchmark_rows("small", smoke=smoke)
    for row in small:
        print(f"  [criterion 6 report] {row[0]}: ratio {row[7]!r} (band 0.5 to 2.0)")
        assert 0.5 <= row[7] <= 2.0, row[0]


@criterion(7, "in-sample RMSE of VI within 0.06 of MCMC on a sparse 85x17 grid")
def test_criterion_7_rmse_pattern():
    missing = 1.0 - 810.0 / (85 * 17)
    ds, _ = simulate(SimScenario(I=85, J=17, Q=2, lambda_true=(25.0, 12.0),
                                 missing_fraction=missing, seed=99))
    assert ds.n_obs == 810
    for Q in (1, 2):
        result, config = fit_vi(ds, Q)
        draws = gibbs.gibbs_fit(ds, config, n_chains=4, n_iter=6000, n_burn=1000)
        vi_rmse = analysis.in_sample_rmse(result.theta, ds)
        mcmc_rmse = analysis.in_sample_rmse(gibbs.posterior_mean_theta(draws), ds)
        print(f"  [criterion 7 report] Q={Q}: VI RMSE {vi_rmse:.4f} "
              f"MCMC RMSE {mcmc_rmse:.4f}")
        assert vi_rmse - mcmc_rmse <= 0.06


@criterion(8, "informed initializations beat random init in >= 9 of 10 seeds")
def test_criterion_8_init_study():
    scenario = scenario_by_name("init-study")
    wins_freq = wins_mcmc = 0
    for seed in range(10):
        ds, _ = simulate(with_seed(scenario, seed))
        config = ModelConfig(Q=1, hyper=default_hyperparams(ds), seed=seed)
        finals = {}
        inits = {
            "random": vi.random_theta(ds, 1, np.random.default_rng(seed)),
            "freq": frequentist_fit(ds, 1),
            "mcmc-short": mcmc_short_init(ds, config),
        }
        for mode, init in inits.items():
            result = vi.fit(ds, config, init)
            fitted = mean_matrix(result.theta)[ds.rows, ds.cols]
            finals[mode] = analysis.rmse(fitted, ds.y)
        wins_freq += finals["freq"] <= finals["random"] + 1e-12
        wins_mcmc += finals["mcmc-short"] <= finals["random"] + 1e-12
    print(f"  [criterion 8 report] freq wins {wins_freq}/10, "
          f"mcmc-short wins {wins_mcmc}/10")
    assert wins_freq >= 9
    assert wins_mcmc >= 9


@criterion(9, "numerical primitives match quadrature/formula oracles")
def test_criterion_9_numerical_primitives(rng):
    # truncated-normal moments against adaptive quadrature
    for location in np.linspace(-8.0, 8.0, 17):
        mean, var = trunc_normal_moments(float(location), 1.0)
        om, ov = quad_moments(float(location), 1.0)
        assert abs(mean - om) < 1e-8
        assert abs(var - ov) < 1e-8
    # orthonormalization invariants
    gamma, delta = orthonormalize_interaction(rng.standard_normal((25, 2)),
                                              rng.standard_normal((12, 2)))
    for mat in (gamma, delta):
        assert np.max(np.abs(mat.sum(axis=0))) < 1e-10
        assert np.max(np.abs(mat.T @ mat - np.eye(2))) < 1e-10
    assert np.all(gamma[0] > 0)
    # quantile fixture against linear interpolation by hand
    draws = gibbs.PosteriorDraws(
        mu=np.arange(1.0, 101.0).reshape(1, 100),
        g=np.zeros((1, 100, 1)), e=np.zeros((1, 100, 1)),
        lam=np.ones((1, 100, 1)), gamma=np.ones((1, 100, 1, 1)),
        delta=np.zeros((1, 100, 1, 1)), sigma2=np.ones((1, 100)))
    summary = gibbs.summarize(draws)
    assert summary["mu"]["q50"] == pytest.approx(50.5, abs=1e-12)
    assert summary["mu"]["q05"] == pytest.approx(1.0 + 0.05 * 99, abs=1e-12)
    # split R-hat fixture against the direct formula
    chains = rng.normal(0.0, 1.0, (4, 40))
    half = 20
    seqs = np.vstack([chains[:, :half], chains[:, half:]])
    w = seqs.var(axis=1, ddof=1).mean()
    b = half * seqs.mean(axis=1).var(ddof=1)
    want = np.sqrt(((half - 1) / half * w + b / half) / w)
    assert gelman_rubin(chains) == pytest.approx(want, abs=1e-12)


@criterion(10, "post-processing never moves a fitted cell mean by more than 1e-10")
def test_criterion_10_post_process_invariance():
    rng = np.random.default_rng(77)
    for _ in range(100):
        I = int(rng.integers(3, 12))
        J = int(rng.integers(3, 10))
        Q = int(rng.integers(1, 3))
        theta = random_theta(rng, I, J, Q)
        out = vi.post_process(theta)
        assert np.max(np.abs(mean_matrix(out) - mean_matrix(theta))) < 1e-10
