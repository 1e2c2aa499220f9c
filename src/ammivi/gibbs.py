"""Systematic-scan Gibbs sampler targeting the exact AMMI posterior.

Serves as the MCMC comparator for the variational fitter and as the
correctness oracle for its one-step updates. The conditional formulas
here are written out independently of the VI module on purpose: tests
cross-check the two derivations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .freqfit import frequentist_fit
from .model import (QUANTILE_LEVELS, SCALAR_BLOCKS, THETA_FIELDS, Dataset,
                    DimensionMismatchError, Hyperparams, ModelConfig, ThetaPoint, post_process)
from .statsmath import gelman_rubin, sample_trunc_normal


@dataclass(frozen=True)
class PosteriorDraws(ThetaPoint):
    """Post-processed posterior draws kept after burn-in, stacked (chain, iteration)."""

    wall_time: float = 0.0

    @property
    def n_chains(self) -> int:
        return self.mu.shape[0]

    @property
    def n_iter(self) -> int:
        return self.mu.shape[1]

    def flat(self, name: str) -> np.ndarray:
        """Draws of one block, chains concatenated (a view, not a copy)."""
        arr = getattr(self, name)
        return arr.reshape(arr.shape[0] * arr.shape[1], *arr.shape[2:])


def _resid(theta: ThetaPoint, dataset: Dataset, *, drop_mu=False, drop_g=False,
           drop_e=False, drop_component: int | None = None) -> np.ndarray:
    rows, cols = dataset.rows, dataset.cols
    out = dataset.y.copy()
    if not drop_mu:
        out -= theta.mu
    if not drop_g:
        out -= theta.g[rows]
    if not drop_e:
        out -= theta.e[cols]
    for q in range(theta.n_components):
        if q != drop_component:
            out -= theta.lam[q] * theta.gamma[rows, q] * theta.delta[cols, q]
    return out


def _cond_mu(theta, dataset, hyper):
    tau = 1.0 / theta.sigma2
    prec = dataset.n_obs * tau + 1.0 / hyper.sigma2_mu
    r = _resid(theta, dataset, drop_mu=True)
    mean = (tau * r.sum() + hyper.mu_mu / hyper.sigma2_mu) / prec
    return mean, 1.0 / prec


def _cond_g(theta, dataset, hyper):
    tau = 1.0 / theta.sigma2
    I = dataset.n_genotypes
    prec = np.bincount(dataset.rows, minlength=I) * tau + 1.0 / hyper.sigma2_g
    r = _resid(theta, dataset, drop_g=True)
    means = tau * np.bincount(dataset.rows, weights=r, minlength=I) / prec
    return means, 1.0 / prec


def _cond_e(theta, dataset, hyper):
    tau = 1.0 / theta.sigma2
    J = dataset.n_environments
    prec = np.bincount(dataset.cols, minlength=J) * tau + 1.0 / hyper.sigma2_e
    r = _resid(theta, dataset, drop_e=True)
    means = tau * np.bincount(dataset.cols, weights=r, minlength=J) / prec
    return means, 1.0 / prec


def _cond_lambda(theta, dataset, hyper, q):
    tau = 1.0 / theta.sigma2
    gd = theta.gamma[dataset.rows, q] * theta.delta[dataset.cols, q]
    prec = tau * float(gd @ gd) + 1.0 / hyper.sigma2_lambda
    r = _resid(theta, dataset, drop_component=q)
    loc = tau * float(gd @ r) / prec
    return loc, 1.0 / prec


def _cond_gamma(theta, dataset, hyper, q):
    tau = 1.0 / theta.sigma2
    I = dataset.n_genotypes
    d = theta.delta[dataset.cols, q]
    prec = tau * theta.lam[q] ** 2 * np.bincount(
        dataset.rows, weights=d * d, minlength=I) + 1.0
    r = _resid(theta, dataset, drop_component=q)
    locs = tau * theta.lam[q] * np.bincount(dataset.rows, weights=d * r, minlength=I) / prec
    return locs, 1.0 / prec


def _cond_delta(theta, dataset, hyper, q):
    tau = 1.0 / theta.sigma2
    J = dataset.n_environments
    gcol = theta.gamma[dataset.rows, q]
    prec = tau * theta.lam[q] ** 2 * np.bincount(
        dataset.cols, weights=gcol * gcol, minlength=J) + 1.0
    r = _resid(theta, dataset, drop_component=q)
    locs = tau * theta.lam[q] * np.bincount(dataset.cols, weights=gcol * r, minlength=J) / prec
    return locs, 1.0 / prec


def _cond_tau(theta, dataset, hyper):
    r = _resid(theta, dataset)
    return hyper.a + dataset.n_obs / 2.0, hyper.b + 0.5 * float(r @ r)


def full_conditional(block: str, theta: ThetaPoint, dataset: Dataset,
                     hyper: Hyperparams, q: int = 0):
    """Exact full-conditional parameters of one named block.

    Returns (mean, variance) for mu; (means, variances) for g/e and the
    gamma/delta columns; (location, variance) of the positive-truncated
    Normal for lambda; (shape, rate) for tau.
    """
    if block == "mu":
        return _cond_mu(theta, dataset, hyper)
    if block == "g":
        return _cond_g(theta, dataset, hyper)
    if block == "e":
        return _cond_e(theta, dataset, hyper)
    if block == "lambda":
        return _cond_lambda(theta, dataset, hyper, q)
    if block == "gamma":
        return _cond_gamma(theta, dataset, hyper, q)
    if block == "delta":
        return _cond_delta(theta, dataset, hyper, q)
    if block == "tau":
        return _cond_tau(theta, dataset, hyper)
    raise ValueError(f"unknown block {block!r}")


def _jittered_init(base: ThetaPoint, rng: np.random.Generator) -> ThetaPoint:
    Q = base.n_components
    return ThetaPoint(
        mu=base.mu + rng.normal(0.0, 0.1),
        g=base.g + rng.normal(0.0, 0.1, base.g.shape),
        e=base.e + rng.normal(0.0, 0.1, base.e.shape),
        lam=np.maximum(base.lam + rng.normal(0.0, 0.1, Q), 1e-6),
        gamma=base.gamma + rng.normal(0.0, 0.1, base.gamma.shape),
        delta=base.delta + rng.normal(0.0, 0.1, base.delta.shape),
        sigma2=float(abs(base.sigma2 + rng.normal(0.0, 0.1))) or 1e-6)


def gibbs_fit(dataset: Dataset, config: ModelConfig, n_chains: int = 4,
              n_iter: int = 6000, n_burn: int = 1000,
              init: ThetaPoint | None = None) -> PosteriorDraws:
    """Run the Gibbs sampler and return the post-processed draws after burn-in.

    Chains start at the frequentist fit perturbed by chain-seeded
    Normal(0, 0.1^2) jitter and run sequentially with independent RNG
    streams derived from config.seed. Each chain runs n_iter scans; only
    the last n_iter - n_burn are post-processed and stored.

    The scan draws from the same conditionals as `full_conditional`, read
    off one running residual r = y - cell mean (Bayesian backfitting): each
    block adds its own term back to r, draws, and patches r with old - new.
    r is rebuilt with `_resid` once per scan at the tau block, so rounding
    drift spans at most one scan.
    """
    if n_chains < 1 or n_iter < 1 or not 0 <= n_burn < n_iter:
        raise ValueError(f"need n_chains >= 1, n_iter >= 1 and 0 <= n_burn < n_iter; "
                         f"got {n_chains}, {n_iter} and {n_burn}")
    t0 = time.perf_counter()
    I, J, Q = dataset.n_genotypes, dataset.n_environments, config.Q
    hyper = config.hyper
    base = init if init is not None else frequentist_fit(dataset, Q)
    if base.g.size != I or base.e.size != J or base.n_components != Q:
        raise DimensionMismatchError("init dimensions do not match dataset/config")
    store = {name: np.empty((n_chains, n_iter - n_burn, *np.shape(getattr(base, name))))
             for name in THETA_FIELDS}
    rows, cols, n = dataset.rows, dataset.cols, dataset.n_obs
    n_rows, n_cols = dataset.row_counts, dataset.col_counts

    for c in range(n_chains):
        rng = np.random.default_rng([config.seed, c])
        # the chain's working point: its arrays are fresh and each block's
        # draw overwrites them in place; the scalars mu and sigma2 are kept
        # apart (theta's copies go stale) until a kept draw needs a point
        theta = _jittered_init(base, rng)
        mu, sigma2 = theta.mu, theta.sigma2
        r = _resid(theta, dataset)
        for t in range(n_iter):
            tau = 1.0 / sigma2

            prec = n * tau + 1.0 / hyper.sigma2_mu
            m = (tau * (r.sum() + n * mu) + hyper.mu_mu / hyper.sigma2_mu) / prec
            new_mu = rng.normal(m, np.sqrt(1.0 / prec))
            r += mu - new_mu
            mu = new_mu

            prec = n_rows * tau + 1.0 / hyper.sigma2_g
            means = tau * (np.bincount(rows, weights=r, minlength=I) + n_rows * theta.g) / prec
            new = means + np.sqrt(1.0 / prec) * rng.standard_normal(I)
            r += (theta.g - new)[rows]
            theta.g[:] = new

            prec = n_cols * tau + 1.0 / hyper.sigma2_e
            means = tau * (np.bincount(cols, weights=r, minlength=J) + n_cols * theta.e) / prec
            new = means + np.sqrt(1.0 / prec) * rng.standard_normal(J)
            r += (theta.e - new)[cols]
            theta.e[:] = new

            for q in range(Q):
                lam = theta.lam[q]
                dcol = theta.delta[cols, q]
                gd = theta.gamma[rows, q] * dcol
                gd_sq = float(gd @ gd)
                prec = tau * gd_sq + 1.0 / hyper.sigma2_lambda
                new_lam = sample_trunc_normal(rng, tau * (float(gd @ r) + lam * gd_sq) / prec,
                                              1.0 / prec)
                r += (lam - new_lam) * gd
                theta.lam[q] = lam = new_lam

                d_sq = np.bincount(rows, weights=dcol * dcol, minlength=I)
                prec = tau * lam ** 2 * d_sq + 1.0
                locs = tau * lam * (np.bincount(rows, weights=dcol * r, minlength=I)
                                    + lam * theta.gamma[:, q] * d_sq) / prec
                new = np.empty(I)
                new[0] = sample_trunc_normal(rng, locs[0], 1.0 / prec[0])
                new[1:] = locs[1:] + np.sqrt(1.0 / prec[1:]) * rng.standard_normal(I - 1)
                r += lam * (theta.gamma[:, q] - new)[rows] * dcol
                theta.gamma[:, q] = new

                gcol = new[rows]
                g_sq = np.bincount(cols, weights=gcol * gcol, minlength=J)
                prec = tau * lam ** 2 * g_sq + 1.0
                locs = tau * lam * (np.bincount(cols, weights=gcol * r, minlength=J)
                                    + lam * theta.delta[:, q] * g_sq) / prec
                new = locs + np.sqrt(1.0 / prec) * rng.standard_normal(J)
                r += lam * gcol * (theta.delta[:, q] - new)[cols]
                theta.delta[:, q] = new

            # a fresh residual: tau needs r @ r, and the next scan starts from it
            # (theta.mu is stale, so mu is taken off here)
            r = _resid(theta, dataset, drop_mu=True)
            r -= mu
            rate = hyper.b + 0.5 * float(r @ r)
            sigma2 = 1.0 / rng.gamma(hyper.a + n / 2.0, 1.0 / rate)

            if t < n_burn:
                continue
            # identifiable representative for reporting; the chain itself
            # keeps running on the unconstrained values
            rep = post_process(replace(theta, mu=mu, sigma2=sigma2))
            for name in THETA_FIELDS:
                store[name][c, t - n_burn] = getattr(rep, name)

    return PosteriorDraws(**store, wall_time=time.perf_counter() - t0)


def rhat_table(draws: PosteriorDraws) -> dict[str, np.ndarray | float]:
    """Split-chain R-hat of every entry of each block in SCALAR_BLOCKS."""
    return {name: gelman_rubin(getattr(draws, name)) for name in SCALAR_BLOCKS}


def posterior_mean_theta(draws: PosteriorDraws) -> ThetaPoint:
    return ThetaPoint(**{name: draws.flat(name).mean(axis=0) for name in THETA_FIELDS})


def summarize(draws: PosteriorDraws) -> dict[str, dict[str, np.ndarray]]:
    """Mean and 5/50/95% quantiles of every entry of each block in SCALAR_BLOCKS.

    The blocks come in THETA_FIELDS order, the row order of every parameter table.
    """
    if draws.n_iter == 0:
        raise ValueError("no draws to summarize")
    out = {}
    for name in [field for field in THETA_FIELDS if field in SCALAR_BLOCKS]:
        flat = draws.flat(name)
        qs = np.quantile(flat, QUANTILE_LEVELS, axis=0)
        out[name] = {"mean": flat.mean(axis=0),
                     "q05": qs[0], "q50": qs[1], "q95": qs[2]}
    return out


def mcmc_short_init(dataset: Dataset, config: ModelConfig) -> ThetaPoint:
    """Initialization from the posterior mean of one short Gibbs chain on all cells.

    125 scans with 25 burn-in; the chain starts at the frequentist fit, so
    any table that fit accepts gets a start.
    """
    return posterior_mean_theta(gibbs_fit(dataset, config, n_chains=1, n_iter=125, n_burn=25))
