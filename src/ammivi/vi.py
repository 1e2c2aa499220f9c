"""Coordinate-ascent variational inference for the Bayesian AMMI model.

All factor updates are closed-form conjugate updates of the mean-field
family: Normal factors for the grand mean, main effects and most bilinear
entries, positive-truncated Normal factors for the singular values and the
first row of the left singular-vector matrix, and a Gamma factor for the
noise precision.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (Dataset, DimensionMismatchError, Hyperparams, ModelConfig, ThetaPoint,
                    post_process)
from .statsmath import digamma, fix_signs, gammaln, log_ndtr, trunc_normal_moments

_LOG_2PI = math.log(2.0 * math.pi)
# an ELBO step may fall by this much (relative) to rounding before it is reported
_ELBO_RTOL = 1e-8
# the blocks with a mean field mu_q_<block> and a variance field Sigma_q_<block>
BLOCKS = ("mu", "g", "e", "lambda", "gamma", "delta")


class DivergenceError(RuntimeError):
    """Raised when the objective becomes non-finite during fitting."""


@dataclass
class VariationalState:
    """Variational parameters of every mean-field factor.

    Sigma_* fields hold variances of the underlying Normal laws; for the
    truncated factors (lambda, first gamma row) mu/Sigma parameterize the
    parent Normal before truncation to the positive half-line.
    """

    mu_q_mu: float
    Sigma_q_mu: float
    mu_q_g: np.ndarray
    Sigma_q_g: np.ndarray
    mu_q_e: np.ndarray
    Sigma_q_e: np.ndarray
    mu_q_lambda: np.ndarray
    Sigma_q_lambda: np.ndarray
    mu_q_gamma: np.ndarray
    Sigma_q_gamma: np.ndarray
    mu_q_delta: np.ndarray
    Sigma_q_delta: np.ndarray
    a_q: float
    b_q: float

    @property
    def n_components(self) -> int:
        return self.mu_q_lambda.size

    def mean_changes(self, other: "VariationalState") -> float:
        """Max absolute change of all variational means (convergence metric)."""
        return max(float(np.max(np.abs(getattr(self, f"mu_q_{block}")
                                       - getattr(other, f"mu_q_{block}")), initial=0.0))
                   for block in BLOCKS)

    def copy(self) -> "VariationalState":
        return VariationalState(
            self.mu_q_mu, self.Sigma_q_mu,
            self.mu_q_g.copy(), self.Sigma_q_g.copy(),
            self.mu_q_e.copy(), self.Sigma_q_e.copy(),
            self.mu_q_lambda.copy(), self.Sigma_q_lambda.copy(),
            self.mu_q_gamma.copy(), self.Sigma_q_gamma.copy(),
            self.mu_q_delta.copy(), self.Sigma_q_delta.copy(),
            self.a_q, self.b_q)


@dataclass
class ExpectationCache:
    """First and second moments of every factor, refreshed block by block."""

    tilde_mu: float
    var_mu: float
    tilde_g: np.ndarray
    var_g: np.ndarray
    tilde_e: np.ndarray
    var_e: np.ndarray
    tilde_lambda: np.ndarray
    tilde_lambda_sq: np.ndarray
    tilde_gamma: np.ndarray
    tilde_gamma_sq: np.ndarray
    tilde_delta: np.ndarray
    tilde_delta_sq: np.ndarray
    tilde_tau: float


@dataclass
class FitResult:
    state: VariationalState
    theta: ThetaPoint
    elbo_trace: np.ndarray
    change_trace: np.ndarray  # max absolute mean change of each sweep
    n_iter: int
    converged: bool
    wall_time: float


def _trunc_moments_vec(locs, variances):
    means = np.empty(len(locs))
    var_out = np.empty_like(means)
    for k, (m, v) in enumerate(zip(locs, variances)):
        means[k], var_out[k] = trunc_normal_moments(m, v)
    return means, var_out


def expectations(state: VariationalState) -> ExpectationCache:
    lam_mean, lam_var = _trunc_moments_vec(state.mu_q_lambda, state.Sigma_q_lambda)
    gamma_mean = state.mu_q_gamma.copy()
    gamma_var = state.Sigma_q_gamma.copy()
    gamma_mean[0], gamma_var[0] = _trunc_moments_vec(state.mu_q_gamma[0], state.Sigma_q_gamma[0])
    return ExpectationCache(
        tilde_mu=state.mu_q_mu, var_mu=state.Sigma_q_mu,
        tilde_g=state.mu_q_g.copy(), var_g=state.Sigma_q_g.copy(),
        tilde_e=state.mu_q_e.copy(), var_e=state.Sigma_q_e.copy(),
        tilde_lambda=lam_mean, tilde_lambda_sq=lam_var + lam_mean ** 2,
        tilde_gamma=gamma_mean, tilde_gamma_sq=gamma_var + gamma_mean ** 2,
        tilde_delta=state.mu_q_delta.copy(),
        tilde_delta_sq=state.Sigma_q_delta + state.mu_q_delta ** 2,
        tilde_tau=state.a_q / state.b_q)


def point_mass_cache(theta: ThetaPoint) -> ExpectationCache:
    """Cache with every factor degenerate at a parameter point.

    With this cache each coordinate update reduces to the corresponding
    Gibbs full conditional, which is how the two derivations are
    cross-checked.
    """
    return ExpectationCache(
        tilde_mu=float(theta.mu), var_mu=0.0,
        tilde_g=theta.g.copy(), var_g=np.zeros_like(theta.g),
        tilde_e=theta.e.copy(), var_e=np.zeros_like(theta.e),
        tilde_lambda=theta.lam.copy(), tilde_lambda_sq=theta.lam ** 2,
        tilde_gamma=theta.gamma.copy(), tilde_gamma_sq=theta.gamma ** 2,
        tilde_delta=theta.delta.copy(), tilde_delta_sq=theta.delta ** 2,
        tilde_tau=1.0 / theta.sigma2)


def init_state(theta: ThetaPoint, dataset: Dataset, config: ModelConfig
               ) -> VariationalState:
    """State with means at a parameter point and unit variances.

    Singular values are clipped away from zero and the factors are
    sign-fixed by `statsmath.fix_signs`, so a first-row entry (the
    positive-truncated factor) further than 1e-12 from zero starts
    positive; an exact zero there is moved to 1e-6.
    """
    I, J, Q = dataset.n_genotypes, dataset.n_environments, config.Q
    if theta.g.size != I or theta.e.size != J or theta.n_components != Q:
        raise DimensionMismatchError("theta dimensions do not match dataset/config")
    lam = np.maximum(theta.lam.astype(float), 1e-6)
    gamma, delta = fix_signs(theta.gamma.astype(float), theta.delta.astype(float))
    gamma[0, gamma[0] == 0.0] = 1e-6
    a_q = config.hyper.a + dataset.n_obs / 2.0
    # Initial variances must be small relative to the bilinear entries
    # (~1/sqrt(I)): unit variances dominate the E[gamma^2] E[delta^2]
    # precision sums of the first singular-value update and collapse the
    # interaction to a degenerate optimum on sparse grids.
    v0 = 1e-4
    return VariationalState(
        mu_q_mu=float(theta.mu), Sigma_q_mu=v0,
        mu_q_g=theta.g.astype(float).copy(), Sigma_q_g=np.full(I, v0),
        mu_q_e=theta.e.astype(float).copy(), Sigma_q_e=np.full(J, v0),
        mu_q_lambda=lam, Sigma_q_lambda=np.full(Q, v0),
        mu_q_gamma=gamma, Sigma_q_gamma=np.full((I, Q), v0),
        mu_q_delta=delta, Sigma_q_delta=np.full((J, Q), v0),
        a_q=float(a_q), b_q=float(a_q * theta.sigma2))


def random_theta(dataset: Dataset, Q: int, rng: np.random.Generator) -> ThetaPoint:
    """Naive random starting point (all blocks standard-normal draws)."""
    I, J = dataset.n_genotypes, dataset.n_environments
    return ThetaPoint(
        mu=float(rng.normal(dataset.y.mean(), 1.0)),
        g=rng.standard_normal(I), e=rng.standard_normal(J),
        lam=np.sort(np.abs(rng.standard_normal(Q)))[::-1],
        gamma=rng.standard_normal((I, Q)), delta=rng.standard_normal((J, Q)),
        sigma2=1.0)


def _grid(a: np.ndarray, b: np.ndarray, dataset: Dataset) -> np.ndarray:
    """sum_q a[i, q] * b[j, q] at each observed cell (i, j), read from the I x J product."""
    return (a @ b.T).ravel()[dataset.cells]


def _resid(cache: ExpectationCache, dataset: Dataset, drop: int | None = None) -> np.ndarray:
    """y minus the expected cell mean at each observed cell; updates add their own term back.

    With `drop` = q, component q is left out of the bilinear sum: the
    partial residual that the lambda_q, gamma_q and delta_q updates share.
    The means are formed on the whole I x J grid (as `model.mean_matrix`
    does) and read at the observed cells with one flat gather, which costs
    far less than gathering factor rows once per observation.
    """
    lam = cache.tilde_lambda
    if drop is not None:
        lam = lam.copy()
        lam[drop] = 0.0
    grid = (cache.tilde_gamma * lam) @ cache.tilde_delta.T
    grid += cache.tilde_mu + cache.tilde_g[:, None] + cache.tilde_e
    return dataset.y - grid.ravel()[dataset.cells]


def update_mu(state: VariationalState, dataset: Dataset, hyper: Hyperparams,
              cache: ExpectationCache) -> tuple[float, float]:
    resid_sum = _resid(cache, dataset).sum() + dataset.n_obs * cache.tilde_mu
    prec = dataset.n_obs * cache.tilde_tau + 1.0 / hyper.sigma2_mu
    mean = (cache.tilde_tau * resid_sum + hyper.mu_mu / hyper.sigma2_mu) / prec
    state.mu_q_mu, state.Sigma_q_mu = float(mean), float(1.0 / prec)
    cache.tilde_mu, cache.var_mu = state.mu_q_mu, state.Sigma_q_mu
    return state.mu_q_mu, state.Sigma_q_mu


def update_g(state: VariationalState, dataset: Dataset, hyper: Hyperparams,
             cache: ExpectationCache) -> tuple[np.ndarray, np.ndarray]:
    n_rows = dataset.row_counts
    prec = n_rows * cache.tilde_tau + 1.0 / hyper.sigma2_g
    sums = (np.bincount(dataset.rows, weights=_resid(cache, dataset), minlength=n_rows.size)
            + n_rows * cache.tilde_g)
    state.mu_q_g = cache.tilde_tau * sums / prec
    state.Sigma_q_g = 1.0 / prec
    cache.tilde_g, cache.var_g = state.mu_q_g.copy(), state.Sigma_q_g.copy()
    return state.mu_q_g, state.Sigma_q_g


def update_e(state: VariationalState, dataset: Dataset, hyper: Hyperparams,
             cache: ExpectationCache) -> tuple[np.ndarray, np.ndarray]:
    n_cols = dataset.col_counts
    prec = n_cols * cache.tilde_tau + 1.0 / hyper.sigma2_e
    sums = (np.bincount(dataset.cols, weights=_resid(cache, dataset), minlength=n_cols.size)
            + n_cols * cache.tilde_e)
    state.mu_q_e = cache.tilde_tau * sums / prec
    state.Sigma_q_e = 1.0 / prec
    cache.tilde_e, cache.var_e = state.mu_q_e.copy(), state.Sigma_q_e.copy()
    return state.mu_q_e, state.Sigma_q_e


def _ridge_step(state: VariationalState, hyper: Hyperparams,
                cache: ExpectationCache) -> tuple[float, float]:
    """Move to the ELBO optimum along the additive ridge (mu + c + d, g - c, e - d).

    Every cell mean and every variance stays put along the ridge, so only
    the mu, g and e prior terms change; their optimum over (c, d) is a
    2 x 2 linear solve. Without this step CAVI creeps along the ridge on
    incomplete grids, held only by the weak priors. This is the additive
    form of parameter expansion (Liu & Wu 1999).
    """
    pm, pg, pe = 1.0 / hyper.sigma2_mu, 1.0 / hyper.sigma2_g, 1.0 / hyper.sigma2_e
    off = (state.mu_q_mu - hyper.mu_mu) * pm
    a11 = pm + state.mu_q_g.size * pg
    a22 = pm + state.mu_q_e.size * pe
    r1 = pg * float(state.mu_q_g.sum()) - off
    r2 = pe * float(state.mu_q_e.sum()) - off
    det = a11 * a22 - pm * pm
    c = (a22 * r1 - pm * r2) / det
    d = (a11 * r2 - pm * r1) / det
    state.mu_q_mu += c + d
    state.mu_q_g -= c
    state.mu_q_e -= d
    cache.tilde_mu = state.mu_q_mu
    cache.tilde_g -= c
    cache.tilde_e -= d
    return c, d


def update_lambda(state: VariationalState, dataset: Dataset, hyper: Hyperparams,
                  cache: ExpectationCache, q: int, resid: np.ndarray) -> tuple[float, float]:
    """Update the q-th singular value's positive-truncated factor.

    `resid` is component q's partial residual `_resid(cache, dataset, q)`;
    a sweep builds it once for the lambda_q, gamma_q and delta_q updates
    (it does not depend on component q).
    """
    gd_sq = _grid(cache.tilde_gamma_sq[:, q:q + 1], cache.tilde_delta_sq[:, q:q + 1], dataset)
    gd = _grid(cache.tilde_gamma[:, q:q + 1], cache.tilde_delta[:, q:q + 1], dataset)
    prec = cache.tilde_tau * gd_sq.sum() + 1.0 / hyper.sigma2_lambda
    loc = cache.tilde_tau * (gd @ resid) / prec
    state.mu_q_lambda[q], state.Sigma_q_lambda[q] = loc, 1.0 / prec
    mean, var = trunc_normal_moments(loc, 1.0 / prec)
    cache.tilde_lambda[q], cache.tilde_lambda_sq[q] = mean, var + mean ** 2
    return float(loc), float(1.0 / prec)


def update_gamma(state: VariationalState, dataset: Dataset, hyper: Hyperparams,
                 cache: ExpectationCache, q: int, resid: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Update the q-th left singular-vector column (all rows).

    The first row's factor is a positive-truncated Normal; remaining rows
    are plain Normals with unit prior variance. `resid` is as in
    `update_lambda`.
    """
    I = dataset.n_genotypes
    d_mean = cache.tilde_delta[:, q][dataset.cols]
    prec = (cache.tilde_tau * cache.tilde_lambda_sq[q]
            * np.bincount(dataset.rows, weights=cache.tilde_delta_sq[:, q][dataset.cols],
                          minlength=I) + 1.0)
    loc = (cache.tilde_tau * cache.tilde_lambda[q]
           * np.bincount(dataset.rows, weights=d_mean * resid, minlength=I) / prec)
    state.mu_q_gamma[:, q] = loc
    state.Sigma_q_gamma[:, q] = 1.0 / prec
    cache.tilde_gamma[:, q] = loc
    cache.tilde_gamma_sq[:, q] = loc ** 2 + 1.0 / prec
    mean0, var0 = trunc_normal_moments(loc[0], 1.0 / prec[0])
    cache.tilde_gamma[0, q] = mean0
    cache.tilde_gamma_sq[0, q] = var0 + mean0 ** 2
    return loc, 1.0 / prec


def update_delta(state: VariationalState, dataset: Dataset, hyper: Hyperparams,
                 cache: ExpectationCache, q: int, resid: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Update the q-th right singular-vector column; `resid` is as in `update_lambda`."""
    J = dataset.n_environments
    g_mean = cache.tilde_gamma[:, q][dataset.rows]
    prec = (cache.tilde_tau * cache.tilde_lambda_sq[q]
            * np.bincount(dataset.cols, weights=cache.tilde_gamma_sq[:, q][dataset.rows],
                          minlength=J) + 1.0)
    loc = (cache.tilde_tau * cache.tilde_lambda[q]
           * np.bincount(dataset.cols, weights=g_mean * resid, minlength=J) / prec)
    state.mu_q_delta[:, q] = loc
    state.Sigma_q_delta[:, q] = 1.0 / prec
    cache.tilde_delta[:, q] = loc
    cache.tilde_delta_sq[:, q] = loc ** 2 + 1.0 / prec
    return loc, 1.0 / prec


def expected_sse(cache: ExpectationCache, dataset: Dataset) -> float:
    """E || y - model mean ||^2 over observed cells under the mean field."""
    rows, cols = dataset.rows, dataset.cols
    r = _resid(cache, dataset)
    total = float(r @ r)
    total += dataset.n_obs * cache.var_mu
    total += float(cache.var_g[rows].sum() + cache.var_e[cols].sum())
    second = _grid(cache.tilde_gamma_sq * cache.tilde_lambda_sq, cache.tilde_delta_sq, dataset)
    first = _grid((cache.tilde_gamma * cache.tilde_lambda) ** 2, cache.tilde_delta ** 2, dataset)
    total += float(np.sum(second - first))
    return total


def update_tau(state: VariationalState, dataset: Dataset, hyper: Hyperparams,
               cache: ExpectationCache, sse: float) -> tuple[float, float]:
    """Update the noise precision's Gamma factor; `sse` is `expected_sse(cache, dataset)`."""
    state.a_q = hyper.a + dataset.n_obs / 2.0
    state.b_q = hyper.b + 0.5 * sse
    cache.tilde_tau = state.a_q / state.b_q
    return state.a_q, state.b_q


def _neg_kl_normal(m, v, m0, v0):
    return 0.5 * (np.log(v / v0) - (v + (m - m0) ** 2) / v0 + 1.0)


def _neg_kl_gamma(a_q, b_q, a, b):
    # E_q[log p(tau)] - E_q[log q(tau)] for Gamma(shape, rate) laws
    e_log_tau = digamma(a_q) - math.log(b_q)
    e_tau = a_q / b_q
    e_log_p = a * math.log(b) - gammaln(a) + (a - 1.0) * e_log_tau - b * e_tau
    e_log_q = a_q * math.log(b_q) - gammaln(a_q) + (a_q - 1.0) * e_log_tau - a_q
    return e_log_p - e_log_q


def _neg_kl_trunc(m, v, prior_var):
    """E_q[log p] - E_q[log q] for q = N(m, v) truncated to x > 0 and
    p the positive half of N(0, prior_var)."""
    mean_t, var_t = trunc_normal_moments(m, v)
    e_x2 = var_t + mean_t ** 2
    e_dev2 = var_t + (mean_t - m) ** 2
    log_z = log_ndtr(m / math.sqrt(v))
    e_log_p = math.log(2.0) - 0.5 * (_LOG_2PI + math.log(prior_var)) - e_x2 / (2.0 * prior_var)
    e_log_q = -0.5 * (_LOG_2PI + math.log(v)) - log_z - e_dev2 / (2.0 * v)
    return float(e_log_p - e_log_q)


def _neg_kl(state: VariationalState, hyper: Hyperparams) -> float:
    """The ELBO's prior terms E_q[log p(theta)] - E_q[log q(theta)], which is -KL(q || prior)."""
    total = _neg_kl_normal(state.mu_q_mu, state.Sigma_q_mu, hyper.mu_mu, hyper.sigma2_mu)
    total += float(np.sum(_neg_kl_normal(state.mu_q_g, state.Sigma_q_g, 0.0, hyper.sigma2_g)))
    total += float(np.sum(_neg_kl_normal(state.mu_q_e, state.Sigma_q_e, 0.0, hyper.sigma2_e)))
    for q in range(state.n_components):
        total += _neg_kl_trunc(state.mu_q_lambda[q], state.Sigma_q_lambda[q],
                               hyper.sigma2_lambda)
        total += _neg_kl_trunc(state.mu_q_gamma[0, q], state.Sigma_q_gamma[0, q], 1.0)
    # every other gamma entry and every delta entry has a Normal factor and a N(0, 1) prior
    total += float(np.sum(_neg_kl_normal(state.mu_q_gamma[1:], state.Sigma_q_gamma[1:], 0.0, 1.0)))
    total += float(np.sum(_neg_kl_normal(state.mu_q_delta, state.Sigma_q_delta, 0.0, 1.0)))
    total += _neg_kl_gamma(state.a_q, state.b_q, hyper.a, hyper.b)
    return float(total)


def elbo(state: VariationalState, dataset: Dataset, hyper: Hyperparams, sse: float) -> float:
    """Evidence lower bound E_q[log p(y, theta)] - E_q[log q(theta)].

    `sse` is the expected SSE `expected_sse(expectations(state), dataset)`,
    which a sweep computes once for `update_tau` and the ELBO.
    """
    e_log_tau = digamma(state.a_q) - math.log(state.b_q)
    return float(0.5 * dataset.n_obs * (e_log_tau - _LOG_2PI)
                 - 0.5 * (state.a_q / state.b_q) * sse + _neg_kl(state, hyper))


def posterior_mean_theta(state: VariationalState) -> ThetaPoint:
    """Posterior means of every block as a parameter point."""
    cache = expectations(state)
    if state.a_q > 1.0:
        sigma2 = state.b_q / (state.a_q - 1.0)
    else:
        sigma2 = state.b_q / state.a_q
    return ThetaPoint(mu=cache.tilde_mu, g=cache.tilde_g, e=cache.tilde_e,
                      lam=cache.tilde_lambda, gamma=cache.tilde_gamma,
                      delta=cache.tilde_delta, sigma2=float(sigma2))


def fit(dataset: Dataset, config: ModelConfig, init: ThetaPoint,
        callback=None) -> FitResult:
    """Run CAVI sweeps until the variational means stabilize.

    Sweep order: mu, g, e, the closed-form step along the additive ridge
    (`_ridge_step`), then (lambda_q, gamma column q, delta column q) for
    each component, then the noise precision. Stops when the max
    absolute mean change falls below config.tol. `callback`, when given,
    receives (sweep_number, state) after every sweep. An ELBO step that
    falls by more than 1e-8 relative, which exact coordinate ascent never
    does, is reported as a RuntimeWarning.
    """
    t0 = time.perf_counter()
    hyper = config.hyper
    state = init_state(init, dataset, config)
    cache = expectations(state)
    trace = [elbo(state, dataset, hyper, expected_sse(cache, dataset))]
    changes = []
    converged = False
    n_iter = 0
    for n_iter in range(1, config.max_iter + 1):
        previous = state.copy()
        update_mu(state, dataset, hyper, cache)
        update_g(state, dataset, hyper, cache)
        update_e(state, dataset, hyper, cache)
        _ridge_step(state, hyper, cache)
        for q in range(config.Q):
            resid = _resid(cache, dataset, q)
            update_lambda(state, dataset, hyper, cache, q, resid)
            update_gamma(state, dataset, hyper, cache, q, resid)
            update_delta(state, dataset, hyper, cache, q, resid)
        # tau's update leaves the moments the SSE reads unchanged
        sse = expected_sse(cache, dataset)
        update_tau(state, dataset, hyper, cache, sse)
        value = elbo(state, dataset, hyper, sse)
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite ELBO at sweep {n_iter}")
        if value < trace[-1] - _ELBO_RTOL * abs(trace[-1]):
            warnings.warn(f"ELBO decreased at sweep {n_iter}: {trace[-1]!r} -> {value!r}",
                          RuntimeWarning, stacklevel=2)
        trace.append(value)
        changes.append(state.mean_changes(previous))
        if callback is not None:
            callback(n_iter, state)
        if changes[-1] < config.tol:
            converged = True
            break
    theta = post_process(posterior_mean_theta(state))
    return FitResult(state=state, theta=theta, elbo_trace=np.array(trace),
                     change_trace=np.array(changes), n_iter=n_iter, converged=converged,
                     wall_time=time.perf_counter() - t0)
