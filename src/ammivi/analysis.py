"""Predictions, error metrics, heatmap exports, VI-vs-MCMC comparison and timing."""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import gibbs, simulate, vi
from .freqfit import frequentist_fit
from .gibbs import PosteriorDraws
from .model import (QUANTILE_LEVELS, SCALAR_BLOCKS, THETA_FIELDS, Dataset, DimensionMismatchError,
                    ModelConfig, ValidationError, default_hyperparams, mean_matrix,
                    param_rows, write_rows)
from .statsmath import sample_trunc_normal
from .vi import FitResult


@dataclass(frozen=True)
class PredictiveSummary:
    """Per-cell posterior-predictive mean and 5/50/95% quantiles.

    Without include_noise they summarise the cell mean; with it, a new
    observation of the cell (the cell mean plus Normal noise of variance sigma2).
    """

    mean: np.ndarray
    q05: np.ndarray
    q50: np.ndarray
    q95: np.ndarray
    observed: np.ndarray
    include_noise: bool
    threads: int             # worker threads that summarised the cells


def _normal_draws(rng: np.random.Generator, mean: np.ndarray, var: np.ndarray,
                  n_draws: int) -> np.ndarray:
    """n_draws of N(mean, var), each element mean + sd * z, scaled and shifted in place."""
    draws = rng.standard_normal((n_draws, *mean.shape))
    draws *= np.sqrt(var)
    draws += mean
    return draws


def _vi_parameter_draws(fit: FitResult, n_draws: int, rng: np.random.Generator):
    st = fit.state
    Q = st.mu_q_gamma.shape[1]
    mu = rng.normal(st.mu_q_mu, np.sqrt(st.Sigma_q_mu), n_draws)
    g = _normal_draws(rng, st.mu_q_g, st.Sigma_q_g, n_draws)
    e = _normal_draws(rng, st.mu_q_e, st.Sigma_q_e, n_draws)
    lam = np.empty((n_draws, Q))
    gamma = _normal_draws(rng, st.mu_q_gamma, st.Sigma_q_gamma, n_draws)
    delta = _normal_draws(rng, st.mu_q_delta, st.Sigma_q_delta, n_draws)
    for q in range(Q):
        lam[:, q] = sample_trunc_normal(rng, st.mu_q_lambda[q], st.Sigma_q_lambda[q],
                                        size=n_draws)
        gamma[:, 0, q] = sample_trunc_normal(rng, st.mu_q_gamma[0, q], st.Sigma_q_gamma[0, q],
                                             size=n_draws)
    sigma2 = 1.0 / rng.gamma(st.a_q, 1.0 / st.b_q, n_draws)
    return mu, g, e, lam, gamma, delta, sigma2


# predict's budget of cell draws (about 4 MB); one block holds at most _BLOCK_CELLS // 8,
# or one cell when there are more draws than that
_BLOCK_CELLS = 500_000


def check_n_draws(n_draws: int) -> None:
    """Raise ValidationError unless n_draws >= 1 (predict's and `ammivi predict`'s rule)."""
    if n_draws < 1:
        raise ValidationError(f"n_draws must be >= 1, got {n_draws}")


def _linear_positions(D: int) -> list[tuple[int, int, float]]:
    """Where numpy's linear rule (Hyndman & Fan 1996, type 7) reads each QUANTILE_LEVELS entry.

    In D sorted draws, p sits at h = (D - 1) p: between the order statistics
    lo = floor(h) and hi = min(lo + 1, D - 1), at weight t = h - lo.
    """
    positions = []
    for p in QUANTILE_LEVELS:
        h = (D - 1) * p
        lo = math.floor(h)
        positions.append((lo, min(lo + 1, D - 1), h - lo))
    return positions


def _sorted_quantiles(cells: np.ndarray, positions) -> list[np.ndarray]:
    """The QUANTILE_LEVELS quantiles of cells, sorted along its last axis, at _linear_positions.

    Interpolates as numpy's _lerp does, from the nearer order statistic, so
    the values equal np.quantile(cells, QUANTILE_LEVELS, axis=-1) bitwise.
    """
    out = []
    for lo, hi, t in positions:
        a, b = cells[..., lo], cells[..., hi]
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def _worker_count() -> int:
    """The CPUs this process may run on (its affinity set where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cell_summary(mu, g, e, lam, gamma, delta, sigma2, include_noise, rng):
    """Mean and 5/50/95% quantiles over D draws of every cell, block by block on a thread pool.

    The draws come as (D,), (D, I), (D, J), (D, Q), (D, I, Q), (D, J, Q) and
    (D,) arrays, read where they lie. Only the environment side, mu + e and
    delta, is laid out once with the draws on the last axis (J (1 + Q) D
    values). A block is one genotype row by a run of environments, at most
    _BLOCK_CELLS // 8 cell draws, or one cell of D draws when D is larger;
    the layout depends on I, J and D only. Each worker takes one contiguous
    run of the blocks, so it meets each genotype row once, and fills a
    (1 + Q, D) row buffer with g[:, i] and gamma[:, i, q] * lam[:, q] when it
    reaches row i, and one (cells, scratch) buffer pair for the blocks
    (numpy's loops and sort release the GIL). A block's mean is taken first;
    the block is then sorted in place along the draws and the quantiles are
    read off it at numpy's linear-rule positions, equal to np.quantile's
    bitwise. With include_noise, each block draws its noise from its own
    child of rng, spawned before any worker starts, so seeded output does
    not depend on the worker count.
    Returns the mean grid, the (3, I, J) quantile grids and the worker count.
    """
    D, I = g.shape
    J = e.shape[1]
    Q = lam.shape[1]
    mu_e_t = np.ascontiguousarray((mu[:, None] + e).T)
    delta_t = np.ascontiguousarray(delta.transpose(2, 1, 0))
    sd = np.sqrt(sigma2)
    positions = _linear_positions(D)
    mean = np.empty((I, J))
    qs = np.empty((len(QUANTILE_LEVELS), I, J))
    width = max(1, _BLOCK_CELLS // 8 // D)
    blocks = [(i, slice(j0, min(j0 + width, J)))
              for i in range(I) for j0 in range(0, J, width)]
    streams = rng.spawn(len(blocks)) if include_noise else [None] * len(blocks)
    size = min(width, J) * D
    # each worker holds two blocks, so the pool stays within the _BLOCK_CELLS budget
    workers = min(_worker_count(), len(blocks), max(1, _BLOCK_CELLS // (2 * size)))

    def run_share(share):
        row = np.empty((1 + Q, D))
        buffer_pair = (np.empty(size), np.empty(size))
        filled = -1
        for (i, cols), stream in share:
            if i != filled:
                row[0] = g[:, i]
                for q in range(Q):
                    np.multiply(gamma[:, i, q], lam[:, q], out=row[1 + q])
                filled = i
            n = cols.stop - cols.start
            cells, scratch = (buf[:n * D].reshape(n, D) for buf in buffer_pair)
            np.add(row[0], mu_e_t[cols], out=cells)
            for q in range(Q):
                np.multiply(row[1 + q], delta_t[q, cols], out=scratch)
                np.add(cells, scratch, out=cells)
            if stream is not None:
                stream.standard_normal(out=scratch)
                np.multiply(scratch, sd, out=scratch)
                np.add(cells, scratch, out=cells)
            np.mean(cells, axis=-1, out=mean[i, cols])
            cells.sort(axis=-1)
            qs[:, i, cols] = _sorted_quantiles(cells, positions)

    jobs = list(zip(blocks, streams))
    # contiguous, non-empty runs of blocks: each row is gathered by one worker, or two
    shares = [jobs[len(jobs) * w // workers:len(jobs) * (w + 1) // workers]
              for w in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # list() re-raises the first worker exception; leaving the block joins every thread
        list(pool.map(run_share, shares))
    return mean, qs, workers


def predict(fit: FitResult | PosteriorDraws, dataset: Dataset,
            n_draws: int = 4000, include_noise: bool = False,
            seed: int = 0) -> PredictiveSummary:
    """Posterior-predictive summary for every cell of the grid.

    VI draws parameter vectors from the independent variational factors;
    MCMC reuses the stored posterior draws (subsampled to n_draws).
    With include_noise, Normal observation noise is added per draw.
    """
    check_n_draws(n_draws)
    I, J = dataset.n_genotypes, dataset.n_environments
    rng = np.random.default_rng(seed)
    if isinstance(fit, FitResult):
        if fit.state.mu_q_g.size != I or fit.state.mu_q_e.size != J:
            raise DimensionMismatchError("fit does not cover the dataset grid")
        blocks = _vi_parameter_draws(fit, n_draws, rng)
    else:
        if fit.g.shape[2] != I or fit.e.shape[2] != J:
            raise DimensionMismatchError("draws do not cover the dataset grid")
        blocks = [fit.flat(name) for name in THETA_FIELDS]
        if len(blocks[0]) > n_draws:
            pick = rng.choice(len(blocks[0]), size=n_draws, replace=False)
            blocks = [block[pick] for block in blocks]

    mean, qs, threads = _cell_summary(*blocks, include_noise, rng)
    return PredictiveSummary(mean=mean, q05=qs[0], q50=qs[1], q95=qs[2],
                             observed=dataset.observed.copy(), include_noise=include_noise,
                             threads=threads)


def rmse(predicted, reference) -> float:
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape or predicted.size == 0:
        raise ValueError("need equal-length nonempty vectors")
    return float(np.sqrt(np.mean((predicted - reference) ** 2)))


def in_sample_rmse(theta, dataset: Dataset) -> float:
    """RMSE of fitted cell means against the observed responses."""
    fitted = mean_matrix(theta)[dataset.rows, dataset.cols]
    return rmse(fitted, dataset.y)


def export_heatmap(summary: PredictiveSummary, dataset: Dataset, prefix) -> list[str]:
    """Write q05/q50/q95 matrices plus the observed-cell mask as CSV files."""
    paths = []
    for tag, matrix in (("q05", summary.q05), ("q50", summary.q50), ("q95", summary.q95),
                        ("observed", summary.observed.astype(int))):
        path = f"{prefix}_{tag}.csv"
        write_rows(path, ["genotype", *dataset.environment_labels],
                   ([label, *row] for label, row in
                    zip(dataset.genotype_labels, matrix.tolist())))
        paths.append(path)
    return paths


@dataclass(frozen=True)
class ComparisonReport:
    rows: list[tuple]          # (name, vi_mean, mcmc_mean, vi_sd, mcmc_sd, gap)
    vi_rmse: float
    mcmc_rmse: float
    vi_time: float
    mcmc_time: float

    @property
    def time_ratio(self) -> float:
        return self.mcmc_time / self.vi_time if self.vi_time > 0 else np.inf

    def max_gap(self, prefix: str) -> float:
        gaps = [r[5] for r in self.rows if r[0].startswith(prefix)]
        return max(gaps) if gaps else 0.0

    def to_csv(self, path) -> None:
        write_rows(path, ["parameter", "vi_mean", "mcmc_mean", "vi_sd", "mcmc_sd",
                          "abs_gap"], self.rows)

    def to_text(self) -> str:
        lines = [
            f"in-sample RMSE: VI {self.vi_rmse:.4f}  MCMC {self.mcmc_rmse:.4f}",
            f"wall time [s]:  VI {self.vi_time:.2f}  MCMC {self.mcmc_time:.2f}"
            f"  (ratio MCMC/VI {self.time_ratio:.2f})",
            f"max mean gap: mu/g/e "
            f"{max(self.max_gap('mu'), self.max_gap('g['), self.max_gap('e[')):.4f}",
        ]
        return "\n".join(lines)


def compare(vi: FitResult, mcmc: PosteriorDraws, dataset: Dataset) -> ComparisonReport:
    """Per-parameter means/sds of the two fitters plus speed and RMSE."""
    Q = vi.state.n_components
    if (mcmc.n_components != Q or mcmc.g.shape[2] != dataset.n_genotypes
            or mcmc.e.shape[2] != dataset.n_environments
            or vi.state.mu_q_g.size != dataset.n_genotypes
            or vi.state.mu_q_e.size != dataset.n_environments):
        raise DimensionMismatchError("fits disagree on I, J or Q")

    theta_vi, st = vi.theta, vi.state
    theta_mcmc = gibbs.posterior_mean_theta(mcmc)
    sig_sd = np.sqrt(st.b_q ** 2 / ((st.a_q - 1.0) ** 2 * (st.a_q - 2.0))) \
        if st.a_q > 2 else np.nan
    vi_sd = {"mu": np.sqrt(st.Sigma_q_mu), "g": np.sqrt(st.Sigma_q_g),
             "e": np.sqrt(st.Sigma_q_e), "lam": np.sqrt(st.Sigma_q_lambda), "sigma2": sig_sd}
    blocks = ((f, getattr(theta_vi, f), getattr(theta_mcmc, f), vi_sd[f],
               mcmc.flat(f).std(axis=0)) for f in THETA_FIELDS if f in SCALAR_BLOCKS)
    return ComparisonReport(
        rows=[(f"{name}[{i1}]" if i1 else name, vi_mean, mcmc_mean, vi_s, mcmc_s,
               abs(vi_mean - mcmc_mean))
              for name, i1, _, vi_mean, mcmc_mean, vi_s, mcmc_s in param_rows(blocks)],
        vi_rmse=in_sample_rmse(theta_vi, dataset),
        mcmc_rmse=in_sample_rmse(theta_mcmc, dataset),
        vi_time=vi.wall_time, mcmc_time=mcmc.wall_time)


def benchmark_rows(group: str, q_values=(1, 2), smoke: bool = False, seed: int = 0):
    """Timing rows (name, I, J, Q, n, vi_time, mcmc_time, ratio) for one size group.

    Raises ValidationError before any fit if a Q in q_values has no scenario in the group.
    """
    scenarios = [s for s in simulate.scenario_grid() if s.name.startswith(f"bench-{group}-")]
    group_qs = sorted({s.Q for s in scenarios})
    if not set(q_values) <= set(group_qs):
        raise ValidationError(f"benchmark group {group!r} has Q in {group_qs}; "
                              f"got {sorted(set(q_values))}")
    n_iter, n_burn = (100, 25) if smoke else (6000, 1000)
    rows = []
    for scenario in scenarios:
        if scenario.Q not in q_values:
            continue
        dataset, _ = simulate.simulate(simulate.with_seed(scenario, scenario.seed + seed))
        config = ModelConfig(Q=scenario.Q, hyper=default_hyperparams(dataset),
                             seed=seed)
        init = frequentist_fit(dataset, config.Q)
        t0 = time.perf_counter()
        vi.fit(dataset, config, init)
        vi_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        gibbs.gibbs_fit(dataset, config, n_chains=4, n_iter=n_iter, n_burn=n_burn,
                        init=init)
        mcmc_time = time.perf_counter() - t0
        rows.append((scenario.name, scenario.I, scenario.J, scenario.Q,
                     dataset.n_obs, vi_time, mcmc_time, mcmc_time / vi_time))
    return rows
