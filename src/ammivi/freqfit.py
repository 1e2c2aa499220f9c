"""Multi-stage frequentist AMMI fit: constrained least squares plus SVD.

Used to initialize the variational fitter and as a standalone baseline.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .model import Dataset, ThetaPoint, mean_matrix
from .statsmath import DegenerateInputError, centered_svd


def observed_grid(dataset: Dataset) -> np.ndarray:
    """`dataset.observed`, the I x J boolean grid of observed cells, once the table is connected.

    A breadth-first search of the bipartite genotype-environment graph of
    observed cells raises `DegenerateInputError` for a disconnected table,
    the one case in which the additive fit is singular.
    """
    observed = dataset.observed
    reached = np.arange(dataset.n_genotypes) == 0
    while (grown := observed[:, observed[reached].any(0)].any(1)).sum() > reached.sum():
        reached = grown
    if not reached.all():
        raise DegenerateInputError("additive design is singular (disconnected table)")
    return observed


def fit_additive(dataset: Dataset) -> tuple[float, np.ndarray, np.ndarray]:
    """Least-squares two-way additive fit under sum-to-zero constraints.

    Solves the normal equations without an n-row design: the (1+I+J)^2
    Gram matrix comes from n, the row and column counts and the
    observed-cell grid, the right-hand side from sums of y, and sum coding
    reduces both to I+J-1 unknowns, at O(n + (I+J)^2) cost. Raises
    `DegenerateInputError` for a disconnected table (see `observed_grid`).
    """
    I, J = dataset.n_genotypes, dataset.n_environments
    n, n_rows, n_cols = dataset.n_obs, dataset.row_counts, dataset.col_counts
    observed = observed_grid(dataset)
    gram = np.block([[n, n_rows, n_cols],
                     [n_rows[:, None], np.diag(n_rows), observed],
                     [n_cols[:, None], observed.T, np.diag(n_cols)]])
    rhs = np.concatenate([[dataset.y.sum()], np.bincount(dataset.rows, dataset.y, I),
                          np.bincount(dataset.cols, dataset.y, J)])

    # sum coding: g_I = -sum(g_1..g_{I-1}), e_J likewise; applied along axis 0
    def code(a):
        return np.concatenate([a[:1], a[1:I] - a[I], a[I + 1:-1] - a[-1]])

    beta = np.linalg.solve(code(code(gram).T), code(rhs))
    return (float(beta[0]), np.append(beta[1:I], -beta[1:I].sum()),
            np.append(beta[I:], -beta[I:].sum()))


def _residual_matrix(dataset: Dataset, mu, g, e) -> np.ndarray:
    """Additive residuals on the full grid, unobserved cells filled with 0."""
    R = np.zeros((dataset.n_genotypes, dataset.n_environments))
    R[dataset.rows, dataset.cols] = (
        dataset.y - mu - g[dataset.rows] - e[dataset.cols])
    return R


def fit_interaction(dataset: Dataset, mu: float, g: np.ndarray, e: np.ndarray,
                    Q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-Q SVD of the doubly centered additive-residual matrix.

    Missing cells enter as zero residuals (one-shot fill, no EM); factors
    follow the sign convention of `statsmath.fix_signs`.
    """
    I, J = dataset.n_genotypes, dataset.n_environments
    if Q >= min(I, J):
        raise ValueError("Q must be smaller than min(I, J)")
    if Q == 0:
        return np.zeros(0), np.zeros((I, 0)), np.zeros((J, 0))

    svals, gamma, delta = centered_svd(_residual_matrix(dataset, mu, g, e), Q)
    if svals[Q - 1] <= 1e-12 * max(svals[0], 1.0):
        raise DegenerateInputError(f"residual matrix has rank below Q={Q}")
    return svals[:Q].copy(), gamma, delta


def frequentist_fit(dataset: Dataset, Q: int) -> ThetaPoint:
    """Two-stage fit; sigma2 is the mean squared residual after Q components."""
    mu, g, e = fit_additive(dataset)
    lam, gamma, delta = fit_interaction(dataset, mu, g, e, Q)
    theta = ThetaPoint(mu=mu, g=g, e=e, lam=lam, gamma=gamma, delta=delta, sigma2=1.0)
    resid = dataset.y - mean_matrix(theta).ravel()[dataset.cells]
    return replace(theta, sigma2=float(max(np.mean(resid ** 2), 1e-12)))
