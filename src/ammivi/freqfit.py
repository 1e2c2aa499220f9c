"""Multi-stage frequentist AMMI fit: constrained least squares plus SVD.

Used to initialize the variational fitter and as a standalone baseline.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset, ThetaPoint
from .statsmath import DegenerateInputError, centered_svd


def fit_additive(dataset: Dataset) -> tuple[float, np.ndarray, np.ndarray]:
    """Least-squares two-way additive fit under sum-to-zero constraints.

    For complete tables this reduces to grand mean plus row/column mean
    deviations; incomplete tables are solved exactly through the reduced
    (sum-coded) normal equations.
    """
    I, J = dataset.n_genotypes, dataset.n_environments
    n = dataset.n_obs
    # sum coding: g_I = -sum(g_1..g_{I-1}), e_J likewise
    X = np.zeros((n, 1 + (I - 1) + (J - 1)))
    X[:, 0] = 1.0
    obs = np.arange(n)
    for offset, idx, size in ((1, dataset.rows, I), (I, dataset.cols, J)):
        last = idx == size - 1
        X[obs[~last], offset + idx[~last]] = 1.0
        X[last, offset:offset + size - 1] = -1.0
    beta, _, rank, _ = np.linalg.lstsq(X, dataset.y, rcond=None)
    if rank < X.shape[1]:
        raise DegenerateInputError("additive design is singular (disconnected table)")
    mu = float(beta[0])
    g = np.append(beta[1:I], -beta[1:I].sum())
    e = np.append(beta[I:], -beta[I:].sum())
    return mu, g, e


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

    _, svals, gamma, delta = centered_svd(_residual_matrix(dataset, mu, g, e), Q)
    if svals[Q - 1] <= 1e-12 * max(svals[0], 1.0):
        raise DegenerateInputError(f"residual matrix has rank below Q={Q}")
    return svals[:Q].copy(), gamma, delta


def frequentist_fit(dataset: Dataset, Q: int) -> ThetaPoint:
    """Two-stage fit; sigma2 is the mean squared residual after Q components."""
    mu, g, e = fit_additive(dataset)
    lam, gamma, delta = fit_interaction(dataset, mu, g, e, Q)
    fitted = mu + g[dataset.rows] + e[dataset.cols]
    if Q:
        fitted = fitted + ((gamma[dataset.rows] * lam) * delta[dataset.cols]).sum(axis=1)
    resid = dataset.y - fitted
    sigma2 = float(max(np.mean(resid ** 2), 1e-12))
    return ThetaPoint(mu=mu, g=g, e=e, lam=lam, gamma=gamma, delta=delta,
                      sigma2=sigma2)
