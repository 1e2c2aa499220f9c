"""Distributional and linear-algebra primitives for the AMMI pipeline.

Truncated-normal moments/sampling, column orthonormalization, sign
convention and centered SVD of the bilinear factor matrices, and the
split-chain Gelman-Rubin diagnostic.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Above this standardized truncation point the direct variance formula
# 1 + a*h - h^2 loses too many digits; switch to the Mills-ratio
# asymptotic series in u = 1/a^2.
_TAIL_SWITCH = 25.0


class DegenerateInputError(ValueError):
    """Raised when an input is rank deficient or otherwise degenerate."""


def _hazard(alpha):
    """phi(alpha) / (1 - Phi(alpha)), stable for large alpha via log Phi."""
    alpha = np.asarray(alpha, dtype=float)
    log_pdf = -0.5 * alpha * alpha - _LOG_SQRT_2PI
    return np.exp(log_pdf - log_ndtr(-alpha))


def _check_trunc_normal(location, scale_sq) -> None:
    if not (np.isfinite(location) and np.isfinite(scale_sq)):
        raise ValueError("truncated-normal parameters must be finite")
    if scale_sq <= 0:
        raise ValueError(f"scale_sq must be > 0, got {scale_sq}")


def trunc_normal_moments(location: float, scale_sq: float) -> tuple[float, float]:
    """Mean and variance of N(location, scale_sq) truncated to x > 0.

    `location` and `scale_sq` are the mean and variance of the parent
    (untruncated) normal, not of the truncated law.
    """
    _check_trunc_normal(location, scale_sq)
    s = np.sqrt(scale_sq)
    alpha = -location / s
    if alpha <= _TAIL_SWITCH:
        h = float(_hazard(alpha))
        mean = location + s * h
        var = scale_sq * (1.0 + alpha * h - h * h)
    else:
        # deep right tail: h ~ a(1 + u - 2u^2 + 10u^3), Var/s^2 ~ u - 6u^2 + 50u^3
        u = 1.0 / (alpha * alpha)
        h = alpha * (1.0 + u * (1.0 - u * (2.0 - 10.0 * u)))
        mean = location + s * h
        var = scale_sq * u * (1.0 - u * (6.0 - 50.0 * u))
    return float(mean), float(var)


def sample_trunc_normal(rng: np.random.Generator, location: float, scale_sq: float,
                        size: int | None = None):
    """Draw from N(location, scale_sq) truncated to x > 0.

    Exact inversion of the upper tail in log space, one uniform u per draw:
    with s = sqrt(scale_sq), the standardized draw z solves
    Phi(-z) = (1 - u) Phi(location / s), which stays accurate at any
    truncation point.
    """
    _check_trunc_normal(location, scale_sq)
    s = np.sqrt(scale_sq)
    u = rng.random(1 if size is None else int(size))
    draws = location - s * ndtri_exp(np.log1p(-u) + log_ndtr(location / s))
    # guard against round-off landing exactly on the bound (u = 0 maps onto it)
    np.maximum(draws, np.nextafter(0.0, np.inf), out=draws)
    if size is None:
        return float(draws[0])
    return draws


def orthonormalize_interaction(raw_gamma: np.ndarray, raw_delta: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Turn raw factor matrices into identifiable bilinear factors.

    Columns are centered, made orthonormal by modified Gram-Schmidt, and
    sign-fixed by `fix_signs`.
    """
    gamma = np.array(raw_gamma, dtype=float, copy=True)
    delta = np.array(raw_delta, dtype=float, copy=True)
    if gamma.ndim != 2 or delta.ndim != 2 or gamma.shape[1] != delta.shape[1]:
        raise ValueError("raw_gamma and raw_delta must be 2-d with equal column counts")
    q = gamma.shape[1]
    if gamma.shape[0] <= q or delta.shape[0] <= q:
        raise DegenerateInputError("need more rows than columns to center and orthonormalize")

    for mat, name in ((gamma, "gamma"), (delta, "delta")):
        mat -= mat.mean(axis=0, keepdims=True)
        for k in range(q):
            for prev in range(k):
                mat[:, k] -= (mat[:, prev] @ mat[:, k]) * mat[:, prev]
            nrm = np.linalg.norm(mat[:, k])
            if nrm < 1e-12 * np.sqrt(mat.shape[0]):
                raise DegenerateInputError(
                    f"{name} column {k} is rank deficient after centering")
            mat[:, k] /= nrm
    return fix_signs(gamma, delta)


def fix_signs(gamma: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign convention of the identifiable bilinear factors, applied in place.

    Each gamma column whose first entry with |x| > 1e-12 is negative is
    negated together with its paired delta column, so the bilinear
    product is unchanged; a column with no such entry is left as it is.
    """
    for q in range(gamma.shape[1]):
        lead = np.flatnonzero(np.abs(gamma[:, q]) > 1e-12)
        if lead.size and gamma[lead[0], q] < 0:
            gamma[:, q] *= -1.0
            delta[:, q] *= -1.0
    return gamma, delta


def centered_svd(mat: np.ndarray, Q: int):
    """Top-Q SVD of a doubly centered matrix.

    Returns all singular values in decreasing order, and the leading Q left
    and right singular vectors as sign-fixed gamma (I x Q) and delta (J x Q)
    factors.
    """
    row = mat.mean(axis=1)
    col = mat.mean(axis=0)
    grand = mat.mean()
    U, svals, Vt = np.linalg.svd(mat - row[:, None] - col[None, :] + grand,
                                 full_matrices=False)
    gamma, delta = fix_signs(U[:, :Q].copy(), Vt[:Q].T.copy())
    return svals, gamma, delta


def gelman_rubin(draws):
    """Split-chain potential scale reduction factor R-hat of each entry of the draws.

    `draws` is (n_chains, n_iter, ...): one R-hat per trailing entry, an
    array of the trailing shape, or a float for 2-d draws. Each chain is
    halved, so m = 2 * n_chains sequences enter the within/between variance
    comparison.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim < 2:
        raise ValueError("draws must be a 2-d or higher array (chains x iterations x ...)")
    n_chains, n_iter = draws.shape[:2]
    if n_chains < 2:
        raise ValueError("need at least 2 chains")
    if n_iter < 4:
        raise ValueError("need at least 4 iterations to split")
    half = n_iter // 2
    # one half-chain at a time is copied, with its iterations as the last,
    # contiguous axis: numpy then sums each entry's draws pairwise, as it does
    # a 1-d chain, so every entry's R-hat is bitwise the one its own 2-d draws give
    seqs = (np.moveaxis(draws[c, start:start + half], 0, -1).copy()
            for start in (0, half) for c in range(n_chains))
    moments = [(s.mean(axis=-1), s.var(axis=-1, ddof=1)) for s in seqs]
    means, within = (np.stack(m, axis=-1) for m in zip(*moments))
    w = within.mean(axis=-1)
    if np.any(w <= 0):
        raise ValueError("constant chains: within-chain variance is zero")
    b = half * means.var(axis=-1, ddof=1)
    var_plus = (half - 1) / half * w + b / half
    rhat = np.sqrt(var_plus / w)
    return float(rhat) if draws.ndim == 2 else rhat
