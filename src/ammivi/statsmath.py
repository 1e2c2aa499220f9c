"""Distributional and linear-algebra primitives for the AMMI pipeline.

Special functions in numpy and `math`, so that the package needs no scipy:
log Phi (`log_ndtr`), its inverse in log space (`ndtri_exp`), `digamma` and
`gammaln`. Truncated-normal moments/sampling, column orthonormalization,
sign convention and centered SVD of the bilinear factor matrices, and the
split-chain Gelman-Rubin diagnostic.

`ndtri_exp` is Wichura's algorithm AS241 (PPND16, Applied Statistics 37(3),
1988) with the tail variable taken from log p, and Newton steps on the
asymptotic series of log Phi where p < 1e-300. It has a scalar path in
`math` and an array path in numpy; both read one coefficient table through
one Horner helper. The array path takes exp, expm1, log and log1p from
`math`, element by element: numpy's SIMD versions differ from the C
library's in the last bit on some hosts, and a draw must not depend on
whether it was made alone or in a batch.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_TINY = math.nextafter(0.0, math.inf)

# Above this standardized truncation point the direct variance formula
# 1 + a*h - h^2 loses too many digits; switch to the Mills-ratio
# asymptotic series in u = 1/a^2.
_TAIL_SWITCH = 25.0

# Coefficients of polynomials, highest power first, for `_horner`.
# log Phi(x) = -x^2/2 - log(-x) - log sqrt(2 pi) + log S(1/x^2) as x -> -inf, with
# S(u) = sum_k (-1)^k (2k-1)!! u^k; 11 terms reach double precision for x <= -20
_MILLS_SERIES = tuple((-1) ** k * math.prod(range(1, 2 * k, 2)) for k in range(10, -1, -1))
# digamma(x) = log x - 1/(2x) - sum_k B_2k / (2k) u^k with u = 1/x^2, for x >= _DIGAMMA_SWITCH
_DIGAMMA_SERIES = (-3617.0 / 8160.0, 1.0 / 12.0, -691.0 / 32760.0, 1.0 / 132.0,
                   -1.0 / 240.0, 1.0 / 252.0, -1.0 / 120.0, 1.0 / 12.0, 0.0)
_DIGAMMA_SWITCH = 10.0
# AS241: central region |p - 1/2| <= 0.425 (numerator, denominator), then the
# tails in r = sqrt(-log min(p, 1 - p)): r <= 5, and r > 5
_AS241 = {
    "central": ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
                 4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
                 1.3314166789178437745e+2, 3.3871328727963666080e+0),
                (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
                 2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
                 4.2313330701600911252e+1, 1.0)),
    "near": ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
              1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
              4.63033784615654529590e+0, 1.42343711074968357734e+0),
             (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
              1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
              2.05319162663775882187e+0, 1.0)),
    "far": ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
             2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
             5.46378491116411436990e+0, 6.65790464350110377720e+0),
            (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
             7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
             5.99832206555887937690e-1, 1.0)),
}
# below this log tail probability (p < 1e-300) AS241 is left for Newton steps
_NEWTON_BELOW = -690.0
_NEWTON_STEPS = 4


class DegenerateInputError(ValueError):
    """Raised when an input is rank deficient or otherwise degenerate."""


def _horner(coeffs, x):
    """The polynomial with `coeffs` (highest power first) at a float or an array."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _rational(region: str, x):
    num, den = _AS241[region]
    return _horner(num, x) / _horner(den, x)


def _each(fn, x: np.ndarray) -> np.ndarray:
    """The float function `fn` of every element of the 1-d array `x`."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


# log |Gamma(x)|
gammaln = math.lgamma


def digamma(x: float) -> float:
    """d/dx log Gamma(x) for x > 0: recurrence up to x >= 10, then the asymptotic series."""
    shift = 0.0
    while x < _DIGAMMA_SWITCH:
        shift -= 1.0 / x
        x += 1.0
    return shift + math.log(x) - 0.5 / x - _horner(_DIGAMMA_SERIES, 1.0 / (x * x))


def _log_mills_tail(x: float) -> float:
    """log Phi(x) for x <= -20 by the asymptotic series."""
    return (-0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI
            + math.log(_horner(_MILLS_SERIES, 1.0 / (x * x))))


def log_ndtr(x: float) -> float:
    """log Phi(x), the log of the standard normal CDF, accurate in both tails."""
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x * _SQRT_HALF))
    if x > -20.0:
        return math.log(0.5 * math.erfc(-x * _SQRT_HALF))
    return _log_mills_tail(x)


def _tail_scalar(log_p: float) -> float:
    """The z > 0 with log Phi(-z) = log_p, for log_p < log(0.075)."""
    if log_p < _NEWTON_BELOW:
        z = -math.sqrt(-2.0 * log_p)
        for _ in range(_NEWTON_STEPS):
            # Newton on log Phi(z) = log_p: d/dz log Phi(z) = -z / S(1/z^2),
            # S the series that `_log_mills_tail` sums
            z += (_log_mills_tail(z) - log_p) * _horner(_MILLS_SERIES, 1.0 / (z * z)) / z
        return -z
    r = math.sqrt(-log_p)
    if r <= 5.0:
        return _rational("near", r - 1.6)
    return _rational("far", r - 5.0)


def _tail_array(log_p: np.ndarray) -> np.ndarray:
    """`_tail_scalar` of every element; the rare Newton tail element by element."""
    out = np.empty_like(log_p)
    r = np.sqrt(-log_p)
    near = r <= 5.0
    out[near] = _rational("near", r[near] - 1.6)
    far = ~near & (log_p >= _NEWTON_BELOW)
    out[far] = _rational("far", r[far] - 5.0)
    deep = log_p < _NEWTON_BELOW
    out[deep] = _each(_tail_scalar, log_p[deep])
    return out


def _ndtri_exp_scalar(y: float) -> float:
    q = math.exp(y) - 0.5
    if abs(q) <= 0.425:
        return q * _rational("central", 0.180625 - q * q)
    if q < 0.0:
        return -_tail_scalar(y)
    if y == 0.0:
        return math.inf
    return _tail_scalar(math.log(-math.expm1(y)))


def _ndtri_exp_array(y: np.ndarray) -> np.ndarray:
    """`_ndtri_exp_scalar` of every element of the 1-d array `y`."""
    q = _each(math.exp, y) - 0.5
    z = np.full_like(y, np.nan)
    central = np.abs(q) <= 0.425
    qc = q[central]
    z[central] = qc * _rational("central", 0.180625 - qc * qc)
    lower = q < -0.425
    z[lower] = -_tail_array(y[lower])
    z[y == 0.0] = math.inf
    upper = (q > 0.425) & (y < 0.0)
    z[upper] = _tail_array(_each(math.log, -_each(math.expm1, y[upper])))
    return z


def ndtri_exp(y):
    """The z with log Phi(z) = y, for y <= 0: a float, or an array of each element's z.

    Both paths give the same bits for the same y.
    """
    if np.ndim(y) == 0:
        return _ndtri_exp_scalar(float(y))
    y = np.asarray(y, dtype=float)
    return _ndtri_exp_array(y.ravel()).reshape(y.shape)


def _hazard(alpha: float) -> float:
    """phi(alpha) / (1 - Phi(alpha)), stable for large alpha via log Phi."""
    return math.exp(-0.5 * alpha * alpha - _LOG_SQRT_2PI - log_ndtr(-alpha))


def _check_trunc_normal(location: float, scale_sq: float) -> None:
    if not (math.isfinite(location) and math.isfinite(scale_sq)):
        raise ValueError("truncated-normal parameters must be finite")
    if scale_sq <= 0:
        raise ValueError(f"scale_sq must be > 0, got {scale_sq}")


def trunc_normal_moments(location: float, scale_sq: float) -> tuple[float, float]:
    """Mean and variance of N(location, scale_sq) truncated to x > 0.

    `location` and `scale_sq` are the mean and variance of the parent
    (untruncated) normal, not of the truncated law.
    """
    location, scale_sq = float(location), float(scale_sq)
    _check_trunc_normal(location, scale_sq)
    s = math.sqrt(scale_sq)
    alpha = -location / s
    if alpha <= _TAIL_SWITCH:
        h = _hazard(alpha)
        return location + s * h, scale_sq * (1.0 + alpha * h - h * h)
    # deep right tail: h ~ a(1 + u - 2u^2 + 10u^3), Var/s^2 ~ u - 6u^2 + 50u^3
    u = 1.0 / (alpha * alpha)
    h = alpha * (1.0 + u * (1.0 - u * (2.0 - 10.0 * u)))
    return location + s * h, scale_sq * u * (1.0 - u * (6.0 - 50.0 * u))


def sample_trunc_normal(rng: np.random.Generator, location: float, scale_sq: float,
                        size: int | None = None):
    """Draw from N(location, scale_sq) truncated to x > 0.

    Exact inversion of the upper tail in log space, one uniform u per draw:
    with s = sqrt(scale_sq), the standardized draw z solves
    Phi(-z) = (1 - u) Phi(location / s), which stays accurate at any
    truncation point. With size None the draw is a float made from
    `rng.random()`, the same uniform and the same value as the one
    element of size 1.
    """
    location, scale_sq = float(location), float(scale_sq)
    _check_trunc_normal(location, scale_sq)
    s = math.sqrt(scale_sq)
    log_mass = log_ndtr(location / s)
    # u = 0 maps onto the bound itself; the max keeps every draw inside the support
    if size is None:
        z = _ndtri_exp_scalar(math.log1p(-rng.random()) + log_mass)
        return max(location - s * z, _TINY)
    u = rng.random(int(size))
    draws = location - s * _ndtri_exp_array(_each(math.log1p, -u) + log_mass)
    np.maximum(draws, _TINY, out=draws)
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
