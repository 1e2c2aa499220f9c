"""Shared fixtures and random-object builders for the test suite."""

import numpy as np
import pytest
from scipy.integrate import quad

from ammivi.model import Dataset, Hyperparams, ThetaPoint

# one line per acceptance criterion, filled by tests/test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def complete_dataset(y_matrix) -> Dataset:
    """Dataset covering every cell of a small matrix."""
    y = np.asarray(y_matrix, dtype=float)
    I, J = y.shape
    rows, cols = np.indices((I, J))
    return Dataset(
        rows=rows.ravel(), cols=cols.ravel(), y=y.ravel(),
        n_genotypes=I, n_environments=J,
        genotype_labels=tuple(f"g{i + 1}" for i in range(I)),
        environment_labels=tuple(f"e{j + 1}" for j in range(J)))


def random_dataset(rng, I, J, missing=0.0) -> Dataset:
    y = rng.normal(50.0, 5.0, (I, J))
    keep = np.ones((I, J), dtype=bool)
    if missing > 0:
        n_drop = int(round(missing * I * J))
        while True:
            keep[:] = True
            flat = rng.choice(I * J, size=n_drop, replace=False)
            keep.ravel()[flat] = False
            if keep.any(axis=1).all() and keep.any(axis=0).all():
                break
    rows, cols = np.nonzero(keep)
    return Dataset(
        rows=rows, cols=cols, y=y[rows, cols], n_genotypes=I, n_environments=J,
        genotype_labels=tuple(f"g{i + 1}" for i in range(I)),
        environment_labels=tuple(f"e{j + 1}" for j in range(J)))


def random_theta(rng, I, J, Q) -> ThetaPoint:
    lam = np.sort(np.abs(rng.normal(5.0, 3.0, Q)))[::-1] + 0.5
    return ThetaPoint(
        mu=float(rng.normal(50.0, 5.0)),
        g=rng.normal(0.0, 2.0, I), e=rng.normal(0.0, 2.0, J),
        lam=lam, gamma=rng.standard_normal((I, Q)),
        delta=rng.standard_normal((J, Q)),
        sigma2=float(rng.uniform(0.5, 2.0)))


def quad_moments(location, scale_sq):
    """Adaptive-quadrature oracle for the positive-truncated normal.

    Works in standardized units u = (x - lower)/s - alpha shifted so the
    integrand is O(1) for any truncation point, avoiding underflow.
    """
    s = np.sqrt(scale_sq)
    alpha = -location / s
    # X = location + s*(alpha + U) with U >= 0, density prop. to
    # exp(-alpha*u - u^2/2) * exp(peak) where the constant cancels in ratios
    peak = 0.5 * alpha * alpha if alpha < 0 else 0.0

    def w(u):
        return np.exp(-alpha * u - 0.5 * u * u - peak)

    kw = dict(limit=400)
    n0 = quad(w, 0.0, np.inf, **kw)[0]
    n1 = quad(lambda u: u * w(u), 0.0, np.inf, **kw)[0]
    n2 = quad(lambda u: u * u * w(u), 0.0, np.inf, **kw)[0]
    t_mean = alpha + n1 / n0
    t_var = n2 / n0 - (n1 / n0) ** 2
    return location + s * t_mean, scale_sq * t_var


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def hyper():
    return Hyperparams(mu_mu=50.0)
