"""Synthetic genotype-by-environment data generation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .freqfit import observed_grid
from .model import Dataset, ThetaPoint, ValidationError, mean_matrix
from .statsmath import DegenerateInputError, orthonormalize_interaction


@dataclass(frozen=True)
class SimScenario:
    I: int
    J: int
    Q: int
    lambda_true: tuple[float, ...]
    sigma2_g: float = 10.0
    sigma2_e: float = 10.0
    sigma2_y: float = 1.0
    mu_mean: float = 90.0
    mu_sd: float = np.sqrt(10.0)
    seed: int = 0
    missing_fraction: float = 0.0
    name: str = ""

    def __post_init__(self):
        lam = tuple(float(v) for v in np.atleast_1d(self.lambda_true))
        object.__setattr__(self, "lambda_true", lam)
        if len(lam) != self.Q:
            raise ValueError("lambda_true must have length Q")
        if any(v < 0 for v in lam) or list(lam) != sorted(lam, reverse=True):
            raise ValueError("lambda_true must be non-increasing and >= 0")
        if not 0 <= self.missing_fraction < 1:
            raise ValueError("missing_fraction must be in [0, 1)")
        if self.I <= self.Q or self.J <= self.Q:
            raise ValueError("need I > Q and J > Q")


def _default_labels(prefix, count):
    return [f"{prefix}{k + 1}" for k in range(count)]


def simulate(s: SimScenario) -> tuple[Dataset, ThetaPoint]:
    """Generate one dataset plus the ground-truth parameter point.

    Main effects are drawn from their priors and then centered so the
    truth satisfies the sum-to-zero constraint exactly; the bilinear
    factors are orthonormalized raw standard-normal matrices.
    """
    rng = np.random.default_rng(s.seed)
    mu = float(rng.normal(s.mu_mean, s.mu_sd))
    g = rng.normal(0.0, np.sqrt(s.sigma2_g), s.I)
    g -= g.mean()
    e = rng.normal(0.0, np.sqrt(s.sigma2_e), s.J)
    e -= e.mean()

    if s.Q > 0:
        gamma, delta = orthonormalize_interaction(
            rng.standard_normal((s.I, s.Q)), rng.standard_normal((s.J, s.Q)))
    else:
        gamma = np.zeros((s.I, 0))
        delta = np.zeros((s.J, 0))
    lam = np.array(s.lambda_true, dtype=float)

    truth = ThetaPoint(mu=mu, g=g, e=e, lam=lam, gamma=gamma, delta=delta,
                       sigma2=s.sigma2_y)
    y = mean_matrix(truth) + rng.normal(0.0, np.sqrt(s.sigma2_y), (s.I, s.J))

    return _observe(rng, s, y), truth


def _observe(rng: np.random.Generator, s: SimScenario, y: np.ndarray) -> Dataset:
    """The cells of y kept by a random missing pattern that leaves a connected table.

    A connected table has every row and column nonempty, so the fitters can
    fit it; a pattern that is not is redrawn.
    """
    n_cells = s.I * s.J
    n_drop = int(round(s.missing_fraction * n_cells))
    if n_cells - n_drop < s.I + s.J - 1:
        raise ValueError("missing_fraction too high to leave a connected table")
    for _ in range(200):
        keep = np.ones(n_cells, dtype=bool)
        keep[rng.choice(n_cells, size=n_drop, replace=False)] = False
        rows, cols = np.divmod(np.flatnonzero(keep), s.J)
        try:
            dataset = Dataset(
                rows=rows, cols=cols, y=y[rows, cols],
                n_genotypes=s.I, n_environments=s.J,
                genotype_labels=tuple(_default_labels("g", s.I)),
                environment_labels=tuple(_default_labels("e", s.J)))
            observed_grid(dataset)
            return dataset
        except (ValidationError, DegenerateInputError):
            continue
    raise ValueError("could not find a missing pattern leaving a connected table")


def scenario_grid() -> list[SimScenario]:
    """Named simulation scenarios used by the study and benchmark commands.

    Covers the initialization-study setting, the recovery settings at
    lambda in {~0, 12, 20, 25, 40}, and the two benchmark size groups
    (n in {100, 250, 500, 1000} and {5000, 10000, 15000, 20000}).
    """
    scenarios = [
        SimScenario(I=25, J=12, Q=1, lambda_true=(12.0,), seed=101,
                    name="init-study"),
        SimScenario(I=25, J=12, Q=1, lambda_true=(1e-6,), seed=102,
                    name="recovery-lambda0"),
        SimScenario(I=25, J=12, Q=1, lambda_true=(12.0,), seed=103,
                    name="recovery-lambda12"),
        SimScenario(I=25, J=12, Q=1, lambda_true=(20.0,), seed=104,
                    name="recovery-lambda20"),
        SimScenario(I=25, J=12, Q=1, lambda_true=(25.0,), seed=105,
                    name="recovery-lambda25"),
        SimScenario(I=25, J=12, Q=1, lambda_true=(40.0,), seed=106,
                    name="recovery-lambda40"),
        SimScenario(I=25, J=12, Q=2, lambda_true=(25.0, 12.0), seed=107,
                    name="recovery-q2"),
    ]
    small = [(10, 10, 100), (25, 10, 250), (25, 20, 500), (50, 20, 1000)]
    large = [(100, 50, 5000), (100, 100, 10000), (150, 100, 15000), (200, 100, 20000)]
    for group, sizes in (("small", small), ("large", large)):
        for I, J, n in sizes:
            for q, lam in ((1, (20.0,)), (2, (25.0, 12.0))):
                scenarios.append(SimScenario(
                    I=I, J=J, Q=q, lambda_true=lam, seed=1000 + n + q,
                    name=f"bench-{group}-n{n}-q{q}"))
    return scenarios


def scenario_by_name(name: str) -> SimScenario:
    """The named scenario of scenario_grid(); ValueError listing the names if unknown."""
    grid = scenario_grid()
    for s in grid:
        if s.name == name:
            return s
    raise ValueError(f"unknown scenario {name!r}; known: {', '.join(s.name for s in grid)}")


def with_seed(s: SimScenario, seed: int) -> SimScenario:
    return replace(s, seed=seed)
