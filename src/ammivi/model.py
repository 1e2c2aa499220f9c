"""Data model for two-way trial data and AMMI parameter points."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .statsmath import fix_signs


class ValidationError(ValueError):
    """Raised when input data violates the dataset contract."""


class DimensionMismatchError(ValueError):
    """Raised when a fit, draw set or starting point disagrees on I, J or Q."""


@dataclass(frozen=True)
class Dataset:
    """Long-format observations over a possibly incomplete I x J grid.

    `rows` / `cols` hold 0-based genotype / environment indices assigned
    by first appearance of the labels.
    """

    rows: np.ndarray
    cols: np.ndarray
    y: np.ndarray
    n_genotypes: int
    n_environments: int
    genotype_labels: tuple[str, ...]
    environment_labels: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "y", y)
        if not (rows.shape == cols.shape == y.shape) or rows.ndim != 1:
            raise ValidationError("rows, cols and y must be equal-length 1-d arrays")
        if rows.size == 0:
            raise ValidationError("dataset is empty")
        if not np.all(np.isfinite(y)):
            raise ValidationError("non-finite response values")
        if rows.min() < 0 or rows.max() >= self.n_genotypes:
            raise ValidationError("genotype index out of range")
        if cols.min() < 0 or cols.max() >= self.n_environments:
            raise ValidationError("environment index out of range")
        keys = self.cells
        if np.unique(keys).size != keys.size:
            dup = int(np.argmax(np.bincount(keys) > 1))
            raise ValidationError(
                f"duplicate cell (genotype={dup // self.n_environments + 1}, "
                f"environment={dup % self.n_environments + 1})")
        if np.unique(rows).size != self.n_genotypes:
            raise ValidationError("some genotype has no observations")
        if np.unique(cols).size != self.n_environments:
            raise ValidationError("some environment has no observations")

    @property
    def n_obs(self) -> int:
        return self.y.size

    @cached_property
    def cells(self) -> np.ndarray:
        """Flat index `row * n_environments + col` of each observation in an I x J grid."""
        return self.rows * self.n_environments + self.cols


@dataclass(frozen=True)
class Hyperparams:
    """Prior hyperparameters of the Bayesian AMMI model."""

    mu_mu: float = 0.0
    sigma2_mu: float = 1e6
    sigma2_g: float = 100.0
    sigma2_e: float = 100.0
    sigma2_lambda: float = 100.0
    a: float = 0.1
    b: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("sigma2_mu", "sigma2_g", "sigma2_e", "sigma2_lambda", "a", "b"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


def default_hyperparams(dataset: Dataset) -> Hyperparams:
    """Weakly informative defaults, with the grand-mean prior centered on the data."""
    return Hyperparams(mu_mu=float(dataset.y.mean()))


@dataclass(frozen=True)
class ThetaPoint:
    """One concrete parameter assignment of the AMMI model."""

    mu: float
    g: np.ndarray
    e: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    sigma2: float

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        e = np.asarray(self.e, dtype=float)
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        q = lam.size
        gamma = np.asarray(self.gamma, dtype=float).reshape(g.size, q)
        delta = np.asarray(self.delta, dtype=float).reshape(e.size, q)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")

    @property
    def n_components(self) -> int:
        return self.lam.size


# the blocks of a parameter point, in the order every parameter table lists them
THETA_FIELDS = tuple(f.name for f in fields(ThetaPoint))
# parameter-table names that differ from the ThetaPoint field name
PARAM_NAMES = {"lam": "lambda"}


@dataclass(frozen=True)
class ModelConfig:
    """Fit configuration shared by the VI and Gibbs fitters."""

    Q: int
    hyper: Hyperparams = field(default_factory=Hyperparams)
    max_iter: int = 1000
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.Q not in (0, 1, 2):
            raise ValueError("Q must be 0, 1 or 2")
        if not np.isfinite(self.tol) or self.tol <= 0:
            raise ValueError("tol must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def mean_matrix(theta: ThetaPoint) -> np.ndarray:
    """All cell means as an I x J matrix."""
    out = theta.mu + theta.g[:, None] + theta.e[None, :]
    if theta.n_components:
        out = out + (theta.gamma * theta.lam) @ theta.delta.T
    return out


def post_process(theta: ThetaPoint) -> ThetaPoint:
    """Map a parameter point to its identifiable representative.

    Row/column means of the bilinear matrix are absorbed into the main
    effects and grand mean, the doubly centered remainder is re-expressed
    through its SVD with ordered singular values, and gamma columns are
    sign-fixed by `statsmath.fix_signs`. Cell means are unchanged.

    The bilinear matrix is L R^T with L = gamma * lam and R = delta, so its
    means come from the factor means and its doubly centered remainder is
    (L - mean L)(R - mean R)^T. That product's SVD is read from thin SVDs
    of the two centered factors and the SVD of the Q x Q matrix between
    their left singular vectors; the I x J matrix is never formed.
    """
    g, e = theta.g.copy(), theta.e.copy()
    mu = theta.mu
    lam, gamma, delta = theta.lam, theta.gamma, theta.delta
    if theta.n_components:
        left = theta.gamma * theta.lam
        left_mean, right_mean = left.mean(axis=0), theta.delta.mean(axis=0)
        grand = float(left_mean @ right_mean)
        mu += grand
        g += left @ right_mean - grand
        e += theta.delta @ left_mean - grand
        basis_l, s_l, rot_l = np.linalg.svd(left - left_mean, full_matrices=False)
        basis_r, s_r, rot_r = np.linalg.svd(theta.delta - right_mean, full_matrices=False)
        u, lam, vt = np.linalg.svd((s_l[:, None] * rot_l) @ (s_r[:, None] * rot_r).T)
        gamma, delta = fix_signs(basis_l @ u, basis_r @ vt.T)
    gm, em = g.mean(), e.mean()
    return ThetaPoint(mu=mu + gm + em, g=g - gm, e=e - em,
                      lam=lam, gamma=gamma, delta=delta, sigma2=theta.sigma2)


def cell_counts(dataset: Dataset) -> tuple[int, np.ndarray, np.ndarray]:
    """Observed-cell counts: total, per genotype row, per environment column."""
    n_rows = np.bincount(dataset.rows, minlength=dataset.n_genotypes)
    n_cols = np.bincount(dataset.cols, minlength=dataset.n_environments)
    return dataset.n_obs, n_rows, n_cols


CSV_HEADER = ["genotype", "environment", "yield"]


def dataset_from_labels(genotypes, environments, values) -> Dataset:
    """Build a Dataset assigning indices by first appearance of each label."""
    g_index: dict[str, int] = {}
    e_index: dict[str, int] = {}
    rows, cols = [], []
    for gl, el in zip(genotypes, environments):
        rows.append(g_index.setdefault(str(gl), len(g_index)))
        cols.append(e_index.setdefault(str(el), len(e_index)))
    return Dataset(
        rows=np.array(rows), cols=np.array(cols), y=np.asarray(values, dtype=float),
        n_genotypes=len(g_index), n_environments=len(e_index),
        genotype_labels=tuple(g_index), environment_labels=tuple(e_index))


def load_csv(path) -> Dataset:
    """Read a long-format trial CSV with header genotype,environment,yield."""
    genotypes, environments, values = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if [h.strip() for h in header] != CSV_HEADER:
            raise ValidationError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 3:
                raise ValidationError(f"{path}:{lineno}: expected 3 fields")
            try:
                val = float(record[2])
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: non-numeric yield {record[2]!r}") from None
            genotypes.append(record[0])
            environments.append(record[1])
            values.append(val)
    if not values:
        raise ValidationError(f"{path}: no observations")
    return dataset_from_labels(genotypes, environments, values)


THETA_HEADER = ["parameter", "index1", "index2", "value"]


def write_rows(path, header, rows) -> None:
    """Write a CSV file; float cells are written as repr(float(v)), which reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def param_rows(blocks):
    """Parameter-table rows (name, index1, index2, *values).

    `blocks` yields (field, *arrays). Each entry of the first array (at most
    2-d) gives one row, in np.ndindex order, with 1-based indices, '' for an
    absent index, the name mapped through PARAM_NAMES and each array indexed
    at the entry's index.
    """
    for name, *arrays in blocks:
        arrays = [np.asarray(a) for a in arrays]
        for idx in np.ndindex(arrays[0].shape):
            index = [k + 1 for k in idx] + ["", ""]
            yield (PARAM_NAMES.get(name, name), *index[:2], *(a[idx] for a in arrays))


def write_theta_csv(theta: ThetaPoint, path) -> None:
    """Parameter table of one parameter point."""
    write_rows(path, THETA_HEADER,
               param_rows((name, getattr(theta, name)) for name in THETA_FIELDS))


def load_theta_csv(path) -> ThetaPoint:
    """Read a parameter table written by write_theta_csv.

    Raises ValidationError unless every entry of every block is given exactly
    once, as a finite number, at 1-based indices whose count and range fit
    the I, J and Q set by the g, e and lambda rows.
    """
    fields_by_name = {PARAM_NAMES.get(f, f): f for f in THETA_FIELDS}
    entries: dict[str, dict] = {f: {} for f in THETA_FIELDS}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != THETA_HEADER:
            raise ValidationError(f"{path}: expected header {','.join(THETA_HEADER)}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 4 or record[0] not in fields_by_name or (
                    record[2] and not record[1]):
                raise ValidationError(f"{path}:{lineno}: malformed row {','.join(record)}")
            name, *indices, val = record
            try:
                key = tuple(int(k) - 1 for k in indices if k)
                val = float(val)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric index or value") from None
            block = entries[fields_by_name[name]]
            for failed, problem in ((min(key, default=0) < 0, "index below 1"),
                                    (not np.isfinite(val), "non-finite value"),
                                    (key in block, "repeated entry")):
                if failed:
                    raise ValidationError(f"{path}:{lineno}: {problem} {','.join(record)}")
            block[key] = val

    I, J, Q = (1 + max((k[0] for k in entries[f] if k), default=-1) for f in ("g", "e", "lam"))
    shapes = {"mu": (), "g": (I,), "e": (J,), "lam": (Q,), "gamma": (I, Q),
              "delta": (J, Q), "sigma2": ()}
    blocks = {}
    for f, shape in shapes.items():
        if entries[f].keys() != set(np.ndindex(shape)):
            raise ValidationError(f"{path}: {PARAM_NAMES.get(f, f)} entries do not fill "
                                  f"shape {shape} (I={I}, J={J}, Q={Q})")
        values = [entries[f][k] for k in np.ndindex(shape)]
        blocks[f] = np.reshape(values, shape) if shape else values[0]
    return ThetaPoint(**blocks)


def write_csv(dataset: Dataset, path) -> None:
    write_rows(path, CSV_HEADER,
               ((dataset.genotype_labels[i], dataset.environment_labels[j], val)
                for i, j, val in zip(dataset.rows, dataset.cols, dataset.y)))
