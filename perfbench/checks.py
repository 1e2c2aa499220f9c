"""Output checks for the benchmark operations.

Each check raises CheckError on a bad output; the benchmark counts the
operation as failed. The tolerances are the ones the library promises
(criterion 1 for the ELBO, round-off for the identifiability constraints)
and must not be loosened to hide a defect.
"""

from __future__ import annotations

import csv
import math

import numpy as np

ELBO_RTOL = 1e-8          # criterion 1: allowed relative ELBO decrease per sweep
IDENT_TOL = 1e-8          # sum-zero, centring and orthonormality round-off
RHAT_MAX = 1.1


class CheckError(AssertionError):
    """An operation produced an output that violates its contract."""


def check_elbo(trace) -> None:
    """Finite and non-decreasing at criterion 1's relative tolerance."""
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 1 or trace.size < 2:
        raise CheckError("ELBO trace must hold the initial value and at least one sweep")
    if not np.all(np.isfinite(trace)):
        raise CheckError("ELBO trace has non-finite values")
    drops = np.diff(trace) < -ELBO_RTOL * np.abs(trace[:-1])
    if drops.any():
        sweep = int(np.argmax(drops)) + 1
        raise CheckError(f"ELBO decreased at sweep {sweep}: "
                         f"{trace[sweep - 1]!r} -> {trace[sweep]!r}")


def _check_factor(mat: np.ndarray, name: str) -> None:
    """Centred columns with an identity Gram matrix, over leading batch axes."""
    n, q = mat.shape[-2:]
    colsum = np.abs(mat.sum(axis=-2)).max(initial=0.0)
    if colsum > IDENT_TOL * math.sqrt(n):
        raise CheckError(f"{name} columns are not centred (max |sum| {colsum:.3g})")
    gram = np.einsum("...iq,...ir->...qr", mat, mat)
    err = np.abs(gram - np.eye(q)).max(initial=0.0)
    if err > IDENT_TOL:
        raise CheckError(f"{name} columns are not orthonormal (max error {err:.3g})")


def check_identifiable(mu, g, e, lam, gamma, delta) -> None:
    """Sum-zero main effects, centred orthonormal factors, ordered lambda >= 0.

    Arrays may carry leading batch axes (e.g. chain and iteration of
    posterior draws); the constraints are checked on every entry.
    """
    arrays = (np.asarray(mu, dtype=float), np.asarray(g, dtype=float),
              np.asarray(e, dtype=float), np.asarray(lam, dtype=float),
              np.asarray(gamma, dtype=float), np.asarray(delta, dtype=float))
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise CheckError("parameter point has non-finite values")
    _, g, e, lam, gamma, delta = arrays
    for vec, name in ((g, "g"), (e, "e")):
        scale = 1.0 + np.abs(vec).sum(axis=-1)
        if np.any(np.abs(vec.sum(axis=-1)) > IDENT_TOL * scale):
            raise CheckError(f"{name} does not sum to zero")
    if np.any(lam < 0):
        raise CheckError("lambda has a negative entry")
    if np.any(np.diff(lam, axis=-1) > IDENT_TOL * (1.0 + lam[..., :-1])):
        raise CheckError("lambda is not non-increasing")
    _check_factor(gamma, "gamma")
    _check_factor(delta, "delta")


def theta_csv_defect(path, theta, load):
    """Why the written theta CSV does not read back to `theta`, or None.

    Reported as a known defect rather than counted as a failed operation:
    the checks counted in the error rate are the ones above and below.
    """
    try:
        loaded = load(path)
    except ValueError as exc:
        return f"theta CSV does not load back ({type(exc).__name__}: {exc})"
    for name in ("mu", "g", "e", "lam", "gamma", "delta", "sigma2"):
        if not np.array_equal(np.asarray(getattr(loaded, name)),
                              np.asarray(getattr(theta, name))):
            return f"theta CSV does not round-trip {name}"
    return None


def check_quantiles(q05, q50, q95, shape: tuple) -> None:
    """Quantile arrays of the given shape, finite and ordered q05 <= q50 <= q95."""
    grids = [np.asarray(q, dtype=float) for q in (q05, q50, q95)]
    for tag, grid in zip(("q05", "q50", "q95"), grids):
        if grid.shape != tuple(shape):
            raise CheckError(f"{tag} has shape {grid.shape}, expected {tuple(shape)}")
        if not np.all(np.isfinite(grid)):
            raise CheckError(f"{tag} has non-finite values")
    if np.any(grids[0] > grids[1]) or np.any(grids[1] > grids[2]):
        raise CheckError("quantiles are not ordered q05 <= q50 <= q95")


def check_heatmap_csv(path, row_labels, col_labels) -> np.ndarray:
    """A heatmap CSV with a label header and I rows of J numeric cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    if not records or records[0] != ["genotype", *col_labels]:
        raise CheckError(f"{path}: header is not genotype plus {len(col_labels)} "
                         "environment labels")
    body = records[1:]
    if len(body) != len(row_labels):
        raise CheckError(f"{path}: {len(body)} rows, expected {len(row_labels)}")
    values = []
    for label, record in zip(row_labels, body):
        if len(record) != len(col_labels) + 1 or record[0] != label:
            raise CheckError(f"{path}: row {label} does not have "
                             f"{len(col_labels)} cells")
        try:
            values.append([float(v) for v in record[1:]])
        except ValueError:
            raise CheckError(f"{path}: row {label} has a non-numeric cell") from None
    grid = np.array(values, dtype=float).reshape(len(row_labels), len(col_labels))
    if not np.all(np.isfinite(grid)):
        raise CheckError(f"{path}: non-finite cell")
    return grid


def check_rhat(rhat: dict) -> float:
    """Largest split R-hat over all reported scalars; must be <= RHAT_MAX."""
    values = np.concatenate([np.atleast_1d(np.asarray(v, dtype=float))
                             for v in rhat.values()])
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise CheckError("R-hat table is empty or non-finite")
    worst = float(values.max())
    if worst > RHAT_MAX:
        raise CheckError(f"R-hat {worst:.4f} exceeds {RHAT_MAX}")
    return worst


def check_rmse(value: float, bound: float, what: str) -> None:
    if not math.isfinite(value) or value > bound:
        raise CheckError(f"{what} cell RMSE {value:.4f} exceeds its bound {bound}")


def check_csv_rows(path, header, n_rows: int) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    if not records or records[0] != list(header):
        raise CheckError(f"{path}: unexpected header")
    if len(records) - 1 != n_rows:
        raise CheckError(f"{path}: {len(records) - 1} rows, expected {n_rows}")
