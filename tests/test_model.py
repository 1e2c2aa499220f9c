"""Data model, mean function and CSV round trips."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ammivi
from ammivi import gibbs, vi
from ammivi.freqfit import frequentist_fit
from ammivi.model import (Dataset, DimensionMismatchError, Hyperparams, ModelConfig,
                          ThetaPoint, ValidationError, dataset_from_labels,
                          default_hyperparams, load_csv, load_theta_csv,
                          mean_matrix, param_rows, write_csv,
                          write_theta_csv)
from ammivi.simulate import SimScenario, simulate
from conftest import complete_dataset, random_dataset, random_theta


class TestDatasetValidation:
    def test_duplicate_cell_names_pair(self):
        with pytest.raises(ValidationError, match=r"genotype=2.*environment=1"):
            Dataset(rows=[0, 1, 1], cols=[0, 0, 0], y=[1.0, 2.0, 3.0],
                    n_genotypes=2, n_environments=1,
                    genotype_labels=("a", "b"), environment_labels=("x",))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(rows=[], cols=[], y=[], n_genotypes=0, n_environments=0,
                    genotype_labels=(), environment_labels=())

    def test_unobserved_genotype_rejected(self):
        with pytest.raises(ValidationError, match="genotype has no"):
            Dataset(rows=[0, 0], cols=[0, 1], y=[1.0, 2.0],
                    n_genotypes=2, n_environments=2,
                    genotype_labels=("a", "b"), environment_labels=("x", "y"))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(rows=[0, 1], cols=[0, 0], y=[1.0, np.nan],
                    n_genotypes=2, n_environments=1,
                    genotype_labels=("a", "b"), environment_labels=("x",))

    def test_first_appearance_indexing(self):
        ds = dataset_from_labels(["B", "A", "B"], ["x", "x", "y"], [1.0, 2.0, 3.0])
        assert ds.genotype_labels == ("B", "A")
        assert ds.environment_labels == ("x", "y")
        assert list(ds.rows) == [0, 1, 0]


class TestHyperparams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Hyperparams(sigma2_g=0.0)
        with pytest.raises(ValueError):
            Hyperparams(a=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["mu_mu", "sigma2_mu", "sigma2_g", "sigma2_e",
                                      "sigma2_lambda", "a", "b"])
    def test_finite_required(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Hyperparams(**{name: value})

    def test_defaults_center_on_grand_mean(self):
        ds = complete_dataset([[1.0, 2.0], [3.0, 4.0]])
        h = default_hyperparams(ds)
        assert h.mu_mu == 2.5
        assert h.sigma2_mu == 1e6
        assert h.sigma2_g == h.sigma2_e == h.sigma2_lambda == 100.0
        assert h.a == h.b == 0.1


class TestModelConfig:
    def test_q_range(self, hyper):
        for q in (0, 1, 2):
            ModelConfig(Q=q, hyper=hyper)
        with pytest.raises(ValueError):
            ModelConfig(Q=3, hyper=hyper)
        with pytest.raises(ValueError):
            ModelConfig(Q=1, hyper=hyper, tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_finite_tol_required(self, hyper, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            ModelConfig(Q=1, hyper=hyper, tol=tol)


class TestModelMean:
    def test_additive_only(self):
        theta = ThetaPoint(mu=90.0, g=[1.0], e=[-2.0], lam=np.zeros(0),
                           gamma=np.zeros((1, 0)), delta=np.zeros((1, 0)),
                           sigma2=1.0)
        assert mean_matrix(theta)[0, 0] == 89.0

    def test_single_product(self):
        theta = ThetaPoint(mu=0.0, g=[0.0], e=[0.0], lam=[12.0],
                           gamma=[[0.5]], delta=[[0.2]], sigma2=1.0)
        assert mean_matrix(theta)[0, 0] == pytest.approx(1.2, abs=1e-12)

    def test_matches_dense_matrix_oracle(self, rng):
        theta = random_theta(rng, 6, 5, 2)
        I, J = 6, 5
        # independent dense construction: mu*11' + g1' + 1e' + Gamma Lam Delta'
        oracle = (theta.mu * np.ones((I, J))
                  + np.outer(theta.g, np.ones(J))
                  + np.outer(np.ones(I), theta.e)
                  + theta.gamma @ np.diag(theta.lam) @ theta.delta.T)
        assert np.allclose(mean_matrix(theta), oracle, atol=1e-12)

    @given(st.integers(0, 1), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_joint_sign_flip_invariance(self, q_flip, seed):
        r = np.random.default_rng(seed)
        theta = random_theta(r, 4, 3, 2)
        gamma = theta.gamma.copy()
        delta = theta.delta.copy()
        gamma[:, q_flip] *= -1.0
        delta[:, q_flip] *= -1.0
        flipped = ThetaPoint(mu=theta.mu, g=theta.g, e=theta.e, lam=theta.lam,
                             gamma=gamma, delta=delta, sigma2=theta.sigma2)
        assert np.allclose(mean_matrix(theta), mean_matrix(flipped), atol=1e-12)


class TestCellCounts:
    def test_complete_table(self):
        ds = complete_dataset(np.arange(12.0).reshape(3, 4))
        assert ds.n_obs == 12
        assert list(ds.row_counts) == [4, 4, 4]
        assert list(ds.col_counts) == [3, 3, 3, 3]
        assert ds.observed.all() and ds.observed.shape == (3, 4)

    def test_incomplete_table(self):
        ds = Dataset(rows=[0, 0, 1], cols=[0, 1, 0], y=[1.0, 2.0, 3.0],
                     n_genotypes=2, n_environments=2,
                     genotype_labels=("a", "b"), environment_labels=("x", "y"))
        assert ds.n_obs == 3
        assert list(ds.row_counts) == [2, 1]
        assert list(ds.col_counts) == [2, 1]
        assert ds.observed.tolist() == [[True, True], [True, False]]
        # the cached arrays are shared by every caller, so none may be written to
        for cached in (ds.cells, ds.row_counts, ds.col_counts, ds.observed):
            with pytest.raises(ValueError):
                cached[0] = 0

    def test_sparse_85x17_fixture(self, rng):
        ds = random_dataset(rng, 85, 17, missing=1.0 - 810 / (85 * 17))
        assert ds.n_obs == 810
        assert ds.row_counts.sum() == 810
        assert ds.col_counts.sum() == 810
        assert ds.observed.sum() == 810


class TestCsvRoundTrip:
    def test_dataset_round_trip(self, rng, tmp_path):
        ds = random_dataset(rng, 8, 5, missing=0.2)
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.rows, ds.rows)
        assert np.array_equal(loaded.cols, ds.cols)
        assert np.array_equal(loaded.y, ds.y)
        assert loaded.genotype_labels == ds.genotype_labels

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("genotype,environment,yield\nA,x,1.5\nB,y,2.5\n")
        ds = load_csv(path)
        assert ds.n_genotypes == 2 and ds.n_environments == 2

    def test_duplicate_cell_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("genotype,environment,yield\nA,x,1\nA,x,2\nB,x,2\n")
        with pytest.raises(ValidationError, match="duplicate cell"):
            load_csv(path)

    def test_non_numeric_yield(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("genotype,environment,yield\nA,x,oops\n")
        with pytest.raises(ValidationError, match="non-numeric"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\nA,x,1\n")
        with pytest.raises(ValidationError, match="expected header"):
            load_csv(path)

    def test_param_rows_layout(self):
        rows = param_rows([("mu", 1.5), ("lam", [3.0, 2.0]),
                           ("gamma", [[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])])
        assert list(rows) == [
            ("mu", "", "", 1.5), ("lambda", 1, "", 3.0), ("lambda", 2, "", 2.0),
            ("gamma", 1, 1, 1.0, 5.0), ("gamma", 1, 2, 2.0, 6.0),
            ("gamma", 2, 1, 3.0, 7.0), ("gamma", 2, 2, 4.0, 8.0)]

    def test_theta_round_trip(self, rng, tmp_path):
        theta = random_theta(rng, 4, 3, 2)
        path = tmp_path / "theta.csv"
        write_theta_csv(theta, path)
        loaded = load_theta_csv(path)
        assert loaded.mu == theta.mu
        assert np.array_equal(loaded.g, theta.g)
        assert np.array_equal(loaded.gamma, theta.gamma)
        assert loaded.sigma2 == theta.sigma2

    def test_theta_round_trip_exact_for_fitted_points(self, tmp_path):
        ds, _ = simulate(SimScenario(I=8, J=6, Q=2, lambda_true=(12.0, 6.0),
                                     missing_fraction=0.2, seed=9))
        config = ModelConfig(Q=2, hyper=default_hyperparams(ds), seed=1)
        freq = frequentist_fit(ds, 2)
        thetas = {"freq": freq, "vi": vi.fit(ds, config, freq).theta,
                  "gibbs": gibbs.posterior_mean_theta(
                      gibbs.gibbs_fit(ds, config, n_chains=1, n_iter=30, n_burn=10))}
        for name, theta in thetas.items():
            path = tmp_path / f"{name}.csv"
            write_theta_csv(theta, path)
            loaded = load_theta_csv(path)
            for field in ("mu", "g", "e", "lam", "gamma", "delta", "sigma2"):
                assert np.array_equal(getattr(loaded, field), getattr(theta, field)), \
                    (name, field)

    def test_theta_round_trip_q0(self, tmp_path):
        theta = ThetaPoint(mu=1.0, g=[0.5, -0.5], e=[0.1, -0.1],
                           lam=np.zeros(0), gamma=np.zeros((2, 0)),
                           delta=np.zeros((2, 0)), sigma2=2.0)
        path = tmp_path / "theta0.csv"
        write_theta_csv(theta, path)
        loaded = load_theta_csv(path)
        assert loaded.n_components == 0
        assert np.array_equal(loaded.e, theta.e)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def labelled_grids(draw):
    """A Dataset on a random incomplete grid with arbitrary text labels, cells shuffled."""
    I, J = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    labels = st.text(max_size=6)
    g_labels = draw(st.lists(labels, min_size=I, max_size=I, unique=True))
    e_labels = draw(st.lists(labels, min_size=J, max_size=J, unique=True))
    keep = np.array(draw(st.lists(st.booleans(), min_size=I * J, max_size=I * J)))
    keep = keep.reshape(I, J)
    keep[np.arange(max(I, J)) % I, np.arange(max(I, J)) % J] = True  # no empty row or column
    cells = draw(st.permutations(list(zip(*np.nonzero(keep)))))
    values = draw(st.lists(finite, min_size=len(cells), max_size=len(cells)))
    return dataset_from_labels([g_labels[i] for i, _ in cells],
                               [e_labels[j] for _, j in cells], values)


@st.composite
def theta_points(draw):
    I, J, Q = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 2))

    def block(n):
        return np.array(draw(st.lists(finite, min_size=n, max_size=n)))

    return ThetaPoint(mu=draw(finite), g=block(I), e=block(J), lam=block(Q),
                      gamma=block(I * Q).reshape(I, Q), delta=block(J * Q).reshape(J, Q),
                      sigma2=draw(st.floats(min_value=0.0, exclude_min=True,
                                            allow_infinity=False)))


class TestRoundTripProperties:
    @given(labelled_grids())
    @settings(max_examples=100, deadline=None)
    def test_dataset_csv_round_trip(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("grid") / "data.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        for field in ("rows", "cols", "y"):
            assert np.array_equal(getattr(loaded, field), getattr(ds, field)), field
        assert (loaded.n_genotypes, loaded.n_environments) == \
            (ds.n_genotypes, ds.n_environments)
        assert loaded.genotype_labels == ds.genotype_labels
        assert loaded.environment_labels == ds.environment_labels

    @given(theta_points())
    @settings(max_examples=100, deadline=None)
    def test_theta_csv_round_trip_exact(self, tmp_path_factory, theta):
        path = tmp_path_factory.mktemp("theta") / "theta.csv"
        write_theta_csv(theta, path)
        loaded = load_theta_csv(path)
        for field in ("mu", "g", "e", "lam", "gamma", "delta", "sigma2"):
            want, got = np.asarray(getattr(theta, field)), np.asarray(getattr(loaded, field))
            assert got.shape == want.shape, field
            assert np.array_equal(np.signbit(got), np.signbit(want)), field
            assert np.array_equal(got, want), field


class TestDatasetProperties:
    @staticmethod
    def rebuild(ds, **changes):
        fields = {name: getattr(ds, name) for name in
                  ("rows", "cols", "y", "n_genotypes", "n_environments",
                   "genotype_labels", "environment_labels")}
        return Dataset(**{**fields, **changes})

    @given(labelled_grids(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicate_cell_rejected(self, ds, data):
        k = data.draw(st.integers(0, ds.n_obs - 1))
        pair = f"genotype={ds.rows[k] + 1}, environment={ds.cols[k] + 1}"
        with pytest.raises(ValidationError, match=rf"duplicate cell \({pair}\)"):
            self.rebuild(ds, rows=np.append(ds.rows, ds.rows[k]),
                         cols=np.append(ds.cols, ds.cols[k]), y=np.append(ds.y, 0.0))

    @given(labelled_grids(), st.sampled_from(["genotype", "environment"]))
    @settings(max_examples=100, deadline=None)
    def test_empty_row_or_column_rejected(self, ds, axis):
        if axis == "genotype":
            changes = {"n_genotypes": ds.n_genotypes + 1,
                       "genotype_labels": (*ds.genotype_labels, "extra")}
        else:
            changes = {"n_environments": ds.n_environments + 1,
                       "environment_labels": (*ds.environment_labels, "extra")}
        with pytest.raises(ValidationError, match=f"{axis} has no observations"):
            self.rebuild(ds, **changes)

    @given(labelled_grids(), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=100, deadline=None)
    def test_non_finite_value_rejected(self, ds, data, bad):
        y = ds.y.copy()
        y[data.draw(st.integers(0, ds.n_obs - 1))] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            self.rebuild(ds, y=y)


class TestObservationMethods:
    """Dataset's row/column sums, cell read and I/J/Q check against plain Python."""

    @given(labelled_grids(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sums_and_cell_read_match_loops(self, ds, data):
        I, J = ds.n_genotypes, ds.n_environments
        w = np.array(data.draw(st.lists(finite, min_size=ds.n_obs, max_size=ds.n_obs)))
        grid = np.array(data.draw(st.lists(finite, min_size=I * J, max_size=I * J)))
        grid = grid.reshape(I, J)
        row_sums, col_sums = [0.0] * I, [0.0] * J
        for i, j, value in zip(ds.rows.tolist(), ds.cols.tolist(), w.tolist()):
            row_sums[i] += value
            col_sums[j] += value
        np.testing.assert_array_equal(ds.row_sums(w), row_sums)
        np.testing.assert_array_equal(ds.col_sums(w), col_sums)
        np.testing.assert_array_equal(ds.at_cells(grid),
                                      [grid[i, j] for i, j in zip(ds.rows, ds.cols)])

    @given(labelled_grids(), st.integers(0, 2), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_check_covers_stack_and_each_wrong_dimension(self, ds, Q, chains, iters):
        def stack(I, J, Q):
            lead = (chains, iters)
            return gibbs.PosteriorDraws(
                mu=np.zeros(lead), g=np.zeros((*lead, I)), e=np.zeros((*lead, J)),
                lam=np.ones((*lead, Q)), gamma=np.zeros((*lead, I, Q)),
                delta=np.zeros((*lead, J, Q)), sigma2=np.ones(lead))

        I, J = ds.n_genotypes, ds.n_environments
        ds.check_covers(stack(I, J, Q), "draws", Q)
        ds.check_covers(stack(I, J, Q + 1), "draws")
        for wrong in ((I + 1, J, Q), (I, J + 1, Q), (I, J, Q + 1)):
            with pytest.raises(DimensionMismatchError,
                               match="^draws dimensions do not match dataset/config$"):
                ds.check_covers(stack(*wrong), "draws", Q)


def test_observation_layer_has_one_home():
    """Row/column sums and cell reads go through Dataset, so the layer cannot erode.

    `np.bincount` may appear only in model.py and in gibbs's `_cond_*`
    oracle, which criterion 2 keeps independent; `.cells` only in model.py.
    """
    found = []
    for path in sorted(Path(ammivi.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        oracle = {id(node) for fn in tree.body
                  if path.name == "gibbs.py" and isinstance(fn, ast.FunctionDef)
                  and fn.name.startswith("_cond_") for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and (
                      node.attr == "cells" or node.attr == "bincount" and id(node) not in oracle)]
    assert found == []


def test_analysis_reads_no_variational_state():
    """q(theta)'s families are known to vi alone, which samples q(theta) and gives its sds.

    analysis.py may read no `.state`, `mu_q_*`, `Sigma_q_*`, `a_q` or `b_q`
    attribute, and may import nothing from statsmath.
    """
    tree = ast.parse((Path(ammivi.__file__).parent / "analysis.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (node.attr in ("state", "a_q", "b_q")
                                                or node.attr.startswith(("mu_q_", "Sigma_q_"))):
            found.append(f"analysis.py:{node.lineno} .{node.attr}")
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "statsmath" in name.split(".")
                for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]):
            found.append(f"analysis.py:{node.lineno} import")
    assert found == []


@pytest.mark.parametrize("module", ["ammivi", "ammivi.cli"])
def test_import_loads_no_scipy(module):
    """`import ammivi` dominates start-up time, and scipy.special alone doubled it."""
    src = str(Path(ammivi.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
              "print(' '.join(sorted(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.'))))")
    out = subprocess.run([sys.executable, "-c", script, src], check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == []
