"""Frequentist multi-stage fit used as initializer and baseline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammivi.freqfit import fit_additive, fit_interaction, frequentist_fit
from ammivi.model import Dataset, mean_matrix
from ammivi.simulate import SimScenario, simulate
from ammivi.statsmath import DegenerateInputError, orthonormalize_interaction
from conftest import complete_dataset, random_dataset


def constrained_lstsq_oracle(dataset):
    """KKT solution of the sum-to-zero additive least-squares problem."""
    I, J, n = dataset.n_genotypes, dataset.n_environments, dataset.n_obs
    A = np.zeros((n, 1 + I + J))
    A[:, 0] = 1.0
    A[np.arange(n), 1 + dataset.rows] = 1.0
    A[np.arange(n), 1 + I + dataset.cols] = 1.0
    C = np.zeros((2, 1 + I + J))
    C[0, 1:1 + I] = 1.0
    C[1, 1 + I:] = 1.0
    kkt = np.block([[A.T @ A, C.T], [C, np.zeros((2, 2))]])
    rhs = np.concatenate([A.T @ dataset.y, np.zeros(2)])
    sol = np.linalg.solve(kkt, rhs)
    return sol[0], sol[1:1 + I], sol[1 + I:1 + I + J]


def masked_dataset(rng, keep) -> Dataset:
    """Random yields on the cells where the boolean I x J grid `keep` is set."""
    rows, cols = np.nonzero(keep)
    return Dataset(
        rows=rows, cols=cols, y=rng.normal(50.0, 5.0, rows.size),
        n_genotypes=keep.shape[0], n_environments=keep.shape[1],
        genotype_labels=tuple(f"g{i + 1}" for i in range(keep.shape[0])),
        environment_labels=tuple(f"e{j + 1}" for j in range(keep.shape[1])))


def two_block_mask(rng, bridge):
    """Two genotype x environment blocks that share no row or column, each
    half observed, with rows and columns shuffled; `bridge` adds one cell
    joining them, leaving the rest of the table as it is for the same rng."""
    I1, I2, J1, J2 = rng.integers(2, 7, size=4)
    keep = np.zeros((I1 + I2, J1 + J2), dtype=bool)
    for block in (keep[:I1, :J1], keep[I1:, J1:]):
        block[:] = rng.random(block.shape) < 0.5
        block[np.arange(block.shape[0]), rng.integers(0, block.shape[1], block.shape[0])] = True
        block[rng.integers(0, block.shape[0], block.shape[1]), np.arange(block.shape[1])] = True
    keep[rng.integers(0, I1), J1 + rng.integers(0, J2)] = bridge
    return keep[rng.permutation(I1 + I2)][:, rng.permutation(J1 + J2)]


def assert_matches_oracle(ds):
    mu, g, e = fit_additive(ds)
    omu, og, oe = constrained_lstsq_oracle(ds)
    assert mu == pytest.approx(omu, abs=1e-8)
    assert np.allclose(g, og, rtol=0.0, atol=1e-8)
    assert np.allclose(e, oe, rtol=0.0, atol=1e-8)


class TestFitAdditive:
    def test_complete_2x2(self):
        ds = complete_dataset([[1.0, 2.0], [3.0, 4.0]])
        mu, g, e = fit_additive(ds)
        assert mu == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(g, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(e, [-0.5, 0.5], atol=1e-12)

    def test_residual_row_col_sums_zero(self, rng):
        ds = complete_dataset(rng.normal(50.0, 5.0, (6, 4)))
        mu, g, e = fit_additive(ds)
        R = (ds.y - mu - g[ds.rows] - e[ds.cols]).reshape(6, 4)
        assert np.max(np.abs(R.sum(axis=0))) < 1e-10
        assert np.max(np.abs(R.sum(axis=1))) < 1e-10

    def test_incomplete_matches_kkt_oracle(self, rng):
        for I, J, missing in ((3, 3, 0.3), (40, 25, 0.5)):
            assert_matches_oracle(random_dataset(rng, I, J, missing=missing))

    def test_optimal_among_feasible_fits(self, rng):
        ds = random_dataset(rng, 5, 4, missing=0.2)
        mu, g, e = fit_additive(ds)
        base_sse = np.sum((ds.y - mu - g[ds.rows] - e[ds.cols]) ** 2)
        for _ in range(50):
            dg = rng.standard_normal(5) * 0.1
            de = rng.standard_normal(4) * 0.1
            dg -= dg.mean()
            de -= de.mean()
            dmu = float(rng.normal(0.0, 0.1))
            sse = np.sum((ds.y - (mu + dmu) - (g + dg)[ds.rows]
                          - (e + de)[ds.cols]) ** 2)
            assert sse >= base_sse - 1e-9

    def test_disconnected_table_error(self):
        # two blocks that never share a row or column: additive part not
        # identifiable even under the sum constraints
        ds = Dataset(rows=[0, 0, 1, 1, 2, 2, 3, 3],
                     cols=[0, 1, 0, 1, 2, 3, 2, 3],
                     y=np.arange(8.0),
                     n_genotypes=4, n_environments=4,
                     genotype_labels=("a", "b", "c", "d"),
                     environment_labels=("w", "x", "y", "z"))
        with pytest.raises(DegenerateInputError):
            fit_additive(ds)

    @pytest.mark.parametrize("seed", range(8))
    def test_two_block_tables_connect_only_through_a_bridge(self, seed):
        split, bridged = (two_block_mask(np.random.default_rng(seed), bridge)
                          for bridge in (False, True))
        assert (split != bridged).sum() == 1
        rng = np.random.default_rng(seed)
        with pytest.raises(DegenerateInputError, match="disconnected table"):
            fit_additive(masked_dataset(rng, split))
        assert_matches_oracle(masked_dataset(rng, bridged))

    @given(st.integers(1, 7), st.integers(1, 7), st.floats(0.0, 0.95),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_incomplete_grids_match_oracle(self, I, J, missing, seed):
        rng = np.random.default_rng(seed)
        keep = rng.random((I, J)) >= missing
        keep[np.arange(I), rng.integers(0, J, I)] = True
        keep[rng.integers(0, I, J), np.arange(J)] = True
        ds = masked_dataset(rng, keep)
        # the additive design has full rank I+J-1 exactly when the table is connected
        design = np.zeros((ds.n_obs, I + J))
        design[np.arange(ds.n_obs), ds.rows] = 1.0
        design[np.arange(ds.n_obs), I + ds.cols] = 1.0
        if np.linalg.matrix_rank(design) < I + J - 1:
            with pytest.raises(DegenerateInputError):
                fit_additive(ds)
        else:
            assert_matches_oracle(ds)

    def test_memory_stays_below_design_size(self):
        # the n x (I+J-1) sum-coded design of this grid alone would be 38 MB
        ds, _ = simulate(SimScenario(I=200, J=100, Q=2, lambda_true=(25.0, 12.0),
                                     missing_fraction=0.2, seed=3))
        tracemalloc.start()
        try:
            fit_additive(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestFitInteraction:
    def test_exact_rank_one_residual(self, rng):
        I, J = 8, 6
        u, v = orthonormalize_interaction(rng.standard_normal((I, 1)),
                                          rng.standard_normal((J, 1)))
        y = 3.0 + 20.0 * (u @ v.T)
        ds = complete_dataset(y)
        mu, g, e = fit_additive(ds)
        lam, gamma, delta = fit_interaction(ds, mu, g, e, 1)
        assert lam[0] == pytest.approx(20.0, abs=1e-8)
        assert np.allclose(np.abs(gamma[:, 0]), np.abs(u[:, 0]), atol=1e-8)
        assert gamma[np.nonzero(gamma[:, 0])[0][0], 0] > 0

    def test_noiseless_simulation_recovers_lambda(self):
        ds, _ = simulate(SimScenario(I=25, J=12, Q=1, lambda_true=(20.0,),
                                     sigma2_y=1e-12, seed=5))
        theta = frequentist_fit(ds, 1)
        assert 19.9 <= theta.lam[0] <= 20.1

    def test_second_value_small_on_rank_one(self, rng):
        I, J = 10, 8
        u, v = orthonormalize_interaction(rng.standard_normal((I, 1)),
                                          rng.standard_normal((J, 1)))
        y = 20.0 * (u @ v.T) + rng.normal(0.0, 1e-4, (I, J))
        ds = complete_dataset(y)
        theta = frequentist_fit(ds, 2)
        assert theta.lam[1] < 1e-2 * theta.lam[0]

    def test_best_rank_q_approximation(self, rng):
        ds = random_dataset(rng, 7, 6, missing=0.1)
        mu, g, e = fit_additive(ds)
        lam, gamma, delta = fit_interaction(ds, mu, g, e, 2)
        R = np.zeros((7, 6))
        R[ds.rows, ds.cols] = ds.y - mu - g[ds.rows] - e[ds.cols]
        Rc = R - R.mean(axis=1, keepdims=True) - R.mean(axis=0, keepdims=True) + R.mean()
        best = np.sum((Rc - (gamma * lam) @ delta.T) ** 2)
        for _ in range(30):
            a = rng.standard_normal((7, 2))
            b = rng.standard_normal((6, 2))
            approx = a @ b.T
            # scale the random candidate optimally before comparing
            scale = np.sum(Rc * approx) / max(np.sum(approx * approx), 1e-12)
            assert np.sum((Rc - scale * approx) ** 2) >= best - 1e-9

    def test_rank_below_q_error(self, rng):
        ds = complete_dataset(np.outer(np.arange(4.0), np.ones(3)))  # pure additive
        mu, g, e = fit_additive(ds)
        with pytest.raises(DegenerateInputError):
            fit_interaction(ds, mu, g, e, 1)

    def test_q_too_large(self, rng):
        ds = random_dataset(rng, 4, 3)
        mu, g, e = fit_additive(ds)
        with pytest.raises(ValueError):
            fit_interaction(ds, mu, g, e, 3)


class TestFrequentistFit:
    def test_q0_sigma2_is_residual_mean_square(self, rng):
        ds = random_dataset(rng, 5, 4)
        theta = frequentist_fit(ds, 0)
        assert theta.n_components == 0
        resid = ds.y - mean_matrix(theta)[ds.rows, ds.cols]
        assert theta.sigma2 == pytest.approx(np.mean(resid ** 2), rel=1e-12)

    def test_main_effects_recovery(self):
        ds, truth = simulate(SimScenario(I=25, J=12, Q=1, lambda_true=(20.0,),
                                         seed=9))
        theta = frequentist_fit(ds, 1)
        assert np.corrcoef(theta.g, truth.g)[0, 1] > 0.95
        assert np.corrcoef(theta.e, truth.e)[0, 1] > 0.95

    def test_deterministic(self, rng):
        ds = random_dataset(rng, 6, 5, missing=0.15)
        t1 = frequentist_fit(ds, 2)
        t2 = frequentist_fit(ds, 2)
        assert t1.mu == t2.mu
        assert np.array_equal(t1.gamma, t2.gamma)
        assert t1.sigma2 == t2.sigma2
