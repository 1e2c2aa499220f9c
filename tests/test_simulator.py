"""Synthetic data generator: truth constraints, missingness, scenario grid."""

import numpy as np
import pytest

from ammivi.model import mean_matrix
from ammivi.simulate import SimScenario, scenario_by_name, scenario_grid, simulate


def make(I=25, J=12, Q=1, lam=(20.0,), **kw):
    kw.setdefault("seed", 42)
    return SimScenario(I=I, J=J, Q=Q, lambda_true=lam, **kw)


class TestScenarioValidation:
    def test_lambda_ordering_enforced(self):
        with pytest.raises(ValueError):
            make(Q=2, lam=(5.0, 10.0))
        with pytest.raises(ValueError):
            make(lam=(-1.0,))

    def test_missing_fraction_range(self):
        with pytest.raises(ValueError):
            make(missing_fraction=1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make(Q=2, lam=(5.0,))


class TestSimulate:
    def test_truth_satisfies_constraints(self):
        dataset, truth = simulate(make())
        assert dataset.n_obs == 25 * 12
        assert abs(truth.g.sum()) < 1e-10
        assert abs(truth.e.sum()) < 1e-10
        for mat in (truth.gamma, truth.delta):
            assert np.max(np.abs(mat.sum(axis=0))) < 1e-10
            assert np.max(np.abs(mat.T @ mat - np.eye(1))) < 1e-10
        assert truth.gamma[0, 0] > 0
        assert list(truth.lam) == [20.0]

    def test_q2_lambda_ordered(self):
        _, truth = simulate(make(Q=2, lam=(25.0, 12.0)))
        assert truth.lam[0] >= truth.lam[1] >= 0

    def test_noiseless_limit(self):
        dataset, truth = simulate(make(sigma2_y=1e-12))
        expected = mean_matrix(truth)[dataset.rows, dataset.cols]
        assert np.allclose(dataset.y, expected, rtol=0.0, atol=1e-5)

    def test_deterministic(self):
        d1, t1 = simulate(make())
        d2, t2 = simulate(make())
        assert np.array_equal(d1.y, d2.y)
        assert t1.mu == t2.mu
        assert np.array_equal(t1.gamma, t2.gamma)

    def test_missing_fraction_exact(self):
        s = make(missing_fraction=0.2)
        dataset, _ = simulate(s)
        assert dataset.n_obs == 300 - round(0.2 * 300)
        # every row/column still observed (Dataset would reject otherwise)
        assert np.unique(dataset.rows).size == 25
        assert np.unique(dataset.cols).size == 12

    def test_missing_too_high(self):
        with pytest.raises(ValueError):
            simulate(make(missing_fraction=0.95))

    def test_noise_variance_at_scale(self):
        dataset, truth = simulate(make(I=120, J=100, sigma2_y=1.0, seed=3))
        resid = dataset.y - mean_matrix(truth)[dataset.rows, dataset.cols]
        assert resid.var() == pytest.approx(1.0, rel=0.05)


class TestScenarioGrid:
    def test_contains_lambda12_setting(self):
        s = scenario_by_name("init-study")
        assert (s.I, s.J, s.Q) == (25, 12, 1)
        assert s.lambda_true == (12.0,)

    def test_contains_small_group_n100(self):
        s = scenario_by_name("bench-small-n100-q1")
        assert s.I * s.J == 100

    def test_all_scenarios_valid_and_named(self):
        grid = scenario_grid()
        names = [s.name for s in grid]
        assert len(set(names)) == len(names)
        # construction already enforces the invariants; spot-check anyway
        for s in grid:
            assert list(s.lambda_true) == sorted(s.lambda_true, reverse=True)
            assert s.I > s.Q and s.J > s.Q

    def test_recovery_settings_present(self):
        for name in ("recovery-lambda0", "recovery-lambda20", "recovery-lambda40",
                     "recovery-q2"):
            scenario_by_name(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="known: init-study, "):
            scenario_by_name("nope")
