import numpy as np
import pytest

from hpcmobo.core import DataError
from hpcmobo.gp import fit_gp, gp_posterior


def test_noise_free_gp_interpolates_training_targets():
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(15, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    gp = fit_gp(X, y, noise_var=0.0)
    mean, var = gp_posterior(gp, X)
    assert np.max(np.abs(mean - y)) < 1e-6
    assert np.max(var) < 1e-8


def test_posterior_variance_zero_at_training_inputs():
    X = np.linspace(0, 1, 8)[:, None]
    y = np.cos(3 * X[:, 0])
    gp = fit_gp(X, y, noise_var=0.0)
    _, var = gp_posterior(gp, X)
    assert np.all(var == 0.0)


def test_far_query_reverts_to_prior():
    X = np.linspace(0, 1, 10)[:, None]
    y = np.sin(6 * X[:, 0])
    gp = fit_gp(X, y, noise_var=0.0)
    far = np.array([[1.0 + 20 * float(gp.lengthscales[0] * gp.x_std[0])]])
    mean, var = gp_posterior(gp, far)
    assert mean[0] == pytest.approx(gp.y_mean, abs=0.01 * max(1.0, abs(gp.y_mean)))
    assert var[0] == pytest.approx(gp.signal_var, rel=0.01)


def test_symmetric_data_gives_zero_mean_at_midpoint():
    X = np.array([[-1.0], [1.0]])
    y = np.array([1.0, -1.0])
    gp = fit_gp(X, y, noise_var=0.0)
    mean, _ = gp_posterior(gp, np.array([[0.0]]))
    assert mean[0] == pytest.approx(0.0, abs=1e-10)


def test_dense_sine_reconstruction():
    X = np.linspace(0, 2 * np.pi, 25)[:, None]
    y = np.sin(X[:, 0])
    gp = fit_gp(X, y, noise_var=0.0)
    grid = np.linspace(0, 2 * np.pi, 200)[:, None]
    mean, _ = gp_posterior(gp, grid)
    assert np.max(np.abs(mean - np.sin(grid[:, 0]))) < 0.05


def test_lml_trace_non_decreasing_over_accepted_steps():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 4, size=(30, 1))
    y = np.sin(X[:, 0]) + rng.normal(0, 0.05, size=30)
    gp = fit_gp(X, y)
    trace = np.asarray(gp.lml_trace)
    assert len(trace) >= 1
    assert np.all(np.diff(trace) >= -1e-9)
    assert gp.lml == pytest.approx(trace.max())


def test_noisy_fit_recovers_signal():
    rng = np.random.default_rng(9)
    X = np.linspace(0, 3, 60)[:, None]
    y = 2.0 * np.sin(2 * X[:, 0]) + rng.normal(0, 0.2, size=60)
    gp = fit_gp(X, y)
    grid = np.linspace(0.2, 2.8, 50)[:, None]
    mean, _ = gp_posterior(gp, grid)
    rmse = float(np.sqrt(np.mean((mean - 2.0 * np.sin(2 * grid[:, 0])) ** 2)))
    assert rmse < 0.2
    assert gp.noise_var > 0


def test_duplicate_inputs_need_noise():
    X = np.array([[0.0], [0.0], [1.0]])
    y = np.array([0.0, 1.0, 2.0])
    gp = fit_gp(X, y)  # fitted noise absorbs the conflict
    mean, _ = gp_posterior(gp, np.array([[0.0]]))
    assert 0.0 <= mean[0] <= 1.5


def test_query_dimension_mismatch():
    gp = fit_gp(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]), noise_var=0.0)
    with pytest.raises(DataError):
        gp_posterior(gp, np.array([[1.0, 2.0, 3.0]]))


def test_needs_two_observations():
    with pytest.raises(DataError):
        fit_gp(np.array([[1.0]]), np.array([1.0]))


def test_inputs_must_hold_one_row_per_target():
    # a 1 x 5 input is one point with five coordinates, not five points
    with pytest.raises(DataError, match="one row per target"):
        fit_gp(np.arange(5.0)[None, :], np.arange(5.0))
    with pytest.raises(DataError, match="one row per target"):
        fit_gp(np.arange(5.0), np.arange(5.0))
