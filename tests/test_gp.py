import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from hpcmobo.core import DataError
from hpcmobo.gp import _kernel, fit_gp, gp_posterior
from hpcmobo.optimizer import fit_objective_gp


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


@pytest.mark.parametrize("query", [np.array([1.0, 2.0]), np.array(1.0),
                                   np.zeros((1, 2, 1))])
def test_a_query_that_is_not_2d_is_a_data_error(query):
    gp = fit_gp(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]), noise_var=0.0)
    with pytest.raises(DataError, match="2-D"):
        gp_posterior(gp, query)


def test_needs_two_observations():
    with pytest.raises(DataError):
        fit_gp(np.array([[1.0]]), np.array([1.0]))


def test_inputs_must_hold_one_row_per_target():
    # a 1 x 5 input is one point with five coordinates, not five points
    with pytest.raises(DataError, match="one row per target"):
        fit_gp(np.arange(5.0)[None, :], np.arange(5.0))
    with pytest.raises(DataError, match="one row per target"):
        fit_gp(np.arange(5.0), np.arange(5.0))


@pytest.mark.parametrize("y", [np.arange(5.0)[None, :], np.arange(5.0)[:, None],
                               np.array(1.0)])
def test_targets_must_be_one_dimensional(y):
    # a (1, 5) target used to be raveled and trained as five targets
    X = np.arange(5.0)[:, None]
    with pytest.raises(DataError, match=re.escape(f"1-D array, got shape {y.shape}")):
        fit_gp(X, y)


def _reference_lml(gp) -> float:
    """LML at the fitted hyperparameters through scipy's checked Cholesky
    wrappers (Rasmussen & Williams 2006, Algorithm 2.1)."""
    n = len(gp.y)
    K = _kernel(gp.X, gp.X, gp.lengthscales, gp.signal_var)
    factor = cho_factor(K + (gp.noise_var + gp.jitter) * np.eye(n), lower=True)
    alpha = cho_solve(factor, gp.y)
    return float(-0.5 * (gp.y @ alpha) - np.log(np.diag(factor[0])).sum()
                 - 0.5 * n * math.log(2 * math.pi))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-1e3, 1e3)),
             min_size=2, max_size=40),
    st.integers(1, 8),
)
def test_fitted_lml_equals_scipy_cholesky_oracle(points, restarts):
    X = np.array([[x] for x, _ in points])
    y = np.array([v for _, v in points])
    gp = fit_gp(X, y, restarts=restarts)
    assert gp.lml == _reference_lml(gp)


def test_jitter_escalation_refactors_a_fresh_matrix():
    # three copies of each input and no noise: the kernel matrix has rank 4,
    # and at this scale jitters 1e-10 and 1e-8 are lost to rounding
    X = np.repeat(np.arange(4.0), 3)[:, None]
    y = 1e5 * np.repeat([-0.9, -0.5, 0.2, -1.0], 3)
    gp = fit_gp(X, y, noise_var=0.0)
    assert gp.jitter > 1e-10
    L, lower = gp.chol
    assert lower
    L = np.tril(L)
    K = _kernel(gp.X, gp.X, gp.lengthscales, gp.signal_var)
    K += (gp.noise_var + gp.jitter) * np.eye(len(y))
    assert np.max(np.abs(L @ L.T - K)) <= 1e-10 * np.max(np.abs(K))
    assert gp.lml == _reference_lml(gp)


_NODES = [1, 4, 9, 16, 25, 36, 49, 64]


@pytest.mark.parametrize("values, log_space, expected", [
    # power-like targets, modelled as they are
    ([0.9, 3.7, 8.2, 14.9, 23.1, 33.8, 45.2, 59.6], False,
     ([3.5148544323587956], 3187.547343750001, 0.06800101000000003, -16.804018545933197)),
    # runtime-like targets, modelled in log space
    ([812.0, 240.5, 118.25, 77.0, 61.5, 58.0, 60.75, 66.0], True,
     ([0.11619353495400976], 0.6929476326128605, 5.458767157952872e-09, -9.760187991912886)),
])
def test_objective_gp_golden_hyperparameters(values, log_space, expected):
    # exact values of the coordinate search, as the optimizer engines call it
    # (restarts=4); any change to the search's arithmetic moves them
    ogp = fit_objective_gp(_NODES, values, log_space=log_space)
    gp = ogp.gp
    assert ogp.log_space is log_space
    assert (gp.lengthscales.tolist(), gp.signal_var, gp.noise_var, gp.lml) == expected


def _warm_start_lml(warm, X, y, jitter=1e-10) -> float:
    """LML at the point a warm fit starts from, computed as fit_gp documents
    it: the warm lengthscales rescaled to this data's standardization and
    clamped to [1e-3, 1e3], the variances clamped into this fit's bounds."""
    x_std = X.std(axis=0)
    x_std = np.where(x_std > 0, x_std, 1.0)
    Z = (X - X.mean(axis=0)) / x_std
    yc = y - y.mean()
    y_var = max(float(yc.var()), 1e-12)
    ls = np.clip(warm.lengthscales * warm.x_std / x_std, 1e-3, 1e3)
    sf2 = min(max(warm.signal_var, 1e-8 * y_var), 1e4 * y_var)
    sn2 = min(max(warm.noise_var, 1e-12 * y_var), y_var)
    K = _kernel(Z, Z, ls, sf2) + (sn2 + jitter) * np.eye(len(y))
    factor = cho_factor(K, lower=True)
    alpha = cho_solve(factor, yc)
    return float(-0.5 * (yc @ alpha) - np.log(np.diag(factor[0])).sum()
                 - 0.5 * len(y) * math.log(2 * math.pi))


@pytest.mark.parametrize("seed, d, n_warm, n", [(1, 1, 6, 9), (2, 1, 12, 13), (3, 2, 15, 20),
                                                (4, 1, 5, 5)])
def test_warm_fit_climbs_from_its_rescaled_start(seed, d, n_warm, n):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, d))
    y = np.sin(X).sum(axis=1) + 0.1 * X[:, 0] + rng.normal(0, 0.05, size=n)
    warm = fit_gp(X[:n_warm] * 3.0, y[:n_warm] * 2.0, restarts=4)
    gp = fit_gp(X, y, restarts=4, warm=warm)
    start = _warm_start_lml(warm, X, y)
    assert gp.lml_trace[0] == pytest.approx(start, rel=1e-9, abs=1e-9)
    assert gp.lml >= start
    assert np.all(np.diff(gp.lml_trace) >= 0.0)
    assert gp.lml == gp.lml_trace[-1]


@pytest.mark.parametrize("noise_var", [None, 0.0])
def test_warm_refit_of_identical_data_does_not_lower_the_lml(noise_var):
    rng = np.random.default_rng(11)
    X = rng.uniform(1, 64, size=(10, 1))
    y = 100.0 / X[:, 0] + rng.normal(0, 0.5, size=10)
    cold = fit_gp(X, y, restarts=4, noise_var=noise_var)
    warm = fit_gp(X, y, restarts=4, noise_var=noise_var, warm=cold)
    assert warm.lml >= cold.lml
    assert warm.lml_trace[0] == cold.lml


def test_warm_fit_keeps_a_fixed_noise_var():
    X = np.linspace(0, 1, 8)[:, None]
    noisy = fit_gp(X, np.cos(3 * X[:, 0]) + 0.1 * np.sin(40 * X[:, 0]))
    assert noisy.noise_var > 0
    gp = fit_gp(X, np.cos(3 * X[:, 0]), noise_var=0.0, warm=noisy)
    assert gp.noise_var == 0.0


@pytest.mark.parametrize("values, log_space, expected", [
    ([0.9, 3.7, 8.2, 14.9, 23.1, 33.8, 45.2, 59.6], False,
     ([4.437947515604539], 3967.4891666666667, 0.07630933333333331, -16.385705078177853)),
    ([812.0, 240.5, 118.25, 77.0, 61.5, 58.0, 60.75, 66.0], True,
     ([0.11716181441195984], 0.7245879219275203, 1.1228118624909922e-10, -9.763371796506192)),
])
def test_objective_gp_golden_warm_refit(values, log_space, expected):
    # exact values of one warm refit, as the optimizer engines make it: the
    # fit on the first six nodes warm-starts the fit on all eight
    warm = fit_objective_gp(_NODES[:6], values[:6], log_space=log_space)
    ogp = fit_objective_gp(_NODES, values, log_space=log_space, warm=warm)
    gp = ogp.gp
    assert (gp.lengthscales.tolist(), gp.signal_var, gp.noise_var, gp.lml) == expected


def test_objective_gp_fits_cold_when_the_warm_fit_modelled_another_space():
    values = [812.0, 240.5, 118.25, 77.0, 61.5, 58.0, 60.75, 66.0]
    warm = fit_objective_gp(_NODES, values, log_space=False)
    ogp = fit_objective_gp(_NODES, values, log_space=True, warm=warm)
    cold = fit_objective_gp(_NODES, values, log_space=True)
    assert ogp.gp.lml == cold.gp.lml
    assert ogp.gp.lml_trace == cold.gp.lml_trace


def test_warm_gp_of_another_input_dimension_is_a_data_error():
    warm = fit_gp(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]), np.array([0.0, 1.0, 3.0]))
    with pytest.raises(DataError, match="input dimension 2"):
        fit_gp(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 3.0]), warm=warm)
