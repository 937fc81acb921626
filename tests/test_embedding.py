import json

import numpy as np
import pytest

from hpcmobo.embedding import (
    AttentiveMask,
    _loss_and_grads,
    mask_weights,
    train_mask,
)
from oracles import gradient_check


def _standardize(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


def test_zero_theta_gives_uniform_mask():
    m = mask_weights(np.zeros(5))
    assert np.allclose(m, 1.0)


def test_mask_positive_and_mean_one():
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta = rng.normal(0, 3, size=7)
        m = mask_weights(theta)
        assert np.all(m > 0)
        assert np.mean(m) == pytest.approx(1.0, abs=1e-9)


def test_zero_epochs_returns_initialization():
    X = _standardize(np.random.default_rng(1).normal(size=(20, 4)))
    y = X[:, 0]
    mask = train_mask(X, y, epochs=0, seed=3)
    assert np.all(mask.theta == 0.0)
    assert np.allclose(mask.m, 1.0)


def test_training_attends_to_the_informative_feature():
    rng = np.random.default_rng(2)
    X = _standardize(rng.normal(size=(200, 5)))
    y = 3.0 * X[:, 0]
    mask = train_mask(X, y, epochs=2000, seed=0)
    assert int(np.argmax(mask.m)) == 0
    assert np.mean(mask.m) == pytest.approx(1.0, abs=1e-9)


def test_uniform_mask_weights_are_all_one():
    mask = AttentiveMask(theta=np.zeros(4), readout_w=np.zeros(4), readout_b=0.0)
    assert np.array_equal(mask.m, np.ones(4))


def test_saturated_mask_puts_all_weight_on_one_feature():
    theta = np.array([40.0, 0.0, 0.0, 0.0])
    mask = AttentiveMask(theta=theta, readout_w=np.zeros(4), readout_b=0.0)
    assert mask.m[0] == pytest.approx(4.0, rel=1e-10)
    assert np.all(mask.m[1:] < 1e-10)


def test_gradient_check_random_points_below_1e4():
    rng = np.random.default_rng(5)
    for trial in range(5):
        X = rng.normal(size=(10, 4))
        y = rng.normal(size=10)
        mask = AttentiveMask(theta=rng.normal(0, 0.5, size=4),
                             readout_w=rng.normal(0, 1.0, size=4),
                             readout_b=float(rng.normal()))
        assert gradient_check(mask, X, y) < 1e-4


def test_gradient_check_zero_w_makes_theta_gradient_vanish():
    from hpcmobo.embedding import _loss_and_grads
    rng = np.random.default_rng(6)
    X = rng.normal(size=(12, 5))
    y = rng.normal(size=12)
    _, g_theta, _, _ = _loss_and_grads(np.zeros(5), np.zeros(5), 0.0, X, y)
    assert np.all(g_theta == 0.0)
    mask = AttentiveMask(theta=np.zeros(5), readout_w=np.zeros(5), readout_b=0.0)
    assert gradient_check(mask, X, y) < 1e-4


def test_gradient_check_near_stationary_point():
    # solvable instance: y exactly linear, so the optimum has ~zero gradients
    rng = np.random.default_rng(7)
    X = _standardize(rng.normal(size=(40, 3)))
    y = X @ np.array([1.0, -2.0, 0.5])
    mask = train_mask(X, y, epochs=5000, seed=1)
    from hpcmobo.embedding import _loss_and_grads
    loss, g_theta, g_w, g_b = _loss_and_grads(mask.theta, mask.readout_w,
                                              mask.readout_b, X, y)
    assert loss < 1e-3
    assert gradient_check(mask, X, y) < 1e-4


def test_permutation_equivariance_with_consistent_init():
    # permuting the features together with theta and w permutes both of their
    # gradients and leaves the loss and the bias gradient; theta starts at
    # zero, which a permutation leaves as it is, so training on permuted
    # features from a permuted readout ends at the permuted mask
    rng = np.random.default_rng(8)
    X = _standardize(rng.normal(size=(60, 4)))
    y = 2.0 * X[:, 1] - 1.0 * X[:, 3]
    theta, w = rng.normal(size=4), rng.normal(0, 0.01, size=4)
    perm = np.array([2, 0, 3, 1])
    loss, g_theta, g_w, g_b = _loss_and_grads(theta, w, 0.3, X, y)
    p_loss, p_theta, p_w, p_b = _loss_and_grads(theta[perm], w[perm], 0.3, X[:, perm], y)
    assert np.allclose(p_loss, loss, rtol=1e-12, atol=0.0)
    assert np.allclose(p_b, g_b, rtol=1e-12, atol=0.0)
    assert np.allclose(p_theta, g_theta[perm], rtol=1e-12, atol=0.0)
    assert np.allclose(p_w, g_w[perm], rtol=1e-12, atol=0.0)


def test_mask_mean_one_after_training():
    rng = np.random.default_rng(9)
    X = _standardize(rng.normal(size=(50, 6)))
    y = X[:, 2] + 0.1 * rng.normal(size=50)
    mask = train_mask(X, y, epochs=500, seed=2)
    assert np.mean(mask.m) == pytest.approx(1.0, abs=1e-9)
    assert np.all(mask.m > 0)


def test_mask_json_holds_the_mask_and_its_scaler(tmp_path):
    rng = np.random.default_rng(10)
    mask = AttentiveMask(theta=rng.normal(size=4), readout_w=rng.normal(size=4),
                         readout_b=0.5)
    path = tmp_path / "mask.json"
    mask.save(path, means=np.array([1.0, 2.0, 3.0, 4.0]),
              scales=np.array([1.0, 1.0, 2.0, 1.0]))
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload == {"d": 4, "theta": mask.theta.tolist(),
                       "readout_w": mask.readout_w.tolist(), "readout_b": 0.5,
                       "scaler_mean": [1.0, 2.0, 3.0, 4.0], "scaler_std": [1.0, 1.0, 2.0, 1.0]}


def test_divergence_raises_numerical_error():
    from hpcmobo.core import NumericalError
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 3)) * 100
    y = rng.normal(size=20) * 1000
    with pytest.raises(NumericalError, match=r"mask training diverged: .* at epoch \d+$"):
        train_mask(X, y, epochs=2000, seed=0)
