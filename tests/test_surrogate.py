import numpy as np
import pytest

from hpcmobo.core import ColumnSpec, DataError, NumericalError, build_table
from hpcmobo.surrogate import (
    TreeParams,
    fit_tree_ensemble,
    load_surrogate,
    mape,
    save_surrogate,
    train_objective_surrogate,
)


def test_constant_target_predicts_exactly_in_both_modes():
    X = np.random.default_rng(0).random((20, 3))
    y = np.full(20, 7.0)
    for params in (TreeParams(n_estimators=10, max_depth=4),
                   TreeParams.boosted(n_estimators=10)):
        model = fit_tree_ensemble(X, y, params)
        assert np.all(model.predict(X) == 7.0)


def test_single_tree_depth_one_finds_the_obvious_split():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    params = TreeParams(n_estimators=1, max_depth=1, bootstrap=False, feature_sample="all")
    model = fit_tree_ensemble(X, y, params)
    t = model.trees[0].threshold[0]
    assert 0.0 < t < 1.0
    assert model.predict(np.array([[t - 1e-9]]))[0] == 0.0
    assert model.predict(np.array([[t + 1e-9]]))[0] == 10.0


def _noisy_quadratic(seed, n=200, d=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = X[:, 0] ** 2 + 0.5 * X[:, 1] + rng.normal(0, 0.1, size=n)
    return X, y


def test_defaults_fit_noisy_quadratic_with_good_r2():
    train_worse = 0
    for seed in range(5):
        X, y = _noisy_quadratic(seed)
        Xt, yt = _noisy_quadratic(seed + 100)
        model = fit_tree_ensemble(X, y, TreeParams(seed=seed))
        mse_train = float(np.mean((model.predict(X) - y) ** 2))
        mse_test = float(np.mean((model.predict(Xt) - yt) ** 2))
        r2 = 1 - mse_test / float(np.var(yt))
        assert r2 > 0.8
        if mse_train >= mse_test:
            train_worse += 1
    assert train_worse <= 1  # train error below test error, allowing one fluke


def test_boosted_mode_is_row_order_independent():
    X, y = _noisy_quadratic(3, n=80)
    perm = np.random.default_rng(1).permutation(len(y))
    a = fit_tree_ensemble(X, y, TreeParams.boosted(n_estimators=20, seed=5))
    b = fit_tree_ensemble(X[perm], y[perm], TreeParams.boosted(n_estimators=20, seed=5))
    q = np.random.default_rng(2).uniform(-2, 2, size=(30, 4))
    # identical splits; leaf means may differ by float summation order only
    assert np.allclose(a.predict(q), b.predict(q), rtol=1e-12, atol=1e-12)


def test_same_seed_same_predictions():
    X, y = _noisy_quadratic(4, n=100)
    a = fit_tree_ensemble(X, y, TreeParams(n_estimators=15, seed=9))
    b = fit_tree_ensemble(X, y, TreeParams(n_estimators=15, seed=9))
    q = X[:10]
    assert np.array_equal(a.predict(q), b.predict(q))


def test_bagged_average_never_beats_worst_tree_on_train():
    for seed in range(3):
        X, y = _noisy_quadratic(seed, n=120)
        model = fit_tree_ensemble(X, y, TreeParams(n_estimators=12, seed=seed))
        ensemble_mse = float(np.mean((model.predict(X) - y) ** 2))
        per_tree = model.train_mse_per_tree(X, y)
        assert ensemble_mse <= per_tree.max() + 1e-12


def test_fit_rejects_tiny_or_bad_input():
    with pytest.raises(DataError):
        fit_tree_ensemble(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(DataError):
        fit_tree_ensemble(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))


def test_boosted_learning_rate_composition():
    X = np.linspace(0, 1, 50)[:, None]
    y = 3.0 * X[:, 0]
    model = fit_tree_ensemble(X, y, TreeParams.boosted(n_estimators=50, max_depth=3))
    pred = model.predict(X)
    assert float(np.mean((pred - y) ** 2)) < 0.01


def test_mape_examples():
    assert mape(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mape(np.array([100.0]), np.array([110.0])) == pytest.approx(0.10)
    assert mape(np.array([50.0, 200.0]), np.array([55.0, 180.0])) == pytest.approx(0.10)


def test_mape_excludes_zeros_and_rejects_all_zero():
    assert mape(np.array([0.0, 100.0]), np.array([5.0, 110.0])) == pytest.approx(0.10)
    with pytest.raises(NumericalError):
        mape(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def _toy_table(n=60, seed=0):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(1, 9, size=n).astype(float)
    x = rng.normal(size=n)
    runtime = 100.0 / nodes + 3.0 * x
    power = 10.0 * nodes + rng.normal(0, 0.1, size=n)
    return build_table(
        [ColumnSpec("x", "numeric", "feature"),
         ColumnSpec("num_nodes_alloc", "numeric", "design_variable"),
         ColumnSpec("runtime", "numeric", "regression_target"),
         ColumnSpec("power", "numeric", "regression_target")],
        {"x": list(x), "num_nodes_alloc": list(nodes),
         "runtime": list(runtime), "power": list(power)},
    )


def test_train_objective_surrogate_bundles_scaler_mask_and_bounds():
    table = _toy_table()
    model = train_objective_surrogate(table, "runtime", use_embedding=True,
                                      params=TreeParams(n_estimators=20, max_depth=6),
                                      seed=1)
    assert model.feature_names == ["x", "num_nodes_alloc"]
    assert model.design_bounds[0] >= 1
    assert model.mask is not None
    pred = model.predict(table.numeric_matrix(model.feature_names))
    assert pred.shape == (table.n_rows,)


def test_training_leaves_the_callers_params_unchanged():
    params = TreeParams(n_estimators=4, max_depth=3, seed=5)
    model = train_objective_surrogate(_toy_table(), "runtime", use_embedding=False,
                                      params=params, seed=0)
    assert params.seed == 5
    assert model.ensemble.params.seed == 0


def test_surrogate_pairing_is_independent():
    table = _toy_table()
    params = TreeParams(n_estimators=10, max_depth=4)
    r1 = train_objective_surrogate(table, "runtime", params=params, seed=2)
    p1 = train_objective_surrogate(table, "power", params=params, seed=2)
    r2 = train_objective_surrogate(table, "runtime", params=params, seed=2)
    X = table.numeric_matrix(r1.feature_names)
    # two calls, no shared state: retraining runtime leaves power untouched
    assert np.array_equal(r1.predict(X), r2.predict(X))
    assert r1.target == "runtime" and p1.target == "power"


def test_surrogate_serialization_round_trip(tmp_path):
    table = _toy_table()
    model = train_objective_surrogate(table, "runtime",
                                      params=TreeParams(n_estimators=8, max_depth=4),
                                      seed=3)
    path = tmp_path / "runtime_model.json"
    save_surrogate(model, path)
    loaded = load_surrogate(path)
    X = table.numeric_matrix(model.feature_names)
    assert np.array_equal(model.predict(X), loaded.predict(X))
    assert loaded.design_bounds == model.design_bounds
    assert loaded.target == "runtime"
