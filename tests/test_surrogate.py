import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpcmobo import surrogate
from hpcmobo.core import ColumnSpec, DataError, NumericalError, build_table
from hpcmobo.surrogate import (
    TreeParams,
    _TreeBuilder,
    _weighted_choice,
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


@pytest.mark.parametrize("weights", [
    [1.0, np.nan, 1.0],
    [1.0, np.inf, 1.0],
    [1.0, 0.0, 1.0],
    [1.0, -1.0, 1.0],
    [1e308, 1e308, 1e308],  # finite, but the sum overflows
    [1.0, 1.0],
])
def test_fit_rejects_feature_weights_that_are_not_finite_and_positive(weights):
    X = np.random.default_rng(0).random((20, 3))
    y = X[:, 0]
    with np.errstate(over="ignore"), pytest.raises(DataError, match="feature_weights"):
        fit_tree_ensemble(X, y, TreeParams(n_estimators=2), feature_weights=np.array(weights))


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


class _ReferenceBuilder(_TreeBuilder):
    """The tree builder before the 2-D split search: one argsort and cumsum
    per candidate feature over the compressed boundary array, the node mean
    from ysub.mean(), and numpy's validated rng.choice(p=...) per split."""

    def _grow(self, idx, depth):
        ysub = self.y[idx]
        mean = float(ysub.mean())
        if depth >= self.max_depth or len(idx) < self.min_samples_split:
            return self._emit(-1, 0.0, mean)
        split = self._best_split(idx, ysub)
        if split is None:
            return self._emit(-1, 0.0, mean)
        feat, thr = split
        node = self._emit(feat, thr, mean)
        go_left = self.X[idx, feat] < thr
        self.left[node] = self._grow(idx[go_left], depth + 1)
        self.right[node] = self._grow(idx[~go_left], depth + 1)
        return node

    def _candidate_features(self, d):
        if self.n_sub >= d and self.weights is None:
            return np.arange(d)
        return self.rng.choice(d, size=min(self.n_sub, d), replace=False,
                               p=self.weights)

    def _best_split(self, idx, ysub):
        n = len(idx)
        total = ysub.sum()
        total2 = float(ysub @ ysub)
        sse_parent = total2 - total * total / n
        if sse_parent <= 1e-12 * max(1.0, total2):
            return None
        best_gain = 0.0
        best = None
        for f in self._candidate_features(self.X.shape[1]):
            v = self.X[idx, f]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            ys = ysub[order]
            boundary = np.flatnonzero(vs[1:] != vs[:-1]) + 1
            if len(boundary) == 0:
                continue
            csum = np.cumsum(ys)
            csum2 = np.cumsum(ys * ys)
            ls = csum[boundary - 1]
            ls2 = csum2[boundary - 1]
            kn = boundary.astype(float)
            rn = n - kn
            sse = (ls2 - ls * ls / kn) + ((total2 - ls2) - (total - ls) ** 2 / rn)
            j = int(np.argmin(sse))
            gain = sse_parent - float(sse[j])
            if gain > best_gain + 1e-12 * max(1.0, sse_parent):
                k = boundary[j]
                best_gain = gain
                thr = float((vs[k - 1] + vs[k]) / 2.0)
                if thr <= vs[k - 1]:
                    thr = float(vs[k])
                best = (int(f), thr)
        return best


def _fit_recording_states(builder_cls, X, y, params, weights):
    """fit_tree_ensemble with builder_cls building the trees; also returns
    each tree's generator state after the tree is built, and the training
    rows each tree was built on."""
    states = []
    rows = []

    class Recording(builder_cls):
        def build(self, idx):
            tree = super().build(idx)
            states.append(self.rng.bit_generator.state)
            rows.append(idx)
            return tree

    saved = surrogate._TreeBuilder
    surrogate._TreeBuilder = Recording
    try:
        model = fit_tree_ensemble(X, y, params, feature_weights=weights)
    finally:
        surrogate._TreeBuilder = saved
    return model, states, rows


@st.composite
def _tree_problems(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 12))
    # few distinct values per column, so ties, duplicate rows and constant
    # columns are common; some columns get arbitrary floats instead
    grid = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    wide = st.floats(-1e3, 1e3, allow_nan=False)
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(["grid", "wide", "constant"]))
        if kind == "constant":
            cols.append([draw(grid)] * n)
        else:
            cols.append(draw(st.lists(grid if kind == "grid" else wide, min_size=n, max_size=n)))
    X = np.array(cols).T
    y = np.array(draw(st.lists(st.one_of(grid, wide), min_size=n, max_size=n)))
    mode = draw(st.sampled_from(["bagged", "boosted"]))
    params = TreeParams(
        mode=mode,
        n_estimators=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(1, 6)),
        min_samples_split=draw(st.integers(2, 5)),
        bootstrap=draw(st.booleans()),
        feature_sample=draw(st.sampled_from(["sqrt", "all"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    return X, y, params, weights


def _adjacent_floats_problem():
    """A split between -1000 and the next float up, whose midpoint rounds
    down to -1000; hypothesis found this example against the reference
    comparison when the threshold was always the midpoint."""
    X = np.full((23, 5), -2.0)
    X[:, 0] = [0.0] * 21 + [-1000.0, np.nextafter(-1000.0, 0.0)]
    y = np.array([-2.0] * 22 + [0.0])
    params = TreeParams(n_estimators=1, max_depth=2, bootstrap=False, seed=0)
    return X, y, params, None


@settings(max_examples=200, deadline=None)
@given(problem=_tree_problems())
@example(problem=_adjacent_floats_problem())
def test_trees_and_generator_states_equal_the_per_feature_reference(problem):
    X, y, params, weights = problem
    got, got_states, _ = _fit_recording_states(_TreeBuilder, X, y, params, weights)
    ref, ref_states, _ = _fit_recording_states(_ReferenceBuilder, X, y, params, weights)
    assert len(got.trees) == len(ref.trees)
    for a, b in zip(got.trees, ref.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert got_states == ref_states


def test_a_split_between_adjacent_floats_leaves_no_child_empty():
    lo = -1000.0
    X = np.array([[lo]] * 3 + [[np.nextafter(lo, 0.0)]] * 3)
    y = np.array([0.0] * 3 + [1.0] * 3)
    model = fit_tree_ensemble(X, y, TreeParams(n_estimators=1, max_depth=2,
                                               bootstrap=False))
    tree = model.trees[0]
    assert tree.value.tolist() == [0.5, 0.0, 1.0]
    assert model.predict(np.array([[-2000.0], [lo], [X[-1, 0]], [0.0]])).tolist() == [
        0.0, 0.0, 1.0, 1.0]


def _leaf_rows(tree, X):
    """The index of the leaf each row of X reaches."""
    node = np.zeros(len(X), dtype=int)
    while True:
        inner = tree.feature[node] >= 0
        if not inner.any():
            return node
        rows = np.flatnonzero(inner)
        f = tree.feature[node[rows]]
        go_left = X[rows, f] < tree.threshold[node[rows]]
        node[rows] = np.where(go_left, tree.left[node[rows]], tree.right[node[rows]])


@settings(max_examples=200, deadline=None)
@given(problem=_tree_problems())
@example(problem=_adjacent_floats_problem())
def test_every_leaf_holds_a_training_row_and_a_finite_value(problem):
    X, y, params, weights = problem
    model, _, rows = _fit_recording_states(_TreeBuilder, X, y, params, weights)
    for tree, idx in zip(model.trees, rows):
        leaves = np.flatnonzero(tree.feature < 0)
        assert np.isfinite(tree.value[leaves]).all()
        assert set(_leaf_rows(tree, X[idx]).tolist()) == set(leaves.tolist())


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=600))
def test_node_mean_from_the_shared_sum_is_numpys_mean(values):
    a = np.array(values)
    assert np.float64(a.sum() / len(a)).tobytes() == a.mean().tobytes()


def test_weighted_choice_equals_numpys_weighted_choice():
    # a guard too: this fails if numpy changes its without-replacement algorithm
    for seed in range(12):
        skew = np.random.default_rng(1000 + seed)
        for d in range(2, 41):
            if seed % 3 == 0:
                w = 10.0 ** skew.uniform(-12, 12, size=d)
            elif seed % 3 == 1:
                w = np.ones(d)
                w[skew.integers(d)] = 1e9
            else:
                w = 2.0 ** -np.arange(d) * skew.uniform(0.5, 1.5, size=d)
            p = w / w.sum()
            for k in range(1, d + 1):
                ours = np.random.default_rng([seed, d, k])
                ref = np.random.default_rng([seed, d, k])
                drawn = _weighted_choice(ours, p.tolist(), k)
                expected = ref.choice(d, size=k, replace=False, p=p)
                assert drawn == expected.tolist(), (seed, d, k)
                assert ours.random() == ref.random(), (seed, d, k)


# sha256 of save_surrogate's JSON, recorded before the 2-D split search and
# the unvalidated weighted draw replaced the per-feature loop and rng.choice
_GOLDEN_DIGESTS = {
    "bagged_embedding": "d118786ef092203435d1f3eb11215d54d593e80d76c1a8172d4de0934c9ce199",
    "boosted": "78b886bcfb0908d77160dc7892ce8bc67a9455ce2127b4bb39be413388330501",
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_DIGESTS))
def test_trained_surrogate_json_matches_the_golden_digest(case, tmp_path):
    from hpcmobo.ingest import preprocess_fit
    from hpcmobo.synthgen import DURATION_PAIRS, SyntheticSpec, generate

    table, _ = generate(SyntheticSpec(n_jobs=200, n_noise_features=3, seed=11))
    processed, _ = preprocess_fit(table, DURATION_PAIRS)
    if case == "boosted":
        kw = dict(use_embedding=False, params=TreeParams.boosted(n_estimators=10, max_depth=4))
    else:
        kw = dict(use_embedding=True, params=TreeParams(n_estimators=12, max_depth=8),
                  mask_epochs=60)
    model = train_objective_surrogate(processed, "runtime_seconds", seed=3, **kw)
    path = tmp_path / "model.json"
    save_surrogate(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_DIGESTS[case]
