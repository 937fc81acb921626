import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpcmobo import surrogate
from hpcmobo.core import ColumnSpec, DataError, NumericalError, build_table
from hpcmobo.embedding import AttentiveMask
from hpcmobo.surrogate import (
    MAX_DESIGN_NODES,
    FeatureScaler,
    SurrogateModel,
    TreeParams,
    _rank_columns,
    _draw_features,
    _sort_with_order,
    check_design_bounds,
    fit_tree_ensemble,
    load_surrogate,
    mape,
    save_surrogate,
    train_objective_surrogate,
    training_data,
)


def _reference_tree_predict(tree, X):
    """One tree's predictions by a walk down the tree with a stack of
    (node, rows reaching it): the oracle for the packed forest."""
    X = np.asarray(X, dtype=float)
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[rows] = tree.value[node]
            continue
        go_left = X[rows, f] < tree.threshold[node]
        stack.append((tree.left[node], rows[go_left]))
        stack.append((tree.right[node], rows[~go_left]))
    return out


def _reference_predict(ensemble, X):
    """The ensemble's predictions summed tree by tree from the reference walk."""
    if not ensemble.trees:
        return np.full(len(X), ensemble.base_value)
    acc = np.zeros(len(X))
    for tree in ensemble.trees:
        acc += _reference_tree_predict(tree, X)
    return acc / len(ensemble.trees)


def _train_mse_per_tree(ensemble, X, y):
    """Per-tree training MSE, for the variance-reduction check."""
    return np.array([float(np.mean((_reference_tree_predict(t, X) - y) ** 2))
                     for t in ensemble.trees])


def _grow_whole(X, y, n_trees, max_depth, seed=0, log_weights=None):
    """A forest grown by the builder on every training row with every
    feature a candidate at each split, and one generator per tree."""
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n_trees)]
    trees = surrogate._grow_trees(*_rank_columns(X), y, [np.arange(len(X))] * n_trees, rngs,
                                  max_depth, X.shape[1], log_weights)
    return surrogate.TreeEnsemble(trees, float(y.mean()))


def test_constant_target_predicts_exactly_in_both_modes():
    X = np.random.default_rng(0).random((20, 3))
    y = np.full(20, 7.0)
    # bootstrap rows with sampled features, and the whole sample with every feature
    for model in (fit_tree_ensemble(X, y, TreeParams(n_estimators=10, max_depth=4)),
                  _grow_whole(X, y, 10, 4)):
        assert np.all(model.predict(X) == 7.0)


def test_an_ensemble_of_no_trees_predicts_the_mean():
    X = np.random.default_rng(0).random((20, 3))
    y = X[:, 0]
    model = fit_tree_ensemble(X, y, TreeParams(n_estimators=0))
    assert model.trees == []
    assert np.all(model.predict(X) == y.mean())


def test_single_tree_depth_one_finds_the_obvious_split():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    model = _grow_whole(X, y, 1, 1)
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
        per_tree = _train_mse_per_tree(model, X, y)
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


def test_surrogate_predict_takes_only_a_2d_matrix():
    model = train_objective_surrogate(_toy_table(), "runtime",
                                      params=TreeParams(n_estimators=2, max_depth=2), seed=0)
    row = _toy_table().numeric_matrix(model.feature_names)[0]
    assert model.predict(row[None, :]).shape == (1,)
    for bad in (row, row[None, None, :], np.float64(3.0)):
        with pytest.raises(DataError, match="must be 2-D"):
            model.predict(bad)


def test_training_data_needs_two_rows():
    table = _toy_table()
    for n in (0, 1):
        with pytest.raises(DataError, match="at least 2 rows, the table has " + str(n)):
            training_data(table.select_rows(np.arange(n)), "runtime")
    assert len(training_data(table.select_rows(np.arange(2)), "runtime")[2]) == 2


def test_design_bounds_are_integers_from_one_within_the_cap():
    for good in ((1, 1), (1, MAX_DESIGN_NODES), (7, MAX_DESIGN_NODES + 6)):
        check_design_bounds(good, "here")
    for bad in ((0, 5), (5, 4), (1.0, 5), (True, 5), (1,), (1, 2, 3)):
        with pytest.raises(DataError, match=r"here: design bounds .* are not two integers"):
            check_design_bounds(bad, "here")
    for bad in ((1, MAX_DESIGN_NODES + 1), (1, 10**308)):
        with pytest.raises(DataError, match=f"span more than {MAX_DESIGN_NODES}"):
            check_design_bounds(bad, "here")


@pytest.mark.parametrize("cell", [0.5, 0.0, -1.0, 1e-320, 1e308])
def test_training_rows_outside_the_design_domain_are_a_data_error(cell):
    toy = _toy_table()
    data = {name: list(toy.column(name)) for name in toy.names}
    data["num_nodes_alloc"][3] = cell
    table = build_table(toy.columns, data)
    with pytest.raises(DataError, match="design column 'num_nodes_alloc' of the training rows"):
        train_objective_surrogate(table, "runtime", use_embedding=False,
                                  params=TreeParams(n_estimators=2, max_depth=2))


def test_training_leaves_the_callers_params_unchanged():
    params = TreeParams(n_estimators=4, max_depth=3, seed=5)
    model = train_objective_surrogate(_toy_table(), "runtime", use_embedding=False,
                                      params=params, seed=0)
    assert params.seed == 5
    # the forest is the one the training seed grows, not the caller's seed
    _, X, y = training_data(_toy_table(), "runtime")
    Z = model.scaler.transform(X)
    assert np.array_equal(model.ensemble.predict(Z),
                          fit_tree_ensemble(Z, y, replace(params, seed=0)).predict(Z))
    assert not np.array_equal(model.ensemble.predict(Z),
                              fit_tree_ensemble(Z, y, params).predict(Z))


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


# the builder under test, the one every fit goes through
_TreeBuilder = surrogate._grow_trees


def _fit_recording_states(grow, X, y, params, weights, whole):
    """fit_tree_ensemble with `grow` growing the trees (with `whole`, the
    builder called directly as `_grow_whole` calls it). Also returns, per
    tree, its targets and its generator's state when growth began (after
    the bootstrap draw), and the training rows it was grown on."""
    inputs = []
    rows = []

    def recording(ranks, values, y, tree_rows, rngs, *args):
        inputs.extend((y, rng.bit_generator.state) for rng in rngs)
        rows.extend(tree_rows)
        return grow(ranks, values, y, tree_rows, rngs, *args)

    saved = surrogate._grow_trees
    surrogate._grow_trees = recording
    try:
        if whole:
            log_w = None if weights is None else np.log(weights / weights.sum())
            model = _grow_whole(X, y, params.n_estimators, params.max_depth, params.seed,
                                log_w)
        else:
            model = fit_tree_ensemble(X, y, params, feature_weights=weights)
    finally:
        surrogate._grow_trees = saved
    return model, inputs, rows


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
    params = TreeParams(
        n_estimators=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    # fit_tree_ensemble's bootstrap rows and sampled features, or every row
    # with every feature a candidate
    return X, y, params, weights, draw(st.booleans())


def _adjacent_floats_problem():
    """A split between -1000 and the next float up, whose midpoint rounds
    down to -1000; hypothesis found this example when the threshold was
    always the midpoint."""
    X = np.full((23, 5), -2.0)
    X[:, 0] = [0.0] * 21 + [-1000.0, np.nextafter(-1000.0, 0.0)]
    y = np.array([-2.0] * 22 + [0.0])
    params = TreeParams(n_estimators=1, max_depth=2, seed=0)
    return X, y, params, None, True


def _levels(tree):
    """Node indices of a breadth-first tree, one array per depth."""
    levels = [np.array([0])]
    while True:
        inner = levels[-1][tree.feature[levels[-1]] >= 0]
        if not len(inner):
            return levels
        levels.append(np.column_stack([tree.left[inner], tree.right[inner]]).ravel())


def _draw_inputs(whole, d, weights):
    """The candidate count and log feature weights the trees are grown with."""
    k = d if whole else math.ceil(math.sqrt(d))
    return k, None if weights is None else np.log(weights / weights.sum())


def _is_open(t):
    """The builder's stop rule for a node with targets t in training-row
    order: 2 or more rows and not pure, from the same sequential sums."""
    if len(t) < 2:
        return False
    c = t - np.cumsum(t)[-1] / len(t)
    return np.cumsum(c * c)[-1] > 1e-12 * max(1.0, np.cumsum(t * t)[-1])


def _drawn_features(tree, state, params, whole, d, weights, reached, t):
    """Each open node's candidate features, drawn again from the tree's
    generator: per depth below max_depth, one row of uniforms per open node,
    breadth-first. reached[node] indexes the targets t of the node's rows."""
    k, log_w = _draw_inputs(whole, d, weights)
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    drawn = {}
    for depth, level in enumerate(_levels(tree)[:params.max_depth]):
        open_nodes = [node for node in level.tolist()
                      if _is_open(t[reached[node]])]
        if log_w is None and k == d:
            feats = [list(range(d))] * len(open_nodes)
        else:
            feats = _draw_features(rng.random((len(open_nodes), d)), k, log_w).tolist()
        drawn.update(zip(open_nodes, feats))
    return drawn


def _least_sse(v, t):
    """Least children's SSE over boundaries between distinct values of v,
    by brute force (inf without a boundary)."""
    best = math.inf
    for cut in np.unique(v)[:-1]:
        left, right = t[v <= cut], t[v > cut]
        best = min(best, float(((left - left.mean()) ** 2).sum()
                               + ((right - right.mean()) ** 2).sum()))
    return best


def _node_rows(tree, X):
    """Per node, the positions of the rows of X that pass through it."""
    reached = {0: np.arange(len(X))}
    for node in range(len(tree.feature)):
        f = tree.feature[node]
        if f >= 0:
            here = reached[node]
            go_left = X[here, f] < tree.threshold[node]
            reached[tree.left[node]] = here[go_left]
            reached[tree.right[node]] = here[~go_left]
    return reached


@settings(max_examples=200, deadline=None)
@given(problem=_tree_problems())
@example(problem=_adjacent_floats_problem())
def test_each_split_has_the_least_sse_among_its_drawn_features(problem):
    X, y, params, weights, whole = problem
    model, inputs, rows = _fit_recording_states(_TreeBuilder, X, y, params, weights, whole)
    for tree, (target, state), idx in zip(model.trees, inputs, rows):
        depth = {node: dep for dep, level in enumerate(_levels(tree)) for node in level.tolist()}
        reached = _node_rows(tree, X[idx])
        drawn = _drawn_features(tree, state, params, whole, X.shape[1], weights, reached,
                                target[idx])
        for node, here in reached.items():
            v, t = X[idx[here]], target[idx[here]]
            # every leaf value is the mean of its rows
            assert abs(tree.value[node] - t.mean()) <= 1e-10 * max(1.0, np.abs(t).max())
            c = t - t.mean()
            sse = float(c @ c)
            f = tree.feature[node]
            if f < 0:
                if depth[node] < params.max_depth and node in drawn:
                    # no drawn feature gains more than the gain tolerance
                    least = min(_least_sse(v[:, g], t) for g in drawn[node])
                    assert sse - least <= 1e-9 * max(1.0, sse), node
                continue
            assert f in drawn[node]
            least = min(_least_sse(v[:, g], t) for g in drawn[node])
            thr = tree.threshold[node]
            lo, hi = v[v[:, f] < thr, f].max(), v[v[:, f] >= thr, f].min()
            assert thr == (lo + hi) / 2 or (thr == hi and (lo + hi) / 2 <= lo)
            left, right = c[v[:, f] < thr], c[v[:, f] >= thr]
            chosen = float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())
            assert chosen <= least + 1e-9 * max(1.0, sse), node


@settings(max_examples=100, deadline=None)
@given(problem=_tree_problems())
@example(problem=_adjacent_floats_problem())
def test_a_tree_grown_in_its_forest_equals_the_tree_grown_alone(problem):
    X, y, params, weights, whole = problem
    model, inputs, rows = _fit_recording_states(_TreeBuilder, X, y, params, weights, whole)
    n_sub, log_w = _draw_inputs(whole, X.shape[1], weights)
    for tree, (target, state), idx in zip(model.trees, inputs, rows):
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        alone, = _TreeBuilder(*_rank_columns(X), target, [idx], [rng], params.max_depth,
                              n_sub, log_w)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(alone, name), getattr(tree, name)), name


def test_a_forest_grown_in_batches_equals_the_forest_grown_in_one_pass(monkeypatch):
    X, y = _noisy_quadratic(6, n=60)
    params = TreeParams(n_estimators=7, max_depth=5, seed=2)
    weights = np.array([4.0, 1.0, 2.0, 0.5])
    whole = fit_tree_ensemble(X, y, params, feature_weights=weights)
    monkeypatch.setattr(surrogate, "_ENTRY_BLOCK", 2 * 60)  # one tree per pass
    batched = fit_tree_ensemble(X, y, params, feature_weights=weights)
    for a, b in zip(whole.trees, batched.trees, strict=True):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_a_split_between_adjacent_floats_leaves_no_child_empty():
    lo = -1000.0
    X = np.array([[lo]] * 3 + [[np.nextafter(lo, 0.0)]] * 3)
    y = np.array([0.0] * 3 + [1.0] * 3)
    model = _grow_whole(X, y, 1, 2)
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
    X, y, params, weights, whole = problem
    model, _, rows = _fit_recording_states(_TreeBuilder, X, y, params, weights, whole)
    for tree, idx in zip(model.trees, rows):
        leaves = np.flatnonzero(tree.feature < 0)
        assert np.isfinite(tree.value[leaves]).all()
        assert set(_leaf_rows(tree, X[idx]).tolist()) == set(leaves.tolist())


@st.composite
def _forest_queries(draw):
    """A forest fitted to a drawn tree problem (up to 20 trees, or none, of
    different node counts), query rows built from its training values,
    its thresholds, NaN, +-inf and arbitrary floats, and a predict block
    size in trees times rows. numpy sums 8 or more values pairwise, so
    only a forest of 8 or more trees can tell a pairwise sum from the
    tree-order sum."""
    X, y, params, weights, _ = draw(_tree_problems())
    params = replace(params, n_estimators=draw(st.integers(0, 20)))
    model = fit_tree_ensemble(X, y, params, feature_weights=weights)
    known = sorted({*X.ravel().tolist(), *(x for t in model.trees for x in t.threshold.tolist())})
    cell = st.one_of(st.sampled_from(known), st.sampled_from([np.nan, np.inf, -np.inf]),
                     st.floats())
    d = X.shape[1]
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=1, max_size=30))
    block = draw(st.sampled_from([1, 2, 3, 7, 64, 1 << 16]))
    return model, np.array(rows, dtype=float).reshape(-1, d), block


def _single_leaf_forest():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    model = fit_tree_ensemble(X, np.full(3, 1.5), TreeParams(n_estimators=3, max_depth=4))
    return model, np.array([[np.nan, np.inf]]), 1


@settings(max_examples=200, deadline=None)
@given(case=_forest_queries())
@example(case=_single_leaf_forest()).via("single-leaf trees, one NaN/inf row")
@example(case=(fit_tree_ensemble(np.eye(3), np.arange(3.0), TreeParams(n_estimators=0)),
               np.array([[np.nan, -np.inf, 0.0]]), 1)).via("no trees")
def test_packed_predict_equals_the_reference_walk_bit_for_bit(case):
    model, Q, block = case
    with mock.patch.object(surrogate, "_PREDICT_BLOCK", block):
        got = model.predict(Q)
    assert got.tobytes() == _reference_predict(model, Q).tobytes()
    for q in Q[:3, None, :]:  # one row at a time
        assert model.predict(q).tobytes() == _reference_predict(model, q).tobytes()


def test_a_forest_of_40_trees_predicts_the_tree_order_sum_across_block_boundaries(monkeypatch):
    X, y = _noisy_quadratic(3, n=80)
    model = fit_tree_ensemble(X, y, TreeParams(n_estimators=40, max_depth=6, seed=1))
    Q = _noisy_quadratic(4, n=50)[0]
    whole = model.predict(Q)
    assert whole.tobytes() == _reference_predict(model, Q).tobytes()
    monkeypatch.setattr(surrogate, "_PREDICT_BLOCK", 40 * 4)  # blocks of 4 rows, the last of 2
    assert model.predict(Q).tobytes() == whole.tobytes()
    # one row per block, as a one-row predict routes it
    monkeypatch.setattr(surrogate, "_PREDICT_BLOCK", 1)
    assert model.predict(Q).tobytes() == whole.tobytes()


def test_predict_with_fewer_columns_than_the_trees_split_on_is_a_data_error():
    X, y = _noisy_quadratic(0, n=60)
    model = fit_tree_ensemble(X, y, TreeParams(n_estimators=4, max_depth=3))
    used = model.n_features
    assert used == 1 + max(int(t.feature.max()) for t in model.trees)
    with pytest.raises(DataError, match=f"has {used - 1} columns.*feature {used - 1}"):
        model.predict(X[:, :used - 1])
    # columns past the last one a tree splits on are never read
    wide = np.column_stack([X, np.full(len(X), np.nan)])
    assert model.predict(wide).tobytes() == model.predict(X).tobytes()


@pytest.mark.parametrize("damage, match", [
    ({"value": [1.0, 2.0]}, "lengths"),
    ({"feature": np.zeros(0, dtype=np.int32), "threshold": np.zeros(0),
      "left": np.zeros(0, dtype=np.int32), "right": np.zeros(0, dtype=np.int32),
      "value": np.zeros(0)}, "lengths"),
    ({"left": [0, -1, -1]}, "node 0 .*children 0 and 2"),  # a cycle
    ({"right": [0, -1, -1]}, "node 0"),
    ({"left": [3, -1, -1]}, "node 0"),
    ({"feature": [0, -2, -1]}, "node 1 has feature -2"),
])
def test_a_damaged_tree_is_a_data_error(damage, match):
    tree = surrogate.RegressionTree(
        feature=np.array([0, -1, -1], dtype=np.int32), threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32), right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([1.5, 1.0, 2.0]))
    assert surrogate.TreeEnsemble([tree], 0.0).predict(np.array([[0.0], [1.0]])).tolist() == [
        1.0, 2.0]
    for name, arr in damage.items():
        setattr(tree, name, np.asarray(arr))
    with pytest.raises(DataError, match=match):
        surrogate.TreeEnsemble([tree], 0.0)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=600))
def test_node_mean_from_the_shared_sum_is_numpys_mean(values):
    a = np.array(values)
    assert np.float64(a.sum() / len(a)).tobytes() == a.mean().tobytes()


def test_sort_with_order_is_a_stable_sort_when_packed_and_when_not():
    key = np.random.default_rng(1).integers(0, 5, size=(3, 50))
    expect = np.argsort(key, axis=1, kind="stable")
    for bound in (5, 1 << 60):  # 50 positions take 6 bits: 5 << 6 fits 63 bits, 2**66 not
        ordered, order = _sort_with_order(key, bound)
        assert (order == expect).all()
        assert (ordered == np.take_along_axis(key, expect, axis=1)).all()


@pytest.mark.parametrize("weighted", [False, True])
def test_feature_draws_are_distinct_and_all_d_when_k_is_d(weighted):
    rng = np.random.default_rng(5)
    for d in range(1, 14):
        log_w = np.log(rng.uniform(1e-3, 1e3, size=d)) if weighted else None
        u = rng.random((200, d))
        for k in range(1, d + 1):
            drawn = _draw_features(u, k, log_w)
            assert drawn.shape == (200, k)
            assert all(len(set(row)) == k for row in drawn.tolist())
        assert (np.sort(_draw_features(u, d, log_w), axis=1) == np.arange(d)).all()


def test_first_weighted_pick_is_proportional_to_the_weights():
    w = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 0.5])
    p = w / w.sum()
    n = 20000
    drawn = _draw_features(np.random.default_rng(3).random((n, len(w))), 3, np.log(p))
    counts = np.bincount(drawn[:, 0], minlength=len(w))
    # within 4 binomial standard deviations of n * p for every feature
    assert (np.abs(counts - n * p) <= 4 * np.sqrt(n * p * (1 - p))).all(), counts


# sha256 of save_surrogate's JSON, recorded from the level-wise builder
_GOLDEN_DIGESTS = {
    "bagged_embedding": "7a9902ae829bd357cd0cfc1ea1b6e747ef958496748b9ac6cccaba0aa7bc401b",
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_DIGESTS))
def test_trained_surrogate_json_matches_the_golden_digest(case, tmp_path):
    from hpcmobo.ingest import preprocess_fit
    from hpcmobo.synthgen import DURATION_PAIRS, SyntheticSpec, generate

    table, _ = generate(SyntheticSpec(n_jobs=200, n_noise_features=3, seed=11))
    processed, _ = preprocess_fit(table, DURATION_PAIRS)
    model = train_objective_surrogate(processed, "runtime_seconds", use_embedding=True,
                                      params=TreeParams(n_estimators=12, max_depth=8),
                                      mask_epochs=60, seed=3)
    path = tmp_path / "model.json"
    save_surrogate(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_DIGESTS[case]


def _reference_json(model) -> str:
    """The text save_surrogate wrote as one string before it streamed trees."""
    return json.dumps({
        "target": model.target,
        "feature_names": model.feature_names,
        "scaler_mean": model.scaler.mean.tolist(),
        "scaler_std": model.scaler.std.tolist(),
        "design_feature": model.design_feature,
        "design_bounds": list(model.design_bounds),
        "mask": None if model.mask is None else {
            "theta": model.mask.theta.tolist(),
            "readout_w": model.mask.readout_w.tolist(),
            "readout_b": model.mask.readout_b,
        },
        "ensemble": {
            "mode": "bagged",
            "base_value": model.ensemble.base_value,
            "learning_rate": 0.0,
            "trees": [surrogate._tree_to_dict(t) for t in model.ensemble.trees],
        },
    }, sort_keys=True)


# names that would break a writer which splices or splits rendered text
_names = st.one_of(st.text(max_size=8),
                   st.sampled_from(['"trees": [', '"trees": []', 'a"b', "c\\d", "été",
                                    "日本", '\\"}, "', "line\nbreak"]))


@st.composite
def _models(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(n, d))
    # a constant target grows single-leaf trees; no trees write "trees": []
    y = np.full(n, 2.5) if draw(st.booleans()) else rng.normal(size=n)
    params = draw(st.sampled_from([TreeParams(n_estimators=3, max_depth=3),
                                   TreeParams(n_estimators=0)]))
    mask = None
    if draw(st.booleans()):
        mask = AttentiveMask(theta=rng.normal(size=d), readout_w=rng.normal(size=d),
                             readout_b=float(rng.normal()))
    return SurrogateModel(
        target=draw(_names),
        feature_names=draw(st.lists(_names, min_size=d, max_size=d)),
        scaler=FeatureScaler(mean=rng.normal(size=d), std=rng.uniform(0.5, 2, size=d)),
        ensemble=fit_tree_ensemble(X, y, params),
        mask=mask,
        design_feature=draw(_names),
        design_bounds=(1, draw(st.integers(1, 1024))),
    )


@settings(max_examples=80, deadline=None)
@given(_models())
@example(SurrogateModel(
    target='"trees": [', feature_names=['"trees": [{"x": 1}], "y": ['],
    scaler=FeatureScaler(mean=np.zeros(1), std=np.ones(1)),
    ensemble=fit_tree_ensemble(np.zeros((3, 1)), np.ones(3), TreeParams(n_estimators=0)),
    design_feature="é\\\"")).via("a zero-tree model with hostile names")
def test_streamed_model_bytes_equal_the_one_shot_json(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_surrogate(model, path)
    assert path.read_bytes() == _reference_json(model).encode("utf-8")


def test_a_model_file_whose_ensemble_is_not_bagged_is_a_data_error(tmp_path):
    model = train_objective_surrogate(_toy_table(), "runtime",
                                      params=TreeParams(n_estimators=2, max_depth=2), seed=0)
    path = tmp_path / "runtime_model.json"
    save_surrogate(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["ensemble"]["mode"] = "boosted"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=r"runtime_model\.json holds a 'boosted' ensemble"):
        load_surrogate(path)


@pytest.mark.parametrize("field", ["feature", "left", "right"])
def test_a_model_file_with_a_tree_index_past_its_integer_type_is_a_data_error(tmp_path,
                                                                              field):
    # raised OverflowError, which no caller caught
    model = train_objective_surrogate(_toy_table(), "runtime",
                                      params=TreeParams(n_estimators=2, max_depth=2), seed=0)
    path = tmp_path / "runtime_model.json"
    save_surrogate(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["ensemble"]["trees"][0][field][0] = 2 ** 70
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=r"unreadable surrogate model .*runtime_model\.json"):
        load_surrogate(path)


@pytest.mark.parametrize("edit", [
    {"scaler_std": 5e-324},
    {"scaler_std": 1e-308},
    {"scaler_mean": 1.7e308, "scaler_std": 0.5},
    {"scaler_mean": -1e308, "scaler_std": 1.0, "theta": [10.0, -10.0]},
], ids=["subnormal_std", "tiny_normal_std", "mean_at_the_limit", "mask_past_a_float"])
def test_a_model_file_that_scales_a_finite_feature_past_a_float_is_a_data_error(tmp_path,
                                                                                edit):
    # each passed load_surrogate's checks, and predicting raised numpy's
    # overflow RuntimeWarning; the last one overflows only in the mask's
    # reweighting, 1e308 * 2
    table = _toy_table()
    model = train_objective_surrogate(table, "runtime", use_embedding=True,
                                      params=TreeParams(n_estimators=2, max_depth=2), seed=0)
    path = tmp_path / "runtime_model.json"
    save_surrogate(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    for field, value in edit.items():
        if field == "theta":
            payload["mask"]["theta"] = value
        else:
            payload[field] = [value] * len(payload[field])
    path.write_text(json.dumps(payload), encoding="utf-8")
    loaded = load_surrogate(path)
    with pytest.raises(DataError, match=r"surrogate 'runtime' scales feature '(x|num_nodes_alloc)' "
                                        r"of row \d+ from .* to -?(inf|nan), which is not finite"):
        loaded.predict(table.numeric_matrix(model.feature_names))


def test_saving_a_forest_holds_about_one_trees_text(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1000, 4))
    ensemble = fit_tree_ensemble(X, rng.normal(size=1000), TreeParams(n_estimators=100,
                                                                       max_depth=10))
    model = SurrogateModel(target="y", feature_names=["a", "b", "c", "d"],
                           scaler=FeatureScaler(mean=np.zeros(4), std=np.ones(4)),
                           ensemble=ensemble)
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        save_surrogate(model, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # rendering the whole forest at once held about 6x the bytes written
    assert peak < 0.25 * path.stat().st_size

