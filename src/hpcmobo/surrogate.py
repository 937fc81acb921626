"""Objective predictors: regression-tree ensembles (bagged or boosted) plus
the MAPE accuracy metric and the trained-surrogate bundle used by the
optimizer.

One tree implementation serves both modes. Splits greedily minimize the
summed squared error of the two children; candidate thresholds are midpoints
between consecutive distinct sorted values (the upper value when the midpoint
of two adjacent floats rounds down to the lower one, so no child is empty),
and fits are independent of row order within a node. Each node scores all
its candidate features in one 2-D pass (one stable argsort and one prefix
sum per column, taken together). Attention weights that steer the feature
subsampling are validated and normalized once per fit, and each split draws
its weighted subset with numpy's own without-replacement algorithm minus its
per-call checks.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import DataError, JobTable, NumericalError
from .embedding import AttentiveMask, embed, train_mask

log = logging.getLogger(__name__)


@dataclass
class TreeParams:
    """Table defaults: bagged 100 x depth 10; boosted 100 x depth 6, lr 0.1."""

    mode: str = "bagged"
    n_estimators: int = 100
    max_depth: int = 10
    learning_rate: float = 0.1
    min_samples_split: int = 2
    bootstrap: bool = True
    feature_sample: str = "sqrt"  # "sqrt" or "all"; boosted mode always uses all
    seed: int = 0

    @classmethod
    def boosted(cls, **kw) -> "TreeParams":
        base = dict(mode="boosted", n_estimators=100, max_depth=6, learning_rate=0.1)
        base.update(kw)
        return cls(**base)


@dataclass
class RegressionTree:
    """Flat preorder node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if len(rows) == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            go_left = X[rows, f] < self.threshold[node]
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out


class _TreeBuilder:
    def __init__(self, X, y, max_depth, min_samples_split, n_sub, rng, weights):
        self.X = X
        self.y = y
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.n_sub = n_sub
        self.rng = rng
        self.weights = weights
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def build(self, idx: np.ndarray) -> RegressionTree:
        self._grow(idx, 0)
        return RegressionTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=float),
        )

    def _emit(self, feat: int, thr: float, val: float) -> int:
        node = len(self.feature)
        self.feature.append(feat)
        self.threshold.append(thr)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(val)
        return node

    def _grow(self, idx: np.ndarray, depth: int) -> int:
        ysub = self.y[idx]
        total = ysub.sum()
        mean = float(total / len(idx))  # what ysub.mean() computes, bit for bit
        if depth >= self.max_depth or len(idx) < self.min_samples_split:
            return self._emit(-1, 0.0, mean)
        split = self._best_split(idx, ysub, total)
        if split is None:
            return self._emit(-1, 0.0, mean)
        feat, thr, go_left = split
        node = self._emit(feat, thr, mean)
        self.left[node] = self._grow(idx[go_left], depth + 1)
        self.right[node] = self._grow(idx[~go_left], depth + 1)
        return node

    def _candidate_features(self, d: int) -> np.ndarray | list[int]:
        k = min(self.n_sub, d)
        if self.weights is not None:
            return _weighted_choice(self.rng, self.weights, k)
        if k == d:
            return np.arange(d)
        return self.rng.choice(d, size=k, replace=False)

    def _best_split(self, idx: np.ndarray, ysub: np.ndarray, total: float):
        """Best (feature, threshold, rows going left) over the candidate
        features, or None. Every candidate column is scored in one 2-D pass;
        each column's prefix sums and SSEs are those a per-column loop would
        compute, so the chosen split is the same bit for bit."""
        n = len(idx)
        total2 = float(ysub @ ysub)
        sse_parent = total2 - total * total / n
        if sse_parent <= 1e-12 * max(1.0, total2):
            return None  # node already pure
        feats = self._candidate_features(self.X.shape[1])
        cols = np.arange(len(feats))
        V = self.X[idx][:, feats]
        order = V.argsort(axis=0, kind="stable")
        vs = V[order, cols]
        ys = ysub[order]
        ls = ys.cumsum(axis=0)[:-1]  # left sums for left sizes 1..n-1
        ls2 = (ys * ys).cumsum(axis=0)[:-1]
        kn = np.arange(1.0, n)[:, None]
        rn = n - kn
        sse = (ls2 - ls * ls / kn) + ((total2 - ls2) - (total - ls) ** 2 / rn)
        # no threshold between equal values; a column without any gets -inf gains
        sse[vs[1:] == vs[:-1]] = np.inf
        j = sse.argmin(axis=0)  # the first minimum among real boundaries
        gains = (sse_parent - sse[j, cols]).tolist()
        tol = 1e-12 * max(1.0, sse_parent)
        best_gain = 0.0
        best = None
        for c, gain in enumerate(gains):
            if gain > best_gain + tol:
                best_gain = gain
                best = c
        if best is None:
            return None
        k = j[best] + 1
        lo, hi = vs[k - 1, best], vs[k, best]
        thr = float((lo + hi) / 2.0)
        if thr <= lo:  # adjacent floats: the midpoint rounds down to lo
            thr = float(hi)
        return int(feats[best]), thr, V[:, best] < thr


def _weighted_choice(rng: np.random.Generator, p: list[float], k: int) -> list[int]:
    """rng.choice(len(p), size=k, replace=False, p=p), without numpy's
    per-call validation of p: fit_tree_ensemble checks the weights once per
    fit (finite, positive, normalized).

    This is numpy's algorithm on the same random stream. Each round draws one
    uniform per missing index, inverts the CDF of the weights not yet drawn
    (cumulative sums divided by their total, then the first entry above each
    uniform), and keeps the new indices in first-occurrence order. Drawn
    indices have zero weight, so every round adds at least one. Plain floats
    do the same IEEE sums and divisions in the same order as numpy's cumsum,
    at half the call cost for the dozen or so weights of a split.
    """
    p = list(p)
    found: list[int] = []
    while len(found) < k:
        x = rng.random(k - len(found)).tolist()
        cdf = list(itertools.accumulate(p))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        for u in x:
            i = bisect.bisect_right(cdf, u)
            if i not in found:
                found.append(i)
        for i in found:
            p[i] = 0.0
    return found


@dataclass
class TreeEnsemble:
    trees: list[RegressionTree]
    mode: str
    base_value: float
    learning_rate: float
    params: TreeParams

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataError("prediction input must be 2-D")
        if not self.trees:
            return np.full(len(X), self.base_value)
        acc = np.zeros(len(X))
        for tree in self.trees:
            acc += tree.predict(X)
        if self.mode == "bagged":
            return acc / len(self.trees)
        return self.base_value + self.learning_rate * acc

    def train_mse_per_tree(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-tree training MSE (bagged mode), for the variance-reduction check."""
        return np.array([float(np.mean((t.predict(X) - y) ** 2)) for t in self.trees])


def fit_tree_ensemble(X: np.ndarray, y: np.ndarray, params: TreeParams | None = None,
                      feature_weights: np.ndarray | None = None) -> TreeEnsemble:
    """Fit a bagged or boosted regression-tree ensemble.

    feature_weights, when given, bias the per-split feature subsampling
    (bagged mode); this is how attention masks steer trees, which are
    otherwise invariant to per-column rescaling. They must be finite and
    positive, one per column, and are validated and normalized once here.
    """
    params = params or TreeParams()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DataError("X must be a 2-D matrix")
    n, d = X.shape
    if n < 2:
        raise DataError(f"need at least 2 rows to fit, got {n}")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise DataError("training data must be finite")
    weights = None
    if feature_weights is not None:
        # checked once here, not at every split; a sum that overflows leaves
        # normalized weights of zero
        w = np.asarray(feature_weights, dtype=float)
        if w.shape == (d,) and (np.isfinite(w) & (w > 0)).all():
            weights = w / w.sum()
        if weights is None or not (weights > 0).all():
            raise DataError("feature_weights must be finite and positive "
                            "with one entry per column")
        weights = weights.tolist()

    seeds = np.random.SeedSequence(params.seed).spawn(params.n_estimators)
    if params.mode == "bagged":
        n_sub = d if params.feature_sample == "all" else max(1, math.ceil(math.sqrt(d)))
        trees = []
        for ss in seeds:
            rng = np.random.default_rng(ss)
            idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
            builder = _TreeBuilder(X, y, params.max_depth, params.min_samples_split,
                                   n_sub, rng, weights)
            trees.append(builder.build(idx))
        return TreeEnsemble(trees, "bagged", float(y.mean()), 0.0, params)
    if params.mode == "boosted":
        base = float(y.mean())
        pred = np.full(n, base)
        trees = []
        for ss in seeds:
            residual = y - pred
            if float(np.max(np.abs(residual))) <= 1e-12 * max(1.0, float(np.abs(y).max())):
                break  # constant target: base-value-only model
            rng = np.random.default_rng(ss)
            builder = _TreeBuilder(X, residual, params.max_depth,
                                   params.min_samples_split, d, rng, None)
            tree = builder.build(np.arange(n))
            trees.append(tree)
            pred = pred + params.learning_rate * tree.predict(X)
        return TreeEnsemble(trees, "boosted", base, params.learning_rate, params)
    raise DataError(f"unknown ensemble mode {params.mode!r}")


def mape(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute percentage error; zero-valued truths are excluded (count
    logged) since their relative error is undefined."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    keep = y_true != 0
    n_excluded = int((~keep).sum())
    if n_excluded:
        log.warning("mape: excluded %d zero-valued targets", n_excluded)
    if not keep.any():
        raise NumericalError("mape undefined: all target values are zero")
    return float(np.mean(np.abs(y_true[keep] - y_pred[keep]) / np.abs(y_true[keep])))


@dataclass
class FeatureScaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "FeatureScaler":
        X = np.asarray(X, dtype=float)
        std = X.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return cls(mean=X.mean(axis=0), std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.std


@dataclass
class SurrogateModel:
    """Frozen per-objective predictor: scaler -> optional attentive mask ->
    tree ensemble. Records the design-variable bounds observed in training."""

    target: str
    feature_names: list[str]
    scaler: FeatureScaler
    ensemble: TreeEnsemble
    mask: AttentiveMask | None = None
    design_feature: str = "num_nodes_alloc"
    design_bounds: tuple[int, int] = (1, 1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != len(self.feature_names):
            raise DataError(
                f"surrogate {self.target!r} expects {len(self.feature_names)} "
                f"features, got {X.shape[1]}"
            )
        z = self.scaler.transform(X)
        if self.mask is not None:
            z = embed(self.mask, z)
        return self.ensemble.predict(z)


def surrogate_features(table: JobTable) -> list[str]:
    """Feature columns for surrogate training: feature-role columns plus the
    design variable (node count is itself an input to both predictors)."""
    names = [c.name for c in table.columns if c.role == "feature"]
    names.append(table.design_column().name)
    return names


def training_data(table: JobTable, target: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Feature names, feature matrix and target vector of a fully
    preprocessed table."""
    features = surrogate_features(table)
    if target in features:
        raise DataError(f"target {target!r} cannot also be a feature")
    X = table.numeric_matrix(features)
    y = table.numeric_matrix([target])[:, 0]
    if np.isnan(X).any() or np.isnan(y).any():
        raise DataError("surrogate training requires a fully preprocessed table")
    return features, X, y


def fit_feature_mask(X: np.ndarray, y: np.ndarray, epochs: int = 400, lr: float = 0.05,
                     seed: int = 0) -> tuple[FeatureScaler, AttentiveMask]:
    """Fit the feature scaler and train the attentive mask on standardized
    features against the standardized target: the attention weights do not
    depend on the target's scale, so one learning rate suits any target."""
    scaler = FeatureScaler.fit(X)
    y_std = float(y.std()) or 1.0
    mask = train_mask(scaler.transform(X), (y - y.mean()) / y_std, epochs=epochs,
                      lr=lr, seed=seed)
    return scaler, mask


def train_objective_surrogate(
    table: JobTable,
    target: str,
    use_embedding: bool = True,
    params: TreeParams | None = None,
    mask_epochs: int = 400,
    mask_lr: float = 0.05,
    seed: int = 0,
) -> SurrogateModel:
    """Train one objective predictor from a fully preprocessed table.

    With use_embedding, an attentive mask is trained first (see
    `fit_feature_mask`); the mask both reweights the inputs and biases the
    tree feature subsampling toward high-attention columns.
    """
    features, X, y = training_data(table, target)
    if use_embedding:
        scaler, mask = fit_feature_mask(X, y, mask_epochs, mask_lr, seed)
        Z = embed(mask, scaler.transform(X))
        weights = mask.m
    else:
        scaler, mask, weights = FeatureScaler.fit(X), None, None
        Z = scaler.transform(X)
    params = replace(params or TreeParams(), seed=seed)
    ensemble = fit_tree_ensemble(Z, y, params, feature_weights=weights)
    design = table.design_column().name
    nodes = table.numeric_matrix([design])[:, 0]
    return SurrogateModel(
        target=target,
        feature_names=features,
        scaler=scaler,
        ensemble=ensemble,
        mask=mask,
        design_feature=design,
        design_bounds=(int(nodes.min()), int(nodes.max())),
    )


def _tree_to_dict(tree: RegressionTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from_dict(d: dict) -> RegressionTree:
    return RegressionTree(
        feature=np.asarray(d["feature"], dtype=np.int32),
        threshold=np.asarray(d["threshold"], dtype=float),
        left=np.asarray(d["left"], dtype=np.int32),
        right=np.asarray(d["right"], dtype=np.int32),
        value=np.asarray(d["value"], dtype=float),
    )


def save_surrogate(model: SurrogateModel, path: str | Path) -> None:
    payload = {
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
            "mode": model.ensemble.mode,
            "base_value": model.ensemble.base_value,
            "learning_rate": model.ensemble.learning_rate,
            "trees": [_tree_to_dict(t) for t in model.ensemble.trees],
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_surrogate(path: str | Path) -> SurrogateModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    mask = None
    if payload["mask"] is not None:
        mask = AttentiveMask(
            theta=np.asarray(payload["mask"]["theta"], dtype=float),
            readout_w=np.asarray(payload["mask"]["readout_w"], dtype=float),
            readout_b=float(payload["mask"]["readout_b"]),
        )
    ens = payload["ensemble"]
    ensemble = TreeEnsemble(
        trees=[_tree_from_dict(t) for t in ens["trees"]],
        mode=ens["mode"],
        base_value=float(ens["base_value"]),
        learning_rate=float(ens["learning_rate"]),
        params=TreeParams(mode=ens["mode"]),
    )
    return SurrogateModel(
        target=payload["target"],
        feature_names=list(payload["feature_names"]),
        scaler=FeatureScaler(
            mean=np.asarray(payload["scaler_mean"], dtype=float),
            std=np.asarray(payload["scaler_std"], dtype=float),
        ),
        ensemble=ensemble,
        mask=mask,
        design_feature=payload["design_feature"],
        design_bounds=tuple(payload["design_bounds"]),
    )
