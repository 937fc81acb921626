"""Attentive feature-mask embedding.

A learnable per-feature attention vector m = d * softmax(theta) reweights
(standardized) features before a downstream regressor. The mask is trained by
full-batch gradient descent, at the fixed learning rate 0.05, on the squared
error of a linear readout over the masked features; all gradients are
analytic and checkable against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DataError, NumericalError

# the gradient-descent step size; the pipeline standardizes features and
# target before training, so one rate suits every target
_LR = 0.05


def mask_weights(theta: np.ndarray) -> np.ndarray:
    """Mean-one positive mask: d * softmax(theta)."""
    t = theta - theta.max()
    e = np.exp(t)
    return len(theta) * e / e.sum()


@dataclass(frozen=True)
class AttentiveMask:
    theta: np.ndarray
    readout_w: np.ndarray
    readout_b: float

    @property
    def m(self) -> np.ndarray:
        return mask_weights(self.theta)

    @property
    def dim(self) -> int:
        return len(self.theta)

    def save(self, path: str | Path, scaler_mean: np.ndarray,
             scaler_std: np.ndarray) -> None:
        """Write the mask and the feature scaler it was trained behind as
        JSON, for reading by people and other tools (`hpcmobo embed`)."""
        payload = {
            "d": self.dim,
            "theta": self.theta.tolist(),
            "readout_w": self.readout_w.tolist(),
            "readout_b": self.readout_b,
            "scaler_mean": list(map(float, scaler_mean)),
            "scaler_std": list(map(float, scaler_std)),
        }
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def embed(mask: AttentiveMask, X: np.ndarray) -> np.ndarray:
    """Elementwise reweighting e = m * x, row-wise. Not idempotent unless the
    mask is uniform."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mask.dim:
        raise DataError(
            f"embedding dimension mismatch: mask has d={mask.dim}, "
            f"input has {X.shape[1] if X.ndim == 2 else X.ndim} columns"
        )
    return X * mask.m


def _loss_and_grads(theta: np.ndarray, w: np.ndarray, b: float,
                    X: np.ndarray, y: np.ndarray):
    n, d = X.shape
    s = np.exp(theta - theta.max())
    s /= s.sum()
    m = d * s
    e = X * m
    r = e @ w + b - y
    loss = float(np.mean(r * r))
    grad_b = 2.0 * r.mean()
    grad_w = (2.0 / n) * (e.T @ r)
    g_m = (2.0 / n) * (X.T @ r) * w           # dloss/dm
    grad_theta = d * s * (g_m - float(g_m @ s))
    return loss, grad_theta, grad_w, grad_b


def train_mask(X: np.ndarray, y: np.ndarray, epochs: int, seed: int = 0,
               init_w: np.ndarray | None = None) -> AttentiveMask:
    """Fit theta and the linear readout by full-batch gradient descent at
    learning rate _LR for at most `epochs` epochs.

    Expects X standardized per column. theta starts at zero (uniform mask);
    the readout starts at small seeded values unless init_w is given. Training
    early-stops once the relative loss improvement over a 10-epoch window
    drops below 1e-6.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    theta = np.zeros(d)
    if init_w is None:
        w = np.random.default_rng(seed).normal(0.0, 0.01, size=d)
    else:
        w = np.asarray(init_w, dtype=float).copy()
    b = float(np.mean(y)) if n else 0.0

    window: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            loss, g_theta, g_w, g_b = _loss_and_grads(theta, w, b, X, y)
            if not math.isfinite(loss):
                raise NumericalError(f"mask training diverged: the readout's squared error "
                                     f"is {loss} at epoch {epoch}")
            theta = theta - _LR * g_theta
            w = w - _LR * g_w
            b = b - _LR * g_b
            window.append(loss)
            if len(window) > 10:
                window.pop(0)
                prev = window[0]
                # stop only on a stalled, non-worsening window; a worsening loss
                # keeps running so genuine divergence surfaces as non-finite
                if prev > 0 and 0.0 <= (prev - loss) / prev < 1e-6:
                    break
    return AttentiveMask(theta=theta, readout_w=w, readout_b=b)


def gradient_check(mask: AttentiveMask, X: np.ndarray, y: np.ndarray,
                   h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central finite
    differences at the given mask point. Intended for small instances."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = mask.theta.copy()
    w = mask.readout_w.copy()
    b = mask.readout_b
    _, g_theta, g_w, g_b = _loss_and_grads(theta, w, b, X, y)

    def loss_at(t, ww, bb):
        return _loss_and_grads(t, ww, bb, X, y)[0]

    worst = 0.0

    def check(analytic: float, plus: float, minus: float) -> None:
        nonlocal worst
        fd = (plus - minus) / (2 * h)
        denom = max(abs(analytic) + abs(fd), 1e-6)
        worst = max(worst, abs(analytic - fd) / denom)

    for j in range(len(theta)):
        dt = np.zeros_like(theta)
        dt[j] = h
        check(g_theta[j], loss_at(theta + dt, w, b), loss_at(theta - dt, w, b))
    for j in range(len(w)):
        dw = np.zeros_like(w)
        dw[j] = h
        check(g_w[j], loss_at(theta, w + dw, b), loss_at(theta, w - dw, b))
    check(g_b, loss_at(theta, w, b + h), loss_at(theta, w, b - h))
    return worst
