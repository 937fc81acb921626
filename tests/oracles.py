"""Test oracles: helpers that only the tests call.

Each is an independent check of a program path, or a way to build its input:
a Monte-Carlo hypervolume against the exact sweep, central finite
differences against the mask's analytic gradients, and cell-for-cell table
construction and comparison.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from hpcmobo.core import ColumnSpec, DataError, JobTable
from hpcmobo.embedding import AttentiveMask, _loss_and_grads
from hpcmobo.pareto import ParetoFront, nondominated


def build_table(columns: Sequence[ColumnSpec], data: Mapping[str, list]) -> JobTable:
    """Assemble a JobTable from per-column value lists; None marks missing."""
    cells = []
    for spec in columns:
        if spec.name not in data:
            raise DataError(f"no data supplied for column {spec.name!r}")
        cells.append(list(data[spec.name]))
    return JobTable(tuple(columns), tuple(cells))


def tables_equal(a: JobTable, b: JobTable) -> bool:
    """Cell-for-cell equality; a missing (None) cell equals only a missing
    cell."""
    if a.columns != b.columns or a.n_rows != b.n_rows:
        return False
    for col_a, col_b in zip(a.cells, b.cells):
        for va, vb in zip(col_a, col_b):
            if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
                if not np.array_equal(np.asarray(va), np.asarray(vb)):
                    return False
            elif va != vb and not (va is None and vb is None):
                return False
    return True


def mc_hypervolume(front: ParetoFront | Sequence[Sequence[float]],
                   ref: Sequence[float], samples: int, seed: int) -> float:
    """Monte-Carlo hypervolume estimate: uniform points in the box spanned by
    the componentwise min of the front and `ref`; dominated fraction x area."""
    if samples < 1:
        raise DataError("samples must be >= 1")
    if not isinstance(front, ParetoFront):
        front = nondominated(front)
    ref = np.asarray(ref, dtype=float)
    pts = front.as_array()
    if len(pts) == 0:
        return 0.0
    lo = np.minimum(pts.min(axis=0), ref)
    box = ref - lo
    area = float(box[0] * box[1])
    if area <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    u = lo + rng.random((samples, 2)) * box
    dominated = _dominated_mask(pts, u)
    return float(dominated.mean() * area)


def _dominated_mask(front_pts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    # front sorted ascending x / descending y: the lowest front y among points
    # with x <= q_x is the y of the last such point
    xs = front_pts[:, 0]
    ys = front_pts[:, 1]
    pos = np.searchsorted(xs, queries[:, 0], side="right")
    has_left = pos > 0
    best_y = np.full(len(queries), math.inf)
    best_y[has_left] = ys[pos[has_left] - 1]
    return queries[:, 1] >= best_y


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
