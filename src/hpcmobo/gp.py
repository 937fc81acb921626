"""Gaussian-process regression with a squared-exponential ARD kernel.

Hyperparameters (per-dimension lengthscales, signal variance, noise variance)
are fit by maximizing the log marginal likelihood with a gradient-free
multi-start coordinate search in log space. The Cholesky factor of
K + (noise + jitter) I is cached so posterior queries are O(n) after the
one-time solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .core import DataError, NumericalError

_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4)
_VAR_SNAP = 1e-10  # posterior variances below this fraction of the prior are numerical noise


def _sq_dists(A: np.ndarray, B: np.ndarray, ls: np.ndarray) -> np.ndarray:
    a = A / ls
    b = B / ls
    return np.maximum(
        (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T), 0.0
    )


def _kernel(A: np.ndarray, B: np.ndarray, ls: np.ndarray, sf2: float) -> np.ndarray:
    return sf2 * np.exp(-0.5 * _sq_dists(A, B, ls))


@dataclass
class GaussianProcess:
    lengthscales: np.ndarray
    signal_var: float
    noise_var: float
    X: np.ndarray               # standardized training inputs
    y: np.ndarray               # centered targets
    y_mean: float
    x_mean: np.ndarray
    x_std: np.ndarray
    chol: tuple = field(repr=False, default=None)
    alpha: np.ndarray = field(repr=False, default=None)
    jitter: float = 0.0
    lml: float = -math.inf
    lml_trace: list[float] = field(default_factory=list)

    def posterior(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return gp_posterior(self, Xq)


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (X - mean) / std, mean, std


def _try_factor(K: np.ndarray, noise: float, base_jitter: float):
    n = len(K)
    for jitter in _JITTERS:
        if jitter < base_jitter:
            continue
        try:
            factor = cho_factor(K + (noise + jitter) * np.eye(n), lower=True)
            return factor, jitter
        except np.linalg.LinAlgError:
            continue
    return None, None


def _lml(Z: np.ndarray, yc: np.ndarray, ls, sf2, sn2, base_jitter) -> float:
    K = _kernel(Z, Z, ls, sf2)
    factor, _ = _try_factor(K, sn2, base_jitter)
    if factor is None:
        return -math.inf
    alpha = cho_solve(factor, yc)
    L = factor[0]
    return float(
        -0.5 * (yc @ alpha) - np.log(np.diag(L)).sum() - 0.5 * len(yc) * math.log(2 * math.pi)
    )


def fit_gp(X: np.ndarray, y: np.ndarray, jitter: float = 1e-10,
           noise_var: float | None = None, restarts: int = 8) -> GaussianProcess:
    """Fit GP hyperparameters by multi-start coordinate search on the LML.

    noise_var fixes the noise level when given (0.0 for a noise-free
    interpolator); otherwise it is searched alongside the kernel parameters.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or len(X) != len(y):
        raise DataError(
            f"GP training inputs must be an (n, d) array with one row per target; "
            f"got shape {X.shape} for {len(y)} targets"
        )
    n, d = X.shape
    if n < 2:
        raise DataError(f"GP fitting needs at least 2 observations, got {n}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("GP training data must be finite")

    Z, x_mean, x_std = _standardize(X)
    y_mean = float(y.mean())
    yc = y - y_mean
    y_var = max(float(yc.var()), 1e-12)

    # spread of starting points: lengthscale scale set by pairwise distances
    if n > 1:
        dists = np.sqrt(_sq_dists(Z, Z, np.ones(d)))
        pos = dists[dists > 0]
        ls_scale = float(np.median(pos)) if pos.size else 1.0
    else:
        ls_scale = 1.0
    ls_factors = (0.1, 0.3, 1.0, 3.0)
    noise_fracs = (1e-6, 1e-2)
    starts = []
    for i in range(restarts):
        lf = ls_factors[i % len(ls_factors)]
        nf = noise_fracs[(i // len(ls_factors)) % len(noise_fracs)]
        starts.append((
            np.full(d, max(lf * ls_scale, 1e-3)),
            y_var,
            nf * y_var if noise_var is None else noise_var,
        ))

    fit_noise = noise_var is None
    sweeps = ((8.0, 4.0, 2.0), (2.0, 1.5), (1.25, 1.1))
    best = None
    best_lml = -math.inf
    trace: list[float] = []  # accepted-step trajectory of the winning restart
    for ls0, sf0, sn0 in starts:
        ls = ls0.copy()
        sf2 = sf0
        sn2 = sn0
        cur = _lml(Z, yc, ls, sf2, sn2, jitter)
        local: list[float] = [cur] if math.isfinite(cur) else []
        for factors in sweeps:
            for coord in range(d + 1 + (1 if fit_noise else 0)):
                for f in factors:
                    for mult in (f, 1.0 / f):
                        ls_t, sf_t, sn_t = ls.copy(), sf2, sn2
                        if coord < d:
                            ls_t[coord] = float(np.clip(ls_t[coord] * mult, 1e-3, 1e3))
                        elif coord == d:
                            sf_t = float(np.clip(sf_t * mult, 1e-8 * y_var, 1e4 * y_var))
                        else:
                            sn_t = float(np.clip(sn_t * mult, 1e-12 * y_var, y_var))
                        cand = _lml(Z, yc, ls_t, sf_t, sn_t, jitter)
                        if cand > cur:
                            ls, sf2, sn2, cur = ls_t, sf_t, sn_t, cand
                            local.append(cur)
        if cur > best_lml:
            best_lml = cur
            best = (ls, sf2, sn2)
            trace = local
    if best is None or not math.isfinite(best_lml):
        raise NumericalError("GP hyperparameter search found no valid configuration")

    ls, sf2, sn2 = best
    K = _kernel(Z, Z, ls, sf2)
    factor, used_jitter = _try_factor(K, sn2, jitter)
    if factor is None:
        raise NumericalError(
            "GP kernel matrix is ill-conditioned even after jitter escalation to 1e-4"
        )
    alpha = cho_solve(factor, yc)
    return GaussianProcess(
        lengthscales=ls, signal_var=sf2, noise_var=sn2,
        X=Z, y=yc, y_mean=y_mean, x_mean=x_mean, x_std=x_std,
        chol=factor, alpha=alpha, jitter=used_jitter,
        lml=best_lml, lml_trace=trace,
    )


def gp_posterior(gp: GaussianProcess, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and (latent) variance at query points via the cached
    Cholesky factor. Variances are clamped at zero; values within numerical
    noise of zero snap to exactly zero."""
    Xq = np.asarray(Xq, dtype=float)
    if Xq.ndim == 1:
        Xq = Xq[None, :] if len(Xq) == gp.X.shape[1] else Xq[:, None]
    if Xq.shape[1] != gp.X.shape[1]:
        raise DataError(
            f"query dimension {Xq.shape[1]} does not match training dimension "
            f"{gp.X.shape[1]}"
        )
    Zq = (Xq - gp.x_mean) / gp.x_std
    k_star = _kernel(gp.X, Zq, gp.lengthscales, gp.signal_var)
    mean = gp.y_mean + k_star.T @ gp.alpha
    L = gp.chol[0]
    v = solve_triangular(L, k_star, lower=True)
    var = gp.signal_var - (v * v).sum(axis=0)
    var = np.maximum(var, 0.0)
    var[var < _VAR_SNAP * gp.signal_var] = 0.0
    return mean, var
