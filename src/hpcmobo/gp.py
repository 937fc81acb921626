"""Gaussian-process regression with a squared-exponential ARD kernel.

Hyperparameters (per-dimension lengthscales, signal variance, noise variance)
are fit by maximizing the log marginal likelihood with a gradient-free
multi-start coordinate search in log space. A refit may instead be
warm-started from an earlier fit (`warm`): one coordinate search from that
fit's optimum, rescaled to the new data, replaces the cold restarts; a fit
without `warm` is the cold multi-start search. Each LML evaluation is the
Cholesky recipe of Rasmussen & Williams (2006), Algorithm 2.1. The kernel's
exponential exp(-d^2 / 2) depends on the lengthscales only, so the search
recomputes it on lengthscale steps and reuses it across signal and noise
steps. The factor and solve call LAPACK's potrf/potrs directly; fit_gp checks
its inputs for finite values once, at entry. The Cholesky factor of
K + (noise + jitter) I is cached so posterior queries are O(n) after the
one-time solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import get_lapack_funcs

from .core import DataError, NumericalError

_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4)
_VAR_SNAP = 1e-10  # posterior variances below this fraction of the prior are numerical noise
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def _sq_dists(A: np.ndarray, B: np.ndarray, ls: np.ndarray) -> np.ndarray:
    a = A / ls
    a2 = (a * a).sum(1)
    if B is A:
        # the squared norms are shared, but a @ b.T stays on two buffers: on
        # one buffer numpy calls syrk, which need not match gemm bit for bit
        b, b2 = a.copy(), a2
    else:
        b = B / ls
        b2 = (b * b).sum(1)
    return np.maximum(a2[:, None] + b2[None, :] - 2.0 * (a @ b.T), 0.0)


def _kernel(A: np.ndarray, B: np.ndarray, ls: np.ndarray, sf2: float) -> np.ndarray:
    return sf2 * np.exp(-0.5 * _sq_dists(A, B, ls))


def _unit_kernel(Z: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """exp(-d^2 / 2) over the training inputs, so that sf2 * E equals
    _kernel(Z, Z, ls, sf2) bit for bit. Fortran order lets potrf factor
    sf2 * E in place."""
    return np.exp(-0.5 * _sq_dists(Z, Z, ls), order="F")


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


def _factor(E: np.ndarray, sf2: float, noise: float, base_jitter: float):
    """Lower Cholesky factor of sf2 * E + (noise + jitter) I with the smallest
    jitter in _JITTERS, at or above base_jitter, that makes the matrix
    positive definite. Returns (L, jitter), or (None, None) if none does.
    The upper triangle of L keeps the matrix's entries (potrf's clean=False)."""
    n = len(E)
    for jitter in _JITTERS:
        if jitter < base_jitter:
            continue
        # rebuilt per attempt: a failed in-place potrf leaves K half-factored
        K = sf2 * E
        K.flat[:: n + 1] += noise + jitter
        L, info = _POTRF(K, lower=True, overwrite_a=True, clean=False)
        if info == 0:
            return L, jitter
    return None, None


def _lml(E: np.ndarray, yc: np.ndarray, sf2, sn2, base_jitter) -> float:
    L, _ = _factor(E, sf2, sn2, base_jitter)
    if L is None:
        return -math.inf
    alpha, _ = _POTRS(L, yc, lower=True)
    return float(
        -0.5 * (yc @ alpha) - np.log(L.diagonal()).sum() - 0.5 * len(yc) * math.log(2 * math.pi)
    )


def fit_gp(X: np.ndarray, y: np.ndarray, jitter: float = 1e-10,
           noise_var: float | None = None, restarts: int = 8,
           warm: GaussianProcess | None = None) -> GaussianProcess:
    """Fit GP hyperparameters by multi-start coordinate search on the LML.

    noise_var fixes the noise level when given (0.0 for a noise-free
    interpolator); otherwise it is searched alongside the kernel parameters.
    With `warm`, an earlier fit on inputs of the same dimension, one search
    starts from its optimum instead of the `restarts` cold starts: its
    lengthscales are rescaled from its input standardization to this one's
    and clamped to [1e-3, 1e3], and its signal and noise variances are
    clamped into this fit's bounds (a fixed noise_var still wins).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DataError(f"GP targets must be a 1-D array, got shape {y.shape}")
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

    fit_noise = noise_var is None
    sweeps = ((8.0, 4.0, 2.0), (2.0, 1.5), (1.25, 1.1))
    sf_lo, sf_hi = 1e-8 * y_var, 1e4 * y_var
    sn_lo, sn_hi = 1e-12 * y_var, y_var
    if warm is not None:
        if warm.X.shape[1] != d:
            raise DataError(
                f"warm-start GP has input dimension {warm.X.shape[1]}, "
                f"but the training inputs have {d}"
            )
        starts = [(
            np.clip(warm.lengthscales * warm.x_std / x_std, 1e-3, 1e3),
            min(max(warm.signal_var, sf_lo), sf_hi),
            min(max(warm.noise_var, sn_lo), sn_hi) if fit_noise else noise_var,
        )]
    else:
        # spread of starting points: lengthscale scale set by pairwise distances
        dists = np.sqrt(_sq_dists(Z, Z, np.ones(d)))
        pos = dists[dists > 0]
        ls_scale = float(np.median(pos)) if pos.size else 1.0
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

    best = None
    best_lml = -math.inf
    trace: list[float] = []  # accepted-step trajectory of the winning restart
    for ls0, sf0, sn0 in starts:
        ls = ls0.copy()
        sf2 = sf0
        sn2 = sn0
        E = _unit_kernel(Z, ls)  # moves with ls; signal and noise steps reuse it
        cur = _lml(E, yc, sf2, sn2, jitter)
        local: list[float] = [cur] if math.isfinite(cur) else []
        for factors in sweeps:
            for coord in range(d + 1 + (1 if fit_noise else 0)):
                for f in factors:
                    for mult in (f, 1.0 / f):
                        ls_t, sf_t, sn_t, E_t = ls, sf2, sn2, E
                        if coord < d:
                            ls_t = ls.copy()
                            ls_t[coord] = min(max(ls_t[coord] * mult, 1e-3), 1e3)
                            E_t = _unit_kernel(Z, ls_t)
                        elif coord == d:
                            sf_t = min(max(sf2 * mult, sf_lo), sf_hi)
                        else:
                            sn_t = min(max(sn2 * mult, sn_lo), sn_hi)
                        cand = _lml(E_t, yc, sf_t, sn_t, jitter)
                        if cand > cur:
                            ls, sf2, sn2, E, cur = ls_t, sf_t, sn_t, E_t, cand
                            local.append(cur)
        if cur > best_lml:
            best_lml = cur
            best = (ls, sf2, sn2, E)
            trace = local
    if best is None or not math.isfinite(best_lml):
        raise NumericalError("GP hyperparameter search found no valid configuration")

    ls, sf2, sn2, E = best
    L, used_jitter = _factor(E, sf2, sn2, jitter)
    if L is None:
        raise NumericalError(
            "GP kernel matrix is ill-conditioned even after jitter escalation to 1e-4"
        )
    alpha, _ = _POTRS(L, yc, lower=True)
    return GaussianProcess(
        lengthscales=ls, signal_var=sf2, noise_var=sn2,
        X=Z, y=yc, y_mean=y_mean, x_mean=x_mean, x_std=x_std,
        chol=(L, True), alpha=alpha, jitter=used_jitter,
        lml=best_lml, lml_trace=trace,
    )


def gp_posterior(gp: GaussianProcess, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and (latent) variance at the rows of a 2-D query via
    the cached Cholesky factor. Variances are clamped at zero; values within
    numerical noise of zero snap to exactly zero."""
    Xq = np.asarray(Xq, dtype=float)
    if Xq.ndim != 2:
        raise DataError(f"query must be 2-D (points x dimensions), got shape {Xq.shape}")
    if Xq.shape[1] != gp.X.shape[1]:
        raise DataError(
            f"query dimension {Xq.shape[1]} does not match training dimension "
            f"{gp.X.shape[1]}"
        )
    Zq = (Xq - gp.x_mean) / gp.x_std
    k_star = _kernel(gp.X, Zq, gp.lengthscales, gp.signal_var)
    mean = gp.y_mean + k_star.T @ gp.alpha
    L = gp.chol[0]
    v = solve_triangular(L, k_star, lower=True, check_finite=False)
    var = gp.signal_var - (v * v).sum(axis=0)
    var = np.maximum(var, 0.0)
    var[var < _VAR_SNAP * gp.signal_var] = 0.0
    return mean, var
