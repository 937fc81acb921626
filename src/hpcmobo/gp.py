"""Gaussian-process regression over one input, with a squared-exponential kernel.

The optimizers model each objective as a function of one integer, the node
count, so inputs and queries are 1-D arrays. Hyperparameters (lengthscale,
signal variance, noise variance) are fit by maximizing the log marginal
likelihood with a gradient-free coordinate search in log space that steps
each of the three in turn. A cold fit searches from four starts: the
lengthscale at 0.1, 0.3, 1 or 3 times the median pairwise distance of the
standardized inputs, the signal variance at the target variance, and the
noise variance at 1e-6 of it (or at a fixed noise_var). A refit may instead
be warm-started from an earlier fit (`warm`): one coordinate search from
that fit's optimum, rescaled to the new data, replaces the four cold starts.
Each LML evaluation is the Cholesky recipe of Rasmussen & Williams (2006),
Algorithm 2.1. The kernel's exponential exp(-d^2 / 2) depends on the
lengthscale only, so the search recomputes it on lengthscale steps and
reuses it across signal and noise steps. The factor and solve call LAPACK's
potrf/potrs directly; fit_gp checks its inputs for finite values once, at
entry. The Cholesky factor of K + (noise + jitter) I is cached so posterior
queries are O(n) after the one-time solve.
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


def _sq_dists(a: np.ndarray, b: np.ndarray, ls: float) -> np.ndarray:
    # expanded as a^2 + b^2 - 2ab, not (a - b)^2, which rounds differently:
    # the GP golden values and the MOBO/SOBO reports keep their bits
    a, b = a / ls, b / ls
    return np.maximum((a * a)[:, None] + (b * b)[None, :] - 2.0 * np.multiply.outer(a, b), 0.0)


def _kernel(a: np.ndarray, b: np.ndarray, ls: float, sf2: float) -> np.ndarray:
    return sf2 * np.exp(-0.5 * _sq_dists(a, b, ls))


def _unit_kernel(z: np.ndarray, ls: float) -> np.ndarray:
    """exp(-d^2 / 2) over the training inputs, so that sf2 * E equals
    _kernel(z, z, ls, sf2) bit for bit. Fortran order lets potrf factor
    sf2 * E in place."""
    return np.exp(-0.5 * _sq_dists(z, z, ls), order="F")


@dataclass
class GaussianProcess:
    lengthscale: float
    signal_var: float
    noise_var: float
    x: np.ndarray               # standardized training inputs
    y: np.ndarray               # centered targets
    y_mean: float
    x_mean: float
    x_std: float
    chol: np.ndarray = field(repr=False)  # lower Cholesky factor
    alpha: np.ndarray = field(repr=False)
    jitter: float
    lml: float
    lml_trace: list[float]

    def telemetry(self) -> dict:
        """The fitted hyperparameters, LML and jitter, as a report records them."""
        return {"lengthscale": float(self.lengthscale), "signal_var": float(self.signal_var),
                "noise_var": float(self.noise_var), "lml": float(self.lml),
                "jitter": float(self.jitter)}


def _standardize(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    mean = float(x.mean())
    std = float(x.std())
    std = std if std > 0 else 1.0
    return (x - mean) / std, mean, std


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


def fit_gp(x: np.ndarray, y: np.ndarray, jitter: float = 1e-10,
           noise_var: float | None = None,
           warm: GaussianProcess | None = None) -> GaussianProcess:
    """Fit GP hyperparameters by multi-start coordinate search on the LML.

    x and y are 1-D arrays with one input per target. noise_var fixes the
    noise level when given (0.0 for a noise-free interpolator); otherwise it
    is searched alongside the kernel parameters. With `warm`, an earlier
    fit, one search starts from its optimum instead of the four cold starts:
    its lengthscale is rescaled from its input standardization to this
    one's and clamped to [1e-3, 1e3], and its signal and noise variances are
    clamped into this fit's bounds (a fixed noise_var still wins).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DataError(f"GP targets must be a 1-D array, got shape {y.shape}")
    if x.shape != y.shape:
        raise DataError(f"GP training inputs must be a 1-D array with one input per "
                        f"target; got shape {x.shape} for {len(y)} targets")
    n = len(x)
    if n < 2:
        raise DataError(f"GP fitting needs at least 2 observations, got {n}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("GP training data must be finite")

    z, x_mean, x_std = _standardize(x)
    y_mean = float(y.mean())
    yc = y - y_mean
    y_var = max(float(yc.var()), 1e-12)

    fit_noise = noise_var is None
    sweeps = ((8.0, 4.0, 2.0), (2.0, 1.5), (1.25, 1.1))
    sf_lo, sf_hi = 1e-8 * y_var, 1e4 * y_var
    sn_lo, sn_hi = 1e-12 * y_var, y_var
    if warm is not None:
        starts = [(
            min(max(warm.lengthscale * warm.x_std / x_std, 1e-3), 1e3),
            min(max(warm.signal_var, sf_lo), sf_hi),
            min(max(warm.noise_var, sn_lo), sn_hi) if fit_noise else noise_var,
        )]
    else:
        # spread of starting points: lengthscale scale set by pairwise distances
        dists = np.sqrt(_sq_dists(z, z, 1.0))
        pos = dists[dists > 0]
        ls_scale = float(np.median(pos)) if pos.size else 1.0
        starts = [(max(lf * ls_scale, 1e-3), y_var,
                   1e-6 * y_var if noise_var is None else noise_var)
                  for lf in (0.1, 0.3, 1.0, 3.0)]
    coords = ("lengthscale", "signal", "noise") if fit_noise else ("lengthscale", "signal")

    best = None
    best_lml = -math.inf
    trace: list[float] = []  # accepted-step trajectory of the winning start
    for ls, sf2, sn2 in starts:
        E = _unit_kernel(z, ls)  # moves with ls; signal and noise steps reuse it
        cur = _lml(E, yc, sf2, sn2, jitter)
        local: list[float] = [cur] if math.isfinite(cur) else []
        for factors in sweeps:
            for coord in coords:
                for f in factors:
                    for mult in (f, 1.0 / f):
                        ls_t, sf_t, sn_t, E_t = ls, sf2, sn2, E
                        if coord == "lengthscale":
                            ls_t = min(max(ls * mult, 1e-3), 1e3)
                            E_t = _unit_kernel(z, ls_t)
                        elif coord == "signal":
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
        lengthscale=ls, signal_var=sf2, noise_var=sn2,
        x=z, y=yc, y_mean=y_mean, x_mean=x_mean, x_std=x_std,
        chol=L, alpha=alpha, jitter=used_jitter,
        lml=best_lml, lml_trace=trace,
    )


def gp_posterior(gp: GaussianProcess, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and (latent) variance at each input of a 1-D query via
    the cached Cholesky factor. Variances are clamped at zero; values within
    numerical noise of zero snap to exactly zero."""
    xq = np.asarray(xq, dtype=float)
    if xq.ndim != 1:
        raise DataError(f"query must be a 1-D array of inputs, got shape {xq.shape}")
    zq = (xq - gp.x_mean) / gp.x_std
    k_star = _kernel(gp.x, zq, gp.lengthscale, gp.signal_var)
    mean = gp.y_mean + k_star.T @ gp.alpha
    v = solve_triangular(gp.chol, k_star, lower=True, check_finite=False)
    var = gp.signal_var - (v * v).sum(axis=0)
    var = np.maximum(var, 0.0)
    var[var < _VAR_SNAP * gp.signal_var] = 0.0
    return mean, var
