"""Loss-proportional subset sampling.

Each row gets a difficulty score from lightweight per-target predictors;
scores map to clipped selection probabilities p_i = clip(lambda * L_i, p_min, 1)
with lambda solved exactly so that the expected rate mean(p) equals the target
fraction tau, then rows are drawn by independent Bernoulli trials. The floor
p_min keeps every row reachable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import ConfigError, DataError, JobTable
from .surrogate import TreeParams, check_finite_spread, fit_tree_ensemble

# largest share of rows the tuned probabilities may saturate at 1 before the
# losses are winsorized
SAT_CAP = 0.10


@dataclass(frozen=True)
class SamplerPlan:
    """Tuned sampling state: losses, probabilities, and the drawn mask.

    `losses` are the values the invariant p = clip(lam * L, p_min, 1) holds
    against bit-exactly; when winsorization fired they are the clipped copy.
    """

    losses: np.ndarray
    probs: np.ndarray
    lam: float
    p_min: float
    target_rate: float
    expected_rate: float
    saturated_fraction: float
    rate_converged: bool
    sat_exceeded: bool
    winsorized: bool
    mask: np.ndarray | None = None

    def with_mask(self, mask: np.ndarray) -> "SamplerPlan":
        return replace(self, mask=np.asarray(mask, dtype=bool))

    def save(self, path: str | Path) -> None:
        payload = {
            "lambda": self.lam,
            "p_min": self.p_min,
            "target_rate": self.target_rate,
            "expected_rate": self.expected_rate,
            "saturated_fraction": self.saturated_fraction,
            "rate_converged": self.rate_converged,
            "sat_exceeded": self.sat_exceeded,
            "winsorized": self.winsorized,
            "mask": None if self.mask is None else [int(z) for z in self.mask],
        }
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def _scorer_params(seed: int) -> TreeParams:
    # lightweight: shallow trees, one pass, no CV
    return TreeParams(n_estimators=16, max_depth=3, seed=seed)


def _minmax(errors: np.ndarray) -> np.ndarray:
    lo = errors.min()
    hi = errors.max()
    if hi <= lo:
        return np.zeros_like(errors)
    return (errors - lo) / (hi - lo)


def score_difficulty(table: JobTable, seed: int = 0) -> np.ndarray:
    """Per-row difficulty: mean over targets of min-max-normalized errors.

    Regression targets contribute absolute prediction error; classification
    targets contribute the soft error 1 - Pr(correct | x_i), with class
    probabilities from one-vs-rest indicator forests.
    """
    targets = table.columns_with_role("regression_target", "classification_target")
    if not targets:
        raise ConfigError("no target columns configured for difficulty scoring")
    per_target: list[np.ndarray] = []
    for t_idx, target in enumerate(targets):
        feature_names = [
            c.name for c in table.columns
            if c.name != target.name and c.role != "ignored"
        ]
        X = table.numeric_matrix(feature_names)
        y = table.numeric_matrix([target.name])[:, 0]
        if np.isnan(X).any() or np.isnan(y).any():
            raise DataError("difficulty scoring requires a fully numeric table")
        params = _scorer_params(seed + 1000 * t_idx)
        if target.role == "regression_target":
            # tree fitting squares targets but only compares features
            check_finite_spread([target.name], y[:, None])
            model = fit_tree_ensemble(X, y, params)
            errors = np.abs(model.predict(X) - y)
        else:
            classes = np.unique(y)
            scores = np.empty((len(y), len(classes)))
            for k, cls in enumerate(classes):
                indicator = (y == cls).astype(float)
                model = fit_tree_ensemble(X, indicator, params)
                scores[:, k] = np.clip(model.predict(X), 0.0, None)
            totals = scores.sum(axis=1)
            totals[totals == 0] = 1.0
            true_col = np.searchsorted(classes, y)
            prob_correct = scores[np.arange(len(y)), true_col] / totals
            errors = 1.0 - prob_correct
        per_target.append(_minmax(errors))
    return np.mean(per_target, axis=0)


def _clip_probs(lam: float, losses: np.ndarray, p_min: float) -> np.ndarray:
    return np.clip(lam * losses, p_min, 1.0)


def _solve_rate(losses: np.ndarray, tau: float,
                p_min: float) -> tuple[float, np.ndarray, bool]:
    """The lambda at which mean(clip(lambda * L, p_min, 1)) = tau, its
    probabilities, and whether tau is feasible at all.

    The rate is nondecreasing and piecewise linear in lambda, with kinks at
    p_min / L_i (row i leaves the floor) and 1 / L_i (row i saturates). One
    sort of the positive losses and their prefix sums give the rate at every
    kink; lambda then solves the one linear piece that brackets tau, the
    sort-and-threshold solve of the exact simplex projection (Duchi et al.,
    ICML 2008). The largest rate, reached once every positive-loss row
    saturates, is (p_min * #zero + #positive) / N; a tau at or above it gets
    the least lambda that saturates every positive-loss row.
    """
    n = len(losses)
    pos = np.sort(losses[losses > 0])
    m = len(pos)
    if m and pos[0] < np.finfo(float).tiny:
        raise DataError(f"loss {pos[0]!r} is below the smallest normal float, so no "
                        "finite lambda saturates its row")
    # prefix sums from the smallest loss up: the rows below saturation all
    # have lambda * L < 1, so a kink's rate rounds to within a few ulps
    csum = np.concatenate(([0.0], np.cumsum(pos)))
    lower = p_min / pos[::-1]  # ascending: where each row leaves the floor
    upper = 1.0 / pos[::-1]  # ascending: where each row saturates
    kinks = np.concatenate(([0.0], np.sort(np.concatenate((lower, upper)))))
    # past kink lambda, the f largest losses are off the floor and the k
    # largest saturated; the rows in between are linear in lambda
    f = np.searchsorted(lower, kinks, side="right")
    k = np.searchsorted(upper, kinks, side="right")
    rates = (p_min * (n - f) + k + kinks * (csum[m - k] - csum[m - f])) / n
    feasible = bool(tau <= rates[-1])
    if tau >= rates[-1]:
        lam = float(1.0 / pos[0]) if m else 0.0
        if m and lam * pos[0] < 1.0:  # 1 / L rounded down
            lam = float(np.nextafter(lam, np.inf))
    elif tau <= rates[0]:
        lam = 0.0
    else:
        j = int(np.argmax(rates >= tau))
        lo, hi = float(kinks[j - 1]), float(kinks[j])
        # summed afresh: a difference of prefix sums loses the digits of
        # small linear rows
        slope = float(pos[m - f[j - 1]:m - k[j - 1]].sum())
        lam = lo  # a flat piece that only the kink rates' rounding brackets
        if slope > 0:
            # the solution lies in [lo, hi]; clipping only undoes rounding
            lam = min(max(float(n * tau - p_min * (n - f[j - 1]) - k[j - 1]) / slope, lo), hi)
    return lam, _clip_probs(lam, losses, p_min), feasible


def build_plan(losses: np.ndarray, tau: float, p_min: float) -> SamplerPlan:
    """Solve lambda exactly (see `_solve_rate`) and return the plan.

    When tau is feasible, mean(p) equals tau up to rounding, and
    `rate_converged` is true; otherwise every positive-loss row gets p = 1
    and `rate_converged` is false. If the saturated fraction (p_i == 1)
    exceeds SAT_CAP, losses are winsorized at their (1 - SAT_CAP) quantile
    and lambda is solved once more.
    """
    losses = np.asarray(losses, dtype=float)
    if (losses < 0).any() or not np.isfinite(losses).all():
        raise DataError("losses must be finite and nonnegative")
    if not (0 < tau <= 1):
        raise ConfigError(f"sampling fraction must be in (0, 1], got {tau}")
    if tau < p_min:
        raise ConfigError(
            f"infeasible target: tau={tau} < p_min={p_min} forces mean(p) >= p_min"
        )
    lam, probs, converged = _solve_rate(losses, tau, p_min)
    winsorized = False
    used = losses
    sat = float((probs == 1.0).mean())
    if sat > SAT_CAP:
        cut = float(np.quantile(losses, 1.0 - SAT_CAP))
        used = np.minimum(losses, cut)
        lam, probs, converged = _solve_rate(used, tau, p_min)
        winsorized = True
        sat = float((probs == 1.0).mean())
    return SamplerPlan(
        losses=used,
        probs=probs,
        lam=lam,
        p_min=p_min,
        target_rate=tau,
        expected_rate=float(probs.mean()),
        saturated_fraction=sat,
        rate_converged=converged,
        sat_exceeded=sat > SAT_CAP,
        winsorized=winsorized,
    )


def draw_subset(table: JobTable, probs: np.ndarray,
                seed: int) -> tuple[JobTable, np.ndarray]:
    """Independent Bernoulli draws (PCG64 via numpy default_rng); the subset
    keeps original row order and every column."""
    probs = np.asarray(probs, dtype=float)
    if len(probs) != table.n_rows:
        raise DataError(
            f"probability vector length {len(probs)} != table rows {table.n_rows}"
        )
    rng = np.random.default_rng(seed)
    mask = rng.random(len(probs)) < probs
    return table.select_rows(mask), mask


def sample_table(table: JobTable, tau: float, p_min: float,
                 seed: int) -> tuple[JobTable, SamplerPlan]:
    """Score, tune, and draw in one call; returns the subset and the full plan."""
    losses = score_difficulty(table, seed=seed)
    plan = build_plan(losses, tau, p_min)
    subset, mask = draw_subset(table, plan.probs, seed)
    return subset, plan.with_mask(mask)
