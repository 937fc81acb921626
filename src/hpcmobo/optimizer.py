"""Optimization engines over the discrete node-count domain.

Every engine starts from the same 4-point space-filling initial design and
evaluates objectives against frozen surrogates, which stand in for the
machine. The domain is a finite set of node counts, so each candidate is
predicted once, in one batched call per surrogate (`evaluate_objectives`),
and the candidate set keeps that table for every engine run on it with the
same surrogates (`CandidateSet.objectives`). An engine's observations are
the table rows it picked, the initial design first; `_finalize_report`
builds the report's observations, front, per-iteration HV and spread, and
the budget's `unique_evaluations` from them once, at the end.

MOBO and SOBO are one GP search loop, `_gp_search`, to which each engine
gives its label and rng stream, the objectives it fits a GP to (runtime
first, in log space) and its acquisition: the exact q=1 expected
hypervolume improvement from the 2-D strip decomposition for MOBO (`ehvi`;
no sampling in the loop), closed-form expected improvement for SOBO. The
loop refits and rescores only after an iteration that observed a new node
(`_search`); the first fit of each GP is the cold multi-start search, and
every refit warm-starts from the one before it. Each history entry records
the best log acquisition, whether its iteration refitted, and the telemetry
of the GP(s) that scored its pick; the budget records `gp_refits`.

The random baseline spends a matched budget of uniform draws split across
seeds; its history entries carry no acquisition. The Monte-Carlo estimator
`log_ehvi`/`ehvi_samples` stays as a test oracle for `ehvi`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np
from scipy.special import ndtr
from scipy.stats import norm, qmc

from .core import ConfigError, DataError, NumericalError, RunConfig
from .gp import GaussianProcess, fit_gp, gp_posterior
from .pareto import (
    ParetoFront,
    hvi_strips,
    hypervolume,
    hypervolume_improvement,
    infer_reference,
    nondominated,
    spread,
)

ACQ_EPS = 1e-12
_SQRT_2PI = np.sqrt(2 * np.pi)
METHOD_MOBO = "MOBO"
METHOD_SOBO_RUNTIME = "SOBO (Runtime)"
METHOD_SOBO_POWER = "SOBO (Power)"
METHOD_RANDOM = "Random"


class ObjectiveSurrogate(Protocol):
    """Anything that predicts one objective from a raw feature row."""

    feature_names: list[str]
    design_feature: str
    design_bounds: tuple[int, int]

    def predict(self, X: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class JobContext:
    """The fixed feature vector of the job whose node count is being tuned."""

    feature_names: tuple[str, ...]
    values: np.ndarray
    design_feature: str

    def row_for(self, node_count: int) -> np.ndarray:
        row = np.asarray(self.values, dtype=float).copy()
        row[self.feature_names.index(self.design_feature)] = float(node_count)
        return row


@dataclass(frozen=True)
class CandidateSet:
    """Positive, strictly increasing node counts plus the fixed job context.

    Engines refer to a candidate by its row; the order makes the first row
    of a tie the smallest node count."""

    node_counts: np.ndarray
    context: JobContext
    # [runtime surrogate, power surrogate, their objective table] once computed
    _table: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.node_counts) == 0:
            raise ConfigError("candidate set must be non-empty")
        if self.node_counts[0] < 1 or (np.diff(self.node_counts) <= 0).any():
            raise ConfigError("candidate node counts must be positive and strictly "
                              f"increasing, got {self.node_counts}")

    @property
    def bounds(self) -> tuple[int, int]:
        return (int(self.node_counts.min()), int(self.node_counts.max()))

    @classmethod
    def from_bounds(cls, lo: int, hi: int, context: JobContext) -> "CandidateSet":
        if hi < lo:
            raise ConfigError(f"empty node range [{lo}, {hi}]")
        return cls(np.arange(lo, hi + 1, dtype=int), context)

    @classmethod
    def for_surrogates(cls, surr_runtime: ObjectiveSurrogate, surr_power: ObjectiveSurrogate,
                       context: JobContext) -> "CandidateSet":
        """Every node count inside both surrogates' design bounds."""
        lo, hi = _shared_bounds(surr_runtime, surr_power)
        if hi < lo:
            raise ConfigError(
                f"runtime and power surrogate design bounds {surr_runtime.design_bounds} "
                f"and {surr_power.design_bounds} do not overlap"
            )
        return cls.from_bounds(lo, hi, context)

    def objectives(self, surr_runtime: ObjectiveSurrogate,
                   surr_power: ObjectiveSurrogate) -> np.ndarray:
        """The read-only `evaluate_objectives` table of these candidates
        under this surrogate pair. The surrogates are frozen, so it is
        computed on the first request and every later request with the same
        two surrogate objects reads it; another pair replaces it."""
        if self._table and self._table[0] is surr_runtime and self._table[1] is surr_power:
            return self._table[2]
        table = evaluate_objectives(surr_runtime, surr_power, self)
        table.flags.writeable = False
        self._table[:] = [surr_runtime, surr_power, table]
        return table


def _shared_bounds(surr_runtime: ObjectiveSurrogate,
                   surr_power: ObjectiveSurrogate) -> tuple[int, int]:
    (lo_r, hi_r), (lo_p, hi_p) = surr_runtime.design_bounds, surr_power.design_bounds
    return max(lo_r, lo_p), min(hi_r, hi_p)


def evaluate_objectives(surr_runtime: ObjectiveSurrogate, surr_power: ObjectiveSurrogate,
                        candidates: CandidateSet) -> np.ndarray:
    """Predict (runtime, power) for every candidate from the frozen surrogates.

    Row i of the (n, 2) result belongs to candidates.node_counts[i]; each
    surrogate is called once, on all rows. The context must name each
    surrogate's features in the surrogate's order, or it is a DataError
    naming the first column that differs; each surrogate's design feature
    must be the context's, or it is a DataError; a non-finite prediction is
    a NumericalError.
    """
    context = candidates.context
    nodes = candidates.node_counts
    lo, hi = _shared_bounds(surr_runtime, surr_power)
    outside = nodes[(nodes < lo) | (nodes > hi)]
    if len(outside):
        raise DataError(f"node count {outside[0]} outside design bounds [{lo}, {hi}]")
    names = tuple(context.feature_names)
    for objective, surr in (("runtime", surr_runtime), ("power", surr_power)):
        expected = tuple(surr.feature_names)
        if names != expected:
            i = next((i for i, (a, b) in enumerate(zip(names, expected)) if a != b),
                     min(len(names), len(expected)))
            have = repr(names[i]) if i < len(names) else "missing"
            want = repr(expected[i]) if i < len(expected) else "nothing"
            raise DataError(f"job context column {i} is {have} but the {objective} "
                            f"surrogate expects {want} there")
        if surr.design_feature != context.design_feature:
            raise DataError(f"the {objective} surrogate's design feature is "
                            f"{surr.design_feature!r}, the job context's is "
                            f"{context.design_feature!r}")
    rows = np.array([context.row_for(n) for n in nodes])
    table = np.column_stack([surr_runtime.predict(rows), surr_power.predict(rows)])
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if len(bad):
        raise NumericalError(f"objective values must be finite, got {table[bad[0]].tolist()} "
                             f"at node count {nodes[bad[0]]}")
    return table


@dataclass(frozen=True)
class ObjectiveGP:
    """GP over node count for one objective, optionally modeling log targets."""

    gp: GaussianProcess
    log_space: bool

    def posterior(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(nodes, dtype=float)[:, None]
        return gp_posterior(self.gp, X)

    def telemetry(self) -> dict:
        """The fitted hyperparameters, LML and jitter, as a report records them."""
        gp = self.gp
        return {"lengthscale": float(gp.lengthscales[0]), "signal_var": float(gp.signal_var),
                "noise_var": float(gp.noise_var), "lml": float(gp.lml),
                "jitter": float(gp.jitter)}


def fit_objective_gp(nodes: Sequence[int], values: Sequence[float],
                     log_space: bool = False,
                     warm: ObjectiveGP | None = None) -> ObjectiveGP:
    """Fit the GP of one objective over node count, as the MOBO and SOBO
    engines do after each iteration that observed a new node. Duplicate node
    counts collapse to their first observation (evaluations are
    deterministic). The fit warm-starts from `warm`, the engine's previous fit
    of this objective, when that fit modelled the same space (log or not);
    otherwise it is the cold four-start search (see `fit_gp`)."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    _, keep = np.unique(nodes, return_index=True)
    nodes = nodes[np.sort(keep)]
    values = values[np.sort(keep)]
    use_log = log_space and bool((values > 0).all())
    y = np.log(values) if use_log else values
    same_space = warm is not None and warm.log_space == use_log
    gp = fit_gp(nodes[:, None], y, warm=warm.gp if same_space else None)
    return ObjectiveGP(gp=gp, log_space=use_log)


def _base_normals(mc_samples: int, seed) -> np.ndarray:
    """Low-discrepancy standard-normal pairs: scrambled Sobol through the
    Gaussian inverse CDF."""
    sob = qmc.Sobol(d=2, scramble=True, seed=seed)
    if mc_samples & (mc_samples - 1) == 0:
        u = sob.random_base2(int(math.log2(mc_samples)))
    else:
        u = sob.random(mc_samples)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    return norm.ppf(u)


def _deterministic_hvi(mu_r: float, mu_p: float, gp_runtime: ObjectiveGP,
                       gp_power: ObjectiveGP, front: ParetoFront, ref) -> float:
    y_r = math.exp(mu_r) if gp_runtime.log_space else mu_r
    y_p = math.exp(mu_p) if gp_power.log_space else mu_p
    return float(hypervolume_improvement(front, np.asarray(ref, dtype=float),
                                         np.array([[y_r, y_p]]))[0])


def ehvi_samples(gp_runtime: ObjectiveGP, gp_power: ObjectiveGP, node_count: int,
                 front: ParetoFront, ref, mc_samples: int, seed) -> np.ndarray:
    """Per-sample hypervolume improvements backing log_ehvi, the Monte-Carlo
    oracle for `ehvi`; exposed so tests can form standard errors."""
    z = _base_normals(mc_samples, seed)
    nodes = np.array([node_count])
    mu_r, var_r = gp_runtime.posterior(nodes)
    mu_p, var_p = gp_power.posterior(nodes)
    y_r = mu_r[0] + math.sqrt(var_r[0]) * z[:, 0]
    y_p = mu_p[0] + math.sqrt(var_p[0]) * z[:, 1]
    if gp_runtime.log_space:
        y_r = np.exp(y_r)
    if gp_power.log_space:
        y_p = np.exp(y_p)
    return hypervolume_improvement(front, np.asarray(ref, dtype=float),
                                   np.column_stack([y_r, y_p]))


def log_ehvi(gp_runtime: ObjectiveGP, gp_power: ObjectiveGP, node_count: int,
             front: ParetoFront, ref, mc_samples: int, seed) -> float:
    """Monte-Carlo log(mean HVI + eps) at one candidate. A zero-variance
    candidate is a deterministic sample: it reduces to log(HVI(posterior
    mean) + eps) exactly, independent of mc_samples."""
    nodes = np.array([node_count])
    mu_r, var_r = gp_runtime.posterior(nodes)
    mu_p, var_p = gp_power.posterior(nodes)
    if var_r[0] == 0.0 and var_p[0] == 0.0:
        hvi = _deterministic_hvi(mu_r[0], mu_p[0], gp_runtime, gp_power, front, ref)
        return math.log(hvi + ACQ_EPS)
    samples = ehvi_samples(gp_runtime, gp_power, node_count, front, ref,
                           mc_samples, seed)
    return math.log(float(samples.mean()) + ACQ_EPS)


def _partial_expectation(c: np.ndarray, mean: np.ndarray, sd: np.ndarray,
                         log_space: bool = False) -> np.ndarray:
    """E[(c - Y)+] for Y ~ N(mean, sd^2), or for Y = exp(N(mean, sd^2)) when
    log_space (0 for c <= 0); broadcasts over its arguments. Where sd is 0
    it is (c - Y)+ exactly."""
    pos = sd > 0
    s = np.where(pos, sd, 1.0)
    if log_space:
        y = np.exp(mean)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = (np.log(c) - mean) / s
        pe = np.where(c > 0, c * ndtr(d) - np.exp(mean + s * s / 2.0) * ndtr(d - s), 0.0)
    else:
        y = mean
        u = (c - mean) / s
        pe = s * (u * ndtr(u) + np.exp(-u**2 / 2.0) / _SQRT_2PI)
    return np.where(pos, pe, np.maximum(c - y, 0.0))


def ehvi(gp_runtime: ObjectiveGP, gp_power: ObjectiveGP, nodes: np.ndarray,
         front: ParetoFront, ref) -> np.ndarray:
    """Exact q=1 expected hypervolume improvement at every node, never negative.

    In 2-D, HVI(a, b) = sum_s w_s(a) h_s(b) over the strips of `hvi_strips`,
    with w_s(a) = (hi_s - a)+ - (lo_s - a)+ and h_s(b) = (top_s - b)+. The two
    posteriors are independent, so E[HVI] = sum_s E[w_s] E[h_s], and each
    factor is a partial expectation E[(c - Y)+] (box-decomposition EHVI,
    Emmerich et al. 2011; Yang et al. 2019). A node with zero variance in
    both objectives gets the HVI of its posterior mean bit for bit.
    """
    ref = np.asarray(ref, dtype=float)
    edges, tops = hvi_strips(front, ref)
    mu_r, var_r = gp_runtime.posterior(nodes)
    mu_p, var_p = gp_power.posterior(nodes)
    p_r = _partial_expectation(edges[None, :], mu_r[:, None], np.sqrt(var_r)[:, None],
                               gp_runtime.log_space)
    # lo_s is the previous edge, and E[(-inf - Y)+] = 0
    widths = np.diff(p_r, axis=1, prepend=0.0)
    heights = _partial_expectation(tops[None, :], mu_p[:, None], np.sqrt(var_p)[:, None],
                                   gp_power.log_space)
    out = np.maximum((widths * heights).sum(axis=1), 0.0)
    det = (var_r == 0.0) & (var_p == 0.0)
    if det.any():
        means = np.column_stack([np.exp(mu_r) if gp_runtime.log_space else mu_r,
                                 np.exp(mu_p) if gp_power.log_space else mu_p])
        out[det] = hypervolume_improvement(front, ref, means[det])
    return out


def expected_improvement(mean: np.ndarray, var: np.ndarray,
                         incumbent: float) -> np.ndarray:
    """Closed-form EI for minimization; deterministic candidates degrade to
    max(incumbent - mean, 0)."""
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    return _partial_expectation(incumbent, mean, np.sqrt(np.maximum(var, 0.0)))


@dataclass
class HistoryEntry:
    iteration: int
    node_count: int
    runtime: float
    power: float
    hv_so_far: float
    spread_so_far: float
    # GP methods only: the best log acquisition, whether this iteration
    # fitted the GP(s), and the ObjectiveGP.telemetry() of each GP that
    # scored this pick, by objective
    acquisition: float | None
    refit: bool | None = None
    gp: dict[str, dict] | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


@dataclass
class ParetoReport:
    """Outcome of one optimizer run: nondominated set, metrics, and history."""

    method: str
    config: RunConfig
    context: JobContext
    observed_nodes: np.ndarray  # node count of each observation, in order
    observed: np.ndarray  # (n, 2) runtime and power of each observation
    front: ParetoFront
    front_nodes: list[int]
    front_found_at: list[int]
    ref: tuple[float, float]
    hv: float
    spread: float
    history: list[HistoryEntry]
    n_initial: int
    budget: dict = field(default_factory=dict)
    per_seed: list["ParetoReport"] = field(default_factory=list)

    @property
    def n_evaluations(self) -> int:
        return len(self.observed_nodes)


def initial_design(lo: int, hi: int) -> list[int]:
    """Min, max, and two evenly spaced interior node counts (deduplicated)."""
    span = hi - lo
    raw = [lo, lo + span // 3, lo + (2 * span) // 3, hi]
    return sorted(set(raw))


def _require_searchable(candidates: CandidateSet) -> None:
    # the GP fit needs at least two distinct design points
    if len(candidates.node_counts) < 2:
        raise ConfigError(
            "GP-based optimizers need at least 2 distinct candidate node counts; "
            "use the random baseline for a single-point domain"
        )


def _finalize_report(method: str, cfg: RunConfig, candidates: CandidateSet,
                     objectives: np.ndarray, picks: list[int], n_initial: int,
                     steps: list[tuple],
                     budget: dict | None = None,
                     per_seed: list[ParetoReport] | None = None) -> ParetoReport:
    """Build a report from the picked rows of the objective table. The first
    n_initial picks are the initial design; each later pick has one
    (acquisition, refit, gp telemetry) step, and its history entry carries
    the HV and spread of the observations up to and including it, under
    their own inferred reference."""
    observed = objectives[picks]
    observed_nodes = candidates.node_counts[picks]
    history = []
    for it, (acq, refit, gp) in enumerate(steps):
        row = n_initial + it
        so_far = nondominated(observed[:row + 1])
        history.append(HistoryEntry(
            iteration=it,
            node_count=int(observed_nodes[row]),
            runtime=float(observed[row, 0]),
            power=float(observed[row, 1]),
            hv_so_far=hypervolume(so_far, infer_reference(observed[:row + 1])),
            spread_so_far=spread(so_far),
            acquisition=acq,
            refit=refit,
            gp=gp,
        ))
    ref = infer_reference(observed)
    front = nondominated(observed)
    # every front point is an observation; argmax finds its first row
    matches = (observed[None, :, :] == front.as_array()[:, None, :]).all(axis=2)
    found_at = matches.argmax(axis=1)
    return ParetoReport(
        method=method,
        config=cfg,
        context=candidates.context,
        observed_nodes=observed_nodes,
        observed=observed,
        front=front,
        front_nodes=[int(observed_nodes[i]) for i in found_at],
        front_found_at=[int(i) for i in found_at],
        ref=ref,
        hv=hypervolume(front, ref),
        spread=spread(front),
        history=history,
        n_initial=n_initial,
        budget={**(budget or {}), "unique_evaluations": len(set(picks))},
        per_seed=per_seed or [],
    )


def _candidate_index(candidates: CandidateSet, node: int) -> int:
    """The row of `node` in the candidate set."""
    hits = np.flatnonzero(candidates.node_counts == node)
    if len(hits) == 0:
        raise DataError(f"node count {node} is not a candidate in {candidates.bounds}")
    return int(hits[0])


def _start(surr_runtime: ObjectiveSurrogate, surr_power: ObjectiveSurrogate,
           candidates: CandidateSet) -> tuple[np.ndarray, list[int]]:
    """Look up the candidates' objective table; returns it and the rows of
    the shared initial design, the first picks of every engine."""
    objectives = candidates.objectives(surr_runtime, surr_power)
    picks = [_candidate_index(candidates, node)
             for node in initial_design(*candidates.bounds)]
    return objectives, picks


def _pick_candidate(acq: np.ndarray, seen: np.ndarray,
                    rng: np.random.Generator) -> tuple[int, float]:
    """The first row of the acquisition's maximum, which is its smallest
    node; when the acquisition ties at the log-eps floor everywhere, fall
    back to a random row not yet `seen` (row 0 once every row is)."""
    floor = math.log(ACQ_EPS)
    best = float(acq.max())
    if best <= floor + 1e-9:
        unseen = np.flatnonzero(~seen)
        if len(unseen):
            return int(rng.choice(unseen)), best
        return 0, best
    return int(np.argmax(acq)), best


def _search(picks: list[int], n_rows: int, iterations: int, rng: np.random.Generator,
            score) -> list[tuple]:
    """Propose one row per iteration and append it to `picks`; returns each
    iteration's (acquisition, refit, gp telemetry) step. `score(it)` fits
    the GP(s) to the picked rows and returns the acquisition of every row
    and the fitted ObjectiveGPs by objective name.

    The acquisition is a function of the distinct observed nodes and of the
    fits the GPs warm-start from (the GP fit collapses duplicates; reference
    point, front and incumbent ignore them), and those fits were made at the
    previous set of distinct nodes, so it is rescored only after an
    iteration observed a new node. A repeated pick is either a deterministic
    argmax or the floor fallback with no unobserved node left, which draws
    nothing from rng, so the proposals equal those of a refit every
    iteration warm-started from the fit at the previous distinct node set.
    Nothing changes after a repeat, so every later pick repeats it too: the
    refits are the iterations up to and including the first one that
    repeats a node.
    """
    seen = np.zeros(n_rows, dtype=bool)
    seen[picks] = True
    acq = None
    steps = []
    for it in range(iterations):
        refit = acq is None
        if refit:
            acq, gps = score(it)
            telemetry = {name: ogp.telemetry() for name, ogp in gps.items()}
        row, best_acq = _pick_candidate(acq, seen, rng)
        if not seen[row]:
            seen[row] = True
            acq = None
        picks.append(row)
        steps.append((best_acq, refit, telemetry))
    return steps


# the column of each objective in the objective table, in fitting order
_COLUMNS = {"runtime": 0, "power": 1}
_SOBO_METHODS = {"runtime": METHOD_SOBO_RUNTIME, "power": METHOD_SOBO_POWER}


def _gp_search(method: str, stream: int, surr_runtime: ObjectiveSurrogate,
               surr_power: ObjectiveSurrogate, candidates: CandidateSet, cfg: RunConfig,
               fitted: tuple[str, ...],
               acquisition: Callable[..., np.ndarray]) -> ParetoReport:
    """The GP search loop of MOBO and SOBO. After each iteration that observed
    a new node, it fits a GP per `fitted` objective, warm from its last fit,
    and scores every candidate by `acquisition(gps, Y, nodes)`: the fitted
    ObjectiveGPs by objective, the observed objective rows and the candidate
    nodes. `stream` keys the rng of the floor fallback (`_pick_candidate`)."""
    _require_searchable(candidates)
    objectives, picks = _start(surr_runtime, surr_power, candidates)
    n_initial = len(picks)
    rng = np.random.default_rng([cfg.seed, stream])
    nodes = candidates.node_counts
    gps: dict[str, ObjectiveGP | None] = dict.fromkeys(fitted)

    def score(it: int) -> tuple[np.ndarray, dict[str, ObjectiveGP]]:
        Y = objectives[picks]
        try:
            for name in fitted:
                gps[name] = fit_objective_gp(nodes[picks], Y[:, _COLUMNS[name]],
                                             log_space=name == "runtime", warm=gps[name])
        except NumericalError as exc:
            # "MOBO", or "SOBO" of "SOBO (Runtime)"
            raise NumericalError(
                f"GP fit failed at {method.split()[0]} iteration {it}: {exc}") from exc
        return np.log(acquisition(gps, Y, nodes) + ACQ_EPS), dict(gps)

    steps = _search(picks, len(nodes), cfg.mobo_iterations, rng, score)
    refits = sum(refit for _, refit, _ in steps)
    return _finalize_report(method, cfg, candidates, objectives, picks, n_initial,
                            steps, budget={"gp_refits": refits})


def _ehvi_at(gps: dict[str, ObjectiveGP], Y: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Exact EHVI over the front and inferred reference of the rows Y."""
    ref = np.asarray(infer_reference(Y), dtype=float)
    return ehvi(gps["runtime"], gps["power"], nodes, nondominated(Y), ref)


def mobo_run(surr_runtime: ObjectiveSurrogate, surr_power: ObjectiveSurrogate,
             candidates: CandidateSet, cfg: RunConfig) -> ParetoReport:
    """q=1 logEHVI loop: fits a runtime and a power GP and scores every
    candidate node count with the exact `ehvi`, so no Monte-Carlo draw is
    made (`_gp_search`)."""
    return _gp_search(METHOD_MOBO, 11, surr_runtime, surr_power, candidates, cfg,
                      ("runtime", "power"), _ehvi_at)


def sobo_run(surr_runtime: ObjectiveSurrogate, surr_power: ObjectiveSurrogate,
             candidates: CandidateSet, objective: str, cfg: RunConfig) -> ParetoReport:
    """Single-objective logEI loop: fits one GP, of `objective`, and scores
    closed-form EI below the best observed value in the GP's space
    (`_gp_search`). The untargeted objective is still recorded so the
    resulting point set carries HV and spread."""
    if objective not in _SOBO_METHODS:
        raise ConfigError(f"objective must be runtime or power, got {objective!r}")
    col = _COLUMNS[objective]

    def ei_at(gps: dict[str, ObjectiveGP], Y: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        gp = gps[objective]
        values = np.log(Y[:, col]) if gp.log_space else Y[:, col]
        mean, var = gp.posterior(nodes)
        return expected_improvement(mean, var, float(values.min()))

    return _gp_search(_SOBO_METHODS[objective], 13, surr_runtime, surr_power, candidates,
                      cfg, (objective,), ei_at)


def random_run(surr_runtime: ObjectiveSurrogate, surr_power: ObjectiveSurrogate,
               candidates: CandidateSet, cfg: RunConfig) -> ParetoReport:
    """Seed-split uniform search: floor(budget / seeds) draws per seed on top
    of the shared initial design, pooled into one report."""
    objectives, picks = _start(surr_runtime, surr_power, candidates)
    n_initial = len(picks)
    n_rows = len(candidates.node_counts)

    per_seed = cfg.mobo_iterations // cfg.random_seeds
    sub_reports: list[ParetoReport] = []
    for s in range(cfg.random_seeds):
        rng = np.random.default_rng([cfg.seed, 101, s])
        seed_picks = [int(rng.choice(n_rows)) for _ in range(per_seed)]
        picks += seed_picks
        if seed_picks:
            sub_reports.append(_finalize_report(
                f"{METHOD_RANDOM}[seed {s}]", cfg, candidates, objectives, seed_picks,
                0, []))
    budget = {
        "n_initial": n_initial,
        "evaluations_per_seed": per_seed,
        "pooled_evaluations": per_seed * cfg.random_seeds,
        "total_evaluations": len(picks),
    }
    steps = [(None, None, None)] * (len(picks) - n_initial)
    return _finalize_report(METHOD_RANDOM, cfg, candidates, objectives, picks, n_initial,
                            steps, budget=budget, per_seed=sub_reports)


def hv_history_under_ref(report: ParetoReport, ref) -> list[float]:
    """Recompute HV-so-far against one fixed reference point (the online
    inflating reference is reporting-only and not monotone)."""
    return [hypervolume(nondominated(report.observed[:report.n_initial + it + 1]), ref)
            for it in range(len(report.history))]


@dataclass
class ComparisonTable:
    """HV and spread per method under one shared reference point."""

    methods: list[str]
    hv: dict[str, float]
    spread: dict[str, float]
    ref: tuple[float, float]
    winner_hv: list[str]
    winner_spread: list[str]

    def to_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["Metric," + ",".join(self.methods)]
        lines.append("Hypervolume," + ",".join(repr(float(self.hv[m])) for m in self.methods))
        lines.append("Spread," + ",".join(repr(float(self.spread[m])) for m in self.methods))
        lines.append("WinnerHV," + ",".join(
            "1" if m in self.winner_hv else "0" for m in self.methods))
        lines.append("WinnerSpread," + ",".join(
            "1" if m in self.winner_spread else "0" for m in self.methods))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def compare_methods(reports: dict[str, ParetoReport]) -> ComparisonTable:
    """Re-measure every method against one shared reference inferred from the
    union of all observations. Higher HV wins; lower spread wins (tighter
    fronts read as more balanced trade-offs)."""
    if not reports:
        raise DataError("no reports to compare")
    ref = infer_reference(np.concatenate([rep.observed for rep in reports.values()]))
    hv: dict[str, float] = {}
    spr: dict[str, float] = {}
    for name, rep in reports.items():
        hv[name] = hypervolume(rep.front, ref)
        spr[name] = spread(rep.front)
    best_hv = max(hv.values())
    best_spread = min(spr.values())
    return ComparisonTable(
        methods=list(reports),
        hv=hv,
        spread=spr,
        ref=ref,
        winner_hv=[m for m, v in hv.items() if v == best_hv],
        winner_spread=[m for m, v in spr.items() if v == best_spread],
    )


def report_to_dict(report: ParetoReport) -> dict:
    return {
        "method": report.method,
        "config": dataclasses.asdict(report.config),
        "context": {
            "feature_names": list(report.context.feature_names),
            "values": [float(v) for v in report.context.values],
            "design_feature": report.context.design_feature,
        },
        "ref": list(report.ref),
        "hv": report.hv,
        "spread": report.spread,
        "spread_method": "polyline",  # the one spread; kept so reports keep their bytes
        "n_initial": report.n_initial,
        "n_evaluations": report.n_evaluations,
        "front": [
            {"node_count": n, "runtime": p[0], "power": p[1], "found_at": f}
            for n, p, f in zip(report.front_nodes, report.front.points,
                               report.front_found_at)
        ],
        "observations": [
            {"node_count": int(n), "runtime": float(y[0]), "power": float(y[1])}
            for n, y in zip(report.observed_nodes, report.observed)
        ],
        "history": [h.as_dict() for h in report.history],
        "budget": dict(report.budget),
        "per_seed": [report_to_dict(r) for r in report.per_seed],
    }


def save_report(report: ParetoReport, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with Path(path).open("w", encoding="utf-8") as fh:
        # streams its chunks instead of joining them
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
