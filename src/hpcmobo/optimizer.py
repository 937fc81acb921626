"""Optimization engines over the discrete node-count domain.

Every engine starts from the same 4-point space-filling initial design and
searches a frozen objective table, which stands in for the machine. The
domain is one integer axis: every node count from lo to hi (`CandidateSet`).
The frozen surrogates predict each candidate once, in one batched call per
surrogate (`evaluate_objectives`), and every engine run on that context reads
the one read-only table: an engine takes the candidates and their table,
never a surrogate, and checks only that the table holds one (runtime, power)
row per candidate. Runtimes and powers are positive normal floats; a
surrogate that predicts otherwise is a DataError. An engine's observations
are the table rows it picked, the initial design first; `_finalize_report`
builds the report's observations, front, per-iteration HV and spread, and the
budget's `unique_evaluations` from them once, at the end, under the table's
reference (`infer_reference(objectives)`), the one of every report of that
table. Only the acquisition reads the online reference of the rows observed
so far: the search must not read rows it has not observed.

MOBO and SOBO are one GP search loop, `_gp_search`, to which each engine
gives its label, the objectives it fits a GP over node count to (runtime
first, in log space; power in plain space) and its acquisition: the exact
q=1 expected hypervolume improvement from the 2-D strip decomposition for
MOBO (`ehvi`; no sampling in the loop), closed-form expected improvement
for SOBO. Each iteration fits the GP(s) to the observations, scores every
candidate and proposes the first row of the log acquisition's maximum; the
first fit of each GP is the cold multi-start search, and every later fit
warm-starts from the one before it. An acquisition flat at its floor ranks
nothing, so it proposes the first row of the maximum over the unobserved
nodes, the smallest of them on an exact tie. The loop ends at its first
proposal of a node it has already observed: evaluations are deterministic,
so the GPs, and with them every later proposal, would stay as they are. A
GP report with fewer than n_initial + mobo_iterations evaluations stopped
there. Each history entry records the best log acquisition and the
telemetry of the GP(s) that scored its pick.

The random baseline spends a matched budget of uniform draws split across
seeds; its history entries carry no acquisition. The Monte-Carlo estimator
`log_ehvi`/`ehvi_samples` stays as a test oracle for `ehvi`.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm, qmc

from .core import ConfigError, DataError, NumericalError, RunConfig
from .gp import GaussianProcess, fit_gp, gp_posterior
from .pareto import (
    ParetoFront,
    front_rows,
    hvi_strips,
    hypervolume,
    hypervolume_improvement,
    infer_reference,
    nondominated,
    spread,
)
from .surrogate import check_finite_spread

log = logging.getLogger(__name__)

ACQ_EPS = 1e-12
# a best log acquisition at or below this ties at the eps floor everywhere
_FLOOR = math.log(ACQ_EPS) + 1e-9
_SQRT_2PI = np.sqrt(2 * np.pi)
METHOD_MOBO = "MOBO"
METHOD_SOBO_RUNTIME = "SOBO (Runtime)"
METHOD_SOBO_POWER = "SOBO (Power)"
METHOD_RANDOM = "Random"
# the column of each objective in the objective table, in fitting order
_COLUMNS = {"runtime": 0, "power": 1}


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
    """Every node count from lo to hi plus the fixed job context.

    Engines refer to a candidate by its row, node count minus lo, so the
    first row of a tie is the smallest node count."""

    lo: int
    hi: int
    context: JobContext

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ConfigError(f"candidate node range [{self.lo}, {self.hi}] must satisfy "
                              "1 <= lo <= hi")

    @property
    def node_counts(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    @property
    def bounds(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @classmethod
    def from_bounds(cls, lo: int, hi: int, context: JobContext) -> "CandidateSet":
        return cls(lo, hi, context)

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
    a NumericalError, and one below the smallest normal float a DataError:
    runtimes and powers are positive, the runtime GP models their logs, and
    training refuses such targets. Predictions whose standard deviation
    overflows a float are a DataError too: the power GP and the
    hypervolumes would square them. The table is read-only: every engine
    run on these candidates reads it.
    """
    context = candidates.context
    nodes = candidates.node_counts
    lo, hi = _shared_bounds(surr_runtime, surr_power)
    if candidates.lo < lo or candidates.hi > hi:
        raise DataError(f"candidate node counts {list(candidates.bounds)} outside design "
                        f"bounds [{lo}, {hi}]")
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
    tiny = float(np.finfo(float).tiny)
    for objective, col in _COLUMNS.items():
        bad = np.flatnonzero(table[:, col] < tiny)
        if len(bad):
            value = float(table[bad[0], col])
            kind = "positive" if value <= 0 else f"at least the smallest normal float {tiny!r}"
            raise DataError(f"the {objective} surrogate predicts {value!r} at node count "
                            f"{nodes[bad[0]]}, but objectives must be {kind}")
    check_finite_spread(["predicted runtime", "predicted power"], table)
    table.flags.writeable = False
    return table


def _gp_targets(objective: str, values: np.ndarray) -> np.ndarray:
    """The values the GP of `objective` models: the logs of the runtimes,
    which are positive (`evaluate_objectives`), and the powers as they are."""
    return np.log(values) if objective == "runtime" else values


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


def ehvi_samples(gp_runtime: GaussianProcess, gp_power: GaussianProcess, node_count: int,
                 front: ParetoFront, ref, mc_samples: int, seed) -> np.ndarray:
    """Per-sample hypervolume improvements backing log_ehvi, the Monte-Carlo
    oracle for `ehvi`; exposed so tests can form standard errors. The
    runtime GP models log runtime, the power GP plain power."""
    z = _base_normals(mc_samples, seed)
    nodes = np.array([node_count])
    mu_r, var_r = gp_posterior(gp_runtime, nodes)
    mu_p, var_p = gp_posterior(gp_power, nodes)
    y_r = np.exp(mu_r[0] + math.sqrt(var_r[0]) * z[:, 0])
    y_p = mu_p[0] + math.sqrt(var_p[0]) * z[:, 1]
    return hypervolume_improvement(front, np.asarray(ref, dtype=float),
                                   np.column_stack([y_r, y_p]))


def log_ehvi(gp_runtime: GaussianProcess, gp_power: GaussianProcess, node_count: int,
             front: ParetoFront, ref, mc_samples: int, seed) -> float:
    """Monte-Carlo log(mean HVI + eps) at one candidate. A zero-variance
    candidate is a deterministic sample: it reduces to log(HVI(posterior
    mean) + eps) exactly, independent of mc_samples."""
    nodes = np.array([node_count])
    mu_r, var_r = gp_posterior(gp_runtime, nodes)
    mu_p, var_p = gp_posterior(gp_power, nodes)
    if var_r[0] == 0.0 and var_p[0] == 0.0:
        hvi = hypervolume_improvement(front, np.asarray(ref, dtype=float),
                                      np.array([[math.exp(mu_r[0]), mu_p[0]]]))[0]
        return math.log(float(hvi) + ACQ_EPS)
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
        # E[Y; Y < c] formed in logs: its two factors can be inf and 0
        pe = np.where(c > 0, c * ndtr(d) - np.exp(mean + s * s / 2.0 + log_ndtr(d - s)), 0.0)
    else:
        y = mean
        u = (c - mean) / s
        pe = s * (u * ndtr(u) + np.exp(-u**2 / 2.0) / _SQRT_2PI)
    return np.where(pos, pe, np.maximum(c - y, 0.0))


def ehvi(gp_runtime: GaussianProcess, gp_power: GaussianProcess, nodes: np.ndarray,
         front: ParetoFront, ref) -> np.ndarray:
    """Exact q=1 expected hypervolume improvement at every node, never
    negative, under a runtime GP of log runtime and a power GP of plain power.

    In 2-D, HVI(a, b) = sum_s w_s(a) h_s(b) over the strips of `hvi_strips`,
    with w_s(a) = (hi_s - a)+ - (lo_s - a)+ and h_s(b) = (top_s - b)+. The two
    posteriors are independent, so E[HVI] = sum_s E[w_s] E[h_s], and each
    factor is a partial expectation E[(c - Y)+] (box-decomposition EHVI,
    Emmerich et al. 2011; Yang et al. 2019). A node with zero variance in
    both objectives gets the HVI of its posterior mean bit for bit.
    """
    ref = np.asarray(ref, dtype=float)
    edges, tops = hvi_strips(front, ref)
    mu_r, var_r = gp_posterior(gp_runtime, nodes)
    mu_p, var_p = gp_posterior(gp_power, nodes)
    p_r = _partial_expectation(edges[None, :], mu_r[:, None], np.sqrt(var_r)[:, None],
                               log_space=True)
    # lo_s is the previous edge, and E[(-inf - Y)+] = 0
    widths = np.diff(p_r, axis=1, prepend=0.0)
    heights = _partial_expectation(tops[None, :], mu_p[:, None], np.sqrt(var_p)[:, None])
    out = np.maximum((widths * heights).sum(axis=1), 0.0)
    det = (var_r == 0.0) & (var_p == 0.0)
    if det.any():
        means = np.column_stack([np.exp(mu_r), mu_p])
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
    # GP methods only: the best log acquisition and the
    # GaussianProcess.telemetry() of each GP that scored this pick, by objective
    acquisition: float | None
    gp: dict[str, dict] | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


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
    # of the whole objective table, shared by its reports: hv and hv_so_far are under it
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
    if candidates.lo == candidates.hi:
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
    (acquisition, gp telemetry) step, and its history entry carries the HV
    and spread of the observations up to and including it, every HV under
    the table's reference, `infer_reference(objectives)`."""
    observed = objectives[picks]
    observed_nodes = candidates.node_counts[picks]
    ref = infer_reference(objectives)
    history = []
    for it, (acq, gp) in enumerate(steps):
        row = n_initial + it
        so_far = nondominated(observed[:row + 1])
        history.append(HistoryEntry(
            iteration=it,
            node_count=int(observed_nodes[row]),
            runtime=float(observed[row, 0]),
            power=float(observed[row, 1]),
            hv_so_far=hypervolume(so_far, ref),
            spread_so_far=spread(so_far),
            acquisition=acq,
            gp=gp,
        ))
    front = nondominated(observed)
    found_at = front_rows(observed)
    return ParetoReport(
        method=method,
        config=cfg,
        context=candidates.context,
        observed_nodes=observed_nodes,
        observed=observed,
        front=front,
        front_nodes=observed_nodes[found_at].tolist(),
        front_found_at=found_at.tolist(),
        ref=ref,
        hv=hypervolume(front, ref),
        spread=spread(front),
        history=history,
        n_initial=n_initial,
        budget={**(budget or {}), "unique_evaluations": len(set(picks))},
        per_seed=per_seed or [],
    )


def _start(candidates: CandidateSet, objectives: np.ndarray) -> list[int]:
    """Check that the objective table holds one (runtime, power) row per
    candidate; returns the rows of the shared initial design, the first
    picks of every engine."""
    want = (len(candidates.node_counts), 2)
    if np.shape(objectives) != want:
        raise DataError(f"the objective table has shape {np.shape(objectives)}, but node "
                        f"counts {candidates.lo} to {candidates.hi} need {want}: one "
                        "(runtime, power) row per candidate")
    return [node - candidates.lo for node in initial_design(*candidates.bounds)]


_SOBO_METHODS = {"runtime": METHOD_SOBO_RUNTIME, "power": METHOD_SOBO_POWER}


def _gp_search(method: str, candidates: CandidateSet, objectives: np.ndarray,
               cfg: RunConfig, fitted: tuple[str, ...],
               acquisition: Callable[..., np.ndarray]) -> ParetoReport:
    """The GP search loop of MOBO and SOBO. Each iteration fits a GP per
    `fitted` objective to the observations, warm from its last fit, scores
    every candidate by `acquisition(gps, Y, nodes)` (the fitted GPs by
    objective, the observed objective rows and the candidate nodes) and
    observes the first row of the log acquisition's maximum, its smallest
    node; when that maximum is at the eps floor, it takes the maximum over
    the unobserved rows instead. It ends after cfg.mobo_iterations picks, or
    at the first pick of a node already observed, which it does not append:
    nothing the fits see would change, so it would be picked for the rest of
    the budget."""
    _require_searchable(candidates)
    picks = _start(candidates, objectives)
    n_initial = len(picks)
    nodes = candidates.node_counts
    gps: dict[str, GaussianProcess | None] = dict.fromkeys(fitted)
    steps = []
    for it in range(cfg.mobo_iterations):
        Y = objectives[picks]
        try:
            for name in fitted:
                gps[name] = fit_gp(nodes[picks], _gp_targets(name, Y[:, _COLUMNS[name]]),
                                   warm=gps[name])
        except NumericalError as exc:
            # "MOBO", or "SOBO" of "SOBO (Runtime)"
            raise NumericalError(
                f"GP fit failed at {method.split()[0]} iteration {it}: {exc}") from exc
        acq = np.log(acquisition(gps, Y, nodes) + ACQ_EPS)
        best = float(acq.max())
        if best <= _FLOOR:  # nothing ranked: spend an unobserved node, if one is left
            acq[picks] = -np.inf
        row = int(np.argmax(acq))
        if row in picks:
            log.debug("%s stopped after %d evaluations: it proposed node %d again",
                      method, len(picks), nodes[row])
            break
        log.debug("%s iteration %d: node %d, best log acquisition %.6g, floor fallback %s",
                  method, it, nodes[row], best, best <= _FLOOR)
        picks.append(row)
        steps.append((best, {name: gp.telemetry() for name, gp in gps.items()}))
    return _finalize_report(method, cfg, candidates, objectives, picks, n_initial, steps)


def _ehvi_at(gps: dict[str, GaussianProcess], Y: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Exact EHVI over the front and online inferred reference of the rows Y."""
    ref = np.asarray(infer_reference(Y), dtype=float)
    return ehvi(gps["runtime"], gps["power"], nodes, nondominated(Y), ref)


def mobo_run(candidates: CandidateSet, objectives: np.ndarray,
             cfg: RunConfig) -> ParetoReport:
    """q=1 logEHVI loop over the candidates' objective table: fits a runtime
    and a power GP and scores every candidate node count with the exact
    `ehvi`, so no Monte-Carlo draw is made (`_gp_search`)."""
    return _gp_search(METHOD_MOBO, candidates, objectives, cfg, ("runtime", "power"),
                      _ehvi_at)


def sobo_run(candidates: CandidateSet, objectives: np.ndarray, cfg: RunConfig,
             objective: str) -> ParetoReport:
    """Single-objective logEI loop: fits one GP, of `objective`, and scores
    closed-form EI below the best observed value in the GP's space
    (`_gp_search`). The untargeted objective is still recorded so the
    resulting point set carries HV and spread."""
    if objective not in _SOBO_METHODS:
        raise ConfigError(f"objective must be runtime or power, got {objective!r}")
    col = _COLUMNS[objective]

    def ei_at(gps: dict[str, GaussianProcess], Y: np.ndarray,
              nodes: np.ndarray) -> np.ndarray:
        mean, var = gp_posterior(gps[objective], nodes)
        return expected_improvement(mean, var, float(_gp_targets(objective, Y[:, col]).min()))

    return _gp_search(_SOBO_METHODS[objective], candidates, objectives, cfg,
                      (objective,), ei_at)


def random_run(candidates: CandidateSet, objectives: np.ndarray,
               cfg: RunConfig) -> ParetoReport:
    """Seed-split uniform search over the candidates' objective table:
    floor(budget / seeds) draws per seed on top of the shared initial
    design, pooled into one report."""
    picks = _start(candidates, objectives)
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
    steps = [(None, None)] * (len(picks) - n_initial)
    return _finalize_report(METHOD_RANDOM, cfg, candidates, objectives, picks, n_initial,
                            steps, budget=budget, per_seed=sub_reports)


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
    """Rank the reports of one context by their own HV and spread, under the
    reference they share, their objective table's; reports under different
    references searched different tables, a DataError. Higher HV wins; lower
    spread wins (tighter fronts read as more balanced trade-offs)."""
    if not reports:
        raise DataError("no reports to compare")
    refs = {rep.ref for rep in reports.values()}
    if len(refs) > 1:
        raise DataError(f"the reports searched different objective tables: their "
                        f"references are {sorted(refs)}")
    hv = {name: rep.hv for name, rep in reports.items()}
    spr = {name: rep.spread for name, rep in reports.items()}
    best_hv = max(hv.values())
    best_spread = min(spr.values())
    return ComparisonTable(
        methods=list(reports),
        hv=hv,
        spread=spr,
        ref=refs.pop(),
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
