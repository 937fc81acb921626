import functools
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from hpcmobo.core import DataError, RunConfig
from hpcmobo.gp import fit_gp, gp_posterior
from hpcmobo.optimizer import (
    CandidateSet,
    JobContext,
    _partial_expectation,
    compare_methods,
    ehvi,
    ehvi_samples,
    evaluate_objectives,
    expected_improvement,
    initial_design,
    log_ehvi,
    mobo_run,
    random_run,
    report_to_dict,
    save_report,
    sobo_run,
)
from hpcmobo.pareto import hypervolume, infer_reference, nondominated
from hpcmobo.pipeline import METHODS


class ConstantSurrogate:
    """Fixed-output objective predictor for plumbing tests."""

    def __init__(self, value, bounds=(1, 64)):
        self.value = value
        self.feature_names = ["num_nodes_alloc"]
        self.design_feature = "num_nodes_alloc"
        self.design_bounds = bounds

    def predict(self, X):
        return np.full(len(X), self.value)


class LawSurrogate:
    """Closed-form synthetic truth wrapped in the surrogate protocol."""

    def __init__(self, fn, bounds=(1, 64)):
        self.fn = fn
        self.feature_names = ["num_nodes_alloc"]
        self.design_feature = "num_nodes_alloc"
        self.design_bounds = bounds

    def predict(self, X):
        return np.array([self.fn(row[0]) for row in np.asarray(X, dtype=float)])


def _context():
    return JobContext(feature_names=("num_nodes_alloc",), values=np.array([1.0]),
                      design_feature="num_nodes_alloc")


def _candidates(lo=1, hi=64):
    return CandidateSet.from_bounds(lo, hi, _context())


def _searched(surr_r, surr_p, lo=1, hi=64):
    """The candidates lo..hi and their objective table under the surrogates:
    an engine's first two arguments."""
    candidates = _candidates(lo, hi)
    return candidates, evaluate_objectives(surr_r, surr_p, candidates)


AMDAHL = {
    "runtime": lambda n: 100.0 / n + 2.0,
    "power": lambda n: 5.0 * n,
}


def _amdahl_surrogates(bounds=(1, 64)):
    return (LawSurrogate(AMDAHL["runtime"], bounds), LawSurrogate(AMDAHL["power"], bounds))


def _fast_cfg(**kw):
    base = dict(mobo_iterations=10, random_seeds=5, seed=0)
    base.update(kw)
    return RunConfig(**base)


def test_evaluate_objectives_constant_surrogates():
    table = evaluate_objectives(ConstantSurrogate(7.0), ConstantSurrogate(9.0), _candidates(5, 9))
    assert table.shape == (5, 2)
    assert (table == [7.0, 9.0]).all()


def test_evaluate_objectives_traces_known_tradeoff():
    surr_r, surr_p = _amdahl_surrogates()
    table = evaluate_objectives(surr_r, surr_p, _candidates(1, 64))
    for n in (1, 8, 64):
        r, p = table[n - 1]
        assert r == pytest.approx(100.0 / n + 2.0)
        assert p == pytest.approx(5.0 * n)


def test_evaluate_objectives_out_of_bounds():
    surr_r, surr_p = _amdahl_surrogates(bounds=(1, 32))
    with pytest.raises(DataError, match="bounds"):
        evaluate_objectives(surr_r, surr_p, _candidates(1, 33))
    # the power surrogate's bounds count as much as the runtime one's
    surr_r, surr_p = _amdahl_surrogates(bounds=(1, 64))[0], _amdahl_surrogates((1, 32))[1]
    with pytest.raises(DataError, match="bounds"):
        evaluate_objectives(surr_r, surr_p, _candidates(1, 64))


def test_a_context_must_name_the_surrogates_features_in_their_order():
    surr_r, surr_p = _trained_pair()
    names = tuple(surr_r.feature_names)
    values = np.arange(1.0, len(names) + 1.0)
    # the first two columns swapped, names and values together
    order = [1, 0, *range(2, len(names))]
    swapped = JobContext(tuple(names[i] for i in order), values[order],
                         surr_r.design_feature)
    with pytest.raises(DataError, match=re.escape(
            f"job context column 0 is {names[1]!r} but the runtime surrogate "
            f"expects {names[0]!r}")):
        evaluate_objectives(surr_r, surr_p, CandidateSet.for_surrogates(surr_r, surr_p,
                                                                         swapped))
    extra = JobContext(names + ("extra",), np.append(values, 0.0), surr_r.design_feature)
    with pytest.raises(DataError, match=f"column {len(names)} is 'extra' but the runtime "
                                        "surrogate expects nothing"):
        evaluate_objectives(surr_r, surr_p, CandidateSet.for_surrogates(surr_r, surr_p,
                                                                         extra))
    # the power surrogate's names are checked as well as the runtime one's
    other = ConstantSurrogate(1.0)
    other.feature_names = ["nodes"]
    with pytest.raises(DataError, match="the power surrogate expects 'nodes'"):
        evaluate_objectives(ConstantSurrogate(1.0), other, _candidates(1, 4))


@functools.cache
def _trained_pair():
    """Small runtime and power surrogates trained on a synthetic job log."""
    from hpcmobo.ingest import preprocess_fit
    from hpcmobo.surrogate import train_objective_surrogate
    from hpcmobo.synthgen import DURATION_PAIRS, SyntheticSpec, generate

    table, _ = generate(SyntheticSpec(n_jobs=150, n_noise_features=2, seed=4))
    processed, _ = preprocess_fit(table, DURATION_PAIRS)
    return tuple(train_objective_surrogate(processed, target, n_estimators=6, max_depth=5,
                                           mask_epochs=40, use_embedding=True, seed=4)
                 for target in ("runtime_seconds", "node_power"))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_evaluation_equals_row_by_row_predicts(data):
    surr_r, surr_p = _trained_pair()
    names = tuple(surr_r.feature_names)
    values = np.array(data.draw(st.lists(
        st.floats(-1e4, 1e4, allow_nan=False), min_size=len(names), max_size=len(names))))
    lo_b, hi_b = surr_r.design_bounds
    lo = data.draw(st.integers(lo_b, hi_b - 1))
    hi = data.draw(st.integers(lo + 1, hi_b))
    context = JobContext(names, values, surr_r.design_feature)
    candidates = CandidateSet.from_bounds(lo, hi, context)
    table = evaluate_objectives(surr_r, surr_p, candidates)
    rows = [(surr_r.predict(context.row_for(n)[None, :])[0],
             surr_p.predict(context.row_for(n)[None, :])[0])
            for n in candidates.node_counts]
    assert table.tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("objective", ["runtime", "power"])
@pytest.mark.parametrize("stem", list(METHODS))
@pytest.mark.parametrize("node, value, message", [
    # the runtime GP models logs
    (10, 0.0, "the {objective} surrogate predicts 0.0 at node count 10, but objectives "
              "must be positive"),
    # positive, but subnormal, which training refuses as a target: MOBO
    # reported a runtime of 1.8e-318 and a hypervolume of 1.5e-316
    (3, 1e-320, "the {objective} surrogate predicts 1e-320 at node count 3, but objectives "
                "must be at least the smallest normal float 2.2250738585072014e-308"),
    # finite and positive, but past the square root of the largest float amid
    # values near 100; every engine observes node 6, an initial-design node,
    # and MOBO overflowed in its EHVI, the power GP found no valid fit, and
    # the other engines reported hypervolumes near 1e202
    (6, 1e200, "column 'predicted {objective}' has no finite standard deviation"),
], ids=["nonpositive", "subnormal", "spread_overflows"])
def test_a_nonpositive_or_overflowing_prediction_is_a_data_error(node, value, message, stem,
                                                                  objective):
    law = AMDAHL[objective]
    laws = {**AMDAHL, objective: lambda n: value if n == node else law(n)}
    surr_r, surr_p = LawSurrogate(laws["runtime"], (1, 16)), LawSurrogate(laws["power"], (1, 16))
    with pytest.raises(DataError, match=re.escape(message.format(objective=objective))):
        METHODS[stem].run(*_searched(surr_r, surr_p, 1, 16), _fast_cfg())


def test_the_objective_table_is_read_only():
    table = evaluate_objectives(*_amdahl_surrogates(), _candidates(1, 8))
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


@pytest.mark.parametrize("shape", [(63, 2), (64, 3), (64,)])
@pytest.mark.parametrize("stem", list(METHODS))
def test_every_engine_refuses_a_table_of_the_wrong_shape(stem, shape):
    table = np.ones(shape)
    with pytest.raises(DataError, match=re.escape(
            f"the objective table has shape {shape}, but node counts 1 to 64 need (64, 2)")):
        METHODS[stem].run(_candidates(1, 64), table, _fast_cfg())


@pytest.mark.parametrize("lo, hi, why", [
    (0, 2, "must satisfy 1 <= lo < hi"),
    (-2, 5, "must satisfy 1 <= lo < hi"),
    (3, 2, "must satisfy 1 <= lo < hi"),
    (5, 5, "spans one node count; a design domain needs at least 2"),
])
def test_candidate_ranges_need_1_le_lo_lt_hi(lo, hi, why):
    from hpcmobo.core import ConfigError

    with pytest.raises(ConfigError, match=re.escape(f"[{lo}, {hi}] {why}")):
        CandidateSet.from_bounds(lo, hi, _context())


@settings(max_examples=300, deadline=None)
@given(lo=st.integers(-2, 40), span=st.one_of(st.integers(-3, 3), st.integers(-2**40, 2**40)))
def test_candidate_sets_are_accepted_exactly_when_1_le_lo_lt_hi(lo, span):
    from hpcmobo.core import ConfigError

    hi = lo + span
    if 1 <= lo < hi:
        CandidateSet(lo, hi, _context())
        return
    with pytest.raises(ConfigError) as refused:
        CandidateSet(lo, hi, _context())
    if 1 <= lo == hi:
        assert str(refused.value) == (f"candidate node range [{lo}, {hi}] spans one node "
                                      "count; a design domain needs at least 2")


def test_candidates_for_surrogates_intersects_design_bounds():
    from hpcmobo.core import ConfigError

    wide, narrow = _amdahl_surrogates((1, 64))[0], _amdahl_surrogates((1, 32))[1]
    assert CandidateSet.for_surrogates(wide, narrow, _context()).bounds == (1, 32)
    assert CandidateSet.for_surrogates(narrow, wide, _context()).bounds == (1, 32)
    for power_bounds in [(9, 16), (8, 16)]:
        with pytest.raises(ConfigError, match=re.escape(
                f"(1, 8) and {power_bounds} share fewer than 2 node counts")):
            CandidateSet.for_surrogates(LawSurrogate(AMDAHL["runtime"], (1, 8)),
                                        LawSurrogate(AMDAHL["power"], power_bounds),
                                        _context())


def test_initial_design_is_four_space_filling_points():
    assert initial_design(1, 64) == [1, 22, 43, 64]
    assert initial_design(1, 2) == [1, 2]  # dedup on tiny ranges
    assert initial_design(5, 5) == [5]


def _toy_gps(nodes, runtimes, powers):
    """The runtime and power GPs as the engines fit them: log runtimes,
    plain powers."""
    return fit_gp(nodes, np.log(runtimes)), fit_gp(nodes, powers)


def test_log_ehvi_zero_variance_dominated_returns_log_eps():
    nodes = [1, 16, 32, 64]
    gp_r, gp_p = _toy_gps(nodes, [10.0, 8.0, 6.0, 4.0], [5.0, 20.0, 40.0, 80.0])
    front = nondominated([(4.0, 4.0)])  # dominates every posterior mean
    ref = (100.0, 100.0)
    val = log_ehvi(gp_r, gp_p, 16, front, ref, mc_samples=64, seed=0)
    assert val == math.log(1e-12)


def test_log_ehvi_zero_variance_exact_independent_of_samples():
    nodes = np.array([1.0, 16.0, 32.0, 64.0])
    # runtimes spread enough that the log GP's variance at its training
    # inputs snaps to 0, as at [10, 8, 6, 4] in plain space
    runtimes = [50.0, 20.0, 8.0, 4.0]
    powers = [5.0, 20.0, 40.0, 80.0]
    gp_r = fit_gp(nodes, np.log(runtimes), noise_var=0.0)
    gp_p = fit_gp(nodes, powers, noise_var=0.0)
    front = nondominated([(9.0, 90.0)])
    ref = (100.0, 100.0)
    # training input 16 has zero posterior variance; HVI is deterministic
    mean_r, var_r = gp_posterior(gp_r, np.array([16]))
    assert var_r[0] == 0.0
    from hpcmobo.pareto import hypervolume_improvement
    det = float(hypervolume_improvement(
        front, np.array(ref),
        np.array([[math.exp(mean_r[0]), gp_posterior(gp_p, np.array([16]))[0][0]]])
    )[0])
    for mc in (16, 128, 1024):
        val = log_ehvi(gp_r, gp_p, 16, front, ref, mc_samples=mc, seed=1)
        assert val == math.log(det + 1e-12)


def test_log_ehvi_mc_self_consistency_128_vs_16384():
    rng = np.random.default_rng(0)
    bad = 0
    for trial in range(10):
        nodes = sorted(rng.choice(np.arange(1, 65), size=6, replace=False))
        runtimes = rng.uniform(5, 50, size=6)
        powers = rng.uniform(10, 300, size=6)
        gp_r, gp_p = _toy_gps(nodes, runtimes, powers)
        Y = np.column_stack([runtimes, powers])
        front = nondominated(Y)
        ref = infer_reference(Y)
        x = int(rng.integers(1, 65))
        small = ehvi_samples(gp_r, gp_p, x, front, ref, 128, seed=trial)
        big = ehvi_samples(gp_r, gp_p, x, front, ref, 2 ** 14, seed=1000 + trial)
        se = float(big.std(ddof=1)) / math.sqrt(128)
        if abs(small.mean() - big.mean()) > 3 * se + 1e-12:
            bad += 1
    assert bad == 0


def test_acquisition_nonnegative_over_candidate_sweep():
    # exp(log_ehvi) - eps is a mean of hypervolume improvements, so >= 0
    rng = np.random.default_rng(31)
    nodes = [1, 8, 24, 48, 64]
    gp_r, gp_p = _toy_gps(nodes, rng.uniform(5, 50, size=5), rng.uniform(10, 300, size=5))
    Y = np.column_stack([rng.uniform(5, 50, size=5), rng.uniform(10, 300, size=5)])
    front = nondominated(Y)
    ref = infer_reference(Y)
    for x in range(1, 65, 7):
        val = log_ehvi(gp_r, gp_p, x, front, ref, mc_samples=64, seed=1)
        assert math.exp(val) - 1e-12 >= -1e-15


def test_exact_ehvi_matches_mc_oracle():
    rng = np.random.default_rng(506)
    for trial in range(50):
        k = int(rng.integers(4, 9))
        nodes = np.sort(rng.choice(np.arange(1, 65), size=k, replace=False))
        runtimes = rng.uniform(5, 60, size=k)
        powers = rng.uniform(20, 400, size=k)
        gp_r, gp_p = _toy_gps(nodes, runtimes, powers)
        Y = np.column_stack([runtimes, powers])
        front = nondominated(Y)
        ref = infer_reference(Y)
        sweep = ehvi(gp_r, gp_p, np.arange(1, 65), front, ref)
        assert (sweep >= 0.0).all(), f"trial {trial}"
        x = int(rng.integers(1, 65))
        samples = ehvi_samples(gp_r, gp_p, x, front, ref, 2 ** 14, seed=trial)
        se = float(samples.std(ddof=1)) / math.sqrt(len(samples))
        assert abs(sweep[x - 1] - float(samples.mean())) <= 3 * se + 1e-12, f"trial {trial}"


def test_exact_ehvi_zero_variance_equals_hvi_at_posterior_mean():
    from hpcmobo.pareto import hypervolume_improvement
    nodes = np.array([1.0, 16.0, 32.0, 64.0])
    runtimes = np.array([50.0, 20.0, 8.0, 4.0])
    gp_r = fit_gp(nodes, np.log(runtimes), noise_var=0.0)
    gp_p = fit_gp(nodes, [5.0, 20.0, 40.0, 80.0], noise_var=0.0)
    ref = np.array([100.0, 100.0])
    mean_r, var_r = gp_posterior(gp_r, nodes)
    mean_p, var_p = gp_posterior(gp_p, nodes)
    assert (var_r == 0.0).all() and (var_p == 0.0).all()
    means = np.column_stack([np.exp(mean_r), mean_p])
    # random fronts include some where (hi - a)+ - (lo - a)+ rounds differently
    # from the HVI's (hi - max(lo, a))+
    rng = np.random.default_rng(3)
    fronts = [nondominated([(9.0, 90.0)]), nondominated([(4.0, 4.0)])]
    fronts += [nondominated(np.column_stack([rng.uniform(2, 60, 5), rng.uniform(3, 90, 5)]))
               for _ in range(30)]
    for front in fronts:
        det = hypervolume_improvement(front, ref, means)
        assert (ehvi(gp_r, gp_p, nodes, front, ref) == det).all()


def test_expected_improvement_closed_form_cases():
    # zero variance above incumbent: no improvement
    assert expected_improvement(np.array([5.0]), np.array([0.0]), 4.0)[0] == 0.0
    # zero variance delta below incumbent: EI equals delta
    assert expected_improvement(np.array([3.5]), np.array([0.0]), 4.0)[0] == pytest.approx(0.5)
    # positive variance at the incumbent mean: sigma * phi(0)
    ei = expected_improvement(np.array([4.0]), np.array([1.0]), 4.0)[0]
    assert ei == pytest.approx(1.0 / math.sqrt(2 * math.pi))


# the first three overflowed exp(mean + sd^2 / 2), a product of inf and 0
@pytest.mark.parametrize("c, mean, sd", [
    (100.0, math.log(1e153), 30.0),
    (100.0, 352.0, 27.0),
    (1000.0, 5.0, 40.0),
    (50.0, 3.0, 1.0),
    (5.0, 1.0, 0.3),
], ids=["runtime_near_1e153", "mean_352_sd_27", "mean_5_sd_40", "mean_3_sd_1", "mean_1_sd_0.3"])
def test_lognormal_partial_expectation_matches_quadrature(c, mean, sd):
    # E[(c - Y)+] for Y = exp(Z), Z ~ N(mean, sd^2), integrated over z < log c
    ref = integrate.quad(lambda z: (c - math.exp(z)) * norm.pdf(z, mean, sd),
                         min(math.log(c), mean) - 40.0 * sd, math.log(c),
                         limit=500, epsabs=0.0, epsrel=1e-12)[0]
    pe = _partial_expectation(np.array([c]), np.array([mean]), np.array([sd]),
                              log_space=True)
    assert np.isfinite(pe).all()
    assert pe[0] == pytest.approx(ref, rel=1e-12)


def test_mobo_degenerate_landscape_single_front_point():
    cfg = _fast_cfg(mobo_iterations=5)
    report = mobo_run(*_searched(ConstantSurrogate(7.0), ConstantSurrogate(9.0), 1, 16), cfg)
    assert len(report.front) == 1
    assert report.front.points[0] == (7.0, 9.0)
    hvs = [h.hv_so_far for h in report.history]
    assert all(v == hvs[0] for v in hvs)


def test_mobo_reaches_95_percent_of_true_front_hv():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=50, seed=1)
    report = mobo_run(*_searched(surr_r, surr_p, 1, 64), cfg)
    truth = [(AMDAHL["runtime"](n), AMDAHL["power"](n)) for n in range(1, 65)]
    ref = infer_reference(truth)
    true_hv = hypervolume(nondominated(truth), ref)
    got_hv = hypervolume(report.front, ref)
    assert got_hv >= 0.95 * true_hv


def test_mobo_fixed_seed_identical_history():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=6, seed=3)
    a = mobo_run(*_searched(surr_r, surr_p, 1, 32), cfg)
    b = mobo_run(*_searched(surr_r, surr_p, 1, 32), cfg)
    assert [h.as_dict() for h in a.history] == [h.as_dict() for h in b.history]
    assert a.front.points == b.front.points


def test_mobo_budget_accounting():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=7, seed=2)
    report = mobo_run(*_searched(surr_r, surr_p, 1, 64), cfg)
    assert report.n_evaluations == report.n_initial + 7


def test_hv_so_far_monotone_under_fixed_final_ref():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=12, seed=5)
    report = mobo_run(*_searched(surr_r, surr_p, 1, 64), cfg)
    hvs = [h.hv_so_far for h in report.history]
    assert all(b >= a for a, b in zip(hvs, hvs[1:]))
    assert hvs[-1] == report.hv


def test_every_report_of_a_table_shares_its_reference():
    # an Amdahl table whose greatest runtime and power lie at dominated
    # interior rows, off the initial design, so that the observations of a
    # report need not span the table
    candidates = _candidates(1, 64)
    table = np.array([[100.0 / n + 2.0 + (200.0 if n == 30 else 0.0),
                       5.0 * n + (400.0 if n == 40 else 0.0)] for n in range(1, 65)])
    ref = infer_reference(table)
    cfg = _fast_cfg(mobo_iterations=10, random_seeds=3, seed=2)
    reports = [METHODS[stem].run(candidates, table, cfg) for stem in METHODS]
    reports += reports[-1].per_seed
    assert len(reports) == 4 + 3
    for rep in reports:
        assert rep.ref == ref, rep.method
        assert rep.hv == hypervolume(rep.front, ref)
        hvs = [h.hv_so_far for h in rep.history]
        assert all(b >= a for a, b in zip(hvs, hvs[1:])), rep.method


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_report_rows_front_and_history_agree_for_any_table_and_picks(data):
    from hpcmobo import optimizer as opt

    # few distinct values, so that equal rows, ties and repeats are common
    table = np.array(data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                        min_size=2, max_size=10)), dtype=float)
    lo = data.draw(st.integers(1, 40))
    candidates = CandidateSet.from_bounds(lo, lo + len(table) - 1, _context())
    picks = data.draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=25))
    n_initial = data.draw(st.integers(1, len(picks)))
    steps = [(float(it), None) for it in range(len(picks) - n_initial)]
    report = opt._finalize_report("T", _fast_cfg(), candidates, table, list(picks),
                                  n_initial, steps)

    assert (report.observed == table[picks]).all()
    assert list(report.observed_nodes) == [lo + row for row in picks]
    for i, point in enumerate(report.front.points):
        at = report.front_found_at[i]
        assert report.front_nodes[i] == report.observed_nodes[at]
        assert tuple(report.observed[at]) == point
        assert not (report.observed[:at] == point).all(axis=1).any()
    assert len(report.history) == len(steps)
    for it, entry in enumerate(report.history):
        prefix = report.observed[:n_initial + it + 1]
        assert entry.node_count == report.observed_nodes[n_initial + it]
        assert (entry.runtime, entry.power) == tuple(prefix[-1])
        assert entry.hv_so_far == hypervolume(nondominated(prefix), infer_reference(table))
    hvs = [h.hv_so_far for h in report.history]
    assert all(b >= a for a, b in zip(hvs, hvs[1:]))
    assert report.ref == infer_reference(table)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_report_hv_scales_by_the_product_of_the_column_factors(data):
    from hpcmobo import optimizer as opt

    # positive objectives over six decades; each column has a nonzero range,
    # so the reference's pad scales with it
    exponents = data.draw(st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
                                   min_size=8, max_size=64))
    table = 10.0 ** (np.array(exponents, dtype=float) / 100)
    assume((np.ptp(table, axis=0) > 0).all())
    picks = data.draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=30))
    n_initial = data.draw(st.integers(1, len(picks)))
    steps = [(None, None)] * (len(picks) - n_initial)
    # a power of two scales every float exactly; another factor rounds
    exact = data.draw(st.booleans())
    factor = st.integers(-10, 10).map(lambda k: 2.0 ** k) if exact else st.floats(1e-3, 1e3)
    scale = np.array([data.draw(factor), data.draw(factor)])
    candidates = CandidateSet.from_bounds(1, len(table), _context())
    base, scaled = (opt._finalize_report("T", _fast_cfg(), candidates, t, list(picks),
                                         n_initial, steps) for t in (table, table * scale))

    product = scale[0] * scale[1]
    pairs = [(base.hv, scaled.hv)]
    pairs += [(a.hv_so_far, b.hv_so_far) for a, b in zip(base.history, scaled.history)]
    for hv, hv_scaled in pairs:
        assert hv_scaled == (hv * product if exact else pytest.approx(hv * product, rel=1e-12))


def test_sobo_runtime_converges_to_runtime_corner():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=25, seed=4)
    report = sobo_run(*_searched(surr_r, surr_p, 1, 64), cfg, "runtime")
    best = report.observed_nodes[np.argmin(report.observed[:, 0])]
    assert best == 64  # runtime-minimizing corner
    # directional H2: its HV cannot beat MOBO's on the same truth
    mobo = mobo_run(*_searched(surr_r, surr_p, 1, 64), _fast_cfg(mobo_iterations=25, seed=4))
    table = compare_methods({"MOBO": mobo, "SOBO (Runtime)": report})
    assert table.hv["MOBO"] >= table.hv["SOBO (Runtime)"]


def test_sobo_records_both_objectives():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=3)
    report = sobo_run(*_searched(surr_r, surr_p, 1, 16), cfg, "power")
    assert report.method == "SOBO (Power)"
    assert (report.observed > 0).all()
    assert report.hv >= 0


def test_random_budget_split_matches_table():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = RunConfig(mobo_iterations=300, random_seeds=5, seed=0)
    report = random_run(*_searched(surr_r, surr_p, 1, 64), cfg)
    assert report.budget["evaluations_per_seed"] == 60
    assert report.budget["pooled_evaluations"] == 300
    assert len(report.per_seed) == 5
    assert all(r.n_evaluations == 60 for r in report.per_seed)
    assert report.n_evaluations == report.n_initial + 300


def test_random_single_seed_plain_search():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=20, random_seeds=1)
    report = random_run(*_searched(surr_r, surr_p, 1, 64), cfg)
    assert report.budget["evaluations_per_seed"] == 20
    assert len(report.per_seed) == 1


def test_a_one_node_candidate_set_is_a_config_error_at_construction():
    from hpcmobo.core import ConfigError
    with pytest.raises(ConfigError, match=re.escape("[4, 4] spans one node count")):
        _candidates(4, 4)
    with pytest.raises(ConfigError, match="share fewer than 2 node counts"):
        CandidateSet.for_surrogates(*_amdahl_surrogates(bounds=(4, 4)), _context())


def test_compare_methods_ties_and_empty():
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=4, seed=9)
    rep = mobo_run(*_searched(surr_r, surr_p, 1, 16), cfg)
    table = compare_methods({"A": rep, "B": rep})
    assert table.hv["A"] == table.hv["B"]
    assert set(table.winner_hv) == {"A", "B"}
    assert set(table.winner_spread) == {"A", "B"}


def test_compare_methods_uses_shared_reference():
    surr_r, surr_p = _amdahl_surrogates()
    a = mobo_run(*_searched(surr_r, surr_p, 1, 64), _fast_cfg(mobo_iterations=8, seed=1))
    b = random_run(*_searched(surr_r, surr_p, 1, 64), _fast_cfg(mobo_iterations=8, seed=1))
    table = compare_methods({"MOBO": a, "Random": b})
    assert table.ref == a.ref == b.ref == infer_reference(_searched(surr_r, surr_p, 1, 64)[1])
    assert table.hv == {"MOBO": a.hv, "Random": b.hv}
    assert table.spread == {"MOBO": a.spread, "Random": b.spread}
    other = random_run(*_searched(surr_r, surr_p, 1, 32), _fast_cfg(mobo_iterations=8, seed=1))
    with pytest.raises(DataError, match="different objective tables"):
        compare_methods({"MOBO": a, "Random": other})


def test_all_methods_share_the_same_initial_design():
    # with no budget beyond the shared init design, method fronts are identical
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=5, random_seeds=5, seed=0)
    reports = {
        "MOBO": mobo_run(*_searched(surr_r, surr_p, 1, 64), cfg),
        "SOBO (Runtime)": sobo_run(*_searched(surr_r, surr_p, 1, 64), cfg, "runtime"),
        "SOBO (Power)": sobo_run(*_searched(surr_r, surr_p, 1, 64), cfg, "power"),
        "Random": random_run(*_searched(surr_r, surr_p, 1, 64),
                             _fast_cfg(mobo_iterations=5, random_seeds=6, seed=0)),
    }
    init = initial_design(1, 64)
    for rep in reports.values():
        assert list(rep.observed_nodes[:len(init)]) == init
    # zero-budget random (fewer iterations than seeds) keeps only the init design
    zero = reports["Random"]
    assert zero.budget["evaluations_per_seed"] == 0
    init_y = [(AMDAHL["runtime"](n), AMDAHL["power"](n)) for n in init]
    ref = infer_reference(init_y)
    assert zero.hv == pytest.approx(hypervolume(nondominated(init_y), ref))


def test_mobo_large_candidate_set_scores_every_node():
    surr_r, surr_p = _amdahl_surrogates(bounds=(1, 6000))
    cfg = _fast_cfg(mobo_iterations=4, seed=7)
    report = mobo_run(*_searched(surr_r, surr_p, 1, 6000), cfg)
    assert report.n_evaluations == report.n_initial + 4
    assert all(1 <= n <= 6000 for n in report.observed_nodes)


def test_report_serialization_round_trips_key_fields(tmp_path):
    surr_r, surr_p = _amdahl_surrogates()
    cfg = _fast_cfg(mobo_iterations=3, seed=8)
    report = random_run(*_searched(surr_r, surr_p, 1, 16), cfg)
    payload = report_to_dict(report)
    assert payload["method"] == "Random"
    assert payload["n_evaluations"] == report.n_evaluations
    assert len(payload["front"]) == len(report.front)
    assert payload["budget"]["pooled_evaluations"] == report.budget["pooled_evaluations"]


def test_editing_the_payload_budget_leaves_the_report_as_it_was():
    surr_r, surr_p = _amdahl_surrogates()
    report = mobo_run(*_searched(surr_r, surr_p, 1, 16), _fast_cfg(mobo_iterations=3))
    before = dict(report.budget)
    report_to_dict(report)["budget"].pop("unique_evaluations")
    assert report.budget == before


def _distinct(picks):
    """The picked rows without repeats, in first-pick order."""
    return list(dict.fromkeys(picks))


def _pick(acq, picks):
    """The first row of the acquisition's maximum; when that maximum is at the
    eps floor, the first row of the maximum over the rows not yet picked."""
    from hpcmobo import optimizer as opt

    if acq.max() <= opt._FLOOR:
        acq = np.where(np.isin(np.arange(len(acq)), picks), -np.inf, acq)
    return int(np.argmax(acq))


def _reference_mobo_run(candidates, objectives, cfg):
    """The MOBO loop over its whole budget: both GPs refitted and every
    candidate rescored in every iteration, repeats included. Each fit is to
    the distinct observed nodes and warm-starts from the fit made at the
    previous distinct node set (the first is cold), so after a repeat every
    fit, and so every pick, is the same as before it."""
    from hpcmobo import optimizer as opt

    picks = [node - candidates.lo for node in initial_design(*candidates.bounds)]
    n_initial = len(picks)
    nodes = candidates.node_counts
    fitted_at, warm_r, warm_p, gp_r, gp_p = None, None, None, None, None
    steps = []
    for _ in range(cfg.mobo_iterations):
        distinct = _distinct(picks)
        if distinct != fitted_at:
            fitted_at, warm_r, warm_p = distinct, gp_r, gp_p
        Y = objectives[distinct]
        gp_r = fit_gp(nodes[distinct], np.log(Y[:, 0]), warm=warm_r)
        gp_p = fit_gp(nodes[distinct], Y[:, 1], warm=warm_p)
        ref = np.asarray(infer_reference(Y), dtype=float)
        acq = np.log(opt.ehvi(gp_r, gp_p, nodes, nondominated(Y), ref) + opt.ACQ_EPS)
        picks.append(_pick(acq, picks))
        steps.append((float(acq.max()),
                      {"runtime": gp_r.telemetry(), "power": gp_p.telemetry()}))
    return opt._finalize_report(opt.METHOD_MOBO, cfg, candidates, objectives, picks,
                                n_initial, steps)


def _reference_sobo_run(candidates, objectives, cfg, objective):
    """The SOBO loop over its whole budget: the GP refitted and EI rescored
    in every iteration, repeats included, each fit to the distinct observed
    nodes and warm-started from the fit made at the previous distinct node
    set (the first is cold)."""
    from hpcmobo import optimizer as opt

    picks = [node - candidates.lo for node in initial_design(*candidates.bounds)]
    n_initial = len(picks)
    nodes = candidates.node_counts
    col = 0 if objective == "runtime" else 1
    method = opt.METHOD_SOBO_RUNTIME if objective == "runtime" else opt.METHOD_SOBO_POWER
    fitted_at, warm, gp = None, None, None
    steps = []
    for _ in range(cfg.mobo_iterations):
        distinct = _distinct(picks)
        if distinct != fitted_at:
            fitted_at, warm = distinct, gp
        values = objectives[distinct, col]
        model_vals = np.log(values) if objective == "runtime" else values
        gp = fit_gp(nodes[distinct], model_vals, warm=warm)
        incumbent = float(model_vals.min())
        mean, var = gp_posterior(gp, nodes)
        acq = np.log(opt.expected_improvement(mean, var, incumbent) + opt.ACQ_EPS)
        picks.append(_pick(acq, picks))
        steps.append((float(acq.max()), {objective: gp.telemetry()}))
    return opt._finalize_report(method, cfg, candidates, objectives, picks, n_initial,
                                steps)


def _assert_cut_at_the_first_repeat(got, full):
    """`got` is the full-budget report `full` cut before its first repeated
    node, which every later pick of `full` repeats too. Repeats change no
    front, reference or metric, so those agree."""
    nodes = list(full.observed_nodes)
    cut = next((i for i in range(full.n_initial, len(nodes)) if nodes[i] in nodes[:i]),
               len(nodes))
    assert len(set(nodes[cut:])) <= 1
    a, b = report_to_dict(got), report_to_dict(full)
    assert a["observations"] == b["observations"][:cut]
    assert a["history"] == b["history"][:cut - full.n_initial]
    assert a["budget"] == {"unique_evaluations": cut}
    for key in ("observations", "history", "budget", "n_evaluations"):
        del a[key], b[key]
    assert a == b


# (surrogates, domain, iterations, seed), each budget at least 3x its domain so
# that the full-budget loops repeat nodes. The fitted GP noise keeps EHVI and
# EI above the floor on real data, so "floor_fallback" zeroes both
# acquisitions: every pick is then the smallest unobserved node until the
# domain is spent
_SEARCH_CASES = {
    "amdahl": (_amdahl_surrogates((1, 12)), (1, 12), 40, 3),
    "amdahl_other_seed": (_amdahl_surrogates((1, 12)), (1, 12), 40, 17),
    "wavy": ((LawSurrogate(lambda n: 30.0 + 10.0 * math.sin(n) + 40.0 / n, (1, 10)),
              LawSurrogate(lambda n: 4.0 * n + 3.0 * math.cos(2.0 * n), (1, 10))),
             (1, 10), 35, 5),
    "floor_fallback": (_amdahl_surrogates((1, 8)), (1, 8), 30, 2),
}


def _zero_acquisitions(monkeypatch):
    from hpcmobo import optimizer

    monkeypatch.setattr(optimizer, "ehvi",
                        lambda gp_r, gp_p, nodes, front, ref: np.zeros(len(nodes)))
    monkeypatch.setattr(optimizer, "expected_improvement",
                        lambda mean, var, incumbent: np.zeros(len(mean)))


@pytest.fixture
def search_case(request, monkeypatch):
    """One _SEARCH_CASES entry, plus a list that records each optimizer.fit_gp
    call made after the reference run."""
    from hpcmobo import optimizer

    case = _SEARCH_CASES[request.param]
    if request.param == "floor_fallback":
        _zero_acquisitions(monkeypatch)
    calls = []
    original = optimizer.fit_gp

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    return case, lambda: monkeypatch.setattr(optimizer, "fit_gp", counting), calls


@pytest.mark.parametrize("search_case", sorted(_SEARCH_CASES), indirect=True)
def test_mobo_stops_at_its_first_repeat_and_matches_the_full_budget_loop(search_case):
    ((surr_r, surr_p), bounds, iterations, seed), count_fits, calls = search_case
    cfg = _fast_cfg(mobo_iterations=iterations, seed=seed)
    full = _reference_mobo_run(*_searched(surr_r, surr_p, *bounds), cfg)
    count_fits()
    got = mobo_run(*_searched(surr_r, surr_p, *bounds), cfg)
    _assert_cut_at_the_first_repeat(got, full)
    assert got.n_evaluations < full.n_evaluations  # the full budget repeats nodes
    # every iteration fits both GPs, the one that proposed the repeat too
    assert len(calls) == 2 * (len(got.history) + 1)


@pytest.mark.parametrize("objective", ["runtime", "power"])
@pytest.mark.parametrize("search_case", sorted(_SEARCH_CASES), indirect=True)
def test_sobo_stops_at_its_first_repeat_and_matches_the_full_budget_loop(search_case,
                                                                         objective):
    ((surr_r, surr_p), bounds, iterations, seed), count_fits, calls = search_case
    cfg = _fast_cfg(mobo_iterations=iterations, seed=seed)
    full = _reference_sobo_run(*_searched(surr_r, surr_p, *bounds), cfg, objective)
    count_fits()
    got = sobo_run(*_searched(surr_r, surr_p, *bounds), cfg, objective)
    _assert_cut_at_the_first_repeat(got, full)
    assert got.n_evaluations < full.n_evaluations
    assert len(calls) == len(got.history) + 1


@pytest.mark.parametrize("search_case", ["floor_fallback"], indirect=True)
@pytest.mark.parametrize("iterations", [30, 2], ids=["domain", "budget"])
def test_floor_fallback_spends_unobserved_nodes_smallest_first(search_case, iterations):
    from hpcmobo.optimizer import ACQ_EPS

    ((surr_r, surr_p), (lo, hi), _, seed), _, _ = search_case
    cfg = _fast_cfg(mobo_iterations=iterations, seed=seed)
    unobserved = sorted(set(range(lo, hi + 1)) - set(initial_design(lo, hi)))
    for report in (mobo_run(*_searched(surr_r, surr_p, lo, hi), cfg),
                   sobo_run(*_searched(surr_r, surr_p, lo, hi), cfg, "runtime"),
                   sobo_run(*_searched(surr_r, surr_p, lo, hi), cfg, "power")):
        assert all(h.acquisition == math.log(ACQ_EPS) for h in report.history)
        assert [h.node_count for h in report.history] == unobserved[:iterations]


# closed-form positive laws over node count n: falling, wavy, U-shaped and flat
_RUNTIME_LAWS = [AMDAHL["runtime"], lambda n: 30.0 + 10.0 * math.sin(n) + 40.0 / n,
                 lambda n: 0.2 * (n - 9.0) ** 2 + 4.0, lambda n: 7.0]
_POWER_LAWS = [AMDAHL["power"], lambda n: 4.0 * n + 3.0 * math.cos(2.0 * n),
               lambda n: 5.0 * n + 400.0 / n, lambda n: 9.0]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_gp_reports_hold_distinct_nodes_and_cut_the_full_budget_loop(data):
    lo = data.draw(st.integers(1, 30), label="lo")
    hi = lo + data.draw(st.integers(1, 12), label="domain size")
    runtime = data.draw(st.sampled_from(_RUNTIME_LAWS), label="runtime law")
    power = data.draw(st.sampled_from(_POWER_LAWS), label="power law")
    iterations = data.draw(st.integers(1, 3 * (hi - lo + 1)), label="iterations")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    method = data.draw(st.sampled_from(["mobo", "runtime", "power"]), label="method")
    surr_r, surr_p = LawSurrogate(runtime, (lo, hi)), LawSurrogate(power, (lo, hi))
    cfg = _fast_cfg(mobo_iterations=iterations, seed=seed)
    if method == "mobo":
        got = mobo_run(*_searched(surr_r, surr_p, lo, hi), cfg)
        full = _reference_mobo_run(*_searched(surr_r, surr_p, lo, hi), cfg)
    else:
        got = sobo_run(*_searched(surr_r, surr_p, lo, hi), cfg, method)
        full = _reference_sobo_run(*_searched(surr_r, surr_p, lo, hi), cfg, method)
    nodes = list(got.observed_nodes)
    assert len(set(nodes)) == len(nodes)
    assert len(nodes) <= min(hi - lo + 1, got.n_initial + iterations)
    _assert_cut_at_the_first_repeat(got, full)


def test_every_report_counts_its_unique_evaluations():
    surr_r, surr_p = _amdahl_surrogates((1, 8))
    report = random_run(*_searched(surr_r, surr_p, 1, 8), _fast_cfg(mobo_iterations=30))
    assert report.budget["unique_evaluations"] == len(set(report.observed_nodes))
    for sub in report.per_seed:
        assert sub.budget["unique_evaluations"] == len(set(sub.observed_nodes))


@pytest.mark.parametrize("method", ["MOBO", "SOBO"])
def test_a_failed_gp_fit_names_the_iteration_it_ran_in(method, monkeypatch):
    from hpcmobo import optimizer
    from hpcmobo.core import NumericalError

    (surr_r, surr_p), bounds, iterations, seed = _SEARCH_CASES["wavy"]
    cfg = _fast_cfg(mobo_iterations=iterations, seed=seed)

    def run():
        if method == "MOBO":
            return mobo_run(*_searched(surr_r, surr_p, *bounds), cfg)
        return sobo_run(*_searched(surr_r, surr_p, *bounds), cfg, "runtime")

    # every iteration fits, the last one, which proposed a repeat, included
    last = len(run().history)
    assert last > 0
    fits_per_iteration = 2 if method == "MOBO" else 1
    original = optimizer.fit_gp
    calls = []

    def failing_last(*args, **kwargs):
        calls.append(1)
        if len(calls) > last * fits_per_iteration:
            raise NumericalError("no valid configuration")
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "fit_gp", failing_last)
    with pytest.raises(NumericalError, match=f"GP fit failed at {method} iteration {last}: "):
        run()


def test_history_records_the_gp_that_scored_each_pick(tmp_path, monkeypatch):
    from hpcmobo import gp as gp_module

    # every factorization's first attempt, at the fit's base jitter 1e-10,
    # reports an indefinite matrix, so each one escalates to the next jitter
    potrf = gp_module._POTRF
    calls = itertools.count()

    def first_attempt_fails(K, **kwargs):
        if next(calls) % 2 == 0:
            return K, 1
        return potrf(K, **kwargs)

    monkeypatch.setattr(gp_module, "_POTRF", first_attempt_fails)
    (surr_r, surr_p), bounds, iterations, seed = _SEARCH_CASES["wavy"]
    cfg = _fast_cfg(mobo_iterations=iterations, seed=seed)
    reports = {"runtime power": mobo_run(*_searched(surr_r, surr_p, *bounds), cfg),
               "runtime": sobo_run(*_searched(surr_r, surr_p, *bounds), cfg, "runtime")}
    for objectives, report in reports.items():
        save_report(report, tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["history"]
        for entry in payload["history"]:
            assert sorted(entry) == ["acquisition", "gp", "hv_so_far", "iteration",
                                     "node_count", "power", "runtime", "spread_so_far"]
            assert sorted(entry["gp"]) == sorted(objectives.split())
            for fit in entry["gp"].values():
                assert fit["jitter"] == 1e-8
                assert sorted(fit) == ["jitter", "lengthscale", "lml", "noise_var",
                                       "signal_var"]
        assert payload["budget"] == {"unique_evaluations": report.n_evaluations}

    random_history = report_to_dict(random_run(*_searched(surr_r, surr_p, *bounds),
                                               cfg))["history"]
    assert all("gp" not in e for e in random_history)


@pytest.mark.parametrize("zeroed", [False, True], ids=["argmax", "floor_fallback"])
def test_debug_log_has_a_line_per_pick_and_one_for_the_stop(zeroed, caplog, monkeypatch):
    import logging

    if zeroed:
        _zero_acquisitions(monkeypatch)
    (surr_r, surr_p), bounds, iterations, seed = _SEARCH_CASES["amdahl"]
    cfg = _fast_cfg(mobo_iterations=iterations, seed=seed)
    with caplog.at_level(logging.DEBUG, logger="hpcmobo.optimizer"):
        report = mobo_run(*_searched(surr_r, surr_p, *bounds), cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "hpcmobo.optimizer"]
    assert lines[:-1] == [
        f"MOBO iteration {it}: node {h.node_count}, best log acquisition "
        f"{h.acquisition:.6g}, floor fallback {zeroed}"
        for it, h in enumerate(report.history)]
    stop = re.fullmatch(rf"MOBO stopped after {report.n_evaluations} evaluations: "
                        r"it proposed node (\d+) again", lines[-1])
    assert stop and int(stop[1]) in report.observed_nodes
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="hpcmobo.optimizer"):
        mobo_run(*_searched(surr_r, surr_p, *bounds), cfg)
    assert not caplog.records
