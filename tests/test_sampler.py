import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hpcmobo.core import ColumnSpec, ConfigError, DataError
from hpcmobo.sampler import (
    SAT_CAP,
    SamplerPlan,
    _solve_rate,
    build_plan,
    draw_subset,
    sample_table,
    score_difficulty,
)
from oracles import build_table


def _regression_table(n=300, seed=0, extra_target=False):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 2.0 * x1 + rng.normal(0, 0.5, size=n)
    cols = [
        ColumnSpec("x1", "numeric", "feature"),
        ColumnSpec("x2", "numeric", "feature"),
        ColumnSpec("nodes", "numeric", "design_variable"),
        ColumnSpec("y", "numeric", "regression_target"),
    ]
    data = {"x1": list(x1), "x2": list(x2),
            "nodes": list(rng.integers(1, 9, size=n).astype(float)), "y": list(y)}
    if extra_target:
        cols.append(ColumnSpec("z", "numeric", "regression_target"))
        data["z"] = list(x2 ** 2 + rng.normal(0, 0.5, size=n))
    return build_table(cols, data)


def test_score_difficulty_requires_targets():
    table = build_table(
        [ColumnSpec("x", "numeric", "feature"),
         ColumnSpec("nodes", "numeric", "design_variable")],
        {"x": [1.0, 2.0], "nodes": [1.0, 2.0]},
    )
    with pytest.raises(ConfigError, match="target"):
        score_difficulty(table, 0)


def test_score_difficulty_constant_target_gives_all_zero():
    table = build_table(
        [ColumnSpec("x", "numeric", "feature"),
         ColumnSpec("nodes", "numeric", "design_variable"),
         ColumnSpec("y", "numeric", "regression_target")],
        {"x": [1.0, 2.0, 3.0, 4.0], "nodes": [1.0] * 4, "y": [5.0] * 4},
    )
    losses = score_difficulty(table, 0)
    assert np.all(losses == 0.0)


def test_score_difficulty_normalized_and_mean_over_targets():
    table = _regression_table(extra_target=True)
    losses = score_difficulty(table, seed=1)
    assert losses.shape == (table.n_rows,)
    assert losses.min() >= 0.0
    assert losses.max() <= 1.0
    # with two targets, L is the mean of two min-max-normalized error vectors
    assert losses.max() > 0.0


def test_score_difficulty_is_higher_for_harder_rows():
    # rows whose target is pure noise around an outlier should score high
    rng = np.random.default_rng(3)
    n = 200
    x = rng.normal(size=n)
    y = x.copy()
    y[:10] += 25.0  # corrupted rows are hard for the scorer
    table = build_table(
        [ColumnSpec("x", "numeric", "feature"),
         ColumnSpec("nodes", "numeric", "design_variable"),
         ColumnSpec("y", "numeric", "regression_target")],
        {"x": list(x), "nodes": [1.0] * n, "y": list(y)},
    )
    losses = score_difficulty(table, seed=0)
    assert losses[:10].mean() > 2 * losses[10:].mean()


def test_build_plan_constant_losses_closed_form():
    # clip map on constant losses: mean(p) = clip(lam * c) so lam = tau / c
    c = 2.0
    losses = np.full(500, c)
    plan = build_plan(losses, tau=0.5, p_min=0.01)
    assert plan.lam == pytest.approx(0.5 / c, rel=1e-12)
    assert np.all(plan.probs == plan.probs[0])
    assert abs(plan.expected_rate - 0.5) <= 1e-12 * 0.5
    assert plan.rate_converged


def test_build_plan_full_rate_saturates_everything():
    rng = np.random.default_rng(1)
    losses = rng.uniform(0.1, 1.0, size=2000)
    plan = build_plan(losses, tau=1.0, p_min=0.01)
    assert np.all(plan.probs == 1.0)
    assert plan.expected_rate == 1.0


def test_build_plan_all_zero_losses_reports_floor_with_flag():
    losses = np.zeros(1000)
    plan = build_plan(losses, tau=0.3, p_min=0.01)
    assert np.all(plan.probs == 0.01)
    assert plan.expected_rate == pytest.approx(0.01)
    assert not plan.rate_converged


def test_build_plan_at_tau_equal_to_p_min_keeps_every_row_at_the_floor():
    plan = build_plan(np.linspace(0.0, 1.0, 100), tau=0.01, p_min=0.01)
    assert plan.lam == 0.0
    assert np.all(plan.probs == 0.01)
    assert plan.rate_converged


def test_solve_rate_takes_the_least_lambda_on_a_flat_piece():
    # with p_min = 0.5 the rate of losses (1, 100) stays at 0.75 for every
    # lambda in [0.01, 0.5]: the loss-100 row saturates at 0.01, and the
    # loss-1 row leaves the floor at 0.5
    lam, probs, feasible = _solve_rate(np.array([1.0, 100.0]), 0.75, 0.5)
    assert lam == 0.01
    assert probs.tolist() == [0.5, 1.0]
    assert feasible


def test_build_plan_rejects_a_subnormal_loss():
    # 1 / 1e-310 overflows, so no finite lambda saturates that row
    with pytest.raises(DataError, match="smallest normal float"):
        build_plan(np.array([0.0, 1e-310, 1.0]), tau=0.5, p_min=0.01)


def test_build_plan_infeasible_when_tau_below_p_min():
    with pytest.raises(ConfigError, match="infeasible"):
        build_plan(np.ones(10), tau=0.005, p_min=0.01)


def test_build_plan_winsorizes_heavy_tail():
    rng = np.random.default_rng(2)
    losses = rng.lognormal(0.0, 2.0, size=5000)
    plan = build_plan(losses, tau=0.5, p_min=0.01)
    # heavy tail saturates > 10% of rows, so the loss vector is winsorized at
    # the 0.9 quantile and lambda is solved once more; the rate stays exact
    assert plan.winsorized
    assert abs(plan.expected_rate - 0.5) <= 1e-12 * 0.5
    assert np.all(plan.losses <= np.quantile(losses, 0.9) + 1e-12)
    assert plan.rate_converged


def test_plan_invariant_probs_equal_clip_map_bit_exact():
    rng = np.random.default_rng(4)
    losses = rng.uniform(0, 1, size=5000)
    plan = build_plan(losses, tau=0.4, p_min=0.01)
    recomputed = np.clip(plan.lam * plan.losses, plan.p_min, 1.0)
    assert np.array_equal(plan.probs, recomputed)


def test_probability_monotone_in_loss():
    rng = np.random.default_rng(5)
    losses = rng.uniform(0, 1, size=2000)
    plan = build_plan(losses, tau=0.5, p_min=0.01)
    order = np.argsort(plan.losses)
    assert np.all(np.diff(plan.probs[order]) >= 0)
    assert np.all(plan.probs >= plan.p_min)


def test_draw_subset_certainty_and_determinism():
    table = _regression_table(n=50)
    full, mask = draw_subset(table, np.ones(50), seed=0)
    assert full.n_rows == 50
    assert mask.all()
    p = np.full(50, 0.5)
    _, m1 = draw_subset(table, p, seed=42)
    _, m2 = draw_subset(table, p, seed=42)
    assert np.array_equal(m1, m2)


def test_draw_subset_binomial_concentration():
    # n = 100k, p = 0.5: counts should stay within [49000, 51000] per seed
    table = build_table(
        [ColumnSpec("x", "numeric", "feature"),
         ColumnSpec("nodes", "numeric", "design_variable"),
         ColumnSpec("y", "numeric", "regression_target")],
        {"x": [0.0] * 100_000, "nodes": [1.0] * 100_000, "y": [0.0] * 100_000},
    )
    p = np.full(100_000, 0.5)
    for seed in range(20):
        _, mask = draw_subset(table, p, seed=seed)
        assert 49_000 <= int(mask.sum()) <= 51_000


def test_draw_subset_preserves_row_order_and_columns():
    table = _regression_table(n=40, seed=6)
    rng = np.random.default_rng(0)
    subset, mask = draw_subset(table, rng.uniform(0.2, 0.8, size=40), seed=9)
    assert subset.names == table.names
    kept = np.flatnonzero(mask)
    assert subset.column("x1") == [table.column("x1")[i] for i in kept]


def test_rate_calibration_over_50_seeds():
    table = _regression_table(n=4000, seed=7)
    losses = score_difficulty(table, seed=0)
    for tau in (0.5, 0.75):
        plan = build_plan(losses, tau=tau, p_min=0.01)
        rates = []
        for seed in range(50):
            _, mask = draw_subset(table, plan.probs, seed=seed)
            rates.append(mask.mean())
        assert abs(float(np.mean(rates)) - tau) <= 0.02


def test_sample_table_end_to_end_with_plan_file(tmp_path):
    table = _regression_table(n=500, seed=8)
    subset, plan = sample_table(table, tau=0.5, p_min=0.01, seed=3)
    assert plan.mask is not None
    assert subset.n_rows == int(plan.mask.sum())
    path = tmp_path / "plan.json"
    plan.save(path)
    import json
    payload = json.loads(path.read_text())
    assert payload["lambda"] == plan.lam
    assert payload["expected_rate"] == plan.expected_rate
    assert payload["saturated_fraction"] == plan.saturated_fraction
    assert payload["mask"] == [int(z) for z in plan.mask]


# losses as score_difficulty makes them, and far beyond: zeros, ties and
# positive values over 16 orders of magnitude
_LOSSES = st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 1e8)), min_size=1, max_size=300)
_P_MIN = st.floats(1e-4, 1.0)
_UNIT = st.floats(0.0, 1.0)


def _tau(p_min: float, u: float) -> float:
    return min(p_min + u * (1.0 - p_min), 1.0)


def _top_rate(losses: np.ndarray, p_min: float) -> float:
    """The largest reachable rate: every positive-loss row at p = 1."""
    m = int((losses > 0).sum())
    return (p_min * (len(losses) - m) + m) / len(losses)


@settings(max_examples=300, deadline=None)
@given(_LOSSES, _P_MIN, _UNIT)
def test_plan_hits_every_feasible_tau_with_the_clip_map(losses, p_min, u):
    losses = np.array(losses)
    tau = _tau(p_min, u)
    plan = build_plan(losses, tau, p_min)
    assert plan.rate_converged == (tau <= _top_rate(losses, p_min))
    if plan.rate_converged:
        assert abs(plan.expected_rate - tau) <= 1e-12 * tau
    assert np.all((plan.probs >= p_min) & (plan.probs <= 1.0))
    assert np.array_equal(plan.probs, np.clip(plan.lam * plan.losses, p_min, 1.0))


@settings(max_examples=300, deadline=None)
@given(_LOSSES, _P_MIN, _UNIT, _UNIT)
def test_lambda_does_not_decrease_as_tau_grows(losses, p_min, u1, u2):
    losses = np.array(losses)
    low, high = sorted((_tau(p_min, u1), _tau(p_min, u2)))
    lam_low = build_plan(losses, low, p_min).lam
    lam_high = build_plan(losses, high, p_min).lam
    assert lam_high >= lam_low * (1.0 - 1e-12)


@settings(max_examples=300, deadline=None)
@given(_LOSSES, _P_MIN, _UNIT)
def test_winsorizing_fires_exactly_when_the_first_solve_saturates_past_the_cap(
        losses, p_min, u):
    losses = np.array(losses)
    tau = _tau(p_min, u)
    _, first, _ = _solve_rate(losses, tau, p_min)
    plan = build_plan(losses, tau, p_min)
    assert plan.winsorized == (float((first == 1.0).mean()) > SAT_CAP)
    if not plan.winsorized:
        assert np.array_equal(plan.losses, losses)


@settings(max_examples=200, deadline=None)
@given(_LOSSES, _P_MIN, _UNIT, st.randoms(use_true_random=False))
def test_permuting_the_losses_permutes_the_probabilities(losses, p_min, u, rnd):
    losses = np.array(losses)
    tau = _tau(p_min, u)
    perm = np.array(rnd.sample(range(len(losses)), len(losses)))
    plan = build_plan(losses, tau, p_min)
    shuffled = build_plan(losses[perm], tau, p_min)
    assert shuffled.lam == plan.lam
    assert np.array_equal(shuffled.probs, plan.probs[perm])


@settings(max_examples=200, deadline=None)
@given(_LOSSES, st.floats(1e-4, 0.999), _UNIT)
def test_infeasible_tau_saturates_every_positive_loss_row(losses, p_min, u):
    losses = np.array(losses + [0.0])  # a zero row keeps the top rate below 1
    top = _top_rate(losses, p_min)
    tau = min(top + max(u, 0.01) * (1.0 - top), 1.0)
    assume(tau > top)
    plan = build_plan(losses, tau, p_min)
    assert not plan.rate_converged
    assert np.all(plan.probs[losses > 0] == 1.0)
    assert np.all(plan.probs[losses == 0] == p_min)
