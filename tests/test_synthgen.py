import math

import numpy as np
import pytest

from hpcmobo.core import ConfigError
from hpcmobo.ingest import preprocess_fit, write_csv
from hpcmobo.synthgen import (
    DURATION_PAIRS,
    SyntheticSpec,
    generate,
    objectives_at,
    power_law,
    runtime_law,
    true_front,
)


def test_runtime_law_closed_forms():
    assert runtime_law(base=100.0, serial_frac=0.0, nodes=4) == 25.0
    assert runtime_law(base=100.0, serial_frac=1.0, nodes=64) == 100.0
    assert runtime_law(base=100.0, serial_frac=0.5, nodes=2) == pytest.approx(75.0)


def test_power_law_closed_form():
    assert power_law(idle=50.0, per_node=5.0, nodes=10) == 100.0


def test_generate_is_bit_deterministic(tmp_path):
    spec = SyntheticSpec(n_jobs=200, n_noise_features=3, seed=11)
    t1, truth1 = generate(spec)
    t2, truth2 = generate(spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(t1, p1)
    write_csv(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert truth1 == truth2


def test_generated_power_array_sums_to_power_law():
    spec = SyntheticSpec(n_jobs=50, noise_sigma=0.0, seed=3)
    table, truth = generate(spec)
    for i in range(50):
        job = truth["jobs"][i]
        expected = power_law(job["idle"], job["per_node"], job["nodes"])
        assert float(np.sum(table.column("node_power")[i])) == pytest.approx(expected, rel=1e-9)


def test_generated_runtime_matches_law_when_noise_free():
    spec = SyntheticSpec(n_jobs=50, noise_sigma=0.0, seed=4)
    table, truth = generate(spec)
    for i in range(50):
        job = truth["jobs"][i]
        expected = runtime_law(job["base"], job["serial_frac"], job["nodes"])
        assert table.column("runtime_seconds")[i] == pytest.approx(expected, rel=1e-12)


def test_generated_table_passes_ingest_with_zero_imputation():
    spec = SyntheticSpec(n_jobs=100, n_noise_features=2, noise_sigma=0.0, seed=5)
    table, _ = generate(spec)
    # nothing to impute
    assert not any(v is None for name in table.names for v in table.column(name))
    out, _ = preprocess_fit(table, duration_pairs=DURATION_PAIRS)
    assert not any(v is None for name in out.names for v in out.column(name))
    assert out.n_rows == 100
    roles = [c.role for c in out.columns]
    assert roles.count("design_variable") == 1
    assert roles.count("regression_target") == 2
    assert all(w >= 0 for w in out.column("wait_seconds"))


def test_runtime_monotone_non_increasing_in_nodes():
    job = {"base": 200.0, "serial_frac": 0.3, "per_node": 5.0, "idle": 40.0}
    objs = objectives_at(job, range(1, 33))
    runtimes = [r for r, _ in objs]
    assert all(a >= b for a, b in zip(runtimes, runtimes[1:]))


def test_true_front_strict_tradeoff_keeps_every_node_count():
    # runtime strictly decreasing, power strictly increasing: all Pareto-optimal
    job = {"base": 100.0, "serial_frac": 0.0, "per_node": 5.0, "idle": 50.0}
    front = true_front(job, (1, 16))
    assert len(front) == 16


def test_true_front_constant_runtime_collapses_to_min_nodes():
    job = {"base": 100.0, "serial_frac": 1.0, "per_node": 5.0, "idle": 50.0}
    front = true_front(job, (1, 16))
    assert len(front) == 1
    assert front.points[0] == (100.0, power_law(50.0, 5.0, 1))


def test_true_front_matches_brute_force_filter():
    from test_pareto import brute_force_front
    job = {"base": 300.0, "serial_frac": 0.2, "per_node": 3.0, "idle": 20.0}
    spec = SyntheticSpec(node_range=(1, 64))
    front = true_front(job, spec.node_range)
    pts = objectives_at(job, range(1, 65))
    assert sorted(front.points) == brute_force_front(pts)


def test_spec_invariants_enforced():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_jobs=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(node_range=(4, 2))
    with pytest.raises(ConfigError):
        SyntheticSpec(noise_sigma=-1.0)


@pytest.mark.parametrize("field, value", [
    ("n_noise_features", -1), ("noise_sigma", math.nan), ("noise_sigma", math.inf),
    ("seed", -3),
])
def test_spec_names_a_field_out_of_its_range(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be .*, got {value}$"):
        SyntheticSpec(**{field: value})
