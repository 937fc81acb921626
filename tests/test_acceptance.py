"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance and time limit is pinned here.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hpcmobo.core import RunConfig
from hpcmobo.embedding import AttentiveMask
from hpcmobo.gp import fit_gp, gp_posterior
from hpcmobo.ingest import preprocess_fit, write_table
from hpcmobo.optimizer import (
    CandidateSet,
    JobContext,
    compare_methods,
    ehvi_samples,
    evaluate_objectives,
    log_ehvi,
    mobo_run,
    random_run,
    sobo_run,
)
from hpcmobo.pareto import (
    hypervolume,
    hypervolume_improvement,
    infer_reference,
    nondominated,
)
from hpcmobo.pipeline import (
    PipelineSettings,
    manifest_comparable,
    report_h1,
    run_pipeline,
)
from hpcmobo.sampler import build_plan, draw_subset, score_difficulty
from hpcmobo.synthgen import DURATION_PAIRS, SyntheticSpec, generate, save_truth, table_schema
from oracles import gradient_check, mc_hypervolume


@contextmanager
def criterion(num: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} exceeded its time limit: {elapsed:.1f}s >= {limit_seconds}s"
    )
    print(f"\nACCEPTANCE {num:02d} PASS {description} ({elapsed:.1f}s)")


def test_criterion_01_hypervolume_exactness():
    with criterion(1, "hypervolume: exact sweep vs 1e6-sample MC oracle on 100 fronts", 30):
        assert hypervolume(nondominated([(1, 2), (2, 1)]), (3, 3)) == pytest.approx(
            3.0, abs=1e-12)
        rng = np.random.default_rng(101)
        samples = 10 ** 6
        for trial in range(100):
            size = int(rng.integers(1, 51))
            front = nondominated(rng.random((size, 2)))
            ref = (1.25, 1.25)
            exact = hypervolume(front, ref)
            # fixed draw seeds keep this statistical check deterministic
            mc = mc_hypervolume(front, ref, samples=samples, seed=5000 + trial)
            pts = front.as_array()
            lo = np.minimum(pts.min(axis=0), ref)
            area = float((ref[0] - lo[0]) * (ref[1] - lo[1]))
            p = exact / area if area > 0 else 0.0
            sigma = area * math.sqrt(max(p * (1 - p), 0.0) / samples)
            assert abs(exact - mc) <= 3 * sigma + 1e-9, f"trial {trial}"


def test_criterion_02_dominance_correctness():
    with criterion(2, "nondominated equals O(n^2) brute force on 1000 instances", 10):
        rng = np.random.default_rng(202)
        for trial in range(1000):
            n = int(rng.integers(1, 201))
            pts = np.round(rng.normal(size=(n, 2)), 2)  # rounding induces ties
            # independent pairwise oracle
            le = (pts[None, :, :] <= pts[:, None, :]).all(axis=2)
            ne = (pts[None, :, :] != pts[:, None, :]).any(axis=2)
            dominated = (le & ne).any(axis=1)
            oracle = sorted({(float(a), float(b)) for a, b in pts[~dominated]})
            got = sorted(nondominated(pts).points)
            assert got == oracle, f"trial {trial}"


def test_criterion_03_sampler_calibration():
    with criterion(3, "sampler: rate tuning and draw calibration on 50k rows", 120):
        spec = SyntheticSpec(n_jobs=50_000, n_noise_features=3, noise_sigma=2.0, seed=9)
        table, _ = generate(spec)
        processed, _ = preprocess_fit(table, DURATION_PAIRS)
        losses = score_difficulty(processed, seed=0)
        for tau in (0.5, 0.75, 1.0):
            plan = build_plan(losses, tau=tau, p_min=0.01)
            assert abs(plan.expected_rate - tau) <= 1e-3, f"tau={tau}"
            recomputed = np.clip(plan.lam * plan.losses, plan.p_min, 1.0)
            assert np.array_equal(plan.probs, recomputed)  # bit-exact clip map
            realized = []
            for seed in range(50):
                _, mask = draw_subset(processed, plan.probs, seed=seed)
                realized.append(mask.mean())
            assert abs(float(np.mean(realized)) - tau) <= 0.02, f"tau={tau}"


def test_criterion_04_gradient_check():
    with criterion(4, "attentive-mask analytic gradients vs finite differences", 5):
        rng = np.random.default_rng(404)
        for trial in range(20):
            n = int(rng.integers(5, 21))
            d = int(rng.integers(2, 9))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            mask = AttentiveMask(
                theta=rng.normal(0, 1.0, size=d),
                readout_w=rng.normal(0, 1.0, size=d),
                readout_b=float(rng.normal()),
            )
            err = gradient_check(mask, X, y)
            assert err < 1e-4, f"trial {trial}: {err}"


def test_criterion_05_gp_sanity():
    with criterion(5, "GP interpolation and 1-D sine reconstruction", 10):
        rng = np.random.default_rng(505)
        x = rng.uniform(-2, 2, size=20)
        y = np.sin(x) + 0.3 * x ** 2
        gp = fit_gp(x, y, noise_var=0.0)
        mean, var = gp_posterior(gp, x)
        # the base jitter misses each target by jitter * alpha (4.3e-6 at
        # most here), since K (K + jitter I)^-1 y = y - jitter * alpha
        assert np.max(np.abs(mean - y)) < 1e-5
        assert np.max(np.abs(mean - (y - gp.jitter * gp.alpha))) < 1e-9
        assert np.max(var) < 1e-8
        xs = np.linspace(0, 2 * np.pi, 25)
        gp_sine = fit_gp(xs, np.sin(xs), noise_var=0.0)
        grid = np.linspace(0, 2 * np.pi, 200)
        mean_s, _ = gp_posterior(gp_sine, grid)
        assert np.max(np.abs(mean_s - np.sin(grid))) < 0.05


def test_criterion_06_acquisition_consistency():
    with criterion(6, "logEHVI: zero-variance exactness and MC self-consistency", 60):
        # exactness at a zero-variance (noise-free training) candidate
        nodes = np.array([1.0, 16.0, 32.0, 64.0])
        # runtimes spread enough that the log GP's variance at its training
        # inputs snaps to 0
        gp_r = fit_gp(nodes, np.log([50.0, 20.0, 8.0, 4.0]), noise_var=0.0)
        gp_p = fit_gp(nodes, [5.0, 20.0, 40.0, 80.0], noise_var=0.0)
        front = nondominated([(9.0, 90.0)])
        ref = (100.0, 100.0)
        mu_r, var_r = gp_posterior(gp_r, np.array([32]))
        mu_p, var_p = gp_posterior(gp_p, np.array([32]))
        assert var_r[0] == 0.0 and var_p[0] == 0.0
        det = float(hypervolume_improvement(front, np.asarray(ref),
                                            np.array([[math.exp(mu_r[0]), mu_p[0]]]))[0])
        for mc in (128, 2 ** 14):
            assert log_ehvi(gp_r, gp_p, 32, front, ref, mc, seed=3) == math.log(det + 1e-12)

        # 128-sample vs 2^14-sample agreement within 3 MC standard errors
        rng = np.random.default_rng(606)
        for trial in range(50):
            k = int(rng.integers(4, 9))
            obs_nodes = np.sort(rng.choice(np.arange(1, 65), size=k, replace=False))
            runtimes = rng.uniform(5, 60, size=k)
            powers = rng.uniform(20, 400, size=k)
            g_r = fit_gp(obs_nodes, np.log(runtimes))
            g_p = fit_gp(obs_nodes, powers)
            Y = np.column_stack([runtimes, powers])
            fr = nondominated(Y)
            rf = infer_reference(Y)
            x = int(rng.integers(1, 65))
            small = ehvi_samples(g_r, g_p, x, fr, rf, 128, seed=trial)
            big = ehvi_samples(g_r, g_p, x, fr, rf, 2 ** 14, seed=7000 + trial)
            se = float(big.std(ddof=1)) / math.sqrt(128)
            assert abs(float(small.mean()) - float(big.mean())) <= 3 * se + 1e-12, (
                f"trial {trial}")


class _Law:
    feature_names = ["num_nodes_alloc"]
    design_feature = "num_nodes_alloc"
    design_bounds = (1, 64)

    def __init__(self, fn):
        self.fn = fn

    def predict(self, X):
        return np.array([self.fn(row[0]) for row in np.asarray(X, dtype=float)])


def test_criterion_07_h2_directional():
    with criterion(7, "H2: MOBO vs SOBO medians and 95% true-front capture", 300):
        surr_r = _Law(lambda n: 100.0 / n + 2.0)
        surr_p = _Law(lambda n: 5.0 * n)
        ctx = JobContext(("num_nodes_alloc",), np.array([1.0]), "num_nodes_alloc")
        candidates = CandidateSet.from_bounds(1, 64, ctx)
        objectives = evaluate_objectives(surr_r, surr_p, candidates)
        truth = [(100.0 / n + 2.0, 5.0 * n) for n in range(1, 65)]
        ref = infer_reference(truth)
        true_hv = hypervolume(nondominated(truth), ref)

        mobo_hv, sobo_r_hv, sobo_p_hv = [], [], []
        for seed in range(5):
            cfg = RunConfig(mobo_iterations=50, seed=seed)
            m = mobo_run(candidates, objectives, cfg)
            sr = sobo_run(candidates, objectives, cfg, "runtime")
            sp = sobo_run(candidates, objectives, cfg, "power")
            table = compare_methods(
                {"MOBO": m, "SOBO (Runtime)": sr, "SOBO (Power)": sp})
            mobo_hv.append(table.hv["MOBO"])
            sobo_r_hv.append(table.hv["SOBO (Runtime)"])
            sobo_p_hv.append(table.hv["SOBO (Power)"])
            assert hypervolume(m.front, ref) >= 0.95 * true_hv, f"seed {seed}"
        assert np.median(mobo_hv) >= np.median(sobo_r_hv)
        assert np.median(mobo_hv) >= np.median(sobo_p_hv)


def test_criterion_08_h1_directional():
    with criterion(8, "H1: embedded vs raw surrogate MSE and downstream MOBO HV", 600):
        spec = SyntheticSpec(n_jobs=800, n_noise_features=25, noise_sigma=2.0, seed=3)
        table, truth = generate(spec)
        processed, _ = preprocess_fit(table, DURATION_PAIRS)
        settings = PipelineSettings(
            input_path=Path("unused"), out_dir=Path("unused"),
            runtime_target="runtime_seconds", power_target="node_power", specs=[],
            n_estimators=60, max_depth=8, mask_epochs=300, h1_seeds=5,
        )
        cfg = RunConfig(mobo_iterations=15, seed=0)
        result = report_h1(processed, settings, cfg, truth=truth,
                           context_rows=[0, 5, 11], methods=("MOBO",))
        med = result["median_validation"]
        for target in ("runtime_seconds", "node_power"):
            assert med["embedded"][target]["mse"] <= med["raw"][target]["mse"], target
        emb_hv = result["downstream_median"]["embedded"]["MOBO"]["hv"]
        raw_hv = result["downstream_median"]["raw"]["MOBO"]["hv"]
        assert emb_hv >= raw_hv


def _acceptance_config(tmp_path: Path) -> Path:
    spec = SyntheticSpec(n_jobs=250, n_noise_features=3, noise_sigma=1.0, seed=12)
    table, truth = generate(spec)
    write_table(table, tmp_path / "data.csv")
    save_truth(truth, tmp_path / "truth.json")
    lines = [
        "[run]",
        "mobo_iterations = 8",
        "mc_samples = 32",
        "random_seeds = 4",
        "seed = 2",
        "sampling_fraction = 0.75",
        "",
        "[pipeline]",
        "input = data.csv",
        "truth = truth.json",
        "out_dir = out",
        "runtime_target = runtime_seconds",
        "power_target = node_power",
        "n_job_contexts = 1",
        "n_estimators = 15",
        "max_depth = 6",
        "mask_epochs = 150",
        "",
        "[durations]",
    ]
    for start, end, name in DURATION_PAIRS:
        lines.append(f"{name} = {start},{end}")
    lines.append("")
    lines.append("[schema]")
    for s in table_schema(spec.n_noise_features):
        lines.append(f"{s.name} = {s.kind}:{s.role}")
    path = tmp_path / "config.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


TIMING_ROWS = ["Preprocessing", "Runtime Model", "Power Model", "Preproc. MOBO",
               "MOBO", "SOBO Runtime", "SOBO Power"]


def test_criterion_09_pipeline_reproducibility(tmp_path):
    with criterion(9, "pipeline: byte-identical reruns and timing accounting", 600):
        cfg_path = _acceptance_config(tmp_path)
        m1 = run_pipeline(cfg_path, out_dir_override=str(tmp_path / "run1"))
        m2 = run_pipeline(cfg_path, out_dir_override=str(tmp_path / "run2"))
        assert manifest_comparable(m1) == manifest_comparable(m2)
        for p in sorted((tmp_path / "run1").rglob("*")):
            if not p.is_file() or p.name in ("manifest.json", "timing_table.csv"):
                continue  # timing content differs by nature; manifests compared above
            q = tmp_path / "run2" / p.relative_to(tmp_path / "run1")
            assert p.read_bytes() == q.read_bytes(), p.name
        lines = (tmp_path / "run1" / "timing_table.csv").read_text().strip().splitlines()
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == TIMING_ROWS + ["TOTAL"]
        seconds = [float(line.split(",")[1]) for line in lines[1:]]
        total = seconds[-1]
        assert abs(total - sum(seconds[:-1])) <= 1e-6 * max(1.0, abs(total)) + 5e-7


def test_criterion_10_random_budget_accounting():
    with criterion(10, "random baseline: 60 evaluations per seed, 300 pooled", 60):
        surr_r = _Law(lambda n: 100.0 / n + 2.0)
        surr_p = _Law(lambda n: 5.0 * n)
        ctx = JobContext(("num_nodes_alloc",), np.array([1.0]), "num_nodes_alloc")
        candidates = CandidateSet.from_bounds(1, 64, ctx)
        cfg = RunConfig(mobo_iterations=300, random_seeds=5, seed=0)
        report = random_run(candidates, evaluate_objectives(surr_r, surr_p, candidates), cfg)
        assert report.budget["evaluations_per_seed"] == 60
        assert report.budget["pooled_evaluations"] == 300
        assert len(report.per_seed) == 5
        assert all(r.n_evaluations == 60 for r in report.per_seed)
        assert report.n_evaluations == report.n_initial + 300
