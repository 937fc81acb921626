"""Pipeline benchmark for hpcmobo.

    python3 perfbench/run.py --workload long-search --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from --seed, then runs
`hpcmobo.pipeline.run_pipeline` one run at a time, each in a fresh child
process with BLAS/OpenMP threads pinned to 1, until --seconds have passed
(at least MIN_RUNS runs; none starts after RUNS_BUDGET_S or a failed run).
Every run's outputs go through the correctness gate. With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of one extra traced run. The exit code is nonzero when any
run failed or any check tripped. `--workload all` runs every workload in
turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import OPTIMIZER_METHODS as METHODS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_RUNS = 3
SETUP_REPS = 5
IMPORTTIME_REPS = 3
RUNS_BUDGET_S = 100  # keeps one invocation inside three minutes, hung runs included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_CODE = ("import time; t = time.perf_counter(); import hpcmobo.cli; "
              "hpcmobo.cli.build_parser(); print(time.perf_counter() - t)")

# (name, unit, better) of the result metrics: `end_to_end` with --trace 0,
# `per_layer` with --trace 1.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = tuple((m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"])
# Front-quality scores whose seed-to-seed spread is wider than the largest
# bound a result metric may have (README.md gives the figures): result metrics
# of the traced run, where no bound applies, and printed, outside the result,
# beside the end-to-end table.
UNBOUNDED_QUALITY = tuple(m for m in PER_LAYER
                          if m[0] in ("sobo_power_true_hv_frac", "runtime_mape", "power_mape"))


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: "1" for var in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def measure_setup(env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_importtime(env: dict) -> dict:
    """Cumulative import time of hpcmobo.cli and scipy.stats from -X importtime."""
    samples: dict[str, list[float]] = {"hpcmobo.cli": [], "scipy.stats": []}
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hpcmobo.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {"cli.import_s": statistics.median(samples["hpcmobo.cli"]),
            "cli.import_scipy_stats_s": statistics.median(samples["scipy.stats"])}


def run_child(config: Path, out_dir: Path, env: dict, trace: bool,
              timeout: float) -> dict:
    result_path = out_dir.with_suffix(".json")
    cmd = [sys.executable, str(BENCH / "child.py"), str(config), str(out_dir),
           str(result_path)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"run exceeded {timeout:.0f} s"}
    if not result_path.is_file():
        return {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if proc.returncode != 0 and result.get("ok"):
        result = {"ok": False, "error": f"exit {proc.returncode}"}
    return result


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   work: Path, workload=None) -> dict:
    """Measure one workload; return correctness, counts, metrics and notes."""
    from gate import check_and_score, comparable_key
    from hpcmobo.synthgen import load_truth
    from workloads import WORKLOADS, write_inputs

    workload = workload or WORKLOADS[name]
    env = child_env()
    config = write_inputs(workload, seed, work / "inputs")
    truth = load_truth(work / "inputs" / "truth.json")
    info = {"environment": environment()}
    metrics: dict[str, float] = {}
    if trace:
        metrics.update(measure_importtime(env))

    # set-up samples are spread between the runs so that a burst of load on
    # the machine moves few of them
    setup: list[float] = []
    runs: list[dict] = []
    start = time.perf_counter()

    def left() -> float:
        return RUNS_BUDGET_S - (time.perf_counter() - start)

    while ((len(runs) < MIN_RUNS or time.perf_counter() - start < seconds)
           and left() > 0 and all(run["ok"] for run in runs)):
        if not trace:
            setup.append(measure_setup(env))
        runs.append(run_child(config, work / f"run{len(runs)}", env, False, left() + 30))
    while not trace and len(setup) < SETUP_REPS:
        setup.append(measure_setup(env))
    if setup:
        metrics["setup_s"] = statistics.median(setup)
        info["setup_s"] = setup
    if trace:
        runs.append(run_child(config, work / "traced", env, True, max(left(), 0) + 30))
        runs[-1]["traced"] = True

    problems: list[str] = []
    keys = set()
    scores = None
    for i, run in enumerate(runs):
        out_dir = work / ("traced" if run.get("traced") else f"run{i}")
        if not run["ok"]:
            run["problems"] = [run["error"]]
        else:
            try:
                run["problems"], run_scores = check_and_score(out_dir, truth)
                keys.add(comparable_key(out_dir))
            except Exception as exc:  # a malformed artifact fails this run's gate
                run["problems"] = [f"gate raised {exc!r}"]
            else:
                scores = scores or run_scores
            if run.get("traced") and not run["restored"]:
                run["problems"].append("a traced wrapper was not restored")
        problems += [f"run {i}: {p}" for p in run["problems"]]
    if len(keys) > 1:
        problems.append("manifest_comparable differs between runs")
        for run in runs:
            run["problems"].append("manifest_comparable differs between runs")
    failed = sum(1 for run in runs if run["problems"])

    timed = [run for run in runs if run["ok"] and not run.get("traced")]
    info["runs"] = len(runs)
    info["fail_frac"] = failed / len(runs)
    info["problems"] = problems
    if timed and scores:
        run_s = [run["run_s"] for run in timed]
        info["run_s"] = run_s
        metrics["run_s"] = statistics.median(run_s)
        metrics["peak_rss_mb"] = statistics.median(run["peak_rss_mb"] for run in timed)
        metrics.update({key: scores[key] for key in scores if key.endswith(
            ("_true_hv_frac", "_mape"))})
        if trace and runs[-1]["ok"]:
            traced = runs[-1]
            metrics.update(traced["layers"])
            for m in METHODS:
                for key in ("evals", "unique_frac", "surr_hv_frac"):
                    metrics[f"optimizer.{m}_{key}"] = scores[f"{m}_{key}"]
            metrics["pipeline.timing_table_gap_s"] = statistics.median(
                run["run_s"] - run["timing_total_s"] for run in timed)
            metrics["pipeline.artifact_bytes"] = scores["artifact_bytes"]
            metrics["bench.trace_overhead_frac"] = traced["run_s"] / metrics["run_s"] - 1.0
    table = PER_LAYER if trace else END_TO_END
    missing = [name for name, _, _ in table if name not in metrics]
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")
    info["extra"] = {} if trace else {
        name: metrics[name] for name, _, _ in UNBOUNDED_QUALITY if name in metrics}
    return {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table if name in metrics},
        "info": info,
    }


def print_report(name: str, seed: int, trace: bool, result: dict) -> None:
    info = result["info"]
    print(f"perfbench {name} seed={seed} trace={int(trace)} runs={info['runs']}")
    print("environment " + json.dumps(info["environment"], sort_keys=True))
    rows = [(n, result["metrics"][n]["value"], u, b, "")
            for n, u, b in (PER_LAYER if trace else END_TO_END) if n in result["metrics"]]
    rows += [(n, info["extra"][n], u, b, "unbounded, not in the result")
             for n, u, b in UNBOUNDED_QUALITY if n in info["extra"]]
    rows.append(("fail_frac", info["fail_frac"], "ratio", "lower",
                 f"{result['failed']} of {result['attempted']} runs"))
    for key, value, unit, better, note in rows:
        if key in ("run_s", "setup_s") and key in info:
            note = f"median of {len(info[key])}: " + " ".join(f"{v:.3f}" for v in info[key])
        print(f"  {key:34s} {value:>14.6g} {unit:9s} {better:6s} {note}")
    for problem in info["problems"]:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hpcmobo pipeline benchmark")
    parser.add_argument("--workload", required=True,
                        help="long-search, big-log, wide-fleet, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hpcmobo" / "__init__.py").is_file():
        print(f"error: no hpcmobo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hpcmobo
    from workloads import WORKLOADS

    if Path(hpcmobo.__file__).resolve().parent != SRC / "hpcmobo":
        print(f"error: hpcmobo imported from {hpcmobo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2

    results = {}
    for name in names:
        work = WORK / f"{name}-s{args.seed}-p{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            results[name] = bench_workload(name, args.seed, args.seconds,
                                           bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print_report(name, args.seed, bool(args.trace), results[name])
    if len(results) == 1:
        final = {k: v for k, v in results[names[0]].items() if k != "info"}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=False))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
