"""Correctness gate and front-quality scores for one pipeline output directory.

Everything is read back from the run's artifacts through hpcmobo's public
functions, so the checks hold the program to what it wrote.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from hpcmobo.optimizer import CandidateSet
from hpcmobo.pareto import hypervolume, infer_reference, nondominated
from hpcmobo.pipeline import load_context, manifest_comparable, truth_capture
from hpcmobo.surrogate import load_surrogate

METHODS = ("mobo", "sobo_runtime", "sobo_power", "random")
REL_TOL = 1e-9


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def comparable_key(out_dir: Path) -> str:
    """The manifest without timings, as canonical text for run-to-run equality."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    return json.dumps(manifest_comparable(manifest), sort_keys=True)


def check_and_score(out_dir: Path, truth: dict) -> tuple[list[str], dict]:
    """Return (problems, scores) for one run's output directory.

    Scores hold the per-method true-front capture and the HV fraction of the
    exhaustive surrogate front (both averaged over contexts), evaluations and
    distinct-node fractions, and the validation MAPEs.
    """
    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    for rel, digest in manifest["artifacts"].items():
        path = out_dir / rel
        if not path.is_file():
            problems.append(f"artifact {rel} is missing")
        elif _sha256(path) != digest:
            problems.append(f"artifact {rel} does not match its manifest sha256")

    surr_r = load_surrogate(out_dir / "runtime_model.json")
    surr_p = load_surrogate(out_dir / "power_model.json")
    lo = max(surr_r.design_bounds[0], surr_p.design_bounds[0])
    hi = min(surr_r.design_bounds[1], surr_p.design_bounds[1])
    per_method: dict[str, dict[str, list[float]]] = {
        m: {"true_hv_frac": [], "surr_hv_frac": [], "evals": [], "unique_frac": []}
        for m in METHODS
    }
    for i, row in enumerate(manifest["context_rows"]):
        context = load_context(out_dir / f"context_{i}.csv", surr_r.design_feature)
        candidates = CandidateSet.from_bounds(*surr_r.design_bounds, context)
        grid = np.array([context.row_for(n) for n in candidates.node_counts])
        exhaustive = np.column_stack([surr_r.predict(grid), surr_p.predict(grid)])
        ref = infer_reference(exhaustive)
        best_hv = hypervolume(nondominated(exhaustive), ref)
        for method in METHODS:
            tag = f"{method} ctx{i}"
            report = json.loads((out_dir / "reports" / f"{method}_ctx{i}.json")
                                .read_text(encoding="utf-8"))
            observed = [(o["runtime"], o["power"]) for o in report["observations"]]
            front = [(f["runtime"], f["power"]) for f in report["front"]]
            nodes = [f["node_count"] for f in report["front"]]
            if list(nondominated(observed).points) != front:
                problems.append(f"{tag}: front is not the nondominated set of its observations")
            if not all(lo <= n <= hi for n in nodes):
                problems.append(f"{tag}: front node outside design bounds [{lo}, {hi}]")
            else:
                rows = np.array([context.row_for(n) for n in nodes])
                again = np.column_stack([surr_r.predict(rows), surr_p.predict(rows)])
                if not np.allclose(again, np.asarray(front), rtol=REL_TOL, atol=0.0):
                    problems.append(f"{tag}: front does not re-predict from the saved models")
            true_frac = truth_capture(SimpleNamespace(front_nodes=nodes),
                                      truth["jobs"][row], candidates.bounds)["hv"]
            surr_frac = hypervolume(nondominated(observed), ref) / best_hv
            for name, value in (("true_hv_frac", true_frac), ("surr_hv_frac", surr_frac)):
                if not 0.0 <= value <= 1.0:
                    problems.append(f"{tag}: {name} {value!r} outside [0, 1]")
            scores = per_method[method]
            scores["true_hv_frac"].append(true_frac)
            scores["surr_hv_frac"].append(surr_frac)
            scores["evals"].append(len(observed))
            scores["unique_frac"].append(
                len({o["node_count"] for o in report["observations"]}) / len(observed))

    targets = json.loads((out_dir / "surrogate_metrics.json").read_text(encoding="utf-8"))
    result = {
        "runtime_mape": targets[surr_r.target]["mape"],
        "power_mape": targets[surr_p.target]["mape"],
    }
    for method, scores in per_method.items():
        result[f"{method}_true_hv_frac"] = float(np.mean(scores["true_hv_frac"]))
        result[f"{method}_surr_hv_frac"] = float(np.mean(scores["surr_hv_frac"]))
        result[f"{method}_evals"] = float(np.sum(scores["evals"]))
        result[f"{method}_unique_frac"] = float(np.mean(scores["unique_frac"]))
    result["artifact_bytes"] = float(sum((out_dir / rel).stat().st_size
                                         for rel in manifest["artifacts"]
                                         if (out_dir / rel).is_file()))
    return problems, result
