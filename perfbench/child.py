"""Run the hpcmobo pipeline once in this fresh process and write a result file.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON [--trace]

The result holds the wall clock of `run_pipeline`, the timing-table TOTAL
it logged, and this process's peak resident memory; with --trace, also the
per-layer metrics from spans and whether every wrapper was restored.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(config: Path, out_dir: Path, trace: bool) -> dict:
    """Run the pipeline in this process; traced runs restore every wrapper."""
    from hpcmobo import pipeline

    tracer = None
    if trace:
        from spans import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        root = tracer.open("pipeline.run_pipeline", "pipeline") if tracer else None
        try:
            manifest = pipeline.run_pipeline(config, out_dir_override=str(out_dir))
        finally:
            if tracer:
                tracer.close(root)
        run_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    result = {"run_s": run_s, "timing_total_s": manifest["timing_table"]["TOTAL"]}
    if tracer:
        result["layers"] = summarize(tracer.spans)
        result["restored"] = tracer.restored()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run_once(args.config, args.out_dir, args.trace)
        result["ok"] = True
    except Exception:  # any failure is the measurement's result, reported to the parent
        result = {"ok": False, "error": traceback.format_exc()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
