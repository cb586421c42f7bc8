#!/usr/bin/env python3
"""Replay benchmark for the xmem engine.

    python3 bench/run.py --workload full-read --seed 1 --seconds 10 --trace 0

Run from the repository root. The engine is imported from `src/`. The
workload's stream is generated from `--seed` into `.bench_work/` and deleted
afterwards. `--trace 0` prints the end-to-end metrics; `--trace 1` replays
with layer spans and prints the per-layer metrics, writing the spans to
`.bench_out/`. Stdout ends with one JSON line: `correct`, `attempted`,
`failed` (frames that raised or failed an output check) and `metrics`. The
line before it is the run's reproducibility record.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent


def git_sha(root: Path) -> str:
    """HEAD's commit id, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xmem").is_dir():
        print(f"no engine source at {ROOT / 'src' / 'xmem'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from replay import replay
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    result = replay(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)

    rec = record(args)
    rec["window_frames"] = len(result.window_ns)
    rec["failed_frame_share"] = result.failed / result.attempted
    rec["reference_skipped_share"] = result.reference_skipped_share
    if args.trace:
        rec["absent_spans"] = result.tracer.absent
        rec["untraced_frames_per_s"], rec["traced_frames_per_s"] = result.trace_rates()
        rec["traced_frames"] = len(result.traced_ns)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.tracer.write(spans_path)
        rec["spans"] = str(spans_path.relative_to(ROOT))
    line = result_line(result, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"record": rec}))
    print(json.dumps(line))
    return 0


def result_line(result, trace: bool) -> dict:
    """The final stdout line: per-layer metrics when traced, else end-to-end."""
    metrics = result.per_layer() if trace else result.end_to_end()
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    # pinned before numpy loads so every run uses the same BLAS thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
