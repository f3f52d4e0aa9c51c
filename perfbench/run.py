"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload {ingest,train,score} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. With
--trace 0 the result holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run and the tracing overhead, and the
spans are written to .bench_out/. The line before the result records the
environment (Python, numpy, BLAS, thread count, CPU count) and, under
"wall", the timed values without the host-speed correction.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("ingest", "train", "score"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": os.environ[THREAD_VARS[0]],
            "nproc": os.cpu_count()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gridcast" / "__init__.py").is_file():
        print(f"run.py: no gridcast package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads: steadier step times on a
    # small shared machine, and every commit is measured the same way.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    try:
        result, wall = workloads.run(
            args.workload, args.seed, args.seconds, args.trace, work_dir,
            trace_path=trace_path if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "env": environment(), "wall": wall}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
