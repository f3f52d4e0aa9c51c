"""Run every workload, each in its own process, and print one table.

    python3 perfbench/report.py --seed 0 --seconds 30 [--trace 1]

Exits non-zero if any run fails or reports an incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("ingest", "train", "score")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {lines[-2]}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.4f} {v['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
