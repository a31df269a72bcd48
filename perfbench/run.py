"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's dataset from the
seed in one process (untimed), measures the library in ``src`` on it in a
fresh process with BLAS held to one thread, and prints that process's JSON
result as the last line of standard output. Exits non-zero without a result
when a step fails or the run exceeds its time limit. Workloads, metrics and
reference figures are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# the whole run, generation included, must end well within 180 s
TIME_LIMIT_S = 170.0
# serial run: one BLAS thread, fixed hash seed
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "subnetmine" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = {**os.environ, **RUN_ENV}
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = OUT / "traces" / f"{args.workload}-{args.seed}.json"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            env=env, check=True, timeout=deadline - time.monotonic(),
        )
        measured = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
             "--data", str(work), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--trace-out", str(trace_out)],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic(),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if measured.returncode != 0:
        print(f"error: measuring process exited {measured.returncode}", file=sys.stderr)
        return 1
    lines = measured.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("error: measuring process printed no result", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"error: result keys {sorted(result)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
