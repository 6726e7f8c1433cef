"""Run one workload of the end-to-end benchmark and print its result.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload static-solo --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, from a
server whose layers are wrapped by ``traced_serve.py``.  The line before
it is a JSON object with the run's environment, sample counts, answer
checks and workload-shape guard.

The program under test is ``src/repro`` of the same checkout; nothing is
built.  The exit code is 0 whenever a result is printed and 2 when the
run could not be set up (for example, when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The end-to-end metrics and their units, as ``BENCHMARK.json`` lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "rtk_p50_ms": "ms",
    "rtk_p90_ms": "ms",
    "rkr_p50_ms": "ms",
    "rkr_p90_ms": "ms",
    "query_per_s": "1/s",
    "server_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads
    from httpload import BLAS_THREADS
    from layers import PER_LAYER_UNITS

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2

    def interrupted(signum, frame):
        raise SystemExit(f"stopped by signal {signum}")

    # The servers are stopped on the way out, whatever ends the run.
    signal.signal(signal.SIGTERM, interrupted)
    work = ROOT / ".e2ebench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = workloads.run_workload(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         work, SRC)
    except Exception:
        traceback.print_exc()
        print("error: the run failed before producing a result",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "server_blas_threads": BLAS_THREADS}
    print(json.dumps({"env": env, "detail": outcome.detail}, default=str))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
