"""The scandilid benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 15 --trace 0

Workloads: serve-zipf, tag-longtail, train, silver (see README.md).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, and the spans are written
to ``perfbench/out/``. Human-readable lines (raw and scaled figures,
the calibration kernel's spread, operation counts) come first; the last
line of standard output is the JSON result. The program is imported
from ``src/`` of the checkout and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXED_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}


def import_program() -> None:
    """Make ``src/`` of this checkout the only place scandilid comes from."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import scandilid
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import scandilid from {src}: {e}")
    if scandilid.__file__ is None or src.resolve() not in Path(scandilid.__file__).resolve().parents:
        raise SystemExit(f"perfbench: scandilid was imported from {scandilid.__file__}, not from {src}")


def fix_environment() -> None:
    """Re-run this process with string hashing and malloc's mmap threshold fixed.

    With a random hash seed per process, dict and set layouts differ
    from run to run; training time on identical inputs varied by about
    7 % between processes from that alone. With glibc's dynamic mmap
    threshold, how much freed memory stays resident depends on the order
    of allocations: a training process peaked at 116 MB on one seed's
    inputs and 130 MB on another's. A fixed threshold above the largest
    array (the 8 MB embedding table) serves every array from the heap,
    as the dynamic threshold does once it has risen, and the same two
    peaked at 115 MB. Children inherit both settings.
    """
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **FIXED_ENV})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["serve-zipf", "tag-longtail", "train", "silver"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    fix_environment()
    import_program()
    from workloads import Run, execute

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    run = Run(args.workload, ROOT, work, args.seed, args.seconds, bool(args.trace))
    try:
        execute(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.trace:
        run.tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl")

    for line in run.info:
        print(line)
    for message in run.errors:
        print(f"failed operation: {message}", file=sys.stderr)
    for message in run.problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
