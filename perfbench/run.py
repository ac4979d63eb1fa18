"""Run one benchmark workload and print its metrics.

Usage, from the checkout root::

    python3 perfbench/run.py --workload sweep_cold --seed 20140630 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds;
``--trace 1`` makes one fixed traced pass and reports the per-layer
table instead.  Either way the run checks the program's outputs, prints
a human-readable table and ends with one JSON line::

    {"correct": true, "attempted": 1200, "failed": 0,
     "metrics": {"sweep_s": {"value": 4.61, "unit": "s"}, ...}}

It exits 0 when every output check passed, 1 when one failed, and 2
without a result when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import DEFAULT_SEED, ensure_program_importable, scratch_dir  # noqa: E402
from layers import LAYERS, TRACES  # noqa: E402
from workloads import END_TO_END, TABLE, WORKLOADS, Outcome  # noqa: E402


def _stop_resource_tracker() -> None:
    """Stop the helper process shared memory starts, and wait for it."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _format(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ensure_program_importable()
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    try:
        with scratch_dir() as tmp:
            if args.trace:
                outcome = Outcome()
                values = TRACES[args.workload](args.seed, tmp, outcome)
                units = {name: spec[0] for name, spec in LAYERS.items()}
                table = {name: (values[name], units[name]) for name in LAYERS}
            else:
                outcome = WORKLOADS[args.workload](args.seed, args.seconds, tmp)
                values = outcome.metrics
                units = {name: spec[0] for name, spec in END_TO_END.items()}
                table = {
                    name: (outcome.table.get(name), unit)
                    for name, unit in TABLE.items()
                }
    finally:
        _stop_resource_tracker()

    mode = "traced" if args.trace else "end-to-end"
    print(f"# {args.workload} seed={args.seed} ({mode})")
    for name, (value, unit) in table.items():
        print(f"{name:40s} {_format(value):>14s} {unit}")
    if not args.trace:
        print(f"{'samples':40s} {outcome.table['samples']:>14d}")
        print(f"{'queries':40s} {outcome.table['queries']:>14d}")
    if outcome.outputs:
        digest = hashlib.sha256(json.dumps(outcome.outputs).encode()).hexdigest()
        print(f"{'outputs_sha256':40s} {digest}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not outcome.errors,
        "attempted": int(max(outcome.attempted, 1)),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
