#!/usr/bin/env python3
"""Repository benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig17_mixed --seed 1 --seconds 30 --trace 0

Runs episodes of the workload (build a default ``Deployment``, preload,
closed loop; see ``episode.py``) for ``--seconds`` host seconds.  The
first episode is settled, read back and checked; every episode replays
the same seed and must produce the same simulated digest, and host
metrics are medians over the repeats.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the
time between untraced and traced repeats (``layers.py``) and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every check passed, and 2, without a result, when the program
under test cannot be imported.  README.md documents every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as err:
        print("perfbench: cannot import the program under test: %s" % err, file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src) + os.sep):
        # Measure the checkout's code, never an installed copy.
        print("perfbench: repro imported from %s, not from %s" % (repro.__file__, src), file=sys.stderr)
        return 2
    from measure import Run, end_to_end, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            "perfbench: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)),
            file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    run = Run(workload, args.seed)
    if args.trace:
        metrics = per_layer(run, started, args.seconds)
    else:
        metrics = end_to_end(run, started + args.seconds)
    correct = not run.problems and run.failed == 0

    print("workload %s seed %d: simulated digest %s" % (workload.name, args.seed, run.digest[:16]))
    print("window samples: %s" % ", ".join("%s=%d" % kv for kv in run.samples.items()))
    print("simulated: %s" % ", ".join("%s=%.6g" % kv for kv in run.simulated.items()))
    print("host_tx_per_s by repeat: %s" % ", ".join("%.1f" % v for v in run.host))
    if run.traced_host:
        print("traced host_tx_per_s by repeat: %s" % ", ".join("%.1f" % v for v in run.traced_host))
    print("setup_s by set-up: %s" % ", ".join("%.4f" % v for v in run.setups))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    for problem in run.problems:
        print("CHECK FAILED: %s" % problem)
    print("correctness: %s" % ("ok" if correct else "FAILED"))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
