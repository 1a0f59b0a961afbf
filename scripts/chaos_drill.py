#!/usr/bin/env python
"""CI chaos drill: seeded fault storm vs. the bit-identity invariant.

Thin wrapper over ``repro chaos`` (:func:`repro.runtime.chaos.
run_chaos_drill`) so CI can invoke the drill without an installed
entry point.  Boots a real 2-worker :class:`ShardedDetectionService`,
lands a seeded storm — worker crash, worker hang, per-batch slowdown
over ≥20% of the stream, dropped dispatch message — under live
traffic, then asserts:

1. zero lost requests (every future resolves), and
2. every response's score digest is bit-identical to a single-process
   ``DetectionEngine.run`` over the same samples, and
3. the storm actually completed: the crash-reap and the watchdog
   hung-reap both ran.

Prints the JSON recovery report (time-to-respawn, retries) and exits
non-zero on the first violated contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    from repro.runtime.chaos import run_chaos_drill

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--report", default=None)
    args = parser.parse_args(argv)

    report = run_chaos_drill(
        seed=args.seed,
        smoke=args.smoke,
        num_requests=args.requests,
        num_workers=args.workers,
    )
    text = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    print(text)
    if not report["passed"]:
        print(
            "chaos drill FAILED: "
            f"lost={report['lost_requests']} "
            f"digest_mismatches={report['digest_mismatches']} "
            f"storm_complete={report['storm_complete']}"
        )
        return 1
    print(
        "chaos drill passed: "
        f"{report['requests']} requests, zero lost, digests bit-identical "
        f"({report['elapsed_seconds']:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
