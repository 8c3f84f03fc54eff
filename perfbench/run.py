"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see ``perfbench/README.md``).
The last line of standard output is the JSON result.  The benchmark
sets no BLAS or thread environment variable: the program runs with
whatever the host gives it, and the host line reports what that was.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (adopt_orphans, require_program,  # noqa: E402
                    stop_descendants)

WORKLOADS = ("train", "train-dist", "sweep", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: body of one fresh-process set-up sample
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    adopt_orphans()
    # SIGTERM unwinds like an exception, so the clean-up below runs;
    # forked workers keep the default, so the program's own terminate()
    # of a busy worker behaves as it does without the benchmark
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    try:
        run(args)
    finally:
        stop_descendants()
    return 0


def run(args: argparse.Namespace) -> None:
    trace = bool(args.trace)
    if args.workload in ("train", "train-dist"):
        import train

        dist = args.workload == "train-dist"
        if args.setup_probe:
            train.probe_setup(args.seed, dist)
        else:
            train.run(args.workload, args.seed, args.seconds, trace)
    elif args.workload == "sweep":
        import sweep

        if args.setup_probe:
            sweep.probe_setup(args.seed)
        else:
            sweep.run(args.seed, args.seconds, trace)
    else:
        import serve

        serve.run(args.seed, args.seconds, trace)


if __name__ == "__main__":
    sys.exit(main())
