#!/usr/bin/env python3
"""Exhaustive extremal sweeps over a range of orders, printed as a table.

Usage:
    python scripts/sweep_report.py [--orders 1-7]
        [--filter all|triangle-free|connected|triangle-free+connected]
        [--quantity phi|phi_max]

Sweeps visit one graph per isomorphism class; "scanned" counts the labeled
graphs those classes stand for.  "seconds" is the wall time of each sweep()
call, timed here with time.perf_counter, since a sweep's record holds results
only.  Order 8 takes seconds and order 9 about 2.5 min; each sweep stops with
an error past the time budget dissoc.extremal.SWEEP_TIME_LIMIT.  Attaining
graphs are printed as canonical graph6 strings.  A malformed --orders value is
a usage error, and an oversized or over-budget sweep prints one `error:` line;
both exit with status 2.
"""

from __future__ import annotations

import argparse
import sys
import time

from dissoc import SweepFilter, TimeLimitError, UnsupportedSizeError, sweep


def parse_orders(text: str) -> list[int]:
    """`lo-hi` or `a,b,...` as a non-empty list of orders."""
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            orders = list(range(int(lo), int(hi) + 1))
        else:
            orders = [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range like 4-7 or a list like 4,5,6, got {text!r}") from None
    if not orders:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return orders


FILTERS = {f.label(): f for f in (SweepFilter(t, c) for t in (False, True) for c in (False, True))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--orders", type=parse_orders, default="1-7",
                        help="range like 4-7 or list like 4,5,6")
    parser.add_argument("--filter", choices=sorted(FILTERS), default="all")
    parser.add_argument("--quantity", choices=("phi", "phi_max"), default="phi")
    # perfbench/run.py passes --workers to the extremal workload; sweeps run in one process
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args()

    filt = FILTERS[args.filter]
    print(f"{'n':>3} {'scanned':>12} {'max':>8} {'seconds':>9}  extremal classes")
    for order in args.orders:
        start = time.perf_counter()
        try:
            rec = sweep(order, filt, args.quantity)
        except (TimeLimitError, UnsupportedSizeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        seconds = time.perf_counter() - start
        classes = " ".join(rec.extremal_canonical)
        print(f"{order:>3} {rec.graphs_scanned:>12,} {rec.max_value:>8} "
              f"{seconds:>9.1f}  {classes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
