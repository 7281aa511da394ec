#!/usr/bin/env python3
"""Exhaustive extremal sweeps over a range of orders, printed as a table.

Usage:
    python scripts/sweep_report.py [--orders 1-7] [--filter all|triangle-free|bipartite|connected]
                                   [--quantity phi|phi_max] [--allow-long]

Sweeps visit one graph per isomorphism class; "scanned" counts the labeled
graphs those classes stand for.  The order-8 sweep (2^28 labeled graphs) only
runs with --allow-long.  Attaining graphs are printed as canonical graph6
strings.  A malformed --orders value is a usage error, and a refused or
oversized sweep prints one `error:` line; both exit with status 2.
"""

from __future__ import annotations

import argparse
import sys

from dissoc import SweepFilter, SweepRefusedError, UnsupportedSizeError, sweep


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


FILTERS = {
    "all": SweepFilter(),
    "triangle-free": SweepFilter(triangle_free=True),
    "bipartite": SweepFilter(bipartite=True),
    "connected": SweepFilter(connected_only=True),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", type=parse_orders, default="1-7",
                        help="range like 4-7 or list like 4,5,6")
    parser.add_argument("--filter", choices=sorted(FILTERS), default="all")
    parser.add_argument("--quantity", choices=("phi", "phi_max"), default="phi")
    # perfbench/run.py passes --workers to the extremal workload; sweeps run in one process
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--allow-long", action="store_true")
    args = parser.parse_args()

    filt = FILTERS[args.filter]
    print(f"{'n':>3} {'scanned':>12} {'max':>8} {'seconds':>9}  extremal classes")
    for order in args.orders:
        try:
            rec = sweep(order, filt, args.quantity, allow_long=args.allow_long)
        except (SweepRefusedError, UnsupportedSizeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        classes = " ".join(rec.extremal_canonical)
        print(f"{order:>3} {rec.graphs_scanned:>12,} {rec.max_value:>8} "
              f"{rec.elapsed_ms / 1000:>9.1f}  {classes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
