#!/usr/bin/env python3
"""Exhaustive extremal sweeps over a range of orders, printed as a table.

Usage:
    python scripts/sweep_report.py [--orders 1-7] [--filter all|triangle-free|bipartite]
                                   [--quantity phi|phi_max] [--workers W] [--allow-long]

Sweeps visit one graph per isomorphism class; "scanned" counts the labeled
graphs those classes stand for.  The order-8 sweep (2^28 labeled graphs) only
runs with --allow-long.  Attaining graphs are printed as canonical graph6
strings.
"""

from __future__ import annotations

import argparse
import sys

from dissoc import SweepFilter, sweep


def parse_orders(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


FILTERS = {
    "all": SweepFilter(),
    "triangle-free": SweepFilter(triangle_free=True),
    "bipartite": SweepFilter(bipartite=True),
    "connected": SweepFilter(connected_only=True),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", default="1-7", help="range like 4-7 or list like 4,5,6")
    parser.add_argument("--filter", choices=sorted(FILTERS), default="all")
    parser.add_argument("--quantity", choices=("phi", "phi_max"), default="phi")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--allow-long", action="store_true")
    args = parser.parse_args()

    filt = FILTERS[args.filter]
    print(f"{'n':>3} {'scanned':>12} {'max':>8} {'seconds':>9}  extremal classes")
    for order in parse_orders(args.orders):
        rec = sweep(order, filt, args.quantity,
                    allow_long=args.allow_long, workers=args.workers)
        classes = " ".join(rec.extremal_canonical)
        print(f"{order:>3} {rec.graphs_scanned:>12,} {rec.max_value:>8} "
              f"{rec.elapsed_ms / 1000:>9.1f}  {classes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
