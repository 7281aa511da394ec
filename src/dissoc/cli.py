"""Command-line interface: count, enumerate, max, gen, verify.

Graphs travel as graph6 lines (stdin or file, one per line).  Output is a
human table, a single JSON document, or CSV with a fixed header.  Bad input
lines are reported with their line number and skipped; the exit status is
zero exactly when no errors and no verification violations occurred.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from .branching import count, enumerate_maximal, maximum_dissociation_set
from .extremal import (
    SweepRefusedError,
    verify_asymptotic_bounds,
    verify_family_values,
    verify_path_cycle_bounds,
    verify_recurrences,
)
from .graph6 import Graph6Error, parse_graph6, serialize_graph6
from .graphs import (
    ENUMERATION_ORDER_CAP,
    FamilySpecError,
    Graph,
    UnsupportedSizeError,
    check_enumeration_order,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    k_star_graph,
    path_graph,
)

VERIFY_SUITES = ("bounds", "families", "recurrences", "paths-cycles", "all")


class SpecGrammarError(ValueError):
    """A family spec string does not match the gen grammar."""


# gen family kinds: (number of parameters, builder)
_FAMILIES = {
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "complete": (1, complete_graph),
    "kmn": (2, complete_bipartite_graph),
    "kstar": (2, k_star_graph),
}


def parse_family_string(text: str) -> Graph:
    """Build the graph named in the gen grammar: path:N, cycle:N, complete:N,
    kmn:M,N, kstar:M,I, union:(spec;spec;...).  Unions nest."""
    text = text.strip()
    if text.startswith("union:"):
        body = text[len("union:"):]
        if not (body.startswith("(") and body.endswith(")")):
            raise SpecGrammarError(f"union body must be parenthesised: {text!r}")
        inner = body[1:-1]
        parts = []
        depth = 0
        start = 0
        for pos, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == ";" and depth == 0:
                parts.append(inner[start:pos])
                start = pos + 1
        parts.append(inner[start:])
        parts = [p for p in parts if p.strip()]
        if not parts:
            raise SpecGrammarError(f"union needs at least one member spec: {text!r}")
        return disjoint_union(*(parse_family_string(p) for p in parts))
    if ":" not in text:
        raise SpecGrammarError(f"expected kind:params, got {text!r}")
    kind, _, params = text.partition(":")
    try:
        numbers = [int(tok) for tok in params.split(",")]
    except ValueError:
        raise SpecGrammarError(f"non-integer parameter in {text!r}") from None
    if kind not in _FAMILIES:
        raise SpecGrammarError(f"unknown family kind {kind!r} in {text!r}")
    arity, builder = _FAMILIES[kind]
    if len(numbers) != arity:
        raise SpecGrammarError(
            f"{kind} takes {arity} parameter(s), got {len(numbers)} in {text!r}"
        )
    return builder(*numbers)


_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def _read_graph_lines(source: str | None) -> list[tuple[int, str]]:
    """(line number, text stripped of ASCII whitespace) for every nonempty
    input line.  Only \\n, \\r\\n and \\r end a line; any other separator
    str.splitlines() knows stays in its line and fails graph6 decoding there.
    A file is decoded as stdin is, UTF-8 with undecodable bytes escaped, so no
    byte aborts the read and `_parse_lines` recovers each line's exact bytes."""
    if source is None or source == "-":
        text = sys.stdin.read()
    else:
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    raw = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [(i + 1, line.strip(_ASCII_WHITESPACE))
            for i, line in enumerate(raw) if line.strip(_ASCII_WHITESPACE)]


def _parse_lines(source: str | None) -> tuple[list[tuple[int, str, object]], list[dict]]:
    """Parse each input line; collect per-line errors without aborting."""
    parsed = []
    errors = []
    for lineno, text in _read_graph_lines(source):
        try:
            g = parse_graph6(text.encode("utf-8", "surrogateescape"))
            check_enumeration_order(g.order)
        except (Graph6Error, UnsupportedSizeError) as exc:
            errors.append({"line": lineno, "error": str(exc)})
            continue
        parsed.append((lineno, text, g))
    return parsed, errors


def _print_table(rows: list[dict], columns: Sequence[str]) -> None:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))


def _print_csv(rows: list[dict], columns: Sequence[str]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([r.get(c, "") for c in columns])


def _emit_json_or_errors(fmt: str, command: str, rows: list[dict], errors: list[dict]) -> bool:
    """Write the whole JSON document and return True for --format json;
    otherwise report the per-line errors on stderr and return False, leaving
    stdout to the caller's csv or table layout."""
    if fmt == "json":
        json.dump({"command": command, "results": rows, "errors": errors}, sys.stdout, indent=2)
        print()
        return True
    for err in errors:
        print(f"line {err['line']}: {err['error']}", file=sys.stderr)
    return False


def _emit_rows(fmt: str, command: str, rows: list[dict], columns: Sequence[str], errors: list[dict]) -> None:
    if _emit_json_or_errors(fmt, command, rows, errors):
        return
    if fmt == "csv":
        _print_csv(rows, columns)
    else:
        _print_table(rows, columns)


def _cmd_count(args) -> int:
    parsed, errors = _parse_lines(args.input)
    rows = []
    for _, text, g in parsed:
        result = count(g)
        rows.append(
            {"graph6": text, "n": g.order, "phi": result.phi,
             "phi_max": result.phi_max, "psi": result.psi}
        )
    _emit_rows(args.format, "count", rows, ("graph6", "n", "phi", "phi_max", "psi"), errors)
    return 1 if errors else 0


# decimal text of every vertex an enumeration can hold: indexing beats str()
_VERTEX_TEXT = [str(v) for v in range(ENUMERATION_ORDER_CAP)]


def _cmd_enumerate(args) -> int:
    parsed, errors = _parse_lines(args.input)
    limit = args.limit
    results = []
    for _, text, g in parsed:
        family = enumerate_maximal(g)
        sets = family.sets
        truncated = limit is not None and len(sets) > limit
        shown = sets[:limit] if truncated else sets
        results.append(
            {"graph6": text, "n": g.order, "phi": len(family),
             "truncated": truncated, "sets": shown}
        )
    if not _emit_json_or_errors(args.format, "enumerate", results, errors):
        # One formatted string per row.  No csv field needs quoting: graph6
        # text is bytes 63..126 and a vertex list is digits and spaces.
        out = sys.stdout
        name = _VERTEX_TEXT.__getitem__
        if args.format == "csv":
            out.write("graph6,set_index,size,vertices\n")
            for r in results:
                g6 = r["graph6"]
                out.writelines(f"{g6},{k},{len(s)},{' '.join(map(name, s))}\n"
                               for k, s in enumerate(r["sets"]))
                if r["truncated"]:
                    print(f"{g6}: truncated at {len(r['sets'])} of {r['phi']} sets",
                          file=sys.stderr)
        else:
            for r in results:
                print(f"{r['graph6']}  n={r['n']}  phi={r['phi']}")
                out.writelines(f"  {' '.join(map(name, s))}\n" for s in r["sets"])
                if r["truncated"]:
                    print(f"  ... truncated, showing {len(r['sets'])} of {r['phi']}")
    return 1 if errors else 0


def _cmd_max(args) -> int:
    parsed, errors = _parse_lines(args.input)
    rows = []
    for _, text, g in parsed:
        best = sorted(maximum_dissociation_set(g))
        rows.append(
            {"graph6": text, "n": g.order, "psi": len(best),
             "vertices": " ".join(map(str, best))}
        )
    _emit_rows(args.format, "max", rows, ("graph6", "n", "psi", "vertices"), errors)
    return 1 if errors else 0


def _cmd_gen(args) -> int:
    # build every graph before printing, so a bad spec prints none
    lines = [serialize_graph6(parse_family_string(text)) for text in args.spec]
    for line in lines:
        print(line)
    return 0


def _cmd_verify(args) -> int:
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    reports = []
    for suite in suites:
        if suite == "bounds":
            reports.append(
                verify_asymptotic_bounds(
                    order_max=args.order_max,
                    allow_long=args.allow_long,
                    seed=args.seed,
                )
            )
        elif suite == "families":
            reports.append(verify_family_values(max_t=args.t_max))
        elif suite == "recurrences":
            reports.append(verify_recurrences(pivot_trials=args.trials, seed=args.seed))
        elif suite == "paths-cycles":
            reports.append(verify_path_cycle_bounds(n_max=args.n_max))

    total_violations = sum(len(r.violations) for r in reports)
    if args.format == "json":
        doc = {
            "command": "verify",
            "suites": [r.to_json_dict() for r in reports],
            "violations_total": total_violations,
            "passed": total_violations == 0,
        }
        json.dump(doc, sys.stdout, indent=2)
        print()
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("suite", "checks", "violations", "elapsed_ms"))
        for r in reports:
            writer.writerow((r.suite, r.checks, len(r.violations), f"{r.elapsed_ms:.1f}"))
        for r in reports:
            for v in r.violations:
                print(f"{r.suite}: {v.check}: {v.detail}", file=sys.stderr)
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.suite}: {status} ({r.checks} checks, "
                  f"{len(r.violations)} violations, {r.elapsed_ms:.0f} ms)")
            for v in r.violations:
                print(f"  {v.check}: {v.detail}" + (f" [{v.graph6}]" if v.graph6 else ""))
    return 0 if total_violations == 0 else 1


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )

    parser = argparse.ArgumentParser(
        prog="dissoc",
        description="Count, enumerate and verify maximal dissociation sets of small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[formatted],
                       help="phi, phi' and the dissociation number per input graph")
    p.add_argument("input", nargs="?", default="-", help="graph6 file, or - for stdin")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", parents=[formatted],
                       help="list every maximal dissociation set per input graph")
    p.add_argument("input", nargs="?", default="-", help="graph6 file, or - for stdin")
    p.add_argument("--limit", type=_non_negative_int, default=None,
                   help="truncate listings after this many sets")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("max", parents=[formatted],
                       help="one maximum dissociation set per input graph")
    p.add_argument("input", nargs="?", default="-", help="graph6 file, or - for stdin")
    p.set_defaults(func=_cmd_max)

    p = sub.add_parser("gen", help="emit named family graphs as graph6")
    p.add_argument(
        "spec", nargs="+",
        help="family spec(s): path:N cycle:N complete:N kmn:M,N kstar:M,I "
             "union:(spec;spec;...)",
    )
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", parents=[formatted], help="run a verification suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument(
        "--allow-long", action="store_true",
        help="permit order-8 exhaustive sweeps",
    )
    p.add_argument("--order-max", type=_non_negative_int, default=6,
                   help="largest order for exhaustive bound sweeps (default 6)")
    p.add_argument("--t-max", type=_non_negative_int, default=3,
                   help="largest block count for family tables (default 3)")
    p.add_argument("--n-max", type=_non_negative_int, default=20,
                   help=f"largest path/cycle length (default 20, "
                        f"at most {ENUMERATION_ORDER_CAP})")
    p.add_argument("--trials", type=_non_negative_int, default=200,
                   help="random graphs for the recurrence suite (default 200)")
    p.set_defaults(func=_cmd_verify)
    return parser


# Failures that stop a whole command rather than one input line: an
# unreadable input file, a bad gen spec, a refused or oversized verify run.
_COMMAND_ERRORS = (OSError, SpecGrammarError, FamilySpecError, SweepRefusedError, UnsupportedSizeError)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _COMMAND_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
