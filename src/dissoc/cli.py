"""Command-line interface: count, enumerate, max, gen, verify.

Graphs travel as graph6 lines (stdin or file, one per line).  Output is a
human table, a single JSON document, or CSV with a fixed header.  Bad input
lines are reported with their line number and skipped; the exit status is
zero exactly when no errors and no verification violations occurred, and 141
(128 + SIGPIPE) when the reader closes stdout before the output ends.

A command loads only what it runs: `extremal` (and with it `canonical`) is
imported by the first lookup of a verify suite, through this module's
`__getattr__`, and `json` when a command writes JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from .branching import count, enumerate_maximal, maximum_dissociation_set
from .graph6 import Graph6Error, _check_short_form, parse_graph6, serialize_graph6
from .graphs import (
    ENUMERATION_ORDER_CAP,
    FamilySpecError,
    Graph,
    TimeLimitError,
    UnsupportedSizeError,
    check_enumeration_order,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    k_star_graph,
    path_graph,
)
from .oracle import _byte_tables, _members

VERIFY_SUITES = ("bounds", "families", "recurrences", "paths-cycles", "all")


def __getattr__(name: str) -> object:
    """The verify_* suites of extremal, imported on first lookup and then
    cached here, so only `dissoc verify` loads extremal."""
    if not name.startswith("verify_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import extremal
    value = globals()[name] = getattr(extremal, name)
    return value


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
    kmn:M,N, kstar:M,I, union:(spec;spec;...).  Unions nest.  An order past
    graph6's short form is refused before any graph of that order is built."""
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
        try:
            members = [parse_family_string(p) for p in parts]
        except RecursionError:
            raise SpecGrammarError("unions nest too deeply") from None
        _check_short_form(sum(g.order for g in members))
        return disjoint_union(*members)
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
    _check_short_form(sum(numbers) if kind == "kmn" else numbers[0])
    return builder(*numbers)


def _read_graph_lines(source: str | None) -> list[tuple[int, bytes]]:
    """(line number, line stripped of ASCII whitespace) for every nonempty
    input line, read as bytes so that no locale touches it.  Only \\n, \\r\\n
    and \\r end a line; any other separator stays in its line and fails
    graph6 decoding there."""
    if source is None or source == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    raw = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    return [(i + 1, line.strip()) for i, line in enumerate(raw) if line.strip()]


def _parse_lines(source: str | None) -> tuple[list[tuple[str, Graph]], list[dict]]:
    """Parse each input line; collect per-line errors without aborting."""
    parsed = []
    errors = []
    for lineno, line in _read_graph_lines(source):
        try:
            g = parse_graph6(line)
            check_enumeration_order(g.order)
        except (Graph6Error, UnsupportedSizeError) as exc:
            errors.append({"line": lineno, "error": str(exc)})
            continue
        parsed.append((line.decode("ascii"), g))  # graph6 bytes are ASCII
    return parsed, errors


# Strings joined into one stdout write.  Without batching, an unbuffered
# stdout (PYTHONUNBUFFERED, python -u) makes a system call of every row.
_BATCH = 4096


def _write(pieces: Iterable[str]) -> None:
    """Write the strings to stdout _BATCH at a time, however stdout is
    buffered.  sys.stdout is looked up at each write, so redirected and
    captured streams receive it."""
    it = iter(pieces)
    while batch := list(islice(it, _BATCH)):
        sys.stdout.write("".join(batch))


def _json_text(doc: dict) -> Iterator[str]:
    """The text of json.dump(doc, indent=2) and a newline, piece by piece."""
    import json
    return chain(json.JSONEncoder(indent=2).iterencode(doc), ("\n",))


def _table(rows: list[dict], columns: Sequence[str]) -> Iterator[str]:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns}
    yield "  ".join(c.ljust(widths[c]) for c in columns) + "\n"
    for r in rows:
        yield "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns) + "\n"


def _csv(rows: list[dict], columns: Sequence[str]) -> Iterator[str]:
    # No field needs quoting: graph6 text is bytes 63..126, and every other
    # field is a number, a suite name or a space-separated vertex list.
    yield ",".join(columns) + "\n"
    for r in rows:
        yield ",".join(str(r[c]) for c in columns) + "\n"


def _json_results(command: str, rows: list[dict], errors: list[dict]) -> None:
    _write(_json_text({"command": command, "results": rows, "errors": errors}))


def _line_errors(errors: list[dict]) -> None:
    for err in errors:
        print(f"line {err['line']}: {err['error']}", file=sys.stderr)


def _emit_rows(fmt: str, command: str, rows: list[dict], columns: Sequence[str], errors: list[dict]) -> None:
    if fmt == "json":
        _json_results(command, rows, errors)
    else:
        _line_errors(errors)
        _write((_csv if fmt == "csv" else _table)(rows, columns))


def _cmd_count(args) -> int:
    parsed, errors = _parse_lines(args.input)
    rows = [{"graph6": text, "n": g.order, **count(g)._asdict()} for text, g in parsed]
    _emit_rows(args.format, "count", rows, ("graph6", "n", "phi", "phi_max", "psi"), errors)
    return 1 if errors else 0


# _T<k>[b]: "v " for each vertex v of byte value b at byte position k, ascending
_T0, _T1, _T2, _T3 = _byte_tables("", lambda v, rest: f"{v} {rest}")


# One formatted string per row, straight from the mask: the four byte tables'
# texts minus the last space.  As in _csv, no csv field needs quoting.

def _csv_sets(r: dict) -> Iterator[str]:
    g6 = r["graph6"]
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    return (f"{g6},{k},{m.bit_count()},"
            f"{(t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16 & 255] + t3[m >> 24])[:-1]}\n"
            for k, m in enumerate(r["sets"]))


def _table_sets(r: dict) -> Iterator[str]:
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    yield f"{r['graph6']}  n={r['n']}  phi={r['phi']}\n"
    yield from (f"  {(t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16 & 255] + t3[m >> 24])[:-1]}\n"
                for m in r["sets"])
    if r["truncated"]:
        yield f"  ... truncated, showing {len(r['sets'])} of {r['phi']}\n"


def _cmd_enumerate(args) -> int:
    parsed, errors = _parse_lines(args.input)
    limit = args.limit

    def families() -> Iterator[dict]:
        for text, g in parsed:
            masks = enumerate_maximal(g).masks
            truncated = limit is not None and len(masks) > limit
            yield {"graph6": text, "n": g.order, "phi": len(masks),
                   "truncated": truncated, "sets": masks[:limit] if truncated else masks}

    if args.format == "json":
        _json_results("enumerate", [{**r, "sets": list(map(_members, r["sets"]))}
                                    for r in families()], errors)
        return 1 if errors else 0
    # csv and table rows are written as each family is found, so only one
    # family is held at a time
    _line_errors(errors)
    csv = args.format == "csv"
    header = ["graph6,set_index,size,vertices\n"] if csv else []
    rows = _csv_sets if csv else _table_sets
    for r in families():
        _write(chain(header, rows(r)))
        header = []
        if r["truncated"] and csv:
            print(f"{r['graph6']}: truncated at {len(r['sets'])} of {r['phi']} sets",
                  file=sys.stderr)
    _write(header)
    return 1 if errors else 0


def _cmd_max(args) -> int:
    parsed, errors = _parse_lines(args.input)
    rows = []
    for text, g in parsed:
        best = sorted(maximum_dissociation_set(g))
        rows.append(
            {"graph6": text, "n": g.order, "psi": len(best),
             "vertices": " ".join(map(str, best))}
        )
    _emit_rows(args.format, "max", rows, ("graph6", "n", "psi", "vertices"), errors)
    return 1 if errors else 0


def _cmd_gen(args) -> int:
    # build every graph before printing, so a bad spec prints none
    lines = [serialize_graph6(parse_family_string(text)) + "\n" for text in args.spec]
    _write(lines)
    return 0


def _verify_table(reports: list) -> Iterator[str]:
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        yield (f"{r.suite}: {status} ({r.checks} checks, "
               f"{len(r.violations)} violations, {r.elapsed_ms:.0f} ms)\n")
        for v in r.violations:
            yield f"  {v.check}: {v.detail}" + (f" [{v.graph6}]" if v.graph6 else "") + "\n"


def _cmd_verify(args) -> int:
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    # each suite is looked up on the module, so a rebound cli.verify_* runs
    cli = sys.modules[__name__]
    reports = []
    for suite in suites:
        if suite == "bounds":
            reports.append(cli.verify_asymptotic_bounds(order_max=args.order_max, seed=args.seed))
        elif suite == "families":
            reports.append(cli.verify_family_values(max_t=args.t_max))
        elif suite == "recurrences":
            reports.append(cli.verify_recurrences(pivot_trials=args.trials, seed=args.seed))
        elif suite == "paths-cycles":
            reports.append(cli.verify_path_cycle_bounds(n_max=args.n_max))

    total_violations = sum(len(r.violations) for r in reports)
    if args.format == "json":
        doc = {
            "command": "verify",
            "suites": [r.to_json_dict() for r in reports],
            "violations_total": total_violations,
            "passed": total_violations == 0,
        }
        _write(_json_text(doc))
    elif args.format == "csv":
        _write(_csv(
            [{"suite": r.suite, "checks": r.checks, "violations": len(r.violations),
              "elapsed_ms": f"{r.elapsed_ms:.1f}"} for r in reports],
            ("suite", "checks", "violations", "elapsed_ms"),
        ))
        for r in reports:
            for v in r.violations:
                print(f"{r.suite}: {v.check}: {v.detail}", file=sys.stderr)
    else:
        _write(_verify_table(reports))
    return 0 if total_violations == 0 else 1


def _at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


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
    p.add_argument("--limit", type=_at_least(0), default=None,
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
    p.add_argument("--order-max", type=_at_least(0), default=6,
                   help="largest order for exhaustive bound sweeps (default 6, at most "
                        f"{ENUMERATION_ORDER_CAP}; each scan stops with an error past "
                        "its time budget)")
    p.add_argument("--t-max", type=_at_least(1), default=3,
                   help="largest block count for family tables (default 3, at most 5)")
    p.add_argument("--n-max", type=_at_least(1), default=20,
                   help=f"largest path/cycle length (default 20, "
                        f"at most {ENUMERATION_ORDER_CAP})")
    p.add_argument("--trials", type=_at_least(0), default=200,
                   help="random graphs for the recurrence suite (default 200)")
    p.set_defaults(func=_cmd_verify)
    return parser


# Failures that stop a whole command rather than one input line: an
# unreadable input file, a bad gen spec or a gen graph past graph6's short
# form, an oversized or over-budget verify run.
_COMMAND_ERRORS = (
    OSError, SpecGrammarError, FamilySpecError, Graph6Error, TimeLimitError, UnsupportedSizeError
)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: send stdout to devnull so the
        # interpreter's last flush stays quiet, and exit as SIGPIPE would
        try:
            fd = sys.stdout.fileno()
        except OSError:
            pass  # no descriptor, as under a test's capture
        else:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141
    except _COMMAND_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
