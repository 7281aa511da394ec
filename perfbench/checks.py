"""Output checks for each workload, run outside every timed region.

An operation is one input line handled by one command (`stream`,
`large-family`) or one result row or suite of the `extremal` stages.  It
fails when its output is missing or wrong, when a malformed line is not
reported with its exact line number, or when its process exits with an
unexpected status.  References are independent of the branching search:
the package's 2^n oracle, the transfer matrix and closed forms in
`reference`, and the published count of triangle-free labeled graphs.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass, field

import reference
from inputs import LARGE_FAMILY, decode_graph6

ORACLE_SAMPLE = 120   # stream graphs of order <= 14 checked by the 2^n oracle
ORACLE_MAX_ORDER = 14
MAXIMAL_SAMPLE = 60   # emitted sets per large-family graph checked with is_maximal


@dataclass
class Outcome:
    """One finished command: exit status, wall time, peak RSS and its files."""

    code: int
    wall_s: float
    rss_mb: float
    out_path: str
    err_path: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])


def _graph(line: str):
    from dissoc.graphs import Graph

    order, adj = decode_graph6(line)
    return Graph(order, tuple(adj))


def _json(outcome: Outcome) -> dict:
    try:
        with open(outcome.out_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _error_lines(outcome: Outcome) -> set[int]:
    with open(outcome.err_path, encoding="utf-8", errors="replace") as fh:
        return {int(m.group(1)) for m in re.finditer(r"^line (\d+): ", fh.read(), re.M)}


def _families(outcome: Outcome) -> list[list]:
    """[graph6, sets, rows well formed] per graph of an `enumerate --format csv` run."""
    out: list[list] = []
    try:
        with open(outcome.out_path, encoding="ascii", newline="") as fh:
            rows = csv.reader(fh)
            if next(rows, None) != ["graph6", "set_index", "size", "vertices"]:
                return out
            for g6, index, size, vertices in rows:
                members = tuple(int(v) for v in vertices.split())
                if index == "0" or not out or out[-1][0] != g6:
                    out.append([g6, [], index == "0"])
                family = out[-1]
                family[2] = family[2] and int(index) == len(family[1]) and int(size) == len(members)
                family[1].append(members)
    except (OSError, ValueError):
        pass
    return out


def _family_ok(sets: list[tuple[int, ...]], phi: int, phi_max: int, psi: int) -> bool:
    """Distinct sets, as many as phi, with phi' of them at the largest size psi."""
    sizes = [len(s) for s in sets]
    return (
        len(set(sets)) == len(sets) == phi
        and max(sizes, default=0) == psi
        and sizes.count(psi) == phi_max
    )


def large_family_reference() -> dict[str, tuple[int, int, int]]:
    """(phi, phi', psi) of each large-family graph from independent methods."""
    from dissoc.graphs import Graph
    from dissoc.oracle import dissociation_number

    ref = {}
    for name in LARGE_FAMILY:
        if name == "P26":
            c = reference.path_counts(26)
        elif name == "C24":
            c = reference.cycle_counts(24)
        else:
            phi, phi_max = reference.CLOSED_FORMS[name]
            psi = sum(
                dissociation_number(Graph.from_edges(order, edges))
                for order, edges in LARGE_FAMILY[name]
            )
            c = {"phi": phi, "phi_max": phi_max, "psi": psi}
        ref[name] = (c["phi"], c["phi_max"], c["psi"])
    return ref


def check_graph_file(outcomes: dict[str, Outcome], lines: list[str], malformed: dict[int, str],
                     truth, maximal_sample: int, rng: random.Random) -> Tally:
    """Check `count`, `max` and `enumerate` over one graph6 file.

    Every command must report each malformed line by number and exit with
    status 1 (the files always hold some).  For each valid line the three
    commands must agree with each other, and with `truth(lineno, graph)`
    where it returns ``(phi, phi', psi, family or None)`` rather than None.
    """
    from dissoc.oracle import is_dissociation, is_maximal

    tally = Tally()
    exit_ok = {name: o.code == 1 for name, o in outcomes.items()}
    count_doc = _json(outcomes["count"])
    max_doc = _json(outcomes["max"])
    reported = {
        "count": {e.get("line") for e in count_doc.get("errors", [])},
        "max": {e.get("line") for e in max_doc.get("errors", [])},
        "enumerate": _error_lines(outcomes["enumerate"]),
    }
    for lineno, kind in malformed.items():
        for name in outcomes:
            tally.op(exit_ok[name] and lineno in reported[name],
                     f"{name}: malformed line {lineno} ({kind}) not reported")

    valid = [(n, text) for n, text in enumerate(lines, 1) if n not in malformed]
    count_rows = count_doc.get("results", [])
    max_rows = max_doc.get("results", [])
    families = _families(outcomes["enumerate"])
    for k, (lineno, text) in enumerate(valid):
        g = _graph(text)
        row = count_rows[k] if k < len(count_rows) else {}
        phi, phi_max, psi = row.get("phi"), row.get("phi_max"), row.get("psi")
        count_ok = row.get("graph6") == text and row.get("n") == g.order

        best = max_rows[k] if k < len(max_rows) else {}
        try:
            vertices = [int(v) for v in best.get("vertices", "").split()]
            max_ok = (best.get("graph6") == text and best.get("psi") == psi == len(vertices)
                      and is_dissociation(g, vertices))
        except (ValueError, IndexError):
            max_ok = False

        g6, sets, fam_ok = families[k] if k < len(families) else ("", [], False)
        enum_ok = fam_ok and g6 == text and _family_ok(sets, phi, phi_max, psi)
        if enum_ok and maximal_sample:
            enum_ok = all(is_maximal(g, s) for s in rng.sample(sets, min(maximal_sample, len(sets))))

        expected = truth(lineno, g)
        if expected is not None:
            count_ok = count_ok and (phi, phi_max, psi) == expected[:3]
            max_ok = max_ok and psi == expected[2]
            enum_ok = enum_ok and _family_ok(sets, *expected[:3])
            if expected[3] is not None:
                enum_ok = enum_ok and sorted(sets) == sorted(tuple(sorted(s)) for s in expected[3])
        count_ok = count_ok and enum_ok  # count and enumerate must agree
        tally.op(exit_ok["count"] and count_ok, f"count: line {lineno} wrong: {row}")
        tally.op(exit_ok["max"] and max_ok, f"max: line {lineno} wrong: {best}")
        tally.op(exit_ok["enumerate"] and enum_ok, f"enumerate: line {lineno} wrong ({len(sets)} sets)")
    if len(count_rows) != len(valid):
        tally.op(False, f"count: {len(count_rows)} result rows for {len(valid)} valid lines")
    return tally


def check_stream(outcomes: dict[str, Outcome], lines: list[str], malformed: dict[int, str],
                 seed: int) -> Tally:
    """Stream lines of order <= 14 in a seeded sample go through the 2^n oracle."""
    from dissoc.oracle import (
        count_maximum_bruteforce,
        dissociation_number,
        enumerate_maximal_bruteforce,
    )

    rng = random.Random(f"oracle-sample:{seed}")
    small = [n for n, text in enumerate(lines, 1)
             if n not in malformed and ord(text[0]) - 63 <= ORACLE_MAX_ORDER]
    sampled = set(rng.sample(small, min(ORACLE_SAMPLE, len(small))))

    def truth(lineno, g):
        if lineno not in sampled:
            return None
        family = enumerate_maximal_bruteforce(g)
        return len(family), count_maximum_bruteforce(g), dissociation_number(g), family

    return check_graph_file(outcomes, lines, malformed, truth, 0, rng)


def check_large_family(outcomes: dict[str, Outcome], lines: list[str], graphs: dict[int, str],
                       malformed: dict[int, str], ref: dict[str, tuple[int, int, int]],
                       seed: int) -> Tally:
    """Each large-family graph against its reference counts; a seeded sample
    of its emitted sets goes through is_maximal."""
    def truth(lineno, g):
        return (*ref[graphs[lineno]], None)

    rng = random.Random(f"maximal-sample:{seed}")
    return check_graph_file(outcomes, lines, malformed, truth, MAXIMAL_SAMPLE, rng)


def check_extremal(outcomes: dict[str, Outcome]) -> Tally:
    from dissoc.oracle import enumerate_maximal_bruteforce

    tally = Tally()
    expect = reference.TRIANGLE_FREE_ORDER7
    sweep = outcomes["sweep"]
    row = sweep_row(sweep)
    classes = row[4:]
    try:
        ok = (
            int(row[1].replace(",", "")) == expect["admitted"]
            and int(row[2]) == expect["max_phi"]
            and len(classes) == expect["classes"]
        )
    except (IndexError, ValueError):
        ok = False
    for g6 in classes if ok else ():
        g = _graph(g6)
        ok = ok and g.order == 7 and _triangle_free(g.adj)
        ok = ok and len(enumerate_maximal_bruteforce(g)) == expect["max_phi"]
    tally.op(sweep.code == 0 and ok, f"sweep: order-7 row wrong: {row}")

    verify = outcomes["verify"]
    doc = _json(verify)
    suites = {s.get("suite"): s for s in doc.get("suites", [])}
    for suite in ("bounds", "families", "recurrences", "paths-cycles"):
        report = suites.get(suite, {})
        ok = report.get("checks", 0) > 0 and report.get("violations") == []
        tally.op(verify.code == 0 and ok and doc.get("violations_total") == 0,
                 f"verify: suite {suite} failed or missing")
    return tally


def sweep_row(outcome: Outcome) -> list[str]:
    """Fields of the order-7 row of the sweep table: n, scanned, max, seconds,
    then one canonical graph6 string per extremal class."""
    with open(outcome.out_path, encoding="utf-8") as fh:
        return next((ln.split() for ln in fh if ln.split()[:1] == ["7"]), [])


def _triangle_free(adj: list[int]) -> bool:
    return all(
        not (adj[i] & adj[j]) for i in range(len(adj)) for j in range(i + 1, len(adj))
        if (adj[i] >> j) & 1
    )
