"""Spans around calls into the package's layers, recorded from outside it.

`Tracer.install` rebinds the public names that callers look up at call time
(for example ``dissoc.cli.count`` or ``dissoc.branching.candidate_masks``) to
timing wrappers, and `Tracer.restore` puts the originals back.  Each span is
``(name, start, end, parent index, graph id, items)``; items is a size taken
from the call's arguments and result, such as the number of leaves a search
returned, or -1.  The spans stay in memory until the run ends.  Names that a
later version of the package no longer has are skipped, and the metrics
derived from them read 0.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict

NAME, START, END, PARENT, GRAPH, ITEMS = range(6)

VERIFY_SUITES = {
    "bounds": "verify_asymptotic_bounds",
    "families": "verify_family_values",
    "recurrences": "verify_recurrences",
    "paths_cycles": "verify_path_cycle_bounds",
}


class Tracer:
    """Span recorder for one traced pass; install() before it, restore() after."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._graph = -1
        self._undo: list[tuple[object, str, object]] = []

    def begin_command(self) -> None:
        """Number the graphs of the next command from 0."""
        self._graph = -1

    def wrap(self, name: str, fn, *, items=None, per_graph: bool = False):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)  # keeps pickling by name working for pool workers
        def traced(*args, **kwargs):
            if per_graph:
                self._graph += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                size = items(args, result) if items is not None and result is not None else -1
                spans[idx] = (name, start, end, parent, self._graph, size)

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, **kwargs))
        else:
            new = self.wrap(name, raw, **kwargs)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        import dissoc
        from dissoc import branching, cli, extremal, graphs, oracle

        def size(args, result):
            return len(result)

        def checks(args, result):
            return result.checks

        def masks_in_chunk(args, result):
            try:
                order, filt, quantity, lo, hi = args[0]
            except (IndexError, TypeError, ValueError):  # the private signature changed
                return -1
            return hi - lo

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "parse_graph6", "graph6.parse")
        self.patch(graphs.Graph, "__post_init__", "graphs.validate")
        for module in (cli, extremal):
            self.patch(module, "count", "branching.count", per_graph=True)
        self.patch(cli, "enumerate_maximal", "branching.enumerate", per_graph=True)
        self.patch(cli, "maximum_dissociation_set", "branching.max", per_graph=True)
        for module in (branching, extremal):
            self.patch(module, "maximal_masks", "branching.maximal_masks", items=size)
        self.patch(branching, "candidate_masks", "branching.candidate_masks", items=size)
        self.patch(oracle.DissociationFamily, "from_masks", "oracle.family")
        self.patch(extremal, "canonical_form", "canonical.form")
        self.patch(extremal, "delete_vertices", "graphs.delete_vertices")
        self.patch(dissoc, "sweep", "extremal.sweep",
                   items=lambda args, rec: rec.graphs_scanned)
        # the labeled scan's chunk worker is private, but its (lo, hi) range is
        # the only place the number of edge masks scanned can be read
        self.patch(extremal, "_scan_chunk", "extremal.chunk", items=masks_in_chunk)
        for suite, fn in VERIFY_SUITES.items():
            self.patch(cli, fn, f"extremal.verify_{suite}", items=checks)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,graph,items\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]:.9f},{s[2]:.9f},{s[3]},{s[4]},{s[5]}\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * pct // 100) - 1))
    return sorted_values[int(k)]


def layer_metrics(spans, graph_names: list[str] | None = None) -> dict[str, float]:
    """Per-layer numbers from one traced pass (see BENCHMARK.json per_layer)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def total(name: str, use_own: bool = False) -> float:
        return sum(own[i] if use_own else spans[i][END] - spans[i][START] for i in by_name[name])

    def items(name: str) -> int:
        return sum(spans[i][ITEMS] for i in by_name[name])

    leaves = items("branching.candidate_masks")
    maximal = items("branching.maximal_masks")
    count_us = sorted((spans[i][END] - spans[i][START]) * 1e6 for i in by_name["branching.count"])
    parse_spans = set(by_name["graph6.parse"])
    # the highest whole percentile (at most 99) with ten samples beyond it
    tail = min(99, int(100 * (1 - 10 / len(count_us)))) if len(count_us) >= 20 else 0
    out = {
        "graph6.parse_s": total("graph6.parse", use_own=True),
        "graphs.validate_s": sum(
            spans[i][END] - spans[i][START]
            for i in by_name["graphs.validate"]
            if spans[i][PARENT] in parse_spans
        ),
        "graphs.delete_vertices_calls": len(by_name["graphs.delete_vertices"]),
        "graphs.delete_vertices_s": total("graphs.delete_vertices"),
        "branching.count_samples": len(count_us),
        "branching.count_us_p50": nearest_rank(count_us, 50) if count_us else 0.0,
        "branching.count_tail_pct": tail,
        "branching.count_us_tail": nearest_rank(count_us, tail) if tail else 0.0,
        "branching.search_s": total("branching.candidate_masks"),
        "branching.filter_s": total("branching.maximal_masks", use_own=True),
        "branching.leaves": leaves,
        "branching.maximal_sets": maximal,
        "branching.leaves_per_maximal": leaves / maximal if maximal else 0.0,
        "branching.max_s": total("branching.max"),
        "oracle.family_s": total("oracle.family"),
        "canonical.calls": len(by_name["canonical.form"]),
        "canonical.s": total("canonical.form"),
        "cli.overhead_s": total("cli.main", use_own=True),
        "extremal.verify_checks": sum(
            items(f"extremal.verify_{suite}")
            for suite in VERIFY_SUITES
        ),
    }
    for suite in VERIFY_SUITES:
        out[f"extremal.verify_{suite}_s"] = total(f"extremal.verify_{suite}")
    out.update(per_graph_leaves(spans, graph_names or []))
    return out


def per_graph_leaves(spans, graph_names: list[str]) -> dict[str, float]:
    """Leaves per maximal set of each named graph, from the searches that the
    per-graph `count` calls made (graph ids follow the input order)."""
    leaves: dict[int, int] = defaultdict(int)
    maximal: dict[int, int] = defaultdict(int)
    for s in spans:
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if parent is None:
            continue
        if s[NAME] == "branching.maximal_masks" and parent[NAME] == "branching.count":
            maximal[s[GRAPH]] += s[ITEMS]
        elif (s[NAME] == "branching.candidate_masks" and parent[PARENT] >= 0
              and spans[parent[PARENT]][NAME] == "branching.count"):
            leaves[s[GRAPH]] += s[ITEMS]
    return {
        f"branching.leaves_per_maximal.{name}": (
            leaves[gid] / maximal[gid] if maximal.get(gid) else 0.0
        )
        for gid, name in enumerate(graph_names)
    }


def sweep_metrics(spans) -> dict[str, float]:
    """Scan and canonical-labelling numbers of the first traced sweep; the scan
    is the sweep's wall time minus its canonical labelling."""
    sweep = next((s for s in spans if s[NAME] == "extremal.sweep"), None)
    if sweep is None:
        return {"canonical_calls": 0, "scan_s": 0.0, "admitted": 0, "labeled_masks": 0}
    inside = [t for t in spans if t[START] >= sweep[START] and t[END] <= sweep[END]]
    canon = [t for t in inside if t[NAME] == "canonical.form"]
    return {
        "canonical_calls": len(canon),
        "scan_s": sweep[END] - sweep[START] - sum(t[END] - t[START] for t in canon),
        "admitted": sweep[ITEMS],
        "labeled_masks": sum(t[ITEMS] for t in inside if t[NAME] == "extremal.chunk"),
    }
