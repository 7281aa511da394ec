#!/usr/bin/env python3
"""Benchmark of the dissoc command line, one seeded workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each one was chosen):

  stream        3000 seeded G(n, p) graph6 lines, n in 8..18, p in 0.2/0.5/0.8,
                1 % malformed; `dissoc count`, `max` (JSON), `enumerate` (CSV)
  large-family  P26, C24, 5K5, K3,3 + 4C4 and K5*+K5*+K6+K4*+K4*, plus one
                malformed line of each kind at seeded positions;
                `dissoc count`, `max` (JSON) and `enumerate` (CSV)
  extremal      `scripts/sweep_report.py --orders 7 --filter triangle-free
                --workers 2`, then `dissoc verify all` (JSON)

With --trace 0 every stage runs as a fresh process, pass after pass, for
--seconds; wall_s is the median over the passes of a pass's total wall time,
setup_s the median wall time of a CLI process that does no work, and
peak_rss_mb the largest peak RSS of a stage process.  With --trace 1
each stage runs in this process: untraced, then with spans around the
package's layers (see spans.py), then untraced again.  The per-layer metrics
come from the spans, stage.<name>_s from the last untraced pass; the sweep
runs with one worker there, and once more traced with two for
extremal.fanout_speedup.
Every output is checked against references outside the timed regions.  The
last line of stdout is the JSON result; the lines above it are for people.
Scratch files, the run record and the spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import runpy
import statistics
import subprocess
import sys
import time

import checks
import inputs
import spans

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
ENTRY = "import sys; from dissoc.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dissoc.cli; "
    "print(time.perf_counter() - t)"
)
SETUP_REPEATS = 7
WORKLOADS = ("stream", "large-family", "extremal")


def stages(workload: str, workers: int = 2) -> list[tuple[str, str, list[str]]]:
    """(stage, kind, arguments) in the order they run; `workers` is the
    sweep's process count."""
    if workload in ("stream", "large-family"):
        path = os.path.join(WORK, f"{workload}.g6")
        return [
            ("count", "cli", ["count", "--format", "json", path]),
            ("max", "cli", ["max", "--format", "json", path]),
            ("enumerate", "cli", ["enumerate", "--format", "csv", path]),
        ]
    sweep = ["scripts/sweep_report.py", "--orders", "7", "--filter", "triangle-free",
             "--workers", str(workers)]
    return [
        ("sweep", "script", sweep),
        ("verify", "cli", ["verify", "all", "--format", "json"]),
    ]


class Workload:
    """The seeded inputs of one workload and the check of one pass of it."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.graph_names: list[str] = []
        if name == "stream":
            self.lines, self.malformed = inputs.write_stream(os.path.join(WORK, "stream.g6"), seed)
        elif name == "large-family":
            self.lines, self.graphs, self.malformed = inputs.write_large_family(
                os.path.join(WORK, "large-family.g6"), seed)
            self.graph_names = [self.graphs[n] for n in sorted(self.graphs)]
            self.reference = checks.large_family_reference()

    def check(self, outcomes: dict[str, checks.Outcome]) -> checks.Tally:
        if self.name == "stream":
            return checks.check_stream(outcomes, self.lines, self.malformed, self.seed)
        if self.name == "large-family":
            return checks.check_large_family(outcomes, self.lines, self.graphs,
                                             self.malformed, self.reference, self.seed)
        return checks.check_extremal(outcomes)

    def sets_written(self, outcomes: dict[str, checks.Outcome]) -> int:
        with open(outcomes["enumerate"].out_path, "rb") as fh:
            return sum(1 for _ in fh) - 1


def child_env() -> dict[str, str]:
    """The package from this checkout, and one string-hash layout for every
    run: with random hash seeds the same command's time varies more."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
                PYTHONHASHSEED="0")


def run_child(argv: list[str], tag: str) -> checks.Outcome:
    """Run one fresh process; wall time and its own peak RSS via os.wait4."""
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return checks.Outcome(proc.returncode, wall, usage.ru_maxrss / 1024, out_path, err_path)


def child_argv(kind: str, args: list[str]) -> list[str]:
    if kind == "cli":
        return [sys.executable, "-c", ENTRY, *args]
    return [sys.executable, *args]


def run_in_process(kind: str, args: list[str], tag: str) -> checks.Outcome:
    """Run one stage inside this process, with stdout and stderr to files."""
    import dissoc.cli

    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    with open(out_path, "w") as out, open(err_path, "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if kind == "cli":
            code = dissoc.cli.main(args)
        else:
            saved = sys.argv
            sys.argv = list(args)
            try:
                runpy.run_path(args[0], run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            finally:
                sys.argv = saved
        wall = time.perf_counter() - start
    return checks.Outcome(code, wall, 0.0, out_path, err_path)


def timed_probes(argv: list[str], repeats: int, tag: str) -> list[checks.Outcome]:
    """One untimed warm-up (it may compile bytecode), then `repeats` runs."""
    run_child(argv, tag)
    return [run_child(argv, f"{tag}-{k}") for k in range(repeats)]


def digest(outcomes: dict[str, checks.Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes.values():
        h.update(str(o.code).encode())
        for path in (o.out_path, o.err_path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def end_to_end(work: Workload, seconds: float) -> tuple[dict, checks.Tally, list[str]]:
    setup = timed_probes([sys.executable, "-c", ENTRY, "gen", "path:1"], SETUP_REPEATS, "setup")
    passes: list[dict[str, checks.Outcome]] = []
    tally = checks.Tally()
    first: tuple[str, checks.Tally] | None = None
    begin = time.perf_counter()
    while True:
        k = len(passes)
        outcomes = {
            stage: run_child(child_argv(kind, args), f"{stage}-{k}")
            for stage, kind, args in stages(work.name)
        }
        passes.append(outcomes)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds:
            break
    for k, outcomes in enumerate(passes):
        # stream and large-family outputs are deterministic: later passes must
        # match the first byte for byte; extremal prints timings, so check all
        fp = digest(outcomes) if work.name != "extremal" else None
        if first is not None and fp is not None and fp == first[0]:
            tally.add(first[1])
            continue
        result = work.check(outcomes)
        tally.add(result)
        if first is None:
            first = (fp, result)

    names = [stage for stage, _, _ in stages(work.name)]
    walls = {name: statistics.median(p[name].wall_s for p in passes) for name in names}
    metrics = {
        "setup_s": statistics.median(o.wall_s for o in setup),
        "wall_s": statistics.median(sum(o.wall_s for o in p.values()) for p in passes),
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p.values()),
    }
    # each stage's wall time, also as the throughputs its users would quote
    info = [f"passes: {len(passes)}; stage medians: "
            + ", ".join(f"{n} {w:.3f} s" for n, w in walls.items())]
    if work.name == "stream":
        lines = len(work.lines)
        info.append(f"count_graphs_per_s {lines / walls['count']:.1f} graphs/s, "
                    f"max_graphs_per_s {lines / walls['max']:.1f} graphs/s, "
                    f"enumerate_sets_per_s {work.sets_written(passes[0]) / walls['enumerate']:.0f} sets/s")
    elif work.name == "large-family":
        phi = sum(ref[0] for ref in work.reference.values())
        info.append(f"count_sets_per_s {phi / walls['count']:.0f} sets/s, "
                    f"enumerate_sets_per_s {work.sets_written(passes[0]) / walls['enumerate']:.0f} sets/s")
    else:
        info.append(f"sweep_s {walls['sweep']:.3f} s, verify_s {walls['verify']:.3f} s")
    info.append("pass walls: " + "; ".join(
        ", ".join(f"{n} {o.wall_s:.3f}" for n, o in p.items()) for p in passes))
    for p in passes[1:]:
        for o in p.values():
            os.remove(o.out_path)
    return metrics, tally, info


def source_digest() -> str:
    h = hashlib.sha256()
    for base in ("src", "scripts"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


EXACT_COUNTERS = ("branching.leaves", "branching.maximal_sets", "extremal.admitted",
                  "canonical.calls", "cli.output_bytes", "extremal.verify_checks")


def read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def traced_run(work: Workload) -> tuple[dict, checks.Tally, list[str]]:
    imports = timed_probes([sys.executable, "-c", IMPORT_PROBE], SETUP_REPEATS, "import")
    import_s = statistics.median(float(read_text(o.out_path)) for o in imports)
    plan = stages(work.name, workers=1)  # a serial sweep keeps every span in this process
    tally = checks.Tally()

    def untraced_pass(tag: str) -> dict[str, checks.Outcome]:
        outcomes = {stage: run_in_process(kind, args, f"{stage}-{tag}")
                    for stage, kind, args in plan}
        tally.add(work.check(outcomes))
        return outcomes

    # the first pass warms the allocator and lazy caches; the traced pass is
    # compared with the second, which runs after it
    untraced_pass("warm")
    tracer = spans.Tracer()
    tracer.install()
    traced: dict[str, checks.Outcome] = {}
    try:
        for stage, kind, args in plan:
            tracer.begin_command()
            traced[stage] = run_in_process(kind, args, f"{stage}-traced")
    finally:
        tracer.restore()
    tally.add(work.check(traced))
    untraced = untraced_pass("plain")

    metrics = spans.layer_metrics(tracer.spans, work.graph_names)
    untraced_wall = sum(o.wall_s for o in untraced.values())
    traced_wall = sum(o.wall_s for o in traced.values())
    deterministic = [s for s in traced if s in ("count", "max", "enumerate")]
    out_bytes = {s: os.path.getsize(traced[s].out_path) for s in deterministic}
    tally.op(all(out_bytes[s] == os.path.getsize(untraced[s].out_path) for s in deterministic),
             "traced and untraced outputs differ in size")
    metrics.update({f"stage.{stage}_s": o.wall_s for stage, o in untraced.items()})
    metrics.update({
        "cli.import_s": import_s,
        "cli.output_bytes": sum(out_bytes.values()),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "trace_overhead": traced_wall / untraced_wall - 1.0,
    })

    if work.name == "extremal":
        fanout = spans.Tracer()
        fanout.install()
        try:
            _, kind, args = stages(work.name, workers=2)[0]
            parallel = run_in_process(kind, args, "sweep-fanout")
        finally:
            fanout.restore()
        tally.add(work.check({"sweep": parallel, "verify": traced["verify"]}))
        serial, fanned = spans.sweep_metrics(tracer.spans), spans.sweep_metrics(fanout.spans)
        tally.op(serial["admitted"] == fanned["admitted"]
                 and serial["canonical_calls"] == fanned["canonical_calls"],
                 "sweep counters differ between workers=1 and workers=2")
        metrics.update({
            "canonical.witnesses_per_class": (
                serial["canonical_calls"] / max(1, len(checks.sweep_row(traced["sweep"])[4:]))),
            "extremal.labeled_masks": serial["labeled_masks"],
            "extremal.admitted": serial["admitted"],
            "extremal.admitted_per_mask": (
                serial["admitted"] / serial["labeled_masks"] if serial["labeled_masks"] else 0.0),
            "extremal.scan_s": serial["scan_s"],
            "extremal.fanout_speedup": serial["scan_s"] / fanned["scan_s"] if fanned["scan_s"] else 0.0,
        })

    exact = {name: metrics.get(name, 0) for name in EXACT_COUNTERS}
    tally.op(counters_repeat(work, exact), "exact counters differ from an earlier run")
    tracer.write(os.path.join(WORK, f"spans-{work.name}-seed{work.seed}.csv.gz"))
    info = [f"in-process wall: untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s",
            "exact counters: " + ", ".join(f"{k} {v}" for k, v in exact.items())]
    return metrics, tally, info


def counters_repeat(work: Workload, exact: dict) -> bool:
    """Compare with the counters an earlier traced run of the same seed and
    the same source recorded; record them if this is the first such run."""
    path = os.path.join(WORK, f"counters-{work.name}-seed{work.seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh) == exact
    with open(path, "w") as fh:
        json.dump(exact, fh)
    return True


def machine_facts() -> dict:
    import numpy

    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_workload(name: str, args, spec: dict, facts: dict) -> dict:
    """Run, check and report one workload; return its result object."""
    work = Workload(name, args.seed)
    if args.trace:
        metrics, tally, info = traced_run(work)
        wanted = spec["per_layer"]
    else:
        metrics, tally, info = end_to_end(work, args.seconds)
        wanted = spec["end_to_end"]

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"workload": name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "notes": tally.notes, **result}
    with open(os.path.join(WORK, f"record-{name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {name}, seed {args.seed}, trace {args.trace}; machine: "
          + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for line in info:
        print(line)
    for metric, m in result["metrics"].items():
        print(f"  {metric:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for note in tally.notes:
        print(f"  failed: {note}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "dissoc", "cli.py")):
        print("error: run from the root of a dissoc checkout (src/dissoc not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    facts = machine_facts()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, spec, facts) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        # metrics of every workload, named <workload>.<metric>
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
