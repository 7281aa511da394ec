"""Command-line interface: subcommands, formats, error isolation, exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from dissoc import (
    Graph,
    Graph6Error,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_maximal,
    k_star_graph,
    parse_graph6,
    path_graph,
    serialize_graph6,
)
from dissoc import cli, extremal
from dissoc.cli import _T0, _T1, _T2, _T3, main, parse_family_string, SpecGrammarError
from dissoc.oracle import _members


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    """Run main with stdin_text as stdin: bytes as they are, str as UTF-8."""
    data = stdin_text.encode() if isinstance(stdin_text, str) else stdin_text
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen grammar -----------------------------------------------------------

def test_parse_family_strings():
    assert parse_family_string("path:3") == path_graph(3)
    assert parse_family_string("kmn:2,3") == complete_bipartite_graph(2, 3)
    assert parse_family_string("kstar:5,2") == k_star_graph(5, 2)
    nested = parse_family_string("union:(cycle:4;union:(path:2;path:2))")
    assert nested == disjoint_union(cycle_graph(4), disjoint_union(path_graph(2), path_graph(2)))


@pytest.mark.parametrize(
    "text",
    ["", "path", "path:x", "path:1,2", "frob:3", "union:cycle:4", "union:()"],
)
def test_grammar_rejects_bad_specs(text):
    with pytest.raises(SpecGrammarError):
        parse_family_string(text)


def test_gen_path1_is_at_sign(monkeypatch, capsys):
    code, out, _ = run_cli(["gen", "path:1"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.strip() == "@"


def test_gen_kstar_decodes_to_k5_minus_matching(monkeypatch, capsys):
    code, out, _ = run_cli(["gen", "kstar:5,2"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.order == 5 and g.edge_count == 8
    assert sorted(g.degree(v) for v in range(5)) == [3, 3, 3, 3, 4]


def test_gen_union_decodes_to_two_cycles(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["gen", "union:(cycle:4;cycle:4)"], monkeypatch=monkeypatch, capsys=capsys
    )
    g = parse_graph6(out.strip())
    assert code == 0
    assert g == disjoint_union(cycle_graph(4), cycle_graph(4))


def test_gen_reports_offending_token(monkeypatch, capsys):
    code, out, err = run_cli(["gen", "frob:3"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "frob" in err


def test_gen_bad_parameter_prints_no_graph(monkeypatch, capsys):
    code, out, err = run_cli(["gen", "path:3", "path:0"], monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (2, "", "error: path requires n >= 1, got 0\n")


def test_gen_past_the_short_form_prints_one_error_line(monkeypatch, capsys):
    code, out, err = run_cli(["gen", "path:3", "path:63"], monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (2, "", "error: short-form graph6 supports order <= 62, got 63\n")


def _unbuildable(*args):
    raise AssertionError("a graph past graph6's short form was built")


def test_gen_refuses_a_large_order_before_building(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_FAMILIES", {
        kind: (arity, _unbuildable) for kind, (arity, _) in cli._FAMILIES.items()
    })
    for spec, order in (("complete:100000", 100000), ("kmn:40,30", 70)):
        assert run_cli(["gen", spec], monkeypatch=monkeypatch, capsys=capsys) == (
            2, "", f"error: short-form graph6 supports order <= 62, got {order}\n"
        )


def test_gen_refuses_a_large_union_before_joining(monkeypatch, capsys):
    monkeypatch.setattr(cli, "disjoint_union", _unbuildable)
    code, out, err = run_cli(
        ["gen", "union:(path:40;cycle:20;path:3)"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert (code, out, err) == (2, "", "error: short-form graph6 supports order <= 62, got 63\n")


# --- count / enumerate / max ----------------------------------------------

def test_count_fixtures_from_stdin(monkeypatch, capsys):
    lines = "\n".join(
        serialize_graph6(g)
        for g in (cycle_graph(4), complete_bipartite_graph(2, 3), complete_graph(1))
    )
    code, out, _ = run_cli(
        ["count", "--format", "json"], stdin_text=lines + "\n",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    phis = [(r["n"], r["phi"], r["phi_max"], r["psi"]) for r in doc["results"]]
    assert phis == [(4, 6, 6, 2), (5, 8, 1, 3), (1, 1, 1, 1)]
    assert doc["errors"] == []


def test_count_csv_header(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["count", "--format", "csv"], stdin_text=serialize_graph6(cycle_graph(4)) + "\n",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,n,phi,phi_max,psi"
    assert len(lines) == 2 and len(lines[1].split(",")) == 5


def test_count_isolates_bad_lines(monkeypatch, capsys):
    big = serialize_graph6(Graph(40, (0,) * 40))  # parses fine, over the counting cap
    stdin = f"{serialize_graph6(cycle_graph(4))}\n!!!\n{big}\n{serialize_graph6(complete_graph(2))}\n"
    code, out, err = run_cli(
        ["count", "--format", "json"], stdin_text=stdin,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 1
    doc = json.loads(out)
    assert [r["n"] for r in doc["results"]] == [4, 2]
    assert [e["line"] for e in doc["errors"]] == [2, 3]


def test_count_reads_files(tmp_path, monkeypatch, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text(serialize_graph6(complete_graph(5)) + "\n")
    code, out, _ = run_cli(
        ["count", str(path), "--format", "csv"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[2] == "10"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_graph6_byte_is_a_line_error_naming_the_byte(source, tmp_path, monkeypatch, capsys):
    data = b"C]\n\xe9\nBw\n"
    if source == "file":
        path = tmp_path / "graphs.g6"
        path.write_bytes(data)
        argv, stdin_text = ["count", str(path), "--format", "csv"], ""
    else:
        argv, stdin_text = ["count", "--format", "csv"], data
    code, out, err = run_cli(argv, stdin_text=stdin_text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err == "line 2: byte 233 at position 0 outside the graph6 range 63..126\n"
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["C]", "Bw"]


def test_stdin_bytes_do_not_depend_on_the_locale():
    # a latin-1 stdin would decode \xe9 to U+00E9, which re-encodes as UTF-8
    # bytes 195 169: the line error must name the byte as read
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc.cli", "count", "--format", "csv"],
        input=b"\xe9A\n", capture_output=True, env={**os.environ, "PYTHONIOENCODING": "latin-1"},
    )
    assert proc.returncode == 1
    assert proc.stderr == b"line 1: byte 233 at position 0 outside the graph6 range 63..126\n"


def test_long_form_line_is_a_line_error(monkeypatch, capsys):
    # a leading "~" starts graph6's long form; this line is order 63 in it
    stdin = "C]\n~??~" + "?" * 326 + "\nBw\n"
    code, out, err = run_cli(
        ["count", "--format", "csv"], stdin_text=stdin, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1
    assert err == "line 2: short-form graph6 supports order <= 62, got 63\n"
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["C]", "Bw"]


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_crlf_line_endings_read_as_lf(source, tmp_path, monkeypatch, capsys):
    def run(text):
        if source == "file":
            path = tmp_path / "graphs.g6"
            path.write_bytes(text.encode())
            return run_cli(["count", str(path)], monkeypatch=monkeypatch, capsys=capsys)
        return run_cli(["count"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)

    lf = "C~\nBW\n\nD~{\n"
    assert run(lf.replace("\n", "\r\n")) == run(lf)
    assert run(lf)[0] == 0


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_only_line_ends_split_lines(source, tmp_path, monkeypatch, capsys):
    # \x1c, NEL (U+0085) and U+2028 end a line for str.splitlines(), but not
    # here: each stays in its line, which then fails as a graph6 line error.
    data = b"C~\x1cBW\nBW\xc2\x85C~\nC~\xe2\x80\xa8\n \tBW\x0c\n!!\rC~\r\n"
    if source == "file":
        path = tmp_path / "graphs.g6"
        path.write_bytes(data)
        argv, stdin_text = ["count", str(path), "--format", "csv"], ""
    else:
        argv, stdin_text = ["count", "--format", "csv"], data
    code, out, err = run_cli(argv, stdin_text=stdin_text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err == (
        "line 1: byte 28 at position 2 outside the graph6 range 63..126\n"
        "line 2: byte 194 at position 2 outside the graph6 range 63..126\n"
        "line 3: byte 226 at position 2 outside the graph6 range 63..126\n"
        "line 5: byte 33 at position 0 outside the graph6 range 63..126\n"
    )
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["BW", "C~"]


def test_header_and_inner_whitespace_are_line_errors(monkeypatch, capsys):
    stdin = "C~\n>>graph6<<C~\nB W\nBW\n"
    code, out, err = run_cli(
        ["count", "--format", "csv"], stdin_text=stdin, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1
    assert err == (
        "line 2: byte 62 at position 0 outside the graph6 range 63..126\n"
        "line 3: byte 32 at position 1 outside the graph6 range 63..126\n"
    )
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["C~", "BW"]


def test_missing_input_file_is_an_error_line(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing.g6"
    code, out, err = run_cli(["count", str(missing)], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_negative_limit_is_refused(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            ["enumerate", "--limit", "-1"],
            stdin_text=serialize_graph6(complete_graph(5)) + "\n",
            monkeypatch=monkeypatch, capsys=capsys,
        )
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_enumerate_p3_lists_three_pairs(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["enumerate", "--format", "json"],
        stdin_text=serialize_graph6(Graph.from_edges(3, [(0, 1), (1, 2)])) + "\n",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["sets"] == [[0, 1], [0, 2], [1, 2]]
    assert doc["results"][0]["truncated"] is False


def test_enumerate_respects_limit(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["enumerate", "--limit", "2"],
        stdin_text=serialize_graph6(complete_graph(5)) + "\n",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "truncated, showing 2 of 10" in out


def enumerate_reference(lines, fmt, limit):
    """stdout and stderr of `enumerate` in csv or table, written through
    csv.writer and print: the reference for the command's pre-formatted rows."""
    out, err = io.StringIO(), io.StringIO()
    graphs = []
    for lineno, text in enumerate(lines, 1):
        try:
            graphs.append((text, parse_graph6(text)))
        except Graph6Error as exc:
            print(f"line {lineno}: {exc}", file=err)
    writer = csv.writer(out, lineterminator="\n")
    if fmt == "csv":
        writer.writerow(("graph6", "set_index", "size", "vertices"))
    for text, g in graphs:
        sets = enumerate_maximal(g).sets
        shown = sets[:limit] if limit is not None else sets
        if fmt == "csv":
            for k, s in enumerate(shown):
                writer.writerow((text, k, len(s), " ".join(map(str, s))))
            if len(shown) < len(sets):
                print(f"{text}: truncated at {len(shown)} of {len(sets)} sets", file=err)
        else:
            print(f"{text}  n={g.order}  phi={len(sets)}", file=out)
            for s in shown:
                print("  " + " ".join(map(str, s)), file=out)
            if len(shown) < len(sets):
                print(f"  ... truncated, showing {len(shown)} of {len(sets)}", file=out)
    return out.getvalue(), err.getvalue()


@pytest.mark.parametrize("limit", [None, 3])
@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_enumerate_csv_and_table_bytes(fmt, limit, monkeypatch, capsys):
    # the null graph, one vertex, a malformed line, vertices past 9, graphs
    # with more than three sets for --limit 3 to cut, and order 32 (28
    # isolated vertices and K4: six sets of 30 vertices, up to vertex 31)
    lines = ["?", "@", "!!", serialize_graph6(path_graph(12)),
             serialize_graph6(complete_graph(5)), serialize_graph6(cycle_graph(4)),
             serialize_graph6(disjoint_union(Graph(28, (0,) * 28), complete_graph(4)))]
    argv = ["enumerate", "--format", fmt] + ([] if limit is None else ["--limit", str(limit)])
    code, out, err = run_cli(argv, stdin_text="\n".join(lines) + "\n",
                             monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (1, *enumerate_reference(lines, fmt, limit))
    assert err.startswith("line 3: byte 33 at position 0 outside the graph6 range 63..126\n")
    if fmt == "csv":
        assert out.splitlines()[:3] == ["graph6,set_index,size,vertices", "?,0,0,", "@,0,1,0"]
        assert "\nKhCGGC@?G?_@,0,6,1 2 5 6 9 10\n" in out
    else:
        assert out.startswith("?  n=0  phi=1\n  \n@  n=1  phi=1\n  0\n")
        assert "\nKhCGGC@?G?_@  n=12  phi=46\n  1 2 5 6 9 10\n" in out
    if limit is not None:
        assert (f"{serialize_graph6(complete_graph(5))}: truncated at 3 of 10 sets" in err) == (fmt == "csv")


@given(st.integers(0, (1 << 32) - 1))
@example(0)
@example(1 << 31)
@example((1 << 32) - 1)
def test_row_text_tables_spell_the_members(mask):
    text = (_T0[mask & 255] + _T1[mask >> 8 & 255] + _T2[mask >> 16 & 255] + _T3[mask >> 24])[:-1]
    assert text == " ".join(map(str, _members(mask)))


def test_max_reports_lexicographically_least(monkeypatch, capsys):
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    code, out, _ = run_cli(
        ["max", "--format", "json"], stdin_text=serialize_graph6(p4) + "\n",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    doc = json.loads(out)
    assert doc["results"][0]["psi"] == 3
    assert doc["results"][0]["vertices"] == "0 1 3"


def _csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("command", ["count", "max"])
def test_csv_output_equals_a_csv_writer_reference(command, monkeypatch, capsys):
    # "?" is order 0: its maximum set is empty, so the vertices field is empty
    stdin = "".join(f"{text}\n" for text in ("?", "@", "A_", "C]", "D~{", serialize_graph6(path_graph(9))))
    _, out, _ = run_cli([command, "--format", "csv"], stdin_text=stdin,
                        monkeypatch=monkeypatch, capsys=capsys)
    _, doc, _ = run_cli([command, "--format", "json"], stdin_text=stdin,
                        monkeypatch=monkeypatch, capsys=capsys)
    rows = json.loads(doc)["results"]
    assert rows[0]["n"] == 0 and (command == "count" or rows[0]["vertices"] == "")
    header = list(rows[0])
    assert out == _csv_writer_text([header, *([r[c] for c in header] for r in rows)])


# --- verify ----------------------------------------------------------------

def test_verify_csv_equals_a_csv_writer_reference(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "all", "--order-max", "3", "--t-max", "1", "--n-max", "6", "--trials", "2",
         "--format", "csv"],
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "checks", "violations", "elapsed_ms"]
    assert [r[0] for r in rows[1:]] == ["bounds", "families", "recurrences", "paths-cycles"]
    assert out == _csv_writer_text(rows)


def test_verify_runs_the_suite_bound_on_the_cli_module(monkeypatch, capsys):
    real = cli.verify_family_values  # resolved through cli's module __getattr__
    assert real is extremal.verify_family_values
    calls = []

    def recorded(**options):
        calls.append(options)
        return real(**options)

    monkeypatch.setattr(cli, "verify_family_values", recorded)
    code, out, _ = run_cli(["verify", "families", "--t-max", "1"],
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "families: pass" in out
    assert calls == [{"max_t": 1}]
    with pytest.raises(AttributeError):
        cli.verify_nothing


def test_verify_paths_cycles_passes(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "paths-cycles", "--n-max", "12"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert "paths-cycles: pass" in out


def test_verify_json_is_a_single_document(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "paths-cycles", "--n-max", "8", "--format", "json"],
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "paths-cycles"
    assert doc["suites"][0]["violations"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--limit", "3"],
        ["count", "--allow-long"],
        ["count", "--seed", "4"],
        ["max", "--limit", "3"],
        ["enumerate", "--seed", "4"],
        ["gen", "--format", "json", "path:3"],
        ["verify", "families", "--limit", "3"],
        ["verify", "bounds", "--allow-long"],
    ],
)
def test_options_belong_to_the_subcommands_that_read_them(argv, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


LEAST_SIZES = {"--order-max": 0, "--t-max": 1, "--n-max": 1, "--trials": 0}


@pytest.mark.parametrize("option", sorted(LEAST_SIZES))
def test_verify_refuses_negative_sizes(option, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "all", option, "-2"], monkeypatch=monkeypatch, capsys=capsys)
    assert exc.value.code == 2
    low = LEAST_SIZES[option]
    assert f"argument {option}: must be at least {low}, got -2" in capsys.readouterr().err


@pytest.mark.parametrize("suite, option", [("families", "--t-max"), ("paths-cycles", "--n-max")])
def test_verify_refuses_a_size_that_checks_nothing(suite, option, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", suite, option, "0"], monkeypatch=monkeypatch, capsys=capsys)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be at least 1, got 0" in captured.err


def test_verify_bounds_over_budget_prints_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(extremal, "SWEEP_TIME_LIMIT", 0.5)
    code, out, err = run_cli(
        ["verify", "bounds", "--order-max", "9"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: order-") and line.endswith("exceeded its 0.5s budget")


def test_verify_families_rejects_a_block_count_past_the_cap_before_building(monkeypatch, capsys):
    # the largest row at t = 6 is K4* + 6 K5*, 34 vertices
    monkeypatch.setattr(extremal, "_family_rows", _unbuildable)
    code, out, err = run_cli(
        ["verify", "families", "--t-max", "6"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert (code, out, err) == (2, "", "error: order 34 exceeds the enumeration cap of 32\n")


def test_verify_families_runs_at_the_largest_block_count(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "families", "--t-max", "5", "--format", "json"],
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    [suite] = json.loads(out)["suites"]
    assert (suite["checks"], suite["violations"]) == (1565, [])
    assert max(row["n"] for row in suite["details"]["table"]) == 29


def test_verify_bounds_rejects_orders_beyond_the_enumeration_cap(monkeypatch, capsys):
    code, out, err = run_cli(
        ["verify", "bounds", "--order-max", "33"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert err == "error: order 33 exceeds the enumeration cap of 32\n"


# --- output batching ---------------------------------------------------------

# a malformed line, graphs with more than three sets, and one with none cut
BATCH_INPUT = "\n".join([serialize_graph6(complete_graph(5)), "!!",
                         serialize_graph6(path_graph(12)), "@"]) + "\n"


@pytest.mark.parametrize("argv", [
    ["count", "--format", "json"],
    ["max", "--format", "json"],
    ["enumerate", "--format", "csv"],
    ["enumerate", "--format", "table", "--limit", "3"],
    ["gen", "path:1", "kstar:5,2", "union:(cycle:4;cycle:4)"],
    ["verify", "families", "--format", "json"],
])
def test_output_bytes_do_not_depend_on_an_unbuffered_stdout(argv):
    def run(unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run([sys.executable, "-m", "dissoc.cli", *argv],
                              input=BATCH_INPUT.encode(), capture_output=True, env=env)
        # verify reports its own run time
        out = re.sub(rb'"elapsed_ms": [0-9.]+', b'"elapsed_ms": 0', proc.stdout)
        return proc.returncode, out, proc.stderr

    unbuffered = run(True)
    assert unbuffered[1]
    assert unbuffered == run(False)


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv, lines, writes", [
    (["enumerate", "--format", "csv"], 10_001, 3),
    (["count", "--format", "json"], 13, 1),
])
def test_stdout_is_written_in_batches(argv, lines, writes, monkeypatch):
    g6 = serialize_graph6(parse_family_string(
        "union:(complete:5;complete:5;complete:5;complete:5)"))
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(g6.encode() + b"\n")))
    assert main(argv) == 0
    assert len(out.getvalue().splitlines()) == lines
    assert out.writes == writes


def test_truncation_notice_follows_its_rows(monkeypatch):
    events = []

    class Recorder(io.StringIO):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def write(self, text):
            events.append((self.name, text))
            return len(text)

    monkeypatch.setattr(sys, "stdout", Recorder("out"))
    monkeypatch.setattr(sys, "stderr", Recorder("err"))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(BATCH_INPUT.encode())))
    assert main(["enumerate", "--format", "csv", "--limit", "3"]) == 1
    text = "".join(f"<{name}>{t}" for name, t in events)
    k5, p12 = serialize_graph6(complete_graph(5)), serialize_graph6(path_graph(12))
    assert text.index(f"{k5},2,") < text.index(f"<err>{k5}: truncated at 3 of 10 sets")
    assert text.index(f"<err>{k5}: truncated") < text.index(f"{p12},0,")
    assert text.index(f"{p12},2,") < text.index(f"<err>{p12}: truncated at 3 of 46 sets")


@pytest.mark.parametrize("argv", [
    ["count", "--format", "json"],
    ["enumerate", "--format", "json"],
    ["verify", "families", "--format", "json"],
])
def test_json_text_is_json_dumps_with_indent_2(argv, monkeypatch, capsys):
    _, out, _ = run_cli(argv, stdin_text=BATCH_INPUT, monkeypatch=monkeypatch, capsys=capsys)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_pieces_spell_json_dumps():
    doc = {"a": [1, 2.5, None, True, {"b": "é\n", "c": []}], "d": {}, "e": -0.0}
    assert "".join(cli._json_text(doc)) == json.dumps(doc, indent=2) + "\n"


# --- pipeline composition ---------------------------------------------------

def test_gen_pipes_into_count():
    gen = subprocess.run(
        [sys.executable, "-m", "dissoc.cli", "gen", "union:(cycle:4;cycle:4)",
         "union:(kmn:3,3;cycle:4)"],
        capture_output=True, text=True, check=True,
    )
    cnt = subprocess.run(
        [sys.executable, "-m", "dissoc.cli", "count", "--format", "json"],
        input=gen.stdout, capture_output=True, text=True, check=True,
    )
    doc = json.loads(cnt.stdout)
    assert [r["phi"] for r in doc["results"]] == [36, 66]


def test_cli_import_loads_only_the_standard_library():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import dissoc.cli; "
         "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
         "print(sorted(new - set(sys.stdlib_module_names)))"],
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "['dissoc']"
