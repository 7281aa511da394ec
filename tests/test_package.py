"""The public surface of the dissoc package."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dissoc


def test_every_exported_name_resolves_once():
    assert len(dissoc.__all__) == len(set(dissoc.__all__))
    assert set(dissoc.__all__) <= set(dir(dissoc))
    for name in dissoc.__all__:
        assert getattr(dissoc, name) is not None, name
        assert name in vars(dissoc), name  # cached once resolved
    assert dissoc.sweep is dissoc.extremal.sweep
    assert dissoc.Graph is dissoc.graphs.Graph


def test_removed_layers_stay_removed():
    for name in ("FamilySpec", "build", "PivotPartition", "classify_by_pivot",
                 "BoundConstants", "BOUNDS", "SweepRefusedError", "OracleTimeoutError",
                 "CANONICAL_ORDER_CAP", "is_bipartite", "random_bipartite_graph"):
        with pytest.raises(AttributeError):
            getattr(dissoc, name)
    assert dissoc.SweepFilter._fields == ("triangle_free", "connected_only")
    assert not hasattr(dissoc.graphs, "edge_pairs")
    for name in ("from_edge_mask", "edge_mask", "degree", "edge_count", "component_count"):
        assert not hasattr(dissoc.Graph, name)


# Run in a fresh interpreter: pytest and hypothesis import dataclasses
# themselves.  Each line names the heavy modules its step loaded.
_IMPORT_PROBE = """
import sys
heavy = {"dissoc.extremal", "dissoc.canonical", "dataclasses", "json"}
before = set(sys.modules)
def loaded(step):
    global before
    print(step, *sorted(heavy & (set(sys.modules) - before)), file=sys.stderr)
    before = set(sys.modules)
import dissoc.cli
loaded("import")
dissoc.cli.main(["gen", "path:1"])
dissoc.cli.main(["count", sys.argv[1]])
loaded("gen+count")
dissoc.sweep(3, dissoc.SweepFilter())
loaded("sweep")
dissoc.cli.main(["verify", "families", "--t-max", "1"])
loaded("verify")
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    graphs = tmp_path / "one.g6"
    graphs.write_text("Bg\n")  # the path on three vertices
    src = str(Path(dissoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(graphs)],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[0] == "@"  # gen path:1
    assert proc.stderr.splitlines() == [
        "import",
        "gen+count",
        "sweep dissoc.canonical dissoc.extremal",
        "verify",
    ]


def test_verify_suites_take_only_the_options_a_caller_sets():
    expected = {
        "verify_asymptotic_bounds": ["order_max", "seed"],
        "verify_recurrences": ["pivot_trials", "seed"],
        "verify_family_values": ["max_t"],
        "verify_path_cycle_bounds": ["n_max"],
    }
    for name, params in expected.items():
        assert list(inspect.signature(getattr(dissoc, name)).parameters) == params, name


def test_oracle_functions_take_only_a_graph():
    # the subset scan's budget is oracle.ORACLE_TIME_LIMIT, not an argument
    for name in ("enumerate_maximal_bruteforce", "dissociation_number", "count_maximum_bruteforce"):
        assert list(inspect.signature(getattr(dissoc, name)).parameters) == ["g"], name


def test_sweep_runs_in_one_process():
    params = list(inspect.signature(dissoc.sweep).parameters)
    assert params == ["order", "filt", "quantity"]


def test_dissoc_verify_is_the_only_verification_driver():
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    assert not (scripts / "run_verification.py").exists()
