"""The public surface of the dissoc package."""

import inspect
from pathlib import Path

import dissoc


def test_every_exported_name_resolves_once():
    assert len(dissoc.__all__) == len(set(dissoc.__all__))
    for name in dissoc.__all__:
        assert getattr(dissoc, name) is not None, name


def test_removed_layers_stay_removed():
    for name in ("FamilySpec", "build", "PivotPartition", "classify_by_pivot",
                 "BoundConstants", "BOUNDS", "SweepRefusedError", "OracleTimeoutError",
                 "CANONICAL_ORDER_CAP"):
        assert not hasattr(dissoc, name), name


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
