"""The public surface of the dissoc package."""

import dissoc


def test_every_exported_name_resolves_once():
    assert len(dissoc.__all__) == len(set(dissoc.__all__))
    for name in dissoc.__all__:
        assert getattr(dissoc, name) is not None, name


def test_removed_layers_stay_removed():
    for name in ("FamilySpec", "build", "PivotPartition", "classify_by_pivot",
                 "BoundConstants", "BOUNDS"):
        assert not hasattr(dissoc, name), name
