"""The package's public names."""
import skelfit


def test_every_exported_name_resolves():
    for name in skelfit.__all__:
        assert hasattr(skelfit, name), name


def test_exports_have_no_duplicates():
    assert len(skelfit.__all__) == len(set(skelfit.__all__))


def test_removed_names_stay_gone():
    # JointFit is the one joint record; placements are stacked arrays
    for name in ("Joint", "Transform", "relative"):
        assert name not in skelfit.__all__
        assert not hasattr(skelfit, name)
