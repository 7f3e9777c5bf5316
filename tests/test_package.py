"""The package's public names."""
import inspect

import skelfit


def test_every_exported_name_resolves():
    for name in skelfit.__all__:
        assert hasattr(skelfit, name), name


def test_exports_have_no_duplicates():
    assert len(skelfit.__all__) == len(set(skelfit.__all__))


def test_removed_names_stay_gone():
    # JointFit is the one joint record; placements are stacked arrays;
    # a session's tracks all share its frame count; a fit's residuals are one array
    for name in (
        "Joint",
        "Transform",
        "relative",
        "LengthMismatchError",
        "ResidualSummary",
        "residual_summary",
    ):
        assert name not in skelfit.__all__
        assert not hasattr(skelfit, name)


def test_every_exported_function_and_class_has_a_docstring():
    for name in skelfit.__all__:
        obj = getattr(skelfit, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            doc = (obj.__doc__ or "").strip()
            # a dataclass without a docstring is given its bare signature
            assert doc and not doc.startswith(f"{name}("), name
