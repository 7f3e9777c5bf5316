"""Transform algebra: hand cases, closed forms, and algebraic laws."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelfit.errors import SingularRotationError
from skelfit.rigid import (
    Transform,
    orthonormality_error,
    relative,
    rotation_about_axis,
)

from conftest import haar_rotations

Z = np.array([0.0, 0.0, 1.0])


def random_transform(seed: int) -> Transform:
    rng = np.random.default_rng(seed)
    return Transform(haar_rotations(rng, 1)[0], rng.normal(size=3))


transforms = st.integers(min_value=0, max_value=10_000).map(random_transform)


class TestApply:
    def test_identity(self):
        assert np.allclose(Transform.identity().apply([1.0, 2.0, 3.0]), [1, 2, 3])

    def test_quarter_turn_about_z(self):
        T = Transform(rotation_about_axis(Z, np.pi / 2), np.zeros(3))
        assert np.allclose(T.apply([1.0, 0.0, 0.0]), [0, 1, 0], atol=1e-15)

    def test_rotation_then_offset(self):
        # R*(1,0,0) = (0,1,0), plus t = (1,0,0)
        T = Transform(rotation_about_axis(Z, np.pi / 2), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(T.apply([1.0, 0.0, 0.0]), [1, 1, 0], atol=1e-15)


class TestInvert:
    def test_identity(self):
        inv = Transform.identity().invert()
        assert np.allclose(inv.R, np.eye(3))
        assert np.allclose(inv.t, 0.0)

    def test_closed_form_rotation_with_offset(self):
        theta = 0.8
        T = Transform(rotation_about_axis(Z, theta), np.array([1.0, 0.0, 0.0]))
        inv = T.invert()
        back = rotation_about_axis(Z, -theta)
        assert np.allclose(inv.R, back, atol=1e-15)
        assert np.allclose(inv.t, -back @ np.array([1.0, 0.0, 0.0]), atol=1e-15)

    def test_inverse_undoes_apply(self):
        T = random_transform(11)
        x = np.array([0.4, 2.0, -0.3])
        assert np.allclose(T.invert().apply(T.apply(x)), x, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(transforms)
    def test_double_inversion_round_trip(self, T):
        back = T.invert().invert()
        assert np.allclose(back.R, T.R, atol=1e-12)
        assert np.allclose(back.t, T.t, atol=1e-12)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularRotationError):
            Transform(np.zeros((3, 3)), np.zeros(3))
        singular = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
        with pytest.raises(SingularRotationError):
            Transform(singular, np.zeros(3))


class TestCompose:
    def test_identity_is_neutral(self):
        T = random_transform(5)
        out = Transform.identity().compose(T)
        assert np.allclose(out.R, T.R) and np.allclose(out.t, T.t)

    def test_inverse_composes_to_identity(self):
        T = random_transform(6)
        out = T.compose(T.invert())
        assert np.allclose(out.R, np.eye(3), atol=1e-12)
        assert np.allclose(out.t, 0.0, atol=1e-12)

    def test_pointwise_against_sequential_apply(self):
        rng = np.random.default_rng(7)
        A, B = random_transform(8), random_transform(9)
        AB = A.compose(B)
        for x in rng.normal(size=(10, 3)):
            assert np.allclose(AB.apply(x), A.apply(B.apply(x)), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(transforms, transforms, transforms)
    def test_associativity(self, A, B, C):
        left = A.compose(B).compose(C)
        right = A.compose(B.compose(C))
        assert np.allclose(left.R, right.R, atol=1e-12)
        assert np.allclose(left.t, right.t, atol=1e-12)

    def test_matmul_operator(self):
        A, B = random_transform(12), random_transform(13)
        out = A @ B
        ref = A.compose(B)
        assert np.array_equal(out.R, ref.R) and np.array_equal(out.t, ref.t)


class TestRelative:
    def test_self_gives_identity(self):
        T = random_transform(21)
        rel = relative(T, T)
        assert np.allclose(rel.R, np.eye(3), atol=1e-12)
        assert np.allclose(rel.t, 0.0, atol=1e-12)

    def test_pure_translation(self):
        world_i = Transform.identity()
        world_j = Transform(np.eye(3), np.array([0.0, 0.0, 1.0]))
        rel = relative(world_i, world_j)
        assert np.allclose(rel.t, [0, 0, -1])

    @settings(max_examples=50, deadline=None)
    @given(transforms, transforms)
    def test_defining_property(self, world_i, world_j):
        rel = relative(world_i, world_j)
        back = world_j.compose(rel)
        assert np.allclose(back.R, world_i.R, atol=1e-12)
        assert np.allclose(back.t, world_i.t, atol=1e-12)


class TestValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            Transform(np.eye(4), np.zeros(3))
        with pytest.raises(ValueError):
            Transform(np.eye(3), np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        R = np.eye(3)
        R[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            Transform(R, np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            Transform(np.eye(3), np.array([0.0, value, 0.0]))

    def test_general_invertible_matrix_accepted(self):
        # scaled frames are legal, only singular ones are not
        T = Transform(2.0 * np.eye(3), np.zeros(3))
        assert np.allclose(T.invert().R, 0.5 * np.eye(3))


class TestRotationAboutAxis:
    def test_half_turn_about_z(self):
        R = rotation_about_axis(Z, np.pi)
        assert np.allclose(R @ [1.0, 0.0, 0.0], [-1, 0, 0], atol=1e-15)
        assert np.allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_axis_is_fixed(self):
        rng = np.random.default_rng(31)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = rotation_about_axis(axis, 1.3)
        assert np.allclose(R @ axis, axis, atol=1e-14)

    def test_trace_matches_angle(self):
        theta = 0.77
        R = rotation_about_axis(np.array([0.0, 1.0, 0.0]), theta)
        assert np.isclose(np.trace(R), 1.0 + 2.0 * np.cos(theta), atol=1e-14)

    def test_proper_rotation(self):
        R = rotation_about_axis(np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0), 2.5)
        assert orthonormality_error(R) < 1e-14
        assert np.isclose(np.linalg.det(R), 1.0, atol=1e-14)


def test_orthonormality_error_scale():
    assert orthonormality_error(np.eye(3)) == 0.0
    assert orthonormality_error(1.1 * np.eye(3)) == pytest.approx(0.21, abs=1e-12)
    stack = np.stack([np.eye(3), 1.1 * np.eye(3)])
    assert orthonormality_error(stack) == pytest.approx([0.0, 0.21], abs=1e-12)
