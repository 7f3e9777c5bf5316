"""Rotation rules and the rotation builders: hand cases, closed forms and a scipy oracle."""
import warnings

import numpy as np
import pytest

from skelfit.rigid import (
    DET_RTOL,
    is_non_finite,
    is_singular,
    orthonormality_error,
    quaternion_matrix,
    rotation_about_axis,
)

Z = np.array([0.0, 0.0, 1.0])


class TestValidation:
    """Each rule takes one matrix or a stack and answers per frame."""

    def test_singular_matrix_rejected(self):
        zeros = np.zeros((3, 3))
        rank_one = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
        assert is_singular(zeros)
        assert is_singular(rank_one)
        stack = np.stack([np.eye(3), zeros, rank_one])
        assert is_singular(stack).tolist() == [False, True, True]

    def test_general_invertible_matrix_accepted(self):
        # scaled frames are legal, only singular ones are not
        assert not is_singular(2.0 * np.eye(3))
        stack = np.stack([2.0 * np.eye(3), np.eye(3), rotation_about_axis(Z, 0.3)])
        assert is_singular(stack).tolist() == [False, False, False]

    @pytest.mark.parametrize("scale", [1e-120, 1e110, 1e160])
    def test_far_scaled_identity_is_not_singular(self, scale):
        # det and the norm of these frames over- or underflow unless rescaled
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_singular(scale * np.eye(3))
            stack = np.stack([scale * np.eye(3), np.eye(3), np.zeros((3, 3))])
            assert is_singular(stack).tolist() == [False, False, True]

    def test_huge_entry_stays_singular_under_the_rule(self):
        # |det| = 1e200 is far below DET_RTOL * ||R||_F^3 = 1e588
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_singular(np.diag([1e200, 1.0, 1.0]))

    def test_rescaling_keeps_every_unscaled_decision(self):
        # scaling by a power of two is exact, so frames whose unscaled det and
        # norm do not over- or underflow get the decision of the plain formula
        rng = np.random.default_rng(12)
        k = 4000
        u, _, vt = np.linalg.svd(rng.normal(size=(k, 3, 3)))
        smallest = DET_RTOL * 10.0 ** rng.uniform(-1.0, 1.0, size=k)
        spectrum = np.stack([np.ones(k), rng.uniform(0.5, 1.0, size=k), smallest], axis=1)
        R = (u * spectrum[:, None, :]) @ vt
        R *= np.exp2(rng.integers(-60, 60, size=k))[:, None, None]
        plain = np.abs(np.linalg.det(R)) <= DET_RTOL * np.sqrt((R**2).sum(axis=(1, 2))) ** 3
        assert 0 < plain.sum() < k
        assert np.array_equal(is_singular(R), plain)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        R = np.eye(3)
        R[1, 2] = value
        assert is_non_finite(R, np.zeros(3))
        assert is_non_finite(np.eye(3), np.array([0.0, value, 0.0]))
        assert not is_non_finite(np.eye(3), np.zeros(3))
        Rs = np.tile(np.eye(3), (3, 1, 1))
        ts = np.zeros((3, 3))
        Rs[1, 1, 2] = value
        ts[2, 1] = value
        assert is_non_finite(Rs, ts).tolist() == [False, True, True]


def one_and_stacked(axis, angle) -> list:
    """The turn from a one-matrix call, then each frame of one stacked call
    (the axis at unit and at triple length, so a stack need not be unit)."""
    axes = np.stack([axis, 3.0 * np.asarray(axis)])
    return [rotation_about_axis(axis, angle), *rotation_about_axis(axes, np.full(2, angle))]


class TestRotationAboutAxis:
    def test_half_turn_about_z(self):
        for R in one_and_stacked(Z, np.pi):
            assert np.allclose(R @ [1.0, 0.0, 0.0], [-1, 0, 0], atol=1e-15)
            assert np.allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_axis_is_fixed(self):
        rng = np.random.default_rng(31)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        for R in one_and_stacked(axis, 1.3):
            assert np.allclose(R @ axis, axis, atol=1e-14)

    def test_trace_matches_angle(self):
        theta = 0.77
        for R in one_and_stacked(np.array([0.0, 1.0, 0.0]), theta):
            assert np.isclose(np.trace(R), 1.0 + 2.0 * np.cos(theta), atol=1e-14)

    def test_proper_rotation(self):
        for R in one_and_stacked(np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0), 2.5):
            assert orthonormality_error(R) < 1e-14
            assert np.isclose(np.linalg.det(R), 1.0, atol=1e-14)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rotation_about_axis(np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="nonzero"):
            rotation_about_axis(np.stack([Z, np.zeros(3)]), np.array([0.5, 0.5]))


EPS = np.finfo(np.float64).eps
ORACLE_N = 100_000


class TestScipyOracle:
    """quaternion_matrix and the stacked rotation_about_axis against scipy's
    Rotation on 10^5 random inputs per family.  The bounds:
    every entry within 8 eps of scipy's, the worst orthonormality_error of a
    family within 4 eps of scipy's worst, and det > 0 everywhere."""

    def check(self, mine, ref):
        assert np.abs(mine - ref).max() <= 8 * EPS
        assert orthonormality_error(mine).max() <= orthonormality_error(ref).max() + 4 * EPS
        assert (np.linalg.det(mine) > 0).all()

    def test_haar_quaternions(self):
        Rotation = pytest.importorskip("scipy.spatial.transform").Rotation
        q = np.random.default_rng(41).normal(size=(ORACLE_N, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        self.check(quaternion_matrix(q), Rotation.from_quat(q).as_matrix())

    @pytest.mark.parametrize(
        "lo, hi", [(-np.pi, np.pi), (0.0, 1e-3), (0.0, 1e-8)], ids=["full", "small", "tiny"]
    )
    def test_axis_angle(self, lo, hi):
        Rotation = pytest.importorskip("scipy.spatial.transform").Rotation
        rng = np.random.default_rng(42)
        axes = rng.normal(size=(ORACLE_N, 3))
        angles = rng.uniform(lo, hi, size=ORACLE_N)
        unit = axes / np.linalg.norm(axes, axis=1, keepdims=True)
        ref = Rotation.from_rotvec(unit * angles[:, None]).as_matrix()
        self.check(rotation_about_axis(axes, angles), ref)


def test_orthonormality_error_scale():
    assert orthonormality_error(np.eye(3)) == 0.0
    assert orthonormality_error(1.1 * np.eye(3)) == pytest.approx(0.21, abs=1e-12)
    stack = np.stack([np.eye(3), 1.1 * np.eye(3)])
    assert orthonormality_error(stack) == pytest.approx([0.0, 0.21], abs=1e-12)
