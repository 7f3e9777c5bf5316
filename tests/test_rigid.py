"""Rotation rules and the rotation builders: hand cases, closed forms, and oracles
against numpy's LAPACK det and inverse and against scipy's Rotation."""
import warnings

import numpy as np
import pytest

from skelfit import rigid
from skelfit.rigid import (
    DET_RTOL,
    FRAME_CHUNK,
    cofactors,
    is_non_finite,
    is_singular,
    orthonormality_error,
    quaternion_matrix,
    rotation_about_axis,
    scale_frames,
)

from conftest import cofactor_families, haar_rotations

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


    def test_one_matrix_and_stacks_of_any_leading_shape(self):
        # the checks run over blocks of FRAME_CHUNK frames of the flattened
        # leading axes; each answer keeps the input's leading shape
        rng = np.random.default_rng(13)
        R = haar_rotations(rng, 3 * 700).reshape(3, 700, 3, 3)
        t = rng.normal(size=(3, 700, 3))
        R[0, 5] = 0.0
        R[1, 323, 1] = R[1, 323, 0]  # frame 1023 of the flattened stack
        R[2, 699, 2, 2] = np.nan
        t[1, 324, 0] = -np.inf  # frame 1024
        bad = is_non_finite(R, t)
        assert bad.shape == (3, 700)
        assert [tuple(k) for k in np.argwhere(bad)] == [(1, 324), (2, 699)]
        singular = is_singular(np.where(bad[..., None, None], np.eye(3), R))
        assert singular.shape == (3, 700)
        assert [tuple(k) for k in np.argwhere(singular)] == [(0, 5), (1, 323)]
        for k in np.ndindex(3, 700):
            assert is_non_finite(R[k], t[k]) == bad[k]
            if not bad[k]:
                assert is_singular(R[k]) == singular[k]
        assert is_singular(R[0, 5]).shape == is_non_finite(R[0, 5], t[0, 5]).shape == ()
        assert is_singular(R[:0]).shape == is_non_finite(R[:0], t[:0]).shape == (0, 700)

    def test_every_frame_checked_once_in_small_blocks(self, monkeypatch):
        seen = []
        real = rigid.scale_frames

        def recording(R):
            seen.append(len(R))
            return real(R)

        monkeypatch.setattr(rigid, "scale_frames", recording)
        R = np.tile(np.eye(3), (2 * FRAME_CHUNK + 5, 1, 1))
        assert not is_singular(R).any()
        assert seen == [FRAME_CHUNK, FRAME_CHUNK, 5]


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


def frobenius(R: np.ndarray) -> np.ndarray:
    return np.sqrt((R**2).sum(axis=(-2, -1)))


def lu_singular(R: np.ndarray) -> np.ndarray:
    """is_singular's rule with numpy's LU det on the unscaled frames."""
    return np.abs(np.linalg.det(R)) <= DET_RTOL * frobenius(R) ** 3


FAMILIES = cofactor_families(np.random.default_rng(51), 20_000)


@pytest.mark.filterwarnings("error")
class TestCofactorsOracle:
    """cofactors against numpy's LAPACK det and inverse, and is_singular's
    decisions against the LU-det rule, on the families of
    conftest.cofactor_families (2 * 10^4 frames each)."""

    def test_one_matrix_and_a_stack(self):
        X = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 1.0]])
        cof, det = cofactors(X)
        assert det == 7.0
        assert np.array_equal(cof.T / det @ X, np.eye(3))
        stack_cof, stack_det = cofactors(np.stack([X, np.eye(3)]))
        assert np.array_equal(stack_cof[0], cof) and np.array_equal(stack_det, [7.0, 1.0])

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_det_matches_lapack(self, family):
        # np.linalg.det returns sign * exp(log|det|), so its own error grows
        # with |log|det||: about 20 eps ||R||_F^3 on the 2^60 stacks.  The
        # bound adds that term; the cofactor det measured at most 0.39 eps ||R||_F^3
        # against it beyond the term.
        R = FAMILIES[family]
        ref = np.linalg.det(R)
        _, det = cofactors(R)
        bound = 2 * EPS * (frobenius(R) ** 3 + np.abs(np.log(np.abs(ref)) * ref))
        assert (np.abs(det - ref) <= bound).all()

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_inverse_matches_lapack(self, family):
        # measured at most 2.7 cond eps max|inv| per frame
        R = FAMILIES[family]
        ref = np.linalg.inv(R)
        cof, det = cofactors(R)
        inv = np.swapaxes(cof, -1, -2) / det[:, None, None]
        bound = 8 * np.linalg.cond(R) * EPS * np.abs(ref).max(axis=(-2, -1))
        assert (np.abs(inv - ref).max(axis=(-2, -1)) <= bound).all()

    def test_singular_decisions_match_the_lu_rule_outside_a_band(self):
        # The two dets of a frame lie within 0.39 eps ||R||_F^3 of each other
        # (test_det_matches_lapack), so near the threshold they differ by less
        # than a relative eps / DET_RTOL (2.2e-4) of DET_RTOL ||R||_F^3, and
        # decisions may differ only in that band.  The frames here sit within
        # a relative 0.7% of the threshold, scaled by up to 2^+-60: with seed
        # 52, 6430 of 200 000 fall in the band and 84 of those differ, the
        # furthest at 2.5e-5 from the threshold.
        rng = np.random.default_rng(52)
        k = 200_000
        middle = rng.uniform(0.5, 1.0, k)
        ratio = 10.0 ** rng.uniform(-0.003, 0.003, k)
        smallest = DET_RTOL * (1.0 + middle**2) ** 1.5 / middle * ratio
        spectrum = np.stack([np.ones(k), middle, smallest], axis=1)
        R = (haar_rotations(rng, k) * spectrum[:, None, :]) @ haar_rotations(rng, k)
        R = np.ldexp(R, rng.integers(-60, 60, size=k)[:, None, None])
        ref_ratio = np.abs(np.linalg.det(R)) / (DET_RTOL * frobenius(R) ** 3)
        in_band = np.abs(ref_ratio - 1.0) <= EPS / DET_RTOL
        differ = is_singular(R) != lu_singular(R)
        assert not differ[~in_band].any()
        assert 0 < differ.sum() <= in_band.sum() < k // 20
        for family, R in FAMILIES.items():
            assert np.array_equal(is_singular(R), lu_singular(R)), family


def scale_stacks() -> dict[str, np.ndarray]:
    """Haar rotations, the same scaled by 2^+-1000, frames whose entries
    spread over 2^+-40 (so any entry may hold the largest exponent), a stack
    mixing zero, subnormal, inf, NaN and -0 frames among rotations, and
    single matrices."""
    rng = np.random.default_rng(61)
    Q = haar_rotations(rng, 5000)
    mixed = Q.copy()
    mixed[::7] = 0.0
    mixed[1::7, 1, 2] = 5e-324  # one subnormal entry among normal ones
    mixed[2::7] = np.ldexp(Q[2::7], -1070)  # every entry subnormal or zero
    mixed[3::7, 0, 0] = np.inf
    mixed[4::7, 2, 1] = -np.inf
    mixed[5::7, 1, 1] = np.nan
    mixed[6::7] = -0.0
    return {
        "haar": Q,
        "scaled 2^1000": np.ldexp(Q, 1000),
        "scaled 2^-1000": np.ldexp(Q, -1000),
        "spread entries": np.ldexp(rng.normal(size=Q.shape), rng.integers(-40, 40, Q.shape)),
        "mixed": mixed,
        "one matrix": Q[0],
        "one zero matrix": np.zeros((3, 3)),
    }


SCALE_STACKS = scale_stacks()


@pytest.mark.filterwarnings("error")
class TestScaleFramesOracle:
    """scale_frames (an np.maximum chain over the nine entries) against the
    np.frexp(np.abs(R).max(axis=(-2, -1))) form: equal exponents, and scaled
    frames equal bit for bit."""

    @pytest.mark.parametrize("name", list(SCALE_STACKS))
    def test_matches_the_reduction_form(self, name):
        R = SCALE_STACKS[name]
        X, exp = scale_frames(R)
        _, ref_exp = np.frexp(np.abs(R).max(axis=(-2, -1)))
        ref_X = np.ldexp(R, -ref_exp[..., None, None])
        assert np.shape(exp) == np.shape(ref_exp) and np.array_equal(exp, ref_exp)
        assert X.shape == R.shape and X.tobytes() == ref_X.tobytes()

    @pytest.mark.parametrize("name", ["haar", "scaled 2^1000", "scaled 2^-1000"])
    def test_scaled_frames_lie_in_half_to_one(self, name):
        R = SCALE_STACKS[name]
        X, exp = scale_frames(R)
        top = np.abs(X).max(axis=(-2, -1))
        assert ((0.5 <= top) & (top < 1.0)).all()
        assert np.array_equal(np.ldexp(X, exp[:, None, None]), R)


def test_orthonormality_error_scale():
    assert orthonormality_error(np.eye(3)) == 0.0
    assert orthonormality_error(1.1 * np.eye(3)) == pytest.approx(0.21, abs=1e-12)
    stack = np.stack([np.eye(3), 1.1 * np.eye(3)])
    assert orthonormality_error(stack) == pytest.approx([0.0, 0.21], abs=1e-12)
