import warnings

import numpy as np
import pytest

from hypflow import densemat, spectral
from hypflow.errors import DimensionMismatch


def test_det_identity():
    assert densemat.det(np.eye(3)) == pytest.approx(1.0)


def test_det_2x2_formula():
    assert densemat.det([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0)


def test_det_diagonal_product():
    assert densemat.det(np.diag([-1.0, 2.0, 5.0])) == pytest.approx(-10.0)


def test_det_singular_is_zero():
    assert densemat.det(np.ones((3, 3))) == pytest.approx(0.0, abs=1e-12)


def test_det_complex_input():
    with pytest.raises(ValueError, match="entries must be real"):
        densemat.det(np.array([[1j, 0], [0, 2.0]]))


def test_as_matrix_real_unless_complex_asked_for():
    for a in (np.array([[1.0, 1j], [0.0, 1.0]]), [[1.0, 1j], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="entries must be real"):
            densemat.as_matrix(a)
        np.testing.assert_array_equal(densemat.as_matrix(a, complex), a)
    assert densemat.as_matrix([[1, 2], [3, 4]]).dtype == np.float64


def test_det_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        densemat.det(np.ones((2, 3)))


def test_det_rejects_nonfinite():
    with pytest.raises(ValueError):
        densemat.det([[np.nan, 0.0], [0.0, 1.0]])


def test_det_multiplicative(rng):
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        lhs = densemat.det(a @ b)
        rhs = densemat.det(a) * densemat.det(b)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_det_shift_matches_char_poly(rng):
    # det(A + eps*I) equals the characteristic polynomial at -eps
    for _ in range(25):
        d = int(rng.integers(2, 7))
        a = rng.standard_normal((d, d))
        eps = float(rng.uniform(-2.0, 2.0))
        p = spectral.char_poly(a).coeffs
        value = sum(c * (-eps) ** k for k, c in enumerate(p))
        target = densemat.det(a + eps * np.eye(d))
        assert abs(value - target) <= 1e-8 * (1.0 + abs(target))


def test_op_norm2_identity():
    assert densemat.op_norm2(np.eye(4)) == pytest.approx(1.0)


def test_op_norm2_normal_matrix():
    assert densemat.op_norm2(np.diag([3.0, -7.0])) == pytest.approx(7.0)


def test_op_norm2_rank_one():
    assert densemat.op_norm2([[0.0, 5.0], [0.0, 0.0]]) == pytest.approx(5.0)


def test_op_norm2_zero():
    assert densemat.op_norm2(np.zeros((3, 3))) == 0.0


def test_op_norm2_scaling(rng):
    for _ in range(20):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((d, d))
        c = float(rng.uniform(-5.0, 5.0))
        assert densemat.op_norm2(c * a) == pytest.approx(
            abs(c) * densemat.op_norm2(a), rel=1e-10, abs=1e-12)


def test_op_norm2_accuracy_vs_svd(rng):
    for _ in range(20):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d))
        ref = float(np.linalg.svd(a, compute_uv=False)[0])
        assert densemat.op_norm2(a) == pytest.approx(ref, rel=1e-10)


def test_op_norm2_modulus_beyond_float_range():
    # LAPACK's SVD gave nan, with no warning, for an entry whose modulus
    # passes the float range though both of its parts are finite; a real
    # matrix whose norm overflows gives inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert densemat.op_norm2(np.array([[1.7e308 + 1.7e308j]])) == np.inf
        assert densemat.op_norm2([[1.3e308 + 1.3e308j, 0.0], [0.0, 1.0]]) == np.inf
        assert densemat.op_norm2([[1.7e308] * 2] * 2) == np.inf
