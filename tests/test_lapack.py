"""The package's LAPACK calls against numpy.linalg's routines as the oracle.

Each gufunc of numpy.linalg._umath_linalg that densemat._lapack runs, and
each site that calls one, gives numpy.linalg's values bit for bit (compared
as bytes, so that signed zeros and nan payloads count) and raises its
LinAlgError where numpy.linalg does.
"""

import numpy as np
import pytest

from hypflow import densemat, robustness, spectral
from hypflow.densemat import _lapack, _umath_linalg

from conftest import FLOAT_RANGE_EDGES


def _corpus() -> dict:
    """Seeded (B, d, d) stacks for d = 1..8: Gaussian, zero, diagonal,
    upper and lower triangular, real spectra (symmetric and not), Jordan
    blocks and a nilpotent shift, plus the float-range edges of size d."""
    rng = np.random.default_rng(25)
    stacks = {}
    for d in range(1, 9):
        g = rng.standard_normal((d, d))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        t = rng.standard_normal((d, d)) + d * np.eye(d)
        real = rng.uniform(-2.0, 2.0, d)
        mats = [g, np.zeros((d, d)), np.diag(rng.standard_normal(d)),
                np.triu(g), np.tril(g), q @ np.diag(real) @ q.T,
                t @ np.diag(real) @ np.linalg.inv(t),
                0.5 * np.eye(d) + np.eye(d, k=1), np.eye(d, k=1)]
        mats += [np.array(m) for m in FLOAT_RANGE_EDGES.values()
                 if len(m) == d]
        stacks[d] = np.stack(mats)
    return stacks


CORPUS = _corpus()


def _outcome(call, *args):
    """The bytes of each output of ``call(*args)``, or the message of the
    LinAlgError it raises."""
    try:
        with np.errstate(all="ignore"):  # det and slogdet leave it to us
            out = call(*args)
    except np.linalg.LinAlgError as exc:
        return "LinAlgError", str(exc)
    return tuple(np.asarray(o).tobytes()
                 for o in (out if isinstance(out, tuple) else (out,)))


def _qr(a):
    """Q and R of the stack ``a`` from the two gufuncs numpy.linalg.qr
    runs; R is the upper triangle qr_r_raw leaves in its input."""
    a = a.copy()
    tau = _lapack(_umath_linalg.qr_r_raw, a)
    return _lapack(_umath_linalg.qr_reduced, a, tau), np.triu(a)


# each gufunc run through densemat._lapack, beside the numpy.linalg routine
# that wraps it, both on a float64 stack
GUFUNCS = {
    # numpy.linalg.eigvals returns float64 where every value is real
    "eigvals": (lambda a: _lapack(_umath_linalg.eigvals, a),
                lambda a: np.linalg.eigvals(a).astype(complex)),
    "eigvals_complex": (
        lambda a: _lapack(_umath_linalg.eigvals, a * (1 + 0.5j)),
        lambda a: np.linalg.eigvals(a * (1 + 0.5j))),
    "svd": (lambda a: _lapack(_umath_linalg.svd, a.astype(complex)),
            lambda a: np.linalg.svd(a.astype(complex), compute_uv=False)),
    "svd_f": (lambda a: _lapack(_umath_linalg.svd_f, a), np.linalg.svd),
    "det": (lambda a: _lapack(_umath_linalg.det, a), np.linalg.det),
    "slogdet": (lambda a: _lapack(_umath_linalg.slogdet, a),
                np.linalg.slogdet),
    "inv": (lambda a: _lapack(_umath_linalg.inv, a), np.linalg.inv),
    "solve": (lambda a: _lapack(_umath_linalg.solve, a, a[..., ::-1] + 1.0),
              lambda a: np.linalg.solve(a, a[..., ::-1] + 1.0)),
    "qr": (_qr, np.linalg.qr),
}


@pytest.mark.parametrize("d", CORPUS)
@pytest.mark.parametrize("name", GUFUNCS)
def test_gufunc_is_numpy_routine_bit_for_bit(name, d):
    ours, numpys = GUFUNCS[name]
    stack = CORPUS[d]
    assert _outcome(ours, stack) == _outcome(numpys, stack)
    for m in stack:
        assert _outcome(ours, m) == _outcome(numpys, m)


@pytest.mark.parametrize("d", CORPUS)
def test_sites_are_numpy_routines_bit_for_bit(d):
    stack = CORPUS[d]
    eigs = np.linalg.eigvals(stack).astype(complex)
    assert spectral.eigenvalues_many(stack).tobytes() == eigs.tobytes()
    svals = np.linalg.svd(stack.astype(complex), compute_uv=False)
    # a row of nan is LAPACK's on an entry past the float range, which
    # _singular_values answers by scaling
    clean = ~np.isnan(svals).any(axis=1)
    got = densemat._singular_values(stack)
    assert got[clean].tobytes() == svals[clean].tobytes()
    for m in stack:
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.linalg.det(m))
        if np.isfinite(want):
            assert np.float64(densemat.det(m)).tobytes() == \
                np.float64(want).tobytes()
        else:
            with pytest.raises(ValueError, match="passes the float range"):
                densemat.det(m)

    class Draw:
        def standard_normal(self, shape):
            assert shape == stack.shape
            return stack.copy()

    q, r = np.linalg.qr(stack)
    signs = np.where(np.diagonal(r, axis1=1, axis2=2) < 0, -1.0, 1.0)
    got = robustness._random_orthogonal(Draw(), len(stack), d)
    assert got.tobytes() == (q * signs[:, None]).tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.bool_])
def test_integer_and_bool_stacks_keep_numpys_values(dtype):
    stack = np.random.default_rng(5).integers(-3, 4, (6, 4, 4)).astype(dtype)
    want = np.linalg.eigvals(stack).astype(complex)
    assert spectral.eigenvalues_many(stack).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.complex64])
def test_single_precision_stacks_keep_double_values(dtype):
    # numpy.linalg.eigvals solved a float32 or complex64 stack in double
    # precision and rounded its values to single; eigenvalues_many takes
    # the stack as float64 or complex128 and keeps the double values
    stack = np.random.default_rng(6).standard_normal((6, 4, 4)).astype(dtype)
    got = spectral.eigenvalues_many(stack)
    wide = stack.astype(np.result_type(stack, np.float64))
    assert got.tobytes() == spectral.eigenvalues_many(wide).tobytes()
    before = np.linalg.eigvals(stack).astype(complex)
    assert np.array_equal(before, got.astype(np.complex64))
    assert not np.array_equal(before, got)
