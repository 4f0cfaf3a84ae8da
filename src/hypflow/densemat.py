"""Dense square matrix arithmetic: validation, determinants, norms.

Matrices are plain numpy arrays; ``as_matrix`` validates them once at the API
boundary so downstream code can assume square shape and real, finite entries.
Every LAPACK call of the package goes through ``_lapack``: it runs one of the
gufuncs in ``numpy.linalg._umath_linalg`` as the ``numpy.linalg`` routine
that wraps it would, without that routine's second validation. The
determinant and operator norm are such calls. All distances and
perturbation sizes in this package are measured in the operator 2-norm
(largest singular value).
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionMismatch


# The loop numpy.linalg runs for each gufunc the package calls, by the dtype
# of the first argument: float64 ("d") or complex128 ("D").
_LOOPS = {
    ("eigvals", "d"): "d->D", ("eigvals", "D"): "D->D",
    ("svd", "D"): "D->d", ("svd_f", "d"): "d->ddd",
    ("qr_r_raw", "d"): "d->d", ("qr_reduced", "d"): "dd->d",
    ("det", "d"): "d->d", ("slogdet", "d"): "d->dd",
    ("solve", "d"): "dd->d", ("inv", "d"): "d->d",
}
_QR_FAILED = "Incorrect argument found while performing QR factorization"
# numpy.linalg's message for each gufunc that reports a LAPACK failure, by
# a nan output and the invalid flag; det and slogdet report none
_FAILURES = {
    "eigvals": "Eigenvalues did not converge",
    "svd": "SVD did not converge", "svd_f": "SVD did not converge",
    "qr_r_raw": _QR_FAILED, "qr_reduced": _QR_FAILED,
    "solve": "Singular matrix", "inv": "Singular matrix",
}


def _lapack(gufunc, *args):
    """``gufunc(*args)`` for a gufunc of ``numpy.linalg._umath_linalg``, as
    the numpy.linalg routine that wraps it calls it: on the same loop of
    float64 or complex128 arrays, so every value keeps its bits, and under
    the same errstate, which ignores over, divide and under and raises a
    LAPACK failure as LinAlgError with numpy's message. det and slogdet run
    under the caller's errstate, as in numpy.linalg. The caller validates
    the arrays: shape, dtype and finiteness are not checked here.
    """
    name = gufunc.__name__
    signature = _LOOPS[name, args[0].dtype.char]
    message = _FAILURES.get(name)
    if message is None:
        return gufunc(*args, signature=signature)

    def fail(err, flag):
        raise LinAlgError(message)

    with np.errstate(call=fail, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return gufunc(*args, signature=signature)


def _entries(a, what: str, dtype=float) -> np.ndarray:
    """``a`` as an array copy of ``dtype`` with finite entries; a float
    ``dtype`` also refuses complex ones, and ``dtype=None`` takes complex
    for complex entries and float for the others. Strings, None and other
    non-numbers are refused, in an object array too. The ValueError names
    ``what``."""
    x = np.asarray(a)
    if x.dtype.kind not in "biufc":
        if x.dtype.kind != "O" or not all(
                isinstance(v, (numbers.Number, np.bool_)) for v in x.flat):
            raise ValueError(f"{what} entries must be numbers")
        # an object array of numbers takes the dtype its entries infer, so
        # that a complex entry meets the real check below
        x = np.array(x.tolist())
    if dtype is None:
        dtype = complex if x.dtype.kind == "c" else float
    elif dtype is float and x.dtype.kind == "c":
        raise ValueError(f"{what} entries must be real")
    try:
        x = np.array(x, dtype=dtype)
    except OverflowError:  # a Python integer past the float range
        raise ValueError(f"{what} entries must be finite") from None
    if not np.isfinite(x).all():
        raise ValueError(f"{what} entries must be finite")
    return x


def _count(value, name: str, least: int) -> int:
    """``value`` as a Python int, refused unless an integer >= ``least``.
    The ValueError names ``name``."""
    if type(value) is int and value >= least:
        return value
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a Python float, refused unless a real number: strings,
    bytes, None and complex values raise a ValueError that names ``name``.
    A number past the float range becomes inf of its sign, for the caller's
    range check to refuse."""
    if type(value) is float:  # the common case, ahead of the slower ABC test
        return value
    if not isinstance(value, (numbers.Real, np.bool_)):
        raise ValueError(f"{name} must be a real number")
    try:
        return float(value)
    except OverflowError:  # a Python integer or Fraction
        return math.inf if value > 0 else -math.inf


def as_matrix(a, dtype=float) -> np.ndarray:
    """Validate and return a square matrix as an array copy of ``dtype``.

    The default real matrix refuses complex entries; ``dtype=complex`` takes
    both, for the shifted matrices A - i*omega*I that singular values need.
    """
    m = _entries(a, "matrix", dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _scale_exponent(m) -> int:
    """The e for which 2**-e takes every real and imaginary part of the
    finite, nonzero array ``m`` below 1."""
    m = np.asarray(m)
    return math.frexp(float(max(np.abs(m.real).max(), np.abs(m.imag).max())))[1]


def _singular_values(ms) -> np.ndarray:
    """Descending singular values of a matrix or a (B, d, d) stack (LAPACK SVD).

    The package's one SVD path. It is complex even for real input, so that
    every caller shares one LAPACK routine: loading the real one as well
    costs about 0.5 MB of resident memory. LAPACK gives nan for
    a finite matrix with an entry whose modulus passes the float range;
    that matrix's values are those of 2**-e M (``_scale_exponent``) scaled
    back by 2**e, inf where they pass the range. Every other matrix keeps
    LAPACK's values.
    """
    ms = np.asarray(ms, dtype=complex)
    s = _lapack(_umath_linalg.svd, ms)
    if np.isnan(s).any():
        rows, mats = s.reshape(-1, s.shape[-1]), ms.reshape(-1, *ms.shape[-2:])
        # a matrix with a non-finite entry keeps LAPACK's nan
        bad = np.isnan(rows).any(axis=1) & np.isfinite(mats).all(axis=(1, 2))
        for i in np.flatnonzero(bad):
            e = _scale_exponent(mats[i])
            with np.errstate(over="ignore"):
                rows[i] = np.ldexp(_singular_values(mats[i] * 2.0 ** -e), e)
    return s


def det(a) -> float:
    """Determinant by LU with partial pivoting (LAPACK getrf); singular
    matrices return 0 up to rounding. Raises ValueError where it passes the
    float range."""
    return _det(as_matrix(a))


def _det(m: np.ndarray) -> float:
    """``det`` of a matrix ``as_matrix`` has already validated."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(_lapack(_umath_linalg.det, m))
    if not math.isfinite(value):
        raise ValueError("determinant passes the float range")
    return value


def op_norm2(a) -> float:
    """Operator 2-norm: the largest singular value of A, by LAPACK SVD;
    inf where it passes the float range."""
    return float(_singular_values(as_matrix(a, complex))[0])
