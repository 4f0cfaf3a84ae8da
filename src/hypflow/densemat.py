"""Dense square matrix arithmetic: validation, determinants, norms, shifts.

Matrices are plain numpy arrays; ``as_matrix`` validates them once at the API
boundary so downstream code can assume square shape and finite entries. The
determinant, linear solve and operator norm are LAPACK calls through
``numpy.linalg``. All distances and perturbation sizes in this package are
measured in the operator 2-norm (largest singular value).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


def as_matrix(a, dtype=float) -> np.ndarray:
    """Validate and return a square matrix as an array copy of ``dtype``."""
    m = np.array(a, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _as_real_or_complex(a) -> np.ndarray:
    """``as_matrix`` as complex128 for complex input, float64 otherwise."""
    m = np.asarray(a)
    return as_matrix(m, complex if np.iscomplexobj(m) else float)


def _singular_values(ms) -> np.ndarray:
    """Descending singular values of a matrix or a (B, d, d) stack (LAPACK SVD).

    The SVD is complex even for real input, so that ``op_norm2`` and
    ``spectral.sigma_min_many`` share one LAPACK routine: loading the real
    one as well costs about 0.5 MB of resident memory.
    """
    return np.linalg.svd(np.asarray(ms, dtype=complex), compute_uv=False)


def det(a) -> float | complex:
    """Determinant by LU with partial pivoting (LAPACK getrf).

    Real input returns a float, complex input a complex number. Singular
    matrices return 0 up to rounding.
    """
    m = _as_real_or_complex(a)
    d = np.linalg.det(m)
    return complex(d) if np.iscomplexobj(m) else float(d)


def solve(a, b) -> np.ndarray:
    """Solve a x = b by LU with partial pivoting (b: vector or matrix)."""
    m = _as_real_or_complex(a)
    rhs = np.array(b, dtype=m.dtype)
    if rhs.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"rhs has {rhs.shape[0]} rows, matrix is {m.shape[0]}x{m.shape[0]}"
        )
    return np.linalg.solve(m, rhs)


def op_norm2(a) -> float:
    """Operator 2-norm: the largest singular value of A, by LAPACK SVD."""
    return float(_singular_values(as_matrix(a, complex))[0])


def shift(a, eps: float) -> np.ndarray:
    """Return A + eps*I."""
    m = as_matrix(a)
    return m + eps * np.eye(m.shape[0])
