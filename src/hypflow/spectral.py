"""Eigenvalue machinery with two independent routes.

The production route computes all eigenvalues of a matrix with LAPACK
``geev``, the gufunc behind ``numpy.linalg.eigvals`` called through
``densemat._lapack``. The verification route goes through the
characteristic polynomial (Faddeev-LeVerrier recurrence) and a simultaneous
Aberth-Ehrlich root finder, so each path can serve as the other's oracle.
Smallest singular values are LAPACK calls through ``densemat._lapack`` as
well, taken from an SVD of the matrix itself, never from its Gram matrix
M^H M, which would square the condition number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densemat
from .densemat import _lapack, _singular_values, _umath_linalg, as_matrix
from .errors import DimensionMismatch, NonConvergence

_EPS = float(np.finfo(float).eps)


@dataclass(eq=False)
class Spectrum:
    """All d eigenvalues (with algebraic multiplicity) plus an accuracy estimate.

    ``values`` is an unordered multiset stored as a complex array; repeated
    eigenvalues appear by repetition. ``residual_bound`` is a backward-error
    style estimate of how far any value may sit from the true spectrum.
    """

    values: np.ndarray
    residual_bound: float

    @property
    def d(self) -> int:
        return len(self.values)


@dataclass(eq=False)
class CharPoly:
    """Coefficients c_0..c_d of det(A - zI) = sum c_k z^k, ascending order.

    The leading coefficient is (-1)^d by construction and c_0 equals det(A)
    up to rounding.
    """

    coeffs: np.ndarray


def eigenvalues(a) -> Spectrum:
    """All eigenvalues of a square matrix, counting algebraic multiplicity.

    LAPACK ``geev`` through ``eigenvalues_many``: balancing, Hessenberg
    reduction and shifted QR, with scaling against overflow. The residual
    bound is the backward-error estimate 10*d*eps*||A||_1. The 1-norm is
    summed over |A| scaled by an exact power of two to entries below 1, and
    the bound scaled back, so it stays finite for every finite input (a
    column sum of |A| itself can overflow); where neither the unscaled
    bound nor any scaled entry leaves the normal range, the two agree bit
    for bit.
    Raises NonConvergence if LAPACK reports that its QR iteration failed.
    """
    return _spectrum(as_matrix(a))


def _spectrum(m: np.ndarray) -> Spectrum:
    """``eigenvalues`` of a matrix ``as_matrix`` has already validated."""
    values = eigenvalues_many(m)
    mag = np.abs(m)
    e = math.frexp(float(mag.max()))[1]
    norm1 = float(np.ldexp(mag, -e).sum(axis=0).max())
    residual = math.ldexp(10.0 * m.shape[0] * _EPS * norm1, e)
    return Spectrum(values=values, residual_bound=residual)


def eigenvalues_many(mats) -> np.ndarray:
    """Eigenvalues of a (d, d) matrix, shape (d,), or of each matrix of a
    (B, d, d) stack, shape (B, d), as complex; one LAPACK ``geev`` call.

    A float64 or complex128 stack is taken as it is; any other goes
    through ``densemat._entries``, so an object array of numbers is
    answered and non-numbers are refused. Raises ValueError on a non-finite
    entry and NonConvergence if LAPACK reports that its QR iteration failed
    on any matrix of the stack.
    """
    ms = np.asarray(mats)
    if ms.ndim not in (2, 3) or ms.shape[-1] != ms.shape[-2] or ms.shape[-1] == 0:
        raise DimensionMismatch(
            f"expected a (d, d) matrix or a (B, d, d) stack, got {ms.shape}")
    if ms.dtype.char not in ("d", "D"):
        ms = densemat._entries(ms, "matrix", None)
    elif not np.isfinite(ms).all():
        raise ValueError("matrix entries must be finite")
    try:
        return _lapack(_umath_linalg.eigvals, ms)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"LAPACK eigenvalue iteration failed: {exc}") from exc


def char_poly(a) -> CharPoly:
    """Characteristic polynomial det(A - zI) by the Faddeev-LeVerrier
    recurrence. Raises ValueError where a coefficient passes the float
    range."""
    m = as_matrix(a)
    n = m.shape[0]
    q = np.zeros(n + 1)
    q[n] = 1.0
    eye = np.eye(n)
    mk = eye
    # an overflowed step leaves inf or nan in every later coefficient
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            if k > 1:
                mk = m @ mk + q[n - k + 1] * eye
            q[n - k] = -float(np.trace(m @ mk)) / k
    if not np.isfinite(q).all():
        raise ValueError(
            "characteristic polynomial coefficients pass the float range")
    sign = -1.0 if n % 2 else 1.0
    return CharPoly(coeffs=sign * q)


def _horner(coeffs: np.ndarray, z: complex) -> complex:
    v = 0.0 + 0.0j
    for c in coeffs[::-1]:
        v = v * z + c
    return v


def _horner_with_bound(coeffs: np.ndarray, z: complex):
    """Horner evaluation plus a running bound on its round-off error."""
    v = 0.0 + 0.0j
    s = 0.0
    az = abs(z)
    for c in coeffs[::-1]:
        v = v * z + c
        s = s * az + abs(c)
    return v, 2.0 * len(coeffs) * _EPS * s


def poly_roots(p) -> Spectrum:
    """All complex roots of a polynomial by Aberth-Ehrlich simultaneous iteration.

    Starts from perturbed-circle initial guesses inside a Cauchy bound and
    sweeps all roots at once; a root stops moving when its correction falls
    below 1e-12*(1+|root|) or its residual is at the round-off floor of the
    Horner evaluation (which is how multiple roots terminate).
    """
    coeffs = p.coeffs if isinstance(p, CharPoly) else np.asarray(p)
    coeffs = np.atleast_1d(np.array(coeffs, dtype=complex))
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    d = len(coeffs) - 1
    if d == 0:
        return Spectrum(values=np.zeros(0, dtype=complex), residual_bound=0.0)
    a = coeffs / coeffs[-1]
    if d == 1:
        root = -a[0]
        return Spectrum(values=np.array([root]),
                        residual_bound=4.0 * _EPS * (1.0 + abs(root)))
    deriv = a[1:] * np.arange(1, d + 1)
    center = -a[d - 1] / d
    radius = 1.0 + float(np.max(np.abs(a[:-1]))) + abs(center)
    angles = 2.0 * np.pi * (np.arange(d) + 0.5) / d + 0.4
    z = center + radius * np.exp(1j * angles)
    z = z.astype(complex)
    converged = np.zeros(d, dtype=bool)
    for _ in range(1000):
        moved = False
        for j in range(d):
            if converged[j]:
                continue
            zj = z[j]
            pv, bound = _horner_with_bound(a, zj)
            if abs(pv) <= bound:
                converged[j] = True
                continue
            dv = _horner(deriv, zj)
            if dv == 0:
                z[j] = zj + (1e-3 + 1e-3j) * (1.0 + abs(zj))
                moved = True
                continue
            newton = pv / dv
            ssum = 0.0 + 0.0j
            for k in range(d):
                if k == j:
                    continue
                diff = zj - z[k]
                if diff != 0:
                    ssum += 1.0 / diff
            denom = 1.0 - newton * ssum
            w = newton if denom == 0 else newton / denom
            z[j] = zj - w
            if abs(w) < 1e-12 * (1.0 + abs(z[j])):
                converged[j] = True
            else:
                moved = True
        if bool(np.all(converged)) or not moved:
            break
    else:
        raise NonConvergence("Aberth iteration did not settle within 1000 sweeps")
    residual = 0.0
    for j in range(d):
        pv, bound = _horner_with_bound(a, z[j])
        dv = _horner(deriv, z[j])
        est = (abs(pv) + bound) / max(abs(dv), 1e-300)
        residual = max(residual, min(est, 1.0))
    return Spectrum(values=z, residual_bound=residual)


def sigma_min(m) -> float:
    """Smallest singular value, by SVD of M itself (no Gram matrix); inf
    where it passes the float range."""
    return float(_singular_values(as_matrix(m, complex))[-1])
