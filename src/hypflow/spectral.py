"""Eigenvalue machinery with two independent routes.

The production route computes all eigenvalues of a matrix with LAPACK
``geev`` through ``numpy.linalg``. The verification route goes through the
characteristic polynomial (Faddeev-LeVerrier recurrence) and a simultaneous
Aberth-Ehrlich root finder, so each path can serve as the other's oracle.
Hermitian eigenproblems and smallest singular values are LAPACK calls through
``numpy.linalg`` as well; sigma_min is taken from an SVD of the matrix
itself, never from its Gram matrix M^H M, which would square the condition
number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densemat import _as_real_or_complex, _singular_values, as_matrix
from .errors import DimensionMismatch, NonConvergence, NotHermitian, ConjugacyViolation

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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def eigenvalues(a) -> Spectrum:
    """All eigenvalues of a square matrix, counting algebraic multiplicity.

    LAPACK ``geev`` through ``numpy.linalg.eigvals``: balancing, Hessenberg
    reduction and shifted QR, with scaling against overflow. The residual
    bound is the backward-error estimate 10*d*eps*||A||_1; the 1-norm stays
    finite for every finite input, where the Frobenius norm can overflow.
    Raises NonConvergence if LAPACK reports that its QR iteration failed.
    """
    m = _as_real_or_complex(a)
    try:
        values = np.linalg.eigvals(m).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"LAPACK eigenvalue iteration failed: {exc}") from exc
    residual = 10.0 * m.shape[0] * _EPS * float(np.linalg.norm(m, 1))
    return Spectrum(values=values, residual_bound=residual)


def char_poly(a) -> CharPoly:
    """Characteristic polynomial det(A - zI) by the Faddeev-LeVerrier recurrence."""
    m = as_matrix(a)
    n = m.shape[0]
    q = np.zeros(n + 1)
    q[n] = 1.0
    eye = np.eye(n)
    mk = eye
    for k in range(1, n + 1):
        if k > 1:
            mk = m @ mk + q[n - k + 1] * eye
        q[n - k] = -float(np.trace(m @ mk)) / k
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


def poly_from_roots(roots) -> CharPoly:
    """Expand the product of (z - root) and rescale to the (-1)^d convention.

    Roots must describe a real polynomial: non-real values are paired into
    conjugates (ConjugacyViolation if that fails) and each pair is expanded
    as an exactly real quadratic factor.
    """
    if isinstance(roots, Spectrum):
        vals = np.asarray(roots.values, dtype=complex)
        pair_tol = max(10.0 * roots.residual_bound, 1e-8)
    else:
        vals = np.atleast_1d(np.asarray(roots, dtype=complex))
        pair_tol = 1e-8
    d = len(vals)
    if d == 0:
        raise ValueError("need at least one root")
    real_parts = []
    ups = []
    downs = []
    for v in vals:
        if abs(v.imag) <= pair_tol * (1.0 + abs(v)):
            real_parts.append(v.real)
        elif v.imag > 0:
            ups.append(v)
        else:
            downs.append(v)
    if len(ups) != len(downs):
        raise ConjugacyViolation(
            f"{len(ups)} roots above the real axis vs {len(downs)} below"
        )
    ups.sort(key=lambda v: (v.real, v.imag))
    downs.sort(key=lambda v: (v.real, -v.imag))
    poly = np.array([1.0])
    for up, down in zip(ups, downs):
        if abs(up - down.conjugate()) > pair_tol * (1.0 + abs(up)):
            raise ConjugacyViolation(
                f"roots {up} and {down} do not pair into conjugates"
            )
        re = 0.5 * (up.real + down.real)
        im = 0.5 * (up.imag - down.imag)
        poly = np.convolve(poly, np.array([re * re + im * im, -2.0 * re, 1.0]))
    for r in real_parts:
        poly = np.convolve(poly, np.array([-r, 1.0]))
    sign = -1.0 if d % 2 else 1.0
    return CharPoly(coeffs=sign * poly)


def _hermitian(m) -> np.ndarray:
    """Validated Hermitian matrix, symmetrized; NotHermitian beyond 1e-12."""
    a = _as_real_or_complex(m)
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.conj().T))) > 1e-12 * scale:
        raise NotHermitian("matrix is not Hermitian within 1e-12")
    return 0.5 * (a + a.conj().T)


def hermitian_eigs(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending (LAPACK eigvalsh)."""
    return np.linalg.eigvalsh(_hermitian(m))


def hermitian_eig_vectors(m):
    """Ascending eigenvalues and orthonormal eigenvector columns (LAPACK eigh)."""
    return np.linalg.eigh(_hermitian(m))


def sigma_min(m) -> float:
    """Smallest singular value, by SVD of M itself (no Gram matrix)."""
    return float(sigma_min_many(as_matrix(m, complex)[None])[0])


def sigma_min_many(mats) -> np.ndarray:
    """sigma_min for a stack of matrices (B, d, d), by one batched LAPACK SVD.

    The SVD works on each M directly, so a singular value near eps*||M||
    keeps its accuracy instead of being squared away as in M^H M.
    """
    ms = np.asarray(mats)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2] or ms.shape[1] == 0:
        raise DimensionMismatch(f"expected a (B, d, d) stack, got {ms.shape}")
    return _singular_values(ms)[:, -1]
