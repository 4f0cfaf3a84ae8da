"""Eigenvalue machinery with two independent routes.

The production route computes all eigenvalues of a real matrix by balancing,
Householder reduction to Hessenberg form, and shifted QR iteration with
deflation. The verification route goes through the characteristic polynomial
(Faddeev-LeVerrier recurrence) and a simultaneous Aberth-Ehrlich root finder,
so each path can serve as the other's oracle. Hermitian eigenproblems and
smallest singular values are LAPACK calls through ``numpy.linalg``; sigma_min
is taken from an SVD of the matrix itself, never from its Gram matrix M^H M,
which would square the condition number.
"""

from __future__ import annotations

import cmath
import math
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


def _balance(a: np.ndarray) -> np.ndarray:
    """Diagonal similarity scaling (radix 2) to even out row/column norms."""
    b = a.copy()
    n = b.shape[0]
    while True:
        changed = False
        for i in range(n):
            c = float(np.sum(np.abs(b[:, i]))) - abs(b[i, i])
            r = float(np.sum(np.abs(b[i, :]))) - abs(b[i, i])
            if c == 0.0 or r == 0.0:
                continue
            c0, r0 = c, r
            f = 1.0
            while c < r / 2.0:
                c *= 2.0
                f *= 2.0
            while c >= r * 2.0:
                c /= 2.0
                f /= 2.0
            if c + r < 0.95 * (c0 + r0):
                changed = True
                b[:, i] *= f
                b[i, :] /= f
        if not changed:
            return b


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Reduce to upper Hessenberg form by complex Householder reflections."""
    h = a.astype(complex, copy=True)
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1:, k]
        norm_x = float(np.linalg.norm(x))
        if norm_x == 0.0:
            continue
        alpha = -norm_x if x[0] == 0 else -(x[0] / abs(x[0])) * norm_x
        v = x.copy()
        v[0] -= alpha
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        h[k + 1, k] = alpha
        h[k + 2:, k] = 0.0
    return h


def _eig2x2(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]], larger-modulus first (deterministic)."""
    t = 0.5 * (a + d)
    disc = cmath.sqrt(t * t - (a * d - b * c))
    return t + disc, t - disc


def _wilkinson_shift(a, b, c, d):
    """Eigenvalue of the trailing 2x2 block closest to its bottom entry."""
    lam1, lam2 = _eig2x2(a, b, c, d)
    return lam1 if abs(lam1 - d) < abs(lam2 - d) else lam2


def _qr_sweep(h: np.ndarray, lo: int, hi: int, sigma: complex) -> None:
    """One explicit shifted QR step on the Hessenberg window [lo, hi]."""
    for i in range(lo, hi + 1):
        h[i, i] -= sigma
    rots = []
    for k in range(lo, hi):
        x = h[k, k]
        y = h[k + 1, k]
        r = math.hypot(abs(x), abs(y))
        if r == 0.0:
            rots.append((1.0 + 0.0j, 0.0 + 0.0j))
            continue
        ca = x / r
        cb = y / r
        rots.append((ca, cb))
        row_k = h[k, k:hi + 1].copy()
        row_k1 = h[k + 1, k:hi + 1]
        h[k, k:hi + 1] = ca.conjugate() * row_k + cb.conjugate() * row_k1
        h[k + 1, k:hi + 1] = -cb * row_k + ca * row_k1
    for k in range(lo, hi):
        ca, cb = rots[k - lo]
        top = min(k + 2, hi)
        col_k = h[lo:top + 1, k].copy()
        col_k1 = h[lo:top + 1, k + 1]
        h[lo:top + 1, k] = ca * col_k + cb * col_k1
        h[lo:top + 1, k + 1] = -cb.conjugate() * col_k + ca.conjugate() * col_k1
    for i in range(lo, hi + 1):
        h[i, i] += sigma


def _qr_eigvals(h: np.ndarray, anorm: float, iter_cap: int):
    """Shifted QR with deflation on a Hessenberg matrix; returns eigenvalues
    and the largest subdiagonal magnitude discarded at a deflation."""
    n = h.shape[0]
    eigs = np.zeros(n, dtype=complex)
    defl_max = 0.0
    hi = n - 1
    iters = 0
    while hi >= 0:
        if hi == 0:
            eigs[0] = h[0, 0]
            break
        lo = hi
        while lo > 0:
            sub = abs(h[lo, lo - 1])
            scale = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            if scale == 0.0:
                scale = anorm
            if sub <= _EPS * scale:
                defl_max = max(defl_max, sub)
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            eigs[hi] = h[hi, hi]
            hi -= 1
            iters = 0
            continue
        if hi - lo == 1:
            lam1, lam2 = _eig2x2(h[lo, lo], h[lo, hi], h[hi, lo], h[hi, hi])
            eigs[hi] = lam1
            eigs[lo] = lam2
            hi -= 2
            iters = 0
            continue
        iters += 1
        if iters > iter_cap:
            raise NonConvergence(
                f"QR iteration exceeded {iter_cap} steps while deflating index {hi}"
            )
        if iters % 12 == 0:
            sigma = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])
        else:
            sigma = _wilkinson_shift(h[hi - 1, hi - 1], h[hi - 1, hi],
                                     h[hi, hi - 1], h[hi, hi])
        _qr_sweep(h, lo, hi, sigma)
    return eigs, defl_max


def eigenvalues(a) -> Spectrum:
    """All eigenvalues of a square matrix, counting algebraic multiplicity.

    Balancing, Hessenberg reduction, and Wilkinson-shifted QR iteration with
    deflation, carried out in complex arithmetic. Raises NonConvergence if a
    deflation step exceeds 100*d iterations (pathological input; callers may
    fall back to ``poly_roots(char_poly(a))``).
    """
    m = _as_real_or_complex(a)
    n = m.shape[0]
    if n == 1:
        val = complex(m[0, 0])
        return Spectrum(values=np.array([val]), residual_bound=_EPS * (1.0 + abs(val)))
    b = _balance(m.astype(complex))
    h = _hessenberg(b)
    anorm = float(np.linalg.norm(b))
    eigs, defl_max = _qr_eigvals(h, anorm, iter_cap=100 * n)
    residual = defl_max + 10.0 * n * _EPS * anorm
    return Spectrum(values=eigs, residual_bound=residual)


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
