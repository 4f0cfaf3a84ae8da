"""Independent oracles used by the tests.

These deliberately avoid the production code paths they are checking and
import nothing from hypflow: singular values come from numpy's SVD, eigenvalue
brackets from a bisection on a doubled Hamiltonian-structured matrix whose
eigenvalues come from numpy, and small closed forms are spelled out directly.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(float).eps)


def svd_sigma_min(m) -> float:
    """Smallest singular value via numpy's SVD (oracle path)."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[-1])


def grid_distance_oracle(a, omega_max: float, n: int = 4001) -> float:
    """Brute-force scan of sigma_min(A - i*omega*I) on a dense grid."""
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[0])
    return min(svd_sigma_min(a - 1j * w * eye)
               for w in np.linspace(0.0, omega_max, n))


def byers_distance(a, tol: float = 1e-8) -> float:
    """Distance to the nearest matrix with an imaginary-axis eigenvalue,
    by bisection on gamma: gamma is at least the distance exactly when
    [[A, -gamma I], [gamma I, -A^T]] has a purely imaginary eigenvalue."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    eye = np.eye(d)
    lo = 0.0
    hi = svd_sigma_min(a)
    if hi == 0.0:
        return 0.0
    scale = 1.0 + float(np.linalg.norm(a)) + hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        ham = np.block([[a, -mid * eye], [mid * eye, -a.T]])
        # ten times the backward-error bound 10*(2d)*eps*||ham||_1
        bound = 10.0 * 2 * d * _EPS * float(np.linalg.norm(ham, 1))
        threshold = max(10.0 * bound, 1e-12 * scale)
        if float(np.min(np.abs(np.real(np.linalg.eigvals(ham))))) <= threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def quadratic_roots(b: float, c: float):
    """Roots of z^2 + b z + c by the closed-form formula (real b, c)."""
    disc = complex(b * b - 4.0 * c) ** 0.5
    return (-b + disc) / 2.0, (-b - disc) / 2.0
