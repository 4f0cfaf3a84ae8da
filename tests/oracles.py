"""Independent oracles used by the tests.

These deliberately avoid the production code paths they are checking and
import nothing from hypflow: singular values come from numpy's SVD, distances
to the non-hyperbolic set from a dense SVD grid with golden-section refinement
and from a bisection on a doubled Hamiltonian-structured matrix whose
eigenvalues come from numpy, perturbation campaigns are recounted one sample
at a time, the matrix exponential is evaluated one matrix at a time, and
small closed forms are spelled out directly.
"""

from __future__ import annotations

import math

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


def refined_grid_distance(a, n: int = 4001, refine: int = 5) -> float:
    """min over omega of sigma_min(A - i*omega*I) by a dense SVD grid on
    [0, ||A||_2] (g increases beyond the numerical range's imaginary extent,
    which ||A||_2 bounds), then golden-section refinement of the ``refine``
    smallest grid minima down to adjacent floats."""
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[0])

    def g(ws):
        ws = np.atleast_1d(np.asarray(ws, dtype=float))
        mats = a - 1j * ws[:, None, None] * eye
        return np.linalg.svd(mats, compute_uv=False)[:, -1]

    ws = np.linspace(0.0, float(np.linalg.norm(a, 2)), n)
    vals = g(ws)
    best = float(vals.min())
    minima = [i for i in range(n) if (i == 0 or vals[i] <= vals[i - 1])
              and (i == n - 1 or vals[i] <= vals[i + 1])]
    minima.sort(key=lambda i: vals[i])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for i in minima[:refine]:
        lo, hi = ws[max(i - 1, 0)], ws[min(i + 1, n - 1)]
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fc, fd = g([c, d])
        for _ in range(200):
            if not lo < c < d < hi:
                break
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = g(c)[0]
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = g(d)[0]
        best = min(best, float(fc), float(fd))
    return best


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


def campaign_recount(h, samples: int, radius: float, seed: int, tau: float):
    """Flips and the first ten (index, perturbation) witnesses of a seeded
    perturbation campaign, one numpy call per sample.

    Follows the documented recipe: sample i draws a Gaussian direction g and
    then frac = 1 - random() from PCG64(seed XOR i), skips g of norm 0, and
    counts a flip when h + g * (radius * frac / ||g||_2) has another (s, u, c)
    than h. The norm is the largest value of numpy's complex SVD, the
    routine op_norm2 uses; the real SVD behind np.linalg.norm(g, 2) differs
    from it in the last bit for about a third of the draws.
    """
    h = np.asarray(h, dtype=float)
    d = h.shape[0]

    def counts(m):
        re = np.real(np.linalg.eigvals(m))
        return int(np.sum(re < -tau)), int(np.sum(re > tau))

    base = counts(h)
    flips = 0
    witnesses = []
    for i in range(samples):
        rng = np.random.Generator(np.random.PCG64(seed ^ i))
        g = rng.standard_normal((d, d))
        norm_g = float(np.linalg.svd(g.astype(complex), compute_uv=False)[0])
        if norm_g == 0.0:
            continue
        frac = 1.0 - rng.random()
        e = g * (radius * frac / norm_g)
        if counts(h + e) != base:
            flips += 1
            if len(witnesses) < 10:
                witnesses.append((i, e))
    return flips, witnesses


def quadratic_roots(b: float, c: float):
    """Roots of z^2 + b z + c by the closed-form formula (real b, c)."""
    disc = complex(b * b - 4.0 * c) ** 0.5
    return (-b + disc) / 2.0, (-b - disc) / 2.0


_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def expm_pade13(m) -> np.ndarray:
    """e^M by scaling and squaring, one matrix at a time: halve M j times
    until its 2-norm (complex SVD) is at most 1/2, take the degree-13 Pade
    approximant there, square j times. The same operations in the same
    order as ``flow.expm``, so the two agree bit for bit."""
    m = np.array(m, dtype=float)
    norm = float(np.linalg.svd(m.astype(complex), compute_uv=False)[0])
    j = 0 if norm <= 0.5 else math.ceil(math.log2(norm / 0.5))
    ms = m / (2.0 ** j)
    eye = np.eye(m.shape[0])
    b = _PADE13
    m2 = ms @ ms
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = ms @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
              + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * eye)
    x = np.linalg.solve(v - u, v + u)
    for _ in range(j):
        x = x @ x
    return x
