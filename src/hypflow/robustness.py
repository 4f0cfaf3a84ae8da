"""Quantitative robustness of hyperbolic classification.

The classification (s, u) of a hyperbolic matrix survives every sufficiently
small perturbation. This module makes that statement executable four ways:

* ``margin`` brackets the spectral-norm distance from a matrix to the nearest
  matrix with an imaginary-axis eigenvalue, using the characterization
  distance = min over real omega of sigma_min(A - i*omega*I);
* ``hyperbolize`` realizes the density construction A + eps*I with eps below
  the smallest off-axis |Re lambda|;
* ``perturb_campaign`` samples random perturbations at a given radius and
  counts inertia flips (none may occur below the margin);
* ``continuity_check`` matches eigenvalue multisets along a convergent matrix
  sequence through minimum-weight pairings and reports how the mismatch decays.

``generate`` builds seeded test matrices in a requested (s, u) class, and the
``*_suite`` runners bundle the headline properties for the command-line
``verify`` entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import densemat, matching, spectral
from .errors import DimensionMismatch, InvalidClass, NotHyperbolic, ShiftTooSmall
from .inertia import ConjugacyClass, Inertia, classify, default_tolerance

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Samples per stacked LAPACK call in perturb_campaign; bounds its memory at
# any sample count.
_CAMPAIGN_BLOCK = 128


@dataclass(eq=False)
class MarginResult:
    """Bracket on the distance to the nearest non-hyperbolic matrix.

    ``upper`` is rigorous (a concrete frequency omega_star achieves it);
    ``lower = max(0, upper - tol)`` (tol widened to the final bracket width
    where float spacing stopped the refinement first) is heuristic in that a
    coarse scan could in principle miss a narrow global minimum.
    ``iterations`` counts sigma_min evaluations. Non-hyperbolic input yields
    all zeros.
    """

    lower: float
    upper: float
    omega_star: float
    iterations: int


@dataclass(eq=False)
class HyperbolizeResult:
    """Outcome of the diagonal-shift construction A + eps*I."""

    epsilon: float
    shifted: np.ndarray
    delta: float


@dataclass(eq=False)
class CampaignReport:
    """Seeded random-perturbation experiment around a hyperbolic base matrix."""

    base_inertia: Inertia
    samples: int
    radius: float
    flips: int
    seed: int
    flip_witnesses: list = field(default_factory=list)


@dataclass(eq=False)
class ContinuityReport:
    """Eigenvalue matchings along a matrix sequence converging to a limit."""

    pairings: list
    max_mismatch: list
    monotone_tail: bool


def hyperbolize(a, tau: float | None = None,
                eps_cap: float | None = None) -> HyperbolizeResult:
    """Shift A by eps*I so the result is hyperbolic.

    eps = min(eps_cap, delta/2) where delta is the smallest |Re lambda| among
    eigenvalues already off the axis (infinite if there are none, in which
    case any positive eps works and eps_cap is used). eps_cap defaults to
    max(1, 10*tau), so that it clears the relative tolerance band of a large
    matrix. Raises ShiftTooSmall if the computed eps does not clear the
    tolerance band.
    """
    m = densemat.as_matrix(a)
    if eps_cap is not None and eps_cap <= 0:
        raise ValueError("eps_cap must be > 0")
    if tau is None:
        tau = default_tolerance(m)
    if eps_cap is None:
        eps_cap = max(1.0, 10.0 * tau)
    spec = spectral.eigenvalues(m)
    re = np.abs(np.real(spec.values))
    off_axis = re[re > tau]
    delta = float(np.min(off_axis)) if off_axis.size else math.inf
    eps = min(eps_cap, delta / 2.0)
    if eps <= tau:
        raise ShiftTooSmall(
            f"shift {eps:.3e} does not clear the tolerance band {tau:.3e}"
        )
    return HyperbolizeResult(epsilon=eps, shifted=m + eps * np.eye(m.shape[0]),
                             delta=delta)


def _golden_refine(m: np.ndarray, brackets, tol: float, best_val, best_omega):
    """Golden-section refinement of scan brackets, batched across brackets.

    A bracket stops at width tol, or earlier once its golden points no
    longer fall strictly inside it (adjacent floats near a large omega can
    be further apart than tol). Returns the best value and frequency, the
    evaluation count and the widest final bracket.
    """
    eye = np.eye(m.shape[0])
    evals = 0
    state = []
    for lo, hi in brackets:
        c = hi - _INVPHI * (hi - lo)
        d_ = lo + _INVPHI * (hi - lo)
        state.append([lo, hi, c, d_, None, None])
    pts = [s[2] for s in state] + [s[3] for s in state]
    vals = spectral.sigma_min_many(
        m[None, :, :] - 1j * np.asarray(pts)[:, None, None] * eye)
    evals += len(pts)
    nb = len(state)
    for i, s in enumerate(state):
        s[4] = float(vals[i])
        s[5] = float(vals[nb + i])
    for i, s in enumerate(state):
        for v, w in ((s[4], s[2]), (s[5], s[3])):
            if v < best_val:
                best_val, best_omega = v, w
    while True:
        active = [s for s in state
                  if s[1] - s[0] > tol and s[0] < s[2] < s[3] < s[1]]
        if not active:
            break
        pts = []
        for s in active:
            lo, hi, c, d_, fc, fd = s
            if fc < fd:
                s[1] = d_
                s[3] = c
                s[5] = fc
                s[2] = s[1] - _INVPHI * (s[1] - s[0])
                pts.append(s[2])
            else:
                s[0] = c
                s[2] = d_
                s[4] = fd
                s[3] = s[0] + _INVPHI * (s[1] - s[0])
                pts.append(s[3])
        vals = spectral.sigma_min_many(
            m[None, :, :] - 1j * np.asarray(pts)[:, None, None] * eye)
        evals += len(pts)
        for s, v, w in zip(active, vals, pts):
            v = float(v)
            if w == s[2]:
                s[4] = v
            else:
                s[5] = v
            if v < best_val:
                best_val, best_omega = v, w
    return best_val, best_omega, evals, max(s[1] - s[0] for s in state)


def margin(a, tau: float | None = None, tol: float = 1e-6) -> MarginResult:
    """Bracket the spectral-norm distance from A to the non-hyperbolic set.

    Scans g(omega) = sigma_min(A - i*omega*I) at 4d+17 equispaced frequencies
    in [0, ||A||] (g is even in omega for real A, and the minimizing frequency
    cannot exceed the norm scale), then golden-sections every local-minimum
    bracket down to width tol, or as far as the floats near omega allow. Since
    g is 1-Lipschitz the final bracket width bounds the value error, giving
    lower = max(0, upper - max(tol, widest final bracket)).

    Non-hyperbolic (or indeterminate) input returns the all-zero result.
    """
    m = densemat.as_matrix(a)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if tau is None:
        tau = default_tolerance(m)
    verdict = classify(m, tau)
    if not verdict.is_hyperbolic:
        return MarginResult(lower=0.0, upper=0.0, omega_star=0.0, iterations=0)
    d = m.shape[0]
    span = densemat.op_norm2(m)
    n_scan = 4 * d + 17
    omegas = np.linspace(0.0, span, n_scan)
    eye = np.eye(d)
    g = spectral.sigma_min_many(m[None, :, :] - 1j * omegas[:, None, None] * eye)
    evals = n_scan
    best_idx = int(np.argmin(g))
    best_val = float(g[best_idx])
    best_omega = float(omegas[best_idx])
    brackets = []
    for i in range(n_scan):
        left_ok = i == 0 or g[i] <= g[i - 1]
        right_ok = i == n_scan - 1 or g[i] <= g[i + 1]
        if left_ok and right_ok:
            lo = float(omegas[max(i - 1, 0)])
            hi = float(omegas[min(i + 1, n_scan - 1)])
            if hi - lo > tol:
                brackets.append((lo, hi))
    width = tol
    if brackets:
        best_val, best_omega, extra, widest = _golden_refine(
            m, brackets, tol, best_val, best_omega)
        evals += extra
        width = max(tol, widest)
    return MarginResult(lower=max(0.0, best_val - width), upper=best_val,
                        omega_star=best_omega, iterations=evals)


def perturb_campaign(h, samples: int, radius: float, seed: int,
                     tau: float | None = None) -> CampaignReport:
    """Count inertia flips over seeded random perturbations of norm <= radius.

    Each sample i draws a Gaussian direction from its own PCG64 stream seeded
    with seed XOR i (so results do not depend on evaluation order), rescaled
    to operator norm radius * fraction with the fraction uniform in (0, 1].
    Up to ten flipping perturbations are kept as witnesses. Samples are
    evaluated in blocks of _CAMPAIGN_BLOCK: one stacked SVD gives the
    directions' norms and one stacked eigenvalue call the perturbed spectra,
    with the same per-matrix arithmetic as one call per sample.
    """
    m = densemat.as_matrix(h)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if tau is None:
        tau = default_tolerance(m)
    verdict = classify(m, tau)
    if not verdict.is_hyperbolic:
        raise NotHyperbolic(f"base matrix classified as {verdict.kind}")
    base = verdict.inertia
    d = m.shape[0]
    flips = 0
    witnesses = []
    for start in range(0, samples, _CAMPAIGN_BLOCK):
        block = range(start, min(start + _CAMPAIGN_BLOCK, samples))
        g = np.empty((len(block), d, d))
        frac = np.empty(len(block))
        for j, i in enumerate(block):
            rng = np.random.Generator(np.random.PCG64(seed ^ i))
            g[j] = rng.standard_normal((d, d))
            frac[j] = 1.0 - rng.random()
        norm_g = densemat._singular_values(g)[:, 0]
        drawn = np.flatnonzero(norm_g)
        e = g[drawn] * (radius * frac[drawn] / norm_g[drawn])[:, None, None]
        re = spectral.eigenvalues_many(m + e).real
        flipped = np.flatnonzero(((re < -tau).sum(axis=1) != base.s)
                                 | ((re > tau).sum(axis=1) != base.u))
        flips += flipped.size
        for j in flipped[:10 - len(witnesses)]:
            witnesses.append((start + int(drawn[j]), e[j].copy()))
    return CampaignReport(base_inertia=base, samples=samples, radius=radius,
                          flips=flips, seed=seed, flip_witnesses=witnesses)


def continuity_check(h, sequence) -> ContinuityReport:
    """Match eigenvalues of each A_n against those of H and track the mismatch.

    Pairings are minimum-weight perfect matchings on modulus distances (the
    numerical realization of matching eigenvalue multisets up to permutation).
    ``monotone_tail`` reports whether the matched distance is non-increasing
    on the suffix where ||A_n - H|| itself is non-increasing.
    """
    m = densemat.as_matrix(h)
    mats = [densemat.as_matrix(x) for x in sequence]
    if not mats:
        raise ValueError("sequence must be nonempty")
    for x in mats:
        if x.shape != m.shape:
            raise DimensionMismatch(
                f"sequence entry has dimension {x.shape[0]}, expected {m.shape[0]}"
            )
    eig_h = spectral.eigenvalues(m).values
    stack = np.stack(mats)
    pairings = []
    mismatches = []
    for eig_n in spectral.eigenvalues_many(stack):
        perm, max_d = matching.pair_values(eig_n, eig_h)
        pairings.append(perm)
        mismatches.append(max_d)
    diffs = stack - m
    # the SVD turns an overflowed entry into NaN singular values, silently
    if not np.all(np.isfinite(diffs)):
        raise ValueError("matrix entries must be finite")
    dists = densemat._singular_values(diffs)[:, 0]
    k0 = len(dists) - 1
    while k0 > 0 and dists[k0 - 1] >= dists[k0]:
        k0 -= 1
    slack = 1e-12 * (1.0 + float(np.linalg.norm(m)))
    monotone = all(mismatches[k] >= mismatches[k + 1] - slack
                   for k in range(k0, len(mismatches) - 1))
    return ContinuityReport(pairings=pairings, max_mismatch=mismatches,
                            monotone_tail=monotone)


def vieta_check(a) -> float:
    """Normalized gap between the eigenvalue product and the determinant."""
    m = densemat.as_matrix(a)
    spec = spectral.eigenvalues(m)
    prod = complex(np.prod(spec.values))
    d = densemat.det(m)
    return float(abs(prod - d) / (1.0 + abs(d)))


def _random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random orthogonal matrix: double Gram-Schmidt of a Gaussian draw."""
    g = rng.standard_normal((d, d))
    q = np.zeros((d, d))
    for j in range(d):
        v = g[:, j].copy()
        for _ in range(2):
            for k in range(j):
                v -= (q[:, k] @ v) * q[:, k]
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-12:
            v = np.zeros(d)
            v[j] = 1.0
            nrm = 1.0
        q[:, j] = v / nrm
    return q


def generate(cls: ConjugacyClass, conditioning: float = 1.0,
             seed: int = 0) -> np.ndarray:
    """Seeded hyperbolic matrix with the requested (s, u) class.

    Builds a block-diagonal core with stable real parts in [-2, -0.1] and
    unstable ones in [0.1, 2] (complex pairs become 2x2 rotation-scaling
    blocks), then conjugates by a similarity with the exact requested
    condition number.
    """
    if cls.s < 0 or cls.u < 0 or cls.s + cls.u != cls.d or cls.d < 1:
        raise InvalidClass(f"inconsistent class (s={cls.s}, u={cls.u}, d={cls.d})")
    if conditioning < 1.0:
        raise ValueError("conditioning must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = []
    for count, sign in ((cls.s, -1.0), (cls.u, 1.0)):
        pairs = int(rng.integers(0, count // 2 + 1))
        for _ in range(pairs):
            re = sign * rng.uniform(0.1, 2.0)
            im = rng.uniform(0.1, 2.0)
            blocks.append(np.array([[re, im], [-im, re]]))
        for _ in range(count - 2 * pairs):
            blocks.append(np.array([[sign * rng.uniform(0.1, 2.0)]]))
    d = cls.d
    core = np.zeros((d, d))
    at = 0
    for b in blocks:
        k = b.shape[0]
        core[at:at + k, at:at + k] = b
        at += k
    q1 = _random_orthogonal(rng, d)
    q2 = _random_orthogonal(rng, d)
    if d == 1:
        sig = np.array([1.0])
    else:
        sig = conditioning ** np.linspace(0.0, 1.0, d)
    t = (q1 * sig) @ q2.T
    t_inv = (q2 / sig) @ q1.T
    return t @ core @ t_inv


@dataclass(eq=False)
class SuiteResult:
    """Pass/fail counts for one verification suite run."""

    name: str
    total: int
    passed: int
    failed: int
    worst: float


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


def openness_suite(seed: int = 1, trials: int = 1000) -> SuiteResult:
    """Inertia must never flip under a perturbation smaller than the margin."""
    rng = np.random.Generator(np.random.PCG64(seed))
    failed = 0
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 7))
        s = int(rng.integers(0, d + 1))
        cond = float(rng.uniform(1.0, 100.0))
        h = generate(ConjugacyClass(s=s, u=d - s, d=d), cond, _subseed(rng))
        tau = default_tolerance(h)
        mr = margin(h, tau, tol=0.05)
        if mr.lower <= 0.0 and mr.upper > 0.0:
            mr = margin(h, tau, tol=mr.upper / 4.0)
        if mr.lower <= 0.0:
            failed += 1
            continue
        report = perturb_campaign(h, samples=1, radius=0.9 * mr.lower,
                                  seed=_subseed(rng), tau=tau)
        if report.flips:
            failed += 1
        worst = max(worst, float(report.flips))
    return SuiteResult("openness", trials, trials - failed, failed, worst)


def density_suite(seed: int = 1, trials: int = 500) -> SuiteResult:
    """hyperbolize must succeed with eps <= bound for bounds down to 1e-6."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    failed = 0
    worst = 0.0
    for trial in range(trials):
        kind = trial % 4
        if kind == 0:
            a = rotation * rng.uniform(0.5, 2.0)
        elif kind == 1:
            a = nilpotent * rng.uniform(0.5, 2.0)
        elif kind == 2:
            a = np.zeros((int(rng.integers(1, 5)),) * 2)
        else:
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, d))
        bound = 10.0 ** rng.uniform(-6.0, 0.0)
        tau = default_tolerance(a)
        try:
            result = hyperbolize(a, tau, eps_cap=bound)
        except ShiftTooSmall:
            failed += 1
            continue
        # (A + eps*I) - A only recovers eps*I up to rounding in A's entries
        shift_norm = densemat.op_norm2(result.shifted - a)
        ok = (result.epsilon <= bound
              and shift_norm <= bound + 1e-5 * tau
              and classify(result.shifted, tau).is_hyperbolic)
        if not ok:
            failed += 1
        worst = max(worst, shift_norm - result.epsilon)
    return SuiteResult("density", trials, trials - failed, failed, worst)


def vieta_suite(seed: int = 1, trials: int = 1000) -> SuiteResult:
    """Eigenvalue product must reproduce the determinant to 1e-8."""
    rng = np.random.Generator(np.random.PCG64(seed))
    failed = 0
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d))
        disc = vieta_check(a)
        worst = max(worst, disc)
        if disc > 1e-8:
            failed += 1
    return SuiteResult("vieta", trials, trials - failed, failed, worst)


def oracle_suite(seed: int = 1, trials: int = 1000) -> SuiteResult:
    """LAPACK eigenvalues and char-poly roots must agree to 1e-6 under matching."""
    rng = np.random.Generator(np.random.PCG64(seed))
    failed = 0
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d))
        lapack_route = spectral.eigenvalues(a).values
        poly_route = spectral.poly_roots(spectral.char_poly(a)).values
        dist = matching.matched_distance(lapack_route, poly_route)
        worst = max(worst, dist)
        if dist > 1e-6:
            failed += 1
    return SuiteResult("oracle", trials, trials - failed, failed, worst)


SUITES = {
    "openness": openness_suite,
    "density": density_suite,
    "vieta": vieta_suite,
    "oracle": oracle_suite,
}
