"""Quantitative robustness of hyperbolic classification.

The classification (s, u) of a hyperbolic matrix survives every sufficiently
small perturbation. This module makes that statement executable four ways:

* ``margin`` brackets the spectral-norm distance from a matrix to the nearest
  matrix with an imaginary-axis eigenvalue. The distance is the minimum over
  real omega of g(omega) = sigma_min(A - i*omega*I), and gamma >= distance
  exactly when the Hamiltonian [[A, -gamma I], [gamma I, -A^T]] has an
  eigenvalue i*omega on the imaginary axis, at the omega where gamma is a
  singular value of A - i*omega*I (Byers 1988). ``margin`` runs the level-set
  iteration of Boyd-Balakrishnan and Bruinsma-Steinbuch (1990) on that test:
  it certifies ``lower`` as a level without crossings and ``upper`` as a
  value of g;
* ``hyperbolize`` realizes the density construction A + eps*I with eps below
  the smallest off-axis |Re lambda|;
* ``perturb_campaign`` samples random perturbations at a given radius and
  counts inertia flips (none may occur below the margin);
* ``continuity_check`` matches eigenvalue multisets along a convergent matrix
  sequence through pairings that minimize the largest distance, and reports
  how that optimal matching distance decays.

``generate`` builds seeded test matrices in a requested (s, u) class, and
``run_suite`` runs the headline properties as seeded suites for the
command-line ``verify`` entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import densemat, matching, spectral
from .densemat import _lapack, _umath_linalg
from .errors import (DimensionMismatch, InvalidClass, NonConvergence,
                     NotHyperbolic, ShiftTooSmall)
from .inertia import (ConjugacyClass, Inertia, Verdict, classify,
                      default_tolerance)

_EPS = float(np.finfo(float).eps)
# margin: the relative floor of the slack below gamma, and the cap on
# Hamiltonian eigensolves (at most 5 were needed on the benchmark matrices).
_SLACK = 1e-6
_MAX_SOLVES = 64

# Samples per stacked LAPACK call in perturb_campaign; bounds its memory at
# any sample count.
_CAMPAIGN_BLOCK = 128
# Fewest samples in a block whose seeds are hashed together (_streams);
# below it numpy's own SeedSequence costs less than the stacked hash.
_HASH_MIN = 16


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# The constants of numpy's SeedSequence (NEP 19 keeps its algorithm
# stable): the running hash constants of its entropy mixing (A) and of
# generate_state (B), and the two multipliers of its mix step.
_HASH_A = _hash_chain(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


@dataclass(eq=False)
class MarginResult:
    """Bracket lower <= distance <= upper on the distance to the nearest
    non-hyperbolic matrix.

    The distance is over complex perturbations. ``upper`` is
    sigma_min(A - i*omega_star*I), the norm of a complex rank-1 perturbation
    that puts an eigenvalue on the axis. At omega_star = 0 that perturbation
    is real; at omega_star != 0 a real perturbation can need a larger norm
    (``generate(ConjugacyClass(2, 0, 2), 50.0, 83)`` has upper = 0.007387,
    and its nearest real matrix with an axis eigenvalue is 0.02643 away).
    ``lower`` is a level at which the Hamiltonian test found no crossing, so
    every perturbation of smaller norm, real or complex, keeps (s, u).
    ``iterations`` counts sigma_min evaluations and ``solves`` Hamiltonian
    eigensolves. Non-hyperbolic input yields all zeros.
    """

    lower: float
    upper: float
    omega_star: float
    iterations: int
    solves: int


@dataclass(eq=False)
class HyperbolizeResult:
    """Outcome of the diagonal-shift construction A + eps*I. ``delta`` is
    None when no eigenvalue is off the axis."""

    epsilon: float
    shifted: np.ndarray
    delta: float | None


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
    """Eigenvalue matchings along a matrix sequence converging to a limit:
    ``pairings[n][i]`` is the eigenvalue of the limit paired with eigenvalue
    i of the n-th matrix, by a pairing that minimizes the largest distance,
    and ``max_mismatch[n]`` is that least largest distance."""

    pairings: list
    max_mismatch: list
    monotone_tail: bool


def hyperbolize(a, tau: float | None = None,
                eps_cap: float | None = None) -> HyperbolizeResult:
    """Shift A by eps*I so the result is hyperbolic.

    eps = min(eps_cap, delta/2) where delta is the smallest |Re lambda| among
    eigenvalues already off the axis. If there are none, any positive eps
    works: eps_cap is used, and delta is None. eps_cap defaults to
    max(1, 10*tau), so that it clears the relative tolerance band of a large
    matrix. Raises ShiftTooSmall if the computed eps does not clear the
    tolerance band, and ValueError if A + eps*I passes the float range.
    """
    if eps_cap is not None:
        eps_cap = densemat._real(eps_cap, "eps_cap")
        if not 0 < eps_cap < math.inf:
            raise ValueError("eps_cap must be finite and > 0")
    verdict = classify(a, tau)
    m, tau = verdict.matrix, verdict.inertia.tau
    if eps_cap is None:
        eps_cap = max(1.0, 10.0 * tau)
    re = np.abs(verdict.spectrum.values.real)
    off_axis = re[re > tau]
    delta = float(np.min(off_axis)) if off_axis.size else None
    eps = eps_cap if delta is None else min(eps_cap, delta / 2.0)
    if eps <= tau:
        raise ShiftTooSmall(
            f"shift {eps:.3e} does not clear the tolerance band {tau:.3e}"
        )
    with np.errstate(over="ignore"):
        shifted = m + eps * np.eye(m.shape[0])
    if not np.isfinite(shifted).all():
        raise ValueError("shifted matrix entries must be finite: "
                         "A + eps*I passes the float range")
    return HyperbolizeResult(epsilon=eps, shifted=shifted, delta=delta)


def margin(a, tau: float | None = None, tol: float = 1e-6) -> MarginResult:
    """Bracket the spectral-norm distance from A to the non-hyperbolic set.

    gamma starts as the least g(omega) = sigma_min(A - i*omega*I) over
    omega in {0} and the eigenvalue frequencies |Im lambda| (from the
    spectrum ``classify`` computed). Each step tests the level
    l = gamma - slack with one eigensolve of [[A, -l I], [l I, -A^T]]:

    * an eigenvalue within sqrt(2d*eps)*(||A|| + l) of the axis is a
      candidate. LAPACK's eigenvalues are exact for a matrix within about
      2d*eps*||H|| of H, where ||H|| <= ||A|| + l, and a crossing just above
      the distance is nearly tangent, a near 2x2 Jordan block, which that
      error moves by up to sqrt(2d*eps)*||H||;
    * a candidate at frequency omega = |Im lambda| (g is even in omega for
      real A) is a crossing when g(omega) <= l + slack/2. That weeds out
      eigenvalues merely near the axis, and slack/2 covers the rounding of g
      at a true crossing;
    * gamma drops to the least g at the crossings and at the midpoints
      between them (at least slack/2 per step, quadratically near the end);
    * a level without crossings is below the distance: lower = l, upper =
      gamma.

    slack = min(gamma/4, max(tol*gamma, 1e-6*gamma, 4d*eps*||A||)). So tol
    is the relative gap (upper - lower)/upper the caller accepts, clipped to
    [1e-6, 1/4]: lower >= upper*3/4 > 0 at any tol. The relative floor 1e-6
    keeps the last level well clear of the distance, where a tangent
    crossing could hide, and the absolute one, twice the SVD's rounding of g
    (d*eps*||A - i*omega*I|| with omega <= ||A||), keeps rounding from
    passing for a crossing. Below that rounding floor, which no double
    precision method resolves, lower is 3/4 of upper and not certified.
    Where ||A|| passes the float range, the bracket is that of 2**-e A, with
    entries below 1, scaled back by 2**e (the distance scales with A).
    Raises NonConvergence when a crossing remains after _MAX_SOLVES levels.
    Non-hyperbolic (or indeterminate) input returns the all-zero result.
    """
    return _margin(classify(a, tau), tol)


def _margin(verdict: Verdict, tol: float) -> MarginResult:
    """``margin`` of the matrix that ``verdict`` classified."""
    tol = densemat._real(tol, "tol")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not verdict.is_hyperbolic:
        return MarginResult(lower=0.0, upper=0.0, omega_star=0.0, iterations=0,
                            solves=0)
    m = verdict.matrix
    omegas = sorted({0.0} | {abs(v.imag) for v in verdict.spectrum.values.tolist()})
    evals = len(omegas)
    # omegas[0] is 0, so the stack's first matrix is A itself, and its
    # largest singular value is op_norm2(A) bit for bit
    sv = densemat._singular_values(_shifted(m, omegas))
    norm = float(sv[0, 0])
    gamma, omega_star = min(zip(sv[:, -1].tolist(), omegas))
    if norm == math.inf:
        # the rounding floor would be inf too. The distance scales with A,
        # so bracket 2**-e A, whose entries are below 1, and scale back.
        e = math.frexp(float(np.abs(m).max()))[1]
        spectrum = replace(verdict.spectrum,
                           values=verdict.spectrum.values * math.ldexp(1.0, -e))
        r = _margin(replace(verdict, matrix=np.ldexp(m, -e), spectrum=spectrum),
                    tol)
        return MarginResult(lower=math.ldexp(r.lower, e),
                            upper=math.ldexp(r.upper, e),
                            omega_star=math.ldexp(r.omega_star, e),
                            iterations=evals + r.iterations, solves=r.solves)
    floor = 4 * m.shape[0] * _EPS * norm
    for solves in range(1, _MAX_SOLVES + 1):
        slack = min(gamma / 4, max(tol * gamma, _SLACK * gamma, floor))
        level = gamma - slack
        cross, near = _crossings(m, level, norm, level + slack / 2)
        evals += near
        if not cross:
            return MarginResult(lower=level, upper=gamma, omega_star=omega_star,
                                iterations=evals, solves=solves)
        # halved first: lo + hi of two crossings near the float maximum is inf
        mids = [lo / 2 + hi / 2 for (lo, _), (hi, _) in zip(cross, cross[1:])]
        if mids:
            cross += zip(mids, _sigma_min_shifted(m, mids))
            evals += len(mids)
        omega_star, gamma = min(cross, key=lambda p: p[1])
    raise NonConvergence(f"margin: crossings remained after {_MAX_SOLVES} levels")


def _shifted(m: np.ndarray, omegas: list) -> np.ndarray:
    """The stack of A - i*omega*I over ``omegas``: i*omega subtracted on the
    diagonal of a complex copy of A for each omega."""
    k, d = len(omegas), m.shape[0]
    stack = m.astype(complex).reshape(1, d * d).repeat(k, axis=0)
    stack[:, ::d + 1] -= 1j * np.array(omegas)[:, None]
    return stack.reshape(k, d, d)


def _sigma_min_shifted(m: np.ndarray, omegas: list) -> list:
    """g(omega) = sigma_min(A - i*omega*I) for each omega, as Python floats."""
    return densemat._singular_values(_shifted(m, omegas))[:, -1].tolist()


def _crossings(m: np.ndarray, level: float, norm: float, accept: float):
    """The level test of ``margin``: the crossings of ``level`` by g, as
    sorted (omega, g(omega)) pairs, and the number of g evaluations made.

    One eigensolve of [[A, -l I], [l I, -A^T]] at l = ``level``, with
    ``norm`` = ||A||_2; an eigenvalue within sqrt(2d*eps)*(``norm`` + l) of
    the axis is a candidate at omega = |Im lambda|, and a crossing where
    g(omega) <= ``accept``.
    """
    d = m.shape[0]
    ham = np.zeros((2 * d, 2 * d))
    ham[:d, :d] = m
    ham[d:, d:] = -m.T
    # the diagonals of the off-diagonal blocks, as strided views of ham
    flat = ham.reshape(4 * d * d)
    flat[d:2 * d * d:2 * d + 1] = -level
    flat[2 * d * d::2 * d + 1] = level
    axis = math.sqrt(2 * d * _EPS) * (norm + level)
    near = [abs(v.imag) for v in spectral._eigenvalues_many(ham).tolist()
            if abs(v.real) <= axis]
    if not near:
        return [], 0
    cross = sorted((w, v) for w, v in zip(near, _sigma_min_shifted(m, near))
                   if v <= accept)
    return cross, len(near)


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed s.

    numpy's SeedSequence hashes the seed's 32-bit words, low first, into a
    pool of four; a seed below 2**64 fills two of them and the rest hash as
    0. Each hashmix xors the running constant, multiplies by the next one
    and folds the high half down. Each pool word is then mixed into the
    other three, and generate_state hashes the pool twice around into eight
    32-bit words. Here every step runs on all seeds at once. Each row of the
    result is C-contiguous, so PCG64 can read it as its buffer.
    """
    pool = np.zeros((len(seeds), 4), dtype=np.uint32)
    pool[:, 0] = seeds & 0xFFFFFFFF
    pool[:, 1] = seeds >> 32
    pool ^= _HASH_A[:4]
    pool *= _HASH_A[1:5]
    pool ^= pool >> 16
    for src, k in enumerate(range(4, 16, 3)):
        dst = [j for j in range(4) if j != src]
        h = pool[:, src, None] ^ _HASH_A[k:k + 3]
        h *= _HASH_A[k + 1:k + 4]
        h ^= h >> 16
        mixed = pool[:, dst] * _MIX_L - h * _MIX_R
        pool[:, dst] = mixed ^ (mixed >> 16)
    state = np.tile(pool, 2) ^ _HASH_B[:8]
    state *= _HASH_B[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words:
    """Seed source handing PCG64 precomputed ``generate_state`` words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seed: int, block: range):
    """``Generator(PCG64(seed ^ i))`` for each sample i of ``block``, in turn.

    A block of _HASH_MIN samples or more hashes its seeds in one
    _pcg64_words pass, which gives each PCG64 the state numpy's
    SeedSequence would. Seeds of 2**64 or more have more than two 32-bit
    words and keep numpy's path, as do short blocks.
    """
    if len(block) < _HASH_MIN or seed >> 64:
        return (np.random.Generator(np.random.PCG64(seed ^ i)) for i in block)
    # registered here, not at import, which would load numpy.random
    np.random.bit_generator.ISeedSequence.register(_Words)
    seeds = np.arange(block.start, block.stop, dtype=np.uint64) ^ np.uint64(seed)
    return (np.random.Generator(np.random.PCG64(_Words(w)))
            for w in _pcg64_words(seeds))


def perturb_campaign(h, samples: int, radius: float, seed: int,
                     tau: float | None = None) -> CampaignReport:
    """Count inertia flips over seeded random perturbations of norm <= radius.

    Each sample i draws a Gaussian direction from its own stream,
    Generator(PCG64(seed XOR i)), so results do not depend on evaluation
    order, and rescales it to operator norm radius * fraction with the
    fraction uniform in (0, 1]. Up to ten flipping perturbations are kept as
    witnesses. Samples are evaluated in blocks of _CAMPAIGN_BLOCK: the seeds
    of a block are hashed together into the PCG64 states numpy's
    SeedSequence would give them (short blocks and seeds >= 2**64 use
    SeedSequence itself), one stacked SVD gives the directions' norms and
    one stacked eigenvalue call the perturbed spectra, with the same
    per-matrix arithmetic as one call per sample. A sample whose A + E
    passes the float range is counted on 2**-x A + 2**-x E against
    2**-x tau, with 2**-x taking A's entries and the radius below 1; its
    witness is scaled back.
    """
    return _campaign(classify(h, tau), samples, radius, seed)


def _campaign(verdict: Verdict, samples: int, radius: float,
              seed: int) -> CampaignReport:
    """``perturb_campaign`` around the matrix that ``verdict`` classified."""
    samples = densemat._count(samples, "samples", 1)
    radius = densemat._real(radius, "radius")
    if not 0 < radius < math.inf:
        raise ValueError("radius must be finite and > 0")
    seed = densemat._count(seed, "seed", 0)
    if not verdict.is_hyperbolic:
        raise NotHyperbolic(f"base matrix classified as {verdict.kind}")
    m, base, tau = verdict.matrix, verdict.inertia, verdict.inertia.tau
    d = m.shape[0]
    flips = 0
    witnesses = []
    for start in range(0, samples, _CAMPAIGN_BLOCK):
        block = range(start, min(start + _CAMPAIGN_BLOCK, samples))
        g = np.empty((len(block), d, d))
        frac = np.empty(len(block))
        for j, rng in enumerate(_streams(seed, block)):
            rng.standard_normal(out=g[j])
            frac[j] = 1.0 - rng.random()
        norm_g = densemat._singular_values(g)[:, 0]
        if not norm_g.all():
            # a direction of norm 0 has no scale to the radius: drop it
            kept = np.flatnonzero(norm_g)
            g, frac, norm_g = g[kept], frac[kept], norm_g[kept]
            block = [block[j] for j in kept.tolist()]
        with np.errstate(over="ignore"):
            e = g * (radius * frac / norm_g)[:, None, None]
            perturbed = m + e
        level = tau
        if not np.isfinite(perturbed).all():
            # count each sample whose A + E passes the float range on
            # 2**-x A + 2**-x E against 2**-x tau, which has the same
            # inertias, with 2**-x taking A and the radius below 1
            over = np.flatnonzero(~np.isfinite(perturbed).all(axis=(1, 2)))
            x = math.frexp(max(float(np.abs(m).max()), radius))[1]
            scaled = g[over] * (math.ldexp(radius, -x) * frac[over]
                                / norm_g[over])[:, None, None]
            perturbed[over] = np.ldexp(m, -x) + scaled
            level = np.full((len(block), 1), tau)
            level[over] = math.ldexp(tau, -x)
            e[over] = np.ldexp(scaled, x)
        re = spectral._eigenvalues_many(perturbed).real
        flipped = (((re < -level).sum(axis=1) != base.s)
                   | ((re > level).sum(axis=1) != base.u)).tolist()
        hits = [j for j, f in enumerate(flipped) if f]
        flips += len(hits)
        for j in hits[:10 - len(witnesses)]:
            witnesses.append((block[j], e[j].copy()))
    return CampaignReport(base_inertia=base, samples=samples, radius=radius,
                          flips=flips, seed=seed, flip_witnesses=witnesses)


def _sequence_stack(sequence, shape: tuple) -> np.ndarray:
    """The real matrices of ``sequence``, each of ``shape``, as one stack;
    the caller checks that the entries are finite.

    A list of real arrays of one shape converts in one call. Anything else
    goes through ``as_matrix`` entry by entry, so that the error names what
    is wrong with the first wrong entry.
    """
    seq = list(sequence)
    try:
        stack = np.asarray(seq)
    except ValueError:
        stack = None  # ragged
    if (stack is not None and stack.shape[1:] == shape
            and stack.dtype.kind in "biuf"):
        return stack.astype(float, copy=False)
    mats = [densemat.as_matrix(x) for x in seq]
    if not mats:
        raise ValueError("sequence must be nonempty")
    for x in mats:
        if x.shape != shape:
            raise DimensionMismatch(
                f"sequence entry has dimension {x.shape[0]}, expected {shape[0]}"
            )
    return np.stack(mats)


def continuity_check(h, sequence) -> ContinuityReport:
    """Match eigenvalues of each A_n against those of H and track the mismatch.

    Each pairing minimizes the largest modulus distance between matched
    eigenvalues (``matching.pair_values``), and ``max_mismatch`` holds that
    optimal matching distance; only one past the float range is refused.
    ``monotone_tail`` reports whether the matched distance is non-increasing
    on the suffix where ||A_n - H|| itself is non-increasing.
    """
    m = densemat.as_matrix(h)
    stack = _sequence_stack(sequence, m.shape)
    with np.errstate(over="ignore"):
        diffs = stack - m
    # the SVD would turn a non-finite or overflowed entry into NaN singular
    # values, silently
    if not np.all(np.isfinite(diffs)):
        raise ValueError("matrix entries must be finite")
    eigs = spectral._eigenvalues_many(np.concatenate((stack, m[None])))
    # as in classify: LAPACK returns eigenvalues past the float maximum as
    # inf, and the distance between two of them is NaN
    if not np.isfinite(eigs).all():
        raise ValueError("eigenvalues exceed the float range")
    pairings, mismatches = matching._pair_rows(eigs[:-1], eigs[-1])
    # ||A_n - H||_2 for each n, then ||H||_2, from one stacked SVD; unlike
    # the Frobenius norm it does not overflow for finite H
    *dists, norm_h = densemat._singular_values(
        np.concatenate((diffs, m[None])))[:, 0].tolist()
    k0 = len(dists) - 1
    while k0 > 0 and dists[k0 - 1] >= dists[k0]:
        k0 -= 1
    slack = 1e-12 * (1.0 + norm_h)
    monotone = all(mismatches[k] >= mismatches[k + 1] - slack
                   for k in range(k0, len(mismatches) - 1))
    return ContinuityReport(pairings=pairings, max_mismatch=mismatches,
                            monotone_tail=monotone)


def vieta_check(a) -> float:
    """Normalized gap between the eigenvalue product and the determinant.
    Raises ValueError where the product or the determinant passes the
    float range."""
    m = densemat.as_matrix(a)
    spec = spectral._spectrum(m)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = complex(np.prod(spec.values))
    if not np.isfinite(prod):
        raise ValueError("eigenvalue product passes the float range")
    d = densemat._det(m)
    return float(abs(prod - d) / (1.0 + abs(d)))


def _random_orthogonal(rng: np.random.Generator, count: int,
                       d: int) -> np.ndarray:
    """``count`` random orthogonal (d, d) matrices, as a (count, d, d) stack.

    Each is the Q factor of a Householder QR (LAPACK ``geqrf`` and
    ``orgqr``, one stacked call each, as in ``numpy.linalg.qr``) of a
    Gaussian draw, with every column multiplied by the sign of R's
    diagonal entry so that R's diagonal is positive (Mezzadri 2007, *How to
    generate random matrices from the classical compact groups*). That Q is
    the one Gram-Schmidt orthogonalization of the draw gives, and it is Haar
    distributed. A zero on the diagonal, from a rank-deficient draw, takes
    the sign +1, so Q stays orthogonal. The draw consumes the stream as
    ``count`` successive (d, d) draws would.
    """
    a = rng.standard_normal((count, d, d))
    # qr_r_raw overwrites a: R on and above the diagonal, reflectors below
    tau = _lapack(_umath_linalg.qr_r_raw, a)
    q = _lapack(_umath_linalg.qr_reduced, a, tau)
    return q * np.where(np.diagonal(a, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None]


def generate(cls: ConjugacyClass, conditioning: float = 1.0,
             seed: int = 0) -> np.ndarray:
    """Seeded hyperbolic matrix with the requested (s, u) class.

    Builds a block-diagonal core with stable real parts in [-2, -0.1] and
    unstable ones in [0.1, 2] (complex pairs become 2x2 rotation-scaling
    blocks), then conjugates by T = Q1 diag(sigma) Q2^T with sigma
    geometric from 1 to ``conditioning``, so that T has exactly the
    requested condition number. Q1 and Q2 are Haar-random orthogonal
    matrices, the sign-fixed Q factors of one stacked QR of Gaussian draws
    (Mezzadri 2007; see ``_random_orthogonal``). Raises ValueError when
    T core T^-1 passes the float range.
    """
    for name in ("s", "u", "d"):
        if not isinstance(getattr(cls, name), (int, np.integer)):
            raise InvalidClass(f"class field {name} must be an integer")
    if cls.s < 0 or cls.u < 0 or cls.s + cls.u != cls.d or cls.d < 1:
        raise InvalidClass(f"inconsistent class (s={cls.s}, u={cls.u}, d={cls.d})")
    if not 1.0 <= densemat._real(conditioning, "conditioning") < math.inf:
        raise ValueError("conditioning must be finite and >= 1")
    seed = densemat._count(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    d = cls.d
    core = np.zeros((d, d))
    at = 0
    for count, sign in ((int(cls.s), -1.0), (int(cls.u), 1.0)):
        pairs = int(rng.integers(0, count // 2 + 1))
        # the side's values in stream order: the real and imaginary part of
        # each pair, then each real eigenvalue
        values = rng.uniform(0.1, 2.0, size=count).tolist()
        for k in range(pairs):
            re, im = sign * values[2 * k], values[2 * k + 1]
            core[at:at + 2, at:at + 2] = [[re, im], [-im, re]]
            at += 2
        for re in values[2 * pairs:]:
            core[at, at] = sign * re
            at += 1
    q1, q2 = _random_orthogonal(rng, 2, d)
    # the exponents np.linspace(0, 1, d) gives, bit for bit: k/(d - 1) as
    # k * (1/(d - 1)), and 1 at the end
    step = 1.0 / max(d - 1, 1)
    exponents = [k * step for k in range(d)]
    if d > 1:
        exponents[-1] = 1.0
    sig = conditioning ** np.array(exponents)
    t = (q1 * sig) @ q2.T
    t_inv = (q2 / sig) @ q1.T
    with np.errstate(over="ignore", invalid="ignore"):
        a = t @ core @ t_inv
    if not np.isfinite(a).all():
        raise ValueError("generated matrix entries must be finite: "
                         "T core T^-1 passes the float range")
    return a


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


def _openness_trial(rng: np.random.Generator, i: int):
    """Inertia must never flip under a perturbation smaller than the margin."""
    d = int(rng.integers(2, 7))
    s = int(rng.integers(0, d + 1))
    cond = float(rng.uniform(1.0, 100.0))
    verdict = classify(generate(ConjugacyClass(s=s, u=d - s, d=d), cond,
                                _subseed(rng)))
    mr = _margin(verdict, tol=0.05)
    if mr.lower <= 0.0:
        return False, None
    report = _campaign(verdict, samples=1, radius=0.9 * mr.lower,
                       seed=_subseed(rng))
    return report.flips == 0, float(report.flips)


def _density_trial(rng: np.random.Generator, i: int):
    """hyperbolize must succeed with eps <= bound for bounds down to 1e-6."""
    kind = i % 4
    if kind == 0:
        a = np.array([[0.0, 1.0], [-1.0, 0.0]]) * rng.uniform(0.5, 2.0)
    elif kind == 1:
        a = np.array([[0.0, 1.0], [0.0, 0.0]]) * rng.uniform(0.5, 2.0)
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
        return False, None
    # (A + eps*I) - A only recovers eps*I up to rounding in A's entries
    shift_norm = densemat.op_norm2(result.shifted - a)
    ok = (result.epsilon <= bound
          and shift_norm <= bound + 1e-5 * tau
          and classify(result.shifted, tau).is_hyperbolic)
    return ok, shift_norm - result.epsilon


def _vieta_trial(rng: np.random.Generator, i: int):
    """Eigenvalue product must reproduce the determinant to 1e-8."""
    d = int(rng.integers(2, 9))
    disc = vieta_check(rng.standard_normal((d, d)))
    return disc <= 1e-8, disc


def _oracle_trial(rng: np.random.Generator, i: int):
    """LAPACK eigenvalues and char-poly roots must agree to 1e-6 under matching."""
    d = int(rng.integers(2, 9))
    a = rng.standard_normal((d, d))
    lapack_route = spectral.eigenvalues(a).values
    poly_route = spectral.poly_roots(spectral.char_poly(a)).values
    dist = matching.matched_distance(lapack_route, poly_route)
    return dist <= 1e-6, dist


# Each suite's trial and its default trial count.
SUITES = {
    "openness": (_openness_trial, 1000),
    "density": (_density_trial, 500),
    "vieta": (_vieta_trial, 1000),
    "oracle": (_oracle_trial, 1000),
}


def run_suite(name: str, seed: int = 1, trials: int | None = None) -> SuiteResult:
    """Run the verification suite ``name``, a key of SUITES.

    Trial i of ``trials`` (default: the suite's own count) draws from one
    Generator(PCG64(seed)) stream and returns (passed, value). ``worst`` is
    the largest value, starting from 0.0; a trial that fails before it has
    one (an openness trial without a positive margin, a density trial whose
    shift is too small) returns None and leaves ``worst`` alone.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite '{name}' "
                         f"(known: {', '.join(sorted(SUITES))})")
    trial, default = SUITES[name]
    seed = densemat._count(seed, "seed", 0)
    trials = densemat._count(default if trials is None else trials, "trials", 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    passed = 0
    worst = 0.0
    for i in range(trials):
        ok, value = trial(rng, i)
        passed += bool(ok)
        if value is not None:
            worst = max(worst, value)
    return SuiteResult(name, trials, passed, trials - passed, worst)
