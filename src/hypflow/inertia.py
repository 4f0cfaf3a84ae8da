"""Stable/unstable dimension counting and hyperbolicity classification.

A matrix is hyperbolic when every eigenvalue has nonzero real part. Counting
eigenvalues left and right of the imaginary axis partitions the hyperbolic
matrices into classes indexed by the stable dimension; two hyperbolic
matrices generate topologically equivalent flows exactly when those counts
agree, so the pair (s, u) is the whole classification.

Numerically a strict sign test at the axis is not decidable, so the counts
carry a tolerance band: eigenvalues with |Re| <= tau are reported in the
indeterminate count c, and a verdict of Hyperbolic additionally requires
every |Re lambda| to clear the band by the eigenvalue accuracy estimate.
That estimate is a backward error: the computed eigenvalues are exact for
some matrix that close to A. For a normal matrix they are then that close to
A's own; for a non-normal one they can be much farther. So Hyperbolic is not
a forward guarantee that rounding flipped no sign: a strongly non-normal
matrix can be called hyperbolic in a class other than its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import densemat, spectral
from .errors import DimensionMismatch, NotHyperbolic

HYPERBOLIC = "hyperbolic"
NON_HYPERBOLIC = "non_hyperbolic"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Inertia:
    """Counts of eigenvalues with Re < -tau (s), Re > tau (u), |Re| <= tau (c)."""

    s: int
    u: int
    c: int
    tau: float

    @property
    def d(self) -> int:
        return self.s + self.u + self.c


@dataclass(frozen=True)
class ConjugacyClass:
    """Stable/unstable split (s, u) of a hyperbolic matrix; s + u = d."""

    s: int
    u: int
    d: int


@dataclass(frozen=True, eq=False)
class Verdict:
    """Classification outcome: kind is one of the three module constants.

    ``witness`` is an on-axis eigenvalue for non-hyperbolic verdicts (the one
    with smallest |Re|, ties broken by |Im| then lexicographically), None
    otherwise. The spectrum and the validated ``matrix`` go with the verdict
    to the functions it is passed on to, so a request analyses its matrix
    once.
    """

    kind: str
    inertia: Inertia
    witness: complex | None
    spectrum: spectral.Spectrum
    matrix: np.ndarray = field(repr=False)

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == HYPERBOLIC


def default_tolerance(a) -> float:
    """Relative axis tolerance 1e-9 * (1 + ||A||_2), finite for every
    finite real or complex A.

    Where ||A||_2 passes the float range, the same value is formed as
    2**e * 1e-9 * (2**-e + ||2**-e A||_2), with A scaled by an exact power
    of two to entries whose real and imaginary parts are below 1 (as
    ``spectral.eigenvalues`` scales its residual bound). The scaling
    multiplies by 2**-e, which gives np.ldexp's bits on real entries and
    keeps the imaginary parts of complex ones.
    """
    norm = densemat.op_norm2(a)
    if norm < math.inf:
        return 1e-9 * (1.0 + norm)
    m = np.asarray(a)
    e = densemat._scale_exponent(m)
    scaled = densemat.op_norm2(m * 2.0 ** -e)
    return math.ldexp(1e-9 * (math.ldexp(1.0, -e) + scaled), e)


def inertia_of(spec: spectral.Spectrum, tau: float) -> Inertia:
    """Count eigenvalues left of, right of, and inside the axis band."""
    if not 0 <= densemat._real(tau, "tau") < np.inf:
        raise ValueError("tau must be finite and >= 0")
    re = np.real(np.asarray(spec.values))
    s = int(np.sum(re < -tau))
    u = int(np.sum(re > tau))
    return Inertia(s=s, u=u, c=len(re) - s - u, tau=tau)


def _witness(values: np.ndarray, tau: float) -> complex:
    on_axis = [complex(v) for v in values if abs(v.real) <= tau]
    on_axis.sort(key=lambda v: (abs(v.real), abs(v.imag), v.real, v.imag))
    return on_axis[0]


def classify(a, tau: float | None = None) -> Verdict:
    """Three-valued hyperbolicity verdict for a square real matrix.

    Hyperbolic requires every |Re lambda| to clear tau by more than the
    eigenvalue accuracy estimate; NonHyperbolic means some |Re lambda| <= tau
    (a witness is attached); anything in between is Indeterminate. tau
    defaults to ``default_tolerance(A)``, the only use of ||A||_2 here.
    Raises ValueError when an eigenvalue passes the float range.
    """
    m = densemat.as_matrix(a)
    if tau is None:
        tau = default_tolerance(m)
    spec = spectral.eigenvalues(m)
    # a finite matrix can have eigenvalues past the float maximum (up to
    # d times it); LAPACK returns them as inf, which no report can carry
    if not np.isfinite(spec.values).all():
        raise ValueError("eigenvalues exceed the float range")
    inr = inertia_of(spec, tau)
    kind, witness = INDETERMINATE, None
    if inr.c > 0:
        kind, witness = NON_HYPERBOLIC, _witness(spec.values, tau)
    elif np.min(np.abs(spec.values.real)) > tau + spec.residual_bound:
        kind = HYPERBOLIC
    return Verdict(kind=kind, inertia=inr, witness=witness, spectrum=spec,
                   matrix=m)


def conjugacy_class(a, tau: float | None = None) -> ConjugacyClass:
    """The (s, u) class of a hyperbolic matrix; NotHyperbolic otherwise."""
    verdict = classify(a, tau)
    if not verdict.is_hyperbolic:
        raise NotHyperbolic(f"matrix classified as {verdict.kind}")
    inr = verdict.inertia
    return ConjugacyClass(s=inr.s, u=inr.u, d=inr.d)


def same_class(a, b, tau: float | None = None) -> bool:
    """Whether two hyperbolic matrices lie in the same (s, u) class.

    By the classical classification of linear hyperbolic flows this decides
    whether e^{tA} and e^{tB} are topologically conjugate.
    """
    ca, cb = conjugacy_class(a, tau), conjugacy_class(b, tau)
    if ca.d != cb.d:
        raise DimensionMismatch(f"dimension mismatch: {ca.d} vs {cb.d}")
    return (ca.s, ca.u) == (cb.s, cb.u)
