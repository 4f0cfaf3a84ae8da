"""The linear flow e^{tH}: matrix exponential, trajectories, invariant
subspaces, and 2-D phase portraits as SVG documents.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import densemat, spectral
from .densemat import _lapack, _umath_linalg
from .errors import (DimensionMismatch, FlowOverflow, NonAscendingGrid,
                     NonConvergence, NotHyperbolic, UnsupportedDimension)
from .inertia import Verdict, classify

# degree-13 diagonal Pade numerator/denominator coefficients for exp
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)

_EPS = float(np.finfo(float).eps)
_MAX = float(np.finfo(float).max)

SVG_SIZE = 600
SVG_PAD = 30.0
# Newton steps the sign iteration in splitting may take before giving up
_MAX_SIGN_STEPS = 64

TRAJECTORY_COLOR = "#1f77b4"
STABLE_COLOR = "#2ca02c"
UNSTABLE_COLOR = "#d62728"


@dataclass(eq=False)
class Trajectory:
    """Sampled flow states x(t_k) = e^{t_k H} x0 on an ascending time grid."""

    times: np.ndarray
    states: np.ndarray
    origin: np.ndarray


@dataclass(eq=False)
class SplittingBases:
    """Orthonormal bases for the stable and unstable invariant subspaces."""

    stable: np.ndarray
    unstable: np.ndarray


def _halvings(norm: float, d: int) -> int:
    """How often to halve a d x d matrix of 2-norm ``norm`` to reach 1/2."""
    if norm <= 0.5:
        return 0
    if norm <= _MAX / 2:
        return math.ceil(math.log2(norm / 0.5))
    # norm / 0.5 would overflow (norm is inf where the SVD did), but
    # ||M||_2 <= d * max|m_ij| < d * 2^1024
    return 1025 + math.ceil(math.log2(d))


def expm_many(stack) -> np.ndarray:
    """Matrix exponentials of a (B, d, d) stack by scaling and squaring with
    a degree-13 Pade core.

    Each matrix is halved j times until its 2-norm is at most 1/2, the Pade
    approximant is evaluated there for the whole stack with one stacked
    solve, and each result is squared its own j times back. A matrix whose
    Frobenius norm certifies the 2-norm below 1/2 takes j = 0 outright; the
    others take their 2-norms from one stacked SVD.
    Stacked LAPACK and BLAS calls run the same routine on each matrix, so
    every result is bit for bit the exponential of that matrix alone.
    Raises FlowOverflow, naming the first matrix of the stack, where a
    computed exponential passes the float range.
    """
    ms = densemat._entries(stack, "matrix")
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2] or ms.shape[1] == 0:
        raise DimensionMismatch(
            f"expected a (B, d, d) stack, got shape {ms.shape}")
    return _expm_many(ms)


def _expm_many(ms: np.ndarray) -> np.ndarray:
    """``expm_many`` of a validated (B, d, d) float64 stack."""
    d = ms.shape[1]
    # ||M||_2 <= ||M||_F. The computed Frobenius norm is within a relative
    # (d^2 + 2) eps/2 of the true one (d^2 squares, their sum and the root;
    # underflow loses far less near 1/2), and LAPACK's largest singular
    # value within a small multiple of d eps of ||M||_2. Below the margin
    # 16 (d^2 + 2) eps, which covers both, the SVD would give a norm of at
    # most 1/2, so j = 0 without it.
    with np.errstate(over="ignore"):
        fro = np.sqrt(np.einsum("bij,bij->b", ms, ms))
    svd = ~(fro < 0.5 * (1.0 - 16.0 * (d * d + 2) * _EPS))
    j = np.zeros(len(ms), dtype=int)
    if svd.any():
        j[svd] = [_halvings(n, d) for n in
                  densemat._singular_values(ms[svd])[:, 0].tolist()]
    ms = np.ldexp(ms, -j[:, None, None])
    eye = np.eye(d)
    b = _PADE13
    m2 = ms @ ms
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = ms @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
              + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * eye)
    x = _lapack(_umath_linalg.solve, v - u, v + u)
    # squarings that overflow leave inf or nan entries, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(j.max(initial=0))):
            more = j > k
            x[more] = x[more] @ x[more]
    finite = np.isfinite(x).all(axis=(1, 2))
    if not finite.all():
        raise FlowOverflow(f"the exponential of stack matrix "
                           f"{np.argmin(finite)} passes the float range")
    return x


def expm(a) -> np.ndarray:
    """Matrix exponential of one matrix: ``expm_many`` on a stack of one."""
    return _expm_many(densemat.as_matrix(a)[None])[0]


def _state(x0, d: int) -> np.ndarray:
    """Validate a start point of a flow in dimension d."""
    x = densemat._entries(x0, "x0").reshape(-1)
    if x.shape[0] != d:
        raise DimensionMismatch(
            f"state has dimension {x.shape[0]}, matrix is {d}x{d}"
        )
    return x


def _grid(t_grid) -> np.ndarray:
    """Validate a time grid: nonempty, real, finite, strictly ascending."""
    times = densemat._entries(t_grid, "time grid").reshape(-1)
    if times.size == 0:
        raise NonAscendingGrid("time grid must be nonempty")
    if np.any(times[1:] <= times[:-1]):
        raise NonAscendingGrid("time grid must be strictly ascending")
    return times


def _advance(m: np.ndarray, x: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``trajectory``'s states e^{tH} x on a validated grid, for one state x
    of shape (d,) or a (k, d, 1) stack of them: a stacked matrix-vector
    product runs the same BLAS kernel on each vector, so each start point
    of a stack moves exactly as it would alone."""
    reuse_tol = 4.0 * _EPS * float(np.max(np.abs(times)))
    lead = int(times[0] != 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.diff(times)
        # where every step lies within reuse_tol of the first, the loop
        # below would keep that first step alone
        if diffs.size and np.abs(diffs - diffs[0]).max() <= reuse_tol:
            dts, which = diffs[:1].tolist(), [0] * diffs.size
        else:
            dts, which = [], []
            for dt in diffs.tolist():
                if not dts or abs(dt - dts[-1]) > reuse_tol:
                    dts.append(dt)
                which.append(len(dts) - 1)
        gens = np.array([times[0]] * lead + dts)[:, None, None] * m
        finite = np.isfinite(gens).all(axis=(1, 2))
        gens[~finite] = 0.0  # a stand-in: its first time is refused below
        try:
            mats = _expm_many(gens)
        except FlowOverflow:
            # each matrix alone gets its bits in the stack; nan marks one
            # whose exponential passes the float range
            mats = np.full_like(gens, np.nan)
            for k in range(len(gens)):
                with contextlib.suppress(FlowOverflow):
                    mats[k] = _expm_many(gens[k:k + 1])[0]
        finite &= np.isfinite(mats).all(axis=(1, 2))
        # a bound dot is the cheapest call for one state; a stack needs matmul
        steps = [s.dot if x.ndim == 1 else functools.partial(np.matmul, s)
                 for s in mats[lead:]]
        states = np.empty(times.shape + x.shape)
        states[0] = mats[0] @ x if lead else x
        rows = list(states)
        for prev, row, i in zip(rows, rows[1:], which):
            steps[i](prev, out=row)
        fine = np.isfinite(states).reshape(times.size, -1).all(axis=1)
    # a state is only as good as the matrix that made it
    if not finite.all():
        if lead:
            fine[0] &= finite[0]
        fine[1:] &= finite[lead:][which]
    if not fine.all():
        t = float(times[np.argmin(fine)])
        raise FlowOverflow(f"the flow leaves the float range at t = {t!r}")
    return states


def flow_map(h, t: float, x0) -> np.ndarray:
    """Evaluate e^{tH} x0 at the single time ``t``."""
    if np.size(t) != 1:
        raise ValueError("t must be a single time")
    m = densemat.as_matrix(h)
    return _advance(m, _state(x0, m.shape[0]), _grid(t))[0]


def trajectory(h, x0, t_grid) -> Trajectory:
    """Sample the flow on a strictly ascending grid of finite times.

    The step matrix e^{dt H} is reused while the step stays within
    4*eps*max|t| of the step it was computed for, the rounding that the
    differences of a uniform grid carry. All step matrices, and e^{t0 H}
    when t0 != 0, come from one ``expm_many`` call, so a uniform grid costs
    a single exponential plus matrix-vector products. FlowOverflow names
    the first time whose state, or the matrix that makes it (dt*H
    included), leaves the float range.
    """
    m = densemat.as_matrix(h)
    x = _state(x0, m.shape[0])
    times = _grid(t_grid)
    return Trajectory(times=times, states=_advance(m, x, times), origin=x)


def _split(verdict: Verdict) -> SplittingBases:
    """Bases of a matrix that ``verdict`` found hyperbolic."""
    m, inr = verdict.matrix, verdict.inertia
    d, s = m.shape[0], inr.s
    e = math.frexp(float(np.max(np.abs(m))))[1]
    x = a = np.ldexp(m, -e)
    last = math.inf
    # an overflowing or undefined step shows as a non-finite norm below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_SIGN_STEPS):
            scaled = last > 1e-2
            try:
                inv = _lapack(_umath_linalg.inv, x)
                mu = (math.exp(-_lapack(_umath_linalg.slogdet, x)[1] / d)
                      if scaled else 1.0)
            except (np.linalg.LinAlgError, OverflowError) as exc:
                raise NonConvergence(f"singular sign step: {exc}") from None
            new = 0.5 * (mu * x + inv / mu)
            norm = float(np.abs(new).sum(axis=0).max())
            if not 0.0 < norm < math.inf:
                raise NonConvergence("sign iteration left the finite range")
            update = float(np.abs(new - x).sum(axis=0).max()) / norm
            if not scaled and update >= last:
                break
            x, last = new, update
            if update <= d * _EPS:
                break
        else:
            raise NonConvergence(f"sign unsettled after {_MAX_SIGN_STEPS} steps")
    # left singular vectors of 2*P_s and 2*P_u; the factor 2 moves none
    u = _lapack(_umath_linalg.svd_f, np.eye(d) + np.stack((-x, x)))[0]
    u *= np.sign(np.take_along_axis(u, np.argmax(np.abs(u), axis=1)[:, None], 1))
    q = np.hstack((u[0][:, :s], u[1][:, :d - s]))
    # H on each basis at once: the eigenvalues of diag(Bs' H Bs, -Bu' H Bu)
    r = q.T @ a @ q
    r[:s, s:] = r[s:, :s] = 0.0
    r[s:, s:] *= -1.0
    if spectral.eigenvalues_many(r).real.max() >= -math.ldexp(inr.tau, -e):
        raise NonConvergence("sign iteration settled on a wrong split")
    return SplittingBases(stable=q[:, :s], unstable=q[:, s:])


def splitting(h, tau: float | None = None) -> SplittingBases:
    """Orthonormal bases of the stable/unstable generalized eigenspace sums.

    They span the ranges of (I - S)/2 and (I + S)/2, S the sign function,
    which H has exactly when it is hyperbolic (Higham 2008, ch. 5). Newton
    steps X <- (mu X + (mu X)^-1)/2 start at H scaled by an exact power of
    two to entries below 1; mu = |det X|^(-1/d) while the relative 1-norm
    update exceeds 1e-2, then 1, until an update of d*eps or one that stops
    shrinking (the iterate before it is kept). The bases are the leading s
    and u left singular vectors of the projectors, (s, u) from ``classify``,
    each column flipped to make its largest-magnitude entry (the first, on
    a tie) positive. NonConvergence: a singular or non-finite step, no stop
    in _MAX_SIGN_STEPS steps, or a split that H does not keep (which can
    happen near conditioning 1e8).
    """
    verdict = classify(h, tau)
    if not verdict.is_hyperbolic:
        raise NotHyperbolic(f"matrix classified as {verdict.kind}")
    return _split(verdict)


def _fmt(v: float) -> str:
    return format(v, ".6g")


def portrait(h, x0_set, t_range=(0.0, 3.0), steps: int = 200,
             tau: float | None = None) -> str:
    """Render 2-D flow trajectories (plus subspace lines when hyperbolic) as
    an SVG 1.1 document; output bytes are deterministic for fixed inputs.

    A metadata comment carries the (s, u, d, tau) annotation so the
    qualitative class is machine-readable from the document alone.
    """
    return _portrait(h, x0_set, t_range, steps, tau)[0]


def _portrait(h, x0_set, t_range, steps, tau) -> tuple[str, Verdict]:
    """``portrait``'s document and the verdict it annotates.

    All start points advance as one stack on the grid, so a portrait makes
    one ``expm_many`` call and classifies once.
    """
    verdict = classify(h, tau)
    m = verdict.matrix
    if m.shape[0] != 2:
        raise UnsupportedDimension("portraits are only drawn for 2x2 matrices")
    steps = densemat._count(steps, "steps", 1)
    t0 = densemat._real(t_range[0], "t_range")
    t1 = densemat._real(t_range[1], "t_range")
    if not t1 > t0:
        raise NonAscendingGrid("t_range must satisfy t0 < t1")
    xs = np.array([_state(x0, 2) for x0 in x0_set]).reshape(-1, 2, 1)
    # a range wider than the float range makes non-finite times, refused
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(t0, t1, steps + 1)
    states = _advance(m, xs, _grid(grid))[..., 0]
    pts = states.reshape(-1, 2) if len(xs) else np.zeros((1, 2))
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    half = 0.55 * float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if half <= 0.0:
        half = 1.0
    span = SVG_SIZE - 2.0 * SVG_PAD

    def to_svg(xy):
        sx = SVG_PAD + (xy[..., 0] - (center[0] - half)) / (2.0 * half) * span
        sy = SVG_PAD + ((center[1] + half) - xy[..., 1]) / (2.0 * half) * span
        return sx, sy

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<!-- meta s={verdict.inertia.s} u={verdict.inertia.u} d=2 '
        f'tau={format(verdict.inertia.tau, ".17g")} -->',
    ]
    if verdict.is_hyperbolic:
        split = _split(verdict)
        for basis, css, color in ((split.stable, "stable", STABLE_COLOR),
                                  (split.unstable, "unstable", UNSTABLE_COLOR)):
            for v in basis.T:
                a, b = to_svg(-3.0 * half * v), to_svg(3.0 * half * v)
                lines.append(
                    f'<line class="{css}" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                    f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
    # one %-format per polyline over its interleaved (x, y) row; "%.6g" % v
    # is format(v, ".6g")
    coords = " ".join(["%.6g,%.6g"] * len(grid))
    xy = np.stack(to_svg(states.swapaxes(0, 1)), axis=-1)
    for row in xy.reshape(len(xs), 2 * len(grid)).tolist():
        lines.append(
            f'<polyline fill="none" stroke="{TRAJECTORY_COLOR}" '
            f'stroke-width="1" points="{coords % tuple(row)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n", verdict
