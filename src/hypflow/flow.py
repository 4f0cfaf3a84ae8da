"""The linear flow e^{tH}: matrix exponential, trajectories, invariant
subspaces, and 2-D phase portraits as SVG documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densemat
from .errors import (DimensionMismatch, NonAscendingGrid, NonConvergence,
                     NotHyperbolic, UnsupportedDimension)
from .inertia import Inertia, classify, default_tolerance

# degree-13 diagonal Pade numerator/denominator coefficients for exp
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)

_EPS = float(np.finfo(float).eps)

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


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-13 Pade core.

    The input is halved j times until its norm is at most 1/2, the Pade
    approximant is evaluated there, and the result squared j times back.
    """
    m = densemat.as_matrix(a)
    norm = densemat.op_norm2(m)
    j = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    ms = m / (2.0 ** j)
    d = m.shape[0]
    eye = np.eye(d)
    b = _PADE13
    m2 = ms @ ms
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = ms @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
              + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * eye)
    x = densemat.solve(v - u, v + u)
    for _ in range(j):
        x = x @ x
    return x


def flow_map(h, t: float, x0) -> np.ndarray:
    """Evaluate e^{tH} x0."""
    m = densemat.as_matrix(h)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"state has dimension {x.shape[0]}, matrix is {m.shape[0]}x{m.shape[0]}"
        )
    return expm(t * m) @ x


def trajectory(h, x0, t_grid) -> Trajectory:
    """Sample the flow on a strictly ascending time grid.

    The last step matrix e^{dt H} is reused while the step stays within
    4*eps*max|t| of the step it was computed for, the rounding that the
    differences of a uniform grid carry; so a uniform grid costs a single
    exponential plus matrix-vector products.
    """
    m = densemat.as_matrix(h)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"state has dimension {x.shape[0]}, matrix is {m.shape[0]}x{m.shape[0]}"
        )
    times = np.asarray(t_grid, dtype=float).reshape(-1)
    if times.size == 0:
        raise NonAscendingGrid("time grid must be nonempty")
    if np.any(np.diff(times) <= 0):
        raise NonAscendingGrid("time grid must be strictly ascending")
    states = np.empty((times.size, m.shape[0]))
    current = x if times[0] == 0.0 else expm(times[0] * m) @ x
    states[0] = current
    reuse_tol = 4.0 * _EPS * float(np.max(np.abs(times)))
    step, step_dt = None, 0.0
    for k in range(1, times.size):
        dt = float(times[k] - times[k - 1])
        if step is None or abs(dt - step_dt) > reuse_tol:
            step, step_dt = expm(dt * m), dt
        current = step @ current
        states[k] = current
    return Trajectory(times=times, states=states, origin=x)


def _split(m: np.ndarray, inr: Inertia) -> SplittingBases:
    """Bases of a matrix that ``classify`` found hyperbolic with inertia inr."""
    d, s = m.shape[0], inr.s
    e = math.frexp(float(np.max(np.abs(m))))[1]
    x = a = np.ldexp(m, -e)
    last = math.inf
    # an overflowing or undefined step shows as a non-finite norm below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_SIGN_STEPS):
            scaled = last > 1e-2
            try:
                inv = np.linalg.inv(x)
                mu = math.exp(-np.linalg.slogdet(x)[1] / d) if scaled else 1.0
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
    u = np.linalg.svd(np.eye(d) + np.stack((-x, x)))[0]
    u *= np.sign(np.take_along_axis(u, np.argmax(np.abs(u), axis=1)[:, None], 1))
    q = np.hstack((u[0][:, :s], u[1][:, :d - s]))
    # H on each basis at once: the eigenvalues of diag(Bs' H Bs, -Bu' H Bu)
    r = q.T @ a @ q
    r[:s, s:] = r[s:, :s] = 0.0
    r[s:, s:] *= -1.0
    if np.linalg.eigvals(r).real.max() >= -math.ldexp(inr.tau, -e):
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
    m = densemat.as_matrix(h)
    if tau is None:
        tau = default_tolerance(m)
    verdict = classify(m, tau)
    if not verdict.is_hyperbolic:
        raise NotHyperbolic(f"matrix classified as {verdict.kind}")
    return _split(m, verdict.inertia)


def _fmt(v: float) -> str:
    return format(v, ".6g")


def portrait(h, x0_set, t_range=(0.0, 3.0), steps: int = 200,
             tau: float | None = None) -> str:
    """Render 2-D flow trajectories (plus subspace lines when hyperbolic) as
    an SVG 1.1 document; output bytes are deterministic for fixed inputs.

    A metadata comment carries the (s, u, d, tau) annotation so the
    qualitative class is machine-readable from the document alone.
    """
    m = densemat.as_matrix(h)
    if m.shape[0] != 2:
        raise UnsupportedDimension("portraits are only drawn for 2x2 matrices")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t1 > t0:
        raise NonAscendingGrid("t_range must satisfy t0 < t1")
    if tau is None:
        tau = default_tolerance(m)
    verdict = classify(m, tau)
    grid = np.linspace(t0, t1, steps + 1)
    trajs = [trajectory(m, x0, grid).states for x0 in x0_set]
    pts = np.vstack(trajs) if trajs else np.zeros((1, 2))
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    half = 0.55 * float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if half <= 0.0:
        half = 1.0
    span = SVG_SIZE - 2.0 * SVG_PAD

    def to_svg(xy):
        sx = SVG_PAD + (xy[0] - (center[0] - half)) / (2.0 * half) * span
        sy = SVG_PAD + ((center[1] + half) - xy[1]) / (2.0 * half) * span
        return sx, sy

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<!-- meta s={verdict.inertia.s} u={verdict.inertia.u} d=2 '
        f'tau={format(tau, ".17g")} -->',
    ]
    if verdict.is_hyperbolic:
        split = _split(m, verdict.inertia)
        for basis, css, color in ((split.stable, "stable", STABLE_COLOR),
                                  (split.unstable, "unstable", UNSTABLE_COLOR)):
            for v in basis.T:
                a, b = to_svg(-3.0 * half * v), to_svg(3.0 * half * v)
                lines.append(
                    f'<line class="{css}" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                    f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
    for states in trajs:
        coords = " ".join(
            f"{_fmt(sx)},{_fmt(sy)}" for sx, sy in (to_svg(p) for p in states)
        )
        lines.append(
            f'<polyline fill="none" stroke="{TRAJECTORY_COLOR}" '
            f'stroke-width="1" points="{coords}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
