"""The linear flow e^{tH}: matrix exponential, trajectories, invariant
subspaces, and 2-D phase portraits as SVG documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densemat, spectral
from .errors import (DimensionMismatch, NonAscendingGrid, NotHyperbolic,
                     UnsupportedDimension)
from .inertia import classify, default_tolerance

# degree-13 diagonal Pade numerator/denominator coefficients for exp
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)

_EPS = float(np.finfo(float).eps)

SVG_SIZE = 600
SVG_PAD = 30.0
# splitting squares H for a complex cluster, and applies its rank tolerance
# 1e-10*(1 + ||H||) to unit vectors: a matrix with an entry of at least
# 2**_SPLIT_EXP is first scaled by an exact power of two to entries below 1,
# which keeps the subspaces.
_SPLIT_EXP = 20

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


def _orthonormal_columns(cols: np.ndarray, rank_tol: float) -> np.ndarray:
    """Column-pivoted modified Gram-Schmidt; keeps columns above rank_tol."""
    work = [cols[:, j].astype(float).copy() for j in range(cols.shape[1])]
    basis: list[np.ndarray] = []
    while work:
        norms = [float(np.linalg.norm(v)) for v in work]
        idx = int(np.argmax(norms))
        if norms[idx] <= rank_tol:
            break
        v = work.pop(idx)
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
        nrm = float(np.linalg.norm(v))
        if nrm <= rank_tol:
            continue
        v /= nrm
        basis.append(v)
        work = [w - (v @ w) * v for w in work]
    if not basis:
        return np.zeros((cols.shape[0], 0))
    return np.column_stack(basis)


def _cluster_eigenvalues(values: list[complex], ctol: float):
    """Group a half-plane's eigenvalues with their conjugates by proximity."""
    remaining = list(values)
    clusters = []
    while remaining:
        v = remaining.pop(0)
        members = [v]
        rest = []
        for w in remaining:
            if abs(w - v) <= ctol or abs(w - v.conjugate()) <= ctol:
                members.append(w)
            else:
                rest.append(w)
        remaining = rest
        clusters.append(members)
    return clusters


def _generalized_eigenspace(m: np.ndarray, cluster: list[complex],
                            rank_tol: float) -> np.ndarray:
    """Kernel basis of the (possibly quadratic) cluster factor raised to the
    cluster multiplicity, extracted through the Gram matrix eigenvectors."""
    d = m.shape[0]
    k = len(cluster)
    re = float(np.mean([v.real for v in cluster]))
    im = float(np.mean([abs(v.imag) for v in cluster]))
    ctol_im = 1e-8 * (1.0 + abs(re) + im)
    norm_m = float(np.linalg.norm(m))
    if im <= ctol_im:
        factor = m - re * np.eye(d)
        fscale = norm_m + abs(re)
    else:
        factor = m @ m - 2.0 * re * m + (re * re + im * im) * np.eye(d)
        fscale = norm_m * norm_m + 2.0 * abs(re) * norm_m + re * re + im * im
    fnorm = float(np.linalg.norm(factor))
    if fnorm <= 1e-12 * fscale:
        # the factor annihilates everything: the cluster spans the whole space
        return np.eye(d)[:, :k]
    factor = factor / fnorm
    power = factor
    for _ in range(k - 1):
        power = power @ factor
    gram = power.T @ power
    vals, vecs = spectral.hermitian_eig_vectors(gram)
    kernel = np.real(vecs[:, :k])
    sigma_last = math.sqrt(max(float(vals[k - 1]), 0.0))
    if sigma_last > 1e-6:
        raise ArithmeticError(
            f"eigenspace extraction failed: kernel direction has residual {sigma_last:.2e}"
        )
    return kernel


def splitting(h, tau: float | None = None) -> SplittingBases:
    """Orthonormal bases of the stable/unstable generalized eigenspace sums.

    Eigenvalues are clustered (conjugates together), each cluster contributes
    the kernel of its real factor raised to the cluster multiplicity, and the
    per-side union is orthonormalized by column-pivoted Gram-Schmidt. The
    resulting spans are invariant under H and have dimensions (s, u).
    A matrix with an entry of 2**20 or more is first scaled by an exact
    power of two to entries below 1, so that squaring it cannot overflow
    and its tolerances stay meaningful.
    """
    m = densemat.as_matrix(h)
    if tau is None:
        tau = default_tolerance(m)
    verdict = classify(m, tau)
    if not verdict.is_hyperbolic:
        raise NotHyperbolic(f"matrix classified as {verdict.kind}")
    amax = float(np.max(np.abs(m)))
    e = math.frexp(amax)[1] if amax >= 2.0 ** _SPLIT_EXP else 0
    m = np.ldexp(m, -e)
    tau = math.ldexp(tau, -e)
    values = [complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e))
              for v in verdict.spectrum.values]
    scale = 1.0 + float(np.linalg.norm(m))
    ctol = 1e-6 * scale
    rank_tol = 1e-10 * scale
    d = m.shape[0]
    bases = {}
    for side, keep in (("stable", lambda v: v.real < -tau),
                       ("unstable", lambda v: v.real > tau)):
        side_vals = [v for v in values if keep(v)]
        if not side_vals:
            bases[side] = np.zeros((d, 0))
            continue
        pieces = [_generalized_eigenspace(m, cluster, rank_tol)
                  for cluster in _cluster_eigenvalues(side_vals, ctol)]
        merged = _orthonormal_columns(np.hstack(pieces), rank_tol)
        if merged.shape[1] != len(side_vals):
            raise ArithmeticError(
                f"{side} subspace has dimension {merged.shape[1]}, "
                f"expected {len(side_vals)}"
            )
        bases[side] = merged
    inv_tol = 1e-8 * max(1.0, float(np.linalg.norm(m)))
    for basis in bases.values():
        if basis.shape[1]:
            proj = basis @ (basis.T @ (m @ basis))
            if float(np.linalg.norm(m @ basis - proj)) > inv_tol:
                raise ArithmeticError("extracted subspace is not invariant")
    return SplittingBases(stable=bases["stable"], unstable=bases["unstable"])


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
        split = splitting(m, tau)
        for basis, css, color in ((split.stable, "stable", STABLE_COLOR),
                                  (split.unstable, "unstable", UNSTABLE_COLOR)):
            for j in range(basis.shape[1]):
                v = basis[:, j]
                length = 3.0 * half
                a = to_svg(-length * v)
                b = to_svg(length * v)
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
