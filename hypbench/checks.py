"""Independent checks of hypflow's answers.

Nothing here imports hypflow.  Distances come from numpy's SVD and from
Byers' (1988) bisection on a Hamiltonian matrix with ``numpy.linalg.eigvals``;
matrix exponentials and matchings come from scipy.  Every ``check_*``
function returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import re

import numpy as np


def svd_sigma_min(h, omega: float) -> float:
    """sigma_min(H - i*omega*I) by numpy's SVD."""
    h = np.asarray(h, dtype=float)
    sv = np.linalg.svd(h - 1j * omega * np.eye(h.shape[0]), compute_uv=False)
    return float(sv[-1])


def open_class(h) -> tuple[int, int, float]:
    """(s, u, min |Re lambda|) from numpy's eigenvalues."""
    re_parts = np.real(np.linalg.eigvals(np.asarray(h, dtype=float)))
    return (int(np.sum(re_parts < 0)), int(np.sum(re_parts > 0)),
            float(np.min(np.abs(re_parts))))


def _has_axis_eigenvalue(h: np.ndarray, gamma: float, scale: float) -> bool:
    d = h.shape[0]
    eye = np.eye(d)
    ham = np.block([[h, -gamma * eye], [gamma * eye, -h.T]])
    re_parts = np.real(np.linalg.eigvals(ham))
    return float(np.min(np.abs(re_parts))) <= 1e-9 * scale


def byers_bracket(h, rel: float = 1e-12) -> tuple[float, float]:
    """Bracket [lo, hi] on the distance from H to the non-hyperbolic set.

    gamma >= distance exactly when [[H, -gamma I], [gamma I, -H^T]] has an
    eigenvalue on the imaginary axis (Byers 1988); bisect on gamma from
    [0, sigma_min(H)] until the bracket is ``rel`` of its upper end wide.
    """
    h = np.asarray(h, dtype=float)
    lo, hi = 0.0, svd_sigma_min(h, 0.0)
    scale = 1.0 + float(np.linalg.norm(h, 2))
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _has_axis_eigenvalue(h, mid, scale + mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def check_margin(h, lower: float, upper: float, omega: float) -> list[str]:
    """``upper`` is sigma_min(H - i*omega*I) and lower <= distance <= upper."""
    problems = []
    smin = svd_sigma_min(h, omega)
    if abs(upper - smin) > 1e-8 * smin:
        problems.append(f"upper {upper!r} != SVD sigma_min {smin!r} "
                        f"at omega {omega!r}")
    lo, hi = byers_bracket(h)
    if not 0.0 <= lower <= hi * (1.0 + 1e-9):
        problems.append(f"lower {lower!r} not in [0, distance {hi!r}]")
    if upper < lo * (1.0 - 1e-8):
        problems.append(f"upper {upper!r} below distance {lo!r}")
    return problems


def recount_flips(h, samples: int, radius: float, seed: int,
                  base: tuple[int, int]) -> int:
    """Inertia flips over hypflow's documented perturbation recipe.

    Sample i draws a Gaussian direction from PCG64(seed ^ i), scaled to
    operator norm radius * (1 - U) with U uniform in [0, 1); the class is
    read from numpy's eigenvalues.
    """
    h = np.asarray(h, dtype=float)
    d = h.shape[0]
    flips = 0
    for i in range(samples):
        rng = np.random.Generator(np.random.PCG64(seed ^ i))
        g = rng.standard_normal((d, d))
        frac = 1.0 - rng.random()
        e = g * (radius * frac / float(np.linalg.norm(g, 2)))
        s, u, min_re = open_class(h + e)
        if (s, u) != base or min_re == 0.0:
            flips += 1
    return flips


def check_campaign(h, cls: tuple[int, int], lower: float, base, flips: int,
                   samples: int, radius: float, seed: int) -> list[str]:
    """Base class as built, and no flip below ``lower`` (the paper's theorem)."""
    problems = []
    s, u = cls
    if tuple(base) != (s, u, 0):
        problems.append(f"base inertia {tuple(base)} != built class ({s}, {u}, 0)")
    if not 0.0 < radius < lower:
        problems.append(f"radius {radius!r} not inside (0, lower {lower!r})")
    if flips:
        problems.append(f"{flips} flips below the margin")
    recount = recount_flips(h, samples, radius, seed, (s, u))
    if recount:
        problems.append(f"{recount} independent flips below the margin")
    return problems


def bottleneck_distance(a, b) -> float:
    """Smallest t such that a perfect matching of a and b uses only pairs
    at distance <= t (scipy's assignment solver on a 0/1 cost)."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dist = np.abs(a[:, None] - b[None, :])
    levels = np.unique(dist)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        cost = (dist > levels[mid]).astype(float)
        rows, cols = linear_sum_assignment(cost)
        if cost[rows, cols].sum() == 0.0:
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def check_continuity(h, sequence, max_mismatch, pairings) -> list[str]:
    """Each min-sum matching's largest distance lies in [b, d*b], b the
    bottleneck distance between numpy's eigenvalues of H and of A_n."""
    problems = []
    h = np.asarray(h, dtype=float)
    d = h.shape[0]
    if len(max_mismatch) != len(sequence) or len(pairings) != len(sequence):
        return [f"{len(max_mismatch)} mismatches for {len(sequence)} matrices"]
    eig_h = np.linalg.eigvals(h)
    for n, (a, mm, perm) in enumerate(zip(sequence, max_mismatch, pairings), 1):
        if sorted(perm) != list(range(d)):
            problems.append(f"n={n}: pairing {perm} is not a permutation")
        a = np.asarray(a, dtype=float)
        b = bottleneck_distance(np.linalg.eigvals(a), eig_h)
        slack = 1e-8 * (1.0 + float(np.linalg.norm(h)) + float(np.linalg.norm(a)))
        if not b - slack <= mm <= d * b + slack:
            problems.append(f"n={n}: max_mismatch {mm!r} outside "
                            f"[{b!r}, {d} * {b!r}]")
    return problems


def check_flow_csv(text: str, h, x0, times) -> list[str]:
    """Every CSV row equals expm(t H) x0 to 1e-10 of ||e^{tH}|| ||x0||."""
    from scipy.linalg import expm

    h = np.asarray(h, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    d = h.shape[0]
    lines = text.splitlines()
    header = "t," + ",".join(f"x{i + 1}" for i in range(d))
    if not lines or lines[0] != header:
        return [f"bad CSV header {lines[:1]}"]
    if len(lines) - 1 != len(times):
        return [f"{len(lines) - 1} CSV rows for {len(times)} times"]
    problems = []
    x0_norm = float(np.linalg.norm(x0))
    for k, (line, t) in enumerate(zip(lines[1:], map(float, times))):
        row = [float(v) for v in line.split(",")]
        if len(row) != d + 1 or row[0] != t:
            problems.append(f"row {k}: bad time or width in {line[:60]!r}")
            continue
        e = expm(t * h)
        err = float(np.linalg.norm(np.asarray(row[1:]) - e @ x0))
        if err > 1e-10 * float(np.linalg.norm(e, 2)) * x0_norm:
            problems.append(f"row {k} (t={t!r}): error {err:.3e}")
    return problems


_META = re.compile(r"<!-- meta s=(\d+) u=(\d+) d=2 ")


def check_portrait(svg: str, stdout: str, cls: tuple[int, int],
                   seeds: int) -> list[str]:
    """The SVG's s/u metadata and subspace lines match the built class."""
    s, u = cls
    problems = []
    meta = _META.search(svg)
    if meta is None or (int(meta.group(1)), int(meta.group(2))) != (s, u):
        problems.append(f"metadata {meta.group(0) if meta else None!r} "
                        f"!= s={s} u={u}")
    stable = svg.count('<line class="stable"')
    unstable = svg.count('<line class="unstable"')
    if (stable, unstable) != (s, u):
        problems.append(f"{stable} stable / {unstable} unstable lines "
                        f"!= {s} / {u}")
    if svg.count("<polyline") != seeds:
        problems.append(f"{svg.count('<polyline')} trajectories != {seeds}")
    if stdout.strip() != f"s={s} u={u}":
        problems.append(f"stdout {stdout.strip()!r} != 's={s} u={u}'")
    return problems
