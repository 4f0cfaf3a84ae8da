"""Minimum-weight perfect matching for comparing eigenvalue multisets.

Eigenvalue multisets have no canonical order, so equality and distance
questions are answered by finding the permutation that minimizes the total
pairwise distance. The Hungarian algorithm (potentials + augmenting paths,
O(n^3)) is plenty at the matrix sizes this package targets; it runs on
nested lists of Python floats, which index faster than numpy scalars.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

_INF = float("inf")
_MAX = float(np.finfo(float).max)


def _hungarian(rows: list, n: int) -> list[int]:
    """Least-total assignment of the n x n costs ``rows`` (nested lists of
    finite Python floats, every |cost| at most _MAX / (4n + 2)):
    assignment[i] is the column matched to row i."""
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = rows[i0 - 1]
            ui = u[i0]
            delta = _INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        if p[j] > 0:
            assignment[p[j] - 1] = j - 1
    return assignment


def min_weight_assignment(cost) -> tuple[list[int], float]:
    """Solve the square assignment problem for a cost matrix.

    Returns (assignment, total) where assignment[i] is the column matched to
    row i and total is the summed cost of the matching. Raises ValueError
    when that total leaves the float range.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"cost matrix must be square, got {c.shape}")
    # an inf or nan reduced cost is never the least, so no column is chosen
    if not np.all(np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    n = c.shape[0]
    # The potentials and reduced costs stay within (4n + 2) times the
    # largest |cost|. Near the float maximum they run on the costs divided
    # by a power of two, which makes the same comparisons without overflow.
    scale = 1.0
    if np.abs(c).max(initial=0.0) > _MAX / (4 * n + 2):
        scale = 2.0 ** (4 * n + 2).bit_length()
        c = c / scale
    rows = c.tolist()
    assignment = _hungarian(rows, n)
    # left to right, on every Python: from 3.12 sum() over floats is
    # compensated, which can give another total
    total = 0.0
    for i, j in enumerate(assignment):
        total += rows[i][j]
    total *= scale
    if math.isinf(total):
        raise ValueError("assignment total exceeds the float range")
    return assignment, total


def _pair_rows(avs: np.ndarray, bv: np.ndarray) -> tuple[list, list]:
    """``pair_values(avs[k], bv)`` for each row k of the complex (B, n)
    stack ``avs``, as (perms, max_distances); all B cost matrices come from
    one broadcast."""
    n = bv.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        costs = np.abs(avs[:, :, None] - bv)
        peaks = costs.max(axis=(1, 2), initial=0.0).tolist()
    limit = _MAX / (4 * n + 2)
    perms, dists = [], []
    for k, cost in enumerate(costs.tolist()):
        # below the limit min_weight_assignment would not scale (a nan
        # peak fails the test too)
        if peaks[k] <= limit:
            perm = _hungarian(cost, n)
            dist = max((cost[i][perm[i]] for i in range(n)), default=0.0)
        else:
            perm, dist = _pair_near_max(avs[k], bv, costs[k])
        perms.append(perm)
        dists.append(dist)
    return perms, dists


def _pair_near_max(av: np.ndarray, bv: np.ndarray,
              cost: np.ndarray) -> tuple[list[int], float]:
    """``pair_values`` where a distance passes _MAX / (4n + 2) or is not
    finite."""
    # a distance between finite values overflows only past the float
    # maximum; pair those values at an exact quarter scale. A non-finite
    # value is refused by min_weight_assignment.
    scale = 1.0
    if np.isinf(cost).any() and np.isfinite(av).all() and np.isfinite(bv).all():
        scale = 4.0
        cost = np.abs(av[:, None] / scale - bv[None, :] / scale)
    perm, _ = min_weight_assignment(cost)
    max_dist = float(max(cost[i][perm[i]] for i in range(len(av)))) * scale
    if math.isinf(max_dist):
        raise ValueError("matched distance exceeds the float range")
    return perm, max_dist


def pair_values(a, b) -> tuple[list[int], float]:
    """Optimally pair two equal-length complex value lists.

    Returns (perm, max_distance): perm[i] is the index in ``b`` matched to
    ``a[i]`` and max_distance is the largest matched modulus distance.
    """
    av = np.atleast_1d(np.asarray(a, dtype=complex))
    bv = np.atleast_1d(np.asarray(b, dtype=complex))
    if av.shape != bv.shape:
        raise DimensionMismatch(
            f"cannot pair {len(av)} values with {len(bv)} values"
        )
    if av.ndim != 1:
        raise DimensionMismatch(f"values must form a list, got shape {av.shape}")
    (perm,), (max_dist,) = _pair_rows(av[None], bv)
    return perm, max_dist


def matched_distance(a, b) -> float:
    """Largest pairwise distance under the optimal matching of two multisets."""
    _, dist = pair_values(a, b)
    return dist
