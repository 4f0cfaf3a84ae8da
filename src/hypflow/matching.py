"""Minimum-weight perfect matching for comparing eigenvalue multisets.

Eigenvalue multisets have no canonical order, so equality and distance
questions are answered by finding the permutation that minimizes the total
pairwise distance. The Hungarian algorithm (potentials + augmenting paths,
O(n^3)) is plenty at the matrix sizes this package targets; it runs on
nested lists of Python floats, which index faster than numpy scalars.
Near the float maximum it runs on the costs divided by an exact power of
two. ``pair_values`` forms no total and refuses only a matched distance
past the float range.
"""

from __future__ import annotations

import numpy as np

from . import densemat
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


def _scale(peak: float, n: int) -> float:
    """The power of two that _hungarian's n x n costs, of largest |cost|
    ``peak``, are divided by. The potentials and reduced costs stay within
    (4n + 2) times ``peak``; past _MAX / (4n + 2) the loop runs on the
    costs divided by 2 ** (4n + 2).bit_length(), which makes the same
    comparisons without overflow."""
    return 1.0 if peak <= _MAX / (4 * n + 2) else 2.0 ** (4 * n + 2).bit_length()


def _pair_rows(avs: np.ndarray, bv: np.ndarray) -> tuple[list, list]:
    """``pair_values(avs[k], bv)`` for each row k of the finite complex
    (B, n) stack ``avs``, as (perms, max_distances); all B cost matrices
    come from one broadcast."""
    n = bv.shape[0]
    with np.errstate(over="ignore"):
        costs = np.abs(avs[:, :, None] - bv)
    peaks = costs.max(axis=(1, 2), initial=0.0).tolist()
    perms, dists = [], []
    for k, (cost, peak) in enumerate(zip(costs.tolist(), peaks)):
        # a distance between finite values overflows only past the float
        # maximum; such a row is paired at an exact quarter scale
        quarter = 1.0
        if peak == _INF:
            quarter = 4.0
            cost = np.abs(avs[k, :, None] / 4.0 - bv / 4.0)
            peak = float(cost.max())
            cost = cost.tolist()
        scale = _scale(peak, n)
        rows = cost if scale == 1.0 else [[x / scale for x in row] for row in cost]
        perm = _hungarian(rows, n)
        dist = max((cost[i][perm[i]] for i in range(n)), default=0.0) * quarter
        if dist == _INF:
            raise ValueError("matched distance exceeds the float range")
        perms.append(perm)
        dists.append(dist)
    return perms, dists


def pair_values(a, b) -> tuple[list[int], float]:
    """Optimally pair two equal-length lists of finite complex values.

    Returns (perm, max_distance): perm[i] is the index in ``b`` matched to
    ``a[i]`` and max_distance is the largest matched modulus distance. The
    pairing's total is not formed; a matched distance past the float range
    raises ValueError.
    """
    av = np.atleast_1d(densemat._entries(a, "value", complex))
    bv = np.atleast_1d(densemat._entries(b, "value", complex))
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
