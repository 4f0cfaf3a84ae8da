"""Bottleneck matching for comparing eigenvalue multisets.

Eigenvalue multisets have no canonical order, so equality and distance
questions are answered by the optimal matching distance, the least over
permutations pi of max_i |a_i - b_pi(i)| (Bhatia, *Matrix Analysis*, 1997,
ch. VI): the measure in which eigenvalues move continuously with the
matrix. The pairing minimizes that largest distance by a bottleneck search
that compares distances and never adds them, so a distance past the float
range is just inf, and ``pair_values`` refuses only a pairing whose least
largest distance is inf.
"""

from __future__ import annotations

import numpy as np

from . import densemat
from .errors import DimensionMismatch


def _bottleneck(cost: list, order: list,
                level: float) -> tuple[list[int], float]:
    """(perm, largest): a pairing of the n x n costs ``cost`` (nested lists
    of Python floats, inf allowed) whose largest cost is least; perm[i] is
    the column paired with row i and ``largest`` that least largest cost.
    ``order[i]`` lists the columns by ascending ``cost[i]``, and ``level``
    must not exceed the least largest cost.

    Rows join one at a time, each by a breadth-first search for an
    alternating path (Kuhn) over the costs at most ``level`` that ends at
    an unpaired column; every row tries its nearest columns first. Where
    no path exists, no pairing of the rows so far stays within ``level``,
    which rises to the least cost from a row the search reached to a column
    it did not: the next level at which the search reaches further.
    """
    n = len(cost)
    perm = [-1] * n  # perm[i]: the column paired with row i
    owner = [-1] * n  # owner[j]: the row paired with column j
    for i in range(n):
        end = -1
        while end < 0:
            parent = [-1] * n  # parent[j]: the row the search reached j from
            rows = [i]
            for r in rows:  # rows grows as the search reaches paired columns
                row = cost[r]
                for j in order[r]:
                    if row[j] > level:
                        break
                    if parent[j] < 0:
                        parent[j] = r
                        if owner[j] < 0:
                            end = j
                            break
                        rows.append(owner[j])
                if end >= 0:
                    break
            else:
                level = min(c for r in rows
                            for c, p in zip(cost[r], parent) if p < 0)
        while end >= 0:
            r = parent[end]
            owner[end] = r
            perm[r], end = end, perm[r]
    return perm, level


def _pair_rows(avs: np.ndarray, bv: np.ndarray) -> tuple[list, list]:
    """``pair_values(avs[k], bv)`` for each row k of the finite complex
    (B, n) stack ``avs``, as (perms, max_distances); all B distance
    matrices, their column orders and their floors come from whole-stack
    calls."""
    with np.errstate(over="ignore"):
        costs = np.abs(avs[:, :, None] - bv)
    # every value is paired at its least distance or above; most rows have
    # a pairing at the largest of these floors
    floors = np.maximum(
        costs.min(axis=2, initial=np.inf).max(axis=1, initial=0.0),
        costs.min(axis=1, initial=np.inf).max(axis=1, initial=0.0))
    orders = np.argsort(costs, axis=2, kind="stable").tolist()
    perms, dists = [], []
    for cost, order, floor in zip(costs.tolist(), orders, floors.tolist()):
        perm, dist = _bottleneck(cost, order, floor)
        if dist == np.inf:
            raise ValueError("matched distance exceeds the float range")
        perms.append(perm)
        dists.append(dist)
    return perms, dists


def pair_values(a, b) -> tuple[list[int], float]:
    """Pair two equal-length lists of finite complex values so that the
    largest matched distance is least.

    Returns (perm, max_distance): perm[i] is the index in ``b`` paired with
    ``a[i]`` and max_distance is the largest matched modulus distance, the
    optimal matching distance of the two multisets. Among pairings that
    reach it, the result is fixed by the order of the values. A
    max_distance past the float range raises ValueError.
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
    """The optimal matching distance of two multisets: the least, over
    pairings, of the largest matched distance."""
    _, dist = pair_values(a, b)
    return dist
