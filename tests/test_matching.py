import ast
import itertools
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflow import matching
from hypflow.errors import DimensionMismatch

from conftest import child_env
from oracles import min_weight_assignment_numpy


def hungarian(cost):
    """matching._hungarian on ``cost`` divided by matching._scale, the call
    _pair_rows makes: assignment[i] is the column matched to row i."""
    c = np.asarray(cost, dtype=float)
    n = c.shape[0]
    scale = matching._scale(float(np.abs(c).max(initial=0.0)), n)
    return matching._hungarian((c / scale).tolist(), n)


def brute_force_min_cost(cost):
    n = cost.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i][perm[i]] for i in range(n))
        if best is None or total < best:
            best = total
    return best


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 5))
def test_assignment_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 10.0, size=(n, n))
    assignment = hungarian(cost)
    assert sorted(assignment) == list(range(n))
    total = sum(cost[i][assignment[i]] for i in range(n))
    assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


def test_assignment_prefers_diagonal():
    assert hungarian(np.array([[0.0, 5.0], [5.0, 0.0]])) == [0, 1]


def test_pair_values_exact_permutation(rng):
    vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    shuffled = vals[rng.permutation(6)]
    perm, dist = matching.pair_values(vals, shuffled)
    assert dist == 0.0
    np.testing.assert_array_equal(vals, shuffled[perm])


def test_pair_values_reports_max_distance():
    a = [0.0 + 0j, 1.0 + 0j]
    b = [0.1 + 0j, 1.0 + 0j]
    _, dist = matching.pair_values(a, b)
    assert dist == pytest.approx(0.1)


def test_pair_values_length_mismatch():
    with pytest.raises(DimensionMismatch):
        matching.pair_values([1.0], [1.0, 2.0])


def run_apart(call):
    """stdout of ``call`` (or of the ValueError it raises) in a fresh
    interpreter that turns warnings into errors; a hang fails the test."""
    code = ("import warnings; warnings.simplefilter('error'); "
            "from hypflow import matching, robustness\n"
            f"try:\n    print({call})\nexcept ValueError as exc:\n"
            "    print(exc)")
    env = child_env()
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("call, message", [
    ("matching.pair_values([1e308], [-1e308])",
     "matched distance exceeds the float range"),
    ("robustness.continuity_check([[1e308]], [[[-1e308]]])",
     "matrix entries must be finite"),
    ("matching.pair_values([1.0, float('nan')], [0.0, 1.0])",
     "value entries must be finite"),
], ids=["overflowing_distance", "overflowing_continuity",
        "nan_value"])
def test_non_finite_cost_refused_promptly(call, message):
    # an inf or nan cost never selects a column, so the Hungarian loop spun
    # forever; run apart to survive a hang. The distance 2e308 used to be
    # refused as a cost entry, which the caller never gave, and so was a
    # nan value.
    assert run_apart(call) == message + "\n"


def optimal_at_an_eighth(cost, assignment):
    """Whether ``assignment`` has the least total of the costs (n <= 5, near
    the float maximum) divided by 8, where every total is finite."""
    eighth = np.asarray(cost) / 8.0
    total = sum(eighth[i][assignment[i]] for i in range(len(eighth)))
    return total == brute_force_min_cost(eighth)


NEAR_MAX = [
    [[5e307, -1.797e308], [5e307, 1.797e308]],
    [[1.797e308, 1.7e308], [5e307, -1.7e308]],
    [[-1.7e308, 5e307], [5e307, 1.7e308]],
    [[1e308, -1e308], [1.797e308, -1.797e308]],
    [[5e307, -1e308, -1.797e308], [1e308, -1.7e308, 5e307],
     [1.797e308, -1.7e308, -1e308]],
    [[-1.797e308, -1e308, -1.7e308, 1e308],
     [0.0, 1.797e308, -1.797e308, 1.797e308],
     [1e308, 1e308, -1.7e308, 1.797e308],
     [-1.797e308, -1.7e308, -1e308, 5e307]],
    [[1.7e308, 1.7e308], [1.7e308, 1.7e308]],
]


@pytest.mark.parametrize("cost", NEAR_MAX, ids=range(len(NEAR_MAX)))
def test_near_max_costs_assign_optimally(cost):
    # the potentials overflowed: warnings escaped on each, the loop hung on
    # the fourth and fifth and the sixth came out non-optimal
    n = len(cost)
    scale = matching._scale(float(np.abs(cost).max()), n)
    out = run_apart(f"matching._hungarian([[x / {scale!r} for x in row] "
                    f"for row in {cost!r}], {n})")
    assignment = ast.literal_eval(out)
    assert sorted(assignment) == list(range(n))
    assert optimal_at_an_eighth(cost, assignment)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 5))
def test_near_max_assignment_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(-1.0, 1.0, size=(n, n)) * np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assignment = hungarian(cost)
        assert optimal_at_an_eighth(cost, assignment)


def test_pair_values_near_max():
    # the cross distances 2e308 overflowed and were refused as costs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perm, dist = matching.pair_values([1e308, -1e308], [-1e308, 1e308])
        assert (perm, dist) == ([1, 0], 0.0)
        near = np.nextafter(1e308, 0.0)
        perm, dist = matching.pair_values([1e308, -1e308], [-1e308, near])
        assert (perm, dist) == ([1, 0], 1e308 - near)
        a = [1e308 + 1e308j, -1e308]
        b = [-1e308 + 1e307j, 1e308 + 9e307j]
        perm, dist = matching.pair_values(a, b)
        # an unused assignment total of 2e308 refused this pairing
        assert (matching.pair_values([1e308, -1e308], [0.0, 0.0])
                == ([0, 1], 1e308))
    assert perm == [1, 0]
    assert dist == pytest.approx(max(abs(a[0] - b[1]), abs(a[1] - b[0])),
                                 rel=1e-15)


def optimal_pairings(a, b):
    """Every pairing of the values a and b (n <= 5) whose summed distance,
    taken at an exact 64th (where five distances of complex values sum
    below the float maximum), is least up to rounding; each as (perm,
    largest distance at a 64th)."""
    cost = np.abs(np.asarray(a)[:, None] / 64.0
                  - np.asarray(b)[None, :] / 64.0).tolist()
    n = len(a)
    perms = [(p, [cost[i][p[i]] for i in range(n)])
             for p in itertools.permutations(range(n))]
    best = min(sum(d) for _, d in perms)
    return [(list(p), max(d)) for p, d in perms
            if sum(d) <= best * (1.0 + 1e-12)]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 5),
       parts=st.sampled_from(["real", "complex"]))
def test_near_max_pairing_matches_brute_force(seed, n, parts):
    rng = np.random.default_rng(seed)
    top = np.finfo(float).max

    def draw():
        v = rng.uniform(-1.0, 1.0, n) * top
        if parts == "complex":
            v = v + 1j * rng.uniform(-1.0, 1.0, n) * top
        return v

    a, b = draw(), draw()
    best = optimal_pairings(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            perm, dist = matching.pair_values(a, b)
        except ValueError as exc:
            # refused only when a least pairing, the one chosen among ties,
            # matches two values more than the float maximum apart
            assert str(exc) == "matched distance exceeds the float range"
            assert any(peak > top / 64.0 for _, peak in best)
            return
    peaks = {tuple(p): peak for p, peak in best}
    assert tuple(perm) in peaks
    assert dist == pytest.approx(64.0 * peaks[tuple(perm)], rel=1e-15)


def square(entries):
    """n x n nested lists drawn from ``entries``, n in 1..6."""
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def numpy_loop_assignment(cost):
    """The numpy loop's assignment. Where it refuses the total, which it
    does only on costs it divides by 2**bit_length(4n + 2), it is asked for
    the assignment of the costs so divided, on which it runs the same
    loop."""
    try:
        return min_weight_assignment_numpy(cost)[0]
    except ValueError:
        n = len(cost)
        scaled = np.asarray(cost) / 2.0 ** (4 * n + 2).bit_length()
        return min_weight_assignment_numpy(scaled)[0]


@settings(max_examples=300, deadline=None)
@given(cost=st.one_of(
    square(st.floats(-1e300, 1e300)),
    square(st.sampled_from([0.0, 1.0, 2.0])),
    st.sampled_from(NEAR_MAX)))
def test_assignment_matches_numpy_loop(cost):
    # the loop on Python floats makes the numpy loop's subtractions and
    # comparisons in the same order: the same assignment, ties included
    assert hungarian(cost) == numpy_loop_assignment(cost)


def test_empty_value_lists_pair_at_distance_zero():
    # max() of no distances raised a bare ValueError
    assert matching.pair_values([], []) == ([], 0.0)
    assert matching.matched_distance([], []) == 0.0


def test_pair_values_of_a_matrix_refused():
    # a 2-D value array used to reach the assignment as a (2, 2, 2) cost
    with pytest.raises(DimensionMismatch, match="values must form a list"):
        matching.pair_values(np.eye(2), np.eye(2))
