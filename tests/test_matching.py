import ast
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
from oracles import bottleneck_pairings

TOP = float(np.finfo(float).max)


def assert_bottleneck_optimum(a, b):
    """pair_values(a, b), with warnings as errors, against the brute-force
    optimal matching distance: the same distance and one of the pairings
    that reach it, or the refusal exactly when that distance is inf."""
    best, optima = bottleneck_pairings(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            perm, dist = matching.pair_values(a, b)
        except ValueError as exc:
            assert str(exc) == "matched distance exceeds the float range"
            assert best == np.inf
            return
    assert dist == best
    assert perm in optima


def draw_values(rng, n, scale, parts):
    """n values uniform in (-scale, scale), in both parts if complex."""
    v = rng.uniform(-1.0, 1.0, n) * scale
    if parts == "complex":
        v = v + 1j * rng.uniform(-1.0, 1.0, n) * scale
    return v


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 6),
       parts=st.sampled_from(["real", "complex"]))
def test_assignment_matches_brute_force(seed, n, parts):
    rng = np.random.default_rng(seed)
    a = draw_values(rng, n, 10.0, parts)
    # b near a shuffle of a, so that near and far pairings compete
    b = a[rng.permutation(n)] + draw_values(rng, n, 2.0, parts)
    assert_bottleneck_optimum(a, b)


def test_assignment_prefers_diagonal():
    assert matching.pair_values([0.0, 5.0], [0.0, 5.0]) == ([0, 1], 0.0)
    assert matching.pair_values([5.0, 0.0], [0.0, 5.0]) == ([1, 0], 0.0)


def test_pairing_minimises_the_largest_distance():
    # the least-total pairing matches -1j exactly and 1+1j with -2-2j, at
    # a largest distance 3*sqrt(2); the crossed pairing keeps both at sqrt(5)
    perm, dist = matching.pair_values([-1j, 1 + 1j], [-1j, -2 - 2j])
    assert perm == [1, 0]
    assert dist == abs(1 + 2j)


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
    # an inf or nan cost never selected a column of the Hungarian loop
    # that paired these before, which spun forever; run apart to survive a
    # hang. The distance 2e308 used to be refused as a cost entry, which
    # the caller never gave, and so was a nan value.
    assert run_apart(call) == message + "\n"


# Value lists whose distances reach or pass the float maximum, on which the
# Hungarian loop that paired them before overflowed its potentials: warnings
# escaped, some loops hung and some pairings were not optimal.
NEAR_MAX = [
    ([0.0, -1e308], [5e307, 1e308]),
    ([-1e308, 0.0], [5e307, 1e308]),
    ([1.7e308, 1.7e308], [1.7e308, 1.7e308]),
    ([1e308, -1e308], [1.797e308, -1.797e308]),
    ([5e307, -1e308, -1.797e308], [1.797e308, -1.7e308, -1e308]),
    ([-1.797e308, 1.797e308, 1e308, -1.7e308],
     [0.0, -1.797e308, 1e308, 5e307]),
    ([1.7e308 + 1.7e308j, -1.7e308j], [-1.7e308 + 1e308j, 1e308 - 1.7e308j]),
]


@pytest.mark.parametrize("a, b", NEAR_MAX, ids=range(len(NEAR_MAX)))
def test_near_max_costs_assign_optimally(a, b):
    best, optima = bottleneck_pairings(a, b)
    out = run_apart(f"matching.pair_values({a!r}, {b!r})")
    if best == np.inf:
        assert out == "matched distance exceeds the float range\n"
        return
    perm, dist = ast.literal_eval(out)
    assert dist == best
    assert perm in optima


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 6))
def test_near_max_assignment_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    assert_bottleneck_optimum(draw_values(rng, n, TOP, "real"),
                              draw_values(rng, n, TOP, "real"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 6))
def test_near_max_pairing_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    assert_bottleneck_optimum(draw_values(rng, n, TOP, "complex"),
                              draw_values(rng, n, TOP, "complex"))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 6),
       pool=st.sampled_from([[0.0, 1.0, 2.0], [0.0, 1j, -1j],
                             [1e308, -1e308, 0.0]]))
def test_repeated_values_match_brute_force(data, n, pool):
    # tied pairings abound, and some reach a distance past the float range
    # while others stay in it
    values = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    assert_bottleneck_optimum(data.draw(values), data.draw(values))


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
        # an unused assignment total of 2e308 refused this pairing; both
        # pairings reach the distance 1e308
        tied = matching.pair_values([1e308, -1e308], [0.0, 0.0])
    assert perm == [1, 0]
    assert dist == pytest.approx(max(abs(a[0] - b[1]), abs(a[1] - b[0])),
                                 rel=1e-15)
    perm, dist = tied
    assert dist == 1e308
    assert perm in bottleneck_pairings([1e308, -1e308], [0.0, 0.0])[1]


def test_empty_value_lists_pair_at_distance_zero():
    # max() of no distances raised a bare ValueError
    assert matching.pair_values([], []) == ([], 0.0)
    assert matching.matched_distance([], []) == 0.0


@pytest.mark.parametrize("a", [[0.0, -1e308], [-1e308, 0.0]],
                         ids=["in_order", "swapped"])
def test_tied_total_pairs_at_least_largest_distance(a):
    # the least-total pairings tie at 1.5e308 + inf in both orders; the
    # Hungarian loop kept the one that matches -1e308 with 1e308 in the
    # first order and refused it as past the float range
    b = [5e307, 1e308]
    perm, dist = matching.pair_values(a, b)
    assert dist == 1.5e308
    assert dict(zip(a, (b[j] for j in perm))) == {0.0: 1e308, -1e308: 5e307}


def test_pair_values_of_a_matrix_refused():
    # a 2-D value array used to reach the assignment as a (2, 2, 2) cost
    with pytest.raises(DimensionMismatch, match="values must form a list"):
        matching.pair_values(np.eye(2), np.eye(2))
