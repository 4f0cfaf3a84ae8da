import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflow import matching
from hypflow.errors import DimensionMismatch


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
    assignment, total = matching.min_weight_assignment(cost)
    assert sorted(assignment) == list(range(n))
    assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


def test_assignment_prefers_diagonal():
    cost = np.array([[0.0, 5.0], [5.0, 0.0]])
    assignment, total = matching.min_weight_assignment(cost)
    assert assignment == [0, 1]
    assert total == 0.0


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


def test_nonsquare_cost_rejected():
    with pytest.raises(DimensionMismatch):
        matching.min_weight_assignment(np.ones((2, 3)))


@pytest.mark.parametrize("call, message", [
    ("matching.min_weight_assignment([[float('nan')]])", "cost entries"),
    ("matching.pair_values([1e308], [-1e308])", "cost entries"),
    ("robustness.continuity_check([[1e308]], [[[-1e308]]])", "matrix entries"),
], ids=["nan_cost", "overflowing_distance", "overflowing_continuity"])
def test_non_finite_cost_refused_promptly(call, message):
    # an inf or nan cost never selects a column, so the Hungarian loop spun
    # forever; run apart to survive a hang
    code = ("import warnings; warnings.simplefilter('error'); "
            "from hypflow import matching, robustness\n"
            f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{message} must be finite\n"
