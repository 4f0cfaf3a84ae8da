import dataclasses
import functools
import hashlib
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hypflow import cli, densemat, inertia, matching, robustness, spectral
from hypflow.errors import (DimensionMismatch, InvalidClass, NonConvergence,
                            NotHyperbolic, ShiftTooSmall)
from hypflow.inertia import ConjugacyClass

from conftest import (FLOAT_RANGE_EDGES, child_env, fail_like_lapack,
                      write_matrix)
from oracles import (bottleneck_pairings, byers_distance, campaign_recount,
                     grid_distance_oracle, gram_schmidt_orthogonal,
                     refined_grid_distance, svd_sigma_min)

BLOCK = robustness._CAMPAIGN_BLOCK
EPS = float(np.finfo(float).eps)


def shear(k):
    return np.array([[-0.5, k, 0.0], [0.0, -0.5, k], [0.0, 0.0, -0.5]])


# Matrices on which the frequency-scan margin failed. On the first three its
# scan missed a narrow global minimum, so lower came out above the distance;
# on the shears, whose distance 0.125/K^2 is far below the absolute tol, it
# returned lower = 0; on the d = 2 pair its upper sat off the SVD value. The
# d = 2 pair also needs margin's sqrt(2d*eps)-wide axis test: with a test of
# about 100*d*eps*||H|| the first gets a lower above the distance.
MARGIN_FAULTS = {
    "campaign_4x4": np.array([
        [12.939804063564738, 9.327397651042356, 5.009742866711864,
         -3.069741356574859],
        [-15.391822297970245, -10.51149423194942, -6.755742816290114,
         3.752691713325863],
        [-9.351338311272345, -5.910618513749779, -3.7773273293903844,
         2.4201488497421977],
        [1.3851190004642144, 2.0640512360723116, 0.5443876111981448,
         0.5439928680705591],
    ]),
    "openness_d6": robustness.generate(ConjugacyClass(2, 4, 6),
                                       95.7903024532026, 1944551509),
    "openness_d5": robustness.generate(ConjugacyClass(2, 3, 5),
                                       68.55936318182472, 832228786),
    "openness_d2_unstable": robustness.generate(ConjugacyClass(0, 2, 2),
                                                90.43903691381396, 446629766),
    "openness_d2_stable": robustness.generate(ConjugacyClass(2, 0, 2),
                                              83.03137364943834, 776262900),
    "shear_1e3": shear(1e3),
    "shear_1e4": shear(1e4),
}


class TestHyperbolize:
    def test_rotation_all_on_axis(self):
        r = robustness.hyperbolize(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                   tau=1e-9, eps_cap=0.5)
        assert r.epsilon == 0.5
        # no eigenvalue is off the axis; delta was inf
        assert r.delta is None
        v = inertia.classify(r.shifted, 1e-9)
        assert v.kind == inertia.HYPERBOLIC
        assert (v.inertia.s, v.inertia.u) == (0, 2)

    def test_half_gap(self):
        r = robustness.hyperbolize(np.diag([0.0, -3.0]), eps_cap=10.0)
        assert r.delta == pytest.approx(3.0)
        assert r.epsilon == pytest.approx(1.5)
        vals = sorted(spectral.eigenvalues(r.shifted).values.real)
        assert vals == pytest.approx([-1.5, 1.5])
        inr = inertia.classify(r.shifted).inertia
        assert (inr.s, inr.u) == (1, 1)

    def test_inertia_preserved_for_hyperbolic_input(self):
        r = robustness.hyperbolize(np.diag([-1.0, 2.0]), eps_cap=10.0)
        assert r.delta == pytest.approx(1.0)
        assert r.epsilon == pytest.approx(0.5)
        inr = inertia.classify(r.shifted).inertia
        assert (inr.s, inr.u) == (1, 1)

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_default_cap_clears_a_large_tolerance(self, scale):
        # the default tau is 1e-9*(1 + ||A||), at least 1 from ||A|| = 1e9
        a = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])
        tau = inertia.default_tolerance(a)
        r = robustness.hyperbolize(a)
        assert r.epsilon > tau
        assert inertia.classify(r.shifted, tau).is_hyperbolic

    def test_eps_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            robustness.hyperbolize(np.eye(2), eps_cap=0.0)

    @pytest.mark.parametrize("eps_cap", [np.nan, np.inf])
    def test_eps_cap_must_be_finite(self, eps_cap):
        # these used to return an all-nan or inf shifted matrix
        with pytest.raises(ValueError, match="eps_cap must be finite"):
            robustness.hyperbolize(np.zeros((2, 2)), eps_cap=eps_cap)

    @pytest.mark.parametrize("a, tau", [
        ([[1.0, 0.0], [0.0, -1.0]], np.nan),  # used to return [[2, 0], [0, 0]]
        ([[0.0]], -1.0),                      # used to return epsilon = 0
        ([[0.0]], np.inf)])
    def test_bad_tau_rejected(self, a, tau):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            robustness.hyperbolize(a, tau)

    def test_shift_too_small(self):
        with pytest.raises(ShiftTooSmall):
            robustness.hyperbolize(np.zeros((2, 2)), tau=1e-3, eps_cap=1e-6)

    def test_shift_beyond_float_range_refused(self):
        # tau is about 1.8e299, so no eps that clears it keeps the sum finite;
        # the shifted matrix came back with an inf entry after "overflow
        # encountered in add"
        a = np.array([[np.finfo(float).max, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^shifted matrix entries must "
                               r"be finite: A \+ eps\*I passes the float range$"):
                robustness.hyperbolize(a)

    def test_density_construction_sweep(self):
        result = robustness.run_suite("density", seed=7, trials=120)
        assert result.failed == 0


class TestMargin:
    def test_normal_matrix_equals_min_real_part(self):
        m = robustness.margin(np.diag([-1.0, 2.0]), tol=1e-6)
        assert m.upper == pytest.approx(1.0, abs=1e-6)
        assert m.lower == pytest.approx(m.upper - 1e-6)
        assert m.omega_star == pytest.approx(0.0, abs=1e-3)

    def test_non_hyperbolic_returns_zeros(self):
        m = robustness.margin(np.array([[0.0, 1.0], [-1.0, 0.0]]), tol=1e-6)
        assert (m.lower, m.upper, m.omega_star, m.iterations) == (0, 0, 0, 0)

    def test_shear_margin_far_below_eigenvalue_gap(self):
        # strong shear: eigenvalue real parts are -1 but a tiny perturbation
        # already creates an imaginary-axis eigenvalue
        j = np.array([[-1.0, 100.0], [0.0, -1.0]])
        m = robustness.margin(j, tol=1e-6)
        brute = grid_distance_oracle(j, densemat.op_norm2(j))
        assert m.upper < 0.02
        assert m.upper == pytest.approx(brute, abs=1e-5)
        # rank-one certificate: subtracting sigma_min * u v^H makes it singular
        u_, s_, vt_ = np.linalg.svd(j)
        e = -s_[-1] * np.outer(u_[:, -1], vt_[-1, :])
        assert abs(densemat.det(j + e)) < 1e-12
        assert densemat.op_norm2(e) == pytest.approx(m.upper, abs=1e-5)

    def test_upper_is_reproducible_at_omega_star(self, rng):
        for _ in range(5):
            a = robustness.generate(ConjugacyClass(2, 2, 4), 10.0,
                                    int(rng.integers(0, 2 ** 31)))
            m = robustness.margin(a, tol=1e-6)
            g = spectral.sigma_min(a - 1j * m.omega_star * np.eye(4))
            assert abs(g - m.upper) <= 1e-10

    def test_agrees_with_bisection_oracle(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            s = int(rng.integers(0, d + 1))
            a = robustness.generate(ConjugacyClass(s, d - s, d),
                                    conditioning=float(rng.uniform(1, 20)),
                                    seed=int(rng.integers(0, 2 ** 31)))
            m = robustness.margin(a, tol=1e-6)
            ref = byers_distance(a, tol=1e-8)
            assert abs(m.upper - ref) <= 2e-6

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            robustness.margin(np.diag([-1.0, 2.0]), tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_tol_must_be_positive(self, tol):
        # nan used to pass as the clipped maximum 1/4
        with pytest.raises(ValueError, match="tol must be > 0"):
            robustness.margin(np.diag([-1.0, 2.0]), tol=tol)

    @pytest.mark.parametrize("k", [1e3, 1e4])
    def test_upper_bounds_the_distance_for_a_strong_shear(self, k):
        # the distance is about 0.125/K^2, near eps*||J||^2: a sigma_min
        # taken through J^H J rounds it down below the distance or to 0
        j = shear(k)
        m = robustness.margin(j)
        ref = svd_sigma_min(j - 1j * m.omega_star * np.eye(3))
        assert m.upper == pytest.approx(ref, rel=1e-8)
        assert m.upper >= 0.99 * 0.125 / k ** 2

    def test_terminates_at_large_frequencies(self):
        # near omega = 3e11 adjacent floats are farther apart than tol, so a
        # bracket can never reach width tol; run apart to survive a hang
        code = ("from hypflow import margin; "
                "r = margin([[-1e4, 3e11], [-3e11, -1e4]]); "
                "print(r.lower, r.upper)")
        env = child_env()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lower, upper = map(float, proc.stdout.split())
        assert 0.0 < lower < upper == pytest.approx(1e4, rel=1e-6)

    @pytest.mark.parametrize("name", MARGIN_FAULTS)
    def test_recorded_faults_are_bracketed(self, name):
        h = MARGIN_FAULTS[name]
        m = robustness.margin(h)
        distance = refined_grid_distance(h)
        assert 0.0 < m.lower <= distance <= m.upper * (1.0 + 1e-8)

    @pytest.mark.filterwarnings("error")
    def test_crossing_midpoint_near_the_float_maximum(self, capfd, tmp_path):
        # hyperbolic (2, 1) with ||A||_2 = 1.44e308, so margin brackets A
        # itself: the midpoint (lo + hi) / 2 of two crossings near 1e308
        # was inf, LAPACK printed DLASCL errors on A - i*inf*I, and margin
        # gave up after 64 levels
        a = np.array([[-1e-100, -0.5, -8.9e307], [8.9e307, -1e-160, 1e300],
                      [8.9e307, -8.9e307, -1e-160]])
        m = robustness.margin(a)
        ref = robustness.margin(np.ldexp(a, -1023))
        assert m.lower == pytest.approx(math.ldexp(ref.lower, 1023), rel=1e-15)
        assert m.upper == pytest.approx(math.ldexp(ref.upper, 1023), rel=1e-15)
        path = tmp_path / "a.json"
        write_matrix(path, a)
        assert cli.main(["margin", str(path)]) == 0
        assert cli.main(["perturb", str(path), "--samples", "20"]) == 0
        captured = capfd.readouterr()
        assert "On entry to" not in captured.out + captured.err

    def test_normal_matrix_at_a_large_frequency_is_bracketed_tightly(self):
        # normal, so the distance is min |Re lambda| = 1e4 exactly; the
        # Hamiltonian's eigenvalues merely near the axis are no crossings
        m = robustness.margin(np.array([[-1e4, 3e11], [-3e11, -1e4]]))
        assert m.lower <= 1e4 <= m.upper
        assert m.upper - m.lower <= 1e-5 * m.upper

    def test_lower_certified_against_refined_grid(self):
        # the openness suite's law; byers_distance shares the axis test's
        # detection floor, so the reference is a dense SVD grid
        rng = np.random.default_rng(6)
        with_pairs = 0
        for _ in range(100):
            d = int(rng.integers(2, 7))
            s = int(rng.integers(0, d + 1))
            h = robustness.generate(ConjugacyClass(s, d - s, d),
                                    float(rng.uniform(1.0, 100.0)),
                                    int(rng.integers(0, 2 ** 31)))
            with_pairs += bool(np.any(np.linalg.eigvals(h).imag != 0))
            m = robustness.margin(h)
            assert m.lower <= refined_grid_distance(h) <= m.upper * (1 + 1e-8)
        assert with_pairs >= 30

    def test_tol_is_a_relative_gap_clipped_to_a_quarter(self):
        h = 1e-3 * np.diag([-1.0, 2.0])
        for tol, gap in ((1e-12, 1e-6), (1e-6, 1e-6), (0.01, 0.01),
                         (0.25, 0.25), (10.0, 0.25)):
            m = robustness.margin(h, tol=tol)
            assert m.upper == pytest.approx(1e-3, rel=1e-12)
            assert m.lower == pytest.approx(m.upper * (1.0 - gap), rel=1e-12)

    def test_counts_solves_and_evaluations(self):
        # the eigenvalues are real, so omega = 0 is the only start, and it
        # is the minimum: one sigma_min and one level without crossings
        m = robustness.margin(np.diag([-1.0, 2.0]))
        assert (m.iterations, m.solves) == (1, 1)
        m = robustness.margin(MARGIN_FAULTS["campaign_4x4"])
        assert m.solves > 1 and m.iterations > m.solves

    def test_iterations_count_every_singular_value(self, rng, monkeypatch):
        # every g evaluation goes through densemat._singular_values; the
        # rescaling fallback's own inner calls are not evaluations
        taken = [0]
        depth = [0]
        true_singular_values = densemat._singular_values

        def counting(mats):
            if depth[0] == 0:
                taken[0] += len(mats) if np.ndim(mats) == 3 else 1
            depth[0] += 1
            try:
                return true_singular_values(mats)
            finally:
                depth[0] -= 1

        cases = []
        for _ in range(300):
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-5.0, 5.0)
            cases += [(a, 1e-6), (a, 0.05)]
        # a first stack that needs the fallback, and a norm past the range
        cases += [(np.array([[1e300, 1.5e308, 0.0], [-1.5e308, 1e300, 0.0],
                             [0.0, 0.0, 1.5e308]]), 1e-6),
                  (np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]]), 1e-6)]
        monkeypatch.setattr(densemat, "_singular_values", counting)
        for a, tol in cases:
            verdict = inertia.classify(a)
            taken[0] = 0
            m = robustness._margin(verdict, tol)
            assert taken[0] == m.iterations

    def test_level_cap_raises_nonconvergence(self, monkeypatch):
        # sigma_min values that confirm every crossing but lower gamma by
        # less than the slack per level never reach the distance 0.01
        state = [1.0]
        true_singular_values = densemat._singular_values

        def creeping(mats):
            # every evaluation: true values, a creeping sigma_min
            state[0] *= 1.0 - 0.6 * robustness._SLACK
            sv = true_singular_values(mats)
            sv[..., -1] = state[0]
            return sv

        monkeypatch.setattr(densemat, "_singular_values", creeping)
        with pytest.raises(NonConvergence):
            robustness.margin(np.diag([-0.01, 2.0]))

    def test_norm_from_first_svd_is_op_norm2(self, rng, monkeypatch):
        # margin reads ||A||_2 off its first stacked SVD, whose first matrix
        # is A itself: that must be op_norm2's value bit for bit, and the
        # bracket must not depend on whether classify took the norm for
        # the default tau or was given that tau
        stacks = []
        true_singular_values = densemat._singular_values

        def recording(mats):
            stacks.append(true_singular_values(mats))
            return stacks[-1]

        monkeypatch.setattr(densemat, "_singular_values", recording)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-5.0, 5.0)
            v = inertia.classify(a)
            stacks.clear()
            m = robustness._margin(v, 1e-6)
            assert stacks[0][0, 0] == densemat.op_norm2(a)
            w = inertia.classify(a, inertia.default_tolerance(a))
            ref = robustness._margin(w, 1e-6)
            assert ((m.lower, m.upper, m.omega_star, m.iterations, m.solves)
                    == (ref.lower, ref.upper, ref.omega_star, ref.iterations,
                        ref.solves))

    @pytest.mark.parametrize("tau", [None, 0.0], ids=["default-tau", "tau"])
    def test_norm_beyond_float_range_certified(self, tau):
        # ||A||_2 overflows, so the rounding floor was inf and lower came out
        # as the uncertified 3/4 of upper. The distance scales with A, so the
        # bracket is that of 2**-1024 A scaled back, bit for bit
        a = np.array([[1e308, 1.7e308], [0.0, 1e308]])
        m = robustness.margin(a, tau)
        ref = robustness.margin(np.ldexp(a, -1024))
        assert ((m.lower, m.upper, m.omega_star)
                == tuple(math.ldexp(v, 1024)
                         for v in (ref.lower, ref.upper, ref.omega_star)))
        # the overflowing first SVD counts as an evaluation, then the scaled
        # bracket's one evaluation and one solve
        assert (m.iterations, m.solves) == (2, 1)
        distance = math.ldexp(refined_grid_distance(np.ldexp(a, -1024)), 1024)
        assert 0 < m.lower <= distance <= m.upper * (1 + 1e-8)
        assert m.upper - m.lower <= 1e-5 * m.upper

    def test_shift_beyond_float_range_answered(self):
        # ||A||_2 = 1.5e308 is finite, but A - i*omega*I at omega = 1.5e308
        # has the entry 1.5e308 - 1.5e308i, for which LAPACK's SVD gave nan;
        # the bracket search then warned and died in the SVD
        a = np.array([[1e300, 1.5e308, 0.0], [-1.5e308, 1e300, 0.0],
                      [0.0, 0.0, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = robustness.margin(a)
        distance = math.ldexp(refined_grid_distance(np.ldexp(a, -1024)), 1024)
        assert 0 < m.lower <= distance <= m.upper * (1 + 1e-8)


class TestPerturbCampaign:
    def test_no_flips_below_margin(self):
        report = robustness.perturb_campaign(np.diag([-1.0, 2.0]),
                                             samples=200, radius=0.5, seed=42)
        assert report.flips == 0
        assert report.samples == 200
        assert report.flip_witnesses == []

    def test_explicit_flip_witness_exists_within_radius(self):
        # diag(0.02, 0) has norm 0.02 <= 0.1 and flips the stable count
        h = np.diag([-0.01, 2.0])
        base = inertia.classify(h).inertia
        flipped = inertia.classify(h + np.diag([0.02, 0.0])).inertia
        assert (base.s, base.u) == (1, 1)
        assert (flipped.s, flipped.u) == (0, 2)

    def test_flips_detected_beyond_margin(self):
        report = robustness.perturb_campaign(np.diag([-0.01, 2.0]),
                                             samples=100, radius=0.1, seed=3)
        assert report.flips > 0
        assert len(report.flip_witnesses) == min(report.flips, 10)
        idx, witness = report.flip_witnesses[0]
        inr = inertia.inertia_of(
            spectral.eigenvalues(np.diag([-0.01, 2.0]) + witness),
            report.base_inertia.tau)
        assert (inr.s, inr.u, inr.c) != (1, 1, 0)

    def test_deterministic_given_seed(self):
        a = robustness.perturb_campaign(np.diag([-0.05, 1.0]),
                                        samples=60, radius=0.2, seed=11)
        b = robustness.perturb_campaign(np.diag([-0.05, 1.0]),
                                        samples=60, radius=0.2, seed=11)
        assert a.flips == b.flips
        assert len(a.flip_witnesses) == len(b.flip_witnesses)
        for (i1, e1), (i2, e2) in zip(a.flip_witnesses, b.flip_witnesses):
            assert i1 == i2
            np.testing.assert_array_equal(e1, e2)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            robustness.perturb_campaign(np.diag([-1.0, 2.0]),
                                        samples=0, radius=0.1, seed=1)

    @pytest.mark.parametrize("radius", [0.0, -0.1, np.nan, np.inf])
    def test_radius_validated(self, radius):
        # nan and inf used to fail as "matrix entries must be finite"
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            robustness.perturb_campaign(np.diag([-1.0, 2.0]),
                                        samples=5, radius=radius, seed=1)

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            robustness.perturb_campaign(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                        samples=5, radius=0.1, seed=1)

    @pytest.mark.parametrize("samples, seed, message", [
        (2.5, 1, "samples must be an integer >= 1"),
        (np.float64(3.0), 1, "samples must be an integer >= 1"),
        ("5", 1, "samples must be an integer >= 1"),
        (0, 1, "samples must be an integer >= 1"),
        (5, 1.5, "seed must be an integer >= 0"),
        (5, np.float64(2.0), "seed must be an integer >= 0"),
        (5, -1, "seed must be an integer >= 0"),
    ])
    def test_non_integer_counts_refused(self, samples, seed, message):
        # 2.5 and 1.5 died with bare TypeErrors from range and ^
        with pytest.raises(ValueError, match=f"^{message}$"):
            robustness.perturb_campaign(np.diag([-1.0, 2.0]), samples, 0.1,
                                        seed)

    def test_default_radius_near_float_max_answered(self):
        # 0.9 * lower = 4.16e307 added to 1.7e308 passes the float range;
        # the campaign was refused
        h = [[1e308, 1.7e308], [0.0, 1e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radius = 0.9 * robustness.margin(h).lower
            report = robustness.perturb_campaign(h, 200, radius, 0)
        assert (report.flips, report.flip_witnesses) == (0, [])

    @pytest.mark.parametrize("h, samples, radius, seed, tau", [
        # A + E passes the float range in the (1, 1) entry
        (np.diag([-1e306, 1.79e308]), 300, 2e306, 5, 1e298),
        # the direction's scale radius / ||G|| overflows too
        ([[1.7e308]], 50, 1.5e308, 0, None),
    ], ids=["sum", "direction_scale"])
    def test_sum_beyond_float_range_answered(self, h, samples, radius, seed,
                                             tau):
        # both were refused with "A + E passes the float range"; now such a
        # sample is counted on 2**-1024 A + 2**-1024 E against 2**-1024 tau,
        # its witness scaled back, as the per-sample recount does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = robustness.perturb_campaign(h, samples, radius, seed, tau)
        flips, witnesses = campaign_recount(h, samples, radius, seed,
                                            report.base_inertia.tau)
        assert report.flips == flips
        assert witness_bytes(report.flip_witnesses) == witness_bytes(witnesses)

    def test_sample_counted_on_its_own_draw(self):
        # the scaled count was chosen per block, so sample 3, whose A + E is
        # finite, was counted on 2**-1024 (A + E) because other samples of
        # its block pass the float range. LAPACK's eigenvalue of the scaled
        # matrix lies 1.6e292 below the unscaled one, which tau is set to
        # here, so the unscaled count flips and the scaled one did not: the
        # report disagreed with the samples run one at a time
        h, radius, seed = np.diag([-1e306, 1.79e308]), 3e306, 5

        def perturbation(i):
            rng = np.random.Generator(np.random.PCG64(seed ^ i))
            g = rng.standard_normal((2, 2))
            norm_g = np.linalg.svd(g.astype(complex), compute_uv=False)[0]
            with np.errstate(over="ignore"):
                return g * (radius * (1.0 - rng.random()) / norm_g)

        with np.errstate(over="ignore"):
            assert not all(np.isfinite(h + perturbation(i)).all()
                           for i in range(100))
        tau = float(-np.linalg.eigvals(h + perturbation(3)).real.min())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = robustness.perturb_campaign(h, 100, radius, seed, tau)
            alone = [robustness.perturb_campaign(h, 1, radius, seed ^ i, tau)
                     for i in range(100)]
        flips, witnesses = campaign_recount(h, 100, radius, seed, tau)
        assert report.flips == sum(r.flips for r in alone) == flips
        assert witness_bytes(report.flip_witnesses) == witness_bytes(witnesses)
        assert 3 in {i for i, _ in report.flip_witnesses}


    def test_numpy_integers_reported_as_python_ints(self):
        # a np.uint64 seed was kept as np.uint64
        report = robustness.perturb_campaign(np.diag([-1.0, 2.0]),
                                             np.int64(20), 0.5, np.uint64(9))
        assert type(report.samples) is int and type(report.seed) is int
        assert (report.samples, report.seed) == (20, 9)


def witness_bytes(witnesses):
    return [(int(i), e.tobytes()) for i, e in witnesses]


CAMPAIGN_BASES = [
    (np.diag([-1.0, 2.0]), 0.5),
    (np.diag([-0.01, 2.0]), 0.1),
    (robustness.generate(ConjugacyClass(2, 2, 4), 5.0, seed=3), 1.0),
]


class TestStackedCampaign:
    @pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                         3 * BLOCK + 7])
    @pytest.mark.parametrize("base", range(len(CAMPAIGN_BASES)))
    def test_matches_per_sample_recount(self, base, samples):
        h, radius = CAMPAIGN_BASES[base]
        report = robustness.perturb_campaign(h, samples, radius, seed=7)
        flips, witnesses = campaign_recount(h, samples, radius, 7,
                                            report.base_inertia.tau)
        assert report.flips == flips
        assert witness_bytes(report.flip_witnesses) == witness_bytes(witnesses)

    def test_witness_cap_reached(self):
        h, radius = CAMPAIGN_BASES[1]
        report = robustness.perturb_campaign(h, 3 * BLOCK + 7, radius, seed=7)
        assert report.flips > 10
        assert len(report.flip_witnesses) == 10

    def test_zero_norm_direction_skipped(self, monkeypatch):
        # a direction of norm 0, in a one-sample campaign or a block, is the
        # zero perturbation, which does not flip; seed 1's one sample flips
        # with its norm
        h, radius = CAMPAIGN_BASES[1]
        tau = inertia.default_tolerance(h)
        singular_values = densemat._singular_values
        for samples, seed in ((60, 7), (1, 1)):
            flips, witnesses = campaign_recount(h, samples, radius, seed, tau)
            skip = [i for i, _ in witnesses[:2]]
            assert len(skip) == min(samples, 2)

            def zero_norms(ms, skip=skip):
                values = singular_values(ms)
                if np.ndim(ms) == 3:
                    values[skip] = 0.0
                return values

            monkeypatch.setattr(densemat, "_singular_values", zero_norms)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = robustness.perturb_campaign(h, samples, radius, seed)
            assert (report.samples, report.flips) == (samples,
                                                      flips - len(skip))
            kept = witness_bytes(witnesses[2:])
            assert witness_bytes(report.flip_witnesses)[:len(kept)] == kept
            assert not set(skip) & {i for i, _ in report.flip_witnesses}

    def test_zero_norm_and_float_range_in_one_block(self, monkeypatch):
        # at radius 1e308 the A + E of sample 0 passes the float range and
        # flips, and sample 13 flips as well; its direction given norm 0,
        # in the campaign and in the recount alike, it is the zero
        # perturbation, and the recount's own rule skips it
        h, radius, seed = np.array(FLOAT_RANGE_EDGES["near_max"]), 1e308, 76
        tau = inertia.default_tolerance(h)
        flips, witnesses = campaign_recount(h, 20, radius, seed, tau)
        assert (flips, [i for i, _ in witnesses]) == (2, [0, 13])
        zero = np.random.Generator(np.random.PCG64(seed ^ 13)).standard_normal(
            h.shape).tobytes()
        singular_values, svd = densemat._singular_values, np.linalg.svd

        def zero_norms(ms):
            values = singular_values(ms)
            if np.ndim(ms) == 3:
                for j, g in enumerate(ms):
                    if g.tobytes() == zero:
                        values[j] = 0.0
            return values

        def recount_svd(a, **kwargs):
            values = svd(a, **kwargs)
            return 0.0 * values if a.real.tobytes() == zero else values

        monkeypatch.setattr(densemat, "_singular_values", zero_norms)
        monkeypatch.setattr(np.linalg, "svd", recount_svd)
        flips, witnesses = campaign_recount(h, 20, radius, seed, tau)
        assert (flips, [i for i, _ in witnesses]) == (1, [0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = robustness.perturb_campaign(h, 20, radius, seed)
        assert (report.samples, report.flips) == (20, flips)
        assert witness_bytes(report.flip_witnesses) == witness_bytes(witnesses)

    def test_witnesses_are_standalone_arrays(self):
        # a one-sample campaign (seed 1 flips its one sample) as well as a
        # block: no witness may be a view of the campaign's own arrays
        h, radius = CAMPAIGN_BASES[1]
        for samples, seed in ((1, 1), (BLOCK, 7)):
            report = robustness.perturb_campaign(h, samples, radius, seed)
            assert report.flip_witnesses
            for _, e in report.flip_witnesses:
                assert e.base is None
                assert e.shape == h.shape

    @pytest.mark.parametrize("base", range(len(CAMPAIGN_BASES)))
    def test_one_sample_matches_recount_and_its_block_sample(self, base):
        # at four times the distance both outcomes occur. Each one-sample
        # campaign seeded s = s0 ^ i, evaluated on its own matrix, must give
        # the recount's report, and so sample i of the block seeded s0
        h = CAMPAIGN_BASES[base][0]
        radius = 4 * robustness.margin(h).upper
        s0 = 0x5EED
        block = robustness.perturb_campaign(h, BLOCK, radius, s0)
        tau = block.base_inertia.tau
        assert 0 < block.flips < BLOCK
        alone = [robustness.perturb_campaign(h, 1, radius, s0 ^ i)
                 for i in range(BLOCK)]
        for i, report in enumerate(alone):
            flips, witnesses = campaign_recount(h, 1, radius, s0 ^ i, tau)
            assert (report.samples, report.flips) == (1, flips), i
            assert (witness_bytes(report.flip_witnesses)
                    == witness_bytes(witnesses)), i
        assert sum(r.flips for r in alone) == block.flips
        firsts = [(i, e) for i, r in enumerate(alone)
                  for _, e in r.flip_witnesses]
        assert (witness_bytes(block.flip_witnesses)
                == witness_bytes(firsts[:10]))

    def test_overflowing_perturbation_answered(self):
        # A + E passes the float range; the campaign was refused
        h = np.diag([-1.5e308, 1.5e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = robustness.perturb_campaign(h, 20, 1.5e308, seed=1)
        assert (report.flips, report.flip_witnesses) == (0, [])

    def test_stacked_lapack_failure_is_nonconvergence(self, monkeypatch):
        fail_like_lapack(monkeypatch, "eigvals", lambda a: np.ndim(a) == 3)
        with pytest.raises(NonConvergence):
            robustness.perturb_campaign(np.diag([-1.0, 2.0]), 5, 0.1, seed=1)


class TestCampaignSeeding:
    SEEDS = [0, 1, 7, 2 ** 31, 2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3,
             2 ** 63 - 5, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 129,
             2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 200]

    @pytest.mark.parametrize("samples", [1, 15, 16, 17, 127, 128, 129, 391])
    def test_streams_are_numpy_pcg64_seeded_with_seed_xor_i(self, samples):
        for seed in self.SEEDS:
            for start in range(0, samples, BLOCK):
                block = range(start, min(start + BLOCK, samples))
                rngs = list(robustness._streams(seed, block))
                assert len(rngs) == len(block)
                hashed = (len(block) >= robustness._HASH_MIN
                          and seed < 2 ** 64)
                for i, rng in zip(block, rngs):
                    assert isinstance(rng.bit_generator.seed_seq,
                                      robustness._Words) == hashed
                    assert (rng.bit_generator.state
                            == np.random.PCG64(seed ^ i).state), (seed, i)

    def test_hash_matches_seed_sequence(self):
        rng = np.random.default_rng(5)
        seeds = np.concatenate([
            rng.integers(0, 2 ** 32, 2000, dtype=np.uint64),
            rng.integers(0, 2 ** 64 - 1, 3000, dtype=np.uint64, endpoint=True),
            np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1],
                     dtype=np.uint64)])
        words = robustness._pcg64_words(seeds)
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for s, row in zip(seeds.tolist(), words):
            # PCG64 reads generate_state's buffer raw: a strided row would
            # seed another stream
            assert row.flags.c_contiguous
            np.testing.assert_array_equal(
                row, np.random.SeedSequence(s).generate_state(4, np.uint64))


def continuity_by_loop(h, seq):
    """continuity_check's report, one eigenvalue and one norm call per matrix."""
    eig_h = spectral.eigenvalues(h).values
    pairings, mismatches, dists = [], [], []
    for x in seq:
        perm, max_d = matching.pair_values(spectral.eigenvalues(x).values, eig_h)
        pairings.append(perm)
        mismatches.append(max_d)
        dists.append(densemat.op_norm2(x - h))
    k0 = len(dists) - 1
    while k0 > 0 and dists[k0 - 1] >= dists[k0]:
        k0 -= 1
    slack = 1e-12 * (1.0 + densemat.op_norm2(h))
    monotone = all(mismatches[k] >= mismatches[k + 1] - slack
                   for k in range(k0, len(mismatches) - 1))
    return pairings, mismatches, monotone


class TestContinuity:
    def test_diagonal_shift_sequence(self):
        h = np.diag([-1.0, 2.0])
        seq = [h + (1.0 / n) * np.eye(2) for n in range(1, 21)]
        report = robustness.continuity_check(h, seq)
        for n, dist in enumerate(report.max_mismatch, start=1):
            assert dist == pytest.approx(1.0 / n, abs=1e-12)
        assert report.monotone_tail

    def test_near_max_eigenvalues_paired(self):
        # the cross distance 2e308 overflowed, and the pairing was refused
        # with "cost entries must be finite"
        h = np.diag([1e308, -1e308])
        report = robustness.continuity_check(h, [h, 0.5 * h])
        assert report.max_mismatch == [0.0, 0.5e308]
        assert report.pairings == [[0, 1], [0, 1]]
        assert report.monotone_tail
        # an unused assignment total of 2e308 refused this pairing; both
        # pairings reach the distance 1e308
        report = robustness.continuity_check(np.zeros((2, 2)), [h])
        assert report.max_mismatch == [1e308]
        _, optima = bottleneck_pairings(spectral.eigenvalues(h).values,
                                        [0.0, 0.0])
        assert report.pairings[0] in optima

    def test_constant_sequence(self):
        h = np.diag([-1.0, 2.0])
        report = robustness.continuity_check(h, [h, h, h])
        assert report.max_mismatch == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)
        assert report.monotone_tail

    def test_random_direction_decay(self, rng):
        h = rng.standard_normal((4, 4))
        g = rng.standard_normal((4, 4))
        seq = [h + g / n for n in range(1, 31)]
        report = robustness.continuity_check(h, seq)
        assert report.max_mismatch[-1] < report.max_mismatch[0]
        assert report.max_mismatch[-1] < 0.2
        assert report.monotone_tail
        assert all(sorted(p) == list(range(4)) for p in report.pairings)

    def test_eigenvalues_bounded_by_norms(self, rng):
        h = rng.standard_normal((4, 4))
        g = rng.standard_normal((4, 4))
        seq = [h + g / n for n in range(1, 15)]
        max_mod = max(np.max(np.abs(spectral.eigenvalues(a).values)) for a in seq)
        max_norm = max(densemat.op_norm2(a) for a in seq)
        assert max_mod <= max_norm + 1e-8

    @pytest.mark.parametrize("d", range(1, 8))
    def test_stacked_matches_per_matrix_loop(self, rng, d):
        h = rng.standard_normal((d, d))
        g = rng.standard_normal((d, d))
        jitter = rng.standard_normal((25, d, d))
        seq = [h + g / n + jitter[n - 1] / n ** 3 for n in range(1, 26)]
        report = robustness.continuity_check(h, seq)
        pairings, mismatches, monotone = continuity_by_loop(h, seq)
        assert [list(p) for p in report.pairings] == [list(p) for p in pairings]
        assert report.max_mismatch == mismatches
        assert report.monotone_tail == monotone

    def test_monotone_tail_does_not_depend_on_scale(self):
        # a Frobenius-norm slack overflows to inf above about 1e154 and then
        # passes every tail as monotone
        rng = np.random.default_rng(4)
        h = rng.standard_normal((4, 4))
        seq = [h + rng.standard_normal((4, 4)) / n for n in range(1, 9)]
        report = robustness.continuity_check(h, seq)
        scaled = robustness.continuity_check(1e160 * h, [1e160 * x for x in seq])
        assert scaled.monotone_tail == report.monotone_tail

    def test_overflowing_distance_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="finite"):
            robustness.continuity_check(np.diag([1e308, 1.0]),
                                        [np.diag([-1e308, 1.0])])

    def test_eigenvalues_past_float_range_refused(self):
        # eigenvalues +-sqrt(2)*1.7e308 are inf; the matching refused them as
        # non-finite costs, which the caller never gave
        a = [[1.7e308, 1.7e308], [1.7e308, -1.7e308]]
        with pytest.raises(ValueError,
                           match="^eigenvalues exceed the float range$"):
            robustness.continuity_check(a, [a])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            robustness.continuity_check(np.eye(2), [np.eye(3)])

    @pytest.mark.parametrize("seq, error, message", [
        ([np.eye(2), np.eye(3), np.eye(4)], DimensionMismatch,
         "sequence entry has dimension 3, expected 2"),
        ([np.eye(2), np.ones((2, 3))], DimensionMismatch,
         r"expected a square matrix, got shape \(2, 3\)"),
        ([np.eye(3), [[1j, 0.0], [0.0, 1.0]]], ValueError,
         "matrix entries must be real"),
        ([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]], ValueError,
         "matrix entries must be finite"),
    ], ids=["dimension", "not-square", "complex", "nan"])
    def test_sequence_errors_name_the_first_wrong_entry(self, seq, error,
                                                        message):
        with pytest.raises(error, match=f"^{message}$"):
            robustness.continuity_check(np.eye(2), seq)

    def test_sequence_forms_converted_alike(self, rng):
        h = rng.standard_normal((3, 3))
        seq = [np.round(h) + k * np.eye(3) for k in range(1, 5)]
        report = robustness.continuity_check(h, seq)
        for form in (np.array(seq), iter(seq), [x.tolist() for x in seq],
                     [x.astype(int) for x in seq],
                     [x.astype(object) for x in seq]):
            other = robustness.continuity_check(h, form)
            assert other.pairings == report.pairings
            assert other.max_mismatch == report.max_mismatch

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            robustness.continuity_check(np.eye(2), [])


class TestVieta:
    def test_diagonal(self):
        assert robustness.vieta_check(np.diag([-1.0, 2.0, 5.0])) <= 1e-10

    def test_identity(self):
        assert robustness.vieta_check(np.eye(5)) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_range_refused(self):
        # two overflow warnings, then nan
        with pytest.raises(ValueError, match="passes the float range$"):
            robustness.vieta_check([[1e200, 0], [0, 1e200]])

    def test_random_ensemble(self):
        result = robustness.run_suite("vieta", seed=5, trials=200)
        assert result.failed == 0
        assert result.worst <= 1e-8


class TestGenerate:
    def test_requested_class_produced(self):
        for (s, u, d, cond) in ((2, 0, 2, 1.0), (1, 1, 2, 1.0), (3, 2, 5, 100.0),
                                (0, 4, 4, 10.0), (1, 0, 1, 1.0)):
            a = robustness.generate(ConjugacyClass(s, u, d), cond, seed=7)
            v = inertia.classify(a)
            assert v.kind == inertia.HYPERBOLIC
            assert (v.inertia.s, v.inertia.u) == (s, u)

    def test_margin_positive_for_generated(self):
        a = robustness.generate(ConjugacyClass(3, 2, 5), 100.0, seed=1)
        m = robustness.margin(a, tol=1e-4)
        assert m.lower > 0.0

    def test_deterministic(self):
        a = robustness.generate(ConjugacyClass(2, 1, 3), 5.0, seed=9)
        b = robustness.generate(ConjugacyClass(2, 1, 3), 5.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_invalid_class(self):
        with pytest.raises(InvalidClass):
            robustness.generate(ConjugacyClass(2, 2, 3), 1.0, seed=0)

    @pytest.mark.parametrize("cls, field", [
        # 1.5 + 0.5 == 2 passed the consistency check, then a bare TypeError
        (ConjugacyClass(1.5, 0.5, 2), "s"),
        # a TypeError from the comparison
        (ConjugacyClass("1", "1", "2"), "s"),
        (ConjugacyClass(1, 1, 2.0), "d"),
        (ConjugacyClass(1, None, 2), "u")])
    def test_non_integer_class_refused(self, cls, field):
        with pytest.raises(InvalidClass,
                           match=f"^class field {field} must be an integer$"):
            robustness.generate(cls, 2.0, 1)

    def test_bool_class_fields_taken(self):
        # as densemat._count takes them
        a = robustness.generate(ConjugacyClass(True, np.int64(1), 2), 2.0, 1)
        assert np.array_equal(
            a, robustness.generate(ConjugacyClass(1, 1, 2), 2.0, 1))

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), "3"])
    def test_bad_seed_refused(self, seed):
        # -1 failed in numpy with "expected non-negative integer", 1.5 with a
        # bare TypeError
        with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
            robustness.generate(ConjugacyClass(1, 1, 2), 1.0, seed)

    def test_conditioning_validated(self):
        # nan and inf used to give an all-nan matrix
        for cond in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and >= 1"):
                robustness.generate(ConjugacyClass(1, 1, 2), cond, seed=0)

    @pytest.mark.parametrize("cls, seed", [((2, 0, 2), 2), ((1, 1, 2), 1)],
                             ids=["stable", "saddle"])
    def test_float_range_refused(self, cls, seed):
        # T core T^-1 overflowed in the matmul with a RuntimeWarning, and
        # the matrix came back with non-finite entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="passes the float range$"):
                robustness.generate(ConjugacyClass(*cls), 1.7e308, seed)

    def test_matches_gram_schmidt_oracle(self, monkeypatch):
        # Gram-Schmidt and the sign-fixed QR give the same Q in exact
        # arithmetic, from the same two draws. Both are backward stable, so
        # each computed Q is within a small multiple of d*eps of it for
        # these well-conditioned Gaussian draws. T = Q1 diag(sigma) Q2^T has
        # ||T||*||T^-1|| = cond, so T core T^-1 carries that difference
        # magnified by up to cond: the two matrices agree to d*eps*cond
        # relative to their largest entry. These seeds reach 1.13 times
        # that (3000 other draws 1.5); 8 times leaves room for other BLAS
        # builds.
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            s = int(rng.integers(0, d + 1))
            cases.append((ConjugacyClass(s, d - s, d),
                          float(10.0 ** rng.uniform(0.0, 8.0)),
                          int(rng.integers(0, 2 ** 31))))
        got = [robustness.generate(*case) for case in cases]
        monkeypatch.setattr(robustness, "_random_orthogonal",
                            gram_schmidt_orthogonal)
        worst = 0.0
        for (cls, cond, seed), a in zip(cases, got):
            ref = robustness.generate(cls, cond, seed)
            err = np.max(np.abs(a - ref)) / np.max(np.abs(ref))
            worst = max(worst, err / (cls.d * EPS * cond))
        assert worst <= 8.0

    def test_similarity_is_orthogonal(self):
        rng = np.random.default_rng(12)
        for d in range(1, 9):
            qs = robustness._random_orthogonal(rng, 200, d)
            gram = np.swapaxes(qs, 1, 2) @ qs
            assert np.max(np.abs(gram - np.eye(d))) <= 4 * d * EPS

    @pytest.mark.parametrize("draw", [
        np.zeros((2, 3, 3)),
        np.array([[[0.0, 1.0, 1.0], [0.0, 2.0, 2.0], [0.0, 0.0, 1.0]]] * 2)],
        ids=["zero", "rank-deficient"])
    def test_rank_deficient_draw_stays_orthogonal(self, draw):
        # R has an exact 0 on its diagonal, which must not zero Q's column
        class Stub:
            def standard_normal(self, shape):
                assert shape == draw.shape
                return draw.copy()

        qs = robustness._random_orthogonal(Stub(), 2, 3)
        gram = np.swapaxes(qs, 1, 2) @ qs
        assert np.max(np.abs(gram - np.eye(3))) <= 4 * 3 * EPS

    def test_one_stacked_qr(self, monkeypatch):
        # one LAPACK call for both orthogonal factors, no per-column loop
        shapes = []
        qr = densemat._umath_linalg.qr_r_raw

        @functools.wraps(qr)
        def counting_qr(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(densemat._umath_linalg, "qr_r_raw", counting_qr)
        robustness.generate(ConjugacyClass(3, 2, 5), 10.0, seed=4)
        assert shapes == [(2, 5, 5)]


class TestOpennessProperty:
    def test_no_flips_below_margin_small_run(self):
        result = robustness.run_suite("openness", seed=2, trials=60)
        assert result.failed == 0

    def test_campaign_respects_margin_bound(self, rng):
        # radius below the certified lower bound can never flip
        for _ in range(5):
            d = int(rng.integers(2, 5))
            s = int(rng.integers(0, d + 1))
            h = robustness.generate(ConjugacyClass(s, d - s, d),
                                    conditioning=5.0,
                                    seed=int(rng.integers(0, 2 ** 31)))
            m = robustness.margin(h, tol=1e-3)
            if m.lower <= 0:
                continue
            report = robustness.perturb_campaign(h, samples=40,
                                                 radius=0.9 * m.lower,
                                                 seed=int(rng.integers(0, 2 ** 31)))
            assert report.flips == 0

    def test_trial_digest_pinned(self):
        # Every number an openness trial computes, over 200 trials drawn by
        # _openness_trial's law: the suite's own digest pins only its counts
        # and worst value, so a moved bit of lower would not show there.
        rng = np.random.Generator(np.random.PCG64(1))
        digest = hashlib.sha256()

        def put(*fields):
            digest.update(repr(fields).encode())

        for _ in range(200):
            d = int(rng.integers(2, 7))
            s = int(rng.integers(0, d + 1))
            cond = float(rng.uniform(1.0, 100.0))
            h = robustness.generate(ConjugacyClass(s, d - s, d), cond,
                                    robustness._subseed(rng))
            seed = robustness._subseed(rng)
            tau = inertia.default_tolerance(h)
            verdict = inertia.classify(h, tau)
            put(h.tobytes(), verdict.kind, verdict.inertia,
                verdict.spectrum.residual_bound)
            for tol in (0.05, 1e-6):
                mr = robustness.margin(h, tau, tol)
                put(mr.lower, mr.upper, mr.omega_star, mr.iterations,
                    mr.solves)
            if not verdict.is_hyperbolic:
                continue
            for samples, radius in ((1, 0.9 * mr.lower), (200, 2 * mr.upper)):
                report = robustness.perturb_campaign(h, samples, radius, seed,
                                                     tau)
                put(report.flips, report.radius,
                    witness_bytes(report.flip_witnesses))
        assert digest.hexdigest() == (
            "497d335ef0d5a5e4b7944dcba754e2d8d8979af0455cd5c2c74ab21b212219f6")


class TestRunSuite:
    @pytest.mark.parametrize("trials", [0, -5, 2.5, "5"])
    def test_bad_trials_refused(self, trials):
        # -5 used to report total = passed = -5, and 2.5 and "5" died with
        # a bare TypeError
        with pytest.raises(ValueError,
                           match="^trials must be an integer >= 1$"):
            robustness.run_suite("vieta", trials=trials)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_refused(self, seed):
        # -1 used to fail in numpy, 1.5 with a bare TypeError
        with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
            robustness.run_suite("oracle", seed=seed, trials=3)

    def test_unknown_suite_refused(self):
        with pytest.raises(ValueError) as exc:
            robustness.run_suite("bogus")
        assert str(exc.value) == ("unknown suite 'bogus' "
                                  "(known: density, openness, oracle, vieta)")

    def test_openness_trial_without_lower_fails(self, monkeypatch):
        # a margin without a positive lower bound gives no radius to
        # perturb at: the trial fails with no value, and worst stays 0.0
        margin = robustness._margin

        def no_lower(verdict, tol):
            return dataclasses.replace(margin(verdict, tol), lower=0.0)

        def campaign(*args, **kwargs):
            raise AssertionError("campaign run without a positive lower")

        monkeypatch.setattr(robustness, "_margin", no_lower)
        monkeypatch.setattr(robustness, "_campaign", campaign)
        rng = np.random.Generator(np.random.PCG64(2))
        assert robustness._openness_trial(rng, 0) == (False, None)
        result = robustness.run_suite("openness", seed=2, trials=5)
        assert (result.passed, result.failed, result.worst) == (0, 5, 0.0)

    def test_density_trial_shift_too_small_fails(self, monkeypatch):
        # a shift below the representable step: the trial fails with no
        # value, and worst stays 0.0
        def too_small(*args, **kwargs):
            raise ShiftTooSmall("shift too small")

        monkeypatch.setattr(robustness, "hyperbolize", too_small)
        rng = np.random.Generator(np.random.PCG64(7))
        assert robustness._density_trial(rng, 3) == (False, None)
        result = robustness.run_suite("density", seed=7, trials=8)
        assert (result.passed, result.failed, result.worst) == (0, 8, 0.0)
