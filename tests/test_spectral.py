import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflow import densemat, matching, spectral
from hypflow.errors import DimensionMismatch, NonConvergence

from conftest import fail_like_lapack
from oracles import quadratic_roots


def sorted_reals(values):
    assert np.max(np.abs(np.imag(values))) < 1e-9
    return sorted(np.real(values))


class TestEigenvalues:
    def test_diagonal(self):
        vals = spectral.eigenvalues(np.diag([-1.0, 2.0])).values
        assert sorted_reals(vals) == pytest.approx([-1.0, 2.0])

    def test_rotation_generator(self):
        vals = spectral.eigenvalues([[0.0, 1.0], [-1.0, 0.0]]).values
        dist = matching.matched_distance(vals, [1j, -1j])
        assert dist < 1e-12

    def test_closed_form_quadratic(self):
        # trace 5, det -2: the roots of z^2 - 5z - 2 computed independently
        r1, r2 = quadratic_roots(-5.0, -2.0)
        vals = spectral.eigenvalues([[1.0, 2.0], [3.0, 4.0]]).values
        assert matching.matched_distance(vals, [r1, r2]) < 1e-12

    def test_residual_bound_reported(self):
        spec = spectral.eigenvalues(np.diag([1.0, 2.0, 3.0]))
        assert 0.0 < spec.residual_bound < 1e-12

    def test_multiplicity_by_repetition(self):
        vals = spectral.eigenvalues(np.eye(3)).values
        assert sorted_reals(vals) == pytest.approx([1.0, 1.0, 1.0])

    def test_defective_block(self):
        j = np.array([[2.0, 1.0], [0.0, 2.0]])
        vals = spectral.eigenvalues(j).values
        assert matching.matched_distance(vals, [2.0, 2.0]) < 1e-6

    def test_conjugate_pairing(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 9))
            spec = spectral.eigenvalues(rng.standard_normal((d, d)))
            nonreal = [v for v in spec.values
                       if abs(v.imag) > max(spec.residual_bound, 1e-12)]
            conj = [v.conjugate() for v in nonreal]
            assert matching.matched_distance(nonreal, conj) <= \
                max(10 * spec.residual_bound, 1e-10) if nonreal else True

    def test_vieta_determinant(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d))
            prod = complex(np.prod(spectral.eigenvalues(a).values))
            det = densemat.det(a)
            assert abs(prod - det) <= 1e-8 * (1.0 + abs(det))

    def test_huge_finite_input_scales(self):
        # a 1e300-scaled matrix is finite and must scale its spectrum exactly
        a = np.random.default_rng(2).standard_normal((4, 4))
        small = spectral.eigenvalues(a).values
        big = spectral.eigenvalues(1e300 * a)
        assert np.isfinite(big.residual_bound)
        dist = matching.matched_distance(big.values, 1e300 * small)
        assert dist <= 1e-12 * 1e300 * float(np.max(np.abs(small)))

    def test_residual_bound_is_the_scaled_one_norm(self, rng):
        for scale in (1e-290, 1.0, 1e290):
            a = scale * rng.standard_normal((5, 5))
            expected = 10.0 * 5 * np.finfo(float).eps * np.linalg.norm(a, 1)
            assert spectral.eigenvalues(a).residual_bound == expected
        huge = spectral.eigenvalues(np.array([[-1e308, 1e308], [0.0, -1e308]]))
        # ||A||_1 = 2 * 1e308, past the largest float
        assert huge.residual_bound == 2.0 * (10.0 * 2 * np.finfo(float).eps * 1e308)

    def test_lapack_failure_is_nonconvergence(self, monkeypatch):
        fail_like_lapack(monkeypatch, "eigvals")
        with pytest.raises(NonConvergence, match="failed: Eigenvalues did not"):
            spectral.eigenvalues(np.eye(2))

    def test_stack_validated(self):
        with pytest.raises(DimensionMismatch):
            spectral.eigenvalues_many(np.eye(3)[None, :2])
        with pytest.raises(DimensionMismatch):
            spectral.eigenvalues_many(np.zeros((1, 1, 2, 2)))
        stack = np.stack([np.eye(2), np.diag([np.inf, 1.0])])
        with pytest.raises(ValueError, match="finite"):
            spectral.eigenvalues_many(stack)

    def test_object_stack_answered_and_non_numbers_refused(self):
        # an object array raised a bare TypeError from isfinite, and so did
        # a string array
        for entries, dtype in (([[1, 2], [3, 4]], float),
                               ([[1j, 2], [3, 4]], complex)):
            got = spectral.eigenvalues_many(np.array(entries, dtype=object))
            want = spectral.eigenvalues_many(np.array(entries, dtype=dtype))
            assert got.tobytes() == want.tobytes()
        for bad in (np.array([["1", "2"], ["3", "4"]]),
                    np.array([[1, None], [3, 4]], dtype=object)):
            with pytest.raises(ValueError, match="entries must be numbers"):
                spectral.eigenvalues_many(bad)

    def test_shift_covariance(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, d))
            eps = float(rng.uniform(-1.0, 1.0))
            shifted = spectral.eigenvalues(a + eps * np.eye(d)).values
            moved = spectral.eigenvalues(a).values + eps
            assert matching.matched_distance(shifted, moved) <= 1e-8


class TestCharPoly:
    def test_2x2_trace_det(self):
        coeffs = spectral.char_poly([[1.0, 2.0], [3.0, 4.0]]).coeffs
        np.testing.assert_allclose(coeffs, [-2.0, -5.0, 1.0], atol=1e-12)

    def test_identity(self):
        coeffs = spectral.char_poly(np.eye(2)).coeffs
        np.testing.assert_allclose(coeffs, [1.0, -2.0, 1.0], atol=1e-12)

    def test_zero_matrix_sign_convention(self):
        coeffs = spectral.char_poly(np.zeros((3, 3))).coeffs
        np.testing.assert_allclose(coeffs, [0.0, 0.0, 0.0, -1.0])

    def test_leading_coefficient_and_det(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((d, d))
            cp = spectral.char_poly(a)
            assert cp.coeffs[-1] == (-1.0) ** d
            det = densemat.det(a)
            assert cp.coeffs[0] == pytest.approx(det, rel=1e-8, abs=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_range_refused(self):
        # the recurrence overflowed in matmul into an inf coefficient
        with pytest.raises(ValueError, match="^characteristic polynomial "
                                             "coefficients pass the float range$"):
            spectral.char_poly([[1e200, 0], [0, 1e200]])


class TestPolyRoots:
    def test_pure_imaginary_pair(self):
        roots = spectral.poly_roots(np.array([1.0, 0.0, 1.0])).values
        assert matching.matched_distance(roots, [1j, -1j]) < 1e-10

    def test_triple_root_clusters(self):
        # (z-1)^3 under the degree-3 sign convention
        roots = spectral.poly_roots(np.array([-1.0, 3.0, -3.0, 1.0]))
        assert matching.matched_distance(roots.values, [1.0, 1.0, 1.0]) < 1e-4
        assert roots.residual_bound > 1e-8  # honesty about the multiple root

    def test_quadratic_closed_form(self):
        r1, r2 = quadratic_roots(-5.0, -2.0)
        roots = spectral.poly_roots(np.array([-2.0, -5.0, 1.0])).values
        assert matching.matched_distance(roots, [r1, r2]) < 1e-10

    def test_degree_one(self):
        roots = spectral.poly_roots(np.array([2.0, -1.0])).values
        assert roots[0] == pytest.approx(2.0)

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            spectral.poly_roots(np.array([1.0, 1.0, 0.0]))

    def test_oracle_agreement_with_qr(self, rng):
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d))
            lapack_vals = spectral.eigenvalues(a).values
            poly_vals = spectral.poly_roots(spectral.char_poly(a)).values
            worst = max(worst, matching.matched_distance(lapack_vals, poly_vals))
        assert worst <= 1e-6


class TestSigmaMin:
    def test_identity(self):
        assert spectral.sigma_min(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral.sigma_min(np.diag([5.0, 0.25])) == pytest.approx(0.25)

    def test_singular(self):
        assert spectral.sigma_min(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-10)

    def test_matches_svd(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 7))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ref = float(np.linalg.svd(m, compute_uv=False)[-1])
            assert spectral.sigma_min(m) == pytest.approx(ref, abs=1e-10)

    def test_tiny_singular_value_keeps_relative_accuracy(self):
        # sigma = 1e-10 squares to 1e-20 in M^H M, below eps of its norm
        c, s = np.cos(0.3), np.sin(0.3)
        q = np.array([[c, -s], [s, c]])
        m = q @ np.diag([1.0, 1e-10]) @ q.T
        assert spectral.sigma_min(m) == pytest.approx(1e-10, rel=1e-6)
        assert densemat._singular_values(m[None])[:, -1] == pytest.approx(
            [1e-10], rel=1e-6)

    def test_modulus_beyond_float_range(self):
        # LAPACK's SVD gave nan, with no warning, for an entry whose modulus
        # passes the float range though both of its parts are finite
        big = 1.7e308 + 1.7e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral.sigma_min(np.array([[big, 0], [0, 1]])) == 1.0
            assert spectral.sigma_min(np.array([[big, 0], [0, 0.375]])) == 0.375
            assert spectral.sigma_min(np.array([[big]])) == np.inf
            # in a stack, only that matrix is scaled: the stacked values and
            # sigma_min agree, and the others keep LAPACK's values
            stack = np.array([[[big, 0], [0, 0.375]], [[1, 2], [3, 4]]])
            assert densemat._singular_values(stack)[:, -1].tolist() == [
                0.375, spectral.sigma_min(stack[1])]
            # no power of two scales an infinite entry: LAPACK's nan stands
            assert np.isnan(
                densemat._singular_values(np.array([[[np.inf]]]))[0, -1])

    def test_batched_matches_scalar(self, rng):
        mats = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        batch = densemat._singular_values(mats)[:, -1].tolist()
        assert batch == [spectral.sigma_min(m) for m in mats]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_spectrum_size_matches_dimension(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    spec = spectral.eigenvalues(rng.standard_normal((d, d)))
    assert spec.d == d
