import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflow import densemat, matching, spectral
from hypflow.errors import ConjugacyViolation, NonConvergence, NotHermitian

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

    def test_lapack_failure_is_nonconvergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NonConvergence):
            spectral.eigenvalues(np.eye(2))

    def test_shift_covariance(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, d))
            eps = float(rng.uniform(-1.0, 1.0))
            shifted = spectral.eigenvalues(densemat.shift(a, eps)).values
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


class TestPolyFromRoots:
    def test_real_pair(self):
        np.testing.assert_allclose(
            spectral.poly_from_roots([1.0, -1.0]).coeffs, [-1.0, 0.0, 1.0])

    def test_conjugate_pair(self):
        np.testing.assert_allclose(
            spectral.poly_from_roots([1j, -1j]).coeffs, [1.0, 0.0, 1.0])

    def test_single_root_convention(self):
        np.testing.assert_allclose(
            spectral.poly_from_roots([2.0]).coeffs, [2.0, -1.0])

    def test_unpaired_roots_rejected(self):
        with pytest.raises(ConjugacyViolation):
            spectral.poly_from_roots([1j, 2j, -1j])
        with pytest.raises(ConjugacyViolation):
            spectral.poly_from_roots([1 + 1j, -1 - 1j])

    def test_factorization_reproduces_char_poly(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d))
            direct = spectral.char_poly(a).coeffs
            rebuilt = spectral.poly_from_roots(spectral.eigenvalues(a)).coeffs
            scale = np.max(np.abs(direct)) + 1.0
            assert np.max(np.abs(direct - rebuilt)) <= 1e-6 * scale


class TestHermitian:
    def test_diagonal_sorted(self):
        np.testing.assert_allclose(
            spectral.hermitian_eigs(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_swap(self):
        np.testing.assert_allclose(
            spectral.hermitian_eigs([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0])

    def test_complex_closed_form(self):
        # [[2, i], [-i, 2]] has eigenvalues 2 -+ 1
        vals = spectral.hermitian_eigs(np.array([[2.0, 1j], [-1j, 2.0]]))
        np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            spectral.hermitian_eigs([[0.0, 1.0], [0.0, 0.0]])

    def test_random_accuracy(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 9))
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = x + x.conj().T
            ref = np.linalg.eigvalsh(h)
            np.testing.assert_allclose(spectral.hermitian_eigs(h), ref,
                                       atol=1e-11 * (1 + np.abs(ref).max()))


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
        assert spectral.sigma_min_many(m[None]) == pytest.approx([1e-10], rel=1e-6)

    def test_batched_matches_scalar(self, rng):
        mats = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        batch = spectral.sigma_min_many(mats)
        singles = [spectral.sigma_min(m) for m in mats]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_spectrum_size_matches_dimension(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    spec = spectral.eigenvalues(rng.standard_normal((d, d)))
    assert spec.d == d
