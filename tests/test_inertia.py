import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflow import inertia, robustness, spectral
from hypflow.errors import DimensionMismatch, NotHyperbolic
from hypflow.inertia import ConjugacyClass


def spectrum_of(values):
    return spectral.Spectrum(values=np.asarray(values, dtype=complex),
                             residual_bound=1e-14)


class TestInertiaOf:
    def test_counts(self):
        inr = inertia.inertia_of(spectrum_of([-1.0, -2.0, 3.0]), 1e-9)
        assert (inr.s, inr.u, inr.c) == (2, 1, 0)

    def test_rotation_on_axis(self):
        inr = inertia.inertia_of(spectrum_of([1j, -1j]), 1e-9)
        assert (inr.s, inr.u, inr.c) == (0, 0, 2)

    def test_band_membership(self):
        inr = inertia.inertia_of(spectrum_of([-5e-10, 1.0]), 1e-9)
        assert (inr.s, inr.u, inr.c) == (0, 1, 1)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            inertia.inertia_of(spectrum_of([1.0]), -1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), tau=st.floats(0, 1.0))
    def test_partition_and_negation(self, seed, tau):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 10))
        vals = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        inr = inertia.inertia_of(spectrum_of(vals), tau)
        assert inr.s + inr.u + inr.c == d
        neg = inertia.inertia_of(spectrum_of(-vals), tau)
        assert (neg.s, neg.u, neg.c) == (inr.u, inr.s, inr.c)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           tau1=st.floats(0, 1.0), tau2=st.floats(0, 1.0))
    def test_band_monotone_in_tau(self, seed, tau1, tau2):
        lo, hi = sorted([tau1, tau2])
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        spec = spectrum_of(vals)
        assert inertia.inertia_of(spec, hi).c >= inertia.inertia_of(spec, lo).c


class TestClassify:
    def test_saddle(self):
        v = inertia.classify(np.diag([-1.0, 2.0]))
        assert v.kind == inertia.HYPERBOLIC
        assert (v.inertia.s, v.inertia.u) == (1, 1)
        assert v.witness is None

    def test_rotation_witness(self):
        v = inertia.classify(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert v.kind == inertia.NON_HYPERBOLIC
        assert abs(abs(v.witness.imag) - 1.0) < 1e-12
        assert abs(v.witness.real) < 1e-12

    def test_nilpotent_witness_zero(self):
        v = inertia.classify(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert v.kind == inertia.NON_HYPERBOLIC
        assert abs(v.witness) < 1e-7

    def test_indeterminate_band(self):
        # real part just above tau but inside the accuracy band
        tau = 0.1
        v = inertia.classify(np.diag([tau + 5e-16, 1.0]), tau)
        assert v.kind == inertia.INDETERMINATE

    def test_huge_finite_input_keeps_verdict(self):
        a = np.random.default_rng(2).standard_normal((4, 4))
        base = inertia.classify(a)
        big = inertia.classify(1e300 * a)
        assert base.kind == big.kind == inertia.HYPERBOLIC
        assert (big.inertia.s, big.inertia.u) == (base.inertia.s, base.inertia.u)

    def test_similarity_invariance(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            s = int(rng.integers(0, d + 1))
            a = robustness.generate(ConjugacyClass(s=s, u=d - s, d=d),
                                    conditioning=1.0,
                                    seed=int(rng.integers(0, 2 ** 31)))
            base = inertia.classify(a, 1e-6).inertia
            t = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
            sim = t @ a @ np.linalg.inv(t)
            got = inertia.classify(sim, 1e-6).inertia
            assert (got.s, got.u, got.c) == (base.s, base.u, base.c)


class TestConjugacyClass:
    def test_mixed_diagonal(self):
        c = inertia.conjugacy_class(np.diag([-1.0, -2.0, 3.0]))
        assert (c.s, c.u, c.d) == (2, 1, 3)

    def test_sink(self):
        c = inertia.conjugacy_class(-np.eye(4))
        assert (c.s, c.u, c.d) == (4, 0, 4)

    def test_triangular(self):
        c = inertia.conjugacy_class(np.array([[-1.0, 1.0], [0.0, -2.0]]))
        assert (c.s, c.u, c.d) == (2, 0, 2)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            inertia.conjugacy_class(np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestSameClass:
    def test_same_counts(self):
        assert inertia.same_class(np.diag([-1.0, -2.0]),
                                  np.array([[-1.0, 1.0], [0.0, -2.0]]))

    def test_saddles_match_regardless_of_order(self):
        assert inertia.same_class(np.diag([-1.0, 2.0]), np.diag([1.0, -2.0]))

    def test_different_counts(self):
        assert not inertia.same_class(np.diag([-1.0, -2.0]), np.diag([-1.0, 2.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inertia.same_class(np.diag([-1.0, 2.0]), -np.eye(3))

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            inertia.same_class(np.diag([-1.0, 2.0]),
                               np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_equivalence_relation(self, rng):
        mats = []
        for k in range(6):
            s = int(rng.integers(0, 4))
            mats.append(robustness.generate(ConjugacyClass(s=s, u=3 - s, d=3),
                                            conditioning=2.0, seed=100 + k))
        for a in mats:
            assert inertia.same_class(a, a)
            for b in mats:
                assert inertia.same_class(a, b) == inertia.same_class(b, a)
                for c in mats:
                    if inertia.same_class(a, b) and inertia.same_class(b, c):
                        assert inertia.same_class(a, c)


def test_default_tolerance_scales_with_norm():
    small = inertia.default_tolerance(np.eye(2))
    large = inertia.default_tolerance(100.0 * np.eye(2))
    assert small == pytest.approx(2e-9)
    assert large == pytest.approx(101e-9)
