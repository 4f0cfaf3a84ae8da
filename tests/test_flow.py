import functools
import re

import numpy as np
import pytest

from hypflow import (densemat, errors, flow, inertia, matching, robustness,
                     spectral)
from hypflow.errors import (DimensionMismatch, HypflowError, NonAscendingGrid,
                            NonConvergence, NotHyperbolic, UnsupportedDimension)
from hypflow.inertia import ConjugacyClass

import oracles
from conftest import fail_like_lapack


def scaled_random(rng, d, norm):
    h = rng.standard_normal((d, d))
    return h * (norm / densemat.op_norm2(h))


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_allclose(flow.expm(np.zeros((3, 3))), np.eye(3),
                                   atol=1e-15)

    def test_nilpotent_terminates(self):
        out = flow.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-10)

    def test_rotation_closed_form(self):
        for t in (0.3, 1.0, 2.5, -4.0):
            out = flow.expm(t * np.array([[0.0, 1.0], [-1.0, 0.0]]))
            ref = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
            np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_diagonal_closed_form(self):
        out = flow.expm(np.diag([-1.0, 2.0]))
        np.testing.assert_allclose(out, np.diag([np.exp(-1.0), np.exp(2.0)]),
                                   rtol=1e-12)

    def test_group_law(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            h = scaled_random(rng, d, float(rng.uniform(0.1, 5.0)))
            s = float(rng.uniform(-2.0, 2.0))
            t = float(rng.uniform(-2.0, 2.0))
            joint = flow.expm((s + t) * h)
            split = flow.expm(s * h) @ flow.expm(t * h)
            scale = 1.0 + np.max(np.abs(joint))
            assert np.max(np.abs(joint - split)) <= 1e-8 * scale

    def test_generator_recovery(self, rng):
        hstep = 1e-5
        for _ in range(10):
            d = int(rng.integers(2, 6))
            h = scaled_random(rng, d, float(rng.uniform(0.5, 5.0)))
            approx = (flow.expm(hstep * h) - np.eye(d)) / hstep
            assert np.max(np.abs(approx - h)) <= 1e-4

    def test_det_is_exp_trace(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            h = scaled_random(rng, d, float(rng.uniform(0.1, 5.0)))
            lhs = densemat.det(flow.expm(h))
            rhs = np.exp(np.trace(h))
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))

    def test_spectral_mapping(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            h = scaled_random(rng, d, float(rng.uniform(0.1, 3.0)))
            mapped = np.exp(spectral.eigenvalues(h).values)
            direct = spectral.eigenvalues(flow.expm(h)).values
            assert matching.matched_distance(mapped, direct) <= 1e-6

    def test_large_norm_accuracy(self, rng):
        # oracle: plain Taylor series at norm <= 1/4, squared back up
        def taylor_squaring(m):
            k = max(0, int(np.ceil(np.log2(max(densemat.op_norm2(m), 0.25) / 0.25))))
            small = m / 2.0 ** k
            out = np.eye(m.shape[0])
            term = np.eye(m.shape[0])
            for i in range(1, 30):
                term = term @ small / i
                out = out + term
            for _ in range(k):
                out = out @ out
            return out

        for target in (20.0, 100.0):
            h = scaled_random(rng, 5, target)
            mine = flow.expm(h)
            ref = taylor_squaring(h)
            assert np.max(np.abs(mine - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_many_bitwise_per_matrix(self, rng, monkeypatch):
        # one stack mixes scaling exponents 0..12, the zero matrix, a
        # nilpotent block and rank-one matrices (||M||_F = ||M||_2) of norm
        # 0.5 (1 +- k eps), on both sides of the bound below which the
        # Frobenius norm alone sets j = 0; each result must be that
        # matrix's own exponential
        measured = []
        singular_values = densemat._singular_values

        def recording(ms):
            measured.extend(m.tobytes() for m in ms)
            return singular_values(ms)

        monkeypatch.setattr(densemat, "_singular_values", recording)
        eps = np.finfo(float).eps
        for d in range(1, 9):
            stack = [scaled_random(rng, d, norm)
                     for norm in (1e-3, 0.3, 0.5, 0.7, 2.0, 37.0, 300.0)]
            # norm up to 2e3 with no eigenvalue right of the axis
            stack.append(scaled_random(rng, d, 1e3) - 1e3 * np.eye(d))
            stack.append(np.zeros((d, d)))
            stack.append(np.triu(rng.standard_normal((d, d)), 1))
            u, v = rng.standard_normal(d), rng.standard_normal(d)
            unit = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
            stack += [0.5 * (1.0 + sign * k * eps) * unit
                      for k in (0, 1, 2, 3, 5, 8, 13, 16 * (d * d + 2),
                                40 * (d * d + 2), 2.0 ** 32)
                      for sign in (1, -1)]
            stack = [stack[i] for i in rng.permutation(len(stack))]
            measured.clear()
            out = flow.expm_many(np.array(stack))
            assert out.shape == (len(stack), d, d)
            svd_taken = set(measured)
            for m, e in zip(stack, out):
                assert np.array_equal(e, oracles.expm_pade13(m))
                assert np.array_equal(e, flow.expm(m))
                # a norm of 1/2 or more is always measured; one 2^-20 below
                # the bound is not
                if densemat.op_norm2(m) >= 0.5:
                    assert m.tobytes() in svd_taken
                if np.linalg.norm(m) <= 0.5 * (1.0 - 2.0 ** -20):
                    assert m.tobytes() not in svd_taken

    def test_many_empty_stack(self):
        assert flow.expm_many(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("stack", [np.zeros((2, 2)), np.zeros((2, 2, 3)),
                                       np.zeros((1, 0, 0))])
    def test_many_shape_rejected(self, stack):
        with pytest.raises(DimensionMismatch):
            flow.expm_many(stack)

    def test_many_complex_rejected(self):
        with pytest.raises(ValueError, match="^matrix entries must be real$"):
            flow.expm_many(np.array([[[1j]]]))

    def test_many_non_finite_rejected(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            flow.expm_many(stack)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [[[800.0]], [[0.0, 1e200], [-1e200, 0.0]]],
                             ids=["overflow", "rotation"])
    def test_float_range_refused(self, a):
        # these warned and returned inf, or all nan, from the squarings
        with pytest.raises(errors.FlowOverflow,
                           match="^the exponential of stack matrix 0 "
                                 "passes the float range$"):
            flow.expm(a)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_many_float_range_names_first_index(self):
        stack = [[[1.0]], [[0.5]], [[800.0]], [[-800.0]], [[900.0]]]
        with pytest.raises(errors.FlowOverflow, match=" matrix 2 "):
            flow.expm_many(stack)


class TestFlowMap:
    def test_time_zero_is_identity(self, rng):
        h = rng.standard_normal((3, 3))
        x0 = rng.standard_normal(3)
        np.testing.assert_allclose(flow.flow_map(h, 0.0, x0), x0, atol=1e-14)

    def test_diagonal(self):
        out = flow.flow_map(np.diag([-1.0, 2.0]), 1.0, [1.0, 1.0])
        np.testing.assert_allclose(out, [np.exp(-1.0), np.exp(2.0)], rtol=1e-12)

    def test_quarter_turn(self):
        out = flow.flow_map(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                            np.pi / 2.0, [1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            flow.flow_map(np.eye(2), 1.0, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("t", [[0.0, 1.0], [1.0, 0.0], [], [[1.0, 2.0]]])
    def test_time_grid_refused(self, t):
        # [0, 1] returned the state at t = 0 and dropped t = 1
        with pytest.raises(ValueError, match="^t must be a single time$"):
            flow.flow_map(np.eye(2), t, [1.0, 0.0])


class TestTrajectory:
    def test_uniform_grid_matches_closed_form(self):
        tr = flow.trajectory(np.diag([-1.0, 2.0]), [1.0, 1.0], [0.0, 0.5, 1.0])
        expect = np.array([[1.0, 1.0],
                           [np.exp(-0.5), np.exp(1.0)],
                           [np.exp(-1.0), np.exp(2.0)]])
        np.testing.assert_allclose(tr.states, expect, atol=1e-9)

    def test_single_point(self):
        tr = flow.trajectory(np.diag([-1.0, 2.0]), [3.0, 4.0], [0.0])
        np.testing.assert_allclose(tr.states, [[3.0, 4.0]])

    def test_nonzero_start_time(self):
        tr = flow.trajectory(np.diag([-1.0, 0.5]), [1.0, 1.0], [2.0, 3.0])
        np.testing.assert_allclose(tr.states[0],
                                   [np.exp(-2.0), np.exp(1.0)], rtol=1e-10)

    def test_norm_conserved_for_skew(self):
        grid = np.linspace(0.0, 6.0, 61)
        tr = flow.trajectory(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                             [0.6, 0.8], grid)
        norms = np.linalg.norm(tr.states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    @staticmethod
    def count_stacked(monkeypatch):
        """Record the stack size of every call of expm_many's body."""
        sizes = []
        expm_many = flow._expm_many

        def counting(stack):
            sizes.append(len(stack))
            return expm_many(stack)

        monkeypatch.setattr(flow, "_expm_many", counting)
        return sizes

    def test_uniform_grid_single_exponential(self, monkeypatch):
        # linspace steps differ in their last bits; one e^{dt H} must serve all
        sizes = self.count_stacked(monkeypatch)
        flow.trajectory(np.array([[-1.0, 2.0], [0.0, 0.5]]), [1.0, 1.0],
                        np.linspace(0.0, 4.0, 401))
        assert sizes == [1]

    @pytest.mark.parametrize("grid, matrices", [
        ([0.0, 0.5, 1.0, 1.25, 1.5, 2.5], 3),    # steps 0.5, 0.25, 1
        ([1.0, 1.5, 2.0, 2.5], 2),               # e^{t0 H} plus one step
        ([0.0], 0),
        ([-2.0], 1)])
    def test_one_stacked_call_one_matrix_per_distinct_step(
            self, monkeypatch, grid, matrices):
        sizes = self.count_stacked(monkeypatch)
        flow.trajectory(np.array([[-1.0, 2.0], [0.0, 0.5]]), [1.0, 1.0], grid)
        assert sizes == [matrices]

    @pytest.mark.parametrize("start", [0.0, 0.7, -1.3])
    def test_bitwise_per_step_loop(self, rng, start):
        # the loop trajectory ran before its steps were stacked: one expm
        # per new step, reused while it stays within 4*eps*max|t|. Besides
        # runs of repeated steps, the grids include linspace grids, whose
        # steps carry rounding jitter, and uniform grids with one outlier
        # step, which the one-step path for uniform grids must not take.
        eps = np.finfo(float).eps
        for _ in range(20):
            d = int(rng.integers(1, 8))
            h = scaled_random(rng, d, float(rng.uniform(0.2, 6.0)))
            x0 = rng.standard_normal(d)
            gaps = np.repeat(rng.uniform(0.01, 0.8, 6), rng.integers(1, 5, 6))
            n = int(rng.integers(2, 60))
            outlier = np.full(n, float(rng.uniform(0.01, 0.3)))
            outlier[rng.integers(n)] *= float(rng.choice([0.5, 1.0 + 1e-9]))
            # one time moved by 1.5 times the reuse tolerance
            nudged = start + 0.1 * np.arange(n + 1)
            nudged[rng.integers(1, n + 1)] += 6.0 * eps * np.max(np.abs(nudged))
            for grid in (start + np.concatenate(([0.0], np.cumsum(gaps))),
                         start + np.linspace(0.0, rng.uniform(0.5, 5.0), n),
                         np.linspace(start, start + 3.0, n),
                         start + np.concatenate(([0.0], np.cumsum(outlier))),
                         nudged):
                current = x0 if start == 0.0 else flow.expm(grid[0] * h) @ x0
                expect = [current]
                tol = 4.0 * eps * np.max(np.abs(grid))
                step, step_dt = None, 0.0
                for dt in np.diff(grid):
                    if step is None or abs(dt - step_dt) > tol:
                        step, step_dt = flow.expm(dt * h), dt
                    current = step @ current
                    expect.append(current)
                got = flow.trajectory(h, x0, grid).states
                assert np.array_equal(got, np.array(expect))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_first_time(self):
        # e^{0.1 H} of this 1e300-scaled matrix is far past the float range
        h = 1e300 * np.random.default_rng(2).standard_normal((4, 4))
        with pytest.raises(HypflowError, match=r"at t = 0\.1$") as exc:
            flow.trajectory(h, [1.0, 1.0, 1.0, 1.0], [0.0, 0.1, 1.0])
        assert isinstance(exc.value, errors.FlowOverflow)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_step_keeps_one_stacked_call(self, monkeypatch):
        # e^{H} is finite and e^{1000 H} is not: the stack of both comes
        # back with the second one's inf entries, where a raise from the
        # stack made one more call for each matrix
        sizes = self.count_stacked(monkeypatch)
        with pytest.raises(errors.FlowOverflow, match=r"at t = 1002\.0$"):
            flow.trajectory(np.diag([1.0, -1.0]), [1.0, 1.0],
                            [0.0, 1.0, 2.0, 1002.0])
        assert sizes == [2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_state_overflow_names_first_time(self):
        # the step matrix e^{300 H} is finite, e^{900} is not
        with pytest.raises(HypflowError, match=r"at t = 900\.0$"):
            flow.trajectory(np.diag([1.0, -1.0]), [1.0, 1.0],
                            [0.0, 300.0, 600.0, 900.0, 1200.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h, grid, when", [
        # dt*H itself is past the float range: the matrix is not to blame
        ([[0.0, 1e300], [0.0, 0.0]], [0.0, 0.5, 1e10], "10000000000.0"),
        (1e300 * np.eye(2), [1e10, 2e10], "10000000000.0"),
        # finite entries whose 2-norm passes the float range
        (np.full((4, 4), 1e308), [0.0, 1.0], "1.0"),
        # finite times whose difference passes it
        (np.eye(2), [-1e308, 1e308], "1e+308")])
    def test_generator_overflow_is_flow_overflow(self, h, grid, when):
        with pytest.raises(HypflowError, match=f"at t = {re.escape(when)}$"):
            flow.trajectory(h, np.ones(len(h)), grid)

    @pytest.mark.parametrize("x0", [[np.inf, 1.0], [1.0, np.nan]])
    def test_non_finite_state_rejected(self, x0):
        with pytest.raises(ValueError, match="x0"):
            flow.trajectory(np.diag([-1.0, 2.0]), x0, [0.0, 1.0])
        with pytest.raises(ValueError, match="x0"):
            flow.flow_map(np.diag([-1.0, 2.0]), 1.0, x0)

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, np.inf],
                                      [-np.inf, 0.0], [np.nan]])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="time grid"):
            flow.trajectory(np.diag([-1.0, 2.0]), [1.0, 1.0], grid)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="time"):
            flow.flow_map(np.diag([-1.0, 2.0]), t, [1.0, 1.0])

    def test_complex_state_rejected(self):
        # the imaginary part used to be dropped with only a ComplexWarning
        with pytest.raises(ValueError, match="^x0 entries must be real$"):
            flow.flow_map([[1.0]], 1.0, np.array([1j]))
        with pytest.raises(ValueError, match="^x0 entries must be real$"):
            flow.trajectory([[0.0]], [1.0 + 0j], [0.0, 1.0])

    def test_complex_grid_rejected(self):
        with pytest.raises(ValueError, match="^time grid entries must be real$"):
            flow.trajectory([[0.0]], [1.0], np.array([0, 1 + 1j]))
        with pytest.raises(ValueError, match="^time grid entries must be real$"):
            flow.flow_map([[0.0]], 1j, [1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(NonAscendingGrid, match="^time grid must be nonempty$"):
            flow.trajectory(np.eye(2), [1.0, 1.0], [])

    def test_descending_grid_rejected(self):
        with pytest.raises(NonAscendingGrid):
            flow.trajectory(np.eye(2), [1.0, 1.0], [1.0, 0.5])

    def test_duplicate_times_rejected(self):
        with pytest.raises(NonAscendingGrid):
            flow.trajectory(np.eye(2), [1.0, 1.0], [0.0, 0.0, 1.0])


class TestSplitting:
    def test_diagonal_axes(self):
        sp = flow.splitting(np.diag([-1.0, 2.0]))
        np.testing.assert_allclose(np.abs(sp.stable), [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(sp.unstable), [[0.0], [1.0]], atol=1e-12)

    def test_fully_stable(self):
        sp = flow.splitting(np.array([[-1.0, 1.0], [0.0, -2.0]]))
        assert sp.stable.shape == (2, 2)
        assert sp.unstable.shape == (2, 0)

    def test_complex_pair_block(self):
        h = np.zeros((3, 3))
        h[:2, :2] = [[-1.0, 1.0], [-1.0, -1.0]]
        h[2, 2] = 1.0
        sp = flow.splitting(h)
        assert sp.stable.shape == (3, 2)
        assert sp.unstable.shape == (3, 1)
        for basis in (sp.stable, sp.unstable):
            gram = basis.T @ basis
            np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-10)
            residual = h @ basis - basis @ (basis.T @ h @ basis)
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(h)

    def test_defective_stable_block(self):
        h = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
        sp = flow.splitting(h)
        assert sp.stable.shape == (3, 2)
        residual = h @ sp.stable - sp.stable @ (sp.stable.T @ h @ sp.stable)
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(h)

    def test_invariance_on_generated(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            s = int(rng.integers(0, d + 1))
            h = robustness.generate(ConjugacyClass(s, d - s, d),
                                    conditioning=float(rng.uniform(1, 10)),
                                    seed=int(rng.integers(0, 2 ** 31)))
            sp = flow.splitting(h)
            assert sp.stable.shape[1] == s
            assert sp.unstable.shape[1] == d - s
            for basis in (sp.stable, sp.unstable):
                if basis.shape[1] == 0:
                    continue
                gram = basis.T @ basis
                assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-10
                residual = h @ basis - basis @ (basis.T @ h @ basis)
                assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(h)

    def test_stable_decay_unstable_growth(self, rng):
        cond = 10.0
        for _ in range(6):
            d = int(rng.integers(2, 6))
            s = int(rng.integers(1, d))
            h = robustness.generate(ConjugacyClass(s, d - s, d), cond,
                                    seed=int(rng.integers(0, 2 ** 31)))
            sp = flow.splitting(h)
            spec = spectral.eigenvalues(h).values
            stable_gap = min(-v.real for v in spec if v.real < 0)
            unstable_gap = min(v.real for v in spec if v.real > 0)
            coeffs = rng.standard_normal(s)
            x_s = sp.stable @ (coeffs / np.linalg.norm(coeffs))
            coeffs = rng.standard_normal(d - s)
            x_u = sp.unstable @ (coeffs / np.linalg.norm(coeffs))
            for t in (1.0, 2.0, 4.0, 8.0):
                decay = np.linalg.norm(flow.flow_map(h, t, x_s))
                assert decay <= cond * np.exp(-0.5 * stable_gap * t)
                growth = np.linalg.norm(flow.flow_map(h, -t, x_u))
                assert growth <= cond * np.exp(-0.5 * unstable_gap * t)

    @pytest.mark.parametrize("exponent", [34, 531])
    def test_huge_finite_input_keeps_its_subspaces(self, exponent):
        # at 2**531 > 1e155, H @ H would overflow; at 2**34 the rank
        # tolerance 1e-10*(1 + ||H||) would exceed the unit kernel vectors
        a = np.random.default_rng(2).standard_normal((4, 4))
        small = flow.splitting(a)
        big = flow.splitting(np.ldexp(a, exponent))
        for x, y in ((small.stable, big.stable), (small.unstable, big.unstable)):
            assert x.shape == y.shape
            np.testing.assert_allclose(y @ y.T, x @ x.T, atol=1e-12)

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            flow.splitting(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            flow.splitting(np.diag([-1.0, 2.0]), tau)

    @pytest.mark.parametrize("cls, cond, seed", [
        ((2, 3, 5), 1e3, 46), ((3, 3, 6), 1e4, 1), ((2, 3, 5), 1e4, 2)])
    def test_ill_conditioned_generated(self, cls, cond, seed):
        h = robustness.generate(ConjugacyClass(*cls), cond, seed)
        assert_splits(h, flow.splitting(h), cls[0])

    def test_ill_conditioned_sweep_answers_or_refuses(self):
        for cond in (1e5, 1e6, 1e7, 1e8):
            for seed in range(60):
                rng = np.random.default_rng(seed)
                d = int(rng.integers(2, 9))
                s = int(rng.integers(0, d + 1))
                h = robustness.generate(ConjugacyClass(s, d - s, d), cond, seed)
                try:
                    sp = flow.splitting(h)
                except (NotHyperbolic, NonConvergence):
                    continue
                assert_splits(h, sp, inertia.classify(h).inertia.s)

    def test_step_cap_is_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(flow, "_MAX_SIGN_STEPS", 1)
        with pytest.raises(NonConvergence):
            flow.splitting(np.array([[-1.0, 3.0], [0.0, 2.0]]))

    def test_singular_step_is_nonconvergence(self, monkeypatch):
        fail_like_lapack(monkeypatch, "solve")
        with pytest.raises(NonConvergence,
                           match="singular sign step: Singular matrix"):
            flow.splitting(np.array([[-1.0, 3.0], [0.0, 2.0]]))

    def test_non_finite_step_is_nonconvergence(self, monkeypatch):
        # a sign step whose inverse is inf has no finite norm to compare
        solve = densemat._umath_linalg.solve

        @functools.wraps(solve)
        def infinite(a, b):
            return np.full_like(solve(a, b), np.inf)

        monkeypatch.setattr(densemat._umath_linalg, "solve", infinite)
        with pytest.raises(NonConvergence, match="^sign iteration left the "
                                                 "finite range$"):
            flow.splitting(np.array([[-1.0, 3.0], [0.0, 2.0]]))

    def test_wrong_split_refused(self):
        # Newton steps settle on a (1, 2) split of this (2, 1) matrix. It is
        # generate(ConjugacyClass(2, 1, 3), 1e8, 219) as the Gram-Schmidt
        # similarity built it; the QR one moves it by rounding, enough to
        # make a sign step singular instead.
        h = np.array([[float.fromhex(x) for x in row] for row in (
            ("-0x1.d267a5bd105adp+25", "0x1.1464474a99655p+25",
             "-0x1.03a6187257a36p+26"),
            ("-0x1.b315aa5da78d5p+22", "0x1.01d4cbc43b616p+22",
             "-0x1.e46cee68866bbp+22"),
            ("0x1.85f4071e28d89p+25", "-0x1.ce2c42cd5c836p+24",
             "0x1.b22d0c1af2694p+25"))])
        with pytest.raises(NonConvergence, match="wrong split"):
            flow.splitting(h)

    @pytest.mark.parametrize("h", [
        [[-1.0, 0.0], [0.0, 2.0]], [[-1.0, 3.0], [0.0, 2.0]],
        [[1.0, 0.0], [4.0, -2.0]], [[0.0, 1.0], [1.0, 0.0]],
        [[-2.0, 5.0], [-1.0, 1.0]]])
    def test_columns_oriented_by_largest_entry(self, h):
        sp = flow.splitting(np.array(h))
        for basis in (sp.stable, sp.unstable):
            for col in basis.T:
                assert col[np.argmax(np.abs(col))] > 0.0

    def test_column_sum_beyond_float_range(self):
        sp = flow.splitting(np.array([[-1e308, 1e308], [0.0, -1e308]]))
        assert sp.stable.shape == (2, 2)
        assert sp.unstable.shape == (2, 0)
        np.testing.assert_allclose(sp.stable.T @ sp.stable, np.eye(2), atol=1e-12)


def assert_splits(h, sp, s):
    """Shapes (s, u), orthonormal columns, and H on each basis keeps its
    eigenvalues on that basis's side of the axis."""
    d = h.shape[0]
    assert sp.stable.shape == (d, s)
    assert sp.unstable.shape == (d, d - s)
    for basis, side in ((sp.stable, -1.0), (sp.unstable, 1.0)):
        k = basis.shape[1]
        if k == 0:
            continue
        np.testing.assert_allclose(basis.T @ basis, np.eye(k), atol=1e-10)
        restricted = np.linalg.eigvals(basis.T @ h @ basis)
        assert np.all(side * restricted.real > 0.0)


def circle_points(n):
    angles = 2.0 * np.pi * np.arange(n) / n
    return [np.array([np.cos(a), np.sin(a)]) for a in angles]


def parse_meta(svg):
    m = re.search(r"<!-- meta s=(\d+) u=(\d+) d=(\d+) tau=([^ ]+) -->", svg)
    assert m is not None
    return int(m.group(1)), int(m.group(2)), int(m.group(3)), float(m.group(4))


def parse_polylines(svg):
    out = []
    for points in re.findall(r'points="([^"]+)"', svg):
        pts = [tuple(map(float, p.split(","))) for p in points.split()]
        out.append(np.array(pts))
    return out


class TestPortrait:
    def test_saddle_has_two_subspace_lines(self):
        svg = flow.portrait(np.diag([-1.0, 2.0]), circle_points(8), (0.0, 2.0), 50)
        assert svg.count("<line") == 2
        assert 'class="stable"' in svg
        assert 'class="unstable"' in svg
        s, u, d, _ = parse_meta(svg)
        assert (s, u, d) == (1, 1, 2)
        assert len(parse_polylines(svg)) == 8

    def test_sink_trajectories_head_to_origin(self):
        svg = flow.portrait(-np.eye(2), circle_points(6), (0.0, 4.0), 80)
        for poly in parse_polylines(svg):
            # svg coordinates of the world origin sit at the canvas center
            end = poly[-1]
            start = poly[0]
            center = np.array([300.0, 300.0])
            assert np.linalg.norm(end - center) < np.linalg.norm(start - center)

    def test_rotation_no_subspace_lines_closed_orbits(self):
        svg = flow.portrait(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                            [np.array([1.0, 0.0])], (0.0, 2.0 * np.pi), 100)
        assert svg.count("<line") == 0
        s, u, d, _ = parse_meta(svg)
        assert (s, u) == (0, 0)
        poly = parse_polylines(svg)[0]
        assert np.linalg.norm(poly[0] - poly[-1]) < 1.0  # orbit closes

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_bad_tau_rejected(self, tau):
        # inf used to be written into the meta comment as tau=inf
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            flow.portrait(np.diag([-1.0, 2.0]), circle_points(2), tau=tau)

    def test_byte_determinism(self):
        args = (np.diag([-1.0, 2.0]), circle_points(8), (0.0, 2.0), 50)
        assert flow.portrait(*args) == flow.portrait(*args)

    def test_same_class_portraits_report_same_annotation(self, rng):
        a = robustness.generate(ConjugacyClass(1, 1, 2), 3.0, seed=4)
        b = robustness.generate(ConjugacyClass(1, 1, 2), 3.0, seed=77)
        sa = parse_meta(flow.portrait(a, circle_points(4), (0.0, 1.0), 20))
        sb = parse_meta(flow.portrait(b, circle_points(4), (0.0, 1.0), 20))
        assert sa[:2] == sb[:2]

    @pytest.mark.parametrize("h, t_range", [
        (np.diag([-1.0, 2.0]), (0.0, 3.0)),
        (np.array([[-0.5, 2.0], [-2.0, -0.5]]), (0.0, 4.0)),
        (np.array([[0.3, 1.0], [-2.0, -1.1]]), (-0.5, 2.5))])
    def test_states_bitwise_per_start_point(self, monkeypatch, h, t_range):
        # the start points advance as one block; each must move exactly as
        # its own trajectory does
        blocks = []
        advance = flow._advance

        def recording(*args):
            blocks.append(advance(*args))
            return blocks[-1]

        monkeypatch.setattr(flow, "_advance", recording)
        x0_set = circle_points(7)
        flow.portrait(h, x0_set, t_range, 150)
        monkeypatch.undo()
        (states,) = blocks
        grid = np.linspace(t_range[0], t_range[1], 151)
        for i, x0 in enumerate(x0_set):
            own = flow.trajectory(h, x0, grid).states
            assert np.array_equal(states[:, i].reshape(own.shape), own)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_refused(self):
        with pytest.raises(errors.FlowOverflow, match=r"at t = 0\.9$"):
            flow.portrait(np.diag([-1.0, 800.0]), circle_points(4), (0.0, 1.0), 10)
        with pytest.raises(ValueError, match="time grid"):
            flow.portrait(np.diag([-1.0, 2.0]), circle_points(4),
                          (-1e308, 1e308), 10)

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimension):
            flow.portrait(np.eye(3), circle_points(4), (0.0, 1.0), 10)

    @pytest.mark.parametrize("steps", [0, -3, 2.5, np.float64(10.0), "10"])
    def test_bad_steps_refused(self, steps):
        # 2.5 died with a bare TypeError from linspace
        with pytest.raises(ValueError, match="^steps must be an integer >= 1$"):
            flow.portrait(np.diag([-1.0, 2.0]), circle_points(2), (0.0, 1.0),
                          steps)

    @pytest.mark.parametrize("t_range", [(1.0, 1.0), (1.0, 0.0)])
    def test_empty_time_range_refused(self, t_range):
        with pytest.raises(NonAscendingGrid,
                           match="^t_range must satisfy t0 < t1$"):
            flow.portrait(np.diag([-1.0, 2.0]), circle_points(2), t_range, 10)

    def test_no_start_points_draws_the_subspaces_alone(self):
        svg = flow.portrait(np.diag([-1.0, 2.0]), [], (0.0, 1.0), 10)
        assert svg.count("<line") == 2
        assert parse_polylines(svg) == []
        assert parse_meta(svg)[:3] == (1, 1, 2)
