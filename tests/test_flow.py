import re

import numpy as np
import pytest

from hypflow import densemat, flow, matching, robustness, spectral
from hypflow.errors import (DimensionMismatch, NonAscendingGrid,
                            NotHyperbolic, UnsupportedDimension)
from hypflow.inertia import ConjugacyClass


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

    def test_uniform_grid_single_exponential(self, monkeypatch):
        # linspace steps differ in their last bits; one e^{dt H} must serve all
        calls = []
        expm = flow.expm
        monkeypatch.setattr(flow, "expm", lambda a: calls.append(1) or expm(a))
        flow.trajectory(np.array([[-1.0, 2.0], [0.0, 0.5]]), [1.0, 1.0],
                        np.linspace(0.0, 4.0, 401))
        assert len(calls) == 1

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

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            flow.splitting(np.array([[0.0, 1.0], [-1.0, 0.0]]))


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

    def test_byte_determinism(self):
        args = (np.diag([-1.0, 2.0]), circle_points(8), (0.0, 2.0), 50)
        assert flow.portrait(*args) == flow.portrait(*args)

    def test_same_class_portraits_report_same_annotation(self, rng):
        a = robustness.generate(ConjugacyClass(1, 1, 2), 3.0, seed=4)
        b = robustness.generate(ConjugacyClass(1, 1, 2), 3.0, seed=77)
        sa = parse_meta(flow.portrait(a, circle_points(4), (0.0, 1.0), 20))
        sb = parse_meta(flow.portrait(b, circle_points(4), (0.0, 1.0), 20))
        assert sa[:2] == sb[:2]

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimension):
            flow.portrait(np.eye(3), circle_points(4), (0.0, 1.0), 10)
