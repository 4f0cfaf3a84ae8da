"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure so a run reads as a checklist.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np
import pytest

from hypflow import (cli, densemat, flow, inertia, matching, robustness,
                     spectral)
from hypflow.inertia import ConjugacyClass

from conftest import write_matrix
from oracles import byers_distance


def report(number, name, ok, detail):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_normal_matrix(rng, d):
    """Orthogonally conjugated block-diagonal matrix (hence normal) together
    with the constructed min |Re lambda|."""
    blocks = []
    vals = []
    i = 0
    while i < d:
        re = rng.uniform(0.1, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        if d - i >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.1, 2.0)
            blocks.append(np.array([[re, im], [-im, re]]))
            vals += [re, re]
            i += 2
        else:
            blocks.append(np.array([[re]]))
            vals.append(re)
            i += 1
    core = np.zeros((d, d))
    at = 0
    for b in blocks:
        k = b.shape[0]
        core[at:at + k, at:at + k] = b
        at += k
    q = robustness._random_orthogonal(rng, 1, d)[0]
    return q @ core @ q.T, min(abs(v) for v in vals)


def test_criterion_1_openness():
    t0 = time.time()
    result = robustness.run_suite("openness", seed=1, trials=1000)
    elapsed = time.time() - t0
    ok = result.failed == 0 and elapsed < 60.0
    report(1, "openness: no inertia flip below the margin", ok,
           f"{result.passed}/{result.total} in {elapsed:.1f}s")


def test_criterion_2_density():
    result = robustness.run_suite("density", seed=1, trials=500)
    report(2, "density: diagonal shifts hyperbolize within any bound",
           result.failed == 0, f"{result.passed}/{result.total}")


def test_criterion_3_eigenvalue_oracle_equivalence():
    result = robustness.run_suite("oracle", seed=1, trials=1000)
    ok = result.failed == 0 and result.worst <= 1e-6
    report(3, "LAPACK route vs char-poly+Aberth route within 1e-6", ok,
           f"{result.passed}/{result.total}, worst {result.worst:.2e}")


def test_criterion_4_vieta_and_det_convergence():
    result = robustness.run_suite("vieta", seed=1, trials=1000)
    ok = result.failed == 0 and result.worst <= 1e-8
    # 20-step sequences H + G/n: |det A_n - det H| decays like the
    # first-order rate c1/n (pairs with degenerate or second-order-dominated
    # rates are excluded: there the decay is strictly faster than 1/n)
    rng = np.random.default_rng(4)
    accepted = 0
    seq_ok = True
    worst_ratio = 0.0
    while accepted < 20:
        d = int(rng.integers(2, 7))
        h_mat = rng.standard_normal((d, d))
        g = rng.standard_normal((d, d))
        det_h = densemat.det(h_mat)

        def gap(t):
            return abs(densemat.det(h_mat + t * g) - det_h)

        step = 1e-4
        c1 = abs(densemat.det(h_mat + step * g)
                 - densemat.det(h_mat - step * g)) / (2.0 * step)
        c2 = (densemat.det(h_mat + step * g) + densemat.det(h_mat - step * g)
              - 2.0 * det_h) / (2.0 * step * step)
        if c1 < 0.5 or abs(c2) > 2.0 * c1:
            continue
        accepted += 1
        e = [gap(1.0 / n) for n in range(1, 21)]
        for k in range(4, 19):
            if e[k] < e[k + 1] - 1e-12:
                seq_ok = False
        for n in range(5, 21):
            ratio = n * e[n - 1] / c1
            worst_ratio = max(worst_ratio, abs(np.log2(ratio)))
            if not 0.5 <= ratio <= 2.0:
                seq_ok = False
    ok = ok and seq_ok
    report(4, "eigenvalue product = det; det gap decays like 1/n", ok,
           f"worst discrepancy {result.worst:.2e}, "
           f"worst envelope log2-ratio {worst_ratio:.2f}")


def test_criterion_5_shift_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d))
        eps = float(rng.uniform(-1.0, 1.0))
        shifted = spectral.eigenvalues(a + eps * np.eye(d)).values
        moved = spectral.eigenvalues(a).values + eps
        worst = max(worst, matching.matched_distance(shifted, moved))
    report(5, "matched eigenvalue displacement equals the shift", worst <= 1e-8,
           f"worst {worst:.2e} over 500 pairs")


def test_criterion_6_margin_cross_check():
    rng = np.random.default_rng(6)
    worst_vs_bisection = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        s = int(rng.integers(0, d + 1))
        a = robustness.generate(ConjugacyClass(s, d - s, d),
                                conditioning=float(rng.uniform(1.0, 20.0)),
                                seed=int(rng.integers(0, 2 ** 31)))
        m = robustness.margin(a, tol=1e-6)
        ref = byers_distance(a, tol=1e-8)
        worst_vs_bisection = max(worst_vs_bisection, abs(m.upper - ref))
    worst_normal = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        a, min_re = random_normal_matrix(rng, d)
        m = robustness.margin(a, tol=1e-6)
        worst_normal = max(worst_normal, abs(m.upper - min_re))
    ok = worst_vs_bisection <= 2e-6 and worst_normal <= 1e-6
    report(6, "margin agrees with the Hamiltonian bisection oracle", ok,
           f"vs bisection {worst_vs_bisection:.2e}, normal case {worst_normal:.2e}")


def test_criterion_7_flow_suite():
    rng = np.random.default_rng(7)
    worst = {"group": 0.0, "det": 0.0, "map": 0.0}
    for _ in range(200):
        d = int(rng.integers(2, 6))
        h = rng.standard_normal((d, d))
        h *= rng.uniform(0.1, 5.0) / densemat.op_norm2(h)
        s = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(-2.0, 2.0))
        joint = flow.expm((s + t) * h)
        split = flow.expm(s * h) @ flow.expm(t * h)
        worst["group"] = max(worst["group"],
                             float(np.max(np.abs(joint - split))
                                   / (1.0 + np.max(np.abs(joint)))))
        lhs = densemat.det(flow.expm(h))
        rhs = float(np.exp(np.trace(h)))
        worst["det"] = max(worst["det"], abs(lhs - rhs) / (1.0 + abs(rhs)))
        mapped = np.exp(spectral.eigenvalues(h).values)
        direct = spectral.eigenvalues(flow.expm(h)).values
        worst["map"] = max(worst["map"],
                           matching.matched_distance(mapped, direct))
    decay_ok = True
    for _ in range(200):
        d = int(rng.integers(2, 6))
        s = int(rng.integers(1, d))
        cond = 10.0
        h = robustness.generate(ConjugacyClass(s, d - s, d), cond,
                                seed=int(rng.integers(0, 2 ** 31)))
        sp = flow.splitting(h)
        spec = spectral.eigenvalues(h).values
        alpha = 0.5 * min(-v.real for v in spec if v.real < 0)
        coeffs = rng.standard_normal(s)
        x0 = sp.stable @ (coeffs / np.linalg.norm(coeffs))
        for t in (1.0, 2.0, 4.0, 8.0):
            if np.linalg.norm(flow.flow_map(h, t, x0)) > cond * np.exp(-alpha * t):
                decay_ok = False
    closed = max(
        float(np.max(np.abs(flow.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
                            - np.array([[1.0, 1.0], [0.0, 1.0]])))),
        float(np.max(np.abs(flow.expm(1.3 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
                            - np.array([[np.cos(1.3), np.sin(1.3)],
                                        [-np.sin(1.3), np.cos(1.3)]])))),
        float(np.max(np.abs(flow.expm(np.diag([-1.0, 2.0]))
                            - np.diag([np.exp(-1.0), np.exp(2.0)])))) / np.exp(2.0),
    )
    ok = (worst["group"] <= 1e-8 and worst["det"] <= 1e-8
          and worst["map"] <= 1e-6 and decay_ok and closed <= 1e-10)
    report(7, "flow: group law, det=exp(trace), spectral mapping, decay", ok,
           f"group {worst['group']:.2e}, det {worst['det']:.2e}, "
           f"map {worst['map']:.2e}, closed-form {closed:.2e}")


def test_criterion_8_conjugacy_classification():
    rng = np.random.default_rng(8)
    agree = 0
    total = 0
    for _ in range(250):
        d = int(rng.integers(2, 6))
        sa = int(rng.integers(0, d + 1))
        sb = int(rng.integers(0, d + 1))
        a = robustness.generate(ConjugacyClass(sa, d - sa, d),
                                conditioning=5.0,
                                seed=int(rng.integers(0, 2 ** 31)))
        b = robustness.generate(ConjugacyClass(sb, d - sb, d),
                                conditioning=5.0,
                                seed=int(rng.integers(0, 2 ** 31)))
        total += 1
        if inertia.same_class(a, b) == (sa == sb):
            agree += 1
    for _ in range(250):
        d = int(rng.integers(2, 6))
        s = int(rng.integers(0, d + 1))
        a = robustness.generate(ConjugacyClass(s, d - s, d),
                                conditioning=5.0,
                                seed=int(rng.integers(0, 2 ** 31)))
        t = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
        b = t @ a @ np.linalg.inv(t)
        total += 1
        if inertia.same_class(a, b):
            agree += 1
    report(8, "same_class decides (s,u) equality incl. similarity copies",
           agree == total, f"{agree}/{total}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    fixtures = {
        "saddle": np.diag([-1.0, 2.0]),
        "rotation": np.array([[0.0, 1.0], [-1.0, 0.0]]),
        "shear": np.array([[-1.0, 100.0], [0.0, -1.0]]),
    }
    paths = {}
    for name, m in fixtures.items():
        p = tmp_path / f"{name}.json"
        write_matrix(p, m)
        paths[name] = str(p)
    svg_out = tmp_path / "portrait.svg"
    csv_out = tmp_path / "flow.csv"
    commands = [
        ["classify", paths["saddle"]],
        ["classify", paths["rotation"]],
        ["margin", paths["shear"]],
        ["perturb", paths["saddle"], "--samples", "50", "--radius", "0.4",
         "--seed", "42"],
        ["flow", paths["saddle"], "--x0", "1,1", "--times", "0,0.5,1",
         "--out", str(csv_out)],
        ["portrait", paths["saddle"], "--out", str(svg_out)],
        ["verify", "vieta", "--seed", "1", "--samples", "50"],
    ]
    ok = True
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli.main(argv)
            out = capsys.readouterr().out
            payload = b""
            if "--out" in argv:
                payload = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
            runs.append((code, out, payload))
        if runs[0] != runs[1]:
            ok = False
    report(9, "CLI byte determinism across consecutive runs", ok,
           f"{len(commands)} subcommands checked")
