"""Each checker accepts hypflow's right answer and rejects a wrong one."""

import numpy as np
import pytest

from hypbench import checks
from hypflow import flow, robustness

SADDLE = np.array([[-1.0, 0.5], [0.0, 2.0]])
SPIRAL = np.array([[-0.3, 2.0], [-2.0, -0.3]])


def test_byers_bracket_on_closed_forms():
    # normal matrices: the distance is the smallest |Re lambda|
    lo, hi = checks.byers_bracket(np.diag([-1.0, 2.0]))
    assert lo <= 1.0 <= hi and hi - lo < 1e-10
    lo, hi = checks.byers_bracket(SPIRAL)
    assert lo <= 0.3 <= hi and hi - lo < 1e-10


def test_bottleneck_distance_by_hand():
    # pairings (0-2, 3-1) cost max 2, (0-1, 3-2) cost max 1
    assert checks.bottleneck_distance([0, 3], [2, 1]) == 1.0
    assert checks.bottleneck_distance([0, 10], [1, 10.5]) == 1.0
    assert checks.bottleneck_distance([1j, -1j], [-1j, 1j]) == 0.0


@pytest.fixture(scope="module")
def saddle_margin():
    return robustness.margin(SADDLE)


def test_margin_check_accepts_hypflow(saddle_margin):
    mr = saddle_margin
    assert checks.check_margin(SADDLE, mr.lower, mr.upper, mr.omega_star) == []


def test_margin_check_rejects_scaled_upper(saddle_margin):
    mr = saddle_margin
    problems = checks.check_margin(SADDLE, mr.lower, 0.99 * mr.upper, mr.omega_star)
    assert any("SVD" in p for p in problems)
    assert any("below distance" in p for p in problems)


def test_margin_check_rejects_lower_above_distance(saddle_margin):
    mr = saddle_margin
    problems = checks.check_margin(SADDLE, 1.01 * mr.upper, mr.upper, mr.omega_star)
    assert any("lower" in p for p in problems)


def _campaign(h, samples=20):
    mr = robustness.margin(h)
    rep = robustness.perturb_campaign(h, samples, 0.9 * mr.lower, seed=5)
    bi = rep.base_inertia
    return mr.lower, (bi.s, bi.u, bi.c), rep.flips, rep.radius


def test_campaign_check_accepts_hypflow():
    lower, base, flips, radius = _campaign(SADDLE)
    assert checks.check_campaign(SADDLE, (1, 1), lower, base, flips, 20,
                                 radius, 5) == []


def test_campaign_check_rejects_flipped_class():
    h = np.array([[-1.0, 0.3, 0.0], [0.0, -2.0, 0.5], [0.0, 0.0, 3.0]])
    lower, base, flips, radius = _campaign(h)
    assert checks.check_campaign(h, (2, 1), lower, base, flips, 20, radius, 5) == []
    problems = checks.check_campaign(h, (1, 2), lower, base, flips, 20, radius, 5)
    assert any("built class" in p for p in problems)
    flipped = (base[1], base[0], base[2])
    problems = checks.check_campaign(h, (2, 1), lower, flipped, flips, 20,
                                     radius, 5)
    assert any("base inertia" in p for p in problems)


def test_campaign_check_rejects_reported_flip_and_radius_above_margin():
    lower, base, _, radius = _campaign(SADDLE)
    problems = checks.check_campaign(SADDLE, (1, 1), lower, base, 1, 20,
                                     radius, 5)
    assert any("flips below" in p for p in problems)
    problems = checks.check_campaign(SADDLE, (1, 1), lower, base, 0, 20,
                                     1.5 * lower, 5)
    assert any("radius" in p for p in problems)


def test_recount_finds_flips_beyond_the_distance():
    h = np.diag([-0.01, 1.0])
    assert checks.recount_flips(h, 50, 0.009, seed=3, base=(1, 1)) == 0
    assert checks.recount_flips(h, 50, 0.5, seed=3, base=(1, 1)) > 0


def test_continuity_check_accepts_hypflow_and_rejects_halved_mismatch():
    rng = np.random.default_rng(2)
    h = np.array([[-1.0, 0.4, 0.0], [0.0, 0.5, 1.0], [0.2, 0.0, 1.5]])
    g = rng.standard_normal((3, 3))
    seq = [h + g / n for n in range(1, 11)]
    cc = robustness.continuity_check(h, seq)
    assert checks.check_continuity(h, seq, cc.max_mismatch, cc.pairings) == []
    halved = [0.5 * m for m in cc.max_mismatch]
    assert checks.check_continuity(h, seq, halved, cc.pairings)
    bad_perm = [[0, 0, 1]] + list(cc.pairings[1:])
    problems = checks.check_continuity(h, seq, cc.max_mismatch, bad_perm)
    assert any("permutation" in p for p in problems)


def _csv(h, x0, times):
    traj = flow.trajectory(h, x0, times)
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(h.shape[0]))]
    for t, state in zip(traj.times, traj.states):
        lines.append(",".join(format(v, ".17g") for v in (t, *state)))
    return lines


def test_flow_csv_check_accepts_hypflow_and_rejects_negated_entry():
    x0 = np.array([-1.0, 2.0])
    times = np.linspace(0.0, 2.0, 21)
    lines = _csv(SADDLE, x0, times)
    assert checks.check_flow_csv("\n".join(lines) + "\n", SADDLE, x0, times) == []
    fields = lines[7].split(",")
    fields[2] = repr(-float(fields[2]))
    lines[7] = ",".join(fields)
    problems = checks.check_flow_csv("\n".join(lines) + "\n", SADDLE, x0, times)
    assert len(problems) == 1 and problems[0].startswith("row 6")


def test_flow_csv_check_rejects_wrong_shape():
    x0 = np.array([1.0, 1.0])
    times = np.linspace(0.0, 1.0, 5)
    lines = _csv(SADDLE, x0, times)
    assert checks.check_flow_csv("\n".join(lines[:-1]), SADDLE, x0, times)
    assert checks.check_flow_csv("\n".join(["t,y1,y2"] + lines[1:]), SADDLE,
                                 x0, times)


def test_portrait_check_accepts_hypflow_and_rejects_wrong_class():
    seeds = [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0, 6, 8)]
    svg = flow.portrait(SADDLE, seeds)
    assert checks.check_portrait(svg, "s=1 u=1\n", (1, 1), 8) == []
    assert checks.check_portrait(svg, "s=1 u=1\n", (2, 0), 8)
    dropped = svg.replace('<line class="unstable"', '<line class="other"')
    problems = checks.check_portrait(dropped, "s=1 u=1\n", (1, 1), 8)
    assert any("unstable lines" in p for p in problems)
    assert checks.check_portrait(svg, "s=1 u=1\n", (1, 1), 7)
