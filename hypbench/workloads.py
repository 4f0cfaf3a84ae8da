"""The three seeded workloads: their inputs, their calls into hypflow, and
how each answer is checked.

Every workload builds a fixed list of items from ``--seed``; a run times
whole rounds of that list in order.  ``run`` holds only the calls into
hypflow (the timed part), ``finish`` collects anything the answer left on
disk, and ``check`` judges the answer with ``checks`` alone.  ``check``
returns ``(failed, problems)``: ``failed`` marks an operation hypflow could
not complete, ``problems`` lists wrong answers.

hypflow is called through its module attributes (``robustness.margin``, not
``from hypflow import margin``) so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hypflow import cli, inertia, robustness

from . import checks

OPENNESS_TRIALS = 500
# Conditioning is drawn on the openness suite's [1, 100); below this value
# from --seed, above it from a fixed stream (see _suite_conditioning).
SEEDED_COND_MAX = 30.0
# Openness trials (d, s, cond, generate seed) on which margin's answer fails
# a check in every run: lower above the distance (the first two), upper off
# numpy's SVD value by more than 1e-8 relative (the last two).
OPENNESS_FAULTS = (
    (6, 2, 95.7903024532026, 1944551509),
    (5, 2, 68.55936318182472, 832228786),
    (2, 0, 90.43903691381396, 446629766),
    (2, 2, 83.03137364943834, 776262900),
)

CAMPAIGN_STUDIES = 100
CAMPAIGN_SAMPLES = 100
CONTINUITY_STEPS = 10
# Campaign items that fail in every run, whatever the seed: the fixed study
# of index 40, whose upper lies below the distance and off numpy's SVD
# value; a 4 x 4 matrix of class (2, 2) whose global minimum margin's scan
# misses, so that lower exceeds the distance (met among seeded draws of the
# campaign's matrices); and hyperbolic Jordan-like blocks, with K = 1e3 and
# 1e4 above the diagonal, on which margin certifies no positive radius.
CAMPAIGN_FAULT_STUDIES = (40,)
CAMPAIGN_FAULT_H = (
    (12.939804063564738, 9.327397651042356, 5.009742866711864, -3.069741356574859),
    (-15.391822297970245, -10.51149423194942, -6.755742816290114, 3.752691713325863),
    (-9.351338311272345, -5.910618513749779, -3.7773273293903844, 2.4201488497421977),
    (1.3851190004642144, 2.0640512360723116, 0.5443876111981448, 0.5439928680705591),
)
FAULT_KS = (1e3, 1e4)

PORTRAIT_SEEDS = 8
# Time-grid lengths of flow requests: [low, high) per grid type.
GRID_LENGTHS = {"uniform": (101, 402), "nonuniform": (20, 41)}


def _stream(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) for c in workload)
    return np.random.Generator(np.random.PCG64([seed, tag]))


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values uniform on [lo, hi), one in each of n equal strata, in random
    order: the law of n uniform draws, but filling the range the same way
    for every seed, so that a round's cost varies little between seeds."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _suite_conditioning(streams, n: int) -> np.ndarray:
    """n conditionings stratified on the openness suite's [1, 100), the
    share below SEEDED_COND_MAX from ``streams[0]`` (the seed's) and the rest
    from ``streams[1]`` (fixed).  Above 30, margin's answer fails a check on
    a few trials (OPENNESS_FAULTS), which a seeded draw would meet on some
    seeds only."""
    n_low = round(n * (SEEDED_COND_MAX - 1.0) / 99.0)
    return np.concatenate((_strata(streams[0], n_low, 1.0, SEEDED_COND_MAX),
                           _strata(streams[1], n - n_low, SEEDED_COND_MAX, 100.0)))


def build_hyperbolic(rng: np.random.Generator, d: int, s: int, cond: float,
                     pair: bool) -> np.ndarray:
    """A d x d matrix with exactly s eigenvalues left of the axis.

    Real parts have modulus in [0.2, 2].  With ``pair``, the first side with
    two or more eigenvalues takes one complex pair.  The core is conjugated
    by T = Q1 diag(sig) Q2^T with condition number ``cond`` (Q1, Q2
    orthogonal from numpy's QR).
    """
    core = np.zeros((d, d))
    at = 0
    for count, sign in ((s, -1.0), (d - s, 1.0)):
        take = pair and count >= 2
        if take:
            re = sign * rng.uniform(0.2, 2.0)
            im = rng.uniform(0.2, 2.0)
            core[at:at + 2, at:at + 2] = [[re, im], [-im, re]]
            at += 2
            pair = False
        for _ in range(count - 2 * take):
            core[at, at] = sign * rng.uniform(0.2, 2.0)
            at += 1
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sig = cond ** np.linspace(0.0, 1.0, d)
    return (q1 * sig) @ q2.T @ core @ (q2 / sig) @ q1.T


def _margin_fields(mr) -> tuple:
    return (mr.lower, mr.upper, mr.omega_star, mr.iterations)


class Workload:
    """A named, seeded item list; subclasses define build, run and check."""

    name: str
    n_items: int

    def finish(self, item, out: dict) -> dict:
        """Complete an answer after its timing ended (default: as is)."""
        return out


# --------------------------------------------------------------------------
# openness: one trial of the openness suite per item


@dataclass(frozen=True)
class OpennessItem:
    d: int
    s: int
    cond: float
    gen_seed: int
    campaign_seed: int
    fault: bool = False


class Openness(Workload):
    """``openness_suite``'s trial, spelled out as its public calls."""

    name = "openness"
    n_items = OPENNESS_TRIALS + len(OPENNESS_FAULTS)

    def build(self, seed: int, workdir: Path) -> list:
        # As the suite: d in 2..6, s in 0..d, conditioning on [1, 100); here
        # d and s cycle and the conditioning is stratified per d.  The trials
        # in OPENNESS_FAULTS follow.
        streams = (_stream(seed, self.name), _stream(0, "openness-fixed"))
        per_d = OPENNESS_TRIALS // 5
        conds = {d: _suite_conditioning(streams, per_d) for d in range(2, 7)}
        items = []
        for i in range(OPENNESS_TRIALS):
            d, k = 2 + i % 5, i // 5
            cond = float(conds[d][k])
            rng = streams[cond >= SEEDED_COND_MAX]
            items.append(OpennessItem(d, k % (d + 1), cond,
                                      int(rng.integers(0, 2 ** 31)),
                                      int(rng.integers(0, 2 ** 31))))
        items += [OpennessItem(d, s, cond, gen_seed, 1, fault=True)
                  for d, s, cond, gen_seed in OPENNESS_FAULTS]
        return items

    def run(self, item: OpennessItem) -> dict:
        cls = inertia.ConjugacyClass(s=item.s, u=item.d - item.s, d=item.d)
        h = robustness.generate(cls, item.cond, item.gen_seed)
        tau = inertia.default_tolerance(h)
        mr = robustness.margin(h, tau, tol=0.05)
        retried = mr.lower <= 0.0 < mr.upper
        if retried:
            mr = robustness.margin(h, tau, tol=mr.upper / 4.0)
        out = {"h": h.tobytes(), "margin": _margin_fields(mr), "retried": retried}
        if mr.lower <= 0.0:
            return out
        rep = robustness.perturb_campaign(h, samples=1, radius=0.9 * mr.lower,
                                          seed=item.campaign_seed, tau=tau)
        bi = rep.base_inertia
        out["campaign"] = ((bi.s, bi.u, bi.c), rep.flips, rep.radius)
        return out

    def check(self, item: OpennessItem, out: dict) -> tuple[bool, list]:
        h = np.frombuffer(out["h"]).reshape(item.d, item.d)
        lower, upper, omega, _ = out["margin"]
        if lower <= 0.0:
            return True, []
        problems = []
        s, u, _ = checks.open_class(h)
        if (s, u) != (item.s, item.d - item.s):
            problems.append(f"generated class ({s}, {u}) != requested "
                            f"({item.s}, {item.d - item.s})")
        problems += checks.check_margin(h, lower, upper, omega)
        base, flips, radius = out["campaign"]
        problems += checks.check_campaign(h, (item.s, item.d - item.s), lower,
                                          base, flips, 1, radius,
                                          item.campaign_seed)
        if item.fault:
            return bool(problems), []
        return False, problems


# --------------------------------------------------------------------------
# campaign: a robustness study of one base matrix per item


@dataclass(frozen=True, eq=False)
class CampaignItem:
    h: np.ndarray
    cls: tuple
    seed: int
    sequence: tuple
    fault: bool = False


class Campaign(Workload):
    """margin at the default tol, a 100-sample campaign at 0.9 * lower (as
    ``hypflow perturb`` without --radius), then continuity along H + G/n."""

    name = "campaign"
    n_items = CAMPAIGN_STUDIES + 1 + len(FAULT_KS)

    def build(self, seed: int, workdir: Path) -> list:
        # The matrices of the openness suite (d in 2..6, s in 0..d,
        # conditioning on [1, 100)), with d and s cycling, a complex pair in
        # every other matrix of a class and the conditioning stratified per
        # d.  They come from a fixed stream: at tol 1e-6 margin's answer
        # fails a check on about one such matrix in 2000, so a seeded draw
        # would fail on some seeds only.  The seed draws each study's
        # perturbation seed and continuity sequence.  The fault items follow.
        fixed, seeded = _stream(0, "campaign-fixed"), _stream(seed, self.name)
        per_d = CAMPAIGN_STUDIES // 5
        conds = {d: _strata(fixed, per_d, 1.0, 100.0) for d in range(2, 7)}
        items = []
        for i in range(CAMPAIGN_STUDIES):
            d, k = 2 + i % 5, i // 5
            s = k % (d + 1)
            h = build_hyperbolic(fixed, d, s, float(conds[d][k]),
                                 pair=(k // (d + 1)) % 2 == 0)
            items.append(self._item(h, (s, d - s), seeded,
                                    fault=i in CAMPAIGN_FAULT_STUDIES))
        fault_rng = np.random.Generator(np.random.PCG64(0))
        items.append(self._item(np.array(CAMPAIGN_FAULT_H), (2, 2), fault_rng,
                                fault=True))
        for k in FAULT_KS:
            h = np.array([[-0.5, k, 0.0], [0.0, -0.5, k], [0.0, 0.0, -0.5]])
            items.append(self._item(h, (3, 0), fault_rng, fault=True))
        return items

    @staticmethod
    def _item(h, cls, rng, fault=False) -> CampaignItem:
        g = rng.standard_normal(h.shape)
        seq = tuple(h + g / n for n in range(1, CONTINUITY_STEPS + 1))
        return CampaignItem(h, cls, int(rng.integers(0, 2 ** 31)), seq, fault)

    def run(self, item: CampaignItem) -> dict:
        mr = robustness.margin(item.h)
        out = {"margin": _margin_fields(mr)}
        if mr.lower <= 0.0:
            return out
        rep = robustness.perturb_campaign(item.h, CAMPAIGN_SAMPLES,
                                          0.9 * mr.lower, item.seed)
        bi = rep.base_inertia
        out["campaign"] = ((bi.s, bi.u, bi.c), rep.flips, rep.radius)
        cc = robustness.continuity_check(item.h, item.sequence)
        out["continuity"] = (tuple(cc.max_mismatch),
                             tuple(tuple(p) for p in cc.pairings))
        return out

    def check(self, item: CampaignItem, out: dict) -> tuple[bool, list]:
        lower, upper, omega, _ = out["margin"]
        if lower <= 0.0:
            return True, []
        problems = checks.check_margin(item.h, lower, upper, omega)
        base, flips, radius = out["campaign"]
        problems += checks.check_campaign(item.h, item.cls, lower, base, flips,
                                          CAMPAIGN_SAMPLES, radius, item.seed)
        mismatch, pairings = out["continuity"]
        problems += checks.check_continuity(item.h, item.sequence, mismatch,
                                            pairings)
        if item.fault:
            return bool(problems), []
        return False, problems


# --------------------------------------------------------------------------
# flow: one in-process CLI request per item


@dataclass(frozen=True, eq=False)
class FlowItem:
    argv: tuple
    h: np.ndarray
    out_path: Path
    x0: np.ndarray = None
    times: np.ndarray = None
    cls: tuple = None


def _csv_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_matrix(path: Path, h: np.ndarray) -> None:
    doc = {"d": int(h.shape[0]), "data": [[float(v) for v in row] for row in h]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


class Flow(Workload):
    """``hypflow flow`` on uniform and non-uniform grids, some ``portrait``."""

    name = "flow"
    n_items = 200

    def build(self, seed: int, workdir: Path) -> list:
        # Every tenth item is a portrait; the others alternate uniform and
        # non-uniform grids with d cycling through 2..8.  Grid lengths and
        # end times are stratified per grid type and d (see _strata), since
        # the cost of a non-uniform grid grows with both.
        rng = _stream(seed, self.name)
        workdir.mkdir(parents=True, exist_ok=True)
        seen = {"uniform": 0, "nonuniform": 0, "portrait": 0}
        plan = []
        for i in range(self.n_items):
            kind = ("portrait" if i % 10 == 9
                    else "nonuniform" if i % 2 else "uniform")
            k = seen[kind]
            seen[kind] += 1
            plan.append((kind, k, 2 if kind == "portrait" else 2 + k % 7))
        groups = {}
        for kind, _, d in plan:
            if kind != "portrait":
                groups[kind, d] = groups.get((kind, d), 0) + 1
        lengths = {g: _strata(rng, n, *GRID_LENGTHS[g[0]])
                   for g, n in groups.items()}
        ends = {g: _strata(rng, n, 1.0, 4.0) for g, n in groups.items()}
        items = []
        for i, (kind, k, d) in enumerate(plan):
            path = workdir / f"m{i}.json"
            if kind == "portrait":
                s = k % 3
                h = build_hyperbolic(rng, 2, s, float(rng.uniform(1.0, 4.0)),
                                     pair=(k // 3) % 2 == 0)
                out = workdir / f"p{i}.svg"
                argv = ("portrait", str(path), "--seeds", str(PORTRAIT_SEEDS),
                        "--out", str(out))
                items.append(FlowItem(argv, h, out, cls=(s, 2 - s)))
            else:
                h = rng.standard_normal((d, d)) / np.sqrt(d)
                x0 = rng.standard_normal(d)
                n = int(lengths[kind, d][k // 7])
                t_end = float(ends[kind, d][k // 7])
                if kind == "uniform":
                    times = np.linspace(0.0, t_end, n)
                else:
                    times = np.unique(np.concatenate(
                        ([0.0], rng.uniform(0.0, t_end, n - 1))))
                out = workdir / f"f{i}.csv"
                argv = ("flow", str(path), "--x0=" + _csv_floats(x0),
                        "--times=" + _csv_floats(times), "--out", str(out))
                items.append(FlowItem(argv, h, out, x0=x0, times=times))
            _write_matrix(path, h)
        return items

    def run(self, item: FlowItem) -> dict:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(item.argv))
        return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def finish(self, item: FlowItem, out: dict) -> dict:
        if out["rc"] == 0:
            out["payload"] = item.out_path.read_text(encoding="utf-8")
        return out

    def check(self, item: FlowItem, out: dict) -> tuple[bool, list]:
        if out["rc"] != 0:
            return True, []
        if item.cls is not None:
            return False, checks.check_portrait(out["payload"], out["stdout"],
                                                item.cls, PORTRAIT_SEEDS)
        return False, checks.check_flow_csv(out["payload"], item.h, item.x0,
                                            item.times)


WORKLOADS = {w.name: w for w in (Openness(), Campaign(), Flow())}
