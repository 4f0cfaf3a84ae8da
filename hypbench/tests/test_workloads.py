"""Seeded inputs, the fixed fault items, and the tracer's bookkeeping."""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypbench import checks, workloads
from hypbench.tracer import Tracer
from hypflow import inertia, robustness

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("d,s", [(2, 0), (2, 1), (3, 2), (4, 4)])
@pytest.mark.parametrize("pair", [False, True])
def test_build_hyperbolic_has_the_requested_class(d, s, pair):
    rng = np.random.Generator(np.random.PCG64(11))
    h = workloads.build_hyperbolic(rng, d, s, 10.0, pair)
    eig = np.linalg.eigvals(h)
    got_s, got_u, min_re = checks.open_class(h)
    assert (got_s, got_u) == (s, d - s)
    assert min_re > 0.19
    assert np.any(np.abs(eig.imag) > 0.1) == (pair and max(s, d - s) >= 2)


def test_builds_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    for wl in workloads.WORKLOADS.values():
        a = wl.build(4, tmp_path / "a")
        b = wl.build(4, tmp_path / "b")
        c = wl.build(5, tmp_path / "c")
        assert len(a) == len(b) == len(c) >= 100
        key = (lambda it: it.h.tobytes()) if wl.name == "flow" else pickle.dumps
        assert [key(x) for x in a] == [key(x) for x in b]
        assert [key(x) for x in a] != [key(x) for x in c]


def test_campaign_fault_items_fail_every_seed(tmp_path):
    wl = workloads.WORKLOADS["campaign"]
    for seed in (1, 2):
        items = wl.build(seed, tmp_path)
        faults = [it for it in items if it.fault]
        assert faults == [items[i] for i in workloads.CAMPAIGN_FAULT_STUDIES] \
            + items[workloads.CAMPAIGN_STUDIES:]
        for item in faults:
            failed, problems = wl.check(item, wl.run(item))
            assert failed and problems == []


def test_openness_fault_items_fail_and_do_not_depend_on_the_seed(tmp_path):
    wl = workloads.WORKLOADS["openness"]
    n = len(workloads.OPENNESS_FAULTS)
    faults = wl.build(1, tmp_path)[-n:]
    assert faults == wl.build(2, tmp_path)[-n:]
    for item in faults:
        failed, problems = wl.check(item, wl.run(item))
        assert failed and problems == []


def test_seed_moves_only_the_seeded_part_of_each_input():
    wl = workloads.WORKLOADS["openness"]
    a, b = wl.build(1, None), wl.build(2, None)
    for x, y in zip(a, b):
        assert (x == y) == (x.cond >= workloads.SEEDED_COND_MAX or x.fault)
    wl = workloads.WORKLOADS["campaign"]
    a, b = wl.build(1, None), wl.build(2, None)
    for x, y in zip(a[:workloads.CAMPAIGN_STUDIES], b):
        assert np.array_equal(x.h, y.h) and x.seed != y.seed


def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    original = inertia.classify
    tracer = Tracer()
    tracer.install()
    try:
        assert robustness.classify is inertia.classify is not original
        h = np.diag([-1.0, 2.0])
        mr = tracer.run_item(0, robustness.margin, h)
    finally:
        tracer.uninstall()
    assert robustness.classify is inertia.classify is original
    totals = tracer.aggregate({0: 1.0})
    assert totals["robustness.margin.calls"] == 1
    assert totals["robustness.margin.evals"] == mr.iterations
    assert totals["inertia.classify.calls"] == 1
    assert totals["spectral.sigma_min_many.matrices"] == mr.iterations
    assert totals["robustness.margin.retries"] == 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ("a", "item", 0.0, 10.0, None, 6.0),
        ("a", "robustness.margin", 1.0, 7.0, 0, 2.0, 40),
        ("a", "inertia.classify", 2.0, 4.0, 1, 0.0),
        ("a", "robustness.margin", 8.0, 9.0, 0, 0.0, 5),
    ]
    totals = tracer.aggregate({"a": 0.5})
    assert totals["robustness.margin.calls"] == 2
    assert totals["robustness.margin.self_s"] == pytest.approx((4.0 + 1.0) * 0.5)
    assert totals["inertia.classify.self_s"] == pytest.approx(1.0)
    assert totals["robustness.margin.evals"] == 45
    assert totals["robustness.margin.retries"] == 1


def test_metric_names_match_benchmark_json():
    import json

    from hypbench import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in bench[key]] == list(table)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_hypflow(tmp_path):
    import shutil

    shutil.copytree(ROOT / "hypbench", tmp_path / "hypbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "hypbench/run.py", "--workload", "openness",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
