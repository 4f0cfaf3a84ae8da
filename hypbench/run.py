#!/usr/bin/env python3
"""Run one workload of the hypflow benchmark and print its metrics.

    python3 hypbench/run.py --workload openness --seed 1 --seconds 30 --trace 0

Run from the root of a hypflow checkout; the package is imported from its
``src`` directory.  The run times whole rounds of the workload's seeded item
list until ``--seconds`` would be exceeded (at least one round), then checks
every answer independently.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details go to ``.hypbench_out/``.
"""

import argparse
import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

# One thread of BLAS/OpenMP, here and in the set-up processes: set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".hypbench_out"
SETUP_SAMPLES = 21

END_TO_END = (
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("trace.items", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("robustness.margin.calls", "count"),
    ("robustness.margin.self_s", "s"),
    ("robustness.margin.evals", "count"),
    ("robustness.margin.retries", "count"),
    ("robustness.margin.retries_per_item", "ratio"),
    ("robustness.perturb_campaign.samples", "count"),
    ("robustness.perturb_campaign.self_s", "s"),
    ("robustness.continuity_check.self_s", "s"),
    ("robustness.generate.self_s", "s"),
    ("spectral.sigma_min_many.calls", "count"),
    ("spectral.sigma_min_many.matrices", "count"),
    ("spectral.sigma_min_many.self_s", "s"),
    ("spectral.eigenvalues.calls", "count"),
    ("spectral.eigenvalues.self_s", "s"),
    ("spectral.hermitian_eigs.calls", "count"),
    ("spectral.hermitian_eigs.self_s", "s"),
    ("spectral.hermitian_eig_vectors.calls", "count"),
    ("spectral.hermitian_eig_vectors.self_s", "s"),
    ("densemat.op_norm2.calls", "count"),
    ("densemat.op_norm2.self_s", "s"),
    ("densemat.solve.calls", "count"),
    ("densemat.solve.self_s", "s"),
    ("inertia.classify.calls", "count"),
    ("inertia.classify.self_s", "s"),
    ("inertia.default_tolerance.calls", "count"),
    ("flow.expm.calls", "count"),
    ("flow.expm.per_trajectory", "ratio"),
    ("flow.expm.self_s", "s"),
    ("flow.trajectory.calls", "count"),
    ("flow.trajectory.self_s", "s"),
    ("flow.splitting.self_s", "s"),
    ("flow.portrait.self_s", "s"),
    ("matching.min_weight_assignment.calls", "count"),
    ("matching.min_weight_assignment.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.read_matrix.self_s", "s"),
)


def _fail(message: str) -> None:
    print(f"hypbench: {message}", file=sys.stderr)
    sys.exit(2)


def _setup_sample(measure) -> tuple[float, float]:
    """Time ``import hypflow`` in a fresh process: (raw, corrected) seconds.

    The process times the interpreter part of the calibration kernel (the
    median of 9 runs) before and after the import, and the import is
    corrected by their mean: numpy, which the rest of the kernel needs, must
    not be loaded before the import.
    """
    code = ("import time; from hypbench import pykernel; "
            "pre = pykernel.python_kernel_seconds(9); "
            "t0 = time.perf_counter(); import hypflow; "
            "t1 = time.perf_counter(); "
            "post = pykernel.python_kernel_seconds(9); "
            "print(hypflow.__file__, repr(t1 - t0), repr(pre), repr(post))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"importing hypflow failed:\n{proc.stderr}")
    path, seconds, pre, post = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        _fail(f"fresh process imported hypflow from {path}, not {SRC}")
    return float(seconds), measure.corrected(
        float(seconds), float(pre), float(post),
        nominal=measure.NOMINAL_PYTHON_KERNEL_S)


class Round:
    """Raw item times and the kernel times around them, for one round."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.raw = []
        self.kernel = []

    def factors(self, measure) -> list:
        """Each item's host correction: corrected time per raw second."""
        return [measure.corrected(1.0, self.kernel[i], self.kernel[i + 1])
                for i in range(len(self.raw))]

    def corrected(self, measure) -> list:
        return [r * f for r, f in zip(self.raw, self.factors(measure))]


def _time_round(workload, items, reference, answers, measure, tracer=None,
                round_no=0, between=None) -> tuple[Round, int]:
    """Time one round; compare each answer with the first round's.

    The first round's answers are pickled to ``answers`` for the checks and
    only their digests stay in memory, so that ``peak_rss_mb`` is hypflow's
    and not the benchmark's storage.  ``between(idx)``, if given, runs after
    item ``idx`` and its kernel, outside the timing.
    """
    gc.collect()
    rnd = Round(traced=tracer is not None)
    rnd.kernel.append(measure.kernel_seconds())
    changed = 0
    for idx, item in enumerate(items):
        t0 = time.perf_counter()
        if tracer is None:
            out = workload.run(item)
        else:
            out = tracer.run_item((round_no, idx), workload.run, item)
        t1 = time.perf_counter()
        rnd.kernel.append(measure.kernel_seconds())
        rnd.raw.append(t1 - t0)
        blob = pickle.dumps(workload.finish(item, out))
        digest = hashlib.sha256(blob).digest()
        if reference[idx] is None:
            reference[idx] = digest
            answers.write(blob)
        elif digest != reference[idx]:
            changed += 1
        if between is not None:
            between(idx)
    return rnd, changed


def _measured(rounds) -> float:
    """Seconds spent in the rounds' items and kernels."""
    return sum(sum(r.raw) + sum(r.kernel) for r in rounds)


def _per_item_median(values) -> list:
    """Each item's median time over the rounds."""
    return list(np.median(np.asarray(values, dtype=float), axis=0))


def _timing_metrics(per_item: list) -> dict:
    """Throughput and latency percentiles (numpy's linear interpolation)."""
    return {
        "items_per_s": len(per_item) / sum(per_item),
        "p50_ms": 1e3 * float(np.percentile(per_item, 50.0)),
        "p90_ms": 1e3 * float(np.percentile(per_item, 90.0)),
    }


def _trace_metrics(tracer, rounds, n_items, measure) -> dict:
    traced = [(no, r) for no, r in enumerate(rounds) if r.traced]
    untraced = [r for r in rounds if not r.traced]
    scale = {(no, i): f for no, rnd in traced
             for i, f in enumerate(rnd.factors(measure))}
    per_round = len(traced)
    totals = tracer.aggregate(scale)
    metrics = {name: totals.get(name, 0.0) / per_round for name, _ in PER_LAYER}
    metrics["trace.items"] = n_items
    metrics["trace.spans"] = len(tracer.spans) / per_round
    metrics["robustness.margin.retries_per_item"] = (
        metrics["robustness.margin.retries"] / n_items)
    trajectories = metrics["flow.trajectory.calls"]
    metrics["flow.expm.per_trajectory"] = (
        metrics["flow.expm.calls"] / trajectories if trajectories else 0.0)
    traced_total = float(np.median([sum(r.corrected(measure)) for _, r in traced]))
    plain_total = float(np.median([sum(r.corrected(measure)) for r in untraced]))
    metrics["trace.overhead_s"] = traced_total - plain_total
    metrics["trace.overhead_pct"] = 100.0 * (traced_total - plain_total) / plain_total
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypflow" / "__init__.py").is_file():
        _fail(f"no hypflow sources under {SRC}")
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(SRC))
    import hypflow
    if not Path(hypflow.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported hypflow from {hypflow.__file__}, not {SRC}")
    from hypbench import measure, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})")
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{workload.name}-{os.getpid()}"
    phases = {"start": time.perf_counter()}
    try:
        items = workload.build(args.seed, workdir)
        phases["build"] = time.perf_counter()
        # The set-up samples are spread over the first round, so that their
        # median spans the host's changes of speed over the run.
        setup = []
        step = max(1, len(items) // SETUP_SAMPLES)

        def setup_sample(idx):
            if idx % step == step - 1 and len(setup) < SETUP_SAMPLES:
                setup.append(_setup_sample(measure))

        tracer = None
        if args.trace:
            from hypbench.tracer import Tracer
            tracer = Tracer()

        workdir.mkdir(parents=True, exist_ok=True)
        reference = [None] * len(items)
        rounds, changed = [], 0
        with open(workdir / "answers.pickle", "wb") as answers:
            while True:
                done = len(rounds)
                rnd, ch = _time_round(workload, items, reference, answers,
                                      measure,
                                      between=None if rounds else setup_sample)
                rounds.append(rnd)
                changed += ch
                if tracer is not None:
                    tracer.install()
                    try:
                        rnd, ch = _time_round(workload, items, reference,
                                              answers, measure, tracer,
                                              len(rounds))
                    finally:
                        tracer.uninstall()
                    rounds.append(rnd)
                    changed += ch
                # measured time: the items and the kernels around them
                last = _measured(rounds[done:])
                if _measured(rounds) + last > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases["rounds"] = time.perf_counter()

        failed_items, problems = 0, []
        with open(workdir / "answers.pickle", "rb") as answers:
            first = [pickle.load(answers) for _ in items]
        for idx, item in enumerate(items):
            failed, found = workload.check(item, first[idx])
            failed_items += failed
            problems += [f"item {idx}: {p}" for p in found]
        if changed:
            problems.append(f"{changed} answers differ between rounds")
        phases["checks"] = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    fixed = _timing_metrics(_per_item_median([r.corrected(measure) for r in plain]))
    raw = _timing_metrics(_per_item_median([r.raw for r in plain]))
    setup_raw, setup_fixed = zip(*setup)
    fixed["setup_s"] = float(np.median(setup_fixed))
    raw["setup_s"] = float(np.median(setup_raw))
    fixed["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb
    kernels = [k for r in rounds for k in r.kernel]

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(items)} items x {len(rounds)} rounds, operations attempted "
          f"{len(items) * len(rounds)}, failed {failed_items * len(rounds)}, "
          f"{'correct' if not problems else 'WRONG'}")
    print("  wall seconds: " + ", ".join(
        f"{b} {phases[b] - phases[a]:.1f}"
        for a, b in zip(phases, list(phases)[1:])))
    print(f"  kernel median {1e3 * float(np.median(kernels)):.4f} ms "
          f"(nominal {1e3 * measure.NOMINAL_KERNEL_S:.4f} ms)")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {fixed[name]:12.5g} {unit:<4} (raw wall clock "
              f"{raw[name]:.5g} {unit})")
    for p in problems[:20]:
        print(f"  problem: {p}", file=sys.stderr)

    if args.trace:
        metrics = _trace_metrics(tracer, rounds, len(items), measure)
        units = dict(PER_LAYER)
        tracer.write(OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl")
    else:
        metrics = fixed
        units = dict(END_TO_END)
    details = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "nominal_kernel_s": measure.NOMINAL_KERNEL_S,
        "phase_ends_s": {k: v - phases["start"] for k, v in phases.items()},
        "setup_raw_s": setup_raw, "setup_corrected_s": setup_fixed,
        "rounds": [{"traced": r.traced, "raw_s": r.raw, "kernel_s": r.kernel}
                   for r in rounds],
        "corrected": fixed, "raw": raw, "metrics": metrics, "problems": problems,
    }
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details) + "\n", encoding="utf-8")

    n_rounds = len(rounds)
    result = {
        "correct": not problems,
        "attempted": len(items) * n_rounds,
        "failed": failed_items * n_rounds,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
