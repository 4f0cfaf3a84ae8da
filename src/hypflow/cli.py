"""Command-line surface: classify, margin, perturb, flow, portrait, verify.

Matrix input is a JSON file with an explicit dimension field::

    {"d": 2, "data": [[-1.0, 0.0], [0.0, 2.0]]}

Reports go to standard output as JSON with sorted keys; CSV and SVG payloads
go to --out (default standard output). All numbers are rendered with
shortest round-trip float formatting (CSV uses 17 significant digits), so
identical inputs, flags, and seeds produce byte-identical outputs.

Exit codes: 0 success/hyperbolic, 1 usage or input error, 2 non-hyperbolic
input (or a verification failure), 3 indeterminate classification.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import flow, inertia, robustness
from .errors import HypflowError, NotHyperbolic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_HYPERBOLIC = 2
EXIT_INDETERMINATE = 3


class MatrixFileError(ValueError):
    """Raised when a matrix file does not match the expected schema."""


def read_matrix(path: str) -> np.ndarray:
    """Load a matrix from a JSON file path ('-' reads standard input)."""
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MatrixFileError(
            "matrix file must be a JSON object with fields 'd' and 'data'"
        )
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise MatrixFileError("field 'd' must be a positive integer")
    data = doc.get("data")
    if not isinstance(data, list) or len(data) != d:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise MatrixFileError(f"field 'data' must be a list of {d} rows, got {got}")
    out = np.zeros((d, d))
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != d:
            got = len(row) if isinstance(row, list) else 1
            raise MatrixFileError(f"row {i} has {got} entries, expected {d}")
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MatrixFileError(f"row {i}, column {j}: not a number")
            v = float(value)
            if not np.isfinite(v):
                raise MatrixFileError(f"row {i}, column {j}: not a finite number")
            out[i, j] = v
    return out


def write_matrix(path: str, m: np.ndarray) -> None:
    """Write a matrix in the JSON schema understood by read_matrix."""
    doc = {"d": int(m.shape[0]), "data": [[float(v) for v in row] for row in m]}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit(report: dict, stream) -> None:
    stream.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_payload(text: str, out_path: str, stdout) -> None:
    if out_path == "-":
        stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",") if p != ""])
    except ValueError as exc:
        raise MatrixFileError(f"{flag} must be a comma-separated number list") from exc


def _cmd_classify(args, stdout) -> int:
    m = read_matrix(args.matrix)
    verdict = inertia.classify(m, args.tol)
    eigs = sorted((complex(v) for v in verdict.spectrum.values),
                  key=lambda z: (z.real, z.imag))
    report = {
        "verdict": verdict.kind,
        "s": verdict.inertia.s,
        "u": verdict.inertia.u,
        "c": verdict.inertia.c,
        "tau": verdict.inertia.tau,
        "eigenvalues": [[z.real, z.imag] for z in eigs],
        "residual_bound": verdict.spectrum.residual_bound,
        "witness": (None if verdict.witness is None
                    else [verdict.witness.real, verdict.witness.imag]),
    }
    _emit(report, stdout)
    if verdict.kind == inertia.HYPERBOLIC:
        return EXIT_OK
    if verdict.kind == inertia.NON_HYPERBOLIC:
        return EXIT_NON_HYPERBOLIC
    return EXIT_INDETERMINATE


def _cmd_margin(args, stdout) -> int:
    m = read_matrix(args.matrix)
    result = robustness.margin(m, args.tol, tol=args.margin_tol)
    report = {
        "lower": result.lower,
        "upper": result.upper,
        "omega_star": result.omega_star,
        "iterations": result.iterations,
    }
    _emit(report, stdout)
    hyperbolic = inertia.classify(m, args.tol).is_hyperbolic
    return EXIT_OK if hyperbolic else EXIT_NON_HYPERBOLIC


def _cmd_perturb(args, stdout) -> int:
    m = read_matrix(args.matrix)
    if args.samples < 1:
        raise MatrixFileError("--samples must be >= 1")
    if args.seed < 0:
        raise MatrixFileError("--seed must be >= 0")
    radius = args.radius
    if radius is None:
        # margin's lower bound is positive exactly on hyperbolic input
        radius = 0.9 * robustness.margin(m, args.tol, tol=args.margin_tol).lower
        if radius <= 0.0:
            kind = inertia.classify(m, args.tol).kind
            print(f"error: base matrix classified as {kind}", file=sys.stderr)
            return EXIT_NON_HYPERBOLIC
    elif radius <= 0.0:
        raise MatrixFileError("--radius must be > 0")
    try:
        report = robustness.perturb_campaign(m, args.samples, radius,
                                             args.seed, args.tol)
    except NotHyperbolic as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_HYPERBOLIC
    doc = {
        "base_inertia": {
            "s": report.base_inertia.s,
            "u": report.base_inertia.u,
            "c": report.base_inertia.c,
            "tau": report.base_inertia.tau,
        },
        "samples": report.samples,
        "radius": report.radius,
        "flips": report.flips,
        "seed": report.seed,
        "flip_witnesses": [
            {"index": int(i), "perturbation": [[float(v) for v in row] for row in e]}
            for i, e in report.flip_witnesses
        ],
    }
    _emit(doc, stdout)
    return EXIT_OK if report.flips == 0 else EXIT_NON_HYPERBOLIC


def _cmd_flow(args, stdout) -> int:
    m = read_matrix(args.matrix)
    x0 = _parse_vector(args.x0, "--x0")
    times = _parse_vector(args.times, "--times")
    traj = flow.trajectory(m, x0, times)
    d = m.shape[0]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(d))]
    # one %-format per row of Python floats gives the bytes of
    # format(v, ".17g") at half the cost; converting row by row keeps the
    # whole grid from being held as Python floats at once
    row = ",".join(["%.17g"] * (d + 1))
    table = np.column_stack((traj.times, traj.states))
    lines += [row % tuple(r.tolist()) for r in table]
    _write_payload("\n".join(lines) + "\n", args.out, stdout)
    return EXIT_OK


def _cmd_portrait(args, stdout) -> int:
    m = read_matrix(args.matrix)
    if args.seeds < 1:
        raise MatrixFileError("--seeds must be >= 1")
    angles = 2.0 * np.pi * np.arange(args.seeds) / args.seeds
    x0_set = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    svg, verdict = flow._portrait(m, x0_set, (args.t0, args.t1), args.steps,
                                  args.tol)
    _write_payload(svg, args.out, stdout)
    print(f"s={verdict.inertia.s} u={verdict.inertia.u}",
          file=stdout if args.out != "-" else sys.stderr)
    return EXIT_OK


def _cmd_verify(args, stdout) -> int:
    runner = robustness.SUITES.get(args.suite)
    if runner is None:
        known = ", ".join(sorted(robustness.SUITES))
        raise MatrixFileError(f"unknown suite '{args.suite}' (known: {known})")
    kwargs = {"seed": args.seed}
    if args.samples is not None:
        kwargs["trials"] = args.samples
    result = runner(**kwargs)
    report = {
        "suite": result.name,
        "seed": args.seed,
        "total": result.total,
        "passed": result.passed,
        "failed": result.failed,
        "worst": result.worst,
    }
    _emit(report, stdout)
    return EXIT_OK if result.failed == 0 else EXIT_NON_HYPERBOLIC


class _Parser(argparse.ArgumentParser):
    """argparse with this tool's usage-error exit code (1, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypflow",
        description="Classify real matrices by hyperbolicity, quantify the "
                    "robustness of the classification, and simulate e^{tH}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix(p):
        p.add_argument("matrix", nargs="?", default="-",
                       help="matrix JSON file (default: stdin)")
        p.add_argument("--tol", type=float, default=None,
                       help="axis tolerance (default: 1e-9*(1+||A||))")

    p = sub.add_parser("classify", help="hyperbolicity verdict and inertia")
    add_matrix(p)

    p = sub.add_parser("margin", help="distance to the non-hyperbolic set")
    add_matrix(p)
    p.add_argument("--margin-tol", type=float, default=1e-6,
                   help="relative gap (upper - lower)/upper accepted, "
                        "clipped to [1e-6, 1/4] (default 1e-6)")

    p = sub.add_parser("perturb", help="random perturbation campaign")
    add_matrix(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--radius", type=float, default=None,
                   help="perturbation norm bound (default 0.9*margin lower)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin-tol", type=float, default=1e-6)

    p = sub.add_parser("flow", help="sample e^{tH} x0 to CSV")
    add_matrix(p)
    p.add_argument("--x0", required=True,
                   help="initial state, comma-separated; a value starting "
                        "with '-' needs the = form (--x0=-1,2)")
    p.add_argument("--times", required=True,
                   help="time grid, comma-separated; a value starting with "
                        "'-' needs the = form (--times=-1,0,1)")
    p.add_argument("--out", default="-", help="output path (default stdout)")

    p = sub.add_parser("portrait", help="2-D phase portrait as SVG")
    add_matrix(p)
    p.add_argument("--seeds", type=int, default=8,
                   help="number of unit-circle start points (default 8)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", default="-", help="output path (default stdout)")

    p = sub.add_parser("verify", help="run a reproduction suite")
    p.add_argument("suite", help="one of: " + ", ".join(sorted(robustness.SUITES)))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=None,
                   help="override the suite's trial count")

    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "margin": _cmd_margin,
    "perturb": _cmd_perturb,
    "flow": _cmd_flow,
    "portrait": _cmd_portrait,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call: parsing leaves it
    unchanged, and importing the package stays free of its cost."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except (MatrixFileError, HypflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
