"""Command-line surface: classify, margin, perturb, flow, portrait, verify.

Matrix input is a JSON file with an explicit dimension field::

    {"d": 2, "data": [[-1.0, 0.0], [0.0, 2.0]]}

Reports go to standard output as JSON with sorted keys; CSV and SVG payloads
go to --out (default standard output). A payload is formed whole before
--out is opened, and then replaces the file's bytes in place: the file
keeps its inode, links and mode bits, a non-regular target such as
/dev/null is written without truncation, and a request that fails leaves
the file untouched. All numbers are rendered with shortest round-trip
float formatting (CSV uses 17 significant digits), so identical inputs,
flags, and seeds produce byte-identical outputs, whether or not --out
existed before.

Exit codes: 0 success/hyperbolic, 1 usage or input error, 2 non-hyperbolic
input (or a verification failure), 3 indeterminate classification.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import flow, inertia, robustness
from .errors import HypflowError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_HYPERBOLIC = 2
EXIT_INDETERMINATE = 3

# rows of a flow's CSV formatted by one %-operation
_CSV_ROWS = 1024


class MatrixFileError(ValueError):
    """Raised when a matrix file does not match the expected schema."""


def read_matrix(path: str) -> np.ndarray:
    """Load a matrix from a JSON file path ('-' reads standard input)."""
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    # besides JSONDecodeError, json.loads raises ValueError on an integer
    # past Python's digit limit and RecursionError on deep nesting
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
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
            # an integer past the float range overflows like 1e999 does
            try:
                v = float(value)
            except OverflowError:
                v = math.inf
            if not math.isfinite(v):
                raise MatrixFileError(f"row {i}, column {j}: not a finite number")
            out[i, j] = v
    return out


def _emit(report: dict, stream) -> None:
    stream.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_payload(text: str, out_path: str, stdout) -> None:
    """Write a formed payload to ``out_path`` ('-' is ``stdout``).

    An existing file is written over in place and then cut at the end of
    the payload: truncating it to zero first, as ``open(path, "w")`` does,
    can cost several times the write itself on a file that held a payload
    before. The file keeps its inode, links and mode bits; a target that is
    not a regular file, such as /dev/null, is written without truncation.
    """
    if out_path == "-":
        stdout.write(text)
        return
    fd = os.open(out_path,
                 os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",") if p != ""])
    except ValueError as exc:
        raise MatrixFileError(f"{flag} must be a comma-separated number list") from exc


def _exit_code(verdict) -> int:
    """0 for a hyperbolic verdict, 2 for a non-hyperbolic one, 3 for an
    indeterminate one."""
    if verdict.kind == inertia.HYPERBOLIC:
        return EXIT_OK
    if verdict.kind == inertia.NON_HYPERBOLIC:
        return EXIT_NON_HYPERBOLIC
    return EXIT_INDETERMINATE


def _cmd_classify(args, stdout) -> int:
    m = read_matrix(args.matrix)
    verdict = inertia.classify(m, args.tol)
    eigs = sorted((complex(v) for v in verdict.spectrum.values),
                  key=lambda z: (z.real, z.imag))
    report = {
        "verdict": verdict.kind,
        **dataclasses.asdict(verdict.inertia),
        "eigenvalues": [[z.real, z.imag] for z in eigs],
        "residual_bound": verdict.spectrum.residual_bound,
        "witness": (None if verdict.witness is None
                    else [verdict.witness.real, verdict.witness.imag]),
    }
    _emit(report, stdout)
    return _exit_code(verdict)


def _cmd_margin(args, stdout) -> int:
    verdict = inertia.classify(read_matrix(args.matrix), args.tol)
    result = robustness._margin(verdict, args.margin_tol)
    report = {
        "lower": result.lower,
        "upper": result.upper,
        "omega_star": result.omega_star,
        "iterations": result.iterations,
    }
    _emit(report, stdout)
    return _exit_code(verdict)


def _cmd_perturb(args, stdout) -> int:
    m = read_matrix(args.matrix)
    if args.samples < 1:
        raise MatrixFileError("--samples must be >= 1")
    if args.seed < 0:
        raise MatrixFileError("--seed must be >= 0")
    if args.radius is not None and args.radius <= 0.0:
        raise MatrixFileError("--radius must be > 0")
    verdict = inertia.classify(m, args.tol)
    radius = args.radius
    # margin before the verdict: a bad --margin-tol is refused on any matrix
    if radius is None:
        radius = 0.9 * robustness._margin(verdict, args.margin_tol).lower
    if not verdict.is_hyperbolic:
        print(f"error: base matrix classified as {verdict.kind}",
              file=sys.stderr)
        return _exit_code(verdict)
    report = robustness._campaign(verdict, args.samples, radius, args.seed)
    doc = {
        "base_inertia": dataclasses.asdict(report.base_inertia),
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
    # one %-format per chunk of rows gives the bytes of format(v, ".17g")
    # for a fraction of the cost; converting chunk by chunk keeps a long
    # grid from being held as Python floats at once
    row = ",".join(["%.17g"] * (d + 1))
    table = np.column_stack((traj.times, traj.states))
    for start in range(0, len(table), _CSV_ROWS):
        chunk = table[start:start + _CSV_ROWS]
        lines.append("\n".join([row] * len(chunk))
                     % tuple(chunk.ravel().tolist()))
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
    if args.samples is not None and args.samples < 1:
        raise MatrixFileError("--samples must be >= 1")
    if args.seed < 0:
        raise MatrixFileError("--seed must be >= 0")
    result = robustness.run_suite(args.suite, args.seed, args.samples)
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
    p.add_argument("--t0", type=float, default=0.0,
                   help="start time (default 0); a negative value with an "
                        "exponent needs the = form (--t0=-1e-3)")
    p.add_argument("--t1", type=float, default=3.0,
                   help="end time (default 3); a negative value with an "
                        "exponent needs the = form (--t1=-1e-3)")
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
