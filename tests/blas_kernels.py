"""Run the tier-1 tests under several OpenBLAS kernels and list what fails.

numpy's bundled OpenBLAS is built with DYNAMIC_ARCH and picks its kernels
by CPU; OPENBLAS_CORETYPE overrides the pick. The pinned digests in the
tests hash 17-digit text of BLAS and LAPACK output, which another kernel
rounds differently in the last bits. This script runs the suite once per
kernel, each in its own child process (the variable is read when numpy
loads), and prints the failing test ids for each. It changes no test.

Run from anywhere, with the interpreter that has numpy and pytest:

    python tests/blas_kernels.py

The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# conftest imports hypflow, from this checkout's src
sys.path.insert(0, str(ROOT / "src"))

from conftest import child_env  # noqa: E402

KERNELS = ("SkylakeX", "Haswell", "Prescott")
# The kernel OpenBLAS reports it runs, where numpy's wheel bundles it as
# scipy-openblas; "unknown" elsewhere.
CORENAME = """
import ctypes, glob, os, numpy
names = ["unknown"]
pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                       "numpy.libs", "*openblas*")
for path in glob.glob(pattern):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        get = getattr(lib, symbol, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            names = [get().decode()]
print(names[0])
"""
FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)
SUMMARY = re.compile(r"^=* ?(.*(?:passed|failed|error).*?) ?=*$", re.MULTILINE)


def run(kernel: str) -> tuple[str, str, list[str]]:
    """The core OpenBLAS reports, the pytest summary line and the failing
    test ids of one tier-1 run with OPENBLAS_CORETYPE=``kernel``."""
    env = dict(child_env(), OPENBLAS_CORETYPE=kernel)
    core = subprocess.run([sys.executable, "-c", CORENAME], env=env,
                          capture_output=True, text=True, timeout=120)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no",
         "-p", "no:cacheprovider", "--continue-on-collection-errors",
         str(ROOT / "tests")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    summary = SUMMARY.findall(proc.stdout)
    return (core.stdout.strip() or core.stderr.strip().splitlines()[-1],
            summary[-1] if summary else f"exit {proc.returncode}",
            FAILED.findall(proc.stdout))


def main() -> int:
    for kernel in KERNELS:
        core, summary, failed = run(kernel)
        print(f"OPENBLAS_CORETYPE={kernel} (OpenBLAS reports {core}): "
              f"{summary}")
        for test in failed:
            print(f"  {test}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
