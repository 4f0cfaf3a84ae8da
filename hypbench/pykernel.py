"""The interpreter part of the calibration kernel, which needs no numpy.

``measure.kernel`` runs it first.  The set-up measurement runs it alone in a
fresh process, before and after ``import hypflow``, since numpy must not be
loaded before that import is timed.
"""

import time

# Duration of the interpreter part on the nominal host, in seconds: its share
# (31.5%) of measure.NOMINAL_KERNEL_S.
NOMINAL_PYTHON_KERNEL_S = 0.315e-3


def python_kernel() -> float:
    """Python arithmetic and dictionary work."""
    acc = 0.0
    for i in range(1, 1501):
        acc += (i % 7) * 0.5 - acc * 1e-3
    counts = {}
    for i in range(400):
        counts[i & 63] = counts.get(i & 63, 0) + len(str(i))
    return acc + len(counts)


def python_kernel_seconds(reps: int) -> float:
    """Median wall time of ``reps`` runs, after one run to warm up."""
    python_kernel()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        python_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]
