"""Host-corrected timing: the calibration kernel and the statistics on top.

The benchmark shares its host with other work, and the host's speed drifts
by more than half within a minute while the process itself keeps its core.
So every item is timed next to a fixed calibration kernel, and its wall time
is rescaled to what it would have been on a host where the kernel takes
exactly ``NOMINAL_KERNEL_S``:

    corrected = raw * NOMINAL_KERNEL_S / kernel_around_item

where ``kernel_around_item`` is the mean of the kernel timed just before and
just after the item.  The kernel does not import hypflow, so a change to the
program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from .pykernel import NOMINAL_PYTHON_KERNEL_S, python_kernel  # noqa: F401

# Duration of one calibration kernel on the nominal host, in seconds.  It is
# a constant of the benchmark: changing it rescales every corrected timing.
NOMINAL_KERNEL_S = 1.0e-3

_KERNEL_MATRIX = (np.arange(36, dtype=float).reshape(6, 6) / 36.0) + 0j
_KERNEL_VECTOR = np.arange(8.0)


def kernel() -> float:
    """The calibration kernel: Python arithmetic and dictionary work, then
    small numpy element-wise operations and 6 x 6 complex products, the mix
    of interpreter and per-call numpy overhead that hypflow's kernels have."""
    acc = python_kernel()
    x = _KERNEL_VECTOR
    for _ in range(80):
        x = np.where(x > 3.0, np.abs(x - 1.0), x + 0.5)
    m = _KERNEL_MATRIX
    for _ in range(40):
        m = (m @ _KERNEL_MATRIX) * 0.1 + _KERNEL_MATRIX
    return acc + float(x[0]) + float(m[0, 0].real)


def kernel_seconds() -> float:
    """Wall time of one calibration kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def corrected(raw: float, kernel_before: float, kernel_after: float,
              nominal: float = NOMINAL_KERNEL_S) -> float:
    """Host-corrected duration of an item timed between two kernels whose
    duration on the nominal host is ``nominal``."""
    measured = 0.5 * (kernel_before + kernel_after)
    if measured <= 0.0:
        raise ValueError("kernel duration must be positive")
    return raw * nominal / measured


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    xs = [float(v) for v in values]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)
