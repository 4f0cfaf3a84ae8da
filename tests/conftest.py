import functools
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from hypflow import densemat

sys.path.insert(0, str(Path(__file__).parent))

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """Environment for a child interpreter that imports hypflow from this
    checkout's ``src``, whatever the parent's PYTHONPATH."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


# Matrices at the edges of the float range, past which a result overflows
# or underflows.
FLOAT_RANGE_EDGES = {
    "exp_overflow": [[800.0]],
    "det_overflow": [[1e200, 0.0], [0.0, 1e200]],
    "near_max": [[1e308, 1e308], [0.0, 1e308]],
    "fast_rotation": [[0.0, 1e200], [-1e200, 0.0]],
    "subnormal": [[5e-324, 0.0], [0.0, -5e-324]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
    # the determinant -5e-484 rounds to -0.0 from a subnormal pivot
    "subnormal_pivot": [[0.0, 1e-160], [5e-324, 1e-160]],
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_matrix(rng, d, scale=1.0):
    return scale * rng.standard_normal((d, d))


def write_matrix(path, m):
    """Write a matrix in the JSON schema that ``hypflow.cli.read_matrix``
    reads."""
    doc = {"d": int(m.shape[0]), "data": [[float(v) for v in row] for row in m]}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def fail_like_lapack(monkeypatch, name, when=lambda a: True):
    """Make the gufunc ``name`` of numpy.linalg._umath_linalg fail as a
    LAPACK failure shows on the arrays that ``when`` picks: every output
    is nan and the invalid flag is raised."""
    gufunc = getattr(densemat._umath_linalg, name)

    @functools.wraps(gufunc)
    def failing(a, *args, **kwargs):
        out = gufunc(a, *args, **kwargs)
        if when(a):
            for array in out if isinstance(out, tuple) else (out,):
                array[...] = np.nan
            np.subtract(np.inf, np.inf)
        return out

    monkeypatch.setattr(densemat._umath_linalg, name, failing)
