import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """Environment for a child interpreter that imports hypflow from this
    checkout's ``src``, whatever the parent's PYTHONPATH."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


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
