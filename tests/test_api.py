import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypflow

from conftest import child_env

# The public surface. Adding or deleting a name is meant to show up here.
PUBLIC = [
    "CampaignReport", "CharPoly", "ConjugacyClass", "ContinuityReport",
    "DimensionMismatch", "FlowOverflow", "HYPERBOLIC", "HyperbolizeResult",
    "HypflowError", "INDETERMINATE", "Inertia", "InvalidClass",
    "MarginResult", "NON_HYPERBOLIC", "NonAscendingGrid", "NonConvergence",
    "NotHyperbolic", "ShiftTooSmall", "Spectrum", "SplittingBases",
    "Trajectory", "UnsupportedDimension", "Verdict", "__version__",
    "as_matrix", "char_poly", "classify", "conjugacy_class",
    "continuity_check", "default_tolerance", "det", "eigenvalues", "expm",
    "expm_many", "flow_map", "generate", "hyperbolize", "inertia_of",
    "margin", "matched_distance", "min_weight_assignment", "op_norm2",
    "pair_values", "perturb_campaign", "poly_roots", "portrait",
    "same_class", "sigma_min", "splitting", "trajectory", "vieta_check",
]


def test_public_surface_is_pinned():
    assert sorted(hypflow.__all__) == PUBLIC
    assert len(PUBLIC) == 51
    for name in PUBLIC:
        assert hasattr(hypflow, name), name


# Every question about a matrix asks it of a real one.
REAL_MATRIX_CALLS = {
    "classify": hypflow.classify,
    "margin": hypflow.margin,
    "perturb_campaign": lambda a: hypflow.perturb_campaign(a, 5, 0.1, 0),
    "continuity_check": lambda a: hypflow.continuity_check(a, [np.eye(2)]),
    "continuity_sequence": lambda a: hypflow.continuity_check(np.eye(2), [a]),
    "splitting": hypflow.splitting,
    "trajectory": lambda a: hypflow.trajectory(a, [1.0, 1.0], [0.0, 1.0]),
    "expm": hypflow.expm,
    "det": hypflow.det,
    "eigenvalues": hypflow.eigenvalues,
}


@pytest.mark.parametrize("name", REAL_MATRIX_CALLS)
def test_complex_matrix_refused(name):
    # classify used to drop the imaginary part of the array (answering
    # hyperbolic) and to die with a TypeError on the list
    for a in (np.array([[1 + 1j, 0.0], [0.0, -1.0]]), [[1j, 0.0], [0.0, -1.0]]):
        with pytest.raises(ValueError, match="^matrix entries must be real$"):
            REAL_MATRIX_CALLS[name](a)


def test_import_leaves_random_and_scipy_unloaded():
    # hypflow's import time is every command's start-up cost: numpy.random
    # loads on a first seeded request, and scipy is not a dependency
    code = ("import sys, hypflow\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'numpy.random' or m.split('.')[0] == 'scipy'))")
    env = child_env()
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _eigvals_sites(tree, where=()):
    """The enclosing function names of each mention of ``eigvals``."""
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = where + (node.name,)
        if ((isinstance(node, ast.Attribute) and node.attr == "eigvals")
                or (isinstance(node, ast.Name) and node.id == "eigvals")
                or (isinstance(node, ast.alias) and node.name == "eigvals")):
            yield where
        yield from _eigvals_sites(node, inner)


def test_one_eigenvalue_kernel():
    # one implementation per kernel: every eigenvalue computation in the
    # package goes through spectral.eigenvalues_many
    sites = []
    for path in sorted(Path(hypflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.stem, where) for where in _eigvals_sites(tree)]
    assert sites == [("spectral", ("eigenvalues_many",))]
