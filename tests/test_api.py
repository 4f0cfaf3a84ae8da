import ast
import dataclasses
import subprocess
import sys
import warnings
from fractions import Fraction
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
    "margin", "matched_distance", "op_norm2", "pair_values",
    "perturb_campaign", "poly_roots", "portrait", "same_class", "sigma_min",
    "splitting", "trajectory", "vieta_check",
]


def test_public_surface_is_pinned():
    assert sorted(hypflow.__all__) == PUBLIC
    assert len(PUBLIC) == 50
    for name in PUBLIC:
        assert hasattr(hypflow, name), name


# The public records: each one's field names, in order, and whether it is
# frozen. Adding or removing a field is meant to show up here.
RECORDS = {
    "CampaignReport": (("base_inertia", "samples", "radius", "flips", "seed",
                        "flip_witnesses"), False),
    "CharPoly": (("coeffs",), False),
    "ConjugacyClass": (("s", "u", "d"), True),
    "ContinuityReport": (("pairings", "max_mismatch", "monotone_tail"), False),
    "HyperbolizeResult": (("epsilon", "shifted", "delta"), False),
    "Inertia": (("s", "u", "c", "tau"), True),
    "MarginResult": (("lower", "upper", "omega_star", "iterations", "solves"),
                     False),
    "Spectrum": (("values", "residual_bound"), False),
    "SplittingBases": (("stable", "unstable"), False),
    "Trajectory": (("times", "states", "origin"), False),
    "Verdict": (("kind", "inertia", "witness", "spectrum", "matrix"), True),
}


def test_public_records_are_pinned():
    records = {name for name in PUBLIC
               if dataclasses.is_dataclass(getattr(hypflow, name))}
    assert records == set(RECORDS)
    for name, (fields, frozen) in RECORDS.items():
        cls = getattr(hypflow, name)
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields, name
        assert cls.__dataclass_params__.frozen is frozen, name


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


COMPLEX_OBJECTS = {
    "as_matrix": (lambda: hypflow.as_matrix(np.array([[1j]], dtype=object)),
                  "matrix"),
    "classify": (lambda: hypflow.classify(
        np.array([[1 + 0j]], dtype=object)), "matrix"),
    "mixed": (lambda: hypflow.as_matrix(
        np.array([[1.0, 2], [np.complex128(3), 4]], dtype=object)), "matrix"),
    "x0": (lambda: hypflow.trajectory(
        np.eye(1), np.array([1j], dtype=object), [0, 1]), "x0"),
    "time_grid": (lambda: hypflow.trajectory(
        np.eye(1), [1.0], np.array([0, 1j], dtype=object)), "time grid"),
    "continuity_sequence": (lambda: hypflow.continuity_check(
        np.eye(1), [np.array([[1j]], dtype=object)]), "matrix"),
}


@pytest.mark.parametrize("name", COMPLEX_OBJECTS)
def test_complex_object_entries_refused(name):
    # an object array of numbers skipped the real check: its complex entry
    # died in the float conversion with a bare TypeError, or, as a numpy
    # complex, lost its imaginary part to a ComplexWarning
    call, what = COMPLEX_OBJECTS[name]
    with pytest.raises(ValueError, match=f"^{what} entries must be real$"):
        call()


def test_real_object_entries_converted():
    a = np.array([[1, 2.5], [Fraction(1, 2), np.float32(-3)]], dtype=object)
    m = hypflow.as_matrix(a)
    assert m.dtype == float
    np.testing.assert_array_equal(m, [[1.0, 2.5], [0.5, -3.0]])


HUGE_INTEGERS = {
    "as_matrix": (lambda: hypflow.as_matrix([[10 ** 400]]), "matrix"),
    "object_matrix": (lambda: hypflow.as_matrix(
        np.array([[10 ** 400]], dtype=object)), "matrix"),
    "negative": (lambda: hypflow.classify([[1, -10 ** 400], [0, 1]]),
                 "matrix"),
    "x0": (lambda: hypflow.trajectory(np.eye(1), [10 ** 400], [0, 1]), "x0"),
    "time_grid": (lambda: hypflow.trajectory(np.eye(1), [1.0],
                                             [0, 10 ** 400]), "time grid"),
    "pair_values": (lambda: hypflow.pair_values([10 ** 400], [0.0]),
                    "value"),
}


@pytest.mark.parametrize("name", HUGE_INTEGERS)
def test_integers_past_float_range_refused(name):
    # the float conversion let a bare OverflowError out
    call, what = HUGE_INTEGERS[name]
    with pytest.raises(ValueError, match=f"^{what} entries must be finite$"):
        call()


NON_NUMBERS = {
    "pair_values": (lambda: hypflow.pair_values(["a"], ["b"]), "value"),
    "string_matrix": (lambda: hypflow.as_matrix([["a"]]), "matrix"),
    "numeric_string": (lambda: hypflow.as_matrix([["1.5"]]), "matrix"),
    "bytes": (lambda: hypflow.as_matrix([[b"1"]]), "matrix"),
    "none": (lambda: hypflow.classify([[None]]), "matrix"),
    "object_string": (lambda: hypflow.as_matrix(
        np.array([[1.0, "2"], [3.0, 4.0]], dtype=object)), "matrix"),
    "stack": (lambda: hypflow.expm_many([[["0"]]]), "matrix"),
    "x0": (lambda: hypflow.trajectory(np.eye(1), ["2"], [0.0, 1.0]), "x0"),
    "time_grid": (lambda: hypflow.trajectory(np.eye(1), [2.0], ["0", "1"]),
                  "time grid"),
}


@pytest.mark.parametrize("name", NON_NUMBERS)
def test_non_number_entries_refused(name):
    # strings leaked numpy's conversion message, numeric strings were
    # converted, and None was refused as not finite
    call, what = NON_NUMBERS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{what} entries must be numbers$"):
            call()


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


# One implementation per kernel: each numpy.linalg routine the package calls,
# with the functions that call it. A new call site has to change this table.
LINALG_SITES = {
    "eigvals": [("spectral", ("eigenvalues_many",))],
    "svd": [("densemat", ("_singular_values",)), ("flow", ("_split",))],
    "det": [("densemat", ("det",))],
    "solve": [("flow", ("expm_many",))],
    "inv": [("flow", ("_split",))],
    "slogdet": [("flow", ("_split",))],
    "qr": [("robustness", ("_random_orthogonal",))],
}


def _is_linalg(node, aliases) -> bool:
    """Whether ``node`` is ``<...>.linalg`` or a name in ``aliases``."""
    return ((isinstance(node, ast.Attribute) and node.attr == "linalg")
            or (isinstance(node, ast.Name) and node.id in aliases))


def _linalg_aliases(tree) -> set:
    """The names bound to numpy.linalg in ``tree``, by an import or by
    assigning it (or an alias of it) to a name."""
    aliases = {"linalg"}
    while True:
        known = set(aliases)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names
                            if a.name == "numpy.linalg" and a.asname}
            elif isinstance(node, ast.ImportFrom):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "linalg"}
            elif isinstance(node, ast.Assign) and _is_linalg(node.value,
                                                             aliases):
                aliases |= {t.id for t in node.targets
                            if isinstance(t, ast.Name)}
        if aliases == known:
            return aliases


def _linalg_names(tree, aliases, where=()):
    """(routine, enclosing function names) of each numpy.linalg routine
    named in ``tree``: as an attribute of linalg or of a name in
    ``aliases``, imported from linalg, or fetched from it with getattr (a
    name that is not a literal string counts as the routine "?")."""
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = where + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr[:1].islower()
                and _is_linalg(node.value, aliases)):
            yield node.attr, where
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("linalg")):
            for alias in node.names:
                yield alias.name, where
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) > 1
                and _is_linalg(node.args[0], aliases)):
            name = node.args[1]
            yield (name.value if isinstance(name, ast.Constant) else "?"), where
        yield from _linalg_names(node, aliases, inner)


def _linalg_sites() -> dict:
    sites = {}
    for path in sorted(Path(hypflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for routine, where in _linalg_names(tree, _linalg_aliases(tree)):
            sites.setdefault(routine, []).append((path.stem, where))
    return sites


def test_every_linalg_routine_listed():
    assert sorted(_linalg_sites()) == sorted(LINALG_SITES)


@pytest.mark.parametrize("source", [
    "import numpy as np\ndef f(m):\n    return np.linalg.eigvals(m)",
    "from numpy import linalg as la\ndef f(m):\n    return la.eigvals(m)",
    "import numpy.linalg as nl\ndef f(m):\n    return nl.eigvals(m)",
    "import numpy as np\nla = np.linalg\nlb = la\n"
    "def f(m):\n    return lb.eigvals(m)",
    "import numpy as np\ndef f(m):\n"
    "    eigvals = getattr(np.linalg, 'eigvals')\n    return eigvals(m)",
    "def f(m):\n    from numpy.linalg import eigvals as ev\n    return ev(m)",
])
def test_linalg_site_found_under_any_name(source):
    # the site test read only <...>.linalg.<routine> and imports from
    # linalg, so an alias of the module or getattr added a site unseen
    tree = ast.parse(source)
    assert list(_linalg_names(tree, _linalg_aliases(tree))) == [
        ("eigvals", ("f",))]


@pytest.mark.parametrize("routine", LINALG_SITES)
def test_one_site_per_linalg_routine(routine):
    # every eigenvalue computation in the package goes through
    # spectral.eigenvalues_many, and each other routine has its own sites
    assert _linalg_sites().get(routine) == LINALG_SITES[routine]


# One site that writes files: each call in the package that opens a file,
# by the name it is called under, with the functions that make it.
# cli.read_matrix reads the matrix file and cli._write_payload writes --out;
# a second write path, such as a stray open(path, "w"), changes this table.
OPEN_SITES = [
    ("cli", ("read_matrix",), "open"),
    ("cli", ("_write_payload",), "os.open"),
    ("cli", ("_write_payload",), "open"),
]

# the last component of a call that opens or writes a file by its path
_OPENERS = {"open", "fdopen", "write_text", "write_bytes", "savetxt",
            "tofile"}


def _open_calls(tree, where=()):
    """(enclosing function names, callee as written) of each call in
    ``tree`` whose callee's last name is in ``_OPENERS``."""
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = where + (node.name,)
        if isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if callee.rpartition(".")[2] in _OPENERS:
                yield where, callee
        yield from _open_calls(node, inner)


def _open_sites() -> list:
    return [(path.stem, where, callee)
            for path in sorted(Path(hypflow.__file__).parent.glob("*.py"))
            for where, callee in _open_calls(
                ast.parse(path.read_text(encoding="utf-8")))]


def test_one_site_writes_files():
    assert _open_sites() == OPEN_SITES


@pytest.mark.parametrize("source", [
    "def f(p, t):\n    with open(p, 'w') as fh:\n        fh.write(t)",
    "import io\ndef f(p, t):\n    io.open(p, 'w').write(t)",
    "import os\ndef f(p, t):\n    os.fdopen(os.dup(1), 'w').write(t)",
    "from pathlib import Path\ndef f(p, t):\n    Path(p).write_text(t)",
    "import numpy as np\ndef f(p, t):\n    np.savetxt(p, t)",
])
def test_open_site_found(source):
    assert [where for where, _ in _open_calls(ast.parse(source))] == [("f",)]
