import ast
import cmath
import dataclasses
import functools
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hypflow
from hypflow import densemat

from conftest import FLOAT_RANGE_EDGES, child_env

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


# REAL_MATRIX_CALLS and the other public functions of one matrix
FLOAT_RANGE_CALLS = dict(REAL_MATRIX_CALLS, **{
    # one sample, evaluated on its own matrix; at radius 1e308 the A + E of
    # near_max drawn from seed 76 passes the float range (and flips), and
    # the block path counts it scaled
    "perturb_campaign_one": lambda a: hypflow.perturb_campaign(a, 1, 0.1, 0),
    "perturb_campaign_one_huge": lambda a: hypflow.perturb_campaign(
        a, 1, 1e308, 76),
    "expm_many": lambda a: hypflow.expm_many([a]),
    "op_norm2": hypflow.op_norm2,
    "sigma_min": hypflow.sigma_min,
    "default_tolerance": hypflow.default_tolerance,
    "hyperbolize": hypflow.hyperbolize,
    "flow_map": lambda a: hypflow.flow_map(a, 1.0, np.ones(len(a))),
    "char_poly": hypflow.char_poly,
    "vieta_check": hypflow.vieta_check,
})

def _numbers(value):
    """Every float and complex that ``value`` holds, through records,
    arrays, lists and tuples."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _numbers(getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            yield from value.ravel().tolist()
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (float, complex, np.inexact)):
        yield value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", FLOAT_RANGE_EDGES)
@pytest.mark.parametrize("name", FLOAT_RANGE_CALLS)
def test_float_range_edges_answered_or_refused(name, edge):
    # expm, expm_many, det, char_poly and vieta_check warned and returned
    # inf or nan past the float range; hyperbolize returned delta = inf
    # where no eigenvalue is off the axis
    a = np.array(FLOAT_RANGE_EDGES[edge])
    try:
        result = FLOAT_RANGE_CALLS[name](a)
    except (hypflow.HypflowError, ValueError):
        return
    for v in _numbers(result):
        if name in ("op_norm2", "sigma_min") and v == math.inf:
            # documented: the norm itself passes the float range
            assert hypflow.op_norm2(np.ldexp(a, -1)) > np.finfo(float).max / 2
            continue
        assert cmath.isfinite(v), (name, edge, result)


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


_DIAG = np.diag([-1.0, 2.0])
_PLANE = hypflow.ConjugacyClass(1, 1, 2)

# Each scalar argument that is not a real number, and the name it is
# refused under.
NON_REAL_SCALARS = {
    "tau_string": (lambda: hypflow.classify(_DIAG, "1"), "tau"),
    "tau_complex": (lambda: hypflow.classify(_DIAG, 1j), "tau"),
    "tau_bytes": (lambda: hypflow.inertia_of(hypflow.eigenvalues(_DIAG), b"1"),
                  "tau"),
    "tol": (lambda: hypflow.margin(_DIAG, tol="x"), "tol"),
    "tol_none": (lambda: hypflow.margin(_DIAG, tol=None), "tol"),
    "eps_cap": (lambda: hypflow.hyperbolize(_DIAG, eps_cap="x"), "eps_cap"),
    "radius": (lambda: hypflow.perturb_campaign(_DIAG, 5, "0.1", 0), "radius"),
    "radius_complex": (lambda: hypflow.perturb_campaign(_DIAG, 5, 0.1j, 0),
                       "radius"),
    "conditioning": (lambda: hypflow.generate(_PLANE, "2", 1), "conditioning"),
    "t_range": (lambda: hypflow.portrait(_DIAG, [[1, 0]], t_range=("0", "1")),
                "t_range"),
    "t_range_none": (lambda: hypflow.portrait(_DIAG, [[1, 0]],
                                              t_range=(0.0, None)), "t_range"),
}


@pytest.mark.parametrize("name", NON_REAL_SCALARS)
def test_non_real_scalars_refused(name):
    # each raised a bare TypeError from a comparison, and portrait took
    # numeric strings for its t_range, which x0 and the time grid refuse
    call, what = NON_REAL_SCALARS[name]
    with pytest.raises(ValueError, match=f"^{what} must be a real number$"):
        call()


# A scalar past the float range, and the range message it meets.
HUGE_SCALARS = {
    "tau": (lambda: hypflow.classify(_DIAG, 10 ** 400),
            "tau must be finite and >= 0"),
    "eps_cap": (lambda: hypflow.hyperbolize(_DIAG, eps_cap=10 ** 400),
                "eps_cap must be finite and > 0"),
    "radius": (lambda: hypflow.perturb_campaign(_DIAG, 5, 10 ** 400, 0),
               "radius must be finite and > 0"),
    "conditioning": (lambda: hypflow.generate(_PLANE, Fraction(10 ** 400), 1),
                     "conditioning must be finite and >= 1"),
    "t_range": (lambda: hypflow.portrait(_DIAG, [[1, 0]],
                                         t_range=(-10 ** 400, 0)),
                "time grid entries must be finite"),
}


@pytest.mark.parametrize("name", HUGE_SCALARS)
def test_scalars_past_float_range_refused(name):
    # each let a bare OverflowError out of its float conversion
    call, message = HUGE_SCALARS[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_tol_past_float_range_is_clipped():
    # tol is clipped to 1/4 at any size; 10**400 died converting to float
    ref = hypflow.margin(_DIAG, tol=0.25)
    got = hypflow.margin(_DIAG, tol=10 ** 400)
    assert (got.lower, got.upper) == (ref.lower, ref.upper)


def test_real_scalars_of_any_type_taken():
    # bools, integers, Fractions and numpy scalars stay accepted
    assert hypflow.classify(_DIAG, np.float32(0.5)).is_hyperbolic
    assert hypflow.margin(_DIAG, tol=Fraction(1, 10)).lower > 0.0
    assert hypflow.hyperbolize(_DIAG, eps_cap=True).epsilon == 0.5
    assert hypflow.perturb_campaign(_DIAG, 5, np.int64(1), 0).flips == 0
    assert hypflow.generate(_PLANE, 2, 1).shape == (2, 2)
    assert hypflow.portrait(_DIAG, [[1, 0]], t_range=(0, 1)).startswith("<?xml")


@pytest.mark.parametrize("value", [Fraction(3, 10), np.float32(0.3), True],
                         ids=["fraction", "float32", "bool"])
def test_scalars_kept_as_validated_floats(value):
    # the value passed in was kept: Inertia.tau stayed a Fraction, and from
    # an np.float32 tau hyperbolize's default cap max(1, 10*tau) was taken
    # in float32, 3.0000001 where the float gives 3.0000001192092896; a
    # Fraction radius or eps_cap raised a bare TypeError from np.isfinite
    # on an object array, and an eps_cap of True came back as epsilon
    x = float(value)
    inr = hypflow.classify(_DIAG, value).inertia
    assert type(inr.tau) is float and inr.tau == x
    results = {
        "default cap": (hypflow.hyperbolize(np.zeros((2, 2)), value).epsilon,
                        max(1.0, 10.0 * x)),
        "eps_cap": (hypflow.hyperbolize(np.zeros((2, 2)),
                                        eps_cap=value).epsilon, x),
        "radius": (hypflow.perturb_campaign(_DIAG, 5, value, 0).radius, x),
    }
    for name, (got, want) in results.items():
        assert type(got) is float and got == want, name


# Calls that validate their matrix once, and the eigensolves each makes:
# classify's, then margin's one Hamiltonian level and the one-sample
# campaign's one solve of its A + E, which it evaluates directly (an A + E
# past the float range would take the block path, with the same draws and
# report). The first three, given tau, make an openness trial. The flows
# validate their start point and time grid besides.
ONE_VALIDATION_CALLS = {
    "classify": (lambda: hypflow.classify(_DIAG, 1e-9), 1, 1),
    "margin": (lambda: hypflow.margin(_DIAG, 1e-9), 1, 2),
    "perturb_campaign": (
        lambda: hypflow.perturb_campaign(_DIAG, 1, 0.5, 7, 1e-9), 1, 2),
    "classify_default_tau": (lambda: hypflow.classify(_DIAG), 1, 1),
    "hyperbolize": (lambda: hypflow.hyperbolize(_DIAG), 1, 1),
    "expm": (lambda: hypflow.expm(_DIAG), 1, 0),
    "trajectory": (lambda: hypflow.trajectory(_DIAG, [1, 1], [0, 1]), 3, 0),
    "flow_map": (lambda: hypflow.flow_map(_DIAG, 1.0, [1, 1]), 3, 0),
    "portrait": (lambda: hypflow.portrait(_DIAG, [[1, 1]], steps=4), 3, 2),
    "vieta_check": (lambda: hypflow.vieta_check(_DIAG), 1, 1),
}


@pytest.mark.parametrize("name", ONE_VALIDATION_CALLS)
def test_one_validation_per_call(monkeypatch, name):
    # classify validated its matrix, then spectral.eigenvalues did again,
    # and default_tolerance a third time when tau was not given; expm_many
    # validated again the matrices expm, trajectory, flow_map and portrait
    # built, and vieta_check validated in eigenvalues and det as well
    counts = {"entries": 0, "eigvals": 0}
    entries, eigvals = densemat._entries, densemat._umath_linalg.eigvals

    def counting_entries(*args, **kwargs):
        counts["entries"] += 1
        return entries(*args, **kwargs)

    @functools.wraps(eigvals)
    def counting_eigvals(*args, **kwargs):
        counts["eigvals"] += 1
        return eigvals(*args, **kwargs)

    monkeypatch.setattr(densemat, "_entries", counting_entries)
    monkeypatch.setattr(densemat._umath_linalg, "eigvals", counting_eigvals)
    call, validations, eigensolves = ONE_VALIDATION_CALLS[name]
    call()
    assert counts == {"entries": validations, "eigvals": eigensolves}


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


# One implementation per kernel: the package calls LAPACK through the
# gufuncs of numpy.linalg._umath_linalg, never through numpy.linalg's
# routines. Each numpy.linalg routine those gufuncs serve lists the sites
# of its gufuncs, with the functions that make them. A new call site has to
# change this table.
LINALG_SITES = {
    "eigvals": [("_umath_linalg.eigvals", "spectral", ("_eigenvalues_many",))],
    "svd": [("_umath_linalg.svd", "densemat", ("_singular_values",)),
            ("_umath_linalg.svd_f", "flow", ("_split",))],
    "det": [("_umath_linalg.det", "densemat", ("_det",))],
    "solve": [("_umath_linalg.solve", "flow", ("_expm_many",)),
              ("_umath_linalg.solve", "flow", ("_split",))],
    "slogdet": [("_umath_linalg.slogdet", "flow", ("_split",))],
    "qr": [("_umath_linalg.qr_r_raw", "robustness", ("_random_orthogonal",)),
           ("_umath_linalg.qr_reduced", "robustness",
            ("_random_orthogonal",))],
}
# The core signature of each gufunc the package calls, spaces dropped.
GUFUNC_SIGNATURES = {
    "eigvals": "(m,m)->(m)",
    "svd": "(m,n)->(p)",
    "svd_f": "(m,n)->(m,m),(p),(n,n)",
    "det": "(m,m)->()",
    "solve": "(m,m),(m,n)->(m,n)",
    "slogdet": "(m,m)->(),()",
    "qr_r_raw": "(m,n)->(p)",
    "qr_reduced": "(m,n),(k)->(m,k)",
}
# The double loop of each gufunc, which numpy.linalg pins and which the
# package's float64 arrays (complex128 for the SVD of
# densemat._singular_values) select
DOUBLE_LOOPS = {
    "eigvals": "d->D", "svd": "D->d", "svd_f": "d->ddd", "det": "d->d",
    "solve": "dd->d", "slogdet": "d->dd", "qr_r_raw": "d->d",
    "qr_reduced": "dd->d",
}
# numpy.linalg and its module of LAPACK gufuncs
_LINALG_MODULES = ("linalg", "_umath_linalg")


def _module_of(node, aliases):
    """Which of ``_LINALG_MODULES`` ``node`` names, by its attribute name
    or as a name in ``aliases``; None for any other node."""
    if isinstance(node, ast.Attribute) and node.attr in _LINALG_MODULES:
        return node.attr
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def _linalg_aliases(tree) -> dict:
    """The names bound to numpy.linalg or to its _umath_linalg in ``tree``,
    by an import or by assigning the module (or an alias of it) to a name,
    each with the module it is bound to."""
    aliases = {name: name for name in _LINALG_MODULES}
    while True:
        known = dict(aliases)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname: a.name.rsplit(".", 1)[1]
                            for a in node.names if a.asname and a.name in (
                                "numpy.linalg", "numpy.linalg._umath_linalg")}
            elif isinstance(node, ast.ImportFrom):
                aliases |= {a.asname or a.name: a.name for a in node.names
                            if a.name in _LINALG_MODULES}
            elif isinstance(node, ast.Assign):
                module = _module_of(node.value, aliases)
                if module:
                    aliases |= {t.id: module for t in node.targets
                                if isinstance(t, ast.Name)}
        if aliases == known:
            return aliases


def _linalg_names(tree, aliases, where=()):
    """("<module>.<routine>", enclosing function names) of each routine of
    numpy.linalg or of its _umath_linalg named in ``tree``: as an attribute
    of the module or of a name in ``aliases``, imported from it, or fetched
    from it with getattr (a name that is not a literal string counts as the
    routine "?")."""
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = where + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr[:1].islower():
            module = _module_of(node.value, aliases)
            if module:
                yield f"{module}.{node.attr}", where
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            if module in _LINALG_MODULES:
                for alias in node.names:
                    if alias.name[:1].islower():
                        yield f"{module}.{alias.name}", where
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) > 1):
            module = _module_of(node.args[0], aliases)
            if module:
                name = node.args[1]
                yield (f"{module}." + (name.value if isinstance(
                    name, ast.Constant) else "?")), where
        yield from _linalg_names(node, aliases, inner)


def _routine(name: str) -> str:
    """The numpy.linalg routine of a "<module>.<name>" site: the name
    itself in numpy.linalg, and the part before the first underscore of a
    gufunc (qr_r_raw serves qr, svd_f serves svd)."""
    module, routine = name.split(".")
    return routine.split("_")[0] if module == "_umath_linalg" else routine


def _linalg_sites() -> dict:
    sites = {}
    for path in sorted(Path(hypflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, where in _linalg_names(tree, _linalg_aliases(tree)):
            sites.setdefault(_routine(name), []).append(
                (name, path.stem, where))
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
        ("linalg.eigvals", ("f",))]


@pytest.mark.parametrize("source", [
    "import numpy as np\ndef f(m):\n"
    "    return np.linalg._umath_linalg.eigvals(m)",
    "from numpy.linalg import _umath_linalg\ndef f(m):\n"
    "    return _umath_linalg.eigvals(m)",
    "from .densemat import _umath_linalg as lapack\ndef f(m):\n"
    "    return lapack.eigvals(m)",
    "import numpy.linalg._umath_linalg as ul\nu = ul\ndef f(m):\n"
    "    return getattr(u, 'eigvals')(m)",
    "def f(m):\n    from numpy.linalg._umath_linalg import eigvals\n"
    "    return eigvals(m)",
])
def test_gufunc_site_found_under_any_name(source):
    tree = ast.parse(source)
    assert list(_linalg_names(tree, _linalg_aliases(tree))) == [
        ("_umath_linalg.eigvals", ("f",))]


@pytest.mark.parametrize("routine", LINALG_SITES)
def test_one_site_per_linalg_routine(routine):
    # every eigenvalue computation in the package goes through
    # spectral._eigenvalues_many, and each other routine has its own sites;
    # a numpy.linalg call beside its gufunc would be one more site
    assert _linalg_sites().get(routine) == LINALG_SITES[routine]


def test_gufuncs_have_the_signatures_relied_on():
    # a numpy that renames a gufunc, changes its core signature or no
    # longer resolves the package's arrays to the double loop fails here,
    # not deep in a request
    sites = {name.split(".")[1] for routine in LINALG_SITES.values()
             for name, _, _ in routine}
    assert sorted(sites) == sorted(GUFUNC_SIGNATURES) == sorted(DOUBLE_LOOPS)
    for name, signature in GUFUNC_SIGNATURES.items():
        gufunc = getattr(densemat._umath_linalg, name)
        assert gufunc.signature.replace(" ", "") == signature, name
        ins, outs = DOUBLE_LOOPS[name].split("->")
        dtypes = gufunc.resolve_dtypes(
            tuple(np.dtype(c) for c in ins) + (None,) * len(outs))
        assert "".join(t.char for t in dtypes) == ins + outs, name


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
