import functools
import hashlib
import io
import json
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypflow
from hypflow import cli, densemat, flow, inertia, robustness

from conftest import write_matrix
from oracles import refined_grid_distance


# JSON values of every kind, nested, and matrix-file-shaped documents built
# from them; json.dumps writes nan and inf as the NaN and Infinity literals
JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=3)
                | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
                | st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)
JSON_DOCS = (JSON_VALUES
             | st.fixed_dictionaries({"d": JSON_VALUES, "data": JSON_VALUES})
             | st.integers(1, 3).flatmap(lambda d: st.fixed_dictionaries({
                 "d": st.just(d),
                 "data": st.lists(st.lists(JSON_VALUES, min_size=d,
                                           max_size=d),
                                  min_size=d, max_size=d)}))
             | st.integers(1, 3).flatmap(lambda d: st.fixed_dictionaries({
                 "d": st.just(d),
                 "data": st.lists(st.lists(JSON_SCALARS, min_size=d,
                                           max_size=d),
                                  min_size=d, max_size=d)})))


def write_fixture(tmp_path, name, matrix):
    path = tmp_path / name
    write_matrix(path, np.asarray(matrix, dtype=float))
    return str(path)


@pytest.fixture
def saddle(tmp_path):
    return write_fixture(tmp_path, "saddle.json", np.diag([-1.0, 2.0]))


@pytest.fixture
def rotation(tmp_path):
    return write_fixture(tmp_path, "rotation.json", [[0.0, 1.0], [-1.0, 0.0]])


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixFile:
    def test_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((4, 4))
        path = write_fixture(tmp_path, "m.json", m)
        np.testing.assert_array_equal(cli.read_matrix(path), m)

    def test_ragged_row_cites_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2, "data": [[1, 2, 3], [4, 5]]}')
        with pytest.raises(cli.MatrixFileError, match="row 0 has 3 entries"):
            cli.read_matrix(str(path))

    def test_missing_d_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"data": [[1]]}')
        with pytest.raises(cli.MatrixFileError, match="field 'd'"):
            cli.read_matrix(str(path))

    def test_non_numeric_entry_cites_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 1, "data": [["x"]]}')
        with pytest.raises(cli.MatrixFileError, match="row 0, column 0"):
            cli.read_matrix(str(path))

    @pytest.mark.parametrize("text, message", [
        ("[[1.0]]",
         "matrix file must be a JSON object with fields 'd' and 'data'"),
        ('{"d": 2, "data": [[1, 2]]}',
         "field 'data' must be a list of 2 rows, got 1"),
        ('{"d": 1, "data": [[NaN]]}', "row 0, column 0: not a finite number"),
        ('{"d": 1, "data": [[' + "9" * 400 + "]]}",
         "row 0, column 0: not a finite number")],
        ids=["not-object", "short-data", "nan-entry", "huge-integer"])
    def test_schema_error_named(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(cli.MatrixFileError) as exc:
            cli.read_matrix(str(path))
        assert str(exc.value) == message

    def test_huge_integer_refused_by_classify(self, capsys, tmp_path):
        # float() of a 400-digit JSON integer raised OverflowError, which
        # escaped as a traceback
        path = tmp_path / "huge.json"
        path.write_text('{"d": 1, "data": [[' + "9" * 400 + "]]}")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (1, "")
        assert err == "error: row 0, column 0: not a finite number\n"

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"d": 1, "data": [[' + "9" * 5000 + "]]}"],
        ids=["deep-nesting", "integer-past-digit-limit"])
    def test_unparsable_json_refused(self, tmp_path, text):
        # json.loads raised RecursionError and a non-JSONDecodeError
        # ValueError on these
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(cli.MatrixFileError, match="^invalid JSON: "):
            cli.read_matrix(str(path))

    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    def test_any_json_document_read_or_refused(self, doc):
        # a matrix file is answered with a finite float matrix or refused
        # with MatrixFileError, whatever JSON it holds
        text = json.dumps(doc)
        with mock.patch("sys.stdin", io.StringIO(text)):
            try:
                m = cli.read_matrix("-")
            except cli.MatrixFileError:
                return
        assert m.dtype == float and m.ndim == 2 and m.shape[0] == m.shape[1]
        assert np.isfinite(m).all()


class TestClassify:
    def test_saddle_exit_0(self, capsys, saddle):
        code, out, _ = run(capsys, "classify", saddle)
        report = json.loads(out)
        assert code == 0
        assert report["verdict"] == "hyperbolic"
        assert (report["s"], report["u"], report["c"]) == (1, 1, 0)
        assert report["witness"] is None

    def test_rotation_exit_2_with_witness(self, capsys, rotation):
        code, out, _ = run(capsys, "classify", rotation)
        report = json.loads(out)
        assert code == 2
        assert report["verdict"] == "non_hyperbolic"
        re, im = report["witness"]
        assert abs(re) < 1e-12 and abs(abs(im) - 1.0) < 1e-12

    def test_indeterminate_exit_3(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "edge.json",
                             np.diag([0.1 + 5e-16, 1.0]))
        code, out, _ = run(capsys, "classify", path, "--tol", "0.1")
        assert code == 3
        assert json.loads(out)["verdict"] == "indeterminate"

    def test_huge_finite_input_exit_0(self, capsys, tmp_path):
        a = np.random.default_rng(2).standard_normal((4, 4))
        path = write_fixture(tmp_path, "huge.json", 1e300 * a)
        code, out, err = run(capsys, "classify", path)
        assert code == 0, err
        report = json.loads(out)
        base = inertia.classify(a)
        assert report["verdict"] == "hyperbolic"
        assert (report["s"], report["u"]) == (base.inertia.s, base.inertia.u)

    def test_column_sum_beyond_float_range_exit_0(self, capsys, tmp_path):
        # the 1-norm of this matrix is 2e308, past the largest float
        path = write_fixture(tmp_path, "edge.json",
                             [[-1e308, 1e308], [0.0, -1e308]])
        code, out, err = run(capsys, "classify", path)
        assert code == 0, err

        def refuse(name):
            raise ValueError(f"non-strict JSON constant {name}")

        report = json.loads(out, parse_constant=refuse)
        assert report["verdict"] == "hyperbolic"
        assert (report["s"], report["u"]) == (2, 0)

    def test_norm_beyond_float_range_exit_0(self, capsys, tmp_path):
        # ||A||_2 overflows; the default tau must not
        path = write_fixture(tmp_path, "edge.json",
                             [[1e308, 1.7e308], [0.0, 1e308]])
        code, out, err = run(capsys, "classify", path)
        assert code == 0, err
        report = json.loads(out)
        assert report["verdict"] == "hyperbolic"
        assert (report["s"], report["u"]) == (0, 2)

    @pytest.mark.parametrize("command", ["classify", "margin", "perturb"])
    def test_eigenvalues_beyond_float_range_exit_1(self, capsys, tmp_path,
                                                   command):
        # classify printed Infinity eigenvalues, which are not strict JSON,
        # and exited 0; margin failed with "SVD did not converge" after a
        # RuntimeWarning
        path = write_fixture(tmp_path, "edge.json",
                             [[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "")
        assert err == "error: eigenvalues exceed the float range\n"

    def test_malformed_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2, "data": [[1, 2, 3], [4, 5]]}')
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "row 0" in err

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO('{"d": 1, "data": [[-2.0]]}'))
        code, out, _ = run(capsys, "classify", "-")
        assert code == 0
        assert json.loads(out)["s"] == 1


class TestMargin:
    def test_saddle_upper_is_gap(self, capsys, saddle):
        code, out, _ = run(capsys, "margin", saddle, "--margin-tol", "1e-6")
        report = json.loads(out)
        assert code == 0
        assert report["upper"] == pytest.approx(1.0, abs=1e-6)
        assert report["upper"] - report["lower"] <= 1e-6 + 1e-15

    def test_rotation_zeros_exit_2(self, capsys, rotation):
        code, out, _ = run(capsys, "margin", rotation)
        report = json.loads(out)
        assert code == 2
        assert report["lower"] == report["upper"] == 0.0

    def test_shear_small_margin(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "shear.json",
                             [[-1.0, 100.0], [0.0, -1.0]])
        code, out, _ = run(capsys, "margin", path)
        assert code == 0
        assert json.loads(out)["upper"] < 0.02

    def test_indeterminate_exit_3(self, capsys, tmp_path):
        # exited 2, as for a non-hyperbolic matrix, where classify exits 3
        path = write_fixture(tmp_path, "edge.json",
                             np.diag([0.1 + 5e-16, 1.0]))
        code, out, _ = run(capsys, "margin", path, "--tol", "0.1")
        assert code == 3
        assert json.loads(out)["lower"] == 0.0

    def test_norm_beyond_float_range_certified(self, capsys, tmp_path):
        # ||A||_2 overflows, so the rounding floor was inf and lower came
        # out as the uncertified 3/4 of upper
        a = np.array([[1e308, 1.7e308], [0.0, 1e308]])
        path = write_fixture(tmp_path, "edge.json", a)
        code, out, err = run(capsys, "margin", path)
        assert code == 0, err
        report = json.loads(out)
        distance = math.ldexp(refined_grid_distance(np.ldexp(a, -1024)), 1024)
        assert 0 < report["lower"] <= distance <= report["upper"] * (1 + 1e-8)
        assert report["upper"] - report["lower"] <= 1e-5 * report["upper"]


class TestPerturb:
    def test_no_flips_exit_0(self, capsys, saddle):
        code, out, _ = run(capsys, "perturb", saddle, "--samples", "50",
                           "--radius", "0.5", "--seed", "42")
        report = json.loads(out)
        assert code == 0
        assert report["flips"] == 0

    def test_default_radius_from_margin(self, capsys, saddle):
        code, out, _ = run(capsys, "perturb", saddle, "--samples", "20",
                           "--seed", "42")
        report = json.loads(out)
        assert code == 0
        assert report["radius"] == pytest.approx(0.9 * 0.999999, rel=1e-6)

    def test_flips_reported_exit_2(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "nearaxis.json", np.diag([-0.01, 2.0]))
        code, out, _ = run(capsys, "perturb", path, "--samples", "100",
                           "--radius", "0.1", "--seed", "3")
        report = json.loads(out)
        assert code == 2
        assert report["flips"] > 0
        assert len(report["flip_witnesses"]) == min(report["flips"], 10)

    @pytest.mark.parametrize("matrix", [
        # 0.9 * lower = 4.2e307 added to 1.7e308 passes the float range
        [[1e308, 1.7e308], [0.0, 1e308]],
        # radius / ||G|| overflows, and "overflow encountered in divide"
        # was printed before the error line
        [[1e308]],
    ], ids=["sum", "direction_scale"])
    def test_default_radius_near_float_max_exit_0(self, capsys, tmp_path,
                                                  matrix):
        # both exited 1 with "A + E passes the float range"
        path = write_fixture(tmp_path, "edge.json", matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "perturb", path, "--samples", "50")
        assert (code, err) == (0, "")
        assert json.loads(out)["flips"] == 0

    def test_zero_samples_usage_error(self, capsys, saddle):
        code, _, err = run(capsys, "perturb", saddle, "--samples", "0")
        assert code == 1
        assert "samples" in err

    def test_non_hyperbolic_exit_2(self, capsys, rotation):
        code, _, err = run(capsys, "perturb", rotation, "--samples", "5",
                           "--radius", "0.1")
        assert code == 2

    @pytest.mark.parametrize("radius", [(), ("--radius", "0.1")],
                             ids=["default-radius", "radius"])
    def test_indeterminate_exit_3(self, capsys, tmp_path, radius):
        # exited 2, as for a non-hyperbolic matrix, where classify exits 3
        path = write_fixture(tmp_path, "edge.json",
                             np.diag([0.1 + 5e-16, 1.0]))
        code, out, err = run(capsys, "perturb", path, "--tol", "0.1",
                             "--samples", "5", *radius)
        assert (code, out) == (3, "")
        assert err == "error: base matrix classified as indeterminate\n"

    def test_non_hyperbolic_default_radius_exit_2(self, capsys, rotation):
        code, out, err = run(capsys, "perturb", rotation, "--samples", "5")
        assert code == 2
        assert out == ""
        assert "error: base matrix classified as non_hyperbolic" in err
        _, _, err_radius = run(capsys, "perturb", rotation, "--samples", "5",
                               "--radius", "0.1")
        assert err == err_radius


class TestUsage:
    def test_unknown_option_exit_1(self, capsys, saddle):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", saddle, "--bogus"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", "--help"])
        assert exc.value.code == 0
        assert "--x0=-1,2" in capsys.readouterr().out

    def test_negative_x0_needs_equals_form(self, capsys, saddle):
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", saddle, "--x0", "-1,2", "--times", "0"])
        assert exc.value.code == 1
        code, out, _ = run(capsys, "flow", saddle, "--x0=-1,2", "--times", "0")
        assert code == 0
        assert out.splitlines() == ["t,x1,x2", "0,-1,2"]


class TestFlow:
    def test_single_time_zero(self, capsys, saddle):
        code, out, _ = run(capsys, "flow", saddle, "--x0", "3,4", "--times", "0")
        assert code == 0
        assert out.splitlines() == ["t,x1,x2", "0,3,4"]

    def test_exponential_row(self, capsys, saddle):
        code, out, _ = run(capsys, "flow", saddle, "--x0", "1,1",
                           "--times", "0,1")
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert float(last[2]) == pytest.approx(np.exp(2.0), rel=1e-12)
        # 17 significant digits round-trip exactly
        assert last[1] == format(np.exp(-1.0), ".17g")

    def test_descending_grid_exit_1(self, capsys, saddle):
        code, _, err = run(capsys, "flow", saddle, "--x0", "1,1",
                           "--times", "1,0.5")
        assert code == 1
        assert "ascending" in err

    def test_dimension_mismatch_exit_1(self, capsys, saddle):
        code, _, err = run(capsys, "flow", saddle, "--x0", "1,1,1",
                           "--times", "0,1")
        assert code == 1

    def test_writes_file(self, capsys, saddle, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "flow", saddle, "--x0", "1,1",
                           "--times", "0,0.5,1", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("t,x1,x2\n")


    def test_csv_past_one_chunk_matches_row_by_row_text(self, capsys,
                                                        tmp_path):
        # rows are formatted a chunk at a time; a grid of two and a half
        # chunks must give the row-by-row "%.17g" text
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 3)) / 3.0
        times = np.linspace(-1.0, 2.0, 5 * cli._CSV_ROWS // 2)
        path = write_fixture(tmp_path, "m.json", m)
        code, out, err = run(capsys, "flow", path, "--x0=1,-2,0.5",
                             "--times=" + ",".join(map(repr, times.tolist())))
        assert (code, err) == (0, "")
        states = flow.trajectory(m, [1.0, -2.0, 0.5], times).states
        rows = [",".join("%.17g" % v for v in (t, *x))
                for t, x in zip(times.tolist(), states.tolist())]
        assert out == "\n".join(["t,x1,x2,x3"] + rows) + "\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, times, when", [
        (1e300, "0,0.1,1", "0.1"),        # e^{0.1 H} overflows
        (1e300, "0,1e10", "10000000000.0"),  # 1e10 H itself overflows
        (1e308, "0,1", "1.0")])           # ||H||_2 passes the float range
    def test_overflow_exit_1(self, capsys, tmp_path, scale, times, when):
        a = np.random.default_rng(2).standard_normal((4, 4))
        if scale == 1e308:
            a = np.ones((4, 4))
        path = write_fixture(tmp_path, "huge.json", scale * a)
        code, out, err = run(capsys, "flow", path, "--x0", "1,1,1,1",
                             "--times", times)
        assert code == 1
        assert out == ""
        assert err == f"error: the flow leaves the float range at t = {when}\n"

    @pytest.mark.parametrize("x0", ["nan,1", "1,inf", "-inf,0"])
    def test_non_finite_x0_exit_1(self, capsys, saddle, x0):
        code, out, err = run(capsys, "flow", saddle, "--x0=" + x0,
                             "--times", "0,1")
        assert code == 1
        assert out == ""
        assert "x0" in err

    @pytest.mark.parametrize("times", ["0,nan,1", "0,inf", "nan"])
    def test_non_finite_times_exit_1(self, capsys, saddle, times):
        code, out, err = run(capsys, "flow", saddle, "--x0", "1,1",
                             "--times=" + times)
        assert code == 1
        assert out == ""
        assert "time grid" in err


class TestPortrait:
    def test_saddle_svg_with_subspace_lines(self, capsys, saddle, tmp_path):
        out_path = tmp_path / "saddle.svg"
        code, out, _ = run(capsys, "portrait", saddle, "--out", str(out_path))
        assert code == 0
        assert "s=1 u=1" in out
        svg = out_path.read_text()
        assert svg.count("<line") == 2
        assert svg.count("<polyline") == 8

    def test_rotation_svg_no_lines(self, capsys, rotation, tmp_path):
        out_path = tmp_path / "rot.svg"
        code, _, _ = run(capsys, "portrait", rotation, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().count("<line") == 0

    def test_3d_exit_1(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "three.json", np.eye(3))
        code, _, err = run(capsys, "portrait", str(path))
        assert code == 1


    def test_negative_exponent_time_needs_equals_form(self, capsys, saddle,
                                                       tmp_path, monkeypatch):
        # argparse takes -1e3 for an option, though it takes -1.5 for a number
        monkeypatch.setenv("COLUMNS", "200")  # no wrap inside the help
        with pytest.raises(SystemExit) as exc:
            cli.main(["portrait", saddle, "--t0", "-1e3"])
        assert exc.value.code == 1
        assert "--t0: expected one argument" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main(["portrait", "--help"])
        usage = capsys.readouterr().out
        assert "--t0=-1e-3" in usage and "--t1=-1e-3" in usage
        code, out, _ = run(capsys, "portrait", saddle, "--t0=-1e-3",
                           "--out", str(tmp_path / "s.svg"))
        assert code == 0
        assert out == "s=1 u=1\n"

    def test_classifies_once(self, capsys, saddle, tmp_path, monkeypatch):
        calls = []
        classify = inertia.classify

        def counting(*args):
            calls.append(1)
            return classify(*args)

        monkeypatch.setattr(inertia, "classify", counting)
        monkeypatch.setattr(flow, "classify", counting)
        code, out, _ = run(capsys, "portrait", saddle,
                           "--out", str(tmp_path / "s.svg"))
        assert code == 0
        assert out == "s=1 u=1\n"
        assert len(calls) == 1


FLOW_ARGV = ("flow", "--x0", "1,1", "--times", "0,0.5,1")
PORTRAIT_ARGV = ("portrait",)


class TestOutFile:
    """--out rewrites an existing file in place: the new payload replaces
    its bytes, the file keeps its inode, links and mode bits, a
    non-regular target is written without truncation, and a request that
    fails leaves the file as it was."""

    @staticmethod
    def request(capsys, saddle, argv, out_path):
        return run(capsys, argv[0], saddle, *argv[1:], "--out", str(out_path))

    def payload(self, capsys, saddle, argv):
        code, out, _ = self.request(capsys, saddle, argv, "-")
        assert code == 0
        return out.encode()

    @pytest.mark.parametrize("argv", [FLOW_ARGV, PORTRAIT_ARGV])
    def test_short_payload_over_longer_file(self, capsys, saddle, tmp_path,
                                            argv):
        # writing in place without cutting the file at the end of the new
        # payload would leave the old file's tail behind it
        expected = self.payload(capsys, saddle, argv)
        out_path = tmp_path / "out"
        out_path.write_bytes(b"0123456789\n" * (len(expected) // 5))
        code, _, err = self.request(capsys, saddle, argv, out_path)
        assert (code, err) == (0, "")
        assert out_path.read_bytes() == expected

    @pytest.mark.parametrize("argv", [FLOW_ARGV, PORTRAIT_ARGV])
    def test_dev_null_exit_0(self, capsys, saddle, argv):
        code, out, err = self.request(capsys, saddle, argv, os.devnull)
        assert (code, err) == (0, "")
        assert out == ("s=1 u=1\n" if argv[0] == "portrait" else "")

    @pytest.mark.parametrize("argv", [FLOW_ARGV, PORTRAIT_ARGV])
    def test_directory_exit_1(self, capsys, saddle, tmp_path, argv):
        code, out, err = self.request(capsys, saddle, argv, tmp_path)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("argv", [FLOW_ARGV, PORTRAIT_ARGV])
    def test_missing_parent_exit_1(self, capsys, saddle, tmp_path, argv):
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = self.request(capsys, saddle, argv, out_path)
        assert (code, out) == (1, "")
        assert err == ("error: [Errno 2] No such file or directory: "
                       f"'{out_path}'\n")
        assert not out_path.parent.exists()

    def test_inode_mode_and_hard_link_kept(self, capsys, saddle, tmp_path):
        expected = self.payload(capsys, saddle, FLOW_ARGV)
        out_path, link = tmp_path / "out.csv", tmp_path / "link.csv"
        out_path.write_bytes(b"old\n" * 1000)
        out_path.chmod(0o640)
        os.link(out_path, link)
        before = out_path.stat()
        code, _, _ = self.request(capsys, saddle, FLOW_ARGV, out_path)
        assert code == 0
        after = out_path.stat()
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino, before.st_mode, 2)
        assert link.read_bytes() == out_path.read_bytes() == expected

    def test_symlink_written_through(self, capsys, saddle, tmp_path):
        expected = self.payload(capsys, saddle, PORTRAIT_ARGV)
        target, link = tmp_path / "target.svg", tmp_path / "link.svg"
        target.write_bytes(b"old\n" * 10000)
        link.symlink_to(target)
        code, _, _ = self.request(capsys, saddle, PORTRAIT_ARGV, link)
        assert code == 0
        assert link.is_symlink()
        assert target.read_bytes() == expected

    def test_new_file_created(self, capsys, saddle, tmp_path):
        expected = self.payload(capsys, saddle, FLOW_ARGV)
        out_path = tmp_path / "new.csv"
        code, _, _ = self.request(capsys, saddle, FLOW_ARGV, out_path)
        assert code == 0
        assert out_path.read_bytes() == expected
        assert out_path.stat().st_mode & 0o777 == 0o666 & ~_umask()

    def test_failed_request_leaves_file_unchanged(self, capsys, tmp_path):
        # the payload is formed before the file is opened, so a flow that
        # leaves the float range touches no byte of the old file
        a = np.random.default_rng(2).standard_normal((4, 4))
        path = write_fixture(tmp_path, "huge.json", 1e300 * a)
        out_path = tmp_path / "out.csv"
        old = b"t,x1,x2,x3,x4\n0,1,1,1,1\n"
        out_path.write_bytes(old)
        code, out, err = run(capsys, "flow", path, "--x0", "1,1,1,1",
                             "--times", "0,0.1,1", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: the flow leaves the float range at t = 0.1\n"
        assert out_path.read_bytes() == old


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


class TestVerify:
    def test_vieta_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "vieta", "--seed", "1",
                           "--samples", "50")
        report = json.loads(out)
        assert code == 0
        assert report["passed"] == report["total"] == 50
        assert report["worst"] <= 1e-8

    def test_oracle_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--seed", "1",
                           "--samples", "40")
        assert code == 0

    def test_unknown_suite_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "bogus")
        assert code == 1
        assert "unknown suite" in err


class TestArgumentChecks:
    @pytest.mark.parametrize("command", ["classify", "margin", "perturb",
                                         "portrait"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exit_1(self, capsys, saddle, command, tol):
        # nan used to end in a traceback, inf in "tau": Infinity or tau=inf
        code, out, err = run(capsys, command, saddle, "--tol=" + tol)
        assert (code, out) == (1, "")
        assert err == "error: tau must be finite and >= 0\n"

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_non_finite_radius_exit_1(self, capsys, saddle, radius):
        code, out, err = run(capsys, "perturb", saddle, "--samples", "5",
                             "--radius", radius)
        assert (code, out) == (1, "")
        assert err == "error: radius must be finite and > 0\n"

    @pytest.mark.parametrize("argv", [("margin",),
                                      ("perturb", "--samples", "5")])
    def test_nan_margin_tol_exit_1(self, capsys, saddle, argv):
        # nan used to pass as 1/4: lower = 0.75*upper, exit 0
        code, out, err = run(capsys, argv[0], saddle, *argv[1:],
                             "--margin-tol", "nan")
        assert (code, out) == (1, "")
        assert err == "error: tol must be > 0\n"

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_samples_exit_1(self, capsys, samples):
        # -5 used to report "total": -5 and pass
        code, out, err = run(capsys, "verify", "openness",
                             "--samples", samples)
        assert (code, out) == (1, "")
        assert err == "error: --samples must be >= 1\n"

    def test_verify_seed_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "vieta", "--samples", "3",
                             "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --seed must be >= 0\n"

    @pytest.mark.parametrize("argv, message", [
        (("flow", "--x0=1,a", "--times", "0"),
         "--x0 must be a comma-separated number list"),
        (("perturb", "--seed", "-1"), "--seed must be >= 0"),
        (("perturb", "--radius", "0"), "--radius must be > 0"),
        (("portrait", "--seeds", "0"), "--seeds must be >= 1")],
        ids=["flow-x0", "perturb-seed", "perturb-radius", "portrait-seeds"])
    def test_flag_value_exit_1(self, capsys, saddle, argv, message):
        code, out, err = run(capsys, argv[0], saddle, *argv[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.fixture
def analyses(monkeypatch):
    """Counts of ``inertia.classify`` calls and of SVDs of a single matrix
    (the 2-norm of the input; every other SVD on these paths is of a stack)."""
    counts = {"classify": 0, "svd": 0}
    classify, svd = inertia.classify, densemat._umath_linalg.svd

    def counting_classify(*args, **kwargs):
        counts["classify"] += 1
        return classify(*args, **kwargs)

    @functools.wraps(svd)
    def counting_svd(a, *args, **kwargs):
        counts["svd"] += np.ndim(a) == 2
        return svd(a, *args, **kwargs)

    for module in (hypflow, inertia, robustness, flow, cli):
        if getattr(module, "classify", None) is classify:
            monkeypatch.setattr(module, "classify", counting_classify)
    monkeypatch.setattr(densemat._umath_linalg, "svd", counting_svd)
    return counts


class TestOneAnalysisPerRequest:
    # a request given --tol needs ||A||_2 only for margin's rounding floor,
    # and takes it from the first matrix of margin's first stacked SVD,
    # which is A itself
    @pytest.mark.parametrize("argv, svds", [
        (("margin",), 1), (("margin", "--tol", "1e-6"), 0),
        (("perturb", "--samples", "20"), 1),
        (("perturb", "--samples", "20", "--radius", "0.1"), 1),
        (("perturb", "--samples", "20", "--tol", "1e-6"), 0),
        (("perturb", "--samples", "20", "--radius", "0.1", "--tol", "1e-6"),
         0),
        (("portrait",), 1), (("portrait", "--tol", "1e-6"), 0)],
        ids=["margin", "margin-tol", "perturb", "perturb-radius",
             "perturb-tol", "perturb-radius-tol", "portrait", "portrait-tol"])
    def test_cli_request(self, capsys, saddle, tmp_path, analyses, argv,
                         svds):
        code, _, err = run(capsys, argv[0], saddle, *argv[1:],
                           *(("--out", str(tmp_path / "p.svg"))
                             if argv[0] == "portrait" else ()))
        assert code == 0, err
        assert analyses == {"classify": 1, "svd": svds}

    def test_openness_trial(self, analyses):
        result = robustness.run_suite("openness", seed=3, trials=4)
        assert result.passed == 4
        assert analyses == {"classify": 4, "svd": 4}


class TestDeterminism:
    def test_stdout_commands_byte_identical(self, capsys, saddle, rotation):
        cases = [
            ("classify", saddle),
            ("classify", rotation),
            ("margin", saddle),
            ("perturb", saddle, "--samples", "30", "--radius", "0.4",
             "--seed", "7"),
            ("flow", saddle, "--x0", "1,1", "--times", "0,0.25,0.5"),
            ("verify", "vieta", "--samples", "20"),
        ]
        for argv in cases:
            code1, out1, _ = run(capsys, *argv)
            code2, out2, _ = run(capsys, *argv)
            assert code1 == code2
            assert out1 == out2, f"output drift for {argv}"

    def test_file_outputs_byte_identical(self, capsys, saddle, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "portrait", saddle, "--out", str(a))
        run(capsys, "portrait", saddle, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        run(capsys, "flow", saddle, "--x0", "1,2", "--times", "0,1,2",
            "--out", str(c))
        run(capsys, "flow", saddle, "--x0", "1,2", "--times", "0,1,2",
            "--out", str(d))
        assert c.read_bytes() == d.read_bytes()


# SHA-256 of each payload as the loop implementation (one exponential per
# new step, one trajectory per portrait start point) wrote it, with numpy 2.4
# and OpenBLAS 0.3 on x86-64, whose DYNAMIC_ARCH build picked its SkylakeX
# kernels: stacking the exponentials and the start points must not move a
# byte. Other OpenBLAS kernels round differently in the last bits (ROADMAP.md
# item 2, tier-1 independent of the OpenBLAS kernel; tests/blas_kernels.py).
SHEAR3 = [[-1.0, 2.0, 0.0], [0.5, -0.3, 1.0], [0.0, -1.0, 0.2]]
PINNED = {
    "flow-uniform": (
        SHEAR3, ("flow", "--x0=1,-2,0.5", "--times=" + ",".join(
            repr(float(t)) for t in np.linspace(0.0, 4.0, 401))), "",
        "e4ac971bf31ff3a00ae21c16e3a7bce5cf935de947a6896158776f0e80a63aea"),
    "flow-nonuniform": (
        SHEAR3, ("flow", "--x0=1,-2,0.5",
                 "--times=0,0.1,0.25,0.5,1,1.5,2.75,4,4.001,7"), "",
        "bb5cdea1aae24ee67daee8067cd0e9a95323ec74c052a716d5b49d86f725c94c"),
    "flow-nonzero-start": (
        SHEAR3, ("flow", "--x0=1,-2,0.5",
                 "--times=-1.5,-0.5,0.5,0.75,1,1.25,3"), "",
        "7ca98f7180c70ca875eb219a040e9974caf02526719a5d31350f0c12a318ea10"),
    "portrait-saddle": (
        [[-1.0, 0.0], [0.0, 2.0]], ("portrait",), "s=1 u=1\n",
        "b78d5d1d3d408f6e3dff6fb0076243a817d16982b03d05b40fe4a6d3366a1fa6"),
    "portrait-sink": (
        [[-1.0, 0.5], [0.0, -2.0]], ("portrait",), "s=2 u=0\n",
        "626e0d01b9f6d2d75148284410fb97bc790d5e6eaf648e0d3b3179cfe49dbf78"),
    "portrait-focus": (
        [[-0.5, 2.0], [-2.0, -0.5]], ("portrait", "--t1", "4"), "s=2 u=0\n",
        "f872f3c3703b85db8e6ddba9f4e2456a7792bb14786346622a46d21315c762d2"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_payload_bytes_pinned(capsys, tmp_path, name):
    matrix, argv, stdout, digest = PINNED[name]
    path = write_fixture(tmp_path, "m.json", matrix)
    out_path = tmp_path / "payload"
    code, out, err = run(capsys, argv[0], path, *argv[1:],
                         "--out", str(out_path))
    assert (code, out, err) == (0, stdout, "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_payload_bytes_pinned_when_rewritten(capsys, tmp_path, name):
    # the bytes do not depend on whether --out existed before, nor on what
    # it held: a longer file is cut at the end of the new payload
    matrix, argv, stdout, digest = PINNED[name]
    path = write_fixture(tmp_path, "m.json", matrix)
    out_path = tmp_path / "payload"
    out_path.write_bytes(b"#" * (1 << 16))
    for _ in range(2):
        code, out, err = run(capsys, argv[0], path, *argv[1:],
                             "--out", str(out_path))
        assert (code, out, err) == (0, stdout, "")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


# SHA-256 of [exit code, stdout, stderr] of each report request as the path
# that classified and took ||A||_2 several times per request wrote them, with
# numpy 2.4 and OpenBLAS 0.3 on x86-64, whose DYNAMIC_ARCH build picked its
# SkylakeX kernels: passing one verdict through a request must not move a
# byte. Other OpenBLAS kernels round differently in the last bits: under
# Haswell, margin(SHEAR3).lower reads 0.1712367897994687, not
# 0.17123678979946877 (ROADMAP.md item 2, tier-1 independent of the OpenBLAS
# kernel; tests/blas_kernels.py).
NEAR_AXIS = [[-0.01, 0.0], [0.0, 2.0]]
ROTATION = [[0.0, 1.0], [-1.0, 0.0]]
REPORTS = {
    "classify-shear3": (
        SHEAR3, ("classify",),
        "12212d511eefa1a5ce01d21eae46125e633170c519a45e1e8ab27f5b73dece0c"),
    "classify-rotation": (
        ROTATION, ("classify",),
        "886984276c2d331e690b2a34a895763dba6d8c76549378573ecd84af564fe20a"),
    "margin-shear3": (
        SHEAR3, ("margin",),
        "c574efe589308c40a8e44328149fbc71a2277d7a61fcd573f0373fc0d8c5764e"),
    "margin-shear3-tol": (
        SHEAR3, ("margin", "--margin-tol", "0.05"),
        "f3c882bf68a76ef705835a2758fe29c46b645691c726f1521d6f063bedff5cac"),
    "margin-rotation": (
        ROTATION, ("margin",),
        "5fe2bec8debaa775f46a311c95977959ac53a9f83e875937a1c476b727ab1214"),
    "perturb-shear3-radius": (
        SHEAR3, ("perturb", "--samples", "200", "--radius", "0.15",
                 "--seed", "5"),
        "4aafa9def902fb061f87eb5bd8258bdce2000332e4cca012ddb95de1d5fdc639"),
    "perturb-shear3": (
        SHEAR3, ("perturb", "--samples", "200", "--seed", "5"),
        "3510d457c11708eaf7490ebd562b23cdeb64051409caabd90a5f24bbd02b6616"),
    "perturb-near-axis-radius": (
        NEAR_AXIS, ("perturb", "--samples", "100", "--radius", "0.1",
                    "--seed", "3"),
        "826a8cb9ede4ba98867f2697c23cd30c66081f57027ca6b627139f3add537d29"),
    "perturb-near-axis": (
        NEAR_AXIS, ("perturb", "--samples", "100", "--seed", "3"),
        "bcd9c7c7d5e56e2a5d4da081c4397a72099e7e771595e005694a2a30af1e0b59"),
    "perturb-rotation-radius": (
        ROTATION, ("perturb", "--samples", "5", "--radius", "0.1"),
        "0daee3df2e91886c5125066ba8fdafc496731704bc126a78da813513aaa147d5"),
    "perturb-rotation": (
        ROTATION, ("perturb", "--samples", "5"),
        "0daee3df2e91886c5125066ba8fdafc496731704bc126a78da813513aaa147d5"),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_pinned(capsys, tmp_path, name):
    matrix, argv, digest = REPORTS[name]
    path = write_fixture(tmp_path, "m.json", matrix)
    result = run(capsys, argv[0], path, *argv[1:])
    blob = json.dumps(result).encode()
    assert hashlib.sha256(blob).hexdigest() == digest, result


# SHA-256 of the stdout of `hypflow verify`, as the per-suite loops wrote it
# with numpy 2.4 and OpenBLAS 0.3 on x86-64, whose DYNAMIC_ARCH build picked
# its SkylakeX kernels: running every suite through one loop must not move a
# byte. Other OpenBLAS kernels round differently in the last bits (ROADMAP.md
# item 2, tier-1 independent of the OpenBLAS kernel; tests/blas_kernels.py).
VERIFY = {
    "openness": (
        ("openness",),
        "ec1ab5e2f679ff448553e5505f4d1c88cdbf0772e61c1e9b8acb9ca7e5df59ee"),
    "density": (
        ("density",),
        "cac0023bd1ea25434a48e437974fcbff7aa99c7a37bbb3a38c1763ebd5c2d853"),
    "vieta": (
        ("vieta",),
        "814be16f47619e9bbda12486dc10a496d30d71d98c48b9b9a31fa1900a959c12"),
    "oracle": (
        ("oracle",),
        "ca2c09328390af6a329b55caa1aa81839dc791d5550c999b133ce4bc5543a395"),
    "openness-seed-3": (
        ("openness", "--seed", "3", "--samples", "300"),
        "cb444bf6c52ee933e747b8cbfd968f9d747ac4df788e6b48714897a0ec6d5810"),
}


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_bytes_pinned(capsys, name):
    argv, digest = VERIFY[name]
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_parser_built_once(capsys, saddle, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "classify", saddle)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def test_every_exit_code_reachable(capsys, saddle, rotation, tmp_path):
    codes = set()
    codes.add(run(capsys, "classify", saddle)[0])
    codes.add(run(capsys, "classify", rotation)[0])
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    codes.add(run(capsys, "classify", str(bad))[0])
    edge = write_fixture(tmp_path, "edge.json", np.diag([0.1 + 5e-16, 1.0]))
    codes.add(run(capsys, "classify", edge, "--tol", "0.1")[0])
    assert codes == {0, 1, 2, 3}
