import hashlib
import io
import json

import numpy as np
import pytest

from hypflow import cli, flow, inertia


def write_fixture(tmp_path, name, matrix):
    path = tmp_path / name
    cli.write_matrix(str(path), np.asarray(matrix, dtype=float))
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

    def test_zero_samples_usage_error(self, capsys, saddle):
        code, _, err = run(capsys, "perturb", saddle, "--samples", "0")
        assert code == 1
        assert "samples" in err

    def test_non_hyperbolic_exit_2(self, capsys, rotation):
        code, _, err = run(capsys, "perturb", rotation, "--samples", "5",
                           "--radius", "0.1")
        assert code == 2

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
# and OpenBLAS 0.3 on x86-64: stacking the exponentials and the start points
# must not move a byte.
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
