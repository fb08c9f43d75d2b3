import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from periodlab import errors
from periodlab.cli import main, parse_complex
from periodlab.errors import NumericalError, ValidationError

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("1.5", 1.5),
        ("-2", -2.0),
        ("i", 1j),
        ("-i", -1j),
        ("2i", 2j),
        ("2j", 2j),
        ("0.3+1.1i", 0.3 + 1.1j),
        ("3-j", 3 - 1j),
        ("1e-3", 1e-3),
    ])
    def test_accepted_forms(self, text, value):
        assert parse_complex(text) == value

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_complex("four")


class TestParseErrors:
    @pytest.mark.parametrize("text", ["abc", "inf"])
    def test_unparsable_complex_exits_2(self, capsys, text):
        code, out, err = run(capsys, "periods", "--t2", text, "--t3", "0")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"


class TestPeriods:
    def test_anchor_point(self, capsys):
        doc = run_json(capsys, "periods", "--t2", "4", "--t3", "0")
        assert doc["matrix"][0][0][0] == pytest.approx(
            float(oracles.LEMNISCATE), abs=1e-10)
        assert doc["matrix"][0][0][1] == pytest.approx(0.0, abs=1e-10)
        assert doc["diagnostics"]["det_deviation"] <= 1e-8
        assert doc["diagnostics"]["sigma"] == -1
        assert doc["det"][1] == pytest.approx(-2 * math.pi, abs=1e-8)

    def test_tau_subcommand(self, capsys):
        doc = run_json(capsys, "tau", "--t2", "4", "--t3", "0")
        assert doc["tau"][0] == pytest.approx(0.0, abs=1e-8)
        assert doc["tau"][1] == pytest.approx(1.0, abs=1e-8)

    def test_output_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "periods", "--t2", "1+2i", "--t3", "-0.4")
        _, out2, _ = run(capsys, "periods", "--t2", "1+2i", "--t3", "-0.4")
        assert out1 == out2

    def test_singular_point_exits_3(self, capsys):
        code, out, err = run(capsys, "periods", "--t2", "3", "--t3", "1")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "NearDiscriminant"

    def test_path_through_a_root_exits_3(self, capsys):
        # the default path to this regular point returns through a
        # discriminant root, so the basis cannot be continued to it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "periods", "--t2", "4", "--t3", "1.539")
        assert code == 3
        assert out == ""
        assert issubclass(getattr(errors, json.loads(err)["error"]), NumericalError)


class TestTolerancePlumbing:
    def test_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("PERIODLAB_TOL", "1e-6")
        doc = run_json(capsys, "tau", "--t2", "4", "--t3", "0")
        assert doc["inputs"]["tol"] == 1e-6

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PERIODLAB_TOL", "1e-4")
        doc = run_json(capsys, "--tol", "1e-9", "tau", "--t2", "4", "--t3", "0")
        assert doc["inputs"]["tol"] == 1e-9

    def test_bad_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PERIODLAB_TOL", "soon")
        code, _, err = run(capsys, "tau", "--t2", "4", "--t3", "0")
        assert code == 2
        assert "PERIODLAB_TOL" in json.loads(err)["message"]


class TestModularCommands:
    def test_j_at_i(self, capsys):
        doc = run_json(capsys, "j", "--tau", "i")
        assert doc["value_normalized"][0] == pytest.approx(1.0, abs=1e-10)
        assert doc["value_1728"][0] == pytest.approx(1728.0, abs=1e-6)

    def test_j_qexp(self, capsys):
        doc = run_json(capsys, "j-qexp", "--terms", "6")
        assert doc["low"] == -1
        assert doc["coefficients"] == list(oracles.J_QCOEFFS)

    def test_eisenstein_cross_method(self, capsys):
        doc = run_json(capsys, "eisenstein", "--k", "4", "--tau", "2i")
        assert doc["value"][0] == pytest.approx(float(oracles.E4_2I), abs=1e-9)
        assert doc["diagnostics"]["cross_method_deviation"] <= 1e-9

    def test_eisenstein_from_generators(self, capsys):
        doc = run_json(capsys, "eisenstein", "--k", "4",
                       "--omega1", "2i", "--omega2", "1")
        assert doc["value"][0] == pytest.approx(float(oracles.E4_2I), abs=1e-9)

    def test_eisenstein_needs_a_lattice(self, capsys):
        code, _, _ = run(capsys, "eisenstein", "--k", "4")
        assert code == 2

    def test_large_weight(self, capsys):
        doc = run_json(capsys, "eisenstein", "--k", "200", "--tau", "i")
        assert doc["value"][0] == pytest.approx(4.0, rel=1e-12)
        assert doc["diagnostics"]["cross_method_deviation"] < 1e-10

    def test_beyond_float_range_exits_3(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eisenstein", "--k", "200",
                                 "--omega1", "0.01i", "--omega2", "0.01")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "NumericalError"

    def test_odd_weight_exits_2(self, capsys):
        code, _, err = run(capsys, "eisenstein", "--k", "5", "--tau", "2i")
        assert code == 2
        assert json.loads(err)["error"] == "UnsupportedType"

    def test_real_tau_exits_2(self, capsys):
        code, _, _ = run(capsys, "j", "--tau", "0.5")
        assert code == 2


class TestMonodromy:
    def test_unipotent_loop(self, capsys):
        doc = run_json(capsys, "monodromy", "--t2", "4",
                       "--center", "1.539600717839002", "--radius", "0.6")
        assert doc["matrix"] == [[int(v) for v in row] for row in oracles.M_LOOP]
        assert doc["trace"] == 2
        assert doc["diagnostics"]["integer_deviation"] <= 1e-4

    @pytest.mark.parametrize("center,radius", [("nan", "1"), ("0", "inf")])
    def test_non_finite_loop_exits_2(self, capsys, center, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "monodromy", "--t2", "4",
                                 "--center", center, "--radius", radius)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"


class TestTransport:
    def test_waypoint_file(self, capsys, tmp_path):
        f = tmp_path / "path.json"
        f.write_text(json.dumps([[[4, 0], [0, 0]], [[4, 0], [1, 0]]]))
        doc = run_json(capsys, "pf-transport", "--path-file", str(f))
        assert doc["inputs"]["waypoints"] == 2
        assert doc["diagnostics"]["max_entry_deviation_vs_quadrature"] <= 1e-6
        assert doc["diagnostics"]["det_drift"] <= 1e-9

    def test_loop_shorthand(self, capsys, tmp_path):
        f = tmp_path / "loop.json"
        f.write_text(json.dumps({"loop": {
            "t2": [4, 0], "center": [1.539600717839002, 0], "radius": 0.6}}))
        doc = run_json(capsys, "pf-transport", "--path-file", str(f))
        assert doc["inputs"]["waypoints"] == 65
        assert doc["diagnostics"]["det_drift"] <= 1e-9
        # the loop circles a discriminant zero, so the transported frame
        # returns changed by the monodromy, not to the quadrature frame
        assert doc["diagnostics"]["max_entry_deviation_vs_quadrature"] > 0.5

    def test_bad_file_shape_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"points": []}))
        code, _, _ = run(capsys, "pf-transport", "--path-file", str(f))
        assert code == 2

    @pytest.mark.parametrize("content", [
        {"loop": {"t2": 4, "center": 1.5}},
        {"loop": {"t2": 4, "center": 1.5, "radius": "wide"}},
        {"loop": {"t2": 4, "center": 1.5, "radius": 0.6, "turns": "nan"}},
        {"loop": {"t2": 4, "center": 1.5, "radius": 0.6, "turns": 1.5}},
        [[4], [5]],
        [4, 5],
        [[4, 0, 1], [4, 1, 2]],
    ], ids=["no-radius", "radius-text", "turns-text", "turns-fraction",
            "one-coordinate", "bare-numbers", "three-coordinates"])
    def test_malformed_path_file_exits_2(self, capsys, tmp_path, content):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(content))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "pf-transport", "--path-file", str(f))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"

    @pytest.mark.parametrize("command,flag", [("pf-transport", "--path-file"),
                                              ("hodge-check", "--point-file")])
    @pytest.mark.parametrize("content", [None, "not json"], ids=["missing", "not-json"])
    def test_unreadable_file_exits_2(self, capsys, tmp_path, command, flag, content):
        f = tmp_path / "input.json"
        if content is not None:
            f.write_text(content)
        code, out, err = run(capsys, command, flag, str(f))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"


class TestHodgeCheck:
    def test_elliptic_point_passes(self, capsys, tmp_path):
        f = tmp_path / "point.json"
        f.write_text(json.dumps({"tau": [0.3, 1.1]}))
        doc = run_json(capsys, "hodge-check", "--point-file", str(f))
        assert doc["first_relation"] and doc["second_relation"]
        assert doc["passed"]
        assert doc["diagnostics"]["real_structure_passed"]
        assert doc["diagnostics"]["min_positivity"] > 0

    def test_conjugate_point_fails_positivity(self, capsys, tmp_path):
        f = tmp_path / "point.json"
        f.write_text(json.dumps({"tau": [0.3, -1.1]}))
        doc = run_json(capsys, "hodge-check", "--point-file", str(f))
        assert doc["first_relation"]
        assert not doc["second_relation"]
        assert not doc["passed"]
        assert doc["diagnostics"]["min_positivity"] < 0

    def test_explicit_levels(self, capsys, tmp_path):
        v = [[[0, 0]], [[0, 0]], [[1, 0]], [[0, 1]]]
        f1 = [[[0, 0], [1, 0], [0, 0]],
              [[0, 0], [0, 0], [1, 0]],
              [[1, 0], [0, 0], [0, 0]],
              [[0, 1], [0, 0], [0, 0]]]
        f = tmp_path / "k3ish.json"
        f.write_text(json.dumps({
            "m": 2, "h": [1, 2, 1],
            "psi": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            "levels": [f1, v]}))
        doc = run_json(capsys, "hodge-check", "--point-file", str(f))
        assert doc["inputs"]["weight"] == 2
        assert doc["passed"]

    def test_missing_fields_exit_2(self, capsys, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"m": 2}))
        code, _, _ = run(capsys, "hodge-check", "--point-file", str(f))
        assert code == 2

    @pytest.mark.parametrize("content", [5, ["tau"]], ids=["number", "list"])
    def test_point_file_not_an_object_exits_2(self, capsys, tmp_path, content):
        f = tmp_path / "point.json"
        f.write_text(json.dumps(content))
        code, _, err = run(capsys, "hodge-check", "--point-file", str(f))
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"


class TestDomainCommands:
    def test_siegel(self, capsys):
        doc = run_json(capsys, "domain-dims", "--weight", "1",
                       "--hodge-numbers", "2,2")
        assert doc["dim_D"] == 3
        assert doc["hermitian_case"] == "Case1"

    def test_weight_two(self, capsys):
        doc = run_json(capsys, "domain-dims", "--weight", "2",
                       "--hodge-numbers", "1,3,1")
        assert doc["dim_D"] == 3
        assert doc["dim_horizontal"] == 3
        assert doc["hermitian_case"] == "Case2"

    def test_weight_three(self, capsys):
        doc = run_json(capsys, "domain-dims", "--weight", "3",
                       "--hodge-numbers", "1,1,1,1")
        assert doc["lie_dims"] == [6, 8, 9, 10]
        assert doc["dim_D"] == 4
        assert doc["dim_horizontal"] == 2
        assert doc["hermitian_case"] == "No"

    def test_unsupported_shape_exits_2(self, capsys):
        code, _, err = run(capsys, "domain-dims", "--weight", "2",
                           "--hodge-numbers", "2,1,2")
        assert code == 2
        assert json.loads(err)["error"] == "UnsupportedType"

    def test_ks_count(self, capsys):
        doc = run_json(capsys, "ks-count", "--n", "2", "--d", "4")
        assert doc["m"] == 19


class TestPoincareCommand:
    def test_det_functional(self, capsys):
        doc = run_json(capsys, "poincare", "--functional", "det",
                       "--t2", "4", "--t3", "0", "--height", "5")
        assert doc["converged"]
        assert doc["value"][0] == pytest.approx(0.0, abs=1e-8)
        assert doc["value"][1] == pytest.approx(-2 * math.pi, abs=1e-8)

    def test_x11_functional_ratio(self, capsys):
        doc = run_json(capsys, "poincare", "--functional", "x11^-4",
                       "--t2", "4", "--t3", "1", "--height", "60")
        ratio = complex(*doc["diagnostics"]["eisenstein_ratio"])
        c = 45 / math.pi ** 4  # 1 / (2 zeta(4))
        assert abs(ratio - c) <= 1e-3 * c
        assert doc["diagnostics"]["shells"] == 60

    def test_zero_height_exits_2(self, capsys):
        code, out, err = run(capsys, "poincare", "--functional", "x11^-4",
                             "--height", "0")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"


class TestKhodaya:
    def test_four_coefficient_point(self, capsys):
        doc = run_json(capsys, "khodaya", "--t0", "2", "--t1", "1",
                       "--t2", "4", "--t3", "0")
        got = np.array([[complex(*v) for v in row] for row in doc["matrix"]])
        assert np.max(np.abs(got - oracles.K2140)) <= 1e-8
        assert doc["diagnostics"]["det_deviation"] <= 1e-8
        assert doc["reduced"]["scale"][0] == pytest.approx(2 ** (-1 / 3), rel=1e-12)

    def test_zero_leading_coefficient_exits_2(self, capsys):
        code, _, _ = run(capsys, "khodaya", "--t0", "0", "--t1", "1",
                         "--t2", "4", "--t3", "0")
        assert code == 2


class TestSweepAndOutput:
    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "--sweep", "t3=0:0.5:3",
                           "periods", "--t2", "4", "--t3", "0")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert "matrix.0.0.0" in rows[0]
        assert "diagnostics.det_deviation" in rows[0]
        devs = [float(r["diagnostics.det_deviation"]) for r in rows]
        assert max(devs) <= 1e-8

    def test_sweep_bad_grammar_exits_2(self, capsys):
        code, _, _ = run(capsys, "--sweep", "t3=zero:one", "periods",
                         "--t2", "4", "--t3", "0")
        assert code == 2

    def test_sweep_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "--sweep", "bogus=0:1:3", "periods",
                         "--t2", "4", "--t3", "0")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "--output", str(target), "j", "--tau", "i")
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "j"
