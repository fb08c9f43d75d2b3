import argparse
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from periodlab import elliptic, gaussmanin
from periodlab.cli import MAX_QEXP_TERMS, build_parser, main, parse_complex
from periodlab.domain import base_point, standard_type
from periodlab.errors import ValidationError

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

    def test_root_past_the_path_end(self, capsys):
        # Delta along the segment to this point vanishes at s = 1.0004, just
        # past its end; the path ends straight, and the matrix is the limit
        # from either side of the real axis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = run_json(capsys, "periods", "--t2", "4", "--t3", "1.539")
        got = np.array([[complex(*v) for v in row] for row in doc["matrix"]])
        for eps in (1e-9j, -1e-9j):
            near = elliptic.period_matrix((4.0, 1.539 + eps)).entries
            assert np.max(np.abs(got - near)) < 1e-5

    def test_path_through_a_root_exits_3(self, capsys):
        # the default path to this regular point passes 5e-15 from a real
        # discriminant root, so the basis cannot be continued to it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "periods", "--t2", "-1.0759533566522181",
                                 "--t3", "-0.06976981268257454")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "NearDiscriminant"


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

    def test_bad_env_rejected_by_j(self, capsys, monkeypatch):
        # j reads no tolerance, but main resolves it for every subcommand
        monkeypatch.setenv("PERIODLAB_TOL", "soon")
        code, out, err = run(capsys, "j", "--tau", "i")
        assert (code, out) == (2, "")
        assert "PERIODLAB_TOL" in json.loads(err)["message"]

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_flag_must_be_positive_and_finite(self, capsys, tmp_path, tol):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"tau": [0.3, 1.1]}))
        code, out, err = run(capsys, f"--tol={tol}", "hodge-check", "--point-file", str(point))
        assert (code, out) == (2, "")
        assert "--tol must be positive and finite" in json.loads(err)["message"]

    @pytest.mark.parametrize("tol", ["-1e-6", "0", "nan", "inf"])
    def test_env_must_be_positive_and_finite(self, capsys, monkeypatch, tol):
        monkeypatch.setenv("PERIODLAB_TOL", tol)
        code, out, err = run(capsys, "tau", "--t2", "4", "--t3", "0")
        assert (code, out) == (2, "")
        assert "PERIODLAB_TOL must be positive and finite" in json.loads(err)["message"]

    def test_swept_tol_is_checked(self, capsys, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"tau": [0.3, 1.1]}))
        code, out, err = run(capsys, "--sweep", "tol=-1:1:3", "hodge-check",
                             "--point-file", str(point))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValidationError"


# one successful call of every subcommand; {point} and {path} name files
ENVELOPE_ARGV = {
    "periods": ["--t2", "4", "--t3", "0"],
    "tau": ["--t2", "4", "--t3", "0"],
    "pf-transport": ["--path-file", "{path}"],
    "monodromy": ["--t2", "4", "--center", "1.539600717839002", "--radius", "0.6"],
    "eisenstein": ["--k", "4", "--tau", "i"],
    "j": ["--tau", "i"],
    "j-qexp": ["--terms", "3"],
    "hodge-check": ["--point-file", "{point}"],
    "domain-dims": ["--weight", "1", "--hodge-numbers", "1,1"],
    "ks-count": ["--n", "2", "--d", "4"],
    "poincare": ["--functional", "det", "--height", "2"],
    "khodaya": ["--t0", "2", "--t1", "1", "--t2", "4", "--t3", "0"],
}


class TestEnvelope:
    def test_every_subcommand_is_listed(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(ENVELOPE_ARGV)

    @pytest.mark.parametrize("command", sorted(ENVELOPE_ARGV))
    def test_success_names_its_command(self, capsys, tmp_path, command):
        point, path = tmp_path / "point.json", tmp_path / "path.json"
        point.write_text(json.dumps({"tau": [0.3, 1.1]}))
        path.write_text(json.dumps([[[4, 0], [0, 0]], [[4, 0], [1, 0]]]))
        argv = [a.format(point=point, path=path) for a in ENVELOPE_ARGV[command]]
        assert run_json(capsys, command, *argv)["command"] == command

    @pytest.mark.parametrize("argv,code", [
        (["j", "--tau", "0.5"], 2),
        (["periods", "--t2", "3", "--t3", "1"], 3),
    ], ids=["exit2", "exit3"])
    def test_error_is_error_and_message_only(self, capsys, argv, code):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert set(json.loads(err)) == {"error", "message"}


class TestModularCommands:
    def test_j_at_i(self, capsys):
        doc = run_json(capsys, "j", "--tau", "i")
        assert doc["value_normalized"][0] == pytest.approx(1.0, abs=1e-10)
        assert doc["value_1728"][0] == pytest.approx(1728.0, abs=1e-6)

    def test_j_qexp(self, capsys):
        doc = run_json(capsys, "j-qexp", "--terms", "6")
        assert doc["low"] == -1
        assert doc["coefficients"] == list(oracles.J_QCOEFFS)

    def test_j_qexp_terms_bounded(self, capsys):
        code, _, err = run(capsys, "j-qexp", "--terms", str(MAX_QEXP_TERMS + 1))
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"

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

    def test_weight_past_the_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "eisenstein", "--k", "1002", "--tau", "i")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValidationError"

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

    @pytest.mark.parametrize("turns", ["1001", "-1000000"])
    def test_turns_past_the_cap_exit_2(self, capsys, turns):
        code, out, err = run(capsys, "monodromy", "--t2", "4", "--center", "1.5",
                             "--radius", "0.6", "--turns", turns)
        assert code == 2
        assert out == ""
        assert "<= 1000" in json.loads(err)["message"]

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

    def test_segment_through_the_discriminant_exits_2(self, capsys, tmp_path, monkeypatch):
        # Delta = 64 - 27 t3^2 vanishes at t3 = 1.5396 on this segment
        def forbidden(*args, **kwargs):
            raise AssertionError("no transport on an uncertified path")

        monkeypatch.setattr(gaussmanin, "transport", forbidden)
        f = tmp_path / "path.json"
        f.write_text(json.dumps([[[4, 0], [0, 0]], [[4, 0], [2, 0]]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "pf-transport", "--path-file", str(f))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ClearanceViolation"

    def test_repeated_singular_point_exits_2(self, capsys, tmp_path):
        # Delta(3, 1) = 0: a path that never moves is checked at its point
        f = tmp_path / "path.json"
        f.write_text(json.dumps([[[3, 0], [1, 0]], [[3, 0], [1, 0]]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "pf-transport", "--path-file", str(f))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ClearanceViolation"

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
        {"loop": {"t2": 4, "center": 1.5, "radius": 0.6, "turns": True}},
        {"loop": {"t2": 4, "center": 1.5, "radius": 0.6, "turns": 1000000}},
        [[4], [5]],
        [4, 5],
        [[4, 0, 1], [4, 1, 2]],
    ], ids=["no-radius", "radius-text", "turns-text", "turns-fraction", "turns-bool",
            "turns-past-the-cap", "one-coordinate", "bare-numbers", "three-coordinates"])
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

    def test_weight_two_base_point_passes_prop_one(self, capsys, tmp_path):
        # psi = diag(1, -1, -1), F^2 = e2 + i e3: polarized, so Prop. 1 holds too
        filt = base_point(standard_type(2, (1, 1, 1)))
        levels = [[[[v.real, v.imag] for v in row] for row in level.tolist()]
                  for level in filt.levels[1:]]
        f = tmp_path / "point.json"
        f.write_text(json.dumps({"m": 2, "h": [1, 1, 1], "psi": filt.phi.psi.tolist(),
                                 "levels": levels}))
        doc = run_json(capsys, "hodge-check", "--point-file", str(f))
        assert doc["passed"]
        assert doc["diagnostics"]["real_structure_passed"] is True

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

    @pytest.mark.parametrize("field,value", [
        ("psi", [[0, 1.5], [-1.5, 0]]), ("psi", [[0, "1"], [-1, 0]]),
        ("psi", [[0, None], [-1, 0]]), ("h", [1.5, 1.5]), ("h", ["1", 1]), ("m", 1.5),
        ("m", "x")], ids=["half-psi", "str-psi", "none-psi", "half-h", "str-h", "half-m",
                          "str-m"])
    def test_non_integer_type_exits_2(self, capsys, tmp_path, field, value):
        point = {"m": 1, "h": [1, 1], "psi": [[0, 1], [-1, 0]],
                 "levels": [[[[0.3, 1.1]], [[1, 0]]]]}
        f = tmp_path / "point.json"
        f.write_text(json.dumps(point))
        assert run(capsys, "hodge-check", "--point-file", str(f))[0] == 0
        point[field] = value
        f.write_text(json.dumps(point))
        code, _, err = run(capsys, "hodge-check", "--point-file", str(f))
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"

    def test_ragged_levels_exit_2(self, capsys, tmp_path):
        f = tmp_path / "point.json"
        f.write_text(json.dumps({"m": 1, "h": [1, 1], "psi": [[0, 1], [-1, 0]],
                                 "levels": [[[1], [2, 3]]]}))
        code, out, err = run(capsys, "hodge-check", "--point-file", str(f))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"

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

    def test_mu_past_the_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "domain-dims", "--weight", "2",
                             "--hodge-numbers", "1,1000,1")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValidationError" and "<= 48" in doc["message"]

    @pytest.mark.parametrize("numbers", ["1,x", "1.5,1.5", "1,"])
    def test_non_integer_hodge_numbers_exit_2(self, capsys, numbers):
        code, out, err = run(capsys, "domain-dims", "--weight", "1",
                             "--hodge-numbers", numbers)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"

    def test_ks_count(self, capsys):
        doc = run_json(capsys, "ks-count", "--n", "2", "--d", "4")
        assert doc["m"] == 19

    def test_ks_count_past_the_size_bound_exits_2(self, capsys):
        # binomial(20001, 10000) has more digits than json.dumps writes
        code, out, err = run(capsys, "ks-count", "--n", "10000", "--d", "10000")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValidationError"


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
        assert [r["command"] for r in rows] == ["periods"] * 3
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

    def test_sweep_over_the_handler_exits_2(self, capsys):
        code, _, err = run(capsys, "--sweep", "handler=0:1:2", "j", "--tau", "i")
        assert code == 2
        assert "handler" in json.loads(err)["message"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "--output", str(target), "j", "--tau", "i")
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "j"
