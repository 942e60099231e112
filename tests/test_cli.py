"""Command-line surface: exit codes, JSON/CSV output, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import holevo2q
from holevo2q import cli
from holevo2q.cli import _in_cell, main
from holevo2q.errors import DegenerateModelError, DomainError
from holevo2q.models import GenericZ

SRC_DIR = str(Path(holevo2q.__file__).resolve().parents[1])


@pytest.fixture
def generic_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "generic_z", "theta0": 0.2}))
    return str(path)


@pytest.fixture
def planar_model(tmp_path):
    path = tmp_path / "planar.json"
    path.write_text(
        json.dumps({"kind": "planar", "u1": [1, 0, 0], "u2": [0, 1, 0]})
    )
    return str(path)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def checkout_env():
    """The environment, with this checkout's holevo2q first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return env


def run_python(*args, cwd=None):
    """Run a fresh interpreter that imports this checkout's holevo2q."""
    return subprocess.run(
        [sys.executable, *args], env=checkout_env(), cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# holevo2q") and "schema v1" in lines[0]
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


class TestBoundsCommand:
    def test_reference_point(self, generic_model):
        t = 0.346 / np.sqrt(2.0)
        code, out, _ = run_cli(
            "bounds", "--model", generic_model, "--theta", f"{t},{t}", "--weight", "1,0,1"
        )
        assert code == 0
        record = json.loads(out)
        assert record["gamma1"] == pytest.approx(0.292, abs=1e-3)
        assert record["gamma2"] == pytest.approx(0.292, abs=1e-3)
        assert record["branch"] in ("rld", "correction", "boundary")

    def test_planar_values(self, planar_model):
        code, out, _ = run_cli(
            "bounds", "--model", planar_model, "--theta", "0.6,0", "--weight", "1,0,1"
        )
        assert code == 0
        record = json.loads(out)
        assert record["c_h"] == pytest.approx(1.64, rel=1e-10)
        assert record["c_s"] == pytest.approx(1.64, rel=1e-10)
        assert record["c_n"] == pytest.approx(3.24, rel=1e-10)
        assert record["asymptotically_classical"] is True

    def test_pure_point_rejected(self, generic_model):
        code, _, err = run_cli(
            "bounds", "--model", generic_model, "--theta", "0.9,0.5", "--weight", "1,0,1"
        )
        assert code == 2
        assert "PureStateError" in err

    def test_bad_weight_rejected(self, generic_model):
        code, _, err = run_cli(
            "bounds", "--model", generic_model, "--theta", "0.1,0.1", "--weight", "1,2,1"
        )
        assert code == 2
        assert "DomainError" in err


class TestSweepWeight:
    def test_deterministic_and_consistent(self, generic_model, tmp_path):
        t = 0.346 / np.sqrt(2.0)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(
                "sweep-weight",
                "--model", generic_model,
                "--theta", f"{t},{t}",
                "--grid", "21",
                "--out", str(out),
            )
            assert code == 0
        assert out1.read_text() == out2.read_text()  # repeat runs agree byte for byte
        rows = read_csv(str(out1))
        assert len(rows) == 21 * 21
        branches = {r["branch"] for r in rows}
        assert "rld" in branches and "correction" in branches
        for r in rows:
            b = float(r["b_theta"])
            if r["branch"] == "rld":
                assert b > 0
            elif r["branch"] == "correction":
                assert b < 0

    def test_output_unchanged_under_optimize_flag(self, generic_model, tmp_path):
        t = 0.346 / np.sqrt(2.0)
        texts = []
        for flags in ([], ["-O"]):
            out = tmp_path / f"sweep{len(flags)}.csv"
            proc = run_python(
                *flags, "-m", "holevo2q.cli", "sweep-weight",
                "--model", generic_model, "--theta", f"{t},{t}",
                "--grid", "21", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_boundary_family_sweep(self, generic_model, tmp_path):
        t = 0.346 / np.sqrt(2.0)
        out = tmp_path / "fam42.csv"
        code, _, _ = run_cli(
            "sweep-weight",
            "--model", generic_model,
            "--theta", f"{t},{t}",
            "--grid", "15",
            "--weight-family", "42",
            "--w-max", "0.9",
            "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out))
        assert len(rows) == 15 * 15
        # Region must correlate with w^2 + w2^2 vs 1.
        for r in rows:
            radius_sq = float(r["w"]) ** 2 + float(r["w2"]) ** 2
            if abs(radius_sq - 1.0) < 1e-2:
                continue
            expected = "rld" if radius_sq < 1.0 else "correction"
            assert r["branch"] == expected

    def test_overflowing_bound_is_invalid_input(self, tmp_path):
        # Derivatives of size 1e-80: C^N overflows; no row is written.
        path = tmp_path / "tiny.json"
        components = [[[0.1, 0.0], [1e-80, 0.0]], [[0.2, 1e-80], [0.0, 0.0]], [[0.3]]]
        path.write_text(json.dumps({"kind": "explicit", "components": components}))
        out = tmp_path / "tiny.csv"
        argv = ["sweep-weight", "--model", str(path), "--theta", "0.1,0.1", "--grid", "3"]
        for extra in ([], ["--out", str(out)]):
            code, stdout, err = run_cli(*argv, *extra)
            assert (code, stdout) == (2, "")
            assert err.startswith("DomainError: c_n is not finite (inf) at w=-0.98"), err
        assert not out.exists()


class TestSweepTheta:
    def test_fixed_weight_regions(self, generic_model, tmp_path):
        out = tmp_path / "theta.csv"
        code, _, _ = run_cli(
            "sweep-theta",
            "--model", generic_model,
            "--weight", "0.55,0,0.45",
            "--grid", "31",
            "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out))
        assert rows, "sweep produced no in-domain rows"
        branches = {r["branch"] for r in rows}
        assert "rld" in branches and "correction" in branches
        origin = min(
            rows, key=lambda r: float(r["theta1"]) ** 2 + float(r["theta2"]) ** 2
        )
        assert float(origin["gamma1"]) == pytest.approx(
            float(origin["theta1"]) / (1 - 0.2**2 - float(origin["theta1"]) ** 2
                                       - float(origin["theta2"]) ** 2), rel=1e-6
        )

    def test_planar_single_branch(self, planar_model, tmp_path):
        out = tmp_path / "planar.csv"
        code, _, _ = run_cli(
            "sweep-theta",
            "--model", planar_model,
            "--weight", "1,0,1",
            "--grid", "15",
            "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out))
        assert {r["branch"] for r in rows} <= {"correction", "boundary"}

    def test_d_invariant_model_single_branch(self, tmp_path):
        model = tmp_path / "unitary.json"
        model.write_text(json.dumps({"kind": "unitary", "radius": 0.7}))
        out = tmp_path / "unitary-sweep.csv"
        code, _, _ = run_cli(
            "sweep-weight",
            "--model", str(model),
            "--theta", "1.0,2.0",
            "--grid", "15",
            "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out))
        assert {r["branch"] for r in rows} <= {"rld", "boundary"}
        assert all(r["d_invariant"] == "1" for r in rows)

    def test_origin_cell_flagged_d_invariant(self, generic_model, tmp_path):
        out = tmp_path / "origin.csv"
        code, _, _ = run_cli(
            "sweep-theta",
            "--model", generic_model,
            "--weight", "1,0,1",
            "--grid", "31",  # odd count: the grid contains theta = (0, 0)
            "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out))
        origin_rows = [
            r for r in rows
            if float(r["theta1"]) == 0.0 and float(r["theta2"]) == 0.0
        ]
        assert origin_rows and all(r["d_invariant"] == "1" for r in origin_rows)
        off_axis = [r for r in rows if float(r["theta1"]) != 0.0]
        assert all(r["d_invariant"] == "0" for r in off_axis)

    @pytest.mark.parametrize("shrink", ["1.0", "0.75", "0.5", "-0.3", "nan"])
    def test_shrink_outside_half_interval_rejected(self, generic_model, shrink):
        # 1.0 and 0.75 would sweep reversed axes, -0.3 cells beyond the
        # domain, and nan a header-only CSV.
        code, out, err = run_cli(
            "sweep-theta", "--model", generic_model, "--weight", "1,0,1",
            "--grid", "5", "--shrink", shrink,
        )
        assert (code, out) == (2, "")
        assert err.startswith("ModelError:") and "--shrink" in err

    def test_overflowing_weight_is_invalid_input(self, tmp_path):
        # det W overflows at this scale, as for `bounds`; no row is written.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "generic_z", "theta0": 0.23}))
        out = tmp_path / "theta.csv"
        argv = ["sweep-theta", "--model", str(path), "--weight", "1e160,0,1e160", "--grid", "3"]
        for extra in ([], ["--out", str(out)]):
            code, stdout, err = run_cli(*argv, *extra)
            assert (code, stdout) == (2, "")
            assert err == "DomainError: c_r is not finite (inf) at theta1=0, theta2=0\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_derivatives_name_their_cell(self, tmp_path):
        # s1 = 1e200 theta1 theta2^2: the cells off both axes leave the ball and
        # are skipped; of the five kept, d1s overflows at the second, (0, -0.7).
        path = tmp_path / "model.json"
        components = [[[0, 0, 0], [0, 0, 1e200]], [[0.1], [0.3]], [[0, 0.3]]]
        path.write_text(json.dumps({"kind": "explicit", "components": components}))
        code, stdout, err = run_cli("sweep-theta", "--model", str(path), "--weight", "1,0,1",
                                    "--grid", "3")
        assert (code, stdout) == (2, "")
        assert err == ("DomainError: derivatives overflow in floats "
                       "at theta1=0, theta2=-0.69999999999999996\n")

    def test_no_usable_grid_point_invalid(self, tmp_path):
        # Every cell of the domain lies outside the Bloch ball.
        path = tmp_path / "outside.json"
        domain = {"theta1": [0.9, 0.95], "theta2": [0.9, 0.95]}
        path.write_text(json.dumps({"kind": "generic_z", "theta0": 0.5, "domain": domain}))
        out = tmp_path / "theta.csv"
        code, stdout, err = run_cli(
            "sweep-theta", "--model", str(path), "--weight", "1,0,1", "--grid", "5",
            "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == "ModelError: no point of the 5x5 grid gives a valid model point\n"
        assert not out.exists()


class TestClassifyCommand:
    def test_point_and_family(self, generic_model):
        code, out, _ = run_cli(
            "classify", "--model", generic_model, "--theta", "0.2,0.3", "--grid", "5"
        )
        assert code == 0
        data = json.loads(out)
        assert data["point"]["label"] == "generic"
        assert data["family"]["globally_d_invariant"] is False

    def test_unitary_family_global(self, tmp_path):
        path = tmp_path / "unitary.json"
        path.write_text(json.dumps({"kind": "unitary", "radius": 0.7}))
        code, out, _ = run_cli("classify", "--model", str(path), "--grid", "4")
        assert code == 0
        data = json.loads(out)
        assert data["family"]["globally_d_invariant"] is True

    @pytest.mark.parametrize("grid", ["2", "3"])
    def test_family_verdict_is_every_cells_flag(self, generic_model, grid):
        # At --grid 2 the four cells of generic_z lie symmetric about theta = 0,
        # so |s| is equal on them, yet none of them is D-invariant; at --grid 3
        # only the centre cell is.
        code, out, err = run_cli("classify", "--model", generic_model, "--grid", grid)
        assert (code, err) == (0, "")
        family = json.loads(out)["family"]
        assert family["grid_points"] == int(grid) ** 2
        assert family["globally_d_invariant"] is (family["labels_present"] == ["d_invariant"])
        assert family["globally_d_invariant"] is False

    @pytest.mark.parametrize("grid", ["1", "-1"])
    def test_grid_of_one_cell_or_negative_invalid(self, generic_model, grid):
        # One cell decides no family verdict: at --grid 1 it is the domain centre.
        result = run_cli("classify", "--model", generic_model, "--grid", grid)
        assert result == (2, "", "ModelError: --grid must be 0 or at least 2\n")

    def test_negative_grid_invalid(self, generic_model):
        code, out, err = run_cli("classify", "--model", generic_model, "--grid", "-1")
        assert code == 2
        assert out == ""
        assert "ModelError" in err and "--grid" in err

    def test_no_usable_grid_point_invalid(self, tmp_path):
        # s = (0, 0, 2) everywhere: every grid point lies outside the Bloch ball.
        path = tmp_path / "outside.json"
        path.write_text(
            json.dumps({"kind": "explicit", "components": [[[0.0]], [[0.0]], [[2.0]]]})
        )
        code, out, err = run_cli("classify", "--model", str(path), "--grid", "3")
        assert code == 2
        assert out == ""
        assert "ModelError" in err and "no point" in err

    def test_near_shell_grid_points_skipped(self, tmp_path):
        # (+-0.8, 0) lie within PURE_SHELL_TOL of the shell: the family
        # evaluates them, but they are not mixed, so the grid skips them.
        path = tmp_path / "near_shell.json"
        domain = {"theta1": [-1.5999999999999, 1.5999999999999], "theta2": [-0.5, 0.5]}
        path.write_text(json.dumps({"kind": "generic_z", "theta0": 0.6, "domain": domain}))
        code, out, err = run_cli("classify", "--model", str(path), "--grid", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["family"]["grid_points"] == 3

    def test_grid_points_evaluated_once(self, generic_model, monkeypatch):
        from holevo2q.models import GenericZ

        rows, calls = [], []
        evaluate_many = GenericZ.evaluate_many
        monkeypatch.setattr(
            GenericZ, "evaluate_many",
            lambda self, t1, t2: rows.append(np.size(t1)) or evaluate_many(self, t1, t2),
        )
        monkeypatch.setattr(GenericZ, "evaluate", lambda self, th: calls.append(th))
        code, out, _ = run_cli("classify", "--model", generic_model, "--grid", "4")
        assert code == 0
        assert sum(rows) == 16 == json.loads(out)["family"]["grid_points"]
        assert calls == []


@pytest.mark.parametrize("command, cell", [
    (["sweep-theta", "--weight", "1,0,1"], "theta1=-0.69999999999999996, theta2=0"),
    (["classify"], "theta1=-0.34999999999999998, theta2=0"),
], ids=["sweep-theta", "classify"])
def test_theta_grid_refusal_of_any_class_names_its_cell(tmp_path, command, cell):
    # s = (0.1 + theta1^2, 0.2 + theta2^2, 0.3): d2s = 0 on theta2 = 0, so the
    # first such grid cell is refused with DegenerateModelError, not DomainError.
    path = tmp_path / "model.json"
    components = [[[0.1, 0], [0, 0], [1, 0]], [[0.2, 0, 1]], [[0.3]]]
    path.write_text(json.dumps({"kind": "explicit", "components": components}))
    code, stdout, err = run_cli(command[0], "--model", str(path), *command[1:], "--grid", "3")
    assert (code, stdout) == (2, "")
    assert err == f"DegenerateModelError: d1s and d2s are linearly dependent at {cell}\n"


def test_a_refusal_without_a_cell_index_passes_through_unchanged():
    for error in (DomainError("no cell"), DegenerateModelError("no cell")):
        def refuse():
            raise error
        with pytest.raises(type(error)) as info:
            _in_cell(["theta1", "theta2"], [np.array(["0"]), np.array(["0"])], refuse)
        assert info.value is error


MALFORMED_MODELS = {
    "non_numeric_height": '{"kind": "generic_z", "theta0": "abc"}',
    "empty_domain": '{"kind": "generic_z", "theta0": 0.2, "domain": {}}',
    "one_ended_interval": '{"kind": "generic_z", "theta0": 0.2, '
                          '"domain": {"theta1": [1], "theta2": [-0.5, 0.5]}}',
    "non_numeric_planar_coefficients": '{"kind": "planar", "u1": [1, 0, 0], '
                                       '"u2": [0, 1, 0], "f1": "x"}',
    "non_numeric_explicit_component": '{"kind": "explicit", '
                                      '"components": [[[0.1]], [["y"]], [[0.3]]]}',
    "truncated_json": '{"kind": "generic_z", "theta0": 0.',
    "json_list": '[1, 2]',
}


@pytest.mark.parametrize("text", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
def test_malformed_model_file_is_invalid_input(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    model = str(path)
    commands = [
        ["bounds", "--model", model, "--theta", "0.1,0.1", "--weight", "1,0,1"],
        ["sweep-weight", "--model", model, "--theta", "0.1,0.1", "--grid", "3"],
        ["sweep-theta", "--model", model, "--weight", "1,0,1", "--grid", "3"],
        ["classify", "--model", model, "--grid", "3"],
    ]
    for argv in commands:
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("DomainError:"), (argv, err)


NAN, INF = float("nan"), float("inf")
NON_FINITE_MODELS = {
    "unitary_axes": {"kind": "unitary", "radius": 0.5,
                     "axes": [[NAN, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "planar_u1": {"kind": "planar", "u1": [NAN, 0, 0], "u2": [0, 1, 0]},
    "planar_u2": {"kind": "planar", "u1": [1, 0, 0], "u2": [0, INF, 0]},
    "planar_coefficient": {"kind": "planar", "u1": [1, 0, 0], "u2": [0, 1, 0],
                           "f1": [[0.0, NAN], [1.0, 0.0]]},
    "explicit_component": {"kind": "explicit",
                           "components": [[[0.0, 1.0]], [[NAN]], [[0.3]]]},
}


@pytest.mark.parametrize("desc", NON_FINITE_MODELS.values(), ids=NON_FINITE_MODELS.keys())
def test_non_finite_model_parameter_is_invalid_input(tmp_path, desc):
    # NaN fails every range check, so each parameter has its own finiteness test.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(desc))
    model, out_csv = str(path), str(tmp_path / "out.csv")
    commands = [
        ["bounds", "--model", model, "--theta", "0.1,0.1", "--weight", "1,0,1"],
        ["sweep-weight", "--model", model, "--theta", "0.1,0.1", "--grid", "3"],
        ["sweep-theta", "--model", model, "--weight", "1,0,1", "--grid", "3", "--out", out_csv],
        ["classify", "--model", model, "--grid", "3"],
    ]
    for argv in commands:
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("DomainError:"), (argv, err)
    assert not os.path.exists(out_csv)


def test_infinite_domain_bound_is_invalid_input(tmp_path):
    # An infinite bound passes lo < hi; the grid commands would sample no cell.
    desc = {"kind": "generic_z", "theta0": 0.2,
            "domain": {"theta1": [-INF, 0.5], "theta2": [-0.5, 0.5]}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(desc))
    model, out_csv = str(path), str(tmp_path / "out.csv")
    commands = [
        ["bounds", "--model", model, "--theta", "0.1,0.1", "--weight", "1,0,1"],
        ["sweep-theta", "--model", model, "--weight", "1,0,1", "--grid", "3", "--out", out_csv],
        ["classify", "--model", model, "--grid", "3"],
    ]
    for argv in commands:
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("DomainError:"), (argv, err)
    assert not os.path.exists(out_csv)


def test_explicit_polynomials_give_the_exact_derivatives(tmp_path):
    # s = (theta1, theta2, 0.23) written as polynomials is generic_z(0.23):
    # exact derivatives make every reported bit the same.
    models = [
        {"kind": "explicit", "components": [[[0.0], [1.0]], [[0.0, 1.0]], [[0.23]]],
         "domain": GenericZ(0.23).domain.to_descriptor()},
        {"kind": "generic_z", "theta0": 0.23},
    ]
    outputs = []
    for desc in models:
        path, out_csv = tmp_path / f"{desc['kind']}.json", tmp_path / f"{desc['kind']}.csv"
        path.write_text(json.dumps(desc))
        code, record, _ = run_cli(
            "bounds", "--model", str(path), "--theta", "0.1,-0.2", "--weight", "1,0.3,2"
        )
        assert code == 0
        argv = ["sweep-theta", "--model", str(path), "--weight", "1,0.3,2", "--grid", "21"]
        assert run_cli(*argv, "--out", str(out_csv))[0] == 0
        outputs.append((record, out_csv.read_text().splitlines()[2:]))
    assert len(outputs[1][1]) == 305  # the in-ball cells of the 21 x 21 grid
    assert outputs[0] == outputs[1]


def test_bounds_with_overflowing_weight_is_invalid_input(generic_model):
    # det W overflows at this scale; JSON has no Infinity, so it is not printed.
    code, out, err = run_cli(
        "bounds", "--model", generic_model, "--theta", "0.2447,0.1", "--weight", "1e160,0,1e160"
    )
    assert (code, out) == (2, "")
    assert err.startswith("DomainError: c_r is not finite"), err


@pytest.mark.parametrize("scale", ["1e-160", "1e-170"])
def test_bounds_with_underflowing_weight_is_invalid_input(tmp_path, scale):
    # w11 w22 underflows, so det W cannot be resolved: refused, not printed wrong.
    (tmp_path / "model.json").write_text(json.dumps({"kind": "generic_z", "theta0": 0.2}))
    proc = run_python("-W", "default", "-m", "holevo2q.cli", "bounds", "--model", "model.json",
                      "--theta", "0.2447,0.1", "--weight", f"{scale},0,{scale}", cwd=tmp_path)
    message = (f"DomainError: weight matrix [[{scale}, 0.0], [0.0, {scale}]]: "
               "det W cannot be resolved in floats\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


REFUSED_ARGUMENTS = {
    "sweep_weight_grid_1": (
        ["sweep-weight", "--theta", "0.2,0.1", "--grid", "1"],
        "ModelError: --grid must be at least 2",
    ),
    "sweep_theta_grid_1": (
        ["sweep-theta", "--weight", "1,0,1", "--grid", "1"],
        "ModelError: --grid must be at least 2",
    ),
    "bounds_theta_one_number": (
        ["bounds", "--theta", "0.1", "--weight", "1,0,1"],
        "ModelError: --theta expects 2 comma-separated numbers, got '0.1'",
    ),
    "bounds_theta_not_numbers": (
        ["bounds", "--theta", "a,b", "--weight", "1,0,1"],
        "ModelError: could not parse --theta = 'a,b'",
    ),
    "bounds_weight_two_numbers": (
        ["bounds", "--theta", "0.2,0.1", "--weight", "1,0"],
        "ModelError: --weight expects 3 comma-separated numbers, got '1,0'",
    ),
}


@pytest.mark.parametrize(
    "argv, message", REFUSED_ARGUMENTS.values(), ids=REFUSED_ARGUMENTS.keys()
)
def test_refused_argument_is_invalid_input(generic_model, tmp_path, argv, message):
    out = tmp_path / "out.csv"
    to_file = [] if argv[0] == "bounds" else ["--out", str(out)]
    result = run_cli(argv[0], "--model", generic_model, *argv[1:], *to_file)
    assert result == (2, "", message + "\n")
    assert not out.exists()


# A number that parses but is not finite is refused under its own name.
NON_FINITE_ARGUMENTS = {
    **{f"{command}_theta_{x}": (
        [command, "--theta", f"{x},0", *extra],
        f"DomainError: theta must be a finite 2-vector, got ({x}, 0.0)")
       for command, extra in (("bounds", ["--weight", "1,0,1"]), ("sweep-weight", []),
                              ("classify", []))
       for x in ("nan", "inf")},
    "sweep_weight_53_w_max": (
        ["sweep-weight", "--theta", "0.2,0.1", "--weight-family", "53", "--w-max", "nan"],
        "DomainError: weight parameter w = nan must lie in (-1, 1)"),
    "sweep_weight_42_w_max": (
        ["sweep-weight", "--theta", "0.2,0.1", "--weight-family", "42", "--w-max", "nan"],
        "DomainError: require |w| < 1 for positive definiteness"),
    **{f"sweep_weight_42_{option[2:].replace('-', '_')}": (
        ["sweep-weight", "--theta", "0.2,0.1", "--weight-family", "42", option, "nan"],
        "DomainError: require w2 > 0")
       for option in ("--w2-min", "--w2-max")},
}


@pytest.mark.parametrize(
    "argv, message", NON_FINITE_ARGUMENTS.values(), ids=NON_FINITE_ARGUMENTS.keys()
)
def test_non_finite_argument_is_refused_under_its_name(generic_model, argv, message):
    assert run_cli(argv[0], "--model", generic_model, *argv[1:]) == (2, "", message + "\n")


# Family 53 reads neither w2 option, so giving one is refused, whatever its value.
@pytest.mark.parametrize("option", [
    ["--w2-min", "0.5"], ["--w2-max", "nan"], ["--weight-family", "53", "--w2-min", "0.05"]],
    ids=["w2_min", "w2_max_nan", "explicit_default"])
def test_w2_option_outside_family_42_is_refused(generic_model, option):
    assert run_cli("sweep-weight", "--model", generic_model, "--theta", "0.2,0.1", *option) == (
        2, "", "ModelError: --w2-min and --w2-max apply only to --weight-family 42\n")


SWEEP_ARGUMENTS = {
    "sweep-weight": ["--theta", "0.2,0.1", "--grid", "11"],
    "sweep-theta": ["--weight", "0.55,0.1,0.45", "--grid", "11"],
}


@pytest.mark.parametrize("command", SWEEP_ARGUMENTS)
def test_sweep_without_out_writes_its_csv_to_stdout(generic_model, tmp_path, command):
    out = tmp_path / "out.csv"
    args = [command, "--model", generic_model, *SWEEP_ARGUMENTS[command]]
    assert run_cli(*args, "--out", str(out)) == (0, "", "")
    code, stdout, err = run_cli(*args)
    assert (code, err) == (0, "")
    assert stdout.encode() == out.read_bytes()


def test_stdout_closed_by_its_reader_exits_141_silently(generic_model):
    # As `sweep-theta ... | head -1`: the reader takes the header and closes the
    # pipe while megabytes of rows remain; a shell reports 141 for a writer that
    # SIGPIPE killed, and the interpreter's exit flush must not print either.
    argv = ["sweep-theta", "--model", generic_model, "--weight", "0.55,0.1,0.45", "--grid", "101"]
    with subprocess.Popen([sys.executable, "-m", "holevo2q.cli", *argv], env=checkout_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"# holevo2q")
        proc.stdout.close()
        assert proc.wait(timeout=300) == 141
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("command", SWEEP_ARGUMENTS)
def test_out_that_cannot_be_opened_is_invalid_input(generic_model, tmp_path, command):
    # Only a missing --out means stdout: "" names no file and is refused as one.
    args = [command, "--model", generic_model, *SWEEP_ARGUMENTS[command]]
    for out, error in ((str(tmp_path), "IsADirectoryError: "), ("", "FileNotFoundError: ")):
        code, stdout, err = run_cli(*args, "--out", out)
        assert (code, stdout) == (2, "")
        assert err.startswith(error)


class _RecordedWrites(io.StringIO):
    """A stdout that keeps each ``write`` call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


BLOCKED_SWEEPS = {
    "sweep-theta": ["sweep-theta", "--weight", "0.55,0.1,0.45"],
    "sweep-weight-53": ["sweep-weight", "--theta", "0.2,0.1", "--weight-family", "53"],
    "sweep-weight-42": ["sweep-weight", "--theta", "0.2,0.1", "--weight-family", "42"],
}


class TestBlockedEmitter:
    """The CSV goes out as the header, then blocks of ``cli._BLOCK_ROWS`` rows."""

    @pytest.mark.parametrize("sweep", BLOCKED_SWEEPS.values(), ids=BLOCKED_SWEEPS.keys())
    def test_any_block_size_writes_the_same_bytes(self, generic_model, tmp_path, monkeypatch,
                                                  sweep):
        args = [sweep[0], "--model", generic_model, *sweep[1:], "--grid", "11"]
        code, expected, err = run_cli(*args)
        assert (code, err) == (0, "")
        rows = expected.count("\n") - 2
        assert rows > 8  # so that 1, 7 and rows - 1 are three sizes, each with 2+ blocks
        for size in (1, 7, rows - 1):
            monkeypatch.setattr(cli, "_BLOCK_ROWS", size)
            assert run_cli(*args) == (0, expected, "")
            out = tmp_path / f"block{size}.csv"
            assert run_cli(*args, "--out", str(out)) == (0, "", "")
            assert out.read_bytes() == expected.encode()

    # 307 and 289 rows: more than one default block.
    @pytest.mark.parametrize("sweep, grid", [
        (BLOCKED_SWEEPS["sweep-theta"], "21"),
        (BLOCKED_SWEEPS["sweep-weight-53"], "17"),
    ], ids=["sweep-theta", "sweep-weight"])
    def test_no_write_after_the_header_holds_more_than_a_block(self, generic_model, sweep,
                                                               grid):
        sink = _RecordedWrites()
        with redirect_stdout(sink):
            assert main([sweep[0], "--model", generic_model, *sweep[1:], "--grid", grid]) == 0
        header, *blocks = sink.writes
        assert header.startswith("# holevo2q ") and header.count("\n") == 2
        rows = sink.getvalue().count("\n") - 2
        assert rows > cli._BLOCK_ROWS
        assert len(blocks) == -(-rows // cli._BLOCK_ROWS)
        assert all(block.endswith("\n") for block in blocks)
        assert all(block.count("\n") <= cli._BLOCK_ROWS for block in blocks)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refusal_at_a_later_cell_writes_nothing(self, tmp_path, monkeypatch):
        # The model of TestSweepTheta::test_overflowing_derivatives_name_their_cell,
        # refused at its second kept cell, with one row per block.
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 1)
        path = tmp_path / "model.json"
        components = [[[0, 0, 0], [0, 0, 1e200]], [[0.1], [0.3]], [[0, 0.3]]]
        path.write_text(json.dumps({"kind": "explicit", "components": components}))
        out = tmp_path / "theta.csv"
        argv = ["sweep-theta", "--model", str(path), "--weight", "1,0,1", "--grid", "3"]
        for extra in ([], ["--out", str(out)]):
            code, stdout, err = run_cli(*argv, *extra)
            assert (code, stdout) == (2, "")
            assert err == ("DomainError: derivatives overflow in floats "
                           "at theta1=0, theta2=-0.69999999999999996\n")
        assert not out.exists()

    @pytest.mark.parametrize("sweep", BLOCKED_SWEEPS.values(), ids=BLOCKED_SWEEPS.keys())
    def test_kernel_refusal_of_the_last_cell_writes_nothing(self, generic_model, tmp_path,
                                                            monkeypatch, sweep):
        # A kernel that refuses the grid's last cell, with one row per block.
        def refuse_last(fb, weights):
            report = holevo2q.bounds.holevo_bounds_many(fb, weights)
            error = DomainError("c_h is not finite (nan)")
            error.index = report.c_h.size - 1
            raise error
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 1)
        monkeypatch.setattr(cli, "holevo_bounds_many", refuse_last)
        out = tmp_path / "out.csv"
        args = [sweep[0], "--model", generic_model, *sweep[1:], "--grid", "5"]
        for extra in ([], ["--out", str(out)]):
            code, stdout, err = run_cli(*args, *extra)
            assert (code, stdout) == (2, "")
            assert err.startswith("DomainError: c_h is not finite (nan) at ")
        assert not out.exists()


class TestFisherMatricesOffProductionPaths:
    """bounds and both sweeps read only the scalar bundle: they succeed with
    the verification-side ``fisher_matrices`` replaced by a function that raises."""

    @pytest.fixture(autouse=True)
    def forbid_fisher_matrices(self, monkeypatch):
        import holevo2q.matrix_forms

        original = holevo2q.matrix_forms.fisher_matrices

        def forbidden(*args, **kwargs):
            raise AssertionError("fisher_matrices called on a production path")

        for name, module in list(sys.modules.items()):
            holds_it = getattr(module, "fisher_matrices", None) is original
            if name.startswith("holevo2q") and holds_it:
                monkeypatch.setattr(module, "fisher_matrices", forbidden)

    def test_bounds(self, generic_model):
        code, out, _ = run_cli(
            "bounds", "--model", generic_model, "--theta", "0.2,0.1", "--weight", "1,0.2,0.8"
        )
        assert code == 0
        assert json.loads(out)["branch"] in ("rld", "correction", "boundary")

    @pytest.mark.parametrize("family", ["53", "42"])
    def test_sweep_weight(self, generic_model, tmp_path, family):
        out = tmp_path / f"sweep{family}.csv"
        code, _, err = run_cli(
            "sweep-weight", "--model", generic_model, "--theta", "0.2,0.1",
            "--grid", "11", "--weight-family", family, "--out", str(out),
        )
        assert code == 0, err
        assert len(read_csv(str(out))) == 11 * 11

    def test_sweep_theta(self, generic_model, tmp_path):
        out = tmp_path / "theta.csv"
        code, _, err = run_cli(
            "sweep-theta", "--model", generic_model, "--weight", "0.55,0.1,0.45",
            "--grid", "11", "--out", str(out),
        )
        assert code == 0, err
        assert read_csv(str(out))


class TestLazyImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        code = (
            "import sys\n"
            "import holevo2q.cli as cli\n"
            "import holevo2q.oracle\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'\n"
            "code = cli.main(['verify', '--count', '2'])\n"
            "assert 'scipy' not in sys.modules, 'verify loaded scipy'\n"
            "sys.exit(code)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all 22 checks passed" in proc.stdout

    def test_bounds_and_sweeps_load_no_record_machinery_or_lazy_module(self, generic_model):
        code = (
            "import sys\n"
            "import holevo2q.cli as cli\n"
            f"model = {generic_model!r}\n"
            "assert cli.main(['bounds', '--model', model, '--theta', '0.2,0.1',\n"
            "                 '--weight', '1,0,1']) == 0\n"
            "assert cli.main(['sweep-theta', '--model', model, '--weight', '1,0,1',\n"
            "                 '--grid', '5']) == 0\n"
            "lazy = ['dataclasses', 'holevo2q.classify', 'holevo2q.oracle',\n"
            "        'holevo2q.verify', 'holevo2q.sampling']\n"
            "loaded = [name for name in lazy if name in sys.modules]\n"
            "assert not loaded, loaded\n"
            "import holevo2q\n"
            "namespace = {}\n"
            "exec('from holevo2q import *', namespace)\n"
            "missing = [name for name in holevo2q.__all__ if name not in namespace]\n"
            "assert not missing, missing\n"
            "assert set(holevo2q.__all__) <= set(dir(holevo2q))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    # The Bloch-matrix cross-check route, which lives in holevo2q.matrix_forms only.
    MATRIX_FORMS = (
        "q_matrix q_inverse f_matrix q_tilde q_tilde_inverse sld_bloch_vectors rld_bloch_vectors"
        " ell_perp invert_2x2 _bilinear _hermitian_from_upper FisherMatrices sld_duals"
        " fisher_matrices trabs"
    ).split()

    def test_sweep_leaves_the_matrix_forms_unloaded(self, generic_model, tmp_path):
        import holevo2q.matrix_forms

        assert all(hasattr(holevo2q.matrix_forms, name) for name in self.MATRIX_FORMS)
        argv = ["sweep-weight", "--model", generic_model, "--theta", "0.2,0.1", "--grid", "3",
                "--out", str(tmp_path / "out.csv")]
        code = (
            "import sys\n"
            "import holevo2q.cli as cli\n"
            "from holevo2q.models import load_model\n"
            f"load_model({generic_model!r})\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert 'holevo2q.matrix_forms' not in sys.modules, 'matrix_forms loaded'\n"
            "from holevo2q import bloch, bounds, fisher\n"
            f"left = [(m.__name__, name) for m in (bloch, fisher, bounds) for name in "
            f"{self.MATRIX_FORMS!r} if hasattr(m, name)]\n"
            "assert not left, left\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_three_parameter_bound_and_test_only_helpers_are_not_in_the_package(self):
        import holevo2q
        import holevo2q.matrix_forms
        import holevo2q.verify

        for name in ("BlochModelPoint3", "holevo_bound_three_param"):
            assert name not in holevo2q.__all__
            assert name not in dir(holevo2q)
            assert not hasattr(holevo2q.matrix_forms, name)
        # One family classifier: classify_rows, over the rows of evaluate_many.
        assert "classify_family" not in holevo2q.__all__
        assert "classify_family" not in dir(holevo2q)
        # TrAbs's input checks and the determinant identities are in tests/reference.py.
        assert not hasattr(holevo2q.verify, "fisher_determinant_identities")

    # The pure-state limits, defined in holevo2q.matrix_forms only.
    PURE_LIMITS = "_shell_limit pure_limit_duals pure_limit_rld_inverse pure_limit_holevo".split()

    def test_classify_leaves_the_matrix_forms_unloaded(self, generic_model):
        import holevo2q.matrix_forms

        assert all(hasattr(holevo2q.matrix_forms, name) for name in self.PURE_LIMITS)
        argv = ["classify", "--model", generic_model, "--theta", "0.2,0.1", "--grid", "3"]
        code = (
            "import sys\n"
            "import holevo2q.cli as cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert 'holevo2q.matrix_forms' not in sys.modules, 'matrix_forms loaded'\n"
            "from holevo2q import classify, fisher\n"
            f"left = [name for name in {self.PURE_LIMITS!r} if hasattr(classify, name)]\n"
            "assert not left, left\n"
            "assert not hasattr(fisher, '_admit'), 'fisher._admit defined'\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestVerifyCommand:
    def test_small_run_passes(self):
        code, out, _ = run_cli("verify", "--seed", "7", "--count", "5")
        assert code == 0
        assert "all" in out and "passed" in out

    def test_zero_count_invalid(self):
        code, _, err = run_cli("verify", "--seed", "7", "--count", "0")
        assert code == 2
        assert "ModelError" in err

    def test_negative_seed_invalid(self):
        code, out, err = run_cli("verify", "--seed", "-1", "--count", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("ModelError") and err.count("\n") == 1, err

    def test_injected_failure(self, monkeypatch):
        from holevo2q import verify

        monkeypatch.setitem(verify.TOLERANCES, "cross_path_sld_fisher", 0.0)
        code, out, _ = run_cli("verify", "--seed", "7", "--count", "3")
        assert code == 1
        assert "FAIL" in out
