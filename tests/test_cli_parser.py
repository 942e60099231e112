"""CLI parser surface: help, usage and error texts, per-subcommand parsers,
one parser build per process, and a clean stderr on refused input."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from holevo2q import cli
from holevo2q.cli import build_parser, main
from test_cli import run_python

COMMANDS = ("bounds", "sweep-weight", "sweep-theta", "classify", "verify")
SURFACE = [
    [],
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    ["bogus"],
    ["bounds", "--model", "m.json", "--theta", "0.1,0.1"],
    ["sweep-weight", "--model", "m.json"],
    ["classify"],
    ["sweep-weight", "--model", "m.json", "--theta", "0.1,0.1", "--bad"],
    ["bounds", "--model", "m.json", "--theta", "0.1,0.1", "--weight", "1,0,1", "extra"],
    ["sweep-weight", "--grid", "x"],
    ["sweep-theta", "--grid", "x"],
    ["verify", "--count", "x"],
]
REPRESENTATIVE = [
    ["bounds", "--model", "m.json", "--theta", "0.1,0.2", "--weight", "1,0,1"],
    ["sweep-weight", "--model", "m.json", "--theta", "0.1,0.2", "--grid", "7",
     "--weight-family", "42", "--w-max", "0.5", "--w2-min", "0.1", "--w2-max", "1.5"],
    ["sweep-theta", "--model", "m.json", "--weight", "1,0,1", "--shrink", "0.1",
     "--out", "x.csv"],
    ["classify", "--model", "m.json", "--theta", "0.1,0.2", "--grid", "5"],
    ["verify", "--seed", "7", "--count", "3"],
]


def outcome(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", SURFACE, ids=" ".join)
def test_main_matches_the_full_parser(argv):
    expected = outcome(build_parser().parse_args, argv)
    assert expected[0] in (0, 2)
    assert outcome(main, argv) == expected


def test_full_parser_texts_name_the_command_argument():
    # The full parser keeps argparse's own naming of the subcommand argument.
    assert outcome(main, [])[2].endswith("error: the following arguments are required: "
                                         "command\n")
    assert "error: argument command: invalid choice: 'bogus'" in outcome(main, ["bogus"])[2]
    help_text = outcome(main, ["--help"])[1]
    assert help_text.startswith("usage: holevo2q [-h] {" + ",".join(COMMANDS) + "} ...\n")
    assert all(f"    {command} " in help_text for command in COMMANDS)


@pytest.mark.parametrize("argv", REPRESENTATIVE, ids=lambda argv: argv[0])
def test_one_command_parser_gives_the_same_namespace(argv):
    expected = build_parser().parse_args(argv)
    assert build_parser(argv[0]).parse_args(argv) == expected
    assert cli._parser(argv[0]).parse_args(argv) == expected


def test_two_sweeps_build_one_parser(tmp_path, monkeypatch):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "generic_z", "theta0": 0.2}))
    built = []
    original = cli.build_parser

    def counted(command=None):
        built.append(command)
        return original(command)

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for family in ("53", "42"):
        argv = ["sweep-weight", "--model", str(model), "--theta", "0.2,0.2", "--grid", "3",
                "--weight-family", family, "--out", str(tmp_path / f"{family}.csv")]
        assert main(argv) == 0
    assert built == ["sweep-weight"]


@pytest.mark.parametrize("descriptor, extra, message", [
    ({"kind": "generic_z", "theta0": 0.2},
     ["--weight-family", "42", "--w2-min", "1e160", "--w2-max", "1e161"],
     "DomainError: weight matrix entries must be finite\n"),
    ({"kind": "explicit",
      "components": [[[0.1, 0.0], [1e-80, 0.0]], [[0.2, 1e-80], [0.0, 0.0]], [[0.3]]]},
     [], "DomainError: c_n is not finite (inf) at w=-0.98999999999999999, omega=0\n"),
], ids=["huge-weight", "tiny-derivatives"])
def test_refusal_is_the_only_stderr_line(tmp_path, descriptor, extra, message):
    (tmp_path / "model.json").write_text(json.dumps(descriptor))
    proc = run_python("-W", "default", "-m", "holevo2q.cli", "sweep-weight",
                      "--model", "model.json", "--theta", "0.1,0.1", "--grid", "3", *extra,
                      cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
