"""CLI parser surface: help, usage and error texts, the plain argument path
against argparse, no parser machinery on a well-formed run, and a clean
stderr on refused input."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from holevo2q import cli
from holevo2q.cli import build_parser, main
from test_cli import run_python

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import golden  # noqa: E402

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


def argparse_vars(parser, argv):
    """``vars(parser.parse_args(argv))``, or None where argparse exits (help or an error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def variants(base):
    """Argument lists around ``base``, a command and a value for each of its
    flags: both token forms, values starting with "-" in both forms (``--grid
    -5`` among them), "-h" and "--" as values, each such value also repeating
    a flag of ``base``, a missing, prefixed or valueless flag, a value that
    fails the flag's type or choices (also before a valid repeat), and an
    extra positional argument."""
    command, pairs = base[0], list(zip(base[1::2], base[2::2]))
    table = dict(cli._COMMANDS[command][2])
    yield base
    yield [command, *(f"{flag}={value}" for flag, value in pairs)]
    yield [*base, "extra"]
    yield [command, "extra", *base[1:]]
    for token in ("-h", "--help", "--", "--bogus", "-x"):
        yield [*base, token]
    for i, (flag, value) in enumerate(pairs):
        others = [token for pair in pairs[:i] + pairs[i + 1:] for token in pair]
        yield [command, *others]
        yield [command, *others, f"{flag}={value}"]
        yield [*base, flag]
        for odd in ("-" + value, "-5", "-h", "--", "-", "", "a=b", " -1", "1e3", "3", "53"):
            yield [command, *others, flag, odd]
            yield [command, *others, f"{flag}={odd}"]
            yield [*base, flag, odd]
        for end in range(3, len(flag)):
            yield [command, *others, flag[:end], value]
            yield [command, *others, f"{flag[:end]}={value}"]
        kind = table[flag].get("choices") or table[flag].get("type")
        for bad in {int: ("x", "1.5", "0x10"), float: ("x", "1,2")}.get(kind, ("54",)):
            yield [command, *others, flag, bad]
            yield [command, flag, bad, *base[1:]]


# One well-formed argument list per command that gives every flag.
BASES = {
    "bounds": REPRESENTATIVE[0],
    "sweep-weight": [*REPRESENTATIVE[1], "--out", "x.csv"],
    "sweep-theta": [*REPRESENTATIVE[2], "--grid", "7"],
    "classify": REPRESENTATIVE[3],
    "verify": REPRESENTATIVE[4],
}
# The argument shapes of the benchmark: "--flag=value" with values that start with "-".
PERFBENCH = [
    ["sweep-theta", "--model", "tmp/model.json", "--weight=0.55,-0.1,0.45", "--grid", "31",
     "--out", "tmp/theta.csv"],
    ["sweep-weight", "--model", "tmp/model.json", "--theta=-0.2447,0.1", "--grid", "31",
     "--w-max", "0.99", "--weight-family", "53", "--out", "tmp/w53.csv"],
    ["sweep-weight", "--model", "tmp/model.json", "--theta=-0.2447,0.1", "--grid", "31",
     "--w-max", "0.99", "--weight-family", "42", "--w2-min", "0.05", "--w2-max", "1.95",
     "--out", "tmp/w42.csv"],
]
GOLDEN_CLI = [argv for argv in [*(golden.PATHS[path] for path in golden.GOLDEN),
                                *golden.SMALL.values()] if argv[0] in COMMANDS]
CORPUS = [*SURFACE, *REPRESENTATIVE, *PERFBENCH, *GOLDEN_CLI, *golden.REFUSALS.values(),
          *(golden.PATHS[path] for path in golden.GOLDEN if golden.PATHS[path] not in GOLDEN_CLI),
          *(argv for base in BASES.values() for argv in variants(base))]


def test_bases_give_every_flag():
    for command, base in BASES.items():
        assert base[0] == command
        assert sorted(base[1::2]) == sorted(flag for flag, _ in cli._COMMANDS[command][2])


def test_golden_and_benchmark_runs_take_the_plain_path():
    assert len(GOLDEN_CLI) == 19
    for argv in [*PERFBENCH, *GOLDEN_CLI, *REPRESENTATIVE, *BASES.values()]:
        assert cli._plain_args(argv) is not None, argv


@pytest.mark.parametrize("group", [*COMMANDS, "no command"])
def test_plain_args_agree_with_argparse(group):
    # _plain_args gives argparse's namespace or leaves the argument list to argparse.
    parser = build_parser()
    argvs = [argv for argv in CORPUS if (argv[0] if argv and argv[0] in COMMANDS
                                         else "no command") == group]
    taken = 0
    for argv in argvs:
        plain = cli._plain_args(argv)
        if plain is not None:
            assert vars(plain) == argparse_vars(parser, argv), argv
            taken += 1
    if group == "no command":
        assert taken == 0
    else:  # the corpus holds argument lists of both kinds
        assert 0 < taken < len(argvs)


@pytest.mark.parametrize("argv, loaded", [
    (["sweep-theta", "--model", "model.json", "--weight", "0.55,0.1,0.45", "--grid", "3",
      "--out", "out.csv"], []),
    (["bounds", "--model", "model.json", "--theta", "0.2,0.1", "--weight=0.55,-0.1,0.45"], []),
    (["sweep-theta", "--model", "model.json", "--weight", "0.55,0.1,0.45", "--grid", "x"],
     ["argparse", "gettext", "locale"]),
], ids=["sweep-theta", "bounds", "refused"])
def test_well_formed_run_loads_no_parser_machinery(tmp_path, argv, loaded):
    (tmp_path / "model.json").write_text(json.dumps({"kind": "generic_z", "theta0": 0.2}))
    probe = ("import sys\nfrom holevo2q.cli import main\n"
             "try:\n    code = main(sys.argv[1:])\n"
             "except SystemExit as exc:\n    code = exc.code\n"
             "names = ('argparse', 'gettext', 'locale')\n"
             "print(code, *(name for name in names if name in sys.modules), file=sys.stderr)")
    proc = run_python("-c", probe, *argv, cwd=tmp_path)
    assert proc.stderr.splitlines()[-1].split() == [str(2 if loaded else 0), *loaded]


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
