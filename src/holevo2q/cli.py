"""Command-line interface.

Subcommands
-----------
bounds        evaluate every bound at one (model, theta, weight) and print JSON
sweep-weight  grid over weight space at fixed theta, CSV rows per cell
sweep-theta   grid over parameter space at fixed weight, CSV rows per cell
classify      point and optional grid classification of a model
verify        oracle-versus-closed-form residual suite on random instances

Exit codes: 0 success, 1 verification failure, 2 invalid input, 141 stdout
closed by its reader (silent, as for SIGPIPE).  Input validation failures print
the exception class name (``PureStateError``, say) with the message.  CSV
output is deterministic for a fixed spec and seed: rows come in row-major grid
order, floats have 17 significant digits, and the header has a schema version.

A sweep is one batched pass over its whole grid, with no per-cell Python
loop: sweep-theta maps the cells through the family's ``evaluate_many``
(dropping cells outside the domain or the mixed-state disk) and
``fisher_bundle_many``; sweep-weight builds every weight as one stacked
``WeightMatrix`` at one ``fisher_bundle``.  ``_emit_csv`` runs
``holevo_bounds_many`` on all cells, then writes ``_BLOCK_ROWS`` rows per
call, one %-format each; a grid cell that a kernel refuses (also under
``classify --grid``) is named by its coordinates, whatever the error class.
Invalid input raises what a cell-by-cell loop would raise first.  The
library owns the float policy: this module sets none.

Imports are lazy per subcommand: ``classify`` loads :mod:`holevo2q.classify`
and ``verify`` the oracle and the verification suite inside their command
functions, so ``bounds`` and the sweeps load only the module-level imports.
Each subcommand is declared once in ``_COMMANDS``.  ``main`` reads a
well-formed argv straight from that table (``_plain_args``), so such a run
imports no argparse, and builds argparse's parser only for help, abbreviated
flags, separate values starting with "-" and refusals, with argparse's texts.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import types

import numpy as np

from .bounds import (REPORT_COLUMNS, WeightMatrix, boundary_weight_family, holevo_bounds_many,
                     weight_from_angles)
from .errors import ModelError
from .fisher import FisherBundle, fisher_bundle, fisher_bundle_many
from .models import load_model

__all__ = ["main", "build_parser"]

CSV_SCHEMA = "v1"
# The bound columns of the CSV rows and the bounds JSON: (name, CSV format, value(fb, report)).
_COLUMNS = (
    *((name, "%.17g", lambda fb, report, field=field: getattr(report, field))
      for name, field in REPORT_COLUMNS.items()),
    ("branch", "%s", lambda fb, report: report.branch),
    ("gamma1", "%.17g", lambda fb, report: fb.gamma[..., 0]),
    ("gamma2", "%.17g", lambda fb, report: fb.gamma[..., 1]),
    ("d_invariant", "%d", lambda fb, report: fb.d_invariant),
    ("asymptotically_classical", "%d", lambda fb, report: fb.asymptotically_classical),
)
BOUND_COLUMNS = [name for name, _, _ in _COLUMNS]
_BLOCK_ROWS = 256  # rows per CSV write: ~60 KiB of text, under malloc's 128 KiB mmap threshold


def _parse_floats(text: str, count: int, name: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ModelError(f"{name} expects {count} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ModelError(f"could not parse {name} = {text!r}") from exc


def _bounds_record(fb: FisherBundle, weight: WeightMatrix) -> dict:
    """The bound columns and the optimal offset ``xi_star`` at one point."""
    report = holevo_bounds_many(fb, weight)
    record = {name: np.asarray(get(fb, report)).tolist() for name, _, get in _COLUMNS}
    return {**record, "xi_star": report.xi_star.tolist()}


def _grid(axis1, axis2):
    """The cells of the grid axis1 x axis2 in row-major order, as two arrays."""
    return np.repeat(axis1, len(axis2)), np.tile(axis2, len(axis1))


def _usable_rows(family, axes):
    """(S, D1, D2) at the usable cells of the grid ``axes`` and the usable
    mask: cells outside the domain or the mixed-state disk of the family are
    skipped, and a grid without a usable cell is invalid input."""
    s, d1, d2, usable = family.evaluate_many(*_grid(*axes))
    if not usable.any():
        shape = "x".join(str(len(a)) for a in axes)
        raise ModelError(f"no point of the {shape} grid gives a valid model point")
    return s[usable], d1[usable], d2[usable], usable


def _cell_labels(axes, keep=...) -> list:
    """The ``%.17g`` coordinates of the kept cells of the grid ``axes``, per axis."""
    labels = _grid(*(np.array(["%.17g" % x for x in a.tolist()], dtype=object) for a in axes))
    return [column[keep] for column in labels]


def _in_cell(coords: list[str], labels: list, func, *args):
    """``func(*args)``; a ModelError with the ``index`` of a cell gains its coordinates."""
    try:
        return func(*args)
    except ModelError as exc:
        if not hasattr(exc, "index"):
            raise
        at = ", ".join(f"{c}={x[exc.index]}" for c, x in zip(coords, labels))
        raise type(exc)(f"{exc} at {at}") from None


def _emit_csv(path, header_name: str, coords: list[str], labels: list, fb, weights) -> None:
    """One CSV row per cell, from ``holevo_bounds_many(fb, weights)``: the
    coordinate ``labels``, then BOUND_COLUMNS, values shared by every row baked
    into the template.  A cell the kernel refuses is named before any write;
    then the header is one write and each block of _BLOCK_ROWS rows one more."""
    report = _in_cell(coords, labels, holevo_bounds_many, fb, weights)
    values = (*labels, *(get(fb, report) for _, _, get in _COLUMNS))
    specs = ["%s", "%s", *(spec for _, spec, _ in _COLUMNS)]
    row = ",".join(spec % v if np.ndim(v) == 0 else spec for spec, v in zip(specs, values)) + "\n"
    header = f"# holevo2q {header_name} schema {CSV_SCHEMA}\n{','.join(coords + BOUND_COLUMNS)}\n"
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as fh:
        fh.write(header)
        for start in range(0, len(labels[0]), _BLOCK_ROWS):
            block = [v[start:start + _BLOCK_ROWS].tolist() for v in values if np.ndim(v)]
            fh.write("".join(row % cells for cells in zip(*block)))


def cmd_bounds(args) -> int:
    family = load_model(args.model)
    theta = _parse_floats(args.theta, 2, "--theta")
    weight = WeightMatrix(*_parse_floats(args.weight, 3, "--weight"))
    fb = fisher_bundle(family.evaluate(theta))
    record = {"theta1": theta[0], "theta2": theta[1], **_bounds_record(fb, weight)}
    print(json.dumps(record, indent=2, allow_nan=False))
    return 0


def cmd_sweep_weight(args) -> int:
    family = load_model(args.model)
    theta = _parse_floats(args.theta, 2, "--theta")
    fb = fisher_bundle(family.evaluate(theta))
    if args.grid < 2:
        raise ModelError("--grid must be at least 2")

    first = np.linspace(-args.w_max, args.w_max, args.grid)
    if args.weight_family == "53":
        if (args.w2_min, args.w2_max) != (None, None):
            raise ModelError("--w2-min and --w2-max apply only to --weight-family 42")
        second = np.linspace(0.0, 2.0 * np.pi, args.grid, endpoint=False)
        coords = ["w", "omega"]
        weights = weight_from_angles(*_grid(first, second))
    else:  # family "42": boundary-adapted coordinates (w, w2)
        second = np.linspace(0.05 if args.w2_min is None else args.w2_min,
                             1.95 if args.w2_max is None else args.w2_max, args.grid)
        coords = ["w", "w2"]
        weights = boundary_weight_family(fb, *_grid(first, second))
    _emit_csv(args.out, "sweep-weight", coords, _cell_labels((first, second)), fb, weights)
    return 0


def cmd_sweep_theta(args) -> int:
    family = load_model(args.model)
    weight = WeightMatrix(*_parse_floats(args.weight, 3, "--weight"))
    if args.grid < 2:
        raise ModelError("--grid must be at least 2")
    if not 0.0 <= args.shrink < 0.5:
        raise ModelError(f"--shrink must lie in [0, 0.5), got {args.shrink}")
    limits = (family.domain.theta1, family.domain.theta2)
    pads = [args.shrink * (hi - lo) for lo, hi in limits]
    axes = tuple(np.linspace(lo + pad, hi - pad, args.grid) for (lo, hi), pad in zip(limits, pads))
    s, d1, d2, usable = _usable_rows(family, axes)
    coords, labels = ["theta1", "theta2"], _cell_labels(axes, usable)
    fb = _in_cell(coords, labels, fisher_bundle_many, s, d1, d2)
    _emit_csv(args.out, "sweep-theta", coords, labels, fb, weight)
    return 0


def cmd_classify(args) -> int:
    from .classify import classify_point, classify_rows

    if args.grid < 0 or args.grid == 1:
        raise ModelError("--grid must be 0 or at least 2")
    family = load_model(args.model)
    out: dict = {"model": family.to_descriptor()}
    if args.theta is not None:
        theta = _parse_floats(args.theta, 2, "--theta")
        cls = classify_point(family.evaluate(theta))
        out["point"] = {
            "theta1": theta[0],
            "theta2": theta[1],
            "label": cls.label.value,
            "d_invariant": cls.d_invariant,
            "asymptotically_classical": cls.asymptotically_classical,
            "gamma": [float(g) for g in cls.gamma],
            "triple_product": cls.triple_product,
        }
    if args.grid:
        limits = (family.domain.theta1, family.domain.theta2)
        axes = [np.linspace(lo, hi, args.grid + 2)[1:-1] for lo, hi in limits]
        s, d1, d2, usable = _usable_rows(family, axes)
        rows = _in_cell(["theta1", "theta2"], _cell_labels(axes, usable), classify_rows, s, d1, d2)
        out["family"] = {
            "globally_d_invariant": bool(rows.d_invariant.all()),
            "grid_points": len(s),
            "labels_present": sorted(set(rows.label.tolist())),
        }
    print(json.dumps(out, indent=2, allow_nan=False))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(seed=args.seed, count=args.count)
    print(report.table())
    if report.passed:
        print(f"verify: all {len(report.rows)} checks passed")
        return 0
    failing = [row.name for row in report.rows if not row.ok]
    print(f"verify: FAILED checks: {', '.join(failing)}")
    for row in report.rows:
        if not row.ok and row.witness:
            print(f"  witness for {row.name}: {row.witness}")
    return 1


# Each subcommand once: name -> (function, help, arguments), each argument a
# (flag, options) pair for ``add_argument``.
_COMMANDS = {
    "bounds": (cmd_bounds, "evaluate bounds at one point", (
        ("--model", dict(required=True, help="model descriptor JSON file")),
        ("--theta", dict(required=True, help="parameter point A,B")),
        ("--weight", dict(required=True, help="weight entries w11,w12,w22")),
    )),
    "sweep-weight": (cmd_sweep_weight, "sweep the weight-space grid", (
        ("--model", dict(required=True)),
        ("--theta", dict(required=True)),
        ("--grid", dict(type=int, default=101, help="grid points per axis")),
        ("--weight-family", dict(
            choices=("53", "42"), default="53",
            help="53: rotated trace-one weights (w, omega); 42: boundary-adapted (w, w2)")),
        ("--w-max", dict(type=float, default=0.99)),
        ("--w2-min", dict(type=float)),
        ("--w2-max", dict(type=float)),
        ("--out", dict(default=None, help="output CSV path (default stdout)")),
    )),
    "sweep-theta": (cmd_sweep_theta, "sweep the parameter-space grid", (
        ("--model", dict(required=True)),
        ("--weight", dict(required=True)),
        ("--grid", dict(type=int, default=101)),
        ("--shrink", dict(type=float, default=0.0,
                          help="fraction to shrink the domain rectangle on each side")),
        ("--out", dict(default=None)),
    )),
    "classify": (cmd_classify, "classify a model point or family", (
        ("--model", dict(required=True)),
        ("--theta", dict(default=None)),
        ("--grid", dict(type=int, default=0, help="family grid points per axis")),
    )),
    "verify": (cmd_verify, "run the oracle verification suite", (
        ("--seed", dict(type=int, default=42)),
        ("--count", dict(type=int, default=200)),
    )),
}


def _plain_args(argv):
    """The namespace of ``build_parser().parse_args(argv)``, read from ``_COMMANDS`` when
    ``argv`` is a command and exact ``--flag=value`` or ``--flag value`` tokens (that value
    not starting with "-") with valid values and every required flag; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    table, tokens = dict(arguments), iter(argv[1:])
    given = {flag: options.get("default") for flag, options in arguments
             if not options.get("required")}
    for token in tokens:
        flag, eq, value = token.partition("=")
        value = value if eq else next(tokens, "-")
        if flag not in table or value == "--" or not eq and value.startswith("-"):
            return None  # argparse's to read; it stores a value "--" as []
        try:  # a repeated flag keeps its last value, as in argparse
            given[flag] = typed = table[flag].get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if typed not in table[flag].get("choices", [typed]):
            return None
    if len(given) < len(table):  # a required flag is missing
        return None
    return types.SimpleNamespace(command=argv[0], func=func,
                                 **{flag[2:].replace("-", "_"): v for flag, v in given.items()})


def build_parser():
    """The argparse parser, for the help, usage and error texts of what ``_plain_args`` refuses."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="holevo2q", description="Bounds for two-parameter qubit estimation models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # quiet as a writer that SIGPIPE killed; devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 141
    except (ModelError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
