"""Golden reference outputs of the user-visible holevo2q paths.

    PYTHONPATH=src python3 tools/golden.py --check
    PYTHONPATH=src python3 tools/golden.py --write

Runs the GOLDEN paths of ``tools/bench_summary.py`` (argument lists, model
files and the ``--out`` CSV read-back come from there) in this interpreter
through ``_run_in``, in a directory that holds the model files, with stdout
and stderr captured: the CLI through ``holevo2q.cli.main``,
``tools/oracle_values.py`` through ``runpy``.  A path's output is its
``--out`` CSV, else its stdout, and its sha256 is the one ``bench_summary.py``
records; a kept path that exits non-zero or writes to stderr is an error.

The SMALL outputs (``bounds`` and ``classify --grid 11`` JSON at one point
of each of four model kinds, the three sweeps at ``--grid 11``, and
``sweep-theta --grid 11`` on the planar and explicit models) are kept as
full text, one file each in ``tests/golden/``, so a reader sees every byte
that a change moves.  So is the refusal corpus, ``tests/golden/refusals.json``:
for each REFUSALS case (a malformed model file, an out-of-range weight or
family parameter, ``--grid 1``, tiny, huge or linearly dependent derivatives,
polynomial coefficients whose |s|^2 and derivatives overflow, a negative
``verify --seed``) its exit code, the sha256 of its stdout and its stderr
text, so a change that moves a refusal shows which.

``--write`` rewrites the SMALL files, the refusal corpus and, only when the
numpy or Python version or a hash moved (so an unchanged manifest keeps its
``commit``), ``tests/golden/MANIFEST.json``: the hashes, both versions, the
machine (recorded only) and, when ``src/`` has no uncommitted change, the
commit it was written at.  ``--check`` exits 1 if an output differs from
the manifest or from its kept text.  For a differing hashed CSV it also
prints the ``tools/sweep_diff.py`` summary against the CSV that the
manifest's commit writes (a ``git archive`` of its ``src/``); for a
differing kept text, the ``sweep_diff.py`` summary (a CSV) or a unified diff
(JSON) against the stored text.  The floats come from numpy, so under
another numpy version ``--check`` compares nothing and says so.
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import platform
import runpy
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
MANIFEST = os.path.join(GOLDEN_DIR, "MANIFEST.json")
PERFBENCH = os.path.realpath(os.path.join(ROOT, "perfbench"))

# The tools directory is on sys.path: it holds this script, and the test adds it.
import sweep_diff  # noqa: E402
from bench_summary import (EXPLICIT, MODELS, OUT_CSV, PATHS, THETA, WEIGHT, _command,  # noqa: E402
                           _run, take_out_csv, write_models)

GOLDEN = ("bounds", "sweep_weight_53", "sweep_weight_42", "sweep_theta", "classify_grid",
          "verify", "oracle_values")
SMALL_MODELS = {
    "unitary.json": {"kind": "unitary", "radius": 0.7},
    "planar.json": {"kind": "planar", "u1": [1, 0, 0], "u2": [0, 0.6, 0.8],
                    "f1": [[0.1, 0.5], [0.3, 0.2]], "f2": [[0.0, 1.0, 0.2], [0.1, 0.0, 0.0]]},
    "explicit.json": EXPLICIT,
}
# {model kind: (model file, theta)}: each gives a bounds and a classify --grid 11 output.
SMALL_POINTS = {"generic_z": ("gz02.json", THETA), "unitary": ("unitary.json", "1.1,0.6"),
                "planar": ("planar.json", "0.3,-0.2"), "explicit": ("explicit.json", "0.2,0.3")}


def _bounds_at(model: str, theta: str = THETA, weight: str = WEIGHT) -> list:
    return ["bounds", "--model", model, "--theta", theta, "--weight", weight]


def _theta_grid(model: str, weight: str = WEIGHT, grid: str = "3") -> list:
    return ["sweep-theta", "--model", model, "--weight", weight, "--grid", grid]


# {file name in tests/golden/: CLI arguments} of the outputs kept as full text.
SMALL = {
    **{f"bounds_{kind}.json": _bounds_at(model, theta)
       for kind, (model, theta) in SMALL_POINTS.items()},
    **{f"classify_{kind}.json": ["classify", "--model", model, "--theta", theta, "--grid", "11"]
       for kind, (model, theta) in SMALL_POINTS.items()},
    **{f"{path}_grid11.csv": [*PATHS[path], "--grid", "11"]
       for path in ("sweep_weight_53", "sweep_weight_42", "sweep_theta")},
    **{f"sweep_theta_{kind}_grid11.csv": _theta_grid(SMALL_POINTS[kind][0], grid="11")
       for kind in ("planar", "explicit")},
}
# The refusal corpus: {model file name: descriptor, or the raw text of a file
# that is not JSON} and {case name: CLI arguments}, run in the models' directory.
REFUSAL_MODELS = {
    "not_json.json": "{kind: generic_z",
    "list.json": [{"kind": "generic_z", "theta0": 0.2}],
    "unknown_kind.json": {"kind": "helix"},
    "gz_height.json": {"kind": "generic_z", "theta0": 1.5},
    "unitary_radius.json": {"kind": "unitary", "radius": 1.2},
    "explicit_no_components.json": {"kind": "explicit"},
    "explicit_two_components.json": {"kind": "explicit", "components": [
        [[0.1, 0.0], [1.0, 0.0]], [[0.2, 1.0]]]},
    "infinite_domain.json": {"kind": "generic_z", "theta0": 0.2,
                             "domain": {"theta1": [-1e999, 0.5], "theta2": [-0.5, 0.5]}},
    "tiny_derivatives.json": {"kind": "explicit", "components": [
        [[0.1, 0.0], [1e-80, 0.0]], [[0.2, 1e-80], [0.0, 0.0]], [[0.3]]]},
    "huge_derivatives.json": {"kind": "explicit", "components": [
        [[0.1, 0.0], [1e80, 0.0]], [[0.2, 1e80], [0.0, 0.0]], [[0.3]]]},
    "overflowing_coefficients.json": {"kind": "explicit", "components": [
        [[0.1, 0], [1e200, 0]], [[0.2, 1e200], [0, 0]], [[0.3]]]},
    "dependent_derivatives.json": {"kind": "explicit", "components": [
        [[0.1, 0], [0, 0], [1, 0]], [[0.2, 0, 1]], [[0.3]]]},
}

REFUSALS = {
    "weight-nan": _bounds_at("gz02.json", weight="nan,0,1"),
    "weight-inf": _bounds_at("gz02.json", weight="1,0,inf"),
    "weight-indefinite": _bounds_at("gz02.json", weight="1,2,1"),
    "weight-underflowing": _bounds_at("gz02.json", weight="1e-170,0,1e-170"),
    "weight-overflowing": _bounds_at("gz02.json", weight="1e160,0,1e160"),
    "sweep-theta-weight-overflowing": _theta_grid("gz023.json", weight="1e160,0,1e160"),
    "sweep-weight-42-huge-w2": ["sweep-weight", "--model", "gz02.json", "--theta", THETA,
                                "--weight-family", "42", "--w2-min", "1e160", "--w2-max",
                                "1e161", "--grid", "3"],
    "sweep-weight-53-w2-option": ["sweep-weight", "--model", "gz02.json", "--theta", THETA,
                                  "--w2-min", "0.5", "--grid", "3"],
    "generic-z-height": _bounds_at("gz_height.json"),
    "unitary-radius": _bounds_at("unitary_radius.json", theta="1.1,0.6"),
    "theta-outside-domain": _bounds_at("gz02.json", theta="2,0"),
    "model-not-json": _bounds_at("not_json.json"),
    "model-json-list": _bounds_at("list.json"),
    "model-unknown-kind": _bounds_at("unknown_kind.json"),
    "explicit-without-components": _bounds_at("explicit_no_components.json"),
    "explicit-two-components": _bounds_at("explicit_two_components.json"),
    "model-infinite-domain": _bounds_at("infinite_domain.json"),
    "model-file-missing": _bounds_at("missing.json"),
    "sweep-weight-grid-1": ["sweep-weight", "--model", "gz02.json", "--theta", THETA,
                            "--grid", "1"],
    "sweep-theta-grid-1": _theta_grid("gz023.json", grid="1"),
    "tiny-derivatives": _bounds_at("tiny_derivatives.json", theta="0,0"),
    "tiny-derivatives-sweep-weight": ["sweep-weight", "--model", "tiny_derivatives.json",
                                      "--theta", "0.1,0.1", "--grid", "3"],
    # |d1s x d2s|^2 overflows: refused where the Bloch scalars are made (these
    # exited 0 once, printing all-zero bounds or the label asymptotically_classical).
    "huge-derivatives": _bounds_at("huge_derivatives.json", theta="0,0"),
    "huge-derivatives-classify": ["classify", "--model", "huge_derivatives.json",
                                  "--theta", "0,0"],
    "huge-derivatives-sweep-theta": _theta_grid("huge_derivatives.json"),
    "point-outside-ball": _bounds_at("huge_derivatives.json", theta="0.1,0.1"),
    # |s|^2 overflows away from theta = (0, 0), and the derivatives everywhere.
    "overflowing-coefficients": _bounds_at("overflowing_coefficients.json", theta="0.1,0.1"),
    "overflowing-coefficients-sweep-theta": _theta_grid("overflowing_coefficients.json"),
    "overflowing-coefficients-classify": ["classify", "--model", "overflowing_coefficients.json",
                                          "--grid", "3"],
    # d2s = 0 on theta2 = 0: a DegenerateModelError names its cell, as a DomainError does.
    "dependent-derivatives-sweep-theta": _theta_grid("dependent_derivatives.json"),
    "dependent-derivatives-classify": ["classify", "--model", "dependent_derivatives.json",
                                       "--grid", "3"],
    "verify-negative-seed": ["verify", "--seed", "-1", "--count", "2"],
}
REFUSALS_FILE = "refusals.json"
# The outputs kept as full text in tests/golden/.
KEPT = (*SMALL, REFUSALS_FILE)


def _run_script(script: str, args) -> None:
    """``python3 script args`` in this interpreter; sys.argv and sys.path are restored,
    and the modules it loaded from ``perfbench/`` are dropped (its holevo2q imports stay)."""
    saved, loaded = (sys.argv, sys.path[:]), set(sys.modules)
    sys.argv = [script, *args]
    try:
        runpy.run_path(script, run_name="__main__")
    finally:
        sys.argv, sys.path[:] = saved
        for name in set(sys.modules) - loaded:
            path = getattr(sys.modules[name], "__file__", None)
            if path and os.path.dirname(os.path.realpath(path)) == PERFBENCH:
                del sys.modules[name]


def _run_in(work: str, args) -> tuple:
    """(exit code, output bytes, stderr text) of ``args`` run in this interpreter
    in the directory ``work``: a ``tools/`` script through ``_run_script``, else
    ``holevo2q.cli.main``.  The output is the sweep's ``--out`` CSV when one was
    written, else stdout; file names stay relative, so no message names ``work``."""
    from holevo2q.cli import main

    stdout, stderr, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if args[0].endswith(".py"):
                _run_script(os.path.join(HERE, args[0]), args[1:])
                code = 0
            else:
                code = main(args)
    finally:
        os.chdir(home)
    return code, take_out_csv(work, stdout.getvalue().encode()), stderr.getvalue()


def refusals(work: str) -> dict:
    """{case: [exit code, stdout sha256, stderr text]} of the REFUSALS, run in
    the directory ``work``, which receives the model files."""
    write_models(work, {**MODELS, **REFUSAL_MODELS})
    runs = {name: _run_in(work, args) for name, args in REFUSALS.items()}
    return {name: [code, _sha256(out), err] for name, (code, out, err) in runs.items()}


def outputs(work: str) -> dict:
    """{name: output bytes} of the GOLDEN paths, the SMALL outputs and the
    refusal corpus, run in the directory ``work``, which receives the model
    files.  A GOLDEN or SMALL path that exits non-zero or writes to stderr is
    an error."""
    write_models(work, {**MODELS, **SMALL_MODELS})
    result = {}
    for name, args in {**{path: PATHS[path] for path in GOLDEN}, **SMALL}.items():
        code, result[name], err = _run_in(work, args)
        if code or err:
            raise RuntimeError(f"{name}: {' '.join(args)} exited {code}: {err}")
    result[REFUSALS_FILE] = (json.dumps(refusals(work), indent=2) + "\n").encode()
    return result


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _clean_commit():
    """HEAD's commit if ``src/`` matches it, else None."""
    try:
        git = ["git", "-C", ROOT]
        status = subprocess.run([*git, "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, check=True).stdout
        head = subprocess.run([*git, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return None if status.strip() else head


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def write(result: dict) -> bool:
    """Store ``result`` (from :func:`outputs`): the KEPT outputs as text, and the
    manifest unless its numpy and Python versions and every hash already match,
    so that an unchanged manifest keeps its ``commit``.  True if it was written."""
    versions = {"numpy": np.__version__, "python": platform.python_version()}
    hashes = {path: _sha256(result[path]) for path in GOLDEN}
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in KEPT:
        with open(os.path.join(GOLDEN_DIR, name), "wb") as fh:
            fh.write(result[name])
    if os.path.exists(MANIFEST):
        stored = load_manifest()
        if all(stored.get(k) == v for k, v in {**versions, "sha256": hashes}.items()):
            return False
    manifest = {**versions, "machine": f"{platform.system()} {platform.machine()}",
                "commit": _clean_commit(), "sha256": hashes}
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return True


def version_mismatch(manifest: dict):
    """Why the manifest's hashes do not apply under this numpy, or None."""
    here = np.__version__
    if manifest["numpy"] != here:
        return f"manifest written under numpy {manifest['numpy']}, running numpy {here}"
    return None


def _column_diff(commit, path: str, new: bytes) -> str:
    """``sweep_diff.py`` summary of ``new``, the CSV of ``path``, against the
    CSV that the ``src/`` of ``commit`` writes."""
    if commit is None:
        return "  no column diff: the manifest records no commit"
    with tempfile.TemporaryDirectory() as work:
        tree = os.path.join(work, "reference")
        try:
            archive = subprocess.run(["git", "-C", ROOT, "archive", commit, "src"],
                                     capture_output=True, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tree, filter="data")
            write_models(work, MODELS)
            _run(_command(PATHS[path], tree), tree, work)
        except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
            return f"  no column diff: the CSV of {commit} could not be made ({exc})"
        old = take_out_csv(work, b"")
    return sweep_diff.compare(old.decode(), new.decode())[0]


def small_problems(result: dict) -> list:
    """For each KEPT output in ``result`` that differs from its file in
    ``tests/golden/``, a line naming it, then the ``sweep_diff.py`` summary
    (a CSV) or a unified diff (JSON) of the stored text to the new one."""
    problems = []
    for name in KEPT:
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            stored = fh.read()
        new = result[name]
        if new == stored:
            continue
        problems.append(f"{name}: differs from tests/golden/{name}")
        if name.endswith(".csv"):
            problems.append(sweep_diff.compare(stored.decode(), new.decode())[0])
        else:
            problems.extend(difflib.unified_diff(
                stored.decode().splitlines(), new.decode().splitlines(),
                f"tests/golden/{name}", "now", lineterm=""))
    return problems


def check(manifest: dict, result: dict) -> list:
    """One line per GOLDEN output of ``result`` (from :func:`outputs`) whose
    sha256 differs from the manifest, each CSV's followed by its column diff,
    then ``small_problems``; empty when every output matches."""
    problems = []
    for path in GOLDEN:
        got, expected = _sha256(result[path]), manifest["sha256"].get(path)
        if got != expected:
            problems.append(f"{path}: sha256 {got}, manifest {expected}")
            if OUT_CSV in PATHS[path]:
                problems.append(_column_diff(manifest.get("commit"), path, result[path]))
    return problems + small_problems(result)


def main(argv) -> int:
    if argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as work:
            wrote = write(outputs(work))
        print(f"golden: {'wrote' if wrote else 'kept'} {len(GOLDEN)} hashes in {MANIFEST} "
              f"and wrote {len(KEPT)} outputs as text to {GOLDEN_DIR}")
        return 0
    if argv[1:] != ["--check"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    manifest = load_manifest()
    reason = version_mismatch(manifest)
    if reason:
        print(f"golden: nothing compared: {reason}")
        return 0
    with tempfile.TemporaryDirectory() as work:
        problems = check(manifest, outputs(work))
    count = len(manifest["sha256"]) + len(KEPT)
    print("\n".join(problems) or f"golden: all {count} outputs match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
