"""Golden reference outputs of the user-visible holevo2q paths.

    PYTHONPATH=src python3 tools/golden.py --check
    PYTHONPATH=src python3 tools/golden.py --write

Runs the GOLDEN paths of ``tools/bench_summary.py`` (their argument lists and
model files are imported from there) in this interpreter: the CLI paths
through ``holevo2q.cli.main`` with stdout captured, the sweeps' ``--out`` CSV
read back, and ``tools/oracle_values.py`` through ``runpy``.  The sha256 of
each output is the one ``bench_summary.py`` records for the path.

The SMALL outputs (``bounds`` and ``classify --grid 11`` JSON for four model
kinds, the three sweeps at ``--grid 11``) are kept as full text, one file each
in ``tests/golden/``, so a reader sees every byte that a change moves.  So is
the refusal corpus, ``tests/golden/refusals.json``: for each REFUSALS case (a
malformed model file, an out-of-range weight or family parameter, ``--grid 1``,
tiny or huge derivatives, polynomial coefficients whose |s|^2 and derivatives
overflow, a negative ``verify --seed``) its exit code, the sha256 of its stdout and its
stderr text, so a change that moves a refusal shows which.

``--write`` stores the hashes in ``tests/golden/MANIFEST.json``, with the
numpy and Python versions, the machine (operating system and architecture,
recorded only) and, when ``src/`` has no uncommitted change, the commit it
was written at; it also rewrites the SMALL files and the refusal corpus.
``--check`` exits 1 if an output differs from the manifest or from its kept
text.  For a differing hashed CSV it also prints the ``tools/sweep_diff.py``
summary against the CSV that the manifest's commit writes (a ``git archive``
of its ``src/``); for a differing kept text it prints the ``sweep_diff.py``
summary (a CSV) or a unified diff (JSON) against the stored text.  The floats
come from numpy, so under another numpy version ``--check`` compares nothing
and says so.
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
from bench_summary import MODELS, PATHS, THETA, WEIGHT, _command, _run  # noqa: E402

GOLDEN = ("bounds", "sweep_weight_53", "sweep_weight_42", "sweep_theta", "classify_grid",
          "verify", "oracle_values")
OUT_CSV = "out.csv"  # the sweeps' --out file in PATHS, relative to the working directory
SMALL_MODELS = {
    "unitary.json": {"kind": "unitary", "radius": 0.7},
    "planar.json": {"kind": "planar", "u1": [1, 0, 0], "u2": [0, 0.6, 0.8],
                    "f1": [[0.1, 0.5], [0.3, 0.2]], "f2": [[0.0, 1.0, 0.2], [0.1, 0.0, 0.0]]},
    "explicit.json": {"kind": "explicit", "components": [
        [[0.1, 0.4], [0.2, 0.0]], [[0.0, 0.1], [0.5, 0.1]], [[0.3, 0.0], [0.0, 0.2]]]},
}
# {file name in tests/golden/: CLI arguments} of the outputs kept as full text.
SMALL = {
    "bounds_generic_z.json": PATHS["bounds"],
    "bounds_unitary.json": ["bounds", "--model", "unitary.json", "--theta", "1.1,0.6",
                            "--weight", WEIGHT],
    "bounds_planar.json": ["bounds", "--model", "planar.json", "--theta", "0.3,-0.2",
                           "--weight", WEIGHT],
    "bounds_explicit.json": ["bounds", "--model", "explicit.json", "--theta", "0.2,0.3",
                             "--weight", WEIGHT],
    "classify_generic_z.json": ["classify", "--model", "gz02.json", "--theta", THETA,
                                "--grid", "11"],
    "classify_unitary.json": ["classify", "--model", "unitary.json", "--theta", "1.1,0.6",
                              "--grid", "11"],
    "classify_planar.json": ["classify", "--model", "planar.json", "--theta", "0.3,-0.2",
                             "--grid", "11"],
    "classify_explicit.json": ["classify", "--model", "explicit.json", "--theta", "0.2,0.3",
                               "--grid", "11"],
    "sweep_weight_53_grid11.csv": [*PATHS["sweep_weight_53"], "--grid", "11"],
    "sweep_weight_42_grid11.csv": [*PATHS["sweep_weight_42"], "--grid", "11"],
    "sweep_theta_grid11.csv": [*PATHS["sweep_theta"], "--grid", "11"],
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
}


def _bounds_at(model: str, theta: str = THETA, weight: str = WEIGHT) -> list:
    return ["bounds", "--model", model, "--theta", theta, "--weight", weight]


REFUSALS = {
    "weight-nan": _bounds_at("gz02.json", weight="nan,0,1"),
    "weight-inf": _bounds_at("gz02.json", weight="1,0,inf"),
    "weight-indefinite": _bounds_at("gz02.json", weight="1,2,1"),
    "weight-underflowing": _bounds_at("gz02.json", weight="1e-170,0,1e-170"),
    "weight-overflowing": _bounds_at("gz02.json", weight="1e160,0,1e160"),
    "sweep-theta-weight-overflowing": ["sweep-theta", "--model", "gz023.json", "--weight",
                                       "1e160,0,1e160", "--grid", "3"],
    "sweep-weight-42-huge-w2": ["sweep-weight", "--model", "gz02.json", "--theta", THETA,
                                "--weight-family", "42", "--w2-min", "1e160", "--w2-max",
                                "1e161", "--grid", "3"],
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
    "sweep-theta-grid-1": ["sweep-theta", "--model", "gz023.json", "--weight", WEIGHT,
                           "--grid", "1"],
    "tiny-derivatives": _bounds_at("tiny_derivatives.json", theta="0,0"),
    "tiny-derivatives-sweep-weight": ["sweep-weight", "--model", "tiny_derivatives.json",
                                      "--theta", "0.1,0.1", "--grid", "3"],
    # |d1s x d2s|^2 overflows: refused where the Bloch scalars are made (these
    # exited 0 once, printing all-zero bounds or the label asymptotically_classical).
    "huge-derivatives": _bounds_at("huge_derivatives.json", theta="0,0"),
    "huge-derivatives-classify": ["classify", "--model", "huge_derivatives.json",
                                  "--theta", "0,0"],
    "huge-derivatives-sweep-theta": ["sweep-theta", "--model", "huge_derivatives.json",
                                     "--weight", WEIGHT, "--grid", "3"],
    "point-outside-ball": _bounds_at("huge_derivatives.json", theta="0.1,0.1"),
    # |s|^2 overflows away from theta = (0, 0), and the derivatives everywhere.
    "overflowing-coefficients": _bounds_at("overflowing_coefficients.json", theta="0.1,0.1"),
    "overflowing-coefficients-sweep-theta": ["sweep-theta", "--model",
                                             "overflowing_coefficients.json", "--weight",
                                             WEIGHT, "--grid", "3"],
    "overflowing-coefficients-classify": ["classify", "--model", "overflowing_coefficients.json",
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


def _write_models(work: str, models: dict) -> None:
    for filename, desc in models.items():
        with open(os.path.join(work, filename), "w", encoding="utf-8") as fh:
            fh.write(desc if isinstance(desc, str) else json.dumps(desc))


def refusals(work: str) -> dict:
    """{case: [exit code, stdout sha256, stderr text]} of the REFUSALS, run
    through ``holevo2q.cli.main`` in the directory ``work``, which receives the
    model files; file names stay relative, so no message names ``work``."""
    from holevo2q.cli import main

    _write_models(work, {**MODELS, **REFUSAL_MODELS})
    result = {}
    with contextlib.chdir(work):
        for name, args in REFUSALS.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(args)
            result[name] = [code, _sha256(stdout.getvalue().encode()), stderr.getvalue()]
    return result


def outputs(work: str) -> dict:
    """{name: output bytes} of the GOLDEN paths, the SMALL outputs and the
    refusal corpus, with the model files and the sweeps' CSV in the directory
    ``work``."""
    from holevo2q.cli import main

    models = {**MODELS, **SMALL_MODELS}
    _write_models(work, models)
    out_csv = os.path.join(work, OUT_CSV)
    result = {}
    for name, path_args in {**{path: PATHS[path] for path in GOLDEN}, **SMALL}.items():
        args = [os.path.join(work, a) if a in models or a == OUT_CSV else a for a in path_args]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            if args[0].endswith(".py"):
                _run_script(os.path.join(HERE, args[0]), args[1:])
            elif main(args) != 0:
                raise RuntimeError(f"{name}: holevo2q {' '.join(args)} failed")
        result[name] = stdout.getvalue().encode()
        if os.path.exists(out_csv):
            with open(out_csv, "rb") as fh:
                result[name] = fh.read()
            os.remove(out_csv)
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


def write_manifest() -> dict:
    with tempfile.TemporaryDirectory() as work:
        result = outputs(work)
    hashes = {path: _sha256(result[path]) for path in GOLDEN}
    manifest = {"numpy": np.__version__, "python": platform.python_version(),
                "machine": f"{platform.system()} {platform.machine()}",
                "commit": _clean_commit(), "sha256": hashes}
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    for name in KEPT:
        with open(os.path.join(GOLDEN_DIR, name), "wb") as fh:
            fh.write(result[name])
    return manifest


def version_mismatch(manifest: dict):
    """Why the manifest's hashes do not apply under this numpy, or None."""
    here = np.__version__
    if manifest["numpy"] != here:
        return f"manifest written under numpy {manifest['numpy']}, running numpy {here}"
    return None


def _sweep_summary(old: bytes, new: bytes, work: str) -> str:
    """``sweep_diff.py`` summary of the CSV ``new`` against the CSV ``old``."""
    files = os.path.join(work, "golden.csv"), os.path.join(work, "new.csv")
    for name, data in zip(files, (old, new)):
        with open(name, "wb") as fh:
            fh.write(data)
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        sweep_diff.main(["sweep_diff.py", *files])
    return summary.getvalue().rstrip()


def _column_diff(commit, path: str, new: bytes, work: str) -> str:
    """``sweep_diff.py`` summary of ``new``, the CSV of ``path``, against the
    CSV that the ``src/`` of ``commit`` writes."""
    if commit is None:
        return "  no column diff: the manifest records no commit"
    tree = os.path.join(work, "reference")
    try:
        archive = subprocess.run(["git", "-C", ROOT, "archive", commit, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        _run(_command(PATHS[path], tree), tree, work)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        return f"  no column diff: the CSV of {commit} could not be made ({exc})"
    with open(os.path.join(work, OUT_CSV), "rb") as fh:
        old = fh.read()
    os.remove(os.path.join(work, OUT_CSV))
    return _sweep_summary(old, new, work)


def small_problems(result: dict, work: str) -> list:
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
            problems.append(_sweep_summary(stored, new, work))
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
    with tempfile.TemporaryDirectory() as work:
        for path in GOLDEN:
            got, expected = _sha256(result[path]), manifest["sha256"].get(path)
            if got != expected:
                problems.append(f"{path}: sha256 {got}, manifest {expected}")
                if OUT_CSV in PATHS[path]:
                    problems.append(_column_diff(manifest.get("commit"), path, result[path],
                                                 work))
        problems.extend(small_problems(result, work))
    return problems


def main(argv) -> int:
    if argv[1:] == ["--write"]:
        manifest = write_manifest()
        print(f"golden: wrote {len(manifest['sha256'])} hashes to {MANIFEST} "
              f"and {len(KEPT)} outputs as text to {GOLDEN_DIR}")
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
