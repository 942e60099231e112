"""Wall times of the user-visible holevo2q paths, written to a BENCH file.

    python3 tools/bench_summary.py OUT.json NAME=ROOT [NAME=ROOT ...]

Each NAME=ROOT pair is one column: a source tree (ROOT holds ``src/holevo2q``)
measured in fresh interpreters with ``PYTHONPATH=ROOT/src``.  The paths are

* ``import``: ``python -c "import holevo2q.cli"``, the interpreter start and
  package import that every CLI path below pays first;
* ``bounds``: ``holevo2q bounds`` at one point, interpreter start included;
* ``help``, ``help_sweep_weight``: ``holevo2q --help`` and
  ``holevo2q sweep-weight --help``, whose hashes compare the CLI's text
  across columns;
* ``sweep_weight_53``, ``sweep_weight_42``: ``sweep-weight --grid 101`` on
  generic_z theta0=0.2 at theta=(0.2447, 0.2447), both weight families;
* ``sweep_theta``: ``sweep-theta --grid 101`` on generic_z theta0=0.23 at
  W=(0.55, 0.1, 0.45);
* ``classify_grid``: ``classify --grid 101`` on generic_z theta0=0.2;
* ``verify``: ``verify --seed 42 --count 200``;
* ``oracle_values``: ROOT's ``tools/oracle_values.py 21 31 77``, both oracle
  minimizers on the 288 seeded cases of the benchmark's ``oracle`` workload;
* ``tier1``: ``python -m pytest -q --continue-on-collection-errors`` in ROOT,
  run once per column.

Every other path runs REPEATS times, the short start-up paths SHORT_REPEATS
times.  A path's repetitions run back to back, one run per column each, and
the column that runs first alternates between repetitions, so a drift in host
speed reaches every column alike and each repetition is a pair (or tuple) of
adjacent runs.  A column keeps each run's seconds, their median, the number
of repetitions in which it was the fastest column, the sha256 of each path's
output (equal hashes mean byte-identical CSV, JSON or text; a path whose
output differs between repetitions of one column is an error), the tier-1
summary line, and whether the median of every 101x101 sweep is under
SWEEP_TARGET_S (the ROADMAP's 0.4 s target), and the import graphs of
``import holevo2q.cli`` (``import_graph``), of the ``classify_grid`` path
(``import_graph_classify_grid``) and of the ``verify`` path, which loads
``matrix_forms`` and the oracle (``import_graph_verify``): each ``holevo2q``
module it loads with the source lines of its file, and their total.  Columns
already in OUT.json that are not named again are kept; the machine record
(usable cores, Python, numpy) is rewritten.  Standard library only.
"""

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

REPEATS = 5
SHORT_REPEATS = 15
SHORT_PATHS = ("import", "bounds", "help", "help_sweep_weight")
SWEEP_TARGET_S = 0.4
MODELS = {"gz02.json": {"kind": "generic_z", "theta0": 0.2},
          "gz023.json": {"kind": "generic_z", "theta0": 0.23}}
THETA = "0.2447,0.2447"
WEIGHT = "0.55,0.1,0.45"
PATHS = {
    "import": ["-c", "import holevo2q.cli"],
    "bounds": ["bounds", "--model", "gz02.json", "--theta", THETA, "--weight", WEIGHT],
    "help": ["--help"],
    "help_sweep_weight": ["sweep-weight", "--help"],
    "sweep_weight_53": ["sweep-weight", "--model", "gz02.json", "--theta", THETA,
                        "--weight-family", "53", "--out", "out.csv"],
    "sweep_weight_42": ["sweep-weight", "--model", "gz02.json", "--theta", THETA,
                        "--weight-family", "42", "--out", "out.csv"],
    "sweep_theta": ["sweep-theta", "--model", "gz023.json", "--weight", WEIGHT,
                    "--out", "out.csv"],
    "classify_grid": ["classify", "--model", "gz02.json", "--grid", "101"],
    "verify": ["verify", "--seed", "42", "--count", "200"],
    "oracle_values": ["oracle_values.py", "21", "31", "77"],
}


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _command(args, root):
    """Interpreter argv of one path: inline code, a script of ROOT's tools/, or the CLI."""
    if args[0] == "-c":
        return [sys.executable, *args]
    if args[0].endswith(".py"):
        return [sys.executable, os.path.join(root, "tools", args[0]), *args[1:]]
    return [sys.executable, "-m", "holevo2q.cli", *args]


def _run(argv, root, cwd):
    """(seconds, stdout) of one fresh-interpreter run; raises on failure."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=_env(root), capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return seconds, proc.stdout


def _import_graph(root, cwd, cli_args=None):
    """{module: source lines} of the holevo2q modules loaded from ROOT by
    ``import holevo2q.cli`` and, given ``cli_args``, ``holevo2q.cli.main(cli_args)``
    run in ``cwd`` with its stdout dropped, and their total."""
    run = ("" if cli_args is None else
           f"with contextlib.redirect_stdout(io.StringIO()): holevo2q.cli.main({cli_args!r})\n")
    probe = ("import contextlib, io, json, sys, holevo2q.cli\n" + run +
             "print(json.dumps({name: module.__file__ for name, module in sys.modules.items()\n"
             "                  if name.split('.')[0] == 'holevo2q'}))")
    _, stdout = _run([sys.executable, "-c", probe], root, cwd)
    lines = {}
    for name, path in sorted(json.loads(stdout).items()):
        with open(path, encoding="utf-8") as fh:
            lines[name] = sum(1 for _ in fh)
    return {"modules": lines, "source_lines": sum(lines.values())}


def _machine():
    probe = "import numpy; print(numpy.__version__)"
    numpy_version = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                   text=True, check=True).stdout.strip()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"usable_cores": cores, "python": platform.python_version(), "numpy": numpy_version,
            "system": f"{platform.system()} {platform.machine()}"}


def main(argv):
    if len(argv) < 3 or any("=" not in a for a in argv[2:]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_path = argv[1]
    columns = {name: os.path.abspath(root) for name, root in (a.split("=", 1) for a in argv[2:])}
    runs = {name: {path: [] for path in PATHS} for name in columns}
    fastest = {name: dict.fromkeys(PATHS, 0) for name in columns}
    digests = {name: {} for name in columns}
    results = {}
    with tempfile.TemporaryDirectory() as work:
        out_csv = os.path.join(work, "out.csv")
        for filename, desc in MODELS.items():
            with open(os.path.join(work, filename), "w", encoding="utf-8") as fh:
                json.dump(desc, fh)
        for path, args in PATHS.items():
            for rep in range(SHORT_REPEATS if path in SHORT_PATHS else REPEATS):
                order = list(columns) if rep % 2 == 0 else list(reversed(columns))
                seconds_of = {}
                for name in order:
                    seconds, stdout = _run(_command(args, columns[name]), columns[name], work)
                    data = stdout.encode()
                    if os.path.exists(out_csv):  # the sweeps write their CSV here
                        with open(out_csv, "rb") as fh:
                            data = fh.read()
                        os.remove(out_csv)
                    digest = hashlib.sha256(data).hexdigest()
                    if digests[name].setdefault(path, digest) != digest:
                        raise RuntimeError(f"{path} output of column {name} differs "
                                           f"between repetitions")
                    runs[name][path].append(round(seconds, 4))
                    seconds_of[name] = seconds
                fastest[min(seconds_of, key=seconds_of.get)][path] += 1
        for name, root in columns.items():
            cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                   "-p", "no:cacheprovider"]
            seconds, stdout = _run(cmd, root, root)
            paths = {path: {"runs_s": r, "median_s": round(statistics.median(r), 4),
                            "fastest_in": fastest[name][path]}
                     for path, r in runs[name].items()}
            paths["tier1"] = {"runs_s": [round(seconds, 4)], "median_s": round(seconds, 4),
                              "summary": stdout.strip().splitlines()[-1]}
            sweeps = [v["median_s"] for p, v in paths.items() if p.startswith("sweep")]
            results[name] = {"paths": paths, "output_sha256": digests[name],
                             "sweeps_under_target_s": {"target_s": SWEEP_TARGET_S,
                                                       "all": max(sweeps) < SWEEP_TARGET_S},
                             "import_graph": _import_graph(root, work),
                             "import_graph_classify_grid":
                                 _import_graph(root, work, PATHS["classify_grid"]),
                             "import_graph_verify": _import_graph(root, work, PATHS["verify"])}
    record = {}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            record = json.load(fh)
    record["machine"] = _machine()
    record.setdefault("columns", {}).update(results)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, res in results.items():
        medians = ", ".join(f"{p} {v['median_s']:.3f}" for p, v in res["paths"].items())
        graphs = "; ".join(f"{what} loads {len(graph['modules'])} modules, "
                           f"{graph['source_lines']} lines"
                           for what, graph in (("import holevo2q.cli", res["import_graph"]),
                                               ("classify", res["import_graph_classify_grid"]),
                                               ("verify", res["import_graph_verify"])))
        print(f"{name}: {medians} (s); {graphs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
