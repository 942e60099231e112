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
* ``sweep_theta_1001``: the same sweep at ``--grid 1001`` (785,321 rows, a
  181 MB CSV), the path whose peak RSS shows how the CSV emitter scales;
* ``classify_grid``: ``classify --grid 101`` on generic_z theta0=0.2;
* ``verify``: ``verify --seed 42 --count 200``;
* ``oracle_values``: ROOT's ``tools/oracle_values.py 21 31 77``, both oracle
  minimizers on the 288 seeded cases of the benchmark's ``oracle`` workload;
* ``tier1``: ``python -m pytest -q --continue-on-collection-errors`` in ROOT,
  run once per column.

The ``kernel`` entry of a column times the library's kernels with ``timeit``:
``fisher_bundle_many`` and ``holevo_bounds_many`` on KERNEL_CELLS seeded
generic cells (s uniform in the ball of radius 0.9, normal derivatives, one
random positive-definite weight per cell), ``holevo_bound`` on the first of
them, and ``explicit_evaluate_many``, the family layer: ``evaluate_many`` of
the EXPLICIT model (``tools/golden.py``'s explicit model) on a 101 x 101 grid
of its domain.  Each measurement is the minimum per call over KERNEL_TIMEIT
rounds, taken in a fresh interpreter; it is repeated KERNEL_REPEATS times, the
column that runs first alternating as for the paths, and the column keeps
each run's seconds and their minimum and median.

Every other path runs REPEATS times, the short start-up paths SHORT_REPEATS
times and the LARGE_PATHS LARGE_REPEATS times.  A path's repetitions run back
to back, one run per column each, and the column that runs first alternates
between repetitions, so a drift in host speed reaches every column alike and
each repetition is a pair (or tuple) of adjacent runs.  A column keeps each
run's seconds and peak RSS (the child's ``ru_maxrss`` from ``os.wait4``, in
MiB), their medians, the number of repetitions in which it was the fastest
column, the sha256 of each path's output (equal hashes mean byte-identical
CSV, JSON or text; a path whose output differs between repetitions of one
column is an error), the tier-1 summary line, and the import graphs of
``import holevo2q.cli`` (``import_graph``), of the ``classify_grid`` path
(``import_graph_classify_grid``) and of the ``verify`` path, which loads
``matrix_forms`` and the oracle (``import_graph_verify``): each ``holevo2q``
module it loads with the source lines of its file, and their total.  It also
keeps ``src_lines``, the total lines of ROOT's ``src/holevo2q/*.py``, and
``src_bytes``, each of those files' size in bytes and their total: children
that compile ``src/`` from source (``PYTHONDONTWRITEBYTECODE=1``) reach a
peak RSS that steps with the source bytes, not its lines.  Columns
already in OUT.json that are not named again are kept; the machine record
(usable cores, Python, numpy) is rewritten, and so is ``rss_floor_mb``, this
script's own peak RSS: Linux carries the spawning process's peak into a
child's ``ru_maxrss``, so only a reading above it is the child's own, and
the outputs are hashed in chunks to keep it low.  Standard library only.
``tools/golden.py`` runs the same PATHS on the same MODELS in process, with
the model writer and the ``--out`` CSV read-back defined here.
"""

import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

REPEATS = 11  # odd, so that two columns' fastest_in counts cannot tie
SHORT_REPEATS = 15
SHORT_PATHS = ("import", "bounds", "help", "help_sweep_weight")
LARGE_REPEATS = 3
LARGE_PATHS = ("sweep_theta_1001",)
MODELS = {"gz02.json": {"kind": "generic_z", "theta0": 0.2},
          "gz023.json": {"kind": "generic_z", "theta0": 0.23}}
# The explicit model of tools/golden.py's small outputs, which the kernel entry
# explicit_evaluate_many evaluates on a grid.
EXPLICIT = {"kind": "explicit", "components": [
    [[0.1, 0.4], [0.2, 0.0]], [[0.0, 0.1], [0.5, 0.1]], [[0.3, 0.0], [0.0, 0.2]]]}
THETA = "0.2447,0.2447"
WEIGHT = "0.55,0.1,0.45"
OUT_CSV = "out.csv"  # the sweeps' --out file, relative to the working directory
PATHS = {
    "import": ["-c", "import holevo2q.cli"],
    "bounds": ["bounds", "--model", "gz02.json", "--theta", THETA, "--weight", WEIGHT],
    "help": ["--help"],
    "help_sweep_weight": ["sweep-weight", "--help"],
    "sweep_weight_53": ["sweep-weight", "--model", "gz02.json", "--theta", THETA,
                        "--weight-family", "53", "--out", OUT_CSV],
    "sweep_weight_42": ["sweep-weight", "--model", "gz02.json", "--theta", THETA,
                        "--weight-family", "42", "--out", OUT_CSV],
    "sweep_theta": ["sweep-theta", "--model", "gz023.json", "--weight", WEIGHT,
                    "--out", OUT_CSV],
    "sweep_theta_1001": ["sweep-theta", "--model", "gz023.json", "--weight", WEIGHT,
                         "--grid", "1001", "--out", OUT_CSV],
    "classify_grid": ["classify", "--model", "gz02.json", "--grid", "101"],
    "verify": ["verify", "--seed", "42", "--count", "200"],
    "oracle_values": ["oracle_values.py", "21", "31", "77"],
}

KERNEL_CELLS = 10201  # a 101 x 101 grid's worth
KERNEL_REPEATS = 10
KERNEL_TIMEIT = 15  # timeit rounds per fresh interpreter
# {name: (statement, calls per round)}; the statements read the names KERNEL_SETUP defines.
KERNEL = {"fisher_bundle_many": ("fisher_bundle_many(s, d1, d2)", 20),
          "holevo_bounds_many": ("holevo_bounds_many(fb, w)", 20),
          "holevo_bound": ("holevo_bound(fb1, w1)", 2000),
          "explicit_evaluate_many": ("family.evaluate_many(t1, t2)", 20)}
KERNEL_SETUP = f"""
import numpy as np
from holevo2q.bloch import BlochModelPoint
from holevo2q.bounds import WeightMatrix, holevo_bound, holevo_bounds_many
from holevo2q.fisher import fisher_bundle, fisher_bundle_many
from holevo2q.models import from_descriptor
rng = np.random.default_rng(0)
s = rng.standard_normal(({KERNEL_CELLS}, 3))
s *= 0.9 * rng.random(({KERNEL_CELLS}, 1)) ** (1 / 3) / np.linalg.norm(s, axis=1, keepdims=True)
d1, d2 = rng.standard_normal((2, {KERNEL_CELLS}, 3))
m = rng.standard_normal(({KERNEL_CELLS}, 2, 2))
w = WeightMatrix.from_matrix(np.swapaxes(m, 1, 2) @ m + 0.1 * np.eye(2))
fb = fisher_bundle_many(s, d1, d2)
if (fb.d_invariant | fb.asymptotically_classical).any():
    raise SystemExit("a kernel cell is not generic")
fb1 = fisher_bundle(BlochModelPoint(s[0], d1[0], d2[0]))
w1 = WeightMatrix(float(w.w11[0]), float(w.w12[0]), float(w.w22[0]))
family = from_descriptor({EXPLICIT!r})
t1, t2 = np.meshgrid(*(np.linspace(*interval, 101) for interval in
                       (family.domain.theta1, family.domain.theta2)))
"""


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def write_models(work, models):
    """Write ``models``, {file name: descriptor, or raw text}, into the directory ``work``."""
    for filename, desc in models.items():
        with open(os.path.join(work, filename), "w", encoding="utf-8") as fh:
            fh.write(desc if isinstance(desc, str) else json.dumps(desc))


def take_out_csv(work, stdout):
    """A path's output: the CSV a sweep wrote to OUT_CSV in ``work`` (removed), else ``stdout``."""
    out_csv = os.path.join(work, OUT_CSV)
    if not os.path.exists(out_csv):
        return stdout
    with open(out_csv, "rb") as fh:
        data = fh.read()
    os.remove(out_csv)
    return data


def _output_sha256(work, stdout):
    """The sha256 of a path's output, as :func:`take_out_csv` reads it, with
    the CSV hashed in chunks so that this process's peak RSS stays small."""
    out_csv = os.path.join(work, OUT_CSV)
    if not os.path.exists(out_csv):
        return hashlib.sha256(stdout.encode()).hexdigest()
    with open(out_csv, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    os.remove(out_csv)
    return digest


def _command(args, root):
    """Interpreter argv of one path: inline code, a script of ROOT's tools/, or the CLI."""
    if args[0] == "-c":
        return [sys.executable, *args]
    if args[0].endswith(".py"):
        return [sys.executable, os.path.join(root, "tools", args[0]), *args[1:]]
    return [sys.executable, "-m", "holevo2q.cli", *args]


def _run(argv, root, cwd):
    """(seconds, stdout, peak RSS in MiB) of one fresh-interpreter run; raises on failure."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(root), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        for f in (out, err):
            f.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} in {root} exited {proc.returncode}:\n{stderr}")
    return seconds, stdout, usage.ru_maxrss / 1024  # Linux reports KiB


def _import_graph(root, cwd, cli_args=None):
    """{module: source lines} of the holevo2q modules loaded from ROOT by
    ``import holevo2q.cli`` and, given ``cli_args``, ``holevo2q.cli.main(cli_args)``
    run in ``cwd`` with its stdout dropped, and their total."""
    run = ("" if cli_args is None else
           f"with contextlib.redirect_stdout(io.StringIO()): holevo2q.cli.main({cli_args!r})\n")
    probe = ("import contextlib, io, json, sys, holevo2q.cli\n" + run +
             "print(json.dumps({name: module.__file__ for name, module in sys.modules.items()\n"
             "                  if name.split('.')[0] == 'holevo2q'}))")
    stdout = _run([sys.executable, "-c", probe], root, cwd)[1]
    lines = {name: _lines(path) for name, path in sorted(json.loads(stdout).items())}
    return {"modules": lines, "source_lines": sum(lines.values())}


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _byte_sizes(paths):
    """{file name: size in bytes} of ``paths``, and their total."""
    sizes = {os.path.basename(path): os.path.getsize(path) for path in paths}
    return {"files": sizes, "total": sum(sizes.values())}


def _kernel_seconds(name, root, cwd):
    """Seconds per call of KERNEL[name]: the timeit minimum in a fresh interpreter."""
    stmt, number = KERNEL[name]
    probe = (f"import timeit\nsetup = {KERNEL_SETUP!r}\n"
             f"print(min(timeit.repeat({stmt!r}, setup, number={number}, "
             f"repeat={KERNEL_TIMEIT})) / {number})")
    return float(_run([sys.executable, "-c", probe], root, cwd)[1])


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
    rss = {name: {path: [] for path in PATHS} for name in columns}
    fastest = {name: dict.fromkeys(PATHS, 0) for name in columns}
    digests = {name: {} for name in columns}
    results = {}
    with tempfile.TemporaryDirectory() as work:
        write_models(work, MODELS)
        for path, args in PATHS.items():
            repeats = (SHORT_REPEATS if path in SHORT_PATHS else
                       LARGE_REPEATS if path in LARGE_PATHS else REPEATS)
            for rep in range(repeats):
                order = list(columns) if rep % 2 == 0 else list(reversed(columns))
                seconds_of = {}
                for name in order:
                    seconds, stdout, mib = _run(_command(args, columns[name]), columns[name],
                                                work)
                    digest = _output_sha256(work, stdout)
                    if digests[name].setdefault(path, digest) != digest:
                        raise RuntimeError(f"{path} output of column {name} differs "
                                           f"between repetitions")
                    runs[name][path].append(round(seconds, 4))
                    rss[name][path].append(round(mib, 1))
                    seconds_of[name] = seconds
                fastest[min(seconds_of, key=seconds_of.get)][path] += 1
        kernel = {name: {k: [] for k in KERNEL} for name in columns}
        for kernel_name in KERNEL:
            for rep in range(KERNEL_REPEATS):
                for name in list(columns) if rep % 2 == 0 else list(reversed(columns)):
                    seconds = _kernel_seconds(kernel_name, columns[name], work)
                    kernel[name][kernel_name].append(seconds)
        for name, root in columns.items():
            sources = sorted(glob.glob(os.path.join(root, "src", "holevo2q", "*.py")))
            cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                   "-p", "no:cacheprovider"]
            seconds, stdout, mib = _run(cmd, root, root)
            paths = {path: {"runs_s": r, "median_s": round(statistics.median(r), 4),
                            "fastest_in": fastest[name][path],
                            "peak_rss_mb": rss[name][path],
                            "median_peak_rss_mb": statistics.median(rss[name][path])}
                     for path, r in runs[name].items()}
            paths["tier1"] = {"runs_s": [round(seconds, 4)], "median_s": round(seconds, 4),
                              "peak_rss_mb": [round(mib, 1)], "median_peak_rss_mb": round(mib, 1),
                              "summary": stdout.strip().splitlines()[-1]}
            results[name] = {"paths": paths, "output_sha256": digests[name],
                             "kernel": {k: {"runs_s": r, "min_s": min(r),
                                            "median_s": statistics.median(r)}
                                        for k, r in kernel[name].items()},
                             "import_graph": _import_graph(root, work),
                             "import_graph_classify_grid":
                                 _import_graph(root, work, PATHS["classify_grid"]),
                             "import_graph_verify": _import_graph(root, work, PATHS["verify"]),
                             "src_lines": sum(map(_lines, sources)),
                             "src_bytes": _byte_sizes(sources)}
    record = {}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            record = json.load(fh)
    record["machine"] = _machine()
    record["rss_floor_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.setdefault("columns", {}).update(results)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, res in results.items():
        medians = ", ".join(f"{p} {v['median_s']:.3f} s {v['median_peak_rss_mb']:.0f} MiB "
                            f"(fastest in {v.get('fastest_in', '-')})"
                            for p, v in res["paths"].items())
        graphs = "; ".join(f"{what} loads {len(graph['modules'])} modules, "
                           f"{graph['source_lines']} lines"
                           for what, graph in (("import holevo2q.cli", res["import_graph"]),
                                               ("classify", res["import_graph_classify_grid"]),
                                               ("verify", res["import_graph_verify"])))
        kernels = ", ".join(f"{k} {v['min_s'] * 1e6:.1f}" for k, v in res["kernel"].items())
        print(f"{name}: {medians}; kernel minima {kernels} (us); {graphs}; "
              f"src {res['src_lines']} lines, {res['src_bytes']['total']} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
