"""holevo2q benchmark: closed-loop workloads through ``holevo2q.cli.main`` and
the density-matrix oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-weight --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh child interpreter (``perfbench/child.py``),
one child at a time, with ``src`` on PYTHONPATH and BLAS threads pinned to 1.
Repetitions start until ``--seconds`` is used up.  Timings are medians over
the repetitions of each input set, averaged over the sets, in
host-speed-normalised reference seconds.  The seeded inputs are derived from
``--seed`` alone and printed with 17 significant digits so any run can be
replayed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead against the untraced ones.  After the
timed loop every output is checked (``checks.py``); the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (inputs, machine, per-repetition samples) is
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import BRANCHES, FUNCTION_STATS, NELDER_MEAD, TARGETS  # noqa: E402

WORKLOADS = ("sweep-weight", "sweep-theta", "oracle")
# A sweep repetition takes ~1 s of wall time on a 2-vCPU Xeon box, so a 30 s
# run holds ~20 repetitions for the medians.  Host speed is sampled only
# around a sweep (see ``measure``), so longer ones would be normalised worse.
WEIGHT_GRID = 31  # two 31x31 weight families per repetition
THETA_GRID = 31
# An oracle case takes ~70 ms, and its Nelder-Mead work varies by ~15% from
# case to case even within one branch, so the figures average over many
# cases: the repetitions run sets of ORACLE_SET cases in turn, with the host
# speed probed between cases.
ORACLE_GRID = (4, 4, 6)  # radius x anisotropy x relative angle cells
ORACLE_CASES = math.prod(ORACLE_GRID)
ORACLE_SET = 24
ORACLE_S_MAX = 0.85  # Bloch radius of the oracle cases, inside the mixed disk
ORACLE_W_MAX = 0.9  # weight anisotropy of the oracle cases
ORACLE_SAMPLES = 12  # cells per workload recomputed by the oracle
W_MAX, W2_MIN, W2_MAX = 0.99, 0.05, 1.95
MIN_REPS = 3
# Host speed on shared machines drifts by +-20% over seconds to minutes, far
# more than the bounds allow.  Timings are therefore reported in reference
# seconds: measured seconds x scale (see ``measure``).  The reference is the
# calibration loop's typical time on the 2-vCPU Xeon box the bounds were set
# on, so reference seconds read close to measured seconds there.
REFERENCE_CALIBRATION_S = 0.012
CHILD_TIMEOUT_S = 60  # a repetition takes ~1 s; keeps a run under 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
_STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
               "p50_us": "us", "p99_us": "us", "errors": "count"}
PER_LAYER = {
    **{f"{name}.{stat}": _STAT_UNITS[stat] for name in TARGETS for stat in FUNCTION_STATS},
    f"{NELDER_MEAD}.calls": "count",
    f"{NELDER_MEAD}.nfev": "count",
    f"{NELDER_MEAD}.self_s": "s",
    "cli.self_s": "s",
    "cli.emit.bytes": "B",
    "cli.skipped_cells": "count",
    **{f"bounds.branch.{b}": "count" for b in BRANCHES},
    "import.scipy_optimize_loaded": "bool",
    "import.modules_loaded": "count",
    "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def fmt(x):
    """Floats, also inside lists, as 17-significant-digit strings."""
    if isinstance(x, list):
        return [fmt(v) for v in x]
    return f"{x:.17g}" if isinstance(x, float) else x


def make_inputs(workload: str, seed: int) -> dict:
    """Seeded inputs; the same seed gives the same inputs on every machine."""
    rng = random.Random(seed)
    theta0 = rng.uniform(0.15, 0.35)
    if workload == "oracle":
        return {"theta0": theta0, "cases": oracle_cases(rng, theta0)}
    if workload == "sweep-weight":
        # Both components nonzero (a generic point) and |s| <= 0.73.
        theta = [rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.45) for _ in range(2)]
        return {"theta0": theta0, "theta": theta}
    w11 = rng.uniform(0.3, 0.7)
    w22 = 1.0 - w11
    w12 = rng.uniform(-0.3, 0.3) * math.sqrt(w11 * w22)
    return {"theta0": theta0, "weight": [w11, w12, w22]}


def oracle_cases(rng: random.Random, theta0: float) -> list[list[float]]:
    """``[theta1, theta2, w11, w12, w22]`` per case: theta in the disk
    ``|s| <= ORACLE_S_MAX`` and a rotated trace-one weight.

    The model is symmetric under rotations about z, so theta's radius, the
    weight's anisotropy and its angle relative to theta's decide the case,
    and with it the branch and most of the Nelder-Mead work (~400 evaluations
    per rld case, ~650 per correction case).  Those three are drawn once in
    each cell of a fixed ``ORACLE_GRID`` grid, so every seed gets much the
    same mix of cases; theta's own angle is stratified and shuffled."""
    n_r, n_w, n_delta = ORACLE_GRID
    r_min_sq, r_max_sq = 0.01, ORACLE_S_MAX**2 - theta0**2
    phis = [2.0 * math.pi * (i + rng.random()) / ORACLE_CASES for i in range(ORACLE_CASES)]
    rng.shuffle(phis)
    cases = []
    for i in range(n_r):
        for j in range(n_w):
            for k in range(n_delta):
                r = math.sqrt(r_min_sq + (r_max_sq - r_min_sq) * (i + rng.random()) / n_r)
                w = ORACLE_W_MAX * (2.0 * (j + rng.random()) / n_w - 1.0)
                delta = math.pi * (k + rng.random()) / n_delta
                phi = phis[len(cases)]
                weight = _weight_53(w, phi + delta)
                cases.append([r * math.cos(phi), r * math.sin(phi), *weight])
    rng.shuffle(cases)
    return cases


def build_plan(workload: str, inputs: dict, tmp: str) -> dict:
    """Model file, output files, items per repetition, and ``input_sets``:
    the CLI argument lists and oracle cases of a repetition, used in turn."""
    plan = {"spans": os.path.join(".bench_out", f"spans-{workload}.csv")}
    model = os.path.join(tmp, "model.json")
    with open(model, "w", encoding="utf-8") as fh:
        json.dump({"kind": "generic_z", "theta0": inputs["theta0"]}, fh)
    if workload == "oracle":
        cases = inputs["cases"]
        sets = [{"argvs": [], "cases": cases[i:i + ORACLE_SET]}
                for i in range(0, len(cases), ORACLE_SET)]
        return {**plan, "input_sets": sets, "model": model, "outputs": [],
                "items": ORACLE_SET}
    if workload == "sweep-weight":
        theta = ",".join(repr(t) for t in inputs["theta"])
        base = ["sweep-weight", "--model", model, f"--theta={theta}",
                "--grid", str(WEIGHT_GRID), "--w-max", repr(W_MAX)]
        outputs = [os.path.join(tmp, "w53.csv"), os.path.join(tmp, "w42.csv")]
        argvs = [
            base + ["--weight-family", "53", "--out", outputs[0]],
            base + ["--weight-family", "42", "--w2-min", repr(W2_MIN),
                    "--w2-max", repr(W2_MAX), "--out", outputs[1]],
        ]
        return {**plan, "input_sets": [{"argvs": argvs, "cases": []}], "model": model,
                "outputs": outputs, "items": 2 * WEIGHT_GRID**2}
    out = os.path.join(tmp, "theta.csv")
    argv = ["sweep-theta", "--model", model,
            "--weight=" + ",".join(repr(w) for w in inputs["weight"]),
            "--grid", str(THETA_GRID), "--out", out]
    return {**plan, "input_sets": [{"argvs": [argv], "cases": []}], "model": model,
            "outputs": [out], "items": THETA_GRID**2}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in BLAS_VARS})
    return env


def run_child(plan: dict, tmp: str, index: int, input_set: int, traced: bool,
              env: dict) -> dict:
    spec = {
        **plan["input_sets"][input_set],
        "model": plan["model"],
        "trace": traced,
        "result": os.path.join(tmp, f"result{index}.json"),
        "spans": plan["spans"],
    }
    spec_path = os.path.join(tmp, f"spec{index}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = wall
    result["traced"] = traced
    result["input_set"] = input_set
    result["stdout"] = proc.stdout.decode()
    digest = hashlib.sha256(proc.stdout)
    for path in plan["outputs"]:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    result["digest"] = digest.hexdigest()
    result["emit_bytes"] = (sum(os.path.getsize(p) for p in plan["outputs"])
                            if plan["outputs"] else len(proc.stdout))
    return result


def warm_up(env: dict) -> None:
    """Untimed import: writes bytecode and fills the page cache."""
    subprocess.run([sys.executable, "-c", "import holevo2q.cli"], env=env,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True)


def measure(plan: dict, tmp: str, seconds: float, trace: bool) -> list[dict]:
    """Run repetitions until ``seconds`` are used.

    The parent and its children are pinned to one CPU.  Each child times a
    fixed calibration loop before set-up, between set-up and work, between
    oracle cases, and after work; a segment's scale is the reference loop
    time over the mean of the two loop times around it, and ``work_scale``
    is the time-weighted scale of the work segments.  ``wall_s`` excludes
    the loops.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    warm_up(env)
    reps: list[dict] = []
    min_reps = max(MIN_REPS, len(plan["input_sets"])) * (2 if trace else 1)
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        input_set = sum(r["traced"] == traced for r in reps) % len(plan["input_sets"])
        rep = run_child(plan, tmp, len(reps), input_set, traced, env)
        cal, segments = rep["calibration"], rep["segments"]
        scales = [REFERENCE_CALIBRATION_S / (0.5 * (a + b)) for a, b in zip(cal, cal[1:])]
        rep["setup_scale"] = scales[0]
        rep["work_scale"] = sum(t * k for t, k in zip(segments[1:], scales[1:])) / rep["work_s"]
        rep["wall_scale"] = REFERENCE_CALIBRATION_S / statistics.mean(cal)
        rep["wall_s"] -= rep["calibration_s"]
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= min_reps and elapsed + typical > seconds:
            return reps


def _weight_53(w: float, omega: float) -> tuple[float, float, float]:
    """Rotated trace-one weight ``(w11, w12, w22)``, built independently of the
    package."""
    c, s = math.cos(omega), math.sin(omega)
    l1, l2 = 0.5 * (1.0 + w), 0.5 * (1.0 - w)
    return (c * c * l1 + s * s * l2, c * s * (l1 - l2), s * s * l1 + c * c * l2)


def check_outputs(workload: str, inputs: dict, plan: dict, reps: list[dict],
                  seed: int) -> tuple[checks.Tally, dict]:
    tally = checks.Tally()
    info: dict = {}
    first = {}
    for r in reps:
        tally.check(all(code == 0 for code in r["exit_codes"]), f"exit codes {r['exit_codes']}")
        expected = first.setdefault(r["input_set"], r["digest"])
        tally.check(r["digest"] == expected, "output differs between repetitions")
    sys.path.insert(0, os.path.abspath("src"))
    import numpy as np
    from holevo2q.bloch import BlochModelPoint
    from holevo2q.bounds import WeightMatrix, boundary_weight_family, holevo_bound
    from holevo2q.fisher import fisher_bundle
    import holevo2q.bloch
    import holevo2q.bounds

    # The package's own thresholds, so the checks follow a later retuning.
    boundary_rtol = getattr(holevo2q.bounds, "BOUNDARY_RTOL", 1e-9)
    shell_tol = getattr(holevo2q.bloch, "PURE_SHELL_TOL", 1e-12)
    rng = random.Random(seed)
    theta0 = inputs["theta0"]
    e1, e2 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)

    def point(t1, t2):
        return BlochModelPoint(s=(t1, t2, theta0), d1s=e1, d2s=e2)

    samples = []
    if workload == "oracle":
        # The child printed the oracle's values; the closed form is computed here.
        stdout = {r["input_set"]: r["stdout"] for r in reps}
        results = []
        for i, input_set in enumerate(plan["input_sets"]):
            cases = input_set["cases"]
            values = checks.read_oracle_values(stdout[i], len(cases), tally)
            for (t1, t2, *weight), (value_2d, value_6d) in zip(cases, values):
                p = point(t1, t2)
                report = holevo_bound(fisher_bundle(p), WeightMatrix(*weight))
                results.append((p, report.c_h, report.c_z, value_2d, value_6d))
        info.update(checks.compare_oracle(results, tally, workload))
        info["skipped_cells"] = 0
        return tally, info
    if workload == "sweep-weight":
        first = np.linspace(-W_MAX, W_MAX, WEIGHT_GRID)
        families = [
            ("53", ("w", "omega"), np.linspace(0.0, 2.0 * np.pi, WEIGHT_GRID, endpoint=False)),
            ("42", ("w", "w2"), np.linspace(W2_MIN, W2_MAX, WEIGHT_GRID)),
        ]
        p = point(*inputs["theta"])
        fb = fisher_bundle(p)
        rows_total = 0
        for (family, coords, second), path in zip(families, plan["outputs"]):
            label = f"sweep-weight/{family}"
            rows = checks.read_csv(path, "sweep-weight", coords, tally)
            rows_total += len(rows)
            checks.check_rows(rows, [(a, b) for a in first for b in second], tally, label)
            checks.check_bounds(rows, boundary_rtol, tally, label)
            for r in rng.sample(rows, min(len(rows), ORACLE_SAMPLES // 2)):
                a, b = r[coords[0]], r[coords[1]]
                weight = (WeightMatrix(*_weight_53(a, b)) if family == "53"
                          else boundary_weight_family(fb, a, b))
                samples.append((p, weight, r["c_h"], r["c_z"]))
            info[f"rows_{family}"] = len(rows)
        info["skipped_cells"] = plan["items"] - rows_total
    else:
        axis = np.linspace(-math.sqrt(1.0 - theta0**2), math.sqrt(1.0 - theta0**2), THETA_GRID)
        cells = [(a, b) for a in axis for b in axis]
        # Grid cells on the pure shell (e.g. 3-4-5 triples of the axis) are
        # skipped by the CLI, as every cell outside the mixed disk is.
        kept = [(a, b) for a, b in cells
                if a * a + b * b + theta0 * theta0 < (1.0 - shell_tol) ** 2]
        rows = checks.read_csv(plan["outputs"][0], "sweep-theta", ("theta1", "theta2"), tally)
        checks.check_rows(rows, kept, tally, "sweep-theta")
        checks.check_bounds(rows, boundary_rtol, tally, "sweep-theta")
        weight = WeightMatrix(*inputs["weight"])
        for r in rng.sample(rows, min(len(rows), ORACLE_SAMPLES)):
            samples.append((point(r["theta1"], r["theta2"]), weight, r["c_h"], r["c_z"]))
        info["rows"] = len(rows)
        info["skipped_cells"] = len(cells) - len(rows)
    info.update(checks.check_oracle(samples, tally, workload))
    return tally, info


def per_set(reps: list[dict], fn) -> list[float]:
    """Median of ``fn`` over the repetitions of each input set."""
    sets = sorted({r["input_set"] for r in reps})
    return [statistics.median(fn(r) for r in reps if r["input_set"] == s) for s in sets]


def end_to_end_metrics(reps: list[dict], items: int) -> dict:
    """Per-set medians, averaged over the input sets: one repetition's worth."""
    runs = [r for r in reps if not r["traced"]]
    med = {k: statistics.mean(per_set(runs, lambda r: r[k] * r[k.replace("_s", "_scale")]))
           for k in ("wall_s", "setup_s", "work_s")}
    med["items_per_s"] = items / med["work_s"]
    med["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    return med


def per_layer_metrics(reps: list[dict], info: dict) -> dict:
    """Per-layer figures for one pass over every input set: counts from the
    last traced repetition of each set, times as per-set medians, summed."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    last = list({r["input_set"]: r for r in traced}.values())

    def total(fn):
        return sum(fn(r) for r in last)

    def med(fn):
        """A time of one pass over the traced repetitions, in reference units."""
        return sum(per_set(traced, lambda r: fn(r) * r["work_scale"]))

    out = {}
    for name in TARGETS:
        for stat in FUNCTION_STATS:
            if stat in ("calls", "errors"):
                out[f"{name}.{stat}"] = total(lambda r: r["trace"]["functions"][name][stat])
            elif stat in ("p50_us", "p99_us"):
                out[f"{name}.{stat}"] = statistics.median(
                    r["trace"]["functions"][name][stat] * r["work_scale"] for r in traced)
            else:
                out[f"{name}.{stat}"] = med(lambda r: r["trace"]["functions"][name][stat])
    out[f"{NELDER_MEAD}.calls"] = total(lambda r: r["trace"]["functions"][NELDER_MEAD]["calls"])
    out[f"{NELDER_MEAD}.nfev"] = total(lambda r: r["trace"]["functions"][NELDER_MEAD]["nfev"])
    out[f"{NELDER_MEAD}.self_s"] = med(lambda r: r["trace"]["functions"][NELDER_MEAD]["self_s"])
    out["cli.self_s"] = med(lambda r: sum(
        f["self_s"] for n, f in r["trace"]["functions"].items() if n.startswith("cli.")))
    out["cli.emit.bytes"] = total(lambda r: r["emit_bytes"])
    out["cli.skipped_cells"] = info["skipped_cells"]
    for b in BRANCHES:
        out[f"bounds.branch.{b}"] = total(lambda r: r["trace"]["branches"][b])
    # From untraced repetitions: the tracer's own imports precede set-up.
    out["import.scipy_optimize_loaded"] = int(plain[-1]["scipy_optimize_loaded"])
    out["import.modules_loaded"] = plain[-1]["modules_loaded"]
    plain_work = sum(per_set(plain, lambda r: r["work_s"] * r["work_scale"]))
    out["trace.overhead_frac"] = med(lambda r: r["work_s"]) / plain_work - 1.0
    return out


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "blas_env_inherited": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_env_child": {v: "1" for v in BLAS_VARS},
    }


def git_commit() -> str | None:
    """HEAD of a git checkout in the working directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "holevo2q", "cli.py")):
        print("run from the repository root: src/holevo2q/cli.py not found", file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed)
    machine = machine_record()
    os.makedirs(".bench_out", exist_ok=True)
    tmp = os.path.join(".bench_out", f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        plan = build_plan(args.workload, inputs, tmp)
        reps = measure(plan, tmp, args.seconds, bool(args.trace))
        tally, info = check_outputs(args.workload, inputs, plan, reps, args.seed)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        values, units = per_layer_metrics(reps, info), PER_LAYER
    else:
        values, units = end_to_end_metrics(reps, plan["items"]), END_TO_END
    n = sum(1 for r in reps if r["traced"] == bool(args.trace))
    print(f"workload {args.workload} seed {args.seed}: {plan['items']} items per repetition;"
          f" timings are per-input-set medians of {n} repetitions ({len(reps)} run),"
          " in reference seconds")
    print("inputs " + json.dumps({k: fmt(v) for k, v in inputs.items()}))
    print("machine " + json.dumps(machine))
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed")
    for message in tally.messages:
        print(f"  FAILED: {message}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "machine": machine,
        "checks": {"attempted": tally.attempted, "failed": tally.failed,
                   "messages": tally.messages, **info},
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, v in values.items()},
        "repetitions": [{k: r[k] for k in ("traced", "wall_s", "setup_s", "work_s",
                                           "peak_rss_mb", "modules_loaded", "input_set", "calibration",
                                           "setup_scale", "work_scale", "wall_scale")}
                        for r in reps],
    }
    path = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
