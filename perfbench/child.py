"""One benchmark repetition, run in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json`` with ``src`` on PYTHONPATH.
SPEC names the CLI argument lists and the oracle cases to run, the model
descriptor to load in set-up, whether to trace, and where to write the result JSON.

Set-up is ``import holevo2q.cli`` plus the model load; work is the time
inside ``holevo2q.cli.main(argv)`` summed over the argument lists, or, for
the oracle workload, the time the oracle's two minimizers take on SPEC's
cases.  The CLI's own stdout and the oracle's values go to this process's
stdout, which the parent captures.

A fixed calibration loop runs right before set-up, between set-up and work,
between oracle cases, and right after work, so the parent can put each
interval in reference seconds (see ``run.py``).
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

CALIBRATION_LOOPS = 150_000


def calibrate(rounds: int = 3) -> float:
    """Median seconds of a fixed pure-Python loop: the host's current speed.

    Uses no module beyond the ones already imported, so that set-up, which
    follows, imports exactly what it would without the loop."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[rounds // 2]


class Clock:
    """Timed segments with a calibration before the first and after each.

    ``segments[j]`` runs between ``calibration[j]`` and ``calibration[j+1]``,
    so the parent can put each segment in reference seconds by the host speed
    measured right around it.  ``calibration_s`` is the time the loops took."""

    def __init__(self):
        self.segments: list[float] = []
        self.calibration: list[float] = []
        self.calibration_s = 0.0
        self._start = 0.0

    def probe(self, rounds: int = 3) -> None:
        start = time.perf_counter()
        self.calibration.append(calibrate(rounds))
        self.calibration_s += time.perf_counter() - start

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        self.segments.append(time.perf_counter() - self._start)
        return self.segments[-1]


def run_oracle_cases(model, cases, clock: Clock) -> None:
    """Both oracle minimizers on each ``[theta1, theta2, w11, w12, w22]`` case;
    prints one ``value_2d value_6d`` line per case.  Each case is its own
    segment, with a one-round probe of the host speed between cases: a case
    takes ~70 ms, and the host's speed can change within a second.  Functions
    are looked up at call time, so that a tracer's wrappers are the ones
    called."""
    bounds = importlib.import_module("holevo2q.bounds")
    oracle = importlib.import_module("holevo2q.oracle")
    for index, (t1, t2, *weight) in enumerate(cases):
        if index:
            clock.probe(rounds=1)
        clock.start()
        point = model.evaluate((t1, t2))
        w = bounds.WeightMatrix(*weight)
        value_2d, _ = oracle.minimize_holevo_2d(point, w)
        value_6d = oracle.minimize_holevo_6d(oracle.density_point(point), w)
        clock.stop()
        print(f"{value_2d:.17g} {value_6d:.17g}")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.hook_scipy()

    clock = Clock()
    clock.probe()
    modules_before = len(sys.modules)
    clock.start()
    cli = importlib.import_module("holevo2q.cli")
    model = importlib.import_module("holevo2q.models").load_model(spec["model"])
    result = {
        "setup_s": clock.stop(),
        "scipy_optimize_loaded": "scipy.optimize" in sys.modules,
        "modules_loaded": len(sys.modules) - modules_before,
    }

    if tracer is not None:
        tracer.instrument()
    clock.probe()
    codes = []
    if spec["cases"]:
        run_oracle_cases(model, spec["cases"], clock)
    else:
        clock.start()
        for argv in spec["argvs"]:
            codes.append(cli.main(argv))
        clock.stop()
    sys.stdout.flush()
    clock.probe()
    result["work_s"] = sum(clock.segments[1:])
    result["segments"] = clock.segments
    result["calibration"] = clock.calibration
    result["calibration_s"] = clock.calibration_s

    result["exit_codes"] = codes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
