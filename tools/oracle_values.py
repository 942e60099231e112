"""Values of both oracle minimizers on the perfbench oracle cases.

    PYTHONPATH=src python3 tools/oracle_values.py SEED [SEED ...]

For each seed, takes the cases that ``perfbench/run.py`` draws for its
``oracle`` workload and prints one ``value_2d value_6d xi1 xi2`` line per
case (17 significant digits), where xi = (xi1, xi2) is the 2-d minimizer.
Two commits give byte-identical output exactly when their minimizers return
the same floats on these cases.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from run import make_inputs  # noqa: E402

from holevo2q.bounds import WeightMatrix  # noqa: E402
from holevo2q.models import GenericZ  # noqa: E402
from holevo2q.oracle import density_point, minimize_holevo_2d, minimize_holevo_6d  # noqa: E402


def main(seeds) -> None:
    for seed in seeds:
        inputs = make_inputs("oracle", int(seed))
        model = GenericZ(inputs["theta0"])
        for t1, t2, *weight in inputs["cases"]:
            point = model.evaluate((t1, t2))
            w = WeightMatrix(*weight)
            value_2d, xi = minimize_holevo_2d(point, w)
            value_6d = minimize_holevo_6d(density_point(point), w)
            print(" ".join(f"{v:.17g}" for v in (value_2d, value_6d, *xi)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
