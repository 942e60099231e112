"""Column-by-column diff of two holevo2q sweep CSVs (stdlib only).

    python3 tools/sweep_diff.py OLD.csv NEW.csv

Prints the number of rows compared, how many of them differ by at least one
byte, the max relative difference of every float column, and the rows whose
``branch``, ``d_invariant`` or ``asymptotically_classical`` value changed.
Differences are relative to max(|old|, |new|), except for ``b_theta`` and
``s_correction``, which cross zero and are taken relative to |c_z| of the
old row.  Exits 1 when the headers or row counts differ or any label or
flag changed, so it can gate a change that must keep every label.
"""

import csv
import sys

ZERO_CROSSING = ("b_theta", "s_correction")
LABELS = ("branch", "d_invariant", "asymptotically_classical")


def load(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], lines[2:], list(csv.DictReader(lines[1:]))


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (head_a, lines_a, rows_a), (head_b, lines_b, rows_b) = load(argv[1]), load(argv[2])
    if head_a != head_b or len(rows_a) != len(rows_b) or not rows_a:
        print(f"not comparable: {head_a!r} with {len(rows_a)} rows "
              f"vs {head_b!r} with {len(rows_b)} rows")
        return 1
    columns = [c for c in rows_a[0] if c not in LABELS]
    worst = dict.fromkeys(columns, 0.0)
    changed = []
    for i, (a, b) in enumerate(zip(rows_a, rows_b)):
        for col in columns:
            x, y = float(a[col]), float(b[col])
            if col in ZERO_CROSSING:
                scale = abs(float(a["c_z"]))
            else:
                scale = max(abs(x), abs(y))
            if x != y:
                worst[col] = max(worst[col], abs(x - y) / scale if scale else float("inf"))
        changed += [f"  row {i}: {col} {a[col]} -> {b[col]}"
                    for col in LABELS if col in a and a[col] != b[col]]
    differing = sum(x != y for x, y in zip(lines_a, lines_b))
    print(f"rows compared: {len(rows_a)}")
    print(f"rows differing by at least one byte: {differing}")
    for col in columns:
        print(f"  {col:<26} max rel diff {worst[col]:.3e}")
    print(f"label/flag changes: {len(changed)}")
    for line in changed[:20]:
        print(line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
