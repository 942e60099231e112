"""The batched sweep pipeline against the one-point calls, cell by cell.

``evaluate_many`` -> ``fisher_bundle_many`` -> ``holevo_bounds_many`` (and the
batched weight builders) must give the bits of ``evaluate`` ->
``fisher_bundle`` -> ``holevo_bound`` at every cell, skip the same cells,
and reject invalid input with the exception class a cell-by-cell loop
raises first.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from holevo2q.bounds import (
    WeightMatrix,
    boundary_weight_family,
    holevo_bound,
    holevo_bounds_many,
    weight_from_angles,
)
from holevo2q.cli import BOUND_COLUMNS, main
from holevo2q.errors import DegenerateModelError, DomainError, ModelError, PureStateError
from holevo2q.fisher import bloch_scalars_many, fisher_bundle, fisher_bundle_many
from holevo2q.models import Domain, Explicit, GenericZ, Planar, Poly2D, Unitary, load_model

W = WeightMatrix(0.55, 0.1, 0.45)
# 0.36 + SHELL_T**2 lies in [(1 - 1e-12)^2, 1): inside the disk, on the pure shell.
SHELL_T = float(np.sqrt(0.64 - 1e-13))


def families():
    return {
        "generic_z": GenericZ(0.6),
        "generic_z_wide": GenericZ(0.6, domain=Domain((-0.95, 0.95), (-0.95, 0.95))),
        "unitary": Unitary(0.7, axes=np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]),
        "planar": Planar(
            u1=[1.0, 0.0, 0.0], u2=[0.0, 0.6, 0.8],
            f1=Poly2D([[0.1, 0.5], [0.3, 0.2]]), f2=Poly2D([[0.0, 1.0, 0.2], [0.1, 0.0, 0.0]]),
        ),
        "explicit_polynomial": Explicit(
            [[[0.1, 0.4], [0.2, 0.0]], [[0.0, 0.1], [0.5, 0.1]], [[0.3, 0.0], [0.0, 0.2]]]
        ),
    }


def grid(family, n=9):
    """Row-major cells of an n x n grid over (slightly beyond) the domain,
    plus cells on the pure shell and outside the disk of a generic_z family."""
    (lo1, hi1), (lo2, hi2) = family.domain.theta1, family.domain.theta2
    a1 = np.linspace(lo1 - 0.05, hi1, n)
    a2 = np.linspace(lo2, hi2 + 0.05, n)
    t1, t2 = np.repeat(a1, n), np.tile(a2, n)
    extra = np.array([[SHELL_T, 0.0], [0.0, -SHELL_T], [0.9, 0.9], [0.1, 0.2]])
    return np.concatenate([t1, extra[:, 0]]), np.concatenate([t2, extra[:, 1]])


def scalar_cells(family, t1, t2):
    """What a loop of one-point calls keeps: (index, point) per usable cell."""
    kept = []
    for i, theta in enumerate(zip(t1, t2)):
        try:
            point = family.evaluate(theta)
        except ModelError:
            continue
        if point.is_mixed:
            kept.append((i, point))
    return kept


def assert_same_bits(batched, scalar):
    assert np.asarray(batched).tobytes() == np.asarray(scalar, dtype=float).tobytes()


def assert_same_reports(rep, reports):
    """rep: holevo_bounds_many's report; reports: holevo_bound's, cell by cell."""
    for name in ("c_s", "c_r", "c_z", "c_n", "c_h", "s_correction", "b_value"):
        assert_same_bits(getattr(rep, name), [getattr(r, name) for r in reports])
    assert rep.branch.tolist() == [r.branch.value for r in reports]
    assert_same_bits(rep.xi_star, [r.xi_star for r in reports])


@pytest.mark.parametrize("name", list(families()))
def test_evaluate_many_and_bounds_match_one_point_calls(name):
    family = families()[name]
    t1, t2 = grid(family)
    s, d1, d2, usable = family.evaluate_many(t1, t2)
    kept = scalar_cells(family, t1, t2)
    assert np.flatnonzero(usable).tolist() == [i for i, _ in kept]
    assert 0 < len(kept) < t1.size
    for field, rows in ((s, "s"), (d1, "d1s"), (d2, "d2s")):
        assert_same_bits(field[usable], [getattr(p, rows) for _, p in kept])
    fbm = fisher_bundle_many(s[usable], d1[usable], d2[usable])
    bundles = [fisher_bundle(p) for _, p in kept]
    for name in ("triple_product", "perp_quadratic", "one_minus_s_sq", "gamma", "gram"):
        assert_same_bits(getattr(fbm, name), [getattr(fb, name) for fb in bundles])
    assert fbm.d_invariant.tolist() == [fb.d_invariant for fb in bundles]
    assert fbm.asymptotically_classical.tolist() == [fb.asymptotically_classical for fb in bundles]
    rep = holevo_bounds_many(fbm, W)
    assert_same_reports(rep, [holevo_bound(fb, W) for fb in bundles])
    scal = bloch_scalars_many(s[usable], d1[usable], d2[usable])
    ones = [bloch_scalars_many(p.s, p.d1s, p.d2s) for _, p in kept]
    assert_same_bits(scal.perp_quadratic, [one.perp_quadratic for one in ones])


def test_generic_z_grid_skips_shell_and_outside_cells():
    family = families()["generic_z_wide"]
    t1, t2 = grid(family)
    *_, usable = family.evaluate_many(t1, t2)
    s_squared = t1 * t1 + t2 * t2 + 0.36
    assert not usable[s_squared >= 1.0].any()  # outside the disk
    assert not usable[-4] and not usable[-3]  # the two pure-shell cells ...
    assert not family.evaluate((t1[-4], t2[-4])).is_mixed  # ... which evaluate admits
    assert usable[-1]


@pytest.mark.parametrize("weights", ["53", "42"])
def test_weight_families_match_one_point_calls(weights):
    fb = fisher_bundle(GenericZ(0.2).evaluate((0.2447, 0.1)))
    first = np.repeat(np.linspace(-0.99, 0.99, 11), 11)
    second = np.tile(np.linspace(0.05, 6.2, 11), 11)
    if weights == "53":
        many = weight_from_angles(first, second)
        ones = [weight_from_angles(a, b) for a, b in zip(first, second)]
    else:
        second = second / 3.2
        many = boundary_weight_family(fb, first, second)
        ones = [boundary_weight_family(fb, a, b) for a, b in zip(first, second)]
    for name in ("w11", "w12", "w22"):
        assert_same_bits(getattr(many, name), [getattr(w, name) for w in ones])
    assert_same_reports(holevo_bounds_many(fb, many), [holevo_bound(fb, w) for w in ones])


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def reference_rows(cells, weight_of):
    """CSV rows as a loop of one-point calls writes them."""
    out = []
    for a, b in cells:
        fb, w = weight_of(a, b)
        r = holevo_bound(fb, w)
        values = [a, b, r.c_s, r.c_r, r.c_z, r.c_n, r.c_h, r.s_correction, r.b_value]
        fields = [f"{x:.17g}" for x in values] + [r.branch.value]
        fields += [f"{x:.17g}" for x in fb.gamma]
        fields += ["1" if fb.d_invariant else "0", "1" if fb.asymptotically_classical else "0"]
        out.append(",".join(fields))
    return out


@pytest.mark.parametrize("kind", ["generic_z", "unitary", "planar", "explicit"])
def test_sweep_theta_csv_matches_one_point_loop(tmp_path, kind):
    desc = {
        "generic_z": {"kind": "generic_z", "theta0": 0.6},
        "unitary": {"kind": "unitary", "radius": 0.7},
        "planar": {"kind": "planar", "u1": [1, 0, 0], "u2": [0, 0.6, 0.8]},
        "explicit": {"kind": "explicit", "components": [
            [[0.1, 0.4], [0.2, 0.0]], [[0.0, 0.1], [0.5, 0.1]], [[0.3, 0.0], [0.0, 0.2]]]},
    }[kind]
    model, out = tmp_path / "m.json", tmp_path / "o.csv"
    model.write_text(json.dumps(desc))
    code, _, err = run_cli("sweep-theta", "--model", model, "--weight", "0.55,0.1,0.45",
                           "--grid", 15, "--out", out)
    assert code == 0, err
    family = load_model(model)
    axis1 = np.linspace(*family.domain.theta1, 15)
    axis2 = np.linspace(*family.domain.theta2, 15)
    t1, t2 = np.repeat(axis1, 15), np.tile(axis2, 15)
    kept = scalar_cells(family, t1, t2)
    cells = [(t1[i], t2[i]) for i, _ in kept]
    points = {(t1[i], t2[i]): p for i, p in kept}
    lines = out.read_text().splitlines()
    assert lines[1] == ",".join(["theta1", "theta2"] + BOUND_COLUMNS)
    assert lines[2:] == reference_rows(cells, lambda a, b: (fisher_bundle(points[a, b]), W))


@pytest.mark.parametrize("weights", ["53", "42"])
def test_sweep_weight_csv_matches_one_point_loop(tmp_path, weights):
    model, out = tmp_path / "m.json", tmp_path / "o.csv"
    model.write_text(json.dumps({"kind": "generic_z", "theta0": 0.2}))
    code, _, err = run_cli("sweep-weight", "--model", model, "--theta", "0.2447,0.1",
                           "--grid", 13, "--weight-family", weights, "--out", out)
    assert code == 0, err
    fb = fisher_bundle(GenericZ(0.2).evaluate((0.2447, 0.1)))
    first = np.linspace(-0.99, 0.99, 13)
    if weights == "53":
        second = np.linspace(0.0, 2.0 * np.pi, 13, endpoint=False)
        make = weight_from_angles
    else:
        second = np.linspace(0.05, 1.95, 13)

        def make(a, b):
            return boundary_weight_family(fb, a, b)

    cells = [(a, b) for a in first for b in second]
    assert out.read_text().splitlines()[2:] == reference_rows(cells, lambda a, b: (fb, make(a, b)))


def test_degenerate_derivative_model_exits_2(tmp_path):
    # s = (t1, t1, 0.2): d1s = d2s everywhere.
    model = tmp_path / "degenerate.json"
    model.write_text(json.dumps({"kind": "explicit", "components": [
        [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[0.2]]]}))
    code, out, err = run_cli("sweep-theta", "--model", model, "--weight", "1,0,1",
                             "--grid", 7, "--out", tmp_path / "o.csv")
    assert code == 2
    assert err.startswith("DegenerateModelError:")


def test_d_invariant_point_under_boundary_family_exits_2(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"kind": "generic_z", "theta0": 0.2}))
    code, _, err = run_cli("sweep-weight", "--model", model, "--theta", "0,0", "--grid", 7,
                           "--weight-family", "42", "--out", tmp_path / "o.csv")
    assert code == 2
    assert err.startswith("SpecialModelError:")
    # The first cell's own domain guard comes before the point's guard ...
    code, _, err = run_cli("sweep-weight", "--model", model, "--theta", "0,0", "--grid", 7,
                           "--weight-family", "42", "--w-max", "1.0")
    assert code == 2
    assert err.startswith("DomainError:")
    # ... and a later cell's does not.
    code, _, err = run_cli("sweep-weight", "--model", model, "--theta", "0,0", "--grid", 7,
                           "--weight-family", "42", "--w2-min", "0.5", "--w2-max", "-0.5")
    assert code == 2
    assert err.startswith("SpecialModelError:")


def test_batch_raises_for_the_first_offending_row():
    s, d1, d2 = [0.1, 0.2, 0.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    pure = ([0.6, 0.8, 0.0], d1, d2)
    dependent = (s, d1, d1)
    singular = (s, d1, [1.0, 1e-9, 0.0])  # independent, but G is numerically singular
    cases = [
        ([dependent, pure], DegenerateModelError, "linearly dependent"),
        ([pure, dependent], PureStateError, "requires |s|"),
        ([([0.6, 0.8, 0.0], d1, d1)], PureStateError, "requires |s|"),  # both: the ball first
        ([singular, pure], DegenerateModelError, "singular"),
        ([pure, singular], PureStateError, "requires |s|"),
        ([(s, d1, d2), singular, dependent], DegenerateModelError, "singular"),
    ]
    for rows, exc, message in cases:
        stacks = [np.array([row[k] for row in rows], dtype=float) for k in range(3)]
        with pytest.raises(exc, match=message):
            fisher_bundle_many(*stacks)
    # Without the SLD guard a singular G is admitted, as classify_point admits it.
    bloch_scalars_many(*(np.array([row[k] for row in [singular]]) for k in range(3)))


def read_rows(path):
    lines = path.read_text().splitlines()
    columns = lines[1].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[2:]]


def test_chain_without_slack_near_the_shell(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"kind": "generic_z", "theta0": 0.999}))
    sweeps = [
        ("sweep-theta", "--weight", "0.55,0.1,0.45"),
        ("sweep-theta", "--weight", "1,0,1e-3"),
        ("sweep-weight", "--theta", "0.03,0.02", "--weight-family", "53"),
        ("sweep-weight", "--theta", "0.03,0.02", "--weight-family", "42"),
    ]
    branches = set()
    for k, (command, *args) in enumerate(sweeps):
        out = tmp_path / f"{k}.csv"
        code, _, err = run_cli(command, "--model", model, *args, "--grid", 41, "--out", out)
        assert code == 0, err
        rows = read_rows(out)
        assert rows
        for row in rows:
            c_s, c_r, c_z, c_h = (float(row[c]) for c in ("c_s", "c_r", "c_z", "c_h"))
            assert max(c_s, c_r) <= c_h <= c_z, row
            branches.add(row["branch"])
    assert {"rld", "correction"} <= branches


def test_bounds_many_refuses_a_weight_that_is_not_positive_definite():
    point = GenericZ(0.2).evaluate((0.2447, 0.2447))
    fb = fisher_bundle(point)
    stack = np.array([[0.55, 0.55, np.nan], [0.1, 1.0, 0.1], [0.45, 0.45, 0.45]])
    cases = [
        ((-1.0, 0.0, -1.0), r"\[\[-1.0, 0.0\], \[0.0, -1.0\]\] is not positive definite"),
        ((np.nan, 0.0, 1.0), "entries must be finite"),
        (stack, r"\[\[0.55, 1.0\], \[1.0, 0.45\]\] is not positive definite"),  # cell 1 of 3
    ]
    for weight, message in cases:
        with pytest.raises(DomainError, match=message):
            holevo_bounds_many(fb, WeightMatrix(*weight))
    fbm = fisher_bundle_many(*(np.stack([v, v]) for v in (point.s, point.d1s, point.d2s)))
    with pytest.raises(DomainError, match="not positive definite"):
        holevo_bounds_many(fbm, WeightMatrix(-1.0, 0.0, -1.0))  # two points at one bad weight
