"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance is pinned here; the helpers fail loudly with the measured
value so a regression is immediately quantified.
"""

import csv
import io
import json

import numpy as np

from holevo2q.bloch import BlochModelPoint
from holevo2q.bounds import (
    BOUNDARY_RTOL,
    Branch,
    WeightMatrix,
    boundary_weight_family,
    holevo_bound,
)
from holevo2q.cli import main as cli_main
from holevo2q.fisher import fisher_bundle
from holevo2q.matrix_forms import (f_matrix, fisher_matrices, invert_2x2, pure_limit_holevo,
                                   q_inverse)
from holevo2q.models import GenericZ
from holevo2q.oracle import (
    commutation_operator,
    density_point,
    minimize_holevo_2d,
    minimize_holevo_6d,
    operator_fisher,
    rld_operators,
    sld_inner,
    sld_operators,
)
from holevo2q.sampling import (
    random_d_invariant_point,
    random_generic_pair,
    random_model_point,
    random_weight,
)
from reference import (
    dual_operators,
    fisher_determinant_identities,
    grid_min_quadratic_abs,
    quadratic_abs_min,
    random_planar_point,
)

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def run_cli(*argv) -> int:
    return cli_main(list(argv))


def load_sweep(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# holevo2q")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def test_criterion_1_gamma_reproduction():
    """Radial components at the two reference parameter sets."""
    worst = 0.0
    for theta0, magnitude, expected in ((0.2, 0.346, 0.292), (0.275, 0.476, 0.483)):
        family = GenericZ(theta0)
        t = magnitude / np.sqrt(2.0)
        fb = fisher_bundle(family.evaluate((t, t)))
        worst = max(worst, abs(fb.gamma[0] - expected), abs(fb.gamma[1] - expected))
    report(
        "criterion 1 (gamma reproduction)",
        worst <= 1e-3,
        f"max |gamma - reference| = {worst:.2e} (tolerance 1e-3)",
    )


def test_criterion_2_oracle_equivalence():
    """Closed form vs both brute-force minimizations on 200 seeded pairs."""
    rng = np.random.default_rng(20240501)
    worst_2d = worst_6d = 0.0
    branch_counts = {Branch.RLD: 0, Branch.CORRECTION: 0, Branch.BOUNDARY: 0}
    for _ in range(200):
        m, w = random_generic_pair(rng)
        rep = holevo_bound(fisher_bundle(m), w)
        branch_counts[rep.branch] += 1
        value_2d, _ = minimize_holevo_2d(m, w)
        worst_2d = max(worst_2d, abs(value_2d - rep.c_h) / abs(rep.c_h))
        value_6d = minimize_holevo_6d(density_point(m), w)
        worst_6d = max(worst_6d, abs(value_6d - rep.c_h) / abs(rep.c_h))
    ok = (
        worst_2d <= 1e-8
        and worst_6d <= 1e-8
        and branch_counts[Branch.RLD] >= 20
        and branch_counts[Branch.CORRECTION] >= 20
    )
    report(
        "criterion 2 (oracle equivalence)",
        ok,
        f"rel gap 2d = {worst_2d:.2e}, 6d = {worst_6d:.2e} (tol 1e-8); "
        f"branches rld/correction = {branch_counts[Branch.RLD]}/"
        f"{branch_counts[Branch.CORRECTION]} (need >= 20 each)",
    )


def test_criterion_3_identity_suite():
    """Structural identities on 1000 random mixed points."""
    rng = np.random.default_rng(20240502)
    worst = 0.0
    eye3 = np.eye(3)
    for _ in range(1000):
        m = random_model_point(rng)
        w = random_weight(rng)
        fb = fisher_bundle(m)
        fm = fisher_matrices(m)
        ids = fisher_determinant_identities(m, w)
        worst = max(worst, float(np.max(list(ids.values()))))

        z_scale = max(1.0, float(np.abs(fm.z).max()))
        worst = max(worst, float(np.abs(fm.z.imag - fm.g_tilde_inv.imag).max()) / z_scale)

        diff = fm.g_inv - fm.g_tilde_inv.real
        evals = np.linalg.eigvalsh(diff)
        scale = max(1.0, float(np.abs(fm.g_inv).max()))
        worst = max(worst, abs(evals[0]) / scale, max(0.0, -evals[1]) / scale)

        f = f_matrix(m)
        from holevo2q.matrix_forms import rld_bloch_vectors, sld_bloch_vectors

        l1, l2 = sld_bloch_vectors(m)
        lt1, lt2 = rld_bloch_vectors(m)
        lscale = max(1.0, float(np.abs(l1).max()), float(np.abs(l2).max()))
        worst = max(
            worst,
            float(np.abs((eye3 + 1j * f) @ lt1 - l1).max()) / lscale,
            float(np.abs((eye3 + 1j * f) @ lt2 - l2).max()) / lscale,
        )

        det_g = float(np.linalg.det(fm.g))
        det_gt = float(np.linalg.det(fm.g_tilde).real)
        worst = max(worst, abs(fb.one_minus_s_sq * det_gt - det_g) / abs(det_g))

        qi = q_inverse(m)
        for i, dual in enumerate((fm.dual1, fm.dual2)):
            for j, vec in enumerate((l1, l2)):
                target = 1.0 if i == j else 0.0
                worst = max(worst, abs(float(dual @ qi @ vec) - target))
    report(
        "criterion 3 (identity suite)",
        worst <= 1e-10,
        f"max residual over 1000 points = {worst:.2e} (tolerance 1e-10)",
    )


def test_criterion_4_special_model_theorems():
    """D-invariant -> RLD bound; planar -> SLD bound; inequality chain."""
    rng = np.random.default_rng(20240503)
    worst_dinv = worst_planar = worst_chain = 0.0
    m_dinv = random_d_invariant_point(rng)
    fb_dinv = fisher_bundle(m_dinv)
    m_planar = random_planar_point(rng)
    fb_planar = fisher_bundle(m_planar)
    for _ in range(100):
        w = random_weight(rng)
        rep = holevo_bound(fb_dinv, w)
        worst_dinv = max(worst_dinv, abs(rep.c_h - rep.c_r) / abs(rep.c_r))
        rep = holevo_bound(fb_planar, w)
        worst_planar = max(worst_planar, abs(rep.c_h - rep.c_s) / abs(rep.c_s))
    for _ in range(1000):
        fb = fisher_bundle(random_model_point(rng))
        w = random_weight(rng)
        rep = holevo_bound(fb, w)
        slack = 1e-10 * abs(rep.c_z)
        worst_chain = max(
            worst_chain,
            rep.c_h - rep.c_z - slack,
            rep.c_s - rep.c_h - slack,
            rep.c_r - rep.c_h - slack,
        )
    ok = worst_dinv <= 1e-10 and worst_planar <= 1e-10 and worst_chain <= 0.0
    report(
        "criterion 4 (special-model theorems)",
        ok,
        f"D-invariant gap {worst_dinv:.2e}, planar gap {worst_planar:.2e} "
        f"(tol 1e-10); chain violation beyond slack {max(worst_chain, 0.0):.2e}",
    )


def test_criterion_5_nagaoka_gap():
    """Orthonormal planar model: C^N - C^H = 2 sqrt(det W) sqrt(1 - s^2)."""
    rng = np.random.default_rng(20240504)
    worst = 0.0
    for _ in range(50):
        radius = np.sqrt(rng.uniform(0.01, 0.9))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        theta = radius * np.array([np.cos(angle), np.sin(angle)])
        m = BlochModelPoint(s=[theta[0], theta[1], 0.0], d1s=XHAT, d2s=YHAT)
        w = random_weight(rng)
        rep = holevo_bound(fisher_bundle(m), w)
        gap = rep.c_n - rep.c_h
        expected = 2.0 * np.sqrt(w.det) * np.sqrt(1.0 - m.s_squared)
        worst = max(worst, abs(gap - expected))
    report(
        "criterion 5 (Nagaoka gap)",
        worst <= 1e-12,
        f"max |gap - 2 sqrt(det W)(1-s^2)^(1/2)| = {worst:.2e} (tolerance 1e-12)",
    )


def test_criterion_6_region_geometry():
    """Boundary weight family: circle maps to B = 0, inside/outside split."""
    rng = np.random.default_rng(20240505)
    m = BlochModelPoint(s=[0.25, 0.35, 0.4], d1s=XHAT, d2s=YHAT)
    fb = fisher_bundle(m)
    worst_boundary = 0.0
    mislabels = 0
    checked = 0
    for _ in range(100):
        phi = rng.uniform(0.05, np.pi / 2 - 0.05)
        w_par, w2 = np.cos(phi), np.sin(phi)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        w = boundary_weight_family(fb, sign * w_par, w2, c=0.5 + rng.random())
        rep = holevo_bound(fb, w)
        tau = BOUNDARY_RTOL * (abs(rep.c_z) + abs(rep.c_s))
        worst_boundary = max(worst_boundary, abs(rep.b_value) / tau)

        shrink = rng.uniform(0.5, 0.9)
        inner = boundary_weight_family(fb, sign * w_par * shrink, w2 * shrink)
        if holevo_bound(fb, inner).branch is not Branch.RLD:
            mislabels += 1
        grow = rng.uniform(1.1, 1.5)
        if abs(w_par * grow) < 0.999:
            outer = boundary_weight_family(fb, sign * w_par * grow, w2 * grow)
            if holevo_bound(fb, outer).branch is not Branch.CORRECTION:
                mislabels += 1
            checked += 1
    ok = worst_boundary <= 1.0 and mislabels == 0 and checked > 50
    report(
        "criterion 6 (region geometry)",
        ok,
        f"max |B|/tolerance on circle = {worst_boundary:.3f} (need <= 1), "
        f"interior/exterior mislabels = {mislabels} over {100 + checked} samples",
    )


def _boundary_components(mask: np.ndarray) -> int:
    """8-connected component count of True cells."""
    visited = np.zeros_like(mask, dtype=bool)
    count = 0
    rows, cols = mask.shape
    for r0 in range(rows):
        for c0 in range(cols):
            if not mask[r0, c0] or visited[r0, c0]:
                continue
            count += 1
            stack = [(r0, c0)]
            visited[r0, c0] = True
            while stack:
                r, c = stack.pop()
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < rows and 0 <= cc < cols:
                            if mask[rr, cc] and not visited[rr, cc]:
                                visited[rr, cc] = True
                                stack.append((rr, cc))
    return count


def _check_weight_sweep(rows, grid):
    b_vals = np.array([float(r["b_theta"]) for r in rows]).reshape(grid, grid)
    branches = np.array([r["branch"] for r in rows]).reshape(grid, grid)
    both = {"rld", "correction"} <= set(branches.ravel())
    consistent = True
    for r in rows:
        b = float(r["b_theta"])
        tau = BOUNDARY_RTOL * (abs(float(r["c_z"])) + abs(float(r["c_s"])))
        if r["branch"] == "rld" and not b > tau:
            consistent = False
        if r["branch"] == "correction" and not b < -tau:
            consistent = False
    sign_change = np.zeros((grid, grid), dtype=bool)
    sign = np.sign(b_vals)
    change_h = sign[:, :-1] * sign[:, 1:] < 0
    change_v = sign[:-1, :] * sign[1:, :] < 0
    sign_change[:, :-1] |= change_h
    sign_change[:, 1:] |= change_h
    sign_change[:-1, :] |= change_v
    sign_change[1:, :] |= change_v
    components = _boundary_components(sign_change)
    return both, consistent, int(sign_change.sum()), components


def test_criterion_7_sweep_structure(tmp_path):
    """Weight and parameter sweeps at the reference settings."""
    results = []
    for tag, theta0, magnitude in (("sweep-a", 0.2, 0.346), ("sweep-b", 0.275, 0.476)):
        model_path = tmp_path / f"{tag}.json"
        model_path.write_text(json.dumps({"kind": "generic_z", "theta0": theta0}))
        t = magnitude / np.sqrt(2.0)
        out = tmp_path / f"{tag}.csv"
        code = run_cli(
            "sweep-weight",
            "--model", str(model_path),
            "--theta", f"{t},{t}",
            "--grid", "101",
            "--out", str(out),
        )
        assert code == 0
        rows = load_sweep(str(out))
        both, consistent, boundary_cells, components = _check_weight_sweep(rows, 101)
        results.append(
            (tag, both, consistent, boundary_cells, components)
        )

    model_path = tmp_path / "theta-sweep.json"
    model_path.write_text(json.dumps({"kind": "generic_z", "theta0": 0.35}))
    out = tmp_path / "theta-sweep.csv"
    code = run_cli(
        "sweep-theta",
        "--model", str(model_path),
        "--weight", "0.55,0,0.45",
        "--grid", "101",
        "--out", str(out),
    )
    assert code == 0
    rows = load_sweep(str(out))
    branches = {r["branch"] for r in rows}
    theta_both = {"rld", "correction"} <= branches
    theta_consistent = all(
        (r["branch"] != "rld" or float(r["b_theta"]) > 0)
        and (r["branch"] != "correction" or float(r["b_theta"]) < 0)
        for r in rows
    )

    # The ideal B = 0 level set touches the |w| = 1 edge of weight space
    # (where W degenerates), so any admissible grid window cuts it into a
    # handful of arcs; "curve-like" here means few long components rather
    # than speckle.  Both regions, a nonempty sign-change boundary and
    # cell-level branch/sign consistency are the hard structural checks.
    ok = theta_both and theta_consistent
    details = []
    for tag, both, consistent, cells, components in results:
        curve_like = cells >= 100 and 1 <= components <= 8
        ok = ok and both and consistent and curve_like
        details.append(f"{tag}: both={both} sign-consistent={consistent} "
                       f"boundary cells={cells} arcs={components}")
    details.append(
        f"theta-sweep: both={theta_both} sign-consistent={theta_consistent}"
    )
    report("criterion 7 (sweep structure)", ok, "; ".join(details))


def test_criterion_8_pure_limit():
    """Correction decay and endpoint agreement along a tangential ray."""
    w = WeightMatrix(1.0, 0.0, 1e-4)
    kappa, p = np.sqrt(561.0), 1.1
    direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
    corrections = []
    c_h_last = None
    for k in range(2, 9):
        r = 1.0 - 10.0**-k
        u = 1.0 - r * r
        theta = kappa * u**p * direction
        theta0 = np.sqrt(r * r - theta @ theta)
        m = BlochModelPoint(s=[theta[0], theta[1], theta0], d1s=XHAT, d2s=YHAT)
        rep = holevo_bound(fisher_bundle(m), w)
        corrections.append(rep.s_correction)
        c_h_last = rep.c_h
    monotone = all(a >= b for a, b in zip(corrections, corrections[1:]))
    endpoint = BlochModelPoint(s=[0.0, 0.0, 1.0], d1s=XHAT, d2s=YHAT)
    pure_value = pure_limit_holevo(endpoint, w)
    rel_gap = abs(c_h_last - pure_value) / pure_value
    ok = (
        monotone
        and corrections[0] > 1e-3
        and corrections[-1] <= 1e-6
        and rel_gap <= 1e-6
    )
    seq = ", ".join(f"{s:.2e}" for s in corrections)
    report(
        "criterion 8 (pure limit)",
        ok,
        f"S sequence = [{seq}] monotone={monotone}, S(k=8) <= 1e-6, "
        f"pure endpoint rel gap = {rel_gap:.2e} (tol 1e-6)",
    )


def test_criterion_9_piecewise_minimum_oracle():
    """Closed piecewise minimum equals the grid oracle, boundary included."""
    rng = np.random.default_rng(20240506)
    worst = 0.0
    for trial in range(100):
        mat = rng.standard_normal((2, 2))
        a = mat.T @ mat + 0.2 * np.eye(2)
        b = rng.standard_normal(2)
        a_inv = invert_2x2(a)
        alpha = float(b @ a_inv @ b)
        if trial % 3 == 0:
            c = alpha * (1.0 + rng.uniform(-1e-8, 1e-8))  # boundary |c| ~ alpha
        else:
            c = float(2.0 * rng.standard_normal())
        closed, _ = quadratic_abs_min(a, b, c)
        worst = max(worst, abs(closed - grid_min_quadratic_abs(a, b, c)))
    report(
        "criterion 9 (piecewise-minimum oracle)",
        worst <= 1e-6,
        f"max |closed - grid| = {worst:.2e} over 100 cases (tolerance 1e-6)",
    )


def test_criterion_10_operator_equation_residuals():
    """Defining equations and commutation relations on 500 random points."""
    rng = np.random.default_rng(20240507)
    worst_defining = worst_commutation = 0.0
    for _ in range(500):
        m = random_model_point(rng)
        dp = density_point(m)
        ls = sld_operators(dp)
        lts = rld_operators(dp)
        for drho, l_op, lt in zip((dp.drho1, dp.drho2), ls, lts):
            sym = 0.5 * (dp.rho @ l_op + l_op @ dp.rho)
            worst_defining = max(worst_defining, float(np.abs(drho - sym).max()))
            worst_defining = max(
                worst_defining, float(np.abs(drho - dp.rho @ lt).max())
            )
        g, gt, z = operator_fisher(dp, ls, lts)
        g_inv, gt_inv = invert_2x2(g), invert_2x2(gt)
        duals = dual_operators(dp)
        rduals = (
            gt_inv[0, 0] * lts[0] + gt_inv[1, 0] * lts[1],
            gt_inv[0, 1] * lts[0] + gt_inv[1, 1] * lts[1],
        )
        for l_op, lt in zip(ls, lts):
            recon = lt + 1j * commutation_operator(dp, lt)
            worst_commutation = max(
                worst_commutation, float(np.abs(recon - l_op).max())
            )
        for j in range(2):
            image = commutation_operator(dp, duals[j])
            for i in range(2):
                worst_commutation = max(
                    worst_commutation,
                    abs(sld_inner(dp.rho, duals[i], image) - z[i, j].imag),
                    abs(
                        sld_inner(dp.rho, rduals[i], image)
                        - (-1j) * (gt_inv[i, j] - g_inv[i, j])
                    ),
                )
    ok = worst_defining <= 1e-12 and worst_commutation <= 1e-10
    report(
        "criterion 10 (operator equations)",
        ok,
        f"defining residual = {worst_defining:.2e} (tol 1e-12), "
        f"commutation residual = {worst_commutation:.2e} (tol 1e-10)",
    )
