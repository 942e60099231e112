"""Oracle-versus-closed-form verification suite.

``run_verification`` draws seeded random model points and weights, evaluates
every structural identity through both the Bloch-vector closed forms and the
density-matrix oracle, and reports the worst residual per check against its
tolerance in ``TOLERANCES``.  Three functions hold the checks, each mapping
one instance to ``{check name: residual}``: ``_point_checks`` (a model
point), ``_weight_checks`` (a point and a weight) and ``_oracle_checks`` (a
generic pair against the oracle minimizers).  The suite is what
``holevo2q verify`` runs and what the acceptance tests call.
"""

from __future__ import annotations

import numpy as np

from .bloch import Record, factory
from .bounds import WeightMatrix, holevo_bound
from .errors import ModelError, SingularMatrixError
from .matrix_forms import (ell_perp, f_matrix, fisher_matrices, invert_2x2, q_inverse,
                           rld_bloch_vectors, sld_bloch_vectors, trabs)
from .oracle import (
    commutation_operator,
    density_point,
    holevo_function,
    minimize_holevo_2d,
    minimize_holevo_6d,
    operator_fisher,
    pair_from_bloch_vectors,
    rld_operators,
    sld_inner,
    sld_operators,
)
from .sampling import random_generic_pair, random_model_point, random_weight

__all__ = [
    "CheckRow",
    "VerificationReport",
    "run_verification",
    "TOLERANCES",
]


class CheckRow(Record):
    name: str
    tolerance: float
    value: float
    witness: str = ""

    @property
    def ok(self) -> bool:
        return self.value <= self.tolerance


class VerificationReport(Record):
    seed: int
    count: int
    rows: list[CheckRow] = factory(list)
    branch_counts: dict = factory(dict)

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def table(self) -> str:
        width = max(len(row.name) for row in self.rows)
        lines = [
            f"verification suite: seed={self.seed} count={self.count}",
            f"{'check'.ljust(width)}  {'max residual':>14}  {'tolerance':>10}  status",
        ]
        for row in self.rows:
            status = "ok" if row.ok else "FAIL"
            lines.append(
                f"{row.name.ljust(width)}  {row.value:14.3e}  {row.tolerance:10.1e}  {status}"
            )
        if self.branch_counts:
            counts = ", ".join(f"{k}: {v}" for k, v in sorted(self.branch_counts.items()))
            lines.append(f"branches: {counts}")
        return "\n".join(lines)


def _spread(*ends, floor: float) -> float:
    """max |difference of consecutive ends| relative to max(max |end|, floor);
    NaN if any end is NaN."""
    ends = np.array(ends)
    return float(np.abs(np.diff(ends)).max() / np.maximum(np.abs(ends).max(), floor))


# The tolerance of each check, in report order.
TOLERANCES = {
    "sld_defining_equation": 1e-12,
    "rld_defining_equation": 1e-12,
    "cross_path_sld_fisher": 1e-10,
    "cross_path_rld_fisher": 1e-10,
    "cross_path_z_matrix": 1e-10,
    "identity_quadratic_determinant": 1e-10,
    "identity_trabs_forms": 1e-10,
    "identity_gamma_gap": 1e-10,
    "im_z_equals_im_rld_inverse": 1e-12,
    "rank_one_law": 1e-10,
    "sld_rld_vector_consistency": 1e-12,
    "dual_orthogonality": 1e-10,
    "perp_gamma_relations": 1e-10,
    "determinant_chain": 1e-10,
    "commutation_reconstruction": 1e-10,
    "commutation_sld_pairing": 1e-10,
    "commutation_mixed_pairing": 1e-10,
    "bound_inequality_chain": 0.0,
    "bounds_vs_matrix_forms": 1e-10,
    "holevo_vs_reduced_search": 1e-8,
    "holevo_vs_constrained_search": 1e-8,
    "z_bound_from_duals": 1e-10,
}


def _point_checks(fm) -> dict:
    """Residuals of the checks that read only the model point of ``fm``, its
    :func:`fisher_matrices` record: the oracle's operator equations and Fisher
    matrices against the closed forms, the Bloch-vector relations and the
    commutation-operator relations.  A check of several parts maps to their
    list, of which the suite takes the max."""
    m = fm.point
    dp = density_point(m)
    rho = dp.rho
    l_ops, lt_ops = sld_operators(dp), rld_operators(dp)
    g_op, gt_op, z_op = operator_fisher(dp, l_ops, lt_ops)
    f = f_matrix(m)
    l1, l2 = sld_bloch_vectors(m)
    lt1, lt2 = rld_bloch_vectors(m)
    qi = q_inverse(m)
    perp = ell_perp(m)
    one_minus = fm.one_minus_s_sq
    evals = np.linalg.eigvalsh(fm.g_inv - fm.g_tilde_inv.real)
    scale = max(float(np.abs(fm.g_inv).max()), 1.0)
    detg = float(np.linalg.det(fm.g))
    detgt = float(np.linalg.det(fm.g_tilde).real)
    g_inv, gt_inv = invert_2x2(g_op), invert_2x2(gt_op)
    duals = [g_inv[0, i] * l_ops[0] + g_inv[1, i] * l_ops[1] for i in range(2)]
    rduals = [gt_inv[0, i] * lt_ops[0] + gt_inv[1, i] * lt_ops[1] for i in range(2)]
    d_duals = [commutation_operator(dp, dual) for dual in duals]
    # Relative like cross_path_*: the residual is the rounding of G^-1 and G~^-1.
    pairing_scale = max(1.0, np.abs(g_inv).max(), np.abs(gt_inv).max())
    pairs = [(i, j) for i in range(2) for j in range(2)]
    return {
        "sld_defining_equation": [np.abs(d - 0.5 * (rho @ l + l @ rho)).max()
                                  for d, l in zip(dp.derivatives(), l_ops)],
        "rld_defining_equation": [np.abs(d - rho @ lt).max()
                                  for d, lt in zip(dp.derivatives(), lt_ops)],
        # Entrywise, relative to the matrix scale.
        "cross_path_sld_fisher": np.abs(g_op - fm.g).max() / max(1.0, np.abs(fm.g).max()),
        "cross_path_rld_fisher":
            np.abs(gt_op - fm.g_tilde).max() / max(1.0, np.abs(fm.g_tilde).max()),
        "cross_path_z_matrix": np.abs(z_op - fm.z).max() / max(1.0, np.abs(fm.z).max()),
        "im_z_equals_im_rld_inverse": np.abs(fm.z.imag - fm.g_tilde_inv.imag).max(),
        "rank_one_law": [abs(evals[0]) / scale, 0.0, -evals[1] / scale],
        "sld_rld_vector_consistency": [np.abs((np.eye(3) + 1j * f) @ lt - l).max()
                                       for l, lt in ((l1, lt1), (l2, lt2))],
        "dual_orthogonality": [
            abs(float(fm.dual1 @ qi @ l1) - 1.0), abs(float(fm.dual1 @ qi @ l2)),
            abs(float(fm.dual2 @ qi @ l1)), abs(float(fm.dual2 @ qi @ l2) - 1.0)],
        "perp_gamma_relations": [abs(float(perp @ f @ fm.dual2) - one_minus * fm.gamma[0]),
                                 abs(float(perp @ f @ fm.dual1) + one_minus * fm.gamma[1])],
        "determinant_chain": abs(one_minus * detgt - detg) / abs(detg),
        "commutation_reconstruction": [
            np.abs(lt + 1j * commutation_operator(dp, lt) - l).max()
            for l, lt in zip(l_ops, lt_ops)],
        "commutation_sld_pairing": [abs(sld_inner(rho, duals[j], d_duals[i]) - z_op[j, i].imag)
                                    for i, j in pairs],
        "commutation_mixed_pairing": [
            abs(sld_inner(rho, rduals[j], d_duals[i]) - (-1j) * (gt_inv[j, i] - g_inv[j, i]))
            / pairing_scale for i, j in pairs],
    }


def _weight_checks(fm, w: WeightMatrix) -> dict:
    """Residuals of the checks that read the model point of ``fm`` and a weight ``w``:
    three identities that hold in exact arithmetic (the ``identity_*`` rows),

    1. <l_perp, Q^-1 l_perp> = (1-s^2) det G = (1-s^2)^2 det G~
    2. 2 sqrt(det W) |<l^1, F l^2>| = TrAbs(W Im G~^-1) = TrAbs(W Im Z)
    3. (gamma | W^-1 gamma) = det(W^-1 G)/(1-s^2) * (C^Z - C^R),

    and the bounds against each other and against their matrix definitions
    C^S = Tr(W G^-1), C^R = Tr(W Re G~^-1) + TrAbs(W Im G~^-1) and
    C^Z = Tr(W Re Z) + TrAbs(W Im Z), with TrAbs from its eigenvalue definition."""
    wm = w.matrix
    trabs_r, trabs_z = trabs(wm, np.stack([fm.g_tilde_inv.imag, fm.z.imag]))
    c_s = float(np.trace(wm @ fm.g_inv))
    c_r = float(np.trace(wm @ fm.g_tilde_inv.real)) + trabs_r
    c_z = float(np.trace(wm @ fm.z.real)) + trabs_z
    one_minus = fm.one_minus_s_sq
    det_g = float(np.linalg.det(fm.g))
    det_gt = float(np.linalg.det(fm.g_tilde).real)
    lhs2 = 2.0 * np.sqrt(w.det) * abs(fm.z[0, 1].imag)
    w_inv = invert_2x2(wm, exc=SingularMatrixError)
    report = holevo_bound(fm, w)
    closed = (report.c_s, report.c_r, report.c_z)
    return {
        "identity_quadratic_determinant": _spread(
            fm.perp_quadratic, one_minus * det_g, one_minus**2 * det_gt, floor=1e-300),
        "identity_trabs_forms": _spread(lhs2, trabs_r, trabs_z, floor=1.0),
        "identity_gamma_gap": _spread(float(fm.gamma @ w_inv @ fm.gamma),
                                      det_g / w.det / one_minus * (c_z - c_r), floor=1.0),
        # The inequalities hold by construction, so with no slack.
        "bound_inequality_chain": [report.c_h - report.c_z, report.c_s - report.c_h,
                                   report.c_r - report.c_h, 0.0],
        "bounds_vs_matrix_forms": [abs(x - y) / abs(y) for x, y in zip(closed, (c_s, c_r, c_z))],
    }


def _oracle_checks(fm, w, report) -> dict:
    """Residuals of the closed form ``report`` = ``holevo_bound`` at
    (``fm.point``, ``w``) against the oracle: both minimizations of the Holevo
    function, and its value at the SLD duals, which equals C^Z by construction."""
    m = fm.point
    value_2d, _ = minimize_holevo_2d(m, w, fm)
    dp = density_point(m)
    value_6d = minimize_holevo_6d(dp, w)
    at_duals = holevo_function(dp, pair_from_bloch_vectors(m, fm.dual1, fm.dual2), w)
    return {
        "holevo_vs_reduced_search": abs(value_2d - report.c_h) / abs(report.c_h),
        "holevo_vs_constrained_search": abs(value_6d - report.c_h) / abs(report.c_h),
        "z_bound_from_duals": abs(report.c_z - at_duals) / abs(report.c_z),
    }


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _describe(m, w=None) -> str:
    """Witness text that replays bit-for-bit: shortest round-trip reprs of
    s, d1s, d2s and, for checks that draw a weight, W = (w11, w12, w22)."""
    text = f"s={_floats(m.s)} d1s={_floats(m.d1s)} d2s={_floats(m.d2s)}"
    if w is not None:
        text += f" W={(w.w11, w.w12, w.w22)}"
    return text


def run_verification(seed: int = 42, count: int = 200) -> VerificationReport:
    """Run every check on ``count`` seeded instances of each kind.

    Each instance's residuals come from one of the check functions above; a
    row holds the worst residual of its check (NaN counts as the worst) and
    the first instance that reached it.  Raises ``ModelError`` unless
    ``count`` is positive and ``seed`` non-negative, and ``RuntimeError`` if
    the names the functions produce are not the keys of ``TOLERANCES``.
    """
    if count <= 0:
        raise ModelError(f"count must be a positive integer, got {count}")
    if seed < 0:
        raise ModelError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    results = []  # (residuals, instance) in draw order
    for _ in range(count):
        m = random_model_point(rng)
        fm = fisher_matrices(m)
        results.append((_point_checks(fm), (m,)))
        w = random_weight(rng)
        results.append((_weight_checks(fm, w), (m, w)))

    branch_counts: dict[str, int] = {}
    for _ in range(count):  # fresh generic pairs for the oracle
        m, w = random_generic_pair(rng)
        fm = fisher_matrices(m)
        report = holevo_bound(fm, w)
        branch_counts[report.branch.value] = branch_counts.get(report.branch.value, 0) + 1
        results.append((_oracle_checks(fm, w, report), (m, w)))

    worst: dict[str, tuple[float, tuple]] = {}
    for residuals, instance in results:
        for name, parts in residuals.items():
            value = float(np.max(parts))  # NaN if any part is NaN
            old = worst.get(name, (-np.inf,))[0]
            if value > old or (np.isnan(value) and not np.isnan(old)):
                worst[name] = (value, instance)
    if worst.keys() != TOLERANCES.keys():
        unknown, unchecked = worst.keys() - TOLERANCES.keys(), TOLERANCES.keys() - worst.keys()
        raise RuntimeError(f"checks without a tolerance: {sorted(unknown)}; "
                           f"tolerances without a check: {sorted(unchecked)}")
    rows = [CheckRow(name, tol, worst[name][0], _describe(*worst[name][1]))
            for name, tol in TOLERANCES.items()]
    return VerificationReport(seed=seed, count=count, rows=rows, branch_counts=branch_counts)
