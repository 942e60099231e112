"""Oracle-versus-closed-form verification suite.

``run_verification`` draws seeded random model points and weights, evaluates
every structural identity through both the Bloch-vector closed forms and the
density-matrix oracle, and reports the worst residual per check against its
tolerance in ``TOLERANCES``.  The suite is what ``holevo2q verify`` runs and
what the acceptance tests call.
"""

from __future__ import annotations

import numpy as np

from .bloch import (Record, ell_perp, f_matrix, factory, q_inverse, rld_bloch_vectors,
                    sld_bloch_vectors)
from .bounds import WeightMatrix, holevo_bound, trabs
from .errors import SingularMatrixError
from .fisher import fisher_bundle, fisher_matrices, invert_2x2
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
    "DeterminantIdentityResiduals",
    "fisher_determinant_identities",
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


class _Tracker:
    """Collects the worst residual per check plus the instance that hit it."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.witnesses: dict[str, str] = {}

    def note(self, name: str, value: float, witness: str = "") -> None:
        value = float(value)
        if value > self.values.get(name, -np.inf):
            self.values[name] = value
            self.witnesses[name] = witness

    def row(self, name: str, tolerance: float) -> CheckRow:
        return CheckRow(
            name=name,
            tolerance=tolerance,
            value=self.values.get(name, 0.0),
            witness=self.witnesses.get(name, ""),
        )


def _matrix_form_bounds(fm, weight: WeightMatrix) -> tuple[float, float, float]:
    """(C^S, C^R, C^Z) from their matrix definitions on ``fisher_matrices``:
    Tr(W G^-1), Tr(W Re G~^-1) + TrAbs(W Im G~^-1), Tr(W Re Z) + TrAbs(W Im Z)."""
    w = weight.matrix
    c_s = float(np.trace(w @ fm.g_inv))
    c_r = float(np.trace(w @ fm.g_tilde_inv.real)) + trabs(weight, fm.g_tilde_inv.imag)
    c_z = float(np.trace(w @ fm.z.real)) + trabs(weight, fm.z.imag)
    return c_s, c_r, c_z


class DeterminantIdentityResiduals(Record):
    """Relative residuals of the three closed-form identities linking the
    reduced quadratic coefficient, the determinants, the TrAbs terms and the
    gap C^Z - C^R.  All three vanish for exact arithmetic."""

    quadratic_vs_determinants: float
    trabs_consistency: float
    gamma_gap: float

    def max_residual(self) -> float:
        return max(self.quadratic_vs_determinants, self.trabs_consistency, self.gamma_gap)


def fisher_determinant_identities(m, weight, fm=None, fb=None) -> DeterminantIdentityResiduals:
    """Evaluate the three structural identities at a mixed point.

    1. <l_perp, Q^-1 l_perp> = (1-s^2) det G = (1-s^2)^2 det G~
    2. 2 sqrt(det W) |<l^1, F l^2>| = TrAbs(W Im G~^-1) = TrAbs(W Im Z)
    3. (gamma | W^-1 gamma) = det(W^-1 G)/(1-s^2) * (C^Z - C^R)

    ``weight`` is a :class:`holevo2q.bounds.WeightMatrix` or a 2x2 array;
    ``fm`` and ``fb`` are ``fisher_matrices(m)`` and ``fisher_bundle(m)`` if already built.
    """
    if not isinstance(weight, WeightMatrix):
        weight = WeightMatrix.from_matrix(np.asarray(weight, dtype=float))

    fb = fisher_bundle(m) if fb is None else fb
    fm = fisher_matrices(m, fb) if fm is None else fm
    one_minus = fb.one_minus_s_sq

    lhs1 = fb.perp_quadratic
    det_g = float(np.linalg.det(fm.g))
    det_gt = float(np.linalg.det(fm.g_tilde).real)
    mid1 = one_minus * det_g
    rhs1 = one_minus**2 * det_gt
    scale1 = max(abs(lhs1), abs(mid1), abs(rhs1), 1e-300)
    res1 = max(abs(lhs1 - mid1), abs(mid1 - rhs1)) / scale1

    w = weight.matrix
    lhs2 = 2.0 * np.sqrt(weight.det) * abs(fm.z[0, 1].imag)
    mid2 = trabs(w, fm.g_tilde_inv.imag)
    rhs2 = trabs(w, fm.z.imag)
    scale2 = max(abs(lhs2), abs(mid2), abs(rhs2), 1.0)
    res2 = max(abs(lhs2 - mid2), abs(mid2 - rhs2)) / scale2

    w_inv = invert_2x2(w, exc=SingularMatrixError)
    lhs3 = float(fb.gamma @ w_inv @ fb.gamma)
    _, c_r, c_z = _matrix_form_bounds(fm, weight)
    gap = c_z - c_r
    rhs3 = det_g / weight.det / one_minus * gap
    scale3 = max(abs(lhs3), abs(rhs3), 1.0)
    res3 = abs(lhs3 - rhs3) / scale3

    return DeterminantIdentityResiduals(res1, res2, res3)


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
    """Run every cross-path check on ``count`` random instances."""
    rng = np.random.default_rng(seed)
    track = _Tracker()

    for _ in range(count):
        m = random_model_point(rng)
        witness = _describe(m)
        fb = fisher_bundle(m)
        fm = fisher_matrices(m, fb)
        dp = density_point(m)
        rho = dp.rho

        # Defining operator equations.
        l_ops = sld_operators(dp)
        lt_ops = rld_operators(dp)
        for i, drho in enumerate(dp.derivatives()):
            sym = 0.5 * (rho @ l_ops[i] + l_ops[i] @ rho)
            track.note("sld_defining_equation", np.abs(drho - sym).max(), witness)
            track.note(
                "rld_defining_equation", np.abs(drho - rho @ lt_ops[i]).max(), witness
            )

        # Cross-path Fisher equality (entrywise, relative to matrix scale).
        g_op, gt_op, z_op = operator_fisher(dp, l_ops, lt_ops)
        track.note(
            "cross_path_sld_fisher",
            np.abs(g_op - fm.g).max() / max(1.0, np.abs(fm.g).max()),
            witness,
        )
        track.note(
            "cross_path_rld_fisher",
            np.abs(gt_op - fm.g_tilde).max() / max(1.0, np.abs(fm.g_tilde).max()),
            witness,
        )
        track.note(
            "cross_path_z_matrix",
            np.abs(z_op - fm.z).max() / max(1.0, np.abs(fm.z).max()),
            witness,
        )

        # Structural identities.
        w = random_weight(rng)
        witness_w = _describe(m, w)
        ids = fisher_determinant_identities(m, w, fm, fb)
        track.note("identity_quadratic_determinant", ids.quadratic_vs_determinants, witness_w)
        track.note("identity_trabs_forms", ids.trabs_consistency, witness_w)
        track.note("identity_gamma_gap", ids.gamma_gap, witness_w)
        track.note(
            "im_z_equals_im_rld_inverse",
            np.abs(fm.z.imag - fm.g_tilde_inv.imag).max(),
            witness,
        )
        diff = fm.g_inv - fm.g_tilde_inv.real
        evals = np.linalg.eigvalsh(diff)
        scale = max(float(np.abs(fm.g_inv).max()), 1.0)
        track.note(
            "rank_one_law", max(abs(evals[0]), max(0.0, -evals[1])) / scale, witness
        )
        f = f_matrix(m)
        l1, l2 = sld_bloch_vectors(m)
        lt1, lt2 = rld_bloch_vectors(m)
        track.note(
            "sld_rld_vector_consistency",
            max(
                np.abs((np.eye(3) + 1j * f) @ lt1 - l1).max(),
                np.abs((np.eye(3) + 1j * f) @ lt2 - l2).max(),
            ),
            witness,
        )
        qi = q_inverse(m)
        orth = max(
            abs(float(fm.dual1 @ qi @ l1) - 1.0),
            abs(float(fm.dual1 @ qi @ l2)),
            abs(float(fm.dual2 @ qi @ l1)),
            abs(float(fm.dual2 @ qi @ l2) - 1.0),
        )
        track.note("dual_orthogonality", orth, witness)
        perp = ell_perp(m)
        one_minus = fb.one_minus_s_sq
        track.note(
            "perp_gamma_relations",
            max(
                abs(float(perp @ f @ fm.dual2) - one_minus * fb.gamma[0]),
                abs(float(perp @ f @ fm.dual1) + one_minus * fb.gamma[1]),
            ),
            witness,
        )
        detg = float(np.linalg.det(fm.g))
        detgt = float(np.linalg.det(fm.g_tilde).real)
        track.note(
            "determinant_chain", abs(one_minus * detgt - detg) / abs(detg), witness
        )

        # Commutation-operator relations.
        g_inv = invert_2x2(g_op)
        gt_inv = invert_2x2(gt_op)
        # Relative like cross_path_*: the residual is the rounding of G^-1 and G~^-1.
        pairing_scale = max(1.0, np.abs(g_inv).max(), np.abs(gt_inv).max())
        duals = (
            g_inv[0, 0] * l_ops[0] + g_inv[1, 0] * l_ops[1],
            g_inv[0, 1] * l_ops[0] + g_inv[1, 1] * l_ops[1],
        )
        rduals = (
            gt_inv[0, 0] * lt_ops[0] + gt_inv[1, 0] * lt_ops[1],
            gt_inv[0, 1] * lt_ops[0] + gt_inv[1, 1] * lt_ops[1],
        )
        for i in range(2):
            recon = lt_ops[i] + 1j * commutation_operator(dp, lt_ops[i])
            track.note(
                "commutation_reconstruction", np.abs(recon - l_ops[i]).max(), witness
            )
            d_dual = commutation_operator(dp, duals[i])
            for j in range(2):
                track.note(
                    "commutation_sld_pairing",
                    abs(sld_inner(rho, duals[j], d_dual) - z_op[j, i].imag),
                    witness,
                )
                track.note(
                    "commutation_mixed_pairing",
                    abs(
                        sld_inner(rho, rduals[j], d_dual)
                        - (-1j) * (gt_inv[j, i] - g_inv[j, i])
                    )
                    / pairing_scale,
                    witness,
                )

        # Bound inequalities: they hold by construction, so with no slack.
        report = holevo_bound(fb, w)
        violation = max(report.c_h - report.c_z, report.c_s - report.c_h,
                        report.c_r - report.c_h, 0.0)
        track.note("bound_inequality_chain", violation, witness_w)
        closed = (report.c_s, report.c_r, report.c_z)
        track.note(
            "bounds_vs_matrix_forms",
            max(abs(x - y) / abs(y) for x, y in zip(closed, _matrix_form_bounds(fm, w))),
            witness_w,
        )

    # Closed form versus the oracle minimizations, on fresh generic pairs.
    branch_counts: dict[str, int] = {}
    for _ in range(count):
        m, w = random_generic_pair(rng)
        witness = _describe(m, w)
        fb = fisher_bundle(m)
        report = holevo_bound(fb, w)
        branch_counts[report.branch.value] = branch_counts.get(report.branch.value, 0) + 1
        fm = fisher_matrices(m, fb)
        value_2d, _ = minimize_holevo_2d(m, w, fm)
        track.note(
            "holevo_vs_reduced_search",
            abs(value_2d - report.c_h) / abs(report.c_h),
            witness,
        )
        dp = density_point(m)
        value_6d = minimize_holevo_6d(dp, w)
        track.note(
            "holevo_vs_constrained_search",
            abs(value_6d - report.c_h) / abs(report.c_h),
            witness,
        )
        track.note(
            "z_bound_from_duals",
            abs(report.c_z - _holevo_at_duals(fm, w, dp)) / abs(report.c_z),
            witness,
        )

    report = VerificationReport(seed=seed, count=count, branch_counts=branch_counts)
    for name, tol in TOLERANCES.items():
        report.rows.append(track.row(name, tol))
    return report


def _holevo_at_duals(fm, w, dp) -> float:
    """Holevo function at the feasible point given by the dual vectors, with
    ``dp`` the density point of ``fm.point``; equals the D-invariant bound by
    construction."""
    pair = pair_from_bloch_vectors(fm.point, fm.dual1, fm.dual2)
    return holevo_function(dp, pair, w)
