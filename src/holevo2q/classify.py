"""Model classification and pure-state-limit operations.

A mixed two-parameter qubit point falls into one of three classes:

* D-invariant: <s, d_i s> = 0 for both i (equivalently gamma = 0, or
  Re G~^-1 = G^-1).  The Holevo bound equals the RLD bound for every weight.
* asymptotically classical: <s, d1s x d2s> = 0.  The Z matrix is real and
  the Holevo bound equals the SLD bound for every weight.
* generic: everything else; the bound switches branch as the weight varies.

A family is globally D-invariant exactly when |s_theta| is constant, which
happens iff the family is unitary.

The pure-shell operations evaluate the dual Bloch vectors and the bound via
forms that stay finite as |s| -> 1.  With n = d1s x d2s and c = <s, n>:

* away from the shell the duals are  l^1 = -(Q^-1 n) x d2s / N,
  l^2 = +(Q^-1 n) x d1s / N  with N = <n, Q^-1 n> = |n|^2 - c^2 + |n|^2(1-s^2)
  corrections folded in, and the analogous RLD expressions;
* on the shell with tangent derivatives (a genuine pure model) both N and
  Q^-1 n vanish; the cancelled limits are l^1 = -(s x d2s)/c and
  l^2 = +(s x d1s)/c, the RLD duals coincide with the SLD duals, and the
  bound becomes Tr(W Gram(l^1, l^2)) + 2 sqrt(det W)/|c|;
* c -> 0 on the shell is the asymptotically classical degeneration, where
  the RLD-side limit collapses and an error is raised instead.
"""

from __future__ import annotations

import enum

import numpy as np

from .bloch import (
    CLASSIFICATION_RTOL,
    BlochModelPoint,
    Record,
    ell_perp,
    f_matrix,
)
from .bounds import WeightMatrix, trabs
from .errors import (
    AsymptoticallyClassicalLimitError,
    DomainError,
    PureStateError,
)
from .fisher import bloch_scalars

__all__ = [
    "CLASSIFICATION_RTOL",
    "TANGENCY_RTOL",
    "ModelLabel",
    "ModelClass",
    "classify_point",
    "FamilyClassification",
    "classify_family",
    "pure_limit_duals",
    "pure_limit_rld_inverse",
    "pure_limit_holevo",
]

# |l_perp x s| below this fraction of |l_perp| counts as tangent on the shell.
TANGENCY_RTOL = 1e-8


class ModelLabel(enum.Enum):
    D_INVARIANT = "d_invariant"
    ASYMPTOTICALLY_CLASSICAL = "asymptotically_classical"
    GENERIC = "generic"


class ModelClass(Record):
    """Classification verdict with the raw diagnostics that produced it.

    Both flags can hold at once (e.g. at the Bloch-ball origin); the label
    then reports D-invariance.
    """

    label: ModelLabel
    d_invariant: bool
    asymptotically_classical: bool
    gamma: np.ndarray
    triple_product: float


def classify_point(m: BlochModelPoint) -> ModelClass:
    """Classify a mixed model point by the flags of :func:`holevo2q.fisher.bloch_scalars`.

    Raises :class:`DegenerateModelError` when the derivatives are dependent;
    a singular SLD Fisher matrix is not an error here.
    """
    fb = bloch_scalars(m)
    if fb.d_invariant:
        label = ModelLabel.D_INVARIANT
    elif fb.asymptotically_classical:
        label = ModelLabel.ASYMPTOTICALLY_CLASSICAL
    else:
        label = ModelLabel.GENERIC
    return ModelClass(
        label, fb.d_invariant, fb.asymptotically_classical, fb.gamma, fb.triple_product
    )


class FamilyClassification(Record):
    globally_d_invariant: bool
    radii: np.ndarray
    point_classes: tuple[ModelClass, ...]


def classify_family(family, grid) -> FamilyClassification:
    """Classify a parametric family over a grid of parameter points.

    ``family`` is any object with ``evaluate(theta) -> BlochModelPoint``
    (see :mod:`holevo2q.models`); ``grid`` is an iterable of 2-vectors.
    The family is globally D-invariant iff |s| is constant over the grid
    (relative spread below ``CLASSIFICATION_RTOL``).
    """
    points = [family.evaluate(theta) for theta in grid]
    if not points:
        raise DomainError("classification grid is empty")
    radii = np.array([np.linalg.norm(p.s) for p in points])
    spread = float(radii.max() - radii.min())
    globally_d_invariant = spread <= CLASSIFICATION_RTOL * max(float(radii.max()), 1e-300)
    point_classes = tuple(classify_point(p) for p in points)
    return FamilyClassification(
        globally_d_invariant=globally_d_invariant,
        radii=radii,
        point_classes=point_classes,
    )


def _limit_geometry(m: BlochModelPoint):
    """Shared ingredients of the limit-safe dual formulas."""
    n = ell_perp(m)
    c = float(m.s @ n)
    qn = n - c * m.s  # Q^-1 n
    quad = float(n @ qn)  # <n, Q^-1 n>
    return n, c, qn, quad


def _classical_guard(m: BlochModelPoint, n: np.ndarray, c: float) -> None:
    scale = float(np.linalg.norm(m.s) * np.linalg.norm(n))
    if abs(c) <= CLASSIFICATION_RTOL * max(scale, 1e-300):
        raise AsymptoticallyClassicalLimitError(
            "pure-state limit degenerates: <s, d1s x d2s> = 0 at the shell"
        )


def _is_tangent(n: np.ndarray, quad: float) -> bool:
    return quad <= (TANGENCY_RTOL * float(np.linalg.norm(n))) ** 2


def pure_limit_duals(
    m: BlochModelPoint,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SLD and RLD dual Bloch vectors via the limit-safe cross-product forms.

    Returns ``(l1, l2, lt1, lt2)``.  For mixed points these agree with the
    inverse-Fisher constructions l^i = sum_j (G^-1)_ji l_j and
    l~^i = sum_j (G~^-1)_ji l~_j; on the pure
    shell they remain finite wherever the model is not asymptotically
    classical there.
    """
    n, c, qn, quad = _limit_geometry(m)
    if m.is_mixed:
        return _duals_from_geometry(m, n, c, qn, quad)
    _classical_guard(m, n, c)
    if _is_tangent(n, quad):
        # Genuine pure model: derivatives tangent, n parallel to s.  The
        # 0/0 in the generic formulas cancels to the expressions below,
        # and D-invariance of constant-norm families makes the RLD duals
        # coincide with the SLD ones.
        l1 = -np.cross(m.s, m.d2s) / c
        l2 = np.cross(m.s, m.d1s) / c
        return l1, l2, l1.astype(complex), l2.astype(complex)
    return _duals_from_geometry(m, n, c, qn, quad)


def _duals_from_geometry(m, n, c, qn, quad):
    if quad <= 0.0:
        raise AsymptoticallyClassicalLimitError(
            "dual-vector denominator <l_perp, Q^-1 l_perp> vanishes"
        )
    l1 = -np.cross(qn, m.d2s) / quad
    l2 = np.cross(qn, m.d1s) / quad
    f = f_matrix(m)
    v1 = -(np.cross(n, m.d2s) - 1j * c * m.d2s)
    v2 = np.cross(n, m.d1s) - 1j * c * m.d1s
    one_minus_if = np.eye(3) - 1j * f
    lt1 = one_minus_if @ v1 / quad
    lt2 = one_minus_if @ v2 / quad
    return l1, l2, lt1, lt2


def pure_limit_rld_inverse(m: BlochModelPoint) -> np.ndarray:
    """Inverse RLD Fisher matrix through the limit-safe dual route.

    For mixed points this reproduces ``fisher_matrices(m).g_tilde_inv``; on
    the shell it evaluates the tangent-limit form with Re part the Gram
    matrix of the limiting duals and Im part -J/c.
    """
    n, c, qn, quad = _limit_geometry(m)
    if m.is_mixed:
        one_minus_sq = 1.0 - m.s_squared
        f = f_matrix(m)
        one_minus_if = np.eye(3) - 1j * f
        v1 = -(np.cross(n, m.d2s) - 1j * c * m.d2s)
        v2 = np.cross(n, m.d1s) - 1j * c * m.d1s
        lhs = [one_minus_if @ v1, one_minus_if @ v2]
        rhs = [v1, v2]
        return np.array(
            [[one_minus_sq * np.vdot(li, vj) / quad**2 for vj in rhs] for li in lhs]
        )
    _classical_guard(m, n, c)
    if not _is_tangent(n, quad):
        raise PureStateError(
            "pure-shell point has non-tangent derivatives; the RLD limit "
            "collapses and is not a valid pure-state model"
        )
    l1, l2, _, _ = pure_limit_duals(m)
    gram = np.array(
        [
            [np.dot(l1, l1), np.dot(l1, l2)],
            [np.dot(l2, l1), np.dot(l2, l2)],
        ],
        dtype=complex,
    )
    gram[0, 1] += -1j / c
    gram[1, 0] += 1j / c
    return gram


def pure_limit_holevo(m: BlochModelPoint, w) -> float:
    """Holevo bound in the pure-state limit: the RLD expression evaluated
    through the limit-safe inverse RLD Fisher matrix.

    For mixed points the value equals the RLD bound; on the shell the
    tangent-limit form Tr(W Gram) + 2 sqrt(det W)/|c| is returned.
    """
    weight = w if isinstance(w, WeightMatrix) else WeightMatrix.from_matrix(w)
    gt_inv = pure_limit_rld_inverse(m)
    return float(
        np.trace(weight.matrix @ gt_inv.real) + trabs(weight, gt_inv.imag)
    )
