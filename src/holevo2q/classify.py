"""Model classification and pure-state-limit operations.

A mixed two-parameter qubit point falls into one of three classes:

* D-invariant: <s, d_i s> = 0 for both i (equivalently gamma = 0, or
  Re G~^-1 = G^-1).  The Holevo bound equals the RLD bound for every weight.
* asymptotically classical: <s, d1s x d2s> = 0.  The Z matrix is real and
  the Holevo bound equals the SLD bound for every weight.
* generic: everything else; the bound switches branch as the weight varies.

A family is globally D-invariant exactly when |s_theta| is constant, which
happens iff the family is unitary.

The pure-limit operations read the Fisher route at a mixed point
(``fisher_matrices``, ``holevo_bound``).  On the shell, with n = d1s x d2s
and c = <s, n>, a genuine pure model has derivatives tangent to the sphere
(n parallel to s); the SLD duals then have the limits l^1 = -(s x d2s)/c and
l^2 = (s x d1s)/c, the RLD duals coincide with them, and the bound is
Tr(W Gram(l^1, l^2)) + 2 sqrt(det W)/|c|.  c -> 0 is the asymptotically
classical degeneration, where an error is raised instead.
"""

from __future__ import annotations

import enum

import numpy as np

from .bloch import (
    CLASSIFICATION_RTOL,
    BlochModelPoint,
    Record,
    cross,
    ell_perp,
    rld_bloch_vectors,
)
from .bounds import WeightMatrix, holevo_bound
from .errors import (
    AsymptoticallyClassicalLimitError,
    DomainError,
    PureStateError,
)
from .fisher import bloch_scalars, fisher_bundle, fisher_matrices

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


def _shell_limit(m: BlochModelPoint) -> tuple[np.ndarray, np.ndarray, float]:
    """(l^1, l^2, c) at a pure-shell point: the tangent limits of the SLD duals.

    Raises :class:`AsymptoticallyClassicalLimitError` where c = <s, n>
    vanishes and :class:`PureStateError` where the derivatives are not
    tangent to the sphere.  The tangency test reads |n x s| itself: its
    square, |n|^2 - c^2, cancels to rounding size, far above TANGENCY_RTOL^2.
    """
    n = ell_perp(m)
    c = float(m.s @ n)
    scale = float(np.linalg.norm(m.s) * np.linalg.norm(n))
    if abs(c) <= CLASSIFICATION_RTOL * max(scale, 1e-300):
        raise AsymptoticallyClassicalLimitError(
            "pure-state limit degenerates: <s, d1s x d2s> = 0 at the shell"
        )
    if np.linalg.norm(cross(n, m.s)) > TANGENCY_RTOL * np.linalg.norm(n):
        raise PureStateError(
            "pure-shell point has non-tangent derivatives; the RLD limit "
            "collapses and is not a valid pure-state model"
        )
    return -cross(m.s, m.d2s) / c, cross(m.s, m.d1s) / c, c


def pure_limit_duals(
    m: BlochModelPoint,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SLD and RLD dual Bloch vectors ``(l1, l2, lt1, lt2)``.

    At a mixed point these are ``fisher_matrices(m).dual1/dual2`` and
    l~^i = sum_j (G~^-1)_ji l~_j; on the shell, the tangent limits, with the
    RLD duals equal to the SLD ones.
    """
    if m.is_mixed:
        fm = fisher_matrices(m)
        gt_inv = fm.g_tilde_inv
        r1, r2 = rld_bloch_vectors(m)
        rdual1 = gt_inv[0, 0] * r1 + gt_inv[1, 0] * r2
        rdual2 = gt_inv[0, 1] * r1 + gt_inv[1, 1] * r2
        return fm.dual1, fm.dual2, rdual1, rdual2
    l1, l2, _ = _shell_limit(m)
    return l1, l2, l1.astype(complex), l2.astype(complex)


def pure_limit_rld_inverse(m: BlochModelPoint) -> np.ndarray:
    """Inverse RLD Fisher matrix: ``fisher_matrices(m).g_tilde_inv`` at a
    mixed point; on the shell, Gram(l^1, l^2) with imaginary part -J/c."""
    if m.is_mixed:
        return fisher_matrices(m).g_tilde_inv
    l1, l2, c = _shell_limit(m)
    g12 = float(l1 @ l2)
    return np.array([[l1 @ l1, g12 - 1j / c], [g12 + 1j / c, l2 @ l2]], dtype=complex)


def pure_limit_holevo(m: BlochModelPoint, w) -> float:
    """Holevo bound in the pure-state limit: the RLD bound ``c_r`` of
    :func:`holevo2q.bounds.holevo_bound` at a mixed point; on the shell,
    Tr(W Gram(l^1, l^2)) + 2 sqrt(det W)/|c|."""
    weight = w if isinstance(w, WeightMatrix) else WeightMatrix.from_matrix(w)
    if m.is_mixed:
        return holevo_bound(fisher_bundle(m), weight).c_r
    l1, l2, c = _shell_limit(m)
    trace = weight.w11 * (l1 @ l1) + 2.0 * weight.w12 * (l1 @ l2) + weight.w22 * (l2 @ l2)
    return float(trace + 2.0 * np.sqrt(weight.det) / abs(c))
