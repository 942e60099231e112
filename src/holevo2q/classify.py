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

from .bloch import (CLASSIFICATION_RTOL, TANGENCY_RTOL, BlochModelPoint, Record, cross, dot3,
                    ell_perp, rld_bloch_vectors)
from .bounds import WeightMatrix, holevo_bound
from .errors import AsymptoticallyClassicalLimitError, DomainError, PureStateError
from .fisher import FisherBundle, bloch_scalars_many, fisher_bundle, fisher_matrices

__all__ = [
    "CLASSIFICATION_RTOL",
    "TANGENCY_RTOL",
    "ModelLabel",
    "ModelClass",
    "classify_point",
    "FamilyClassification",
    "classify_family",
    "classify_rows",
    "pure_limit_duals",
    "pure_limit_rld_inverse",
    "pure_limit_holevo",
]

class ModelLabel(enum.Enum):
    D_INVARIANT = "d_invariant"
    ASYMPTOTICALLY_CLASSICAL = "asymptotically_classical"
    GENERIC = "generic"


class ModelClass(Record):
    """Classification verdict with the raw diagnostics that produced it, for
    one point (plain values, ``label`` a :class:`ModelLabel`) or a stack of
    points (arrays over the rows, ``label`` of the ``ModelLabel`` value
    strings, as a stacked report's ``branch`` holds ``Branch`` values).

    Both flags can hold at once (e.g. at the Bloch-ball origin); the label
    then reports D-invariance.  As for a stacked
    :class:`~holevo2q.fisher.FisherBundle`, a stack has no equality or hash.
    """

    label: ModelLabel
    d_invariant: bool
    asymptotically_classical: bool
    gamma: np.ndarray
    triple_product: float


def _model_class(fb: FisherBundle) -> ModelClass:
    """The stacked verdict of a bundle's flags: D-invariance wins where both hold."""
    label = np.where(fb.d_invariant, ModelLabel.D_INVARIANT.value,
                     np.where(fb.asymptotically_classical,
                              ModelLabel.ASYMPTOTICALLY_CLASSICAL.value, ModelLabel.GENERIC.value))
    return ModelClass(label, fb.d_invariant, fb.asymptotically_classical, fb.gamma,
                      fb.triple_product)


def classify_point(m: BlochModelPoint) -> ModelClass:
    """:func:`classify_rows`'s verdict at one mixed model point, in plain values.

    Raises :class:`DegenerateModelError` when the derivatives are dependent;
    a singular SLD Fisher matrix is not an error here.
    """
    c = _model_class(bloch_scalars_many(m.s, m.d1s, m.d2s))
    return ModelClass(ModelLabel(str(c.label)), bool(c.d_invariant),
                      bool(c.asymptotically_classical), c.gamma, float(c.triple_product))


class FamilyClassification(Record):
    globally_d_invariant: bool
    radii: np.ndarray
    point_classes: ModelClass


def classify_rows(s, d1, d2) -> FamilyClassification:
    """The verdicts of the rows of (N, 3) stacks of (s, d1s, d2s), as one
    stacked :class:`ModelClass`, from one
    :func:`~holevo2q.fisher.bloch_scalars_many` pass that raises what
    ``classify_point`` raises at the first row that fails.  Row i has the bits
    of ``classify_point`` of that row.  The rows are globally D-invariant iff
    |s| is constant over them (relative spread below ``CLASSIFICATION_RTOL``).
    """
    s = np.asarray(s, dtype=float)
    if not len(s):
        raise DomainError("classification grid is empty")
    point_classes = _model_class(bloch_scalars_many(s, d1, d2))
    radii = np.sqrt(dot3(s, s))
    spread = float(radii.max() - radii.min())
    globally_d_invariant = spread <= CLASSIFICATION_RTOL * max(float(radii.max()), 1e-300)
    return FamilyClassification(globally_d_invariant, radii, point_classes)


def classify_family(family, grid) -> FamilyClassification:
    """Classify a parametric family over a grid of parameter points.

    ``family`` is a family of :mod:`holevo2q.models`; ``grid`` is an iterable
    of 2-vectors.  The grid is one ``evaluate_many`` pass, classified by
    :func:`classify_rows`.  At the first grid point where
    ``classify_point(family.evaluate(theta))`` raises, this raises the same.
    """
    thetas = list(grid)
    # A malformed theta becomes a NaN row, which evaluate_many marks unusable.
    rows = [t if np.shape(t) == (2,) else (np.nan, np.nan) for t in thetas]
    t1, t2 = np.array(rows, dtype=float).reshape(-1, 2).T
    s, d1, d2, usable = family.evaluate_many(t1, t2)
    if not usable.all():
        first = int(np.argmin(usable))
        bloch_scalars_many(s[:first], d1[:first], d2[:first])  # a failing earlier row raises
        classify_point(family.evaluate(thetas[first]))  # an unusable point raises here
    return classify_rows(s, d1, d2)


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


def pure_limit_holevo(m: BlochModelPoint, w: WeightMatrix) -> float:
    """Holevo bound in the pure-state limit: the RLD bound ``c_r`` of
    :func:`holevo2q.bounds.holevo_bound` at a mixed point; on the shell,
    Tr(W Gram(l^1, l^2)) + 2 sqrt(det W)/|c|."""
    if m.is_mixed:
        return holevo_bound(fisher_bundle(m), w).c_r
    l1, l2, c = _shell_limit(m)
    trace = w.w11 * (l1 @ l1) + 2.0 * w.w12 * (l1 @ l2) + w.w22 * (l2 @ l2)
    return float(trace + 2.0 * np.sqrt(w.det) / abs(c))
