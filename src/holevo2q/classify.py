"""Model classification.

A mixed two-parameter qubit point falls into one of three classes:

* D-invariant: <s, d_i s> = 0 for both i (equivalently gamma = 0, or
  Re G~^-1 = G^-1).  The Holevo bound equals the RLD bound for every weight.
* asymptotically classical: <s, d1s x d2s> = 0.  The Z matrix is real and
  the Holevo bound equals the SLD bound for every weight.
* generic: everything else; the bound switches branch as the weight varies.

A family is globally D-invariant, as :func:`classify_rows` reports over its
``evaluate_many`` rows, exactly when |s_theta| is constant: iff it is unitary.

A verdict, :class:`ModelClass`, is the bundle of one ``bloch_scalars_many``
pass, whose ``label`` reads its flags (:func:`classify_point` at one point).
The pure-state limits, which continue the Bloch-matrix forms to the shell,
are in :mod:`holevo2q.matrix_forms`.
"""

from __future__ import annotations

import enum

import numpy as np

from .bloch import CLASSIFICATION_RTOL, BlochModelPoint, Record, dot3
from .errors import DomainError
from .fisher import FisherBundle, bloch_scalars_many

__all__ = [
    "CLASSIFICATION_RTOL",
    "ModelLabel",
    "ModelClass",
    "classify_point",
    "FamilyClassification",
    "classify_rows",
]

class ModelLabel(enum.Enum):
    D_INVARIANT = "d_invariant"
    ASYMPTOTICALLY_CLASSICAL = "asymptotically_classical"
    GENERIC = "generic"


class ModelClass(FisherBundle):
    """A :class:`~holevo2q.fisher.FisherBundle` read as a verdict.  ``label``,
    in which D-invariance wins where both flags hold (e.g. at the Bloch-ball
    origin), is a :class:`ModelLabel` at one point and the ``ModelLabel`` value
    strings over a stack, as a stacked report's ``branch`` holds ``Branch``
    values.  It compares as a bundle, with ``np.array_equal`` on its array
    fields, and like any bundle it has no hash."""

    @property
    def label(self):
        label = np.where(self.d_invariant, ModelLabel.D_INVARIANT.value, np.where(
            self.asymptotically_classical, ModelLabel.ASYMPTOTICALLY_CLASSICAL.value,
            ModelLabel.GENERIC.value))
        return ModelLabel(label.item()) if label.ndim == 0 else label


def classify_point(m: BlochModelPoint) -> ModelClass:
    """:func:`classify_rows`'s verdict at one mixed model point, in plain values.

    Raises :class:`DegenerateModelError` for dependent derivatives, DomainError
    where they overflow; a singular SLD Fisher matrix is not an error here.
    """
    return ModelClass(*bloch_scalars_many(m.s, m.d1s, m.d2s)._values()).item()


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
    point_classes = ModelClass(*bloch_scalars_many(s, d1, d2)._values())
    radii = np.sqrt(dot3(s, s))
    spread = float(radii.max() - radii.min())
    globally_d_invariant = spread <= CLASSIFICATION_RTOL * max(float(radii.max()), 1e-300)
    return FamilyClassification(globally_d_invariant, radii, point_classes)
