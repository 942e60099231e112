"""Model classification.

A mixed two-parameter qubit point falls into one of three classes:

* D-invariant: <s, d_i s> = 0 for both i (equivalently gamma = 0, or
  Re G~^-1 = G^-1).  The Holevo bound equals the RLD bound for every weight.
* asymptotically classical: <s, d1s x d2s> = 0.  The Z matrix is real and
  the Holevo bound equals the SLD bound for every weight.
* generic: everything else; the bound switches branch as the weight varies.

A verdict, :class:`ModelClass`, is the bundle of one ``bloch_scalars_many``
pass, whose ``label`` reads its flags: :func:`classify_rows` over the rows of
a family's ``evaluate_many`` grid, :func:`classify_point` its length-1 view.
A family is globally D-invariant where every row's ``d_invariant`` flag holds;
the theorem's equivalent, |s_theta| constant (the unitary families), is not
the test.
The pure-state limits, which continue the Bloch-matrix forms to the shell,
are in :mod:`holevo2q.matrix_forms`.
"""

from __future__ import annotations

import enum

import numpy as np

from .bloch import CLASSIFICATION_RTOL, BlochModelPoint
from .errors import DomainError
from .fisher import FisherBundle, bloch_scalars_many

__all__ = [
    "CLASSIFICATION_RTOL",
    "ModelLabel",
    "ModelClass",
    "classify_point",
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
    return classify_rows(m.s, m.d1s, m.d2s).item()


def classify_rows(s, d1, d2) -> ModelClass:
    """The verdicts of the rows of (N, 3) stacks of (s, d1s, d2s), or of one
    point's 3-vectors, as one stacked :class:`ModelClass`, from one
    :func:`~holevo2q.fisher.bloch_scalars_many` pass that raises what
    ``classify_point`` raises at the first row that fails.  Row i has the bits
    of ``classify_point`` of that row.
    """
    if not len(s):
        raise DomainError("classification grid is empty")
    return ModelClass(*bloch_scalars_many(s, d1, d2)._values())
