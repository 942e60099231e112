"""Exception hierarchy for qubit-model bound computations.

Every error raised by this package derives from :class:`ModelError`, so
callers (notably the CLI) can distinguish invalid input from genuine bugs.
Exception class names are part of the user-facing contract: the CLI prints
them verbatim when rejecting input.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ModelError",
    "PureStateError",
    "DegenerateModelError",
    "SingularMatrixError",
    "SpecialModelError",
    "DomainError",
    "FeasibilityError",
    "OracleCertificateError",
    "AsymptoticallyClassicalLimitError",
    "raise_first",
]


class ModelError(ValueError):
    """Base class for all domain errors raised by this package."""


class PureStateError(ModelError):
    """A mixed-state operation was applied at or beyond the pure shell |s| = 1."""


class DegenerateModelError(ModelError):
    """Model derivatives are (numerically) linearly dependent, or a Fisher
    matrix is singular beyond tolerance."""


class SingularMatrixError(ModelError):
    """A matrix that must be invertible is numerically singular."""


class SpecialModelError(ModelError):
    """An operation that requires a generic model was applied to a D-invariant
    or asymptotically classical point."""


class DomainError(ModelError):
    """An input lies outside the declared domain, or a result outside floats."""


class FeasibilityError(ModelError):
    """An observable pair violates the local-unbiasedness constraints."""


class OracleCertificateError(ModelError):
    """An oracle minimizer's raw objective contradicts its closed-form
    minimum: the model fit or the subgradient certificate failed."""


class AsymptoticallyClassicalLimitError(ModelError):
    """The pure-state limit formulas degenerate: the model is asymptotically
    classical at the pure shell."""


def raise_first(checks) -> None:
    """Raise what a loop over the cells would raise first: ``checks`` holds
    ``(bad, exc_class, message)``, ``bad`` a mask over the cells, ``message``
    a string or a function of the flat index; within a cell the earlier
    check wins.  The error's ``index`` is the flat index of its cell."""
    hits = [(np.flatnonzero(bad)[0], k)
            for k, (bad, *_) in enumerate(checks) if np.count_nonzero(bad)]
    if hits:
        index, k = min(hits)
        _, exc, message = checks[k]
        error = exc(message(int(index)) if callable(message) else message)
        error.index = int(index)
        raise error
