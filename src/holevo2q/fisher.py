"""SLD and RLD Fisher information in Bloch form, as the explicit bounds read it.

Of a mixed two-parameter qubit point (s, d1s, d2s) the bounds of
:mod:`holevo2q.bounds` read only a few Bloch scalars; the SLD Fisher matrix,
for one, is G = Gram + r r^T/(1 - s^2) with Gram_ij = <d_i s, d_j s> and
r_i = <s, d_i s>.  The 3x3 matrix forms of G, G~ and Z that cross-check
them are in :mod:`holevo2q.matrix_forms`.

Each quantity has one producer, ``bloch_scalars_many``.  It computes, in
one pass over (N, 3) stacks of (s, d1s, d2s), the Bloch scalars the
explicit bounds are built from (Gram matrix, r_i = <s, d_i s>, k = <s, n>,
p = <n, Q^-1 n>, 1 - s^2), gamma and the two special-model flags that
``classify_point`` reports.  p is taken in Lagrange form because the equal
|n|^2 - k^2 cancels near the shell.  ``fisher_bundle_many`` is the same
pass with a guard on the singularity of G; it is what every bound reads,
and the one guard that ``matrix_forms.sld_duals`` runs when it has no
bundle.  A one-point bundle has the fields of a stacked one; ``fisher_bundle``
is the pass on one point, made plain by :meth:`FisherBundle.item`.
``classify.ModelClass`` is a ``bloch_scalars_many`` bundle read as a verdict.
"""

from __future__ import annotations

import numpy as np

from .bloch import (CLASSIFICATION_RTOL, SINGULAR_RTOL, BlochModelPoint, Record, cross, dependent,
                    dot3, mixed, not_mixed_message, stack_last)
from .errors import DegenerateModelError, DomainError, PureStateError, raise_first

__all__ = [
    "FisherBundle",
    "bloch_scalars_many",
    "fisher_bundle",
    "fisher_bundle_many",
]

class FisherBundle(Record):
    """The Bloch scalars and class flags of one mixed model point, or of a
    stack of points (the same fields, each with the stack's leading axes)."""

    gram: np.ndarray         # <d_i s, d_j s>, real symmetric (..., 2, 2)
    radial: np.ndarray       # r_i = <s, d_i s>, real (..., 2)
    triple_product: float    # k = <s, n>, n = l_perp = d1s x d2s
    perp_quadratic: float    # p = <n, Q^-1 n> = (1-s^2)|n|^2 + |s x n|^2
    gamma: np.ndarray        # gamma_i = <s, l_i> = r_i / (1 - s^2), real (..., 2)
    one_minus_s_sq: float
    d_invariant: bool        # |r_i| <= CLASSIFICATION_RTOL |s||d_i s|, both i
    asymptotically_classical: bool  # |k| <= CLASSIFICATION_RTOL |s||n|

    def item(self):
        """This one-point record with its numpy scalars as plain ``float`` and ``bool``."""
        return type(self)(*(v.item() if isinstance(v, np.generic) else v for v in self._values()))


def bloch_scalars_many(s, d1, d2, invertible: bool = False) -> FisherBundle:
    """The Bloch scalars and class flags of the rows of (N, 3) stacks of
    (s, d1s, d2s), or of one point's 3-vectors.

    Raises, for the first row that fails and in this order within a row,
    :class:`PureStateError` off the open Bloch ball, :class:`DomainError` where
    |d1s|^2 + |d2s|^2 + p is not finite (so every returned field is finite),
    :class:`DegenerateModelError` for dependent derivatives and, when
    ``invertible``, for a singular SLD Fisher matrix G = Gram + r r^T/(1 - s^2).
    """
    s, d1, d2 = (np.asarray(x, dtype=float) for x in (s, d1, d2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s_squared = dot3(s, s)
        one_minus = 1.0 - s_squared
        r1, r2 = dot3(s, d1), dot3(s, d2)
        g11, g12, g22 = dot3(d1, d1), dot3(d1, d2), dot3(d2, d2)
        n = np.ascontiguousarray(cross(d1, d2))
        n_squared = dot3(n, n)
        s_cross_n = r2[..., None] * d1 - r1[..., None] * d2
        p = one_minus * n_squared + dot3(s_cross_n, s_cross_n)
        checks = [
            (~mixed(s_squared), PureStateError, lambda i: not_mixed_message(s.reshape(-1, 3)[i])),
            (~np.isfinite(g11 + g22 + p), DomainError, "derivatives overflow in floats"),
            (dependent(d1, d2, n), DegenerateModelError, "d1s and d2s are linearly dependent"),
        ]
        if invertible:
            h11, h12 = g11 + r1 * r1 / one_minus, g12 + r1 * r2 / one_minus
            h22 = g22 + r2 * r2 / one_minus
            norm_sq = h11 * h11 + h12 * h12 + h12 * h12 + h22 * h22
            singular = (h11 <= 0.0) | (h11 * h22 - h12 * h12 <= SINGULAR_RTOL * norm_sq)
            message = "SLD Fisher matrix is singular; derivatives degenerate"
            checks.append((singular, DegenerateModelError, message))
        raise_first(checks)
    triple = dot3(s, n)
    tol = CLASSIFICATION_RTOL * np.sqrt(s_squared)
    return FisherBundle(
        gram=stack_last([[g11, g12], [g12, g22]], 2),
        radial=stack_last([r1, r2], 1),
        triple_product=triple,
        perp_quadratic=p,
        gamma=stack_last([r1 / one_minus, r2 / one_minus], 1),
        one_minus_s_sq=one_minus,
        d_invariant=(abs(r1) <= tol * np.sqrt(g11)) & (abs(r2) <= tol * np.sqrt(g22)),
        asymptotically_classical=abs(triple) <= tol * np.sqrt(n_squared),
    )


def fisher_bundle_many(s, d1, d2) -> FisherBundle:
    """:func:`bloch_scalars_many` of rows whose SLD Fisher matrix is
    invertible: the input of every bound."""
    return bloch_scalars_many(s, d1, d2, invertible=True)


def fisher_bundle(m: BlochModelPoint) -> FisherBundle:
    """:func:`fisher_bundle_many` of one point, in plain values."""
    return fisher_bundle_many(m.s, m.d1s, m.d2s).item()
