"""SLD and RLD Fisher information in Bloch form, as the explicit bounds read it.

Of a mixed two-parameter qubit point (s, d1s, d2s) the bounds of
:mod:`holevo2q.bounds` read only a few Bloch scalars; the SLD Fisher matrix,
for one, is G = Gram + r r^T/(1 - s^2) with Gram_ij = <d_i s, d_j s> and
r_i = <s, d_i s>.  The 3x3 matrix forms of G, G~ and Z that cross-check
them are in :mod:`holevo2q.matrix_forms`.

Each quantity has one producer:

* ``bloch_scalars_many`` computes, in one pass over (N, 3) stacks of
  (s, d1s, d2s), the Bloch scalars the explicit bounds are built from (Gram
  matrix, r_i = <s, d_i s>, k = <s, n>, p = <n, Q^-1 n>, 1 - s^2), gamma
  and the two special-model flags that ``classify_point`` reports.  p is
  taken in Lagrange form because the equal |n|^2 - k^2 cancels near the
  shell.  ``fisher_bundle_many`` is the same pass with a guard on the
  singularity of G; it is what every bound reads.  ``fisher_bundle`` is the
  same pass on one point, and ``classify_point`` reads the flags of a
  one-point ``bloch_scalars_many``.
* ``_admit`` is the accept/reject half of that pass, the one guard;
  ``matrix_forms.sld_duals`` runs it alone when it has no bundle.
"""

from __future__ import annotations

import numpy as np

from .bloch import (CLASSIFICATION_RTOL, SINGULAR_RTOL, BlochModelPoint, Record, cross, dependent,
                    dot3, mixed, not_mixed_message, stack_last)
from .errors import DegenerateModelError, PureStateError, raise_first

__all__ = [
    "FisherBundle",
    "bloch_scalars_many",
    "fisher_bundle",
    "fisher_bundle_many",
]

class FisherBundle(Record):
    """The Bloch scalars and class flags of one mixed model point, or of a
    stack of points (``point`` None, each field with the stack's leading axes)."""

    point: BlochModelPoint | None
    gram: np.ndarray         # <d_i s, d_j s>, real symmetric (..., 2, 2)
    radial: np.ndarray       # r_i = <s, d_i s>, real (..., 2)
    triple_product: float    # k = <s, n>, n = l_perp = d1s x d2s
    perp_quadratic: float    # p = <n, Q^-1 n> = (1-s^2)|n|^2 + |s x n|^2
    gamma: np.ndarray        # gamma_i = <s, l_i> = r_i / (1 - s^2), real (..., 2)
    one_minus_s_sq: float
    d_invariant: bool        # |r_i| <= CLASSIFICATION_RTOL |s||d_i s|, both i
    asymptotically_classical: bool  # |k| <= CLASSIFICATION_RTOL |s||n|


def _admit(s, d1, d2, invertible: bool):
    """The accept/reject half of :func:`bloch_scalars_many`, which reuses its scalars."""
    s, d1, d2 = (np.asarray(x, dtype=float) for x in (s, d1, d2))
    s_squared = dot3(s, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        one_minus = 1.0 - s_squared
        r1, r2 = dot3(s, d1), dot3(s, d2)
        g11, g12, g22 = dot3(d1, d1), dot3(d1, d2), dot3(d2, d2)
        n = np.ascontiguousarray(cross(d1, d2))
        checks = [
            (~mixed(s_squared), PureStateError, lambda i: not_mixed_message(s_squared.flat[i])),
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
    return s, d1, d2, s_squared, one_minus, r1, r2, g11, g12, g22, n


def bloch_scalars_many(s, d1, d2, invertible: bool = False) -> FisherBundle:
    """The Bloch scalars and class flags of the rows of (N, 3) stacks of
    (s, d1s, d2s), or of one point's 3-vectors.

    Raises, for the first row that fails and in this order within a row,
    :class:`PureStateError` off the open Bloch ball,
    :class:`DegenerateModelError` for dependent derivatives and, when
    ``invertible``, :class:`DegenerateModelError` for a singular SLD Fisher
    matrix G = Gram + r r^T/(1 - s^2).
    """
    s, d1, d2, s_squared, one_minus, r1, r2, g11, g12, g22, n = _admit(s, d1, d2, invertible)
    n_squared = dot3(n, n)
    triple = dot3(s, n)
    s_cross_n = r2[..., None] * d1 - r1[..., None] * d2
    tol = CLASSIFICATION_RTOL * np.sqrt(s_squared)
    return FisherBundle(
        point=None,
        gram=stack_last([[g11, g12], [g12, g22]], 2),
        radial=stack_last([r1, r2], 1),
        triple_product=triple,
        perp_quadratic=one_minus * n_squared + dot3(s_cross_n, s_cross_n),
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
    """:func:`fisher_bundle_many` of one point."""
    fb = fisher_bundle_many(m.s, m.d1s, m.d2s)
    return FisherBundle(
        m, fb.gram, fb.radial, float(fb.triple_product), float(fb.perp_quadratic), fb.gamma,
        float(fb.one_minus_s_sq), bool(fb.d_invariant), bool(fb.asymptotically_classical),
    )
