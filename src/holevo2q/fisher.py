"""SLD and RLD Fisher information in Bloch form.

For a mixed two-parameter qubit point the Fisher matrices are the bilinear
forms of the derivatives under the metric factors of :mod:`holevo2q.bloch`:

    G_ij  = <d_i s, Q d_j s>          (real symmetric, SLD)
    G~_ij = <d_i s, Q~ d_j s>         (Hermitian, RLD)

Dual Bloch vectors carry the inverse-metric index: l^i = sum_j (G^-1)_ji l_j,
so that <l^i, Q^-1 l_j> = delta^i_j.  The
Z matrix collects the RLD-type pairings of the SLD duals,

    z^ij = <l^i, Q~^-1 l^j> = (G^-1)_ij + i <l^i, F l^j>,

whose real part is exactly G^-1 and whose imaginary part equals Im G~^-1.

Each quantity has one producer:

* ``bloch_scalars_many`` computes, in one pass over (N, 3) stacks of
  (s, d1s, d2s), the Bloch scalars the explicit bounds are built from (Gram
  matrix, r_i = <s, d_i s>, k = <s, n>, p = <n, Q^-1 n>, 1 - s^2), gamma
  and the two special-model flags that ``classify_point`` reports.  p is
  taken in Lagrange form because the equal |n|^2 - k^2 cancels near the
  shell.  ``fisher_bundle_many`` is the same pass with a guard on the
  singularity of G; it is what every bound reads.  ``fisher_bundle`` is the
  same pass on one point, and ``classify_point`` reads the flags of a
  one-point ``bloch_scalars_many``; without a bundle, ``sld_duals`` runs only
  its accept/reject half (``_admit``), the one guard.
* ``fisher_matrices`` builds G, G~, their inverses, the SLD duals and Z.
  Only the verification suite, the oracle's reduced search, the tests and
  ``classify.pure_limit_duals`` / ``pure_limit_rld_inverse`` read them.
"""

from __future__ import annotations

import numpy as np

from .bloch import (CLASSIFICATION_RTOL, SINGULAR_RTOL, BlochModelPoint, Record, cross, dependent,
                    dot3, mixed, not_mixed_message, q_matrix, q_tilde, q_tilde_inverse, stack_last)
from .errors import DegenerateModelError, DomainError, PureStateError, raise_first

__all__ = [
    "FisherBundle",
    "FisherMatrices",
    "bloch_scalars_many",
    "fisher_bundle",
    "fisher_bundle_many",
    "fisher_matrices",
    "invert_2x2",
    "sld_duals",
]

def invert_2x2(mat: np.ndarray, exc: type[Exception] = DegenerateModelError) -> np.ndarray:
    """Closed-form adjugate inversion of a 2x2 matrix (real or complex)."""
    m = np.asarray(mat)
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    det = a * d - b * c
    norm_sq = sum(x * x for x in map(abs, (a, b, c, d)))
    if abs(det) < SINGULAR_RTOL * norm_sq or norm_sq == 0.0:
        raise exc(f"2x2 matrix is singular beyond tolerance (det = {det:.3e})")
    return np.array([[d, -b], [-c, a]], dtype=m.dtype) / det


def _bilinear(u: np.ndarray, mat: np.ndarray, v: np.ndarray) -> complex:
    return complex(np.conj(u) @ (mat @ v))


def _hermitian_from_upper(u: np.ndarray, v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """[[<u,Mu>, <u,Mv>], [conj, <v,Mv>]] for Hermitian M.

    Only the upper triangle is evaluated: real diagonal, lower = conj(upper),
    so the imaginary part of the result (and of its inverse) is exactly
    antisymmetric rather than antisymmetric up to rounding.
    """
    off = _bilinear(u, mat, v)
    diag = _bilinear(u, mat, u).real, _bilinear(v, mat, v).real
    return np.array([[diag[0], off], [off.conjugate(), diag[1]]], dtype=complex)


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


class FisherMatrices(Record):
    """The Fisher matrices, SLD duals and Z of one mixed model point."""

    point: BlochModelPoint
    g: np.ndarray            # SLD Fisher, real symmetric (2, 2)
    g_inv: np.ndarray
    g_tilde: np.ndarray      # RLD Fisher, Hermitian (2, 2)
    g_tilde_inv: np.ndarray
    z: np.ndarray            # Hermitian (2, 2)
    dual1: np.ndarray        # SLD dual Bloch vectors, real (3,)
    dual2: np.ndarray


def sld_duals(m: BlochModelPoint, fb: FisherBundle | None = None):
    """(G, G^-1, l^1, l^2), the SLD side of :func:`fisher_matrices`.

    Without ``fb`` (``fisher_bundle(m)``, when the caller has it) it runs the
    guard half of :func:`fisher_bundle` alone: it accepts and raises the same.
    """
    if fb is None:
        _admit(m.s, m.d1s, m.d2s, invertible=True)
    q = q_matrix(m)
    d1, d2 = m.derivatives()
    l1, l2 = q @ d1, q @ d2
    g = np.array([[float(dq @ b) for b in (d1, d2)] for dq in (d1 @ q, d2 @ q)])
    g_inv = invert_2x2(g)
    dual1 = g_inv[0, 0] * l1 + g_inv[1, 0] * l2
    dual2 = g_inv[0, 1] * l1 + g_inv[1, 1] * l2
    return g, g_inv, dual1, dual2


def fisher_matrices(m: BlochModelPoint, fb: FisherBundle | None = None) -> FisherMatrices:
    """G, G~, their inverses, the SLD duals and Z from the metric factors;
    accepts, raises and takes ``fb`` as :func:`sld_duals` does."""
    g, g_inv, dual1, dual2 = sld_duals(m, fb)
    d1, d2 = m.derivatives()
    g_tilde = _hermitian_from_upper(d1, d2, q_tilde(m))
    g_tilde_inv = invert_2x2(g_tilde)
    z = _hermitian_from_upper(dual1, dual2, q_tilde_inverse(m))
    return FisherMatrices(m, g, g_inv, g_tilde, g_tilde_inv, z, dual1, dual2)
