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

* ``bloch_scalars`` computes, in one pass, the Bloch scalars the explicit
  bounds are built from (Gram matrix, r_i = <s, d_i s>, k = <s, n>,
  p = <n, Q^-1 n>, 1 - s^2), gamma and the two special-model flags that
  ``classify_point`` reports.  p is taken in Lagrange form because the equal
  |n|^2 - k^2 cancels near the shell.  ``fisher_bundle`` is the same
  :class:`FisherBundle` after a guard on the singularity of G; it is what
  every bound reads.
* ``fisher_matrices`` builds G, G~, their inverses, the SLD duals and Z.
  Only the verification suite, the oracle's reduced search and the tests
  read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (
    CLASSIFICATION_RTOL,
    BlochModelPoint,
    ell_perp,
    q_matrix,
    q_tilde,
    q_tilde_inverse,
)
from .errors import DegenerateModelError, PureStateError

__all__ = [
    "FisherBundle",
    "FisherMatrices",
    "bloch_scalars",
    "fisher_bundle",
    "fisher_matrices",
    "invert_2x2",
    "one_param_bound",
]

# Reject 2x2 inversion when |det| < SINGULAR_RTOL * ||M||_F^2.
SINGULAR_RTOL = 1e-14


def invert_2x2(mat: np.ndarray, exc: type[Exception] = DegenerateModelError) -> np.ndarray:
    """Closed-form adjugate inversion of a 2x2 matrix (real or complex)."""
    m = np.asarray(mat)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    norm_sq = float(np.sum(np.abs(m) ** 2))
    if abs(det) < SINGULAR_RTOL * norm_sq or norm_sq == 0.0:
        raise exc(f"2x2 matrix is singular beyond tolerance (det = {det:.3e})")
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    return adj / det


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


@dataclass(frozen=True)
class FisherBundle:
    """The Bloch scalars and class flags of one mixed model point."""

    point: BlochModelPoint
    gram: np.ndarray         # <d_i s, d_j s>, real symmetric (2, 2)
    radial: np.ndarray       # r_i = <s, d_i s>, real (2,)
    triple_product: float    # k = <s, n>, n = l_perp = d1s x d2s
    perp_quadratic: float    # p = <n, Q^-1 n> = (1-s^2)|n|^2 + |s x n|^2
    gamma: np.ndarray        # gamma_i = <s, l_i> = r_i / (1 - s^2), real (2,)
    one_minus_s_sq: float
    d_invariant: bool        # |r_i| <= CLASSIFICATION_RTOL |s||d_i s|, both i
    asymptotically_classical: bool  # |k| <= CLASSIFICATION_RTOL |s||n|


def bloch_scalars(m: BlochModelPoint) -> FisherBundle:
    """One pass over (s, d1s, d2s): the Bloch scalars and the class flags.

    Raises :class:`PureStateError` off the open Bloch ball and
    :class:`DegenerateModelError` when the derivatives are dependent; unlike
    :func:`fisher_bundle` it admits a numerically singular SLD Fisher matrix.
    """
    m.require_mixed()
    s = m.s
    d1, d2 = m.derivatives()
    s_squared = m.s_squared
    one_minus = 1.0 - s_squared
    radial = np.array([float(s @ d1), float(s @ d2)])
    d12 = float(d1 @ d2)
    gram = np.array([[float(d1 @ d1), d12], [d12, float(d2 @ d2)]])
    n = ell_perp(m)
    n_squared = float(n @ n)
    triple = float(s @ n)
    s_cross_n = radial[1] * d1 - radial[0] * d2
    # Norms as sqrt of the dot products above, bit-identical to np.linalg.norm.
    tol = CLASSIFICATION_RTOL * math.sqrt(s_squared)
    radial_zero = np.abs(radial) <= tol * np.sqrt(np.diag(gram))
    return FisherBundle(
        point=m,
        gram=gram,
        radial=radial,
        triple_product=triple,
        perp_quadratic=one_minus * n_squared + float(s_cross_n @ s_cross_n),
        gamma=radial / one_minus,
        one_minus_s_sq=one_minus,
        d_invariant=bool(radial_zero.all()),
        asymptotically_classical=abs(triple) <= tol * math.sqrt(n_squared),
    )


def fisher_bundle(m: BlochModelPoint) -> FisherBundle:
    """:func:`bloch_scalars` of a point whose SLD Fisher matrix
    G = Gram + r r^T/(1 - s^2) is invertible: the input of every bound.

    Raises what :func:`bloch_scalars` raises, and
    :class:`DegenerateModelError` when G is singular.
    """
    fb = bloch_scalars(m)
    g = fb.gram + np.outer(fb.radial, fb.radial) / fb.one_minus_s_sq
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if g[0, 0] <= 0.0 or det <= SINGULAR_RTOL * float(np.sum(g**2)):
        raise DegenerateModelError("SLD Fisher matrix is singular; derivatives degenerate")
    return fb


@dataclass(frozen=True)
class FisherMatrices:
    """The Fisher matrices, SLD duals and Z of one mixed model point."""

    point: BlochModelPoint
    g: np.ndarray            # SLD Fisher, real symmetric (2, 2)
    g_inv: np.ndarray
    g_tilde: np.ndarray      # RLD Fisher, Hermitian (2, 2)
    g_tilde_inv: np.ndarray
    z: np.ndarray            # Hermitian (2, 2)
    dual1: np.ndarray        # SLD dual Bloch vectors, real (3,)
    dual2: np.ndarray


def fisher_matrices(m: BlochModelPoint) -> FisherMatrices:
    """Build G, G~, their inverses, the SLD duals and Z from the metric factors.

    Accepts exactly the points :func:`fisher_bundle` accepts and raises what
    it raises.
    """
    fisher_bundle(m)
    q = q_matrix(m)
    d1, d2 = m.derivatives()
    l1, l2 = q @ d1, q @ d2

    g = np.array([[float(a @ q @ b) for b in (d1, d2)] for a in (d1, d2)])
    g_inv = invert_2x2(g)
    g_tilde = _hermitian_from_upper(d1, d2, q_tilde(m))
    g_tilde_inv = invert_2x2(g_tilde)

    dual1 = g_inv[0, 0] * l1 + g_inv[1, 0] * l2
    dual2 = g_inv[0, 1] * l1 + g_inv[1, 1] * l2
    z = _hermitian_from_upper(dual1, dual2, q_tilde_inverse(m))
    return FisherMatrices(m, g, g_inv, g_tilde, g_tilde_inv, z, dual1, dual2)


def one_param_bound(s, ds) -> float:
    """Holevo bound of a one-parameter model: 1/g with g = <ds, Q ds>.

    For a single parameter the bound coincides with the SLD Cramer-Rao bound.
    """
    point = BlochModelPoint(s=s, d1s=ds, d2s=ds)
    point.require_mixed()
    ds = np.asarray(ds, dtype=float)
    if np.linalg.norm(ds) == 0.0:
        raise DegenerateModelError("derivative vector vanishes")
    g = float(ds @ q_matrix(point) @ ds)
    if g <= 0.0:
        raise PureStateError("SLD Fisher information is not positive")
    return 1.0 / g
