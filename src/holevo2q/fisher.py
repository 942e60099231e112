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

The bundle also keeps the Bloch scalars the explicit bounds are built from;
p is taken in Lagrange form because the equal |n|^2 - k^2 cancels near the shell.

``fisher_bundle`` is the one producer of these quantities; everything a bound
computation needs is cached in the :class:`FisherBundle` it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    BlochModelPoint,
    ell_perp,
    q_matrix,
    q_tilde,
    q_tilde_inverse,
)
from .errors import DegenerateModelError, PureStateError

__all__ = [
    "FisherBundle",
    "fisher_bundle",
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
    return np.array(
        [
            [_bilinear(u, mat, u).real, off],
            [off.conjugate(), _bilinear(v, mat, v).real],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class FisherBundle:
    """All Fisher-level data for one mixed model point.

    ``point`` keeps the source data (s, d1s, d2s, 1 - s^2).
    """

    point: BlochModelPoint
    g: np.ndarray            # SLD Fisher, real symmetric (2, 2)
    g_inv: np.ndarray
    g_tilde: np.ndarray      # RLD Fisher, Hermitian (2, 2)
    g_tilde_inv: np.ndarray
    z: np.ndarray            # Hermitian (2, 2)
    dual1: np.ndarray        # SLD dual Bloch vectors, real (3,)
    dual2: np.ndarray
    gamma: np.ndarray        # gamma_i = r_i / (1 - s^2), real (2,)
    gram: np.ndarray         # <d_i s, d_j s>, real symmetric (2, 2)
    radial: np.ndarray       # r_i = <s, d_i s>, real (2,)
    triple_product: float    # k = <s, n>, n = l_perp = d1s x d2s
    perp_quadratic: float    # p = <n, Q^-1 n> = (1-s^2)|n|^2 + |s x n|^2

    @property
    def one_minus_s_sq(self) -> float:
        return 1.0 - self.point.s_squared


def fisher_bundle(m: BlochModelPoint) -> FisherBundle:
    """Compute every Fisher-level quantity for a mixed model point at once.

    Raises :class:`PureStateError` off the open Bloch ball and
    :class:`DegenerateModelError` when the derivatives are dependent or the
    SLD Fisher matrix is singular.
    """
    m.require_mixed()
    q = q_matrix(m)
    s = m.s
    d1, d2 = m.derivatives()
    l1, l2 = q @ d1, q @ d2

    g = np.array(
        [
            [float(d1 @ q @ d1), float(d1 @ q @ d2)],
            [float(d2 @ q @ d1), float(d2 @ q @ d2)],
        ]
    )
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if g[0, 0] <= 0.0 or det <= SINGULAR_RTOL * float(np.sum(g**2)):
        raise DegenerateModelError("SLD Fisher matrix is singular; derivatives degenerate")
    n = ell_perp(m)
    one_minus = 1.0 - m.s_squared
    radial = np.array([float(s @ d1), float(s @ d2)])
    s_cross_n = radial[1] * d1 - radial[0] * d2
    d12 = float(d1 @ d2)
    g_inv = invert_2x2(g)
    g_tilde = _hermitian_from_upper(d1, d2, q_tilde(m))
    g_tilde_inv = invert_2x2(g_tilde)

    dual1 = g_inv[0, 0] * l1 + g_inv[1, 0] * l2
    dual2 = g_inv[0, 1] * l1 + g_inv[1, 1] * l2
    z = _hermitian_from_upper(dual1, dual2, q_tilde_inverse(m))
    return FisherBundle(
        point=m,
        g=g,
        g_inv=g_inv,
        g_tilde=g_tilde,
        g_tilde_inv=g_tilde_inv,
        z=z,
        dual1=dual1,
        dual2=dual2,
        gamma=radial / one_minus,
        gram=np.array([[float(d1 @ d1), d12], [d12, float(d2 @ d2)]]),
        radial=radial,
        triple_product=float(s @ n),
        perp_quadratic=one_minus * float(n @ n) + float(s_cross_n @ s_cross_n),
    )


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
