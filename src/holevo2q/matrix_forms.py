"""The 3x3 Bloch-matrix forms that cross-check the explicit formula.

The explicit formula needs only the Bloch scalars of :mod:`holevo2q.fisher`
and the kernel of :mod:`holevo2q.bounds`.  This module holds the matrix
route that ``verify`` compares with it (the density-matrix route is
:mod:`holevo2q.oracle`), for a mixed point (s, d1s, d2s):

* ``Q = I + |s><s| / (1 - s^2)`` and its inverse ``I - |s><s|``, the
  symmetric metric factor relating derivatives to SLD Bloch vectors,
* ``F a = s x a``, and ``Q~ = (I - iF)/(1 - s^2)`` with its inverse
  ``Q^{-1} + iF``, the Hermitian metric factor for RLD Bloch vectors,
* SLD / RLD Bloch vectors ``l_i = Q d_i s`` and ``l~_i = Q~ d_i s``, and
  ``l_perp = d1s x d2s``, orthogonal to the tangent plane,
* ``fisher_matrices``: the point's Fisher bundle, G_ij = <d_i s, Q d_j s>
  (SLD), G~_ij = <d_i s, Q~ d_j s> (RLD), their inverses, the SLD duals
  l^i = sum_j (G^-1)_ji l_j by ``raise_duals``, with <l^i, Q^-1 l_j> = delta^i_j, and
  z^ij = <l^i, Q~^-1 l^j> = (G^-1)_ij + i <l^i, F l^j>, whose imaginary part
  equals Im G~^-1,
* ``trabs``: TrAbs[W X] = sum |eig(W X)| from its definition, which ``verify``
  and the oracle use in place of its closed form 2 sqrt(det W) |x_12|,
* the pure-state limits, which continue these forms to the shell.

The pure-limit operations read ``fisher_matrices`` and ``rld_bloch_vectors``
(and ``holevo_bound``) at a mixed point and ``ell_perp`` on the shell.  On
the shell, with n = d1s x d2s and c = <s, n>, a genuine pure model has
derivatives tangent to the sphere (n parallel to s); the SLD duals then
have the limits l^1 = -(s x d2s)/c and l^2 = (s x d1s)/c, the RLD duals
coincide with them, and the bound is Tr(W Gram(l^1, l^2)) + 2 sqrt(det W)/|c|.
c -> 0 is the asymptotically classical degeneration, where an error is
raised instead.

Inner products are conjugate-linear in the first argument.  The oracle,
``verify`` and the tests import this module; ``bloch``, ``fisher``,
``bounds``, ``models``, ``classify`` and ``cli`` do not, so
``import holevo2q.cli``, ``bounds``, the sweeps and ``classify`` never load it.
"""

from __future__ import annotations

import numpy as np

from .bloch import (CLASSIFICATION_RTOL, SINGULAR_RTOL, TANGENCY_RTOL, BlochModelPoint, cross,
                    dependent)
from .bounds import WeightMatrix, holevo_bound
from .errors import (AsymptoticallyClassicalLimitError, DegenerateModelError, DomainError,
                     PureStateError)
from .fisher import FisherBundle, fisher_bundle, fisher_bundle_many

__all__ = [
    "q_matrix", "q_inverse", "f_matrix", "q_tilde", "q_tilde_inverse", "sld_bloch_vectors",
    "rld_bloch_vectors", "ell_perp", "invert_2x2", "raise_duals", "FisherMatrices", "sld_duals",
    "fisher_matrices", "trabs", "pure_limit_duals", "pure_limit_rld_inverse", "pure_limit_holevo",
]


def q_matrix(m: BlochModelPoint) -> np.ndarray:
    """Q = I + |s><s|/(1 - s^2); real positive with eigenvalues {1, 1, 1/(1-s^2)}."""
    m.require_mixed()
    s = m.s
    return np.eye(3) + np.outer(s, s) / (1.0 - m.s_squared)


def q_inverse(m: BlochModelPoint) -> np.ndarray:
    """Inverse of Q: I - |s><s|."""
    m.require_mixed()
    return np.eye(3) - np.outer(m.s, m.s)


def f_matrix(m: BlochModelPoint) -> np.ndarray:
    """Real antisymmetric matrix acting as F a = s x a."""
    s1, s2, s3 = m.s
    return np.array(
        [
            [0.0, -s3, s2],
            [s3, 0.0, -s1],
            [-s2, s1, 0.0],
        ]
    )


def q_tilde(m: BlochModelPoint) -> np.ndarray:
    """Q~ = (I - iF)/(1 - s^2); Hermitian positive definite."""
    m.require_mixed()
    return (np.eye(3) - 1j * f_matrix(m)) / (1.0 - m.s_squared)


def q_tilde_inverse(m: BlochModelPoint) -> np.ndarray:
    """Inverse of Q~: Q^{-1} + iF."""
    m.require_mixed()
    return q_inverse(m) + 1j * f_matrix(m)


def sld_bloch_vectors(m: BlochModelPoint) -> tuple[np.ndarray, np.ndarray]:
    """SLD Bloch vectors l_i = Q d_i s (real)."""
    q = q_matrix(m)
    return q @ m.d1s, q @ m.d2s


def rld_bloch_vectors(m: BlochModelPoint) -> tuple[np.ndarray, np.ndarray]:
    """RLD Bloch vectors l~_i = Q~ d_i s (complex in general)."""
    qt = q_tilde(m)
    return qt @ m.d1s, qt @ m.d2s


def ell_perp(m: BlochModelPoint) -> np.ndarray:
    """l_perp = d1s x d2s, orthogonal to both derivatives.

    Raises :class:`DegenerateModelError` when the derivatives are parallel
    beyond ``DERIVATIVE_INDEPENDENCE_RTOL``.
    """
    perp = cross(m.d1s, m.d2s)
    if dependent(m.d1s, m.d2s, perp):
        raise DegenerateModelError("d1s and d2s are linearly dependent")
    return perp


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


def raise_duals(inverse, x1, x2):
    """Dual basis x^i = sum_j inverse_ji x_j of Bloch vectors or operators x1, x2,
    for inverse G^-1 or G~^-1 (Hermitian: its transpose is its conjugate)."""
    return (inverse[0, 0] * x1 + inverse[1, 0] * x2, inverse[0, 1] * x1 + inverse[1, 1] * x2)


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


class FisherMatrices(FisherBundle):
    """The Fisher bundle of one mixed model point, in plain values, followed by
    the point and its matrix route: the Fisher matrices, SLD duals and Z."""

    point: BlochModelPoint
    g: np.ndarray            # SLD Fisher, real symmetric (2, 2)
    g_inv: np.ndarray
    g_tilde: np.ndarray      # RLD Fisher, Hermitian (2, 2)
    g_tilde_inv: np.ndarray
    z: np.ndarray            # Hermitian (2, 2)
    dual1: np.ndarray        # SLD dual Bloch vectors, real (3,)
    dual2: np.ndarray


def sld_duals(m: BlochModelPoint):
    """(bundle, G, G^-1, l^1, l^2), the SLD side of :func:`fisher_matrices`; the
    bundle is the ``fisher_bundle_many`` pass on the point, the guard of
    ``fisher_bundle``: it accepts and raises the same."""
    fb = fisher_bundle_many(m.s, m.d1s, m.d2s)
    q = q_matrix(m)
    d1, d2 = m.d1s, m.d2s
    l1, l2 = q @ d1, q @ d2
    g = np.array([[float(dq @ b) for b in (d1, d2)] for dq in (d1 @ q, d2 @ q)])
    g_inv = invert_2x2(g)
    return fb, g, g_inv, *raise_duals(g_inv, l1, l2)


def fisher_matrices(m: BlochModelPoint) -> FisherMatrices:
    """The bundle of :func:`sld_duals`, with G, G~, their inverses, the SLD
    duals and Z from the metric factors; accepts and raises as it does."""
    fb, g, g_inv, dual1, dual2 = sld_duals(m)
    d1, d2 = m.d1s, m.d2s
    g_tilde = _hermitian_from_upper(d1, d2, q_tilde(m))
    g_tilde_inv = invert_2x2(g_tilde)
    z = _hermitian_from_upper(dual1, dual2, q_tilde_inverse(m))
    return FisherMatrices(*fb._values(), m, g, g_inv, g_tilde, g_tilde_inv, z, dual1, dual2).item()


def trabs(w: np.ndarray, xm: np.ndarray):
    """TrAbs[W X] = sum |eig(W X)| for a positive-definite W: a float for one
    2x2 X, and for an (N, 2, 2) stack of X (and optionally a matching stack
    of W) an array of N values, each the bits of the one-X call."""
    sums = np.abs(np.linalg.eigvals(w @ xm)).sum(axis=-1)
    return float(sums) if sums.ndim == 0 else sums


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
        return fm.dual1, fm.dual2, *raise_duals(fm.g_tilde_inv, *rld_bloch_vectors(m))
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
