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
* ``fisher_matrices``: G_ij = <d_i s, Q d_j s> (SLD), G~_ij = <d_i s, Q~ d_j s>
  (RLD), their inverses, the SLD duals l^i = sum_j (G^-1)_ji l_j (so that
  <l^i, Q^-1 l_j> = delta^i_j) and z^ij = <l^i, Q~^-1 l^j>
  = (G^-1)_ij + i <l^i, F l^j>, whose imaginary part equals Im G~^-1,
* TrAbs from its eigenvalue definition, and the Holevo bound of a full
  three-parameter model.

Inner products are conjugate-linear in the first argument.  The oracle,
``verify``, ``classify``'s pure-limit operations and the tests import this
module; ``bloch``, ``fisher``, ``bounds``, ``models`` and ``cli`` do not, so
``import holevo2q.cli``, ``bounds`` and the sweeps never load it.
"""

from __future__ import annotations

import numpy as np

from .bloch import (DERIVATIVE_INDEPENDENCE_RTOL, HERMITIAN_RTOL, PAIR_RTOL, SINGULAR_RTOL,
                    BlochModelPoint, Record, _as_real_vec3, cross, dependent, not_hermitian)
from .bounds import WeightMatrix
from .errors import DegenerateModelError, DomainError
from .fisher import FisherBundle, _admit

__all__ = [
    "BlochModelPoint3", "q_matrix", "q_inverse", "f_matrix", "q_tilde", "q_tilde_inverse",
    "sld_bloch_vectors", "rld_bloch_vectors", "ell_perp", "invert_2x2", "FisherMatrices",
    "sld_duals", "fisher_matrices", "trabs", "weight_root", "trabs_from_root",
    "holevo_bound_three_param",
]


class BlochModelPoint3(BlochModelPoint):
    """A three-parameter qubit model point (used by the D-invariant bound)."""

    d3s: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "d3s", _as_real_vec3(self.d3s, "d3s"))
        derivs = np.column_stack([self.d1s, self.d2s, self.d3s])
        scale = np.prod([np.linalg.norm(d) for d in derivs.T])
        if scale == 0.0 or abs(np.linalg.det(derivs)) < DERIVATIVE_INDEPENDENCE_RTOL * scale:
            raise DegenerateModelError("the three derivative vectors are linearly dependent")


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

    Without ``fb`` (``fisher_bundle(m)``, when the caller has it) it runs
    ``fisher._admit``, the guard of ``fisher_bundle``: it accepts and raises the same.
    """
    if fb is None:
        _admit(m.s, m.d1s, m.d2s, invertible=True)
    q = q_matrix(m)
    d1, d2 = m.derivatives()
    l1, l2 = sld_bloch_vectors(m)
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


def trabs(weight, x) -> float:
    """Sum of absolute eigenvalues of W^(1/2) X W^(1/2) for antisymmetric X,
    from that definition (:func:`trabs_from_root`) at every size, so that at
    2x2 it checks the explicit bounds' closed form 2 sqrt(det W) |x_12|.

    A 2x2 weight is read through :meth:`WeightMatrix.from_matrix`.
    DomainError unless X and W are finite n x n matrices, X antisymmetric and
    W symmetric positive definite.
    """
    w = weight.matrix if isinstance(weight, WeightMatrix) else np.asarray(weight, dtype=float)
    xm = np.asarray(x)
    if not np.isfinite(xm).all():
        raise DomainError("trabs argument entries must be finite")
    if np.iscomplexobj(xm):
        if np.abs(xm.imag).max(initial=0.0) > HERMITIAN_RTOL * np.abs(xm).max():
            raise DomainError("trabs expects the (real) imaginary part of a Hermitian matrix")
        xm = xm.real
    if xm.shape != w.shape or xm.ndim != 2 or xm.shape[0] != xm.shape[1]:
        raise DomainError(f"trabs expects two n x n matrices, got {w.shape} and {xm.shape}")
    if not_hermitian(1j * xm, PAIR_RTOL):  # X is antisymmetric iff i X is Hermitian
        raise DomainError("trabs argument must be antisymmetric")
    xm = 0.5 * (xm - xm.T)  # scrub rounding off the exact antisymmetry

    if xm.shape == (2, 2):
        w = WeightMatrix.from_matrix(w).matrix
    elif not np.isfinite(w).all() or not_hermitian(w, HERMITIAN_RTOL):
        raise DomainError("weight matrix must be finite and symmetric")
    return trabs_from_root(weight_root(w), xm)


def weight_root(w: np.ndarray) -> np.ndarray:
    """W^(1/2) from the eigen-decomposition of a positive-definite W."""
    evals, evecs = np.linalg.eigh(w)
    if evals.min() <= 0.0:
        raise DomainError("weight matrix must be positive definite")
    return (evecs * np.sqrt(evals)) @ evecs.T


def trabs_from_root(w_half: np.ndarray, xm: np.ndarray):
    """sum |eig(W^(1/2) X W^(1/2))| given ``w_half`` = :func:`weight_root` (W),
    for callers that evaluate TrAbs at many X under one W.

    ``xm`` is one 2x2 X (a float is returned) or an (N, 2, 2) stack (an array
    of N values, each the bits of the one-X call); ``w_half`` may be a
    matching stack of roots.
    """
    sums = np.abs(np.linalg.eigvals(w_half @ xm @ w_half)).sum(axis=-1)
    return float(sums) if sums.ndim == 0 else sums


def holevo_bound_three_param(m3: BlochModelPoint3, w3) -> float:
    """Holevo bound of a full three-parameter qubit model.

    Three independent derivatives make the model D-invariant, so the bound
    is the RLD expression Tr(W Re G~^-1) + TrAbs(W Im G~^-1) with the 3x3
    RLD Fisher matrix; TrAbs uses the eigenvalue path.
    """
    m3.require_mixed()
    w = np.asarray(w3, dtype=float)
    if not np.isfinite(w).all():
        raise DomainError("three-parameter weight entries must be finite")
    if w.shape != (3, 3) or not_hermitian(w, HERMITIAN_RTOL):
        raise DomainError("three-parameter weight must be a symmetric 3x3 matrix")
    w_half = weight_root(w)  # DomainError unless positive definite

    qt = q_tilde(m3)  # depends only on s
    derivs = [m3.d1s, m3.d2s, m3.d3s]
    gt = np.array([[np.conj(di) @ qt @ dj for dj in derivs] for di in derivs])
    gt_inv = np.linalg.inv(gt)
    return float(np.trace(w @ gt_inv.real) + trabs_from_root(w_half, gt_inv.imag))
