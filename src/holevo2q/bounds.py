"""Scalar precision bounds for two-parameter qubit models.

For a mixed model point and a positive weight matrix W this module gives

    C^S = Tr(W G^-1)                                   SLD Cramer-Rao bound
    C^R = Tr(W Re G~^-1) + TrAbs(W Im G~^-1)           RLD Cramer-Rao bound
    C^Z = Tr(W Re Z)     + TrAbs(W Im Z)               D-invariant bound
    C^N = C^S + 2 sqrt(det W det G^-1)                 Nagaoka bound

and the Holevo bound C^H = C^R where B[W] = C^R - (C^Z + C^S)/2 >= 0 (the
RLD region) and C^H = C^R + B^2/(C^Z - C^R) where B < 0 (the correction
region).  The report's ``branch`` names the region of the weight, with
``BOUNDARY`` where |B| <= BOUNDARY_RTOL (|C^Z| + |C^S|), and its ``b_value``
is B[W]; ``boundary_weight_family`` parametrizes weights of prescribed region.

Explicit formula.  G^-1, Re G~^-1 and Im G~^-1 share the denominator
p = <n, Q^-1 n> = eps |n|^2 + |s x n|^2 with n = d1s x d2s and eps = 1 - s^2,
so with the Bloch scalars of :class:`~holevo2q.fisher.FisherBundle`
(Gram matrix, r_i = <s, d_i s>, k = <s, n>, p) and

    a = w11 |d2s|^2 - 2 w12 <d1s, d2s> + w22 |d1s|^2,
    q = (r | adj W r),    t = eps sqrt(det W) |k|:

    C^S = (eps a + q)/p,   C^Z = C^S + 2t/p,   C^R = eps (a + 2 sqrt(det W)|k|)/p,
    C^N = C^S + 2 sqrt(det W eps/p),   B = (t - q)/p,   C^Z - C^R = q/p,
    C^H = C^R if B >= 0, else C^S + t^2/(q p) = C^R + (q - t)^2/(q p),
    xi* = sign(k) min(1, t/q) adj(W) r / (p sqrt(det W))   (0 when q = 0),

xi* minimizing the reduced problem (xi|p W xi) + 2|(sqrt(det W) r|xi) + c|
with c = -eps sqrt(det W) k/p.  ``holevo_bounds_many`` inlines the case split
of that problem; its general solver, ``quadratic_abs_min`` in
``tests/reference.py``, is the test-side cross-check.

Error model.  The first cancellation is eps = 1 - s.s, known to about
u/(1-|s|^2) relative (u = 2^-53); it enters only through eps a and t.  C^R,
and C^H on the RLD branch, carry all of it unless n is parallel to s
(unitary families), where eps cancels.  C^S, C^Z and C^H on the correction
branch carry about u (a + 2 sqrt(det W)|k|)/q: a few ulps unless the
derivatives are nearly tangent to the sphere (r ~ 0).  The second is
det W = w11 w22 - w12^2, known to about u cond(W) relative: C^N's error was
3e-15, 6e-14, 7e-12 and 1e-9 at cond W = 1e2, 1e6, 1e10 and 1e14.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .bloch import (BOUNDARY_RTOL, HERMITIAN_RTOL, PAIR_RTOL, BlochModelPoint3, Record,
                    not_hermitian, q_tilde, stack_last)
from .errors import DomainError, SpecialModelError, raise_first
from .fisher import FisherBundle

__all__ = [
    "BOUNDARY_RTOL",
    "WeightMatrix",
    "Branch",
    "BoundsReport",
    "trabs",
    "weight_root",
    "trabs_from_root",
    "holevo_bound",
    "holevo_bounds_many",
    "alpha_theta",
    "boundary_weight_family",
    "boundary_weight_family_many",
    "weight_from_angles",
    "weight_from_angles_many",
    "holevo_bound_three_param",
]

def _det(w11, w12, w22):
    return w11 * w22 - w12 * w12


def _require_positive(w11, w12, w22) -> None:
    """DomainError for the first weight that is not finite positive definite."""

    def indefinite(i):
        a, b, c = (x.flat[i] for x in np.broadcast_arrays(w11, w12, w22))
        return f"weight matrix [[{a}, {b}], [{b}, {c}]] is not positive definite"

    finite = np.isfinite(w11) & np.isfinite(w12) & np.isfinite(w22)
    raise_first([(~finite, DomainError, "weight matrix entries must be finite"),
                 ((w11 <= 0.0) | (_det(w11, w12, w22) <= 0.0), DomainError, indefinite)])


def _symmetric_entries(mat):
    """(w11, w12, w22) of a symmetric positive-definite 2x2 matrix, or of a stack of them."""
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (2, 2) or np.count_nonzero(not_hermitian(m, HERMITIAN_RTOL)):
        raise DomainError("weight matrix must be symmetric 2x2")
    w11, w12, w22 = m[..., 0, 0], 0.5 * (m[..., 0, 1] + m[..., 1, 0]), m[..., 1, 1]
    _require_positive(w11, w12, w22)
    return w11, w12, w22


def _where(cond, a, b):
    """``np.where(cond, a, b)``, without its per-call cost at one cell."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


class WeightMatrix(Record):
    """Real symmetric positive-definite 2x2 cost weight."""

    w11: float
    w12: float
    w22: float

    def __post_init__(self):
        for name in ("w11", "w12", "w22"):
            object.__setattr__(self, name, float(getattr(self, name)))
        w = self.w11, self.w12, self.w22
        # The usual valid weight in plain floats; _require_positive raises the errors.
        if not (w[0] > 0.0 and _det(*w) > 0.0 and math.isfinite(sum(w))):
            _require_positive(*w)

    @property
    def det(self) -> float:
        return _det(self.w11, self.w12, self.w22)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.w11, self.w12], [self.w12, self.w22]])

    @classmethod
    def from_matrix(cls, mat) -> WeightMatrix:
        return cls(*_symmetric_entries(mat))

    @classmethod
    def identity(cls) -> WeightMatrix:
        return cls(1.0, 0.0, 1.0)

    def scaled(self, factor: float) -> WeightMatrix:
        if factor <= 0.0:
            raise DomainError("weight scale factor must be positive")
        return WeightMatrix(factor * self.w11, factor * self.w12, factor * self.w22)


class Branch(enum.Enum):
    """Which closed-form expression the Holevo bound takes."""

    RLD = "rld"
    CORRECTION = "correction"
    BOUNDARY = "boundary"


class BoundsReport(Record):
    """All scalar bounds at one (model point, weight) pair."""

    c_s: float
    c_r: float
    c_z: float
    c_n: float
    c_h: float
    s_correction: float
    branch: Branch
    b_value: float
    xi_star: np.ndarray


def trabs(weight, x) -> float:
    """Sum of absolute eigenvalues of W^(1/2) X W^(1/2) for antisymmetric X.

    For 2x2 inputs the closed form 2 sqrt(det W) |x_12| is returned; for
    larger antisymmetric X (the three-parameter bound) the eigenvalue
    definition :func:`trabs_from_root` is evaluated.  A 2x2 weight is read
    through :meth:`WeightMatrix.from_matrix`.  DomainError unless X and W are
    finite n x n matrices, X antisymmetric and W symmetric positive definite.
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
        return float(2.0 * np.sqrt(WeightMatrix.from_matrix(w).det) * abs(xm[0, 1]))
    if not np.isfinite(w).all() or not_hermitian(w, HERMITIAN_RTOL):
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


def holevo_bounds_many(fb: FisherBundle, w11, w12, w22) -> BoundsReport:
    """The explicit formula of the module docstring, elementwise over the
    points of ``fb`` (one, or a stack from ``fisher_bundle_many``) broadcast
    against the entries of positive-definite weights: a grid of weights at
    one point, or of points at one weight.  Each report field is an array
    over the cells (``branch`` of ``Branch`` values: the sign of B outside a
    relative band of ``BOUNDARY_RTOL``, where it is ``BOUNDARY``).  Raises
    DomainError at the first weight that is not finite positive definite."""
    _require_positive(w11, w12, w22)
    det_w = _det(w11, w12, w22)
    sqrt_det_w = np.sqrt(det_w)
    eps = fb.one_minus_s_sq
    p = fb.perp_quadratic
    k = fb.triple_product
    (g11, g12), (_, g22) = fb.gram.T  # .T: numpy scalars, not 0-d arrays, at one point
    r1, r2 = fb.radial.T

    a = w11 * g22 - 2.0 * w12 * g12 + w22 * g11
    q = w11 * r2 * r2 - 2.0 * w12 * r1 * r2 + w22 * r1 * r1
    t = eps * sqrt_det_w * abs(k)
    c_s = (eps * a + q) / p
    c_z = c_s + 2.0 * t / p
    c_n = c_s + 2.0 * np.sqrt(det_w * eps / p)
    b_value = (t - q) / p
    tau = BOUNDARY_RTOL * (abs(c_z) + abs(c_s))
    branch = _where(
        b_value > tau,
        Branch.RLD.value,
        _where(b_value < -tau, Branch.CORRECTION.value, Branch.BOUNDARY.value),
    )

    # Exact rewritings under which max(C^S, C^R) <= C^H <= C^Z follows from
    # monotone rounding, so it holds without a tolerance.  Both branches are
    # evaluated everywhere; the one that does not apply is discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        # B >= 0: C^H = C^R = C^S + (2t - q)/p, 0 <= 2t - q <= 2t
        rld = t >= q
        c_rld = c_s + (2.0 * t - q) / p
        # Else q > 0.  Add the smaller of the two increments to its own base;
        # the other lower bound then keeps a margin of at least |B|/2.
        c_r = _where(rld, c_rld, eps * (a + 2.0 * sqrt_det_w * abs(k)) / p)
        corr = _where(rld, 0.0, (q - t) * (q - t) / (q * p))
        c_h = _where(rld, c_rld, _where(q <= 2.0 * t, c_r + corr, c_s + t * t / (q * p)))
        ratio = np.copysign(np.minimum(1.0, t / q), k) / (p * sqrt_det_w)
    scale = _where(q > 0.0, ratio, 0.0)
    xi_star = stack_last([scale * (w22 * r1 - w12 * r2), scale * (w11 * r2 - w12 * r1)], 1)
    return BoundsReport(c_s, c_r, c_z, c_n, c_h, corr, branch, b_value, xi_star)


def holevo_bound(fb: FisherBundle, w: WeightMatrix) -> BoundsReport:
    """:func:`holevo_bounds_many` at one point and one weight."""
    r = holevo_bounds_many(fb, w.w11, w.w12, w.w22)
    values = map(float, (r.c_s, r.c_r, r.c_z, r.c_n, r.c_h, r.s_correction))
    return BoundsReport(*values, Branch(str(r.branch)), float(r.b_value), r.xi_star)


def alpha_theta(fb: FisherBundle) -> float:
    """Model constant |Im z^12| / Tr(G^-1 - Re G~^-1) = (1-s^2)|k| / |r|^2.

    Raises :class:`SpecialModelError` where ``classify_point`` finds the
    point D-invariant (no boundary family) or asymptotically classical
    (the whole cone is one region).
    """
    if fb.d_invariant:
        raise SpecialModelError("model is D-invariant: boundary weight family is empty")
    if fb.asymptotically_classical:
        raise SpecialModelError(
            "model is asymptotically classical: every weight is in the correction region"
        )
    r = fb.radial
    return fb.one_minus_s_sq * abs(fb.triple_product) / float(r @ r)


def boundary_weight_family_many(fb: FisherBundle, w, w2, c: float = 1.0):
    """(w11, w12, w22) of c U [[1, a w w2], [a w w2, a^2 w2^2]] U^T, a = alpha_theta,
    over broadcast arrays w, w2; U is the rotation built from gamma.  The
    weight's branch is RLD, BOUNDARY or CORRECTION as w^2 + w2^2 <, =, > 1."""
    w, w2 = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(w2, dtype=float))
    checks = [
        (~(np.abs(w) < 1.0), DomainError, "require |w| < 1 for positive definiteness"),
        (w2 <= 0.0, DomainError, "require w2 > 0"),
        (np.full(w.shape, c <= 0.0), DomainError, "require scale c > 0"),
    ]
    # The first cell's own guards come before the point's special-model guard.
    raise_first([(bad.ravel()[:1], exc, message) for bad, exc, message in checks])
    alpha = alpha_theta(fb)
    raise_first(checks)
    g1, g2 = fb.gamma
    norm = np.hypot(g1, g2)
    u = np.array([[g1, -g2], [g2, g1]]) / norm
    off = alpha * w * w2
    core = stack_last([[np.ones_like(off), off], [off, alpha * alpha * (w2 * w2)]], 2)
    return _symmetric_entries(c * (u @ core @ u.T))


def boundary_weight_family(fb: FisherBundle, w: float, w2: float, c: float = 1.0) -> WeightMatrix:
    """:func:`boundary_weight_family_many` at one (w, w2)."""
    return WeightMatrix(*boundary_weight_family_many(fb, w, w2, c))


def weight_from_angles_many(w, omega):
    """(w11, w12, w22) of the trace-one R(omega) diag((1+w)/2, (1-w)/2) R(omega)^T
    over broadcast arrays: w in (-1, 1) sets the eigenvalue split
    (det W = (1-w^2)/4), omega rotates the eigenbasis."""
    w, omega = np.asarray(w, dtype=float), np.asarray(omega, dtype=float)
    message = "weight parameter w = {} must lie in (-1, 1)"
    raise_first([(~((-1.0 < w) & (w < 1.0)), DomainError, lambda i: message.format(w.flat[i]))])
    cos, sin = np.cos(omega), np.sin(omega)
    rot = stack_last([[cos, -sin], [sin, cos]], 2)
    zero = np.zeros_like(w)
    core = stack_last([[0.5 * (1.0 + w), zero], [zero, 0.5 * (1.0 - w)]], 2)
    return _symmetric_entries(rot @ core @ np.swapaxes(rot, -1, -2))


def weight_from_angles(w: float, omega: float) -> WeightMatrix:
    """:func:`weight_from_angles_many` at one (w, omega)."""
    return WeightMatrix(*weight_from_angles_many(w, omega))


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
