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
``tests/reference.py``, is the test-side cross-check.  q is a positive
semidefinite form whose float value can round below zero; the kernel clamps
it at zero, which is what makes max(C^S, C^R) <= C^H <= C^Z exact in floats.
A bound is never returned as 0, inf or NaN: the kernel raises DomainError,
and prints no numpy warning on the way to the refusal.
TrAbs from its eigenvalue definition is in :mod:`holevo2q.matrix_forms`.

Error model.  eps = 1 - s.s is known to about u/(1-|s|^2) relative (u = 2^-53)
and enters only through eps a and t: C^R carries all of it unless n is parallel
to s (unitary families), where eps cancels.  q's error,
u (a + 2 sqrt(det W)|k|)/q, reaches C^S and C^Z: a few ulps unless r ~ 0.  C^H
carries both on either branch (q picks it): where q rounds to <= 0 near the
shell, the clamp makes the cell rld with C^H = C^R, up to q/p below exact
C^H.  det W is known to u cond(W) relative: C^N's error was 3e-15, 6e-14,
7e-12 and 1e-9 at cond W = 1e2, 1e6, 1e10 and 1e14.  n = d1s x d2s is known
to u |d1s||d2s|/|n| relative, since its components cancel where the
derivatives are nearly dependent; k, |n|^2 and p inherit that, and so does
every bound.
"""

from __future__ import annotations

import enum
import math
import sys

import numpy as np

from .bloch import BOUNDARY_RTOL, HERMITIAN_RTOL, Record, not_hermitian, stack_last
from .errors import DomainError, SpecialModelError, raise_first
from .fisher import FisherBundle

__all__ = [
    "BOUNDARY_RTOL",
    "WeightMatrix",
    "Branch",
    "BoundsReport",
    "REPORT_COLUMNS",
    "holevo_bound",
    "holevo_bounds_many",
    "alpha_theta",
    "boundary_weight_family",
    "weight_from_angles",
]

def _det(w11, w12, w22):
    return w11 * w22 - w12 * w12


def _require_positive(w11, w12, w22) -> None:
    """DomainError for the first weight that is not finite positive definite, or
    whose w11 w22 and w12^2 underflow, so that det W cannot be resolved in floats."""

    def matrix(i):
        a, b, c = (x.flat[i] for x in np.broadcast_arrays(w11, w12, w22))
        return f"weight matrix [[{a}, {b}], [{b}, {c}]]"

    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite entries
        finite = np.isfinite(w11) & np.isfinite(w12) & np.isfinite(w22)
        tiny = (w11 > 0.0) & (w22 > 0.0) & (np.maximum(w11 * w22, w12 * w12) < sys.float_info.min)
        raise_first([(~finite, DomainError, "weight matrix entries must be finite"),
                     (tiny, DomainError,
                      lambda i: f"{matrix(i)}: det W cannot be resolved in floats"),
                     ((w11 <= 0.0) | (_det(w11, w12, w22) <= 0.0), DomainError,
                      lambda i: f"{matrix(i)} is not positive definite")])


def _symmetric_entries(mat):
    """(w11, w12, w22) of a symmetric 2x2 matrix, or of a stack of them."""
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (2, 2) or np.count_nonzero(not_hermitian(m, HERMITIAN_RTOL)):
        raise DomainError("weight matrix must be symmetric 2x2")
    return m[..., 0, 0], 0.5 * (m[..., 0, 1] + m[..., 1, 0]), m[..., 1, 1]


class WeightMatrix(Record):
    """Real symmetric positive-definite 2x2 cost weight, or a stack of them.

    Entries are floats (one weight) or arrays broadcast to one shape (a stack;
    ``matrix`` is then (..., 2, 2)).  Each weight is checked here, once, and
    the kernel takes the record as it is.  A stack's array fields compare
    with ``np.array_equal``, and like an array a stack has no hash.
    """

    w11: float
    w12: float
    w22: float

    def __post_init__(self):
        w = self.w11, self.w12, self.w22
        stack = any(getattr(x, "ndim", 0) for x in w)  # 0-d arrays are one weight
        try:
            w = (np.broadcast_arrays(*(np.asarray(x, float) for x in w)) if stack
                 else [*map(float, w)])
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"weight entries must be real numbers of one shape: {exc}") from exc
        for name, x in zip(self._fields, w):
            object.__setattr__(self, name, x)
        # The usual valid weight in plain floats; _require_positive raises the errors.
        if stack or not (w[0] > 0.0 and w[0] * w[2] >= sys.float_info.min and _det(*w) > 0.0
                         and math.isfinite(sum(w))):
            _require_positive(*w)

    @property
    def det(self) -> float:
        return _det(self.w11, self.w12, self.w22)

    @property
    def matrix(self) -> np.ndarray:
        return stack_last([[self.w11, self.w12], [self.w12, self.w22]], 2)

    @classmethod
    def from_matrix(cls, mat) -> WeightMatrix:
        return cls(*_symmetric_entries(mat))

    @classmethod
    def identity(cls) -> WeightMatrix:
        return cls(1.0, 0.0, 1.0)

    def scaled(self, factor: float) -> WeightMatrix:
        if not factor > 0.0:
            raise DomainError("weight scale factor must be positive")
        return WeightMatrix(factor * self.w11, factor * self.w12, factor * self.w22)


class Branch(enum.Enum):
    """Which closed-form expression the Holevo bound takes."""

    RLD = "rld"
    CORRECTION = "correction"
    BOUNDARY = "boundary"


# The ``branch`` values by index (np.where on strings is slow), and the report's
# scalar float fields in CSV order, keyed by their CSV and JSON names.
_BRANCH_VALUES = np.array([Branch.BOUNDARY.value, Branch.RLD.value, Branch.CORRECTION.value])
REPORT_COLUMNS = {"c_s": "c_s", "c_r": "c_r", "c_z": "c_z", "c_n": "c_n", "c_h": "c_h",
                  "s_correction": "s_correction", "b_theta": "b_value"}


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


def _check_report(fields) -> None:
    """DomainError at the first cell with a bound (first five ``fields``) not
    finite or not > 0, or another field not finite, naming that field.  The
    stack is tested first: C^Z, C^N, C^H add terms >= 0 to C^S or C^R; a sum
    of products with a positive field (or itself) is finite only if all are."""
    c_s, c_r, c_z, c_n, c_h, corr, b_value, xi_star = fields
    low = min(np.min(c_s), np.min(c_r))
    total = (np.vdot(c_s, b_value) + np.vdot(c_r, corr) + np.vdot(c_z, c_n)
             + np.vdot(c_h, c_h) + np.vdot(xi_star, xi_star))
    if low > 0.0 and math.isfinite(total):
        return
    checks = []
    for k, (name, v) in enumerate(zip([*REPORT_COLUMNS, "xi_star"], fields)):
        v = np.reshape(v, (np.size(fields[0]), -1))
        for what, bad in (("finite", ~np.isfinite(v)), ("positive", (v <= 0.0) & (k < 5))):
            checks.append((bad.any(1), DomainError, lambda i, h=f"{name} is not {what}", v=v,
                           b=bad: f"{h} ({float(v[i][b[i]][0])})"))
    raise_first(checks)


def holevo_bounds_many(fb: FisherBundle, w: WeightMatrix) -> BoundsReport:
    """The explicit formula of the module docstring, elementwise over the
    points of ``fb`` (one, or a stack from ``fisher_bundle_many``) broadcast
    against the weights of ``w`` (one, or a stack from a weight builder).
    Both records are checked when built, the report here by ``_check_report``.
    Each report field is an array over the cells (``branch`` of ``Branch``
    values: the sign of B, or ``BOUNDARY`` within a band of ``BOUNDARY_RTOL``)."""
    # _check_report refuses what overflows, so numpy's warnings are noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w11, w12, w22 = w.w11, w.w12, w.w22
        det_w = _det(w11, w12, w22)
        sqrt_det_w = np.sqrt(det_w)
        eps = fb.one_minus_s_sq
        p = fb.perp_quadratic
        k = fb.triple_product
        (g11, g12), (_, g22) = fb.gram.T  # .T: the cells last
        r1, r2 = fb.radial.T

        a = w11 * g22 - 2.0 * w12 * g12 + w22 * g11
        q = np.maximum(w11 * r2 * r2 - 2.0 * w12 * r1 * r2 + w22 * r1 * r1, 0.0)  # keeps a NaN
        t = eps * sqrt_det_w * abs(k)
        c_s = (eps * a + q) / p
        c_z = c_s + 2.0 * t / p
        c_n = c_s + 2.0 * np.sqrt(det_w * eps / p)
        b_value = (t - q) / p

        # Exact rewritings under which max(C^S, C^R) <= C^H <= C^Z follows from
        # monotone rounding, given q >= 0: the clamp above is what makes the chain
        # exact.  Both branches are evaluated everywhere; the one that does not
        # apply is discarded.
        # B >= 0: C^H = C^R = C^S + (2t - q)/p, 0 <= 2t - q <= 2t
        rld = t >= q
        c_rld = c_s + (2.0 * t - q) / p
        # Else q > 0.  Add the smaller of the two increments to its own base;
        # the other lower bound then keeps a margin of at least |B|/2.
        c_r = np.where(rld, c_rld, eps * (a + 2.0 * sqrt_det_w * abs(k)) / p)
        corr = np.where(rld, 0.0, (q - t) * (q - t) / (q * p))
        c_h = np.where(rld, c_rld, np.where(q <= 2.0 * t, c_r + corr, c_s + t * t / (q * p)))
        ratio = np.copysign(np.minimum(1.0, t / q), k) / (p * sqrt_det_w)
        scale = np.where(q > 0.0, ratio, 0.0)
        xi_star = stack_last([scale * (w22 * r1 - w12 * r2), scale * (w11 * r2 - w12 * r1)], 1)
        _check_report((c_s, c_r, c_z, c_n, c_h, corr, b_value, xi_star))
        tau = BOUNDARY_RTOL * (c_z + c_s)  # both > 0 once checked
        branch = _BRANCH_VALUES[np.where(b_value > tau, 1, np.where(b_value < -tau, 2, 0))]
    return BoundsReport(c_s, c_r, c_z, c_n, c_h, corr, branch, b_value, xi_star)


def holevo_bound(fb: FisherBundle, w: WeightMatrix) -> BoundsReport:
    """:func:`holevo_bounds_many` at one point and one weight."""
    r = holevo_bounds_many(fb, w)
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


def boundary_weight_family(fb: FisherBundle, w, w2, c: float = 1.0) -> WeightMatrix:
    """c U [[1, a w w2], [a w w2, a^2 w2^2]] U^T, a = alpha_theta, U the rotation
    built from gamma: one weight for floats w, w2, a stack for broadcast
    arrays.  The weight's branch is RLD, BOUNDARY or CORRECTION as
    w^2 + w2^2 <, =, > 1."""
    w, w2 = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(w2, dtype=float))
    checks = [
        (~(np.abs(w) < 1.0), DomainError, "require |w| < 1 for positive definiteness"),
        (~(w2 > 0.0), DomainError, "require w2 > 0"),
        (np.full(w.shape, not c > 0.0), DomainError, "require scale c > 0"),
    ]
    # The first cell's own guards come before the point's special-model guard.
    raise_first([(bad.ravel()[:1], exc, message) for bad, exc, message in checks])
    alpha = alpha_theta(fb)
    raise_first(checks)
    g1, g2 = fb.gamma
    norm = np.hypot(g1, g2)
    u = np.array([[g1, -g2], [g2, g1]]) / norm
    with np.errstate(over="ignore", invalid="ignore"):  # WeightMatrix refuses what overflows
        off = alpha * w * w2
        core = stack_last([[np.ones_like(off), off], [off, alpha * alpha * (w2 * w2)]], 2)
        return WeightMatrix.from_matrix(c * (u @ core @ u.T))


def weight_from_angles(w, omega) -> WeightMatrix:
    """The trace-one R(omega) diag((1+w)/2, (1-w)/2) R(omega)^T: one weight for
    floats, a stack for broadcast arrays.  w in (-1, 1) sets the eigenvalue
    split (det W = (1-w^2)/4), omega rotates the eigenbasis."""
    w, omega = np.asarray(w, dtype=float), np.asarray(omega, dtype=float)
    message = "weight parameter w = {} must lie in (-1, 1)"
    raise_first([(~((-1.0 < w) & (w < 1.0)), DomainError, lambda i: message.format(w.flat[i]))])
    cos, sin = np.cos(omega), np.sin(omega)
    rot = stack_last([[cos, -sin], [sin, cos]], 2)
    zero = np.zeros_like(w)
    core = stack_last([[0.5 * (1.0 + w), zero], [zero, 0.5 * (1.0 - w)]], 2)
    return WeightMatrix.from_matrix(rot @ core @ np.swapaxes(rot, -1, -2))
