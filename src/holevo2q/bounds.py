"""Scalar precision bounds for two-parameter qubit models.

Given the Fisher data of a mixed model point and a positive weight matrix W,
this module evaluates

    C^S = Tr(W G^-1)                                   SLD Cramer-Rao bound
    C^R = Tr(W Re G~^-1) + TrAbs(W Im G~^-1)           RLD Cramer-Rao bound
    C^Z = Tr(W Re Z)     + TrAbs(W Im Z)               D-invariant bound
    C^N = C^S + 2 sqrt(det W det G^-1)                 Nagaoka bound

and the closed-form Holevo bound

    C^H = C^R                 if C^R >= (C^Z + C^S)/2
    C^H = C^R + S             otherwise,

with the nonnegative correction S = [ (C^Z + C^S)/2 - C^R ]^2 / (C^Z - C^R).
Equivalent rewritings of this formula live with the tests as references.
The weight-space sign

    B[W] = C^R - (C^Z + C^S)/2

partitions the positive-definite cone into the RLD region (B > 0), the
correction region (B < 0) and their shared boundary; ``classify_weight``
reports that label and ``boundary_weight_family`` parametrizes weights of
prescribed region for a generic model.

The minimization behind the Holevo bound reduces to

    min_xi (xi | A xi) + 2 |(b | xi) + c|

over xi in R^2 with A = <l_perp, Q^-1 l_perp> W, b = (1-s^2) sqrt(det W)
gamma and c = sqrt(det W) Im z^12; ``quadratic_abs_min`` solves that piecewise
problem exactly and ``minimizing_offset`` returns the optimal xi.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bloch import BlochModelPoint, BlochModelPoint3, q_tilde
from .errors import (
    DomainError,
    SingularMatrixError,
    SpecialModelError,
)
from .fisher import FisherBundle, invert_2x2

__all__ = [
    "BOUNDARY_RTOL",
    "GAP_UNDERFLOW_RTOL",
    "WeightMatrix",
    "Branch",
    "WeightRegion",
    "WeightRegionLabel",
    "BoundsReport",
    "trabs",
    "trabs_eigenvalues",
    "bound_sld",
    "bound_rld",
    "bound_z",
    "bound_nagaoka",
    "quadratic_abs_min",
    "minimizing_offset",
    "holevo_bound",
    "b_theta",
    "classify_weight",
    "alpha_theta",
    "boundary_weight_family",
    "weight_from_angles",
    "holevo_bound_three_param",
]

# Boundary band: |B| <= BOUNDARY_RTOL * (|C^Z| + |C^S|) counts as W_boundary.
BOUNDARY_RTOL = 1e-9

# Below this relative gap the correction branch switches to the a*H(b/a)
# limit 2|b| to avoid dividing by an underflowed C^Z - C^R.
GAP_UNDERFLOW_RTOL = 1e-13


@dataclass(frozen=True)
class WeightMatrix:
    """Real symmetric positive-definite 2x2 cost weight."""

    w11: float
    w12: float
    w22: float

    def __post_init__(self):
        for name in ("w11", "w12", "w22"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not np.all(np.isfinite([self.w11, self.w12, self.w22])):
            raise DomainError("weight matrix entries must be finite")
        if self.w11 <= 0.0 or self.det <= 0.0:
            raise DomainError(
                f"weight matrix [[{self.w11}, {self.w12}], [{self.w12}, {self.w22}]] "
                "is not positive definite"
            )

    @property
    def det(self) -> float:
        return self.w11 * self.w22 - self.w12**2

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.w11, self.w12], [self.w12, self.w22]])

    @classmethod
    def from_matrix(cls, mat) -> WeightMatrix:
        m = np.asarray(mat, dtype=float)
        if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-12 * (1.0 + np.abs(m).max()):
            raise DomainError("weight matrix must be symmetric 2x2")
        return cls(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])

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


class WeightRegion(enum.Enum):
    W_PLUS = "w_plus"
    W_MINUS = "w_minus"
    W_BOUNDARY = "w_boundary"


@dataclass(frozen=True)
class WeightRegionLabel:
    region: WeightRegion
    b_value: float


@dataclass(frozen=True)
class BoundsReport:
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


def _weight(w) -> WeightMatrix:
    if isinstance(w, WeightMatrix):
        return w
    return WeightMatrix.from_matrix(w)


def trabs(weight, x) -> float:
    """Sum of absolute eigenvalues of W^(1/2) X W^(1/2) for antisymmetric X.

    For 2x2 inputs the closed form 2 sqrt(det W) |x_12| is returned; for
    larger antisymmetric X (the three-parameter bound) the eigenvalue
    definition :func:`trabs_eigenvalues` is evaluated.
    """
    w = weight.matrix if isinstance(weight, WeightMatrix) else np.asarray(weight, dtype=float)
    xm = np.asarray(x)
    if np.iscomplexobj(xm):
        if np.abs(xm.imag).max(initial=0.0) > 1e-12 * (1.0 + np.abs(xm).max()):
            raise DomainError("trabs expects the (real) imaginary part of a Hermitian matrix")
        xm = xm.real
    if xm.shape != w.shape:
        raise DomainError(f"shape mismatch: weight {w.shape} vs argument {xm.shape}")
    asym = np.abs(xm + xm.T).max(initial=0.0)
    if asym > 1e-10 * (1.0 + np.abs(xm).max()):
        raise DomainError("trabs argument must be antisymmetric")
    xm = 0.5 * (xm - xm.T)  # scrub rounding off the exact antisymmetry

    if xm.shape == (2, 2):
        det_w = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
        return float(2.0 * np.sqrt(det_w) * abs(xm[0, 1]))
    return trabs_eigenvalues(w, xm)


def trabs_eigenvalues(w: np.ndarray, xm: np.ndarray) -> float:
    """TrAbs by its definition: sum |eig(W^(1/2) X W^(1/2))| for any size.

    No input checks beyond positivity of W; :func:`trabs` is the checked
    entry point.  The oracle calls this directly so that it never relies on
    the 2x2 closed form it is there to test.
    """
    evals, evecs = np.linalg.eigh(w)
    if evals.min() <= 0.0:
        raise DomainError("weight matrix must be positive definite")
    w_half = (evecs * np.sqrt(evals)) @ evecs.T
    sandwich = w_half @ xm @ w_half
    return float(np.sum(np.abs(np.linalg.eigvals(sandwich))))


def bound_sld(fb: FisherBundle, w) -> float:
    """SLD Cramer-Rao bound Tr(W G^-1)."""
    return float(np.trace(_weight(w).matrix @ fb.g_inv))


def bound_rld(fb: FisherBundle, w) -> float:
    """RLD Cramer-Rao bound Tr(W Re G~^-1) + TrAbs(W Im G~^-1)."""
    wm = _weight(w)
    return float(
        np.trace(wm.matrix @ fb.g_tilde_inv.real) + trabs(wm, fb.g_tilde_inv.imag)
    )


def bound_z(fb: FisherBundle, w) -> float:
    """D-invariant bound Tr(W Re Z) + TrAbs(W Im Z)."""
    wm = _weight(w)
    return float(np.trace(wm.matrix @ fb.z.real) + trabs(wm, fb.z.imag))


def bound_nagaoka(fb: FisherBundle, w) -> float:
    """Nagaoka bound C^S + 2 sqrt(det(W G^-1)), achievable by separable POVMs."""
    wm = _weight(w)
    det_g_inv = float(np.linalg.det(fb.g_inv))
    return bound_sld(fb, wm) + 2.0 * np.sqrt(wm.det * det_g_inv)


def quadratic_abs_min(a, b, c: float) -> tuple[float, np.ndarray]:
    """Exact minimum of f(xi) = (xi|A xi) + 2|(b|xi) + c| over xi in R^2.

    A must be symmetric positive definite.  With alpha = (b|A^-1 b):

        min f = 2|c| - alpha   at xi = -sign(c) A^-1 b      if |c| >= alpha
        min f = c^2 / alpha    at xi = -(c/alpha) A^-1 b    if |c| <  alpha

    and b = 0 degenerates to (2|c|, 0).  Ties |c| = alpha use the first
    branch; both give the same value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (2, 2) or b.shape != (2,):
        raise DomainError("quadratic_abs_min expects a 2x2 matrix and a 2-vector")
    if abs(a[0, 1] - a[1, 0]) > 1e-10 * (1.0 + np.abs(a).max()):
        raise DomainError("quadratic coefficient matrix must be symmetric")
    if a[0, 0] <= 0.0 or np.linalg.det(a) <= 0.0:
        raise SingularMatrixError("quadratic coefficient matrix must be positive definite")
    a_inv = invert_2x2(a, exc=SingularMatrixError)
    a_inv_b = a_inv @ b
    alpha = float(b @ a_inv_b)
    if alpha == 0.0:
        return 2.0 * abs(c), np.zeros(2)
    if abs(c) >= alpha:
        xi = -np.sign(c) * a_inv_b
        return 2.0 * abs(c) - alpha, xi
    xi = -(c / alpha) * a_inv_b
    return c * c / alpha, xi


def _reduction_coefficients(fb: FisherBundle, wm: WeightMatrix):
    """(A, b, c) of the unconstrained 2-d reduction of the Holevo minimization."""
    sqrt_det_w = np.sqrt(wm.det)
    a = fb.perp_quadratic * wm.matrix
    b = fb.one_minus_s_sq * sqrt_det_w * fb.gamma
    c = sqrt_det_w * fb.im_z12
    return a, b, c


def minimizing_offset(fb: FisherBundle, w) -> np.ndarray:
    """Optimal xi of the reduced minimization; plugs back into the objective
    to reproduce the Holevo bound."""
    wm = _weight(w)
    a, b, c = _reduction_coefficients(fb, wm)
    _, xi = quadratic_abs_min(a, b, c)
    return xi


def holevo_bound(fb: FisherBundle, w) -> BoundsReport:
    """Closed-form Holevo bound with branch bookkeeping.

    The branch is decided by the sign of B = C^R - (C^Z + C^S)/2 inside a
    relative band of ``BOUNDARY_RTOL``; on the band both expressions agree
    and the RLD value is reported with branch ``BOUNDARY``.
    """
    wm = _weight(w)
    c_s = bound_sld(fb, wm)
    c_r = bound_rld(fb, wm)
    c_z = bound_z(fb, wm)
    c_n = bound_nagaoka(fb, wm)
    b_value = c_r - 0.5 * (c_z + c_s)
    tau = BOUNDARY_RTOL * (abs(c_z) + abs(c_s))

    if b_value > tau:
        branch, corr = Branch.RLD, 0.0
        c_h = c_r
    elif b_value < -tau:
        branch = Branch.CORRECTION
        gap = c_z - c_r
        if gap < GAP_UNDERFLOW_RTOL * abs(c_z):
            # Degenerate-gap limit of the unified form: a H(b/a) -> 2|b|.
            c_h = c_s + (c_z - c_s)
            corr = c_h - c_r
        else:
            corr = b_value**2 / gap
            c_h = c_r + corr
    else:
        branch, corr = Branch.BOUNDARY, 0.0
        c_h = c_r

    xi_star = minimizing_offset(fb, wm)
    return BoundsReport(
        c_s=c_s,
        c_r=c_r,
        c_z=c_z,
        c_n=c_n,
        c_h=c_h,
        s_correction=corr,
        branch=branch,
        b_value=b_value,
        xi_star=xi_star,
    )


def b_theta(fb: FisherBundle, w) -> float:
    """Weight-region indicator B[W] = C^R - (C^Z + C^S)/2."""
    wm = _weight(w)
    return bound_rld(fb, wm) - 0.5 * (bound_z(fb, wm) + bound_sld(fb, wm))


def classify_weight(fb: FisherBundle, w) -> WeightRegionLabel:
    """Label a weight as W_plus / W_minus / W_boundary by the sign of B[W]."""
    wm = _weight(w)
    value = b_theta(fb, wm)
    tau = BOUNDARY_RTOL * (abs(bound_z(fb, wm)) + abs(bound_sld(fb, wm)))
    if value > tau:
        region = WeightRegion.W_PLUS
    elif value < -tau:
        region = WeightRegion.W_MINUS
    else:
        region = WeightRegion.W_BOUNDARY
    return WeightRegionLabel(region=region, b_value=value)


def alpha_theta(fb: FisherBundle) -> float:
    """Model constant |Im z^12| / Tr(G^-1 - Re G~^-1) for a generic point.

    Raises :class:`SpecialModelError` on D-invariant (gamma = 0) or
    asymptotically classical (Im z^12 = 0) points, where the boundary family
    is empty or the whole cone is one region.
    """
    numer = abs(fb.im_z12)
    denom = float(np.trace(fb.g_inv - fb.g_tilde_inv.real))
    gamma_scale = float(np.linalg.norm(fb.gamma))
    z_scale = float(np.abs(fb.z).max())
    if gamma_scale <= 1e-12 * (1.0 + z_scale) or denom <= 0.0:
        raise SpecialModelError("model is D-invariant: boundary weight family is empty")
    if numer <= 1e-12 * (1.0 + z_scale):
        raise SpecialModelError(
            "model is asymptotically classical: every weight is in the correction region"
        )
    return numer / denom


def boundary_weight_family(fb: FisherBundle, w: float, w2: float, c: float = 1.0) -> WeightMatrix:
    """Weights c U [[1, a w w2], [a w w2, a^2 w2^2]] U^T with a = alpha_theta.

    U is the rotation built from gamma.  The resulting weight lies in
    W_plus, W_boundary or W_minus according to w^2 + w2^2 <, =, > 1.
    """
    if not (abs(w) < 1.0):
        raise DomainError("require |w| < 1 for positive definiteness")
    if w2 <= 0.0:
        raise DomainError("require w2 > 0")
    if c <= 0.0:
        raise DomainError("require scale c > 0")
    alpha = alpha_theta(fb)
    g1, g2 = fb.gamma
    norm = np.hypot(g1, g2)
    u = np.array([[g1, -g2], [g2, g1]]) / norm
    core = np.array(
        [
            [1.0, alpha * w * w2],
            [alpha * w * w2, alpha**2 * w2**2],
        ]
    )
    return WeightMatrix.from_matrix(c * (u @ core @ u.T))


def weight_from_angles(w: float, omega: float) -> WeightMatrix:
    """Trace-one weight R(omega) diag((1+w)/2, (1-w)/2) R(omega)^T.

    ``w`` in (-1, 1) sets the eigenvalue split (det W = (1-w^2)/4) and
    ``omega`` rotates the eigenbasis.
    """
    if not (-1.0 < w < 1.0):
        raise DomainError(f"weight parameter w = {w} must lie in (-1, 1)")
    cos, sin = np.cos(omega), np.sin(omega)
    rot = np.array([[cos, -sin], [sin, cos]])
    core = np.diag([0.5 * (1.0 + w), 0.5 * (1.0 - w)])
    return WeightMatrix.from_matrix(rot @ core @ rot.T)


def holevo_bound_three_param(m3: BlochModelPoint3, w3) -> float:
    """Holevo bound of a full three-parameter qubit model.

    Three independent derivatives make the model D-invariant, so the bound
    is the RLD expression Tr(W Re G~^-1) + TrAbs(W Im G~^-1) with the 3x3
    RLD Fisher matrix; TrAbs uses the eigenvalue path.
    """
    m3.require_mixed()
    w = np.asarray(w3, dtype=float)
    if w.shape != (3, 3) or np.abs(w - w.T).max() > 1e-12 * (1.0 + np.abs(w).max()):
        raise DomainError("three-parameter weight must be a symmetric 3x3 matrix")
    if np.linalg.eigvalsh(w).min() <= 0.0:
        raise DomainError("three-parameter weight must be positive definite")

    point2 = BlochModelPoint(s=m3.s, d1s=m3.d1s, d2s=m3.d2s)
    qt = q_tilde(point2)  # depends only on s
    derivs = [m3.d1s, m3.d2s, m3.d3s]
    gt = np.array([[np.conj(di) @ qt @ dj for dj in derivs] for di in derivs])
    gt_inv = np.linalg.inv(gt)
    return float(np.trace(w @ gt_inv.real) + trabs_eigenvalues(w, gt_inv.imag))
