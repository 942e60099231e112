"""Test-only reference computations that no production module calls.

* Derivative-free oracles (``grid_min_quadratic_abs`` via Nelder-Mead);
  scipy is a test dependency and is imported lazily.
* Second texts of production formulas, kept only to cross-check them:
  ``quadratic_abs_min`` solves the reduced problem whose case split
  :func:`holevo2q.bounds.holevo_bounds_many` inlines, ``dual_operators``
  repeats the raising step of :func:`holevo2q.oracle.operator_fisher`, and
  ``trabs`` is TrAbs of a 2x2 X from its eigenvalue definition, against
  which the kernel's closed form 2 sqrt(det W) |x_12| is checked.
* ``fisher_determinant_identities``: the ``identity_*`` residuals that
  ``verify`` computes for one point and weight, as ``{check name: residual}``.
* Small closed forms and samplers that only tests use: ``one_param_bound``,
  ``n_copy_bound`` and ``random_planar_point``.
* ``OffBranchError``, raised by the reference forms of the Holevo bound in
  ``tests/test_bounds.py`` off the branch where they are defined.
* Exact references on the float inputs, in ``fractions.Fraction``, for any
  W > 0: ``exact_bounds`` (the bounds; sqrt(det W) is the one quantity taken
  to 50 digits with mpmath) and ``exact_branch_sign`` (the sign of B[W]).
"""

from fractions import Fraction

import numpy as np

from holevo2q import matrix_forms
from holevo2q.bloch import HERMITIAN_RTOL, PAIR_RTOL, BlochModelPoint, not_hermitian
from holevo2q.bounds import WeightMatrix
from holevo2q.errors import DegenerateModelError, DomainError, PureStateError, SingularMatrixError
from holevo2q.matrix_forms import fisher_matrices, invert_2x2, q_matrix
from holevo2q.oracle import DensityPoint, sld_inner, sld_operators
from holevo2q.sampling import _independent_derivatives
from holevo2q.verify import _weight_checks


class OffBranchError(ValueError):
    """A reference form of the Holevo bound was evaluated where it is undefined."""


def _nelder_mead(fun, x0: np.ndarray, scale: float) -> tuple[float, np.ndarray]:
    """Two-stage Nelder-Mead refinement with a restart from the first result."""
    from scipy.optimize import minimize  # lazy: only grid_min_quadratic_abs needs scipy

    best_x = np.asarray(x0, dtype=float)
    best_f = fun(best_x)
    for _ in range(2):
        result = minimize(
            fun,
            best_x,
            method="Nelder-Mead",
            options={
                "xatol": 1e-10,
                "fatol": 1e-13 * (1.0 + abs(best_f)),
                "maxfev": 10**5,
                # best_x and best_x + scale e_k for each axis k.
                "initial_simplex": best_x + scale * np.eye(best_x.size + 1, best_x.size, -1),
            },
        )
        if result.fun < best_f:
            best_f = float(result.fun)
            best_x = np.asarray(result.x)
        scale = max(1e-6 * scale, 1e-8)
    return best_f, best_x


def grid_min_quadratic_abs(a, b, c: float) -> float:
    """Grid + refinement oracle for min (xi|A xi) + 2|(b|xi) + c|.

    Derivative-free on purpose: it is the independent check of the case
    split in :func:`quadratic_abs_min`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def objective(xi: np.ndarray) -> float:
        return float(xi @ a @ xi) + 2.0 * abs(float(b @ xi) + c)

    lam_min = float(np.linalg.eigvalsh(a).min())
    if lam_min <= 0.0:
        raise SingularMatrixError("quadratic coefficient matrix must be positive definite")
    a_inv = invert_2x2(a, exc=SingularMatrixError)
    alpha = float(b @ a_inv @ b)
    radius = 10.0 * (alpha + abs(c) + 1.0) / lam_min
    axis = np.linspace(-radius, radius, 201)
    xi1, xi2 = np.repeat(axis, 201), np.tile(axis, 201)
    quad = a[0, 0] * xi1**2 + 2.0 * a[0, 1] * xi1 * xi2 + a[1, 1] * xi2**2
    idx = int(np.argmin(quad + 2.0 * np.abs(b[0] * xi1 + b[1] * xi2 + c)))
    value, _ = _nelder_mead(objective, np.array([xi1[idx], xi2[idx]]), 2.0 * radius / 200)
    return value


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


def dual_operators(dp: DensityPoint) -> tuple[np.ndarray, np.ndarray]:
    """SLD dual operators L^i = sum_j (G^-1)_ji L_j."""
    l1, l2 = slds = sld_operators(dp)
    g_inv = invert_2x2(np.array([[sld_inner(dp.rho, a, b).real for b in slds] for a in slds]))
    return g_inv[0, 0] * l1 + g_inv[1, 0] * l2, g_inv[0, 1] * l1 + g_inv[1, 1] * l2


def trabs(weight, x) -> float:
    """TrAbs[W X], the sum of the absolute eigenvalues of W X, for a 2x2
    antisymmetric X, from that definition (:func:`holevo2q.matrix_forms.trabs`),
    so that it checks the explicit bounds' closed form 2 sqrt(det W) |x_12|.

    A weight that is not a ``WeightMatrix`` is read through
    :meth:`WeightMatrix.from_matrix`.  DomainError unless X is a finite 2x2
    antisymmetric matrix (a complex X only with a negligible imaginary part)
    and W a valid weight.
    """
    xm = np.asarray(x)
    if not np.isfinite(xm).all():
        raise DomainError("trabs argument entries must be finite")
    if np.iscomplexobj(xm):
        if np.abs(xm.imag).max(initial=0.0) > HERMITIAN_RTOL * np.abs(xm).max():
            raise DomainError("trabs expects the (real) imaginary part of a Hermitian matrix")
        xm = xm.real
    if xm.shape != (2, 2):
        raise DomainError(f"trabs expects a 2x2 matrix, got shape {xm.shape}")
    if not_hermitian(1j * xm, PAIR_RTOL):  # X is antisymmetric iff i X is Hermitian
        raise DomainError("trabs argument must be antisymmetric")
    xm = 0.5 * (xm - xm.T)  # scrub rounding off the exact antisymmetry
    w = weight if isinstance(weight, WeightMatrix) else WeightMatrix.from_matrix(weight)
    return matrix_forms.trabs(w.matrix, xm)


def fisher_determinant_identities(m, weight: WeightMatrix) -> dict:
    """Relative residuals of the three structural identities listed in
    :func:`holevo2q.verify._weight_checks` at a mixed point, as
    ``{check name: residual}``: the bits of the ``identity_*`` rows that
    ``verify`` computes for (m, weight).  All three vanish in exact arithmetic.
    """
    checks = _weight_checks(fisher_matrices(m), weight)
    return {name: value for name, value in checks.items() if name.startswith("identity_")}


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


def n_copy_bound(single_copy_value: float, n: int) -> float:
    """Additivity of the Holevo bound over i.i.d. copies: value / n."""
    if n < 1:
        raise DomainError("copy count must be a positive integer")
    return single_copy_value / n


def random_planar_point(rng: np.random.Generator, radius: float = 0.8) -> BlochModelPoint:
    """Model point with s inside span{d1s, d2s} (triple product zero)."""
    while True:
        d1, d2 = _independent_derivatives(rng)
        coeff = rng.standard_normal(2)
        s = coeff[0] * d1 + coeff[1] * d2
        norm = np.linalg.norm(s)
        if norm < 1e-6:
            continue
        target = radius * (0.2 + 0.8 * rng.random())
        s = s * (target / norm)
        return BlochModelPoint(s=s, d1s=d1, d2s=d2)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _apply(mat, v):
    return [_dot(row, v) for row in mat]


def exact_bounds(m, w):
    """(C^S, C^R, C^Z, C^H) as Fractions, from the matrix definitions
    G = D^T Q D, G~ = D^T Q~ D and z^ij = <l^i, Q~^-1 l^j> on the SLD duals
    l^i = sum_j (G^-1)_ji Q d_j s, for any W > 0.  Complex entries are kept as
    separate real and imaginary parts.  TrAbs(W X) = 2 sqrt(det W) |x_12|,
    where sqrt(det W) is the Fraction of a 50-digit mpmath square root of the
    exact det W (exactly 1 at det W = 1); every other quantity is exact.  The
    branch is :func:`exact_branch_sign`, which needs no square root."""
    import mpmath  # lazy: only the exact reference needs it

    wm = [[Fraction(w.w11), Fraction(w.w12)], [Fraction(w.w12), Fraction(w.w22)]]
    det_w = wm[0][0] * wm[1][1] - wm[0][1] ** 2
    with mpmath.workdps(50):
        man, exp = mpmath.sqrt(mpmath.mpf(det_w.numerator) / det_w.denominator).man_exp
    sqrt_det_w = man * Fraction(2) ** exp
    s = [Fraction(x) for x in m.s]
    ds = [[Fraction(x) for x in m.d1s], [Fraction(x) for x in m.d2s]]
    eps = 1 - _dot(s, s)
    eye = [[Fraction(int(a == b)) for b in range(3)] for a in range(3)]
    q = [[eye[a][b] + s[a] * s[b] / eps for b in range(3)] for a in range(3)]
    f = [[0, -s[2], s[1]], [s[2], 0, -s[0]], [-s[1], s[0], 0]]  # F a = s x a
    q_inv = [[eye[a][b] - s[a] * s[b] for b in range(3)] for a in range(3)]

    def inv2(mat):
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        return [[mat[1][1] / det, -mat[0][1] / det], [-mat[1][0] / det, mat[0][0] / det]]

    def tr_w(mat):
        return sum(wm[i][j] * mat[j][i] for i in range(2) for j in range(2))

    g = [[_dot(di, _apply(q, dj)) for dj in ds] for di in ds]
    g_inv = inv2(g)
    # Q~ = (I - iF)/eps; G~ = re + i im is Hermitian.
    gt_re = [[_dot(di, dj) / eps for dj in ds] for di in ds]
    gt_im = [[-_dot(di, _apply(f, dj)) / eps for dj in ds] for di in ds]
    det_gt = gt_re[0][0] * gt_re[1][1] - gt_re[0][1] ** 2 - gt_im[0][1] ** 2
    gti_re = [[gt_re[1][1] / det_gt, -gt_re[0][1] / det_gt],
              [-gt_re[1][0] / det_gt, gt_re[0][0] / det_gt]]
    gti_im12 = -gt_im[0][1] / det_gt
    ls = [_apply(q, d) for d in ds]
    duals = [[g_inv[0][i] * a + g_inv[1][i] * b for a, b in zip(*ls)] for i in range(2)]
    # Q~^-1 = Q^-1 + iF.
    z_re = [[_dot(li, _apply(q_inv, lj)) for lj in duals] for li in duals]
    z_im12 = _dot(duals[0], _apply(f, duals[1]))

    c_s = tr_w(g_inv)
    c_r = tr_w(gti_re) + 2 * sqrt_det_w * abs(gti_im12)
    c_z = tr_w(z_re) + 2 * sqrt_det_w * abs(z_im12)
    b_value = c_r - (c_z + c_s) / 2
    c_h = c_r if exact_branch_sign(m, w) >= 0 else c_r + b_value**2 / (c_z - c_r)
    return c_s, c_r, c_z, c_h


def exact_branch_sign(m, w) -> int:
    """The sign of B[W] = C^R - (C^Z + C^S)/2 at the float inputs, exactly: +1
    where C^H = C^R (W+), -1 where the correction applies (W-), 0 on B = 0.

    The kernel's p B = t - q has t = eps sqrt(det W) |k| >= 0 and
    q = (r | adj W r) >= 0, with eps = 1 - s.s, k = s.(d1s x d2s) and
    r_i = s.d_i s, so sign(B) = sign(eps^2 det W k^2 - q^2): no square root,
    and every term is a Fraction of the float inputs.  Any W > 0."""
    s, d1, d2 = ([Fraction(x) for x in v] for v in (m.s, m.d1s, m.d2s))
    w11, w12, w22 = Fraction(w.w11), Fraction(w.w12), Fraction(w.w22)
    eps = 1 - _dot(s, s)
    n = [d1[1] * d2[2] - d1[2] * d2[1], d1[2] * d2[0] - d1[0] * d2[2],
         d1[0] * d2[1] - d1[1] * d2[0]]
    k = _dot(s, n)
    r1, r2 = _dot(s, d1), _dot(s, d2)
    q = w22 * r1 * r1 - 2 * w12 * r1 * r2 + w11 * r2 * r2
    diff = eps * eps * (w11 * w22 - w12 * w12) * k * k - q * q
    return (diff > 0) - (diff < 0)
