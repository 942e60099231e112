"""Independent verification paths at the density-matrix level.

Nothing here reuses the closed-form identities of :mod:`holevo2q.fisher` or
:mod:`holevo2q.bounds` beyond elementary definitions; the point of this
module is to validate those formulas from scratch:

* logarithmic-derivative operators solved directly from their defining
  operator equations (eigenbasis solve for the symmetric one, rho^-1 d rho
  for the right one),
* Fisher / Z matrices as operator traces,
* the commutation superoperator from its defining inner-product relation,
  solved entrywise in the eigenbasis of rho,
* the Holevo function on explicit Hermitian observable pairs,
* exact minimizations of the Holevo function (a 2-d reduced search and a
  6-d constrained search through a generic null-space parametrization).

On its 2-d feasible slice the Holevo function is a convex quadratic plus
2|affine|, so both minimizers return the lowest raw value among three
closed-form candidates once raw values at probe points and around that
minimum have confirmed the model (``_kink_minimum``).  The raw objectives
take (N, 2) stacks of points, so a solve is one stacked evaluation: the
candidates together with the probes of the one the model ranks lowest (a
second evaluation, of another candidate's probes, only when the raw values
disagree with that ranking).  An evaluation's observable pairs are one
(N, 2, 2, 2) operator stack, [n, i] = X^i, built in one pass and fed as it
is to Z.  Density matrices and Pauli coefficients are read entry by entry,
with the bits of the numpy calls they replace.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .bloch import (CERTIFICATE_RTOL, CONSTRAINT_RTOL, FEASIBILITY_RTOL, FIT_RTOL, HERMITIAN_RTOL,
                    MIN_EIGENVALUE, PAIR_RTOL, RANK_RTOL, BlochModelPoint, Record, cross, dot3,
                    not_hermitian)
from .bounds import WeightMatrix
from .errors import (
    DegenerateModelError,
    DomainError,
    FeasibilityError,
    OracleCertificateError,
    PureStateError,
    SingularMatrixError,
)
from .matrix_forms import invert_2x2, raise_duals, sld_duals, trabs

__all__ = [
    "PAULI",
    "DensityPoint",
    "HermitianPair",
    "density_point",
    "sld_operators",
    "rld_operators",
    "operator_fisher",
    "bloch_coefficients",
    "commutation_operator",
    "sld_inner",
    "rld_inner",
    "holevo_function",
    "pair_from_bloch_vectors",
    "minimize_holevo_2d",
    "minimize_holevo_6d",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (_SX, _SY, _SZ)
_ID2 = np.eye(2, dtype=complex)

_FIT_PROBES = (np.array([0.6, 0.8]), np.array([-0.8, 0.6]))
_CERTIFICATE_STEPS = (1e-2, 1e-4, 1e-6)
# As floats: the fit offsets, and +-h in probe order.
_FIT_OFFSETS = [u.tolist() for u in _FIT_PROBES]
_SIGNED_STEPS = [sign * h for h in _CERTIFICATE_STEPS for sign in (1, -1)]


def _herm(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


class DensityPoint(Record):
    """2x2 density matrix with its two parameter derivatives.  Admission takes
    rho's least eigenvalue in closed form from the entries eigh reads (UPLO='L')."""

    rho: np.ndarray
    drho1: np.ndarray
    drho2: np.ndarray

    def __post_init__(self):
        names = ("rho", "drho1", "drho2")
        for name in names:
            if np.shape(getattr(self, name)) != (2, 2):
                raise DomainError(f"{name} must be 2x2")
        mats = np.array([getattr(self, name) for name in names], dtype=complex)
        entries = mats.tolist()
        for name, ((m00, m01), (m10, m11)) in zip(names, entries):
            if not all(map(cmath.isfinite, (m00, m01, m10, m11))):
                raise DomainError(f"{name} must be finite")
            # max |m - m^dagger| against max |m|: |m10 - conj(m01)| = |m01 - conj(m10)|.
            asym = max(2.0 * abs(m00.imag), abs(m01 - m10.conjugate()), 2.0 * abs(m11.imag))
            if asym > HERMITIAN_RTOL * max(abs(m00), abs(m01), abs(m10), abs(m11)):
                raise DomainError(f"{name} must be Hermitian")
        wanted = ("have unit trace", "be traceless", "be traceless")
        for name, (row0, row1), target, what in zip(names, entries, (1.0, 0.0, 0.0), wanted):
            # Against the unit trace of rho, and the diagonal of a derivative.
            scale = target or abs(row0[0]) + abs(row1[1])
            if abs(row0[0] + row1[1] + 0.0 - target) > HERMITIAN_RTOL * scale:
                raise DomainError(f"{name} must {what}")
        for name, mat in zip(names, mats):
            object.__setattr__(self, name, mat)
        (a, _), (b, d) = entries[0]
        if (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, abs(b)) < MIN_EIGENVALUE:
            raise PureStateError("rho is not strictly positive")

    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        return self.drho1, self.drho2

    @functools.cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh(rho)``, (p, V) with rho = V diag(p) V^dagger, on first use."""
        return np.linalg.eigh(self.rho)


class HermitianPair(Record):
    """Candidate observable pair for the Holevo function."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        for name in ("x1", "x2"):
            mat = np.asarray(getattr(self, name), dtype=complex)
            if mat.shape != (2, 2) or not_hermitian(mat, PAIR_RTOL):
                raise DomainError(f"{name} must be a Hermitian 2x2 matrix")
            if not np.isfinite(mat).all():
                raise DomainError(f"{name} must be finite")
            object.__setattr__(self, name, mat)

    def operators(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x1, self.x2


def density_point(m: BlochModelPoint) -> DensityPoint:
    """rho = (I + s.sigma)/2 and its derivatives from a Bloch model point."""
    # v.sigma for v = s, d1s, d2s: -<0, v> I + v.sigma, the bits of the Pauli sum.
    ops = _bloch_operator(np.zeros(3), np.array([m.s, m.d1s, m.d2s]))
    ops[0] += _ID2
    rho, dr1, dr2 = 0.5 * ops
    return DensityPoint(rho, dr1, dr2)


def sld_operators(dp: DensityPoint) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian L_i solving d_i rho = (rho L_i + L_i rho)/2.

    Solved in the eigenbasis of rho: L_jk = 2 (d rho)_jk / (p_j + p_k).
    """
    evals, evecs = dp.eigenbasis
    denom = evals[:, None] + evals[None, :]
    out = []
    for drho in dp.derivatives():
        d_in_basis = evecs.conj().T @ drho @ evecs
        l_in_basis = 2.0 * d_in_basis / denom
        out.append(_herm(evecs @ l_in_basis @ evecs.conj().T))
    return out[0], out[1]


def rld_operators(dp: DensityPoint) -> tuple[np.ndarray, np.ndarray]:
    """L~_i = rho^-1 d_i rho solving d_i rho = rho L~_i (non-Hermitian)."""
    rho_inv = np.linalg.inv(dp.rho)
    return rho_inv @ dp.drho1, rho_inv @ dp.drho2


def sld_inner(rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> complex:
    """Symmetrized inner product tr(rho (y x^dagger + x^dagger y))/2.

    Real for Hermitian arguments; the sesquilinear extension (conjugate
    linear in ``x``) is what the mixed relations with the commutation
    superoperator use.
    """
    return complex(0.5 * np.trace(rho @ (y @ x.conj().T + x.conj().T @ y)))


def rld_inner(rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> complex:
    """Right inner product tr(rho y x^dagger)."""
    return complex(np.trace(rho @ y @ x.conj().T))


def operator_fisher(dp: DensityPoint, slds, rlds):
    """(G, G~, Z) as operator traces; the cross-check for the Bloch route.

    G_ij  = tr(rho (L_i L_j + L_j L_i))/2
    G~_ij = tr(rho L~_j L~_i^dagger)
    z^ij  = tr(rho L^j L^i) on the SLD duals L^i = sum_j (G^-1)_ji L_j,

    with ``slds`` and ``rlds`` the operators ``sld_operators(dp)`` and
    ``rld_operators(dp)``.
    """
    rho = dp.rho
    g = np.array([[sld_inner(rho, a, b).real for b in slds] for a in slds])
    gt = np.array([[rld_inner(rho, a, b) for b in rlds] for a in rlds])
    duals = raise_duals(invert_2x2(g), *slds)
    z = np.array([[np.trace(rho @ duals[j] @ duals[i]) for j in range(2)] for i in range(2)])
    return g, gt, z


def bloch_coefficients(op: np.ndarray) -> tuple[complex, np.ndarray]:
    """Expansion op = a I + v.sigma; returns (a, v) with v the sigma part."""
    # tr(op) and tr(op sigma_k) from the entries, + 0.0 as np.trace sums from 0.
    (a00, a01), (a10, a11) = np.asarray(op).tolist()
    halves = (np.array([a00 + a11, a01 + a10, 1j * (a01 - a10), a00 - a11]) + 0.0) / 2.0
    return complex(halves[0]), halves[1:]


def commutation_operator(dp: DensityPoint, x: np.ndarray) -> np.ndarray:
    """Superoperator value D(x) defined by <Y, D(X)>_rho = tr(rho [X, Y])/(2i)
    for all Hermitian Y, and extended complex-linearly.

    The sign convention is pinned by the consistency relations it must
    satisfy: (I + iD)(L~_i) = L_i and <X, Y>+ = <X, (I + iD)(Y)>.  Solved in
    the eigenbasis of rho: D_jk = i (p_k - p_j)/(p_j + p_k) X_jk.
    """
    evals, evecs = dp.eigenbasis
    x_in_basis = evecs.conj().T @ np.asarray(x, dtype=complex) @ evecs
    factor = 1j * (evals[None, :] - evals[:, None]) / (evals[:, None] + evals[None, :])
    return evecs @ (factor * x_in_basis) @ evecs.conj().T


def holevo_function(dp: DensityPoint, pair: HermitianPair, w: WeightMatrix) -> float:
    """Tr(W Re Z[X]) + TrAbs(W Im Z[X]) with Z[X]_ij = tr(rho X^j X^i).

    Raises :class:`FeasibilityError` when tr(rho X^j) = 0 or tr(d_i rho X^j) =
    delta_ij is violated by more than ``FEASIBILITY_RTOL`` of the sum of the
    absolute terms of its trace (by its target where all terms vanish, as for
    a zero operator).
    """
    ops, xs_t = np.array([dp.rho, dp.drho1, dp.drho2]), np.array(pair.operators()).swapaxes(1, 2)
    terms = ops[:, None] * xs_t  # [a, j, k, l] = A_kl X^j_lk for A = rho, d_1 rho, d_2 rho
    miss = np.abs(terms.sum(axis=(2, 3)) - [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    size = np.abs(terms).sum(axis=(2, 3))
    residual = float((miss / np.where(size > 0.0, size, 1.0)).max())
    if residual > FEASIBILITY_RTOL:
        raise FeasibilityError(
            f"observable pair violates unbiasedness constraints by {residual:.3e}"
        )
    return float(_holevo_values(dp.rho, w.matrix, np.array([pair.operators()]))[0])


def _holevo_values(rho: np.ndarray, wm: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The Holevo function at (rho, W) of a stack (N, 2, 2, 2) of pairs,
    [n, i] = X^i, as N values."""
    re, im = _z_parts(rho, wm, xs)
    return re + trabs(wm, im)


def _z_parts(rho: np.ndarray, wm: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tr(W Re Z) and Im Z of Z_ij = tr((rho X^j) X^i) for a stack (N, 2, 2, 2)
    of pairs, [n, i] = X^i: the products of tr(rho X^j X^i), with rho X^j
    formed once per j.  Z[X] is Hermitian, so Im Z is antisymmetric up to
    rounding; the rounding is symmetrized away before TrAbs."""
    prod = (rho @ xs)[:, None] @ xs[:, :, None]  # [n, i, j] = rho X^j X^i
    z = prod[..., 0, 0] + prod[..., 1, 1]
    re = wm @ z.real
    return re[:, 0, 0] + re[:, 1, 1], 0.5 * (z.imag - z.imag.swapaxes(1, 2))


def pair_from_bloch_vectors(m: BlochModelPoint, x1, x2) -> HermitianPair:
    """Observables X^i = -<s, x^i> I + x^i . sigma for real 3-vectors x^i."""
    ops = _bloch_operator(m.s, np.array([x1, x2], dtype=float))
    return HermitianPair(x1=ops[0], x2=ops[1])


def _bloch_operator(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """-<s, v> I + v.sigma for each row of an (N, 3) stack, entry by entry.

    Each entry has one nonzero term of the Pauli sum, so it equals the sum
    ``-<s, v> I + sum_k v_k sigma_k`` bit for bit; the ``+ 0.0`` turns -0.0
    into 0.0, as that sum (which starts from 0) does.
    """
    c = dot3(v, s)
    v1, v2, v3 = v.T
    ops = np.zeros((len(v), 2, 2), dtype=complex)
    ops.real[:, 0, 0], ops.real[:, 1, 1] = -c + v3 + 0.0, -c - v3 + 0.0
    ops.real[:, 0, 1] = ops.real[:, 1, 0] = v1 + 0.0
    ops.imag[:, 0, 1], ops.imag[:, 1, 0] = -v2 + 0.0, v2 + 0.0
    return ops


def _kink_minimum(fun, s0: float, g, a, b, c: float) -> tuple[float, np.ndarray]:
    """Lowest raw value of ``fun`` among the three minimizers of its 2-d model

        m(xi) = s0 + 2 (g|xi) + (xi|A xi) + 2 |(b|xi) + c|,   A > 0:

    -A^-1 (g + b), -A^-1 (g - b) and the minimum of the quadratic on the kink
    line (b|xi) + c = 0 (absent when (b|A^-1 b) = 0).  Returns (value, xi*).
    ``fun`` maps an (N, 2) stack of points to N raw values, each row the bits
    of its own one-row call.  It is called once, on the finite candidates
    stacked with the probes of the candidate the model ranks lowest; only
    when the raw minimum falls on another candidate is it called again, on
    that candidate's probes.  Raises :class:`OracleCertificateError` when no
    candidate is finite, when the value or a probe's raw value is not
    finite, when ``fun`` departs from m at two probe points by more than
    ``FIT_RTOL`` |fun|, or when it falls below the value by more than
    ``CERTIFICATE_RTOL`` (relative) at xi* +- h (1 + |xi*|) d for d along e1,
    e2 and the kink line and h in ``_CERTIFICATE_STEPS``; the fit is checked
    first.
    """
    a_inv = invert_2x2(a, exc=SingularMatrixError)
    (g1, g2), ((a11, a12), (a21, a22)), (b1, b2), c = g.tolist(), a.tolist(), b.tolist(), float(c)
    # g + b, g - b and g + t b in Python floats (numpy's roundings), then one gemv a row.
    b_a_inv = b @ a_inv
    beta = float(b_a_inv @ b)
    rows = [[g1 + b1, g2 + b2], [g1 - b1, g2 - b2]]
    if beta > 0.0:
        t = (c - float(b_a_inv @ g)) / beta
        rows.append([g1 + t * b1, g2 + t * b2])
    candidates = (-a_inv @ np.array(rows)[:, :, None])[:, :, 0].tolist()
    points = [x for x in candidates if math.isfinite(x[0]) and math.isfinite(x[1])]
    if not points:
        raise OracleCertificateError("no finite candidate")

    def model(x1: float, x2: float) -> float:
        quad = x1 * (x1 * a11 + x2 * a21) + x2 * (x1 * a12 + x2 * a22)
        return s0 + 2.0 * (x1 * g1 + x2 * g2) + quad + 2.0 * abs(x1 * b1 + x2 * b2 + c)

    b_norm = float(np.hypot(b1, b2))
    directions = [(1.0, 0.0), (0.0, 1.0)] + ([(-b2 / b_norm, b1 / b_norm)] if b_norm > 0.0 else [])

    def probes(x1: float, x2: float) -> list:
        # xi + scale u and xi + (h scale) d, one rounding per operation as in
        # numpy's elementwise arithmetic; np.hypot, as math.hypot may differ.
        scale = 1.0 + float(np.hypot(x1, x2))
        steps = [h * scale for h in _SIGNED_STEPS]
        fit = [(x1 + scale * u1, x2 + scale * u2) for u1, u2 in _FIT_OFFSETS]
        return fit + [(x1 + h * d1, x2 + h * d2) for d1, d2 in directions for h in steps]

    # min and index keep the first of equal keys, as the choice among raw values must;
    # as fun maps equal rows to equal bits, best == pick iff their points' bits agree.
    keys = [model(*x) for x in points]
    pick = keys.index(min(keys))
    probe = probes(*points[pick])
    raws = fun(np.array(points + probe)).tolist()
    value = min(raws[: len(points)])
    best, probe_raws = raws.index(value), raws[len(points) :]
    if best != pick:
        probe = probes(*points[best])
        probe_raws = fun(np.array(probe)).tolist()
    if not all(map(math.isfinite, [value, *probe_raws])):
        raise OracleCertificateError("raw objective is not finite at its minimum or a probe")
    for x, raw in zip(probe[: len(_FIT_PROBES)], probe_raws):
        fit = raw - model(*x)
        if abs(fit) > FIT_RTOL * abs(raw):
            raise OracleCertificateError(f"raw objective departs from its model by {fit:.3e}")
    tolerance = CERTIFICATE_RTOL * abs(value)
    for raw in probe_raws[len(_FIT_PROBES) :]:
        if value - raw > tolerance:
            raise OracleCertificateError(f"raw objective is {value - raw:.3e} below its minimum")
    return value, np.array(points[best])


def minimize_holevo_2d(m: BlochModelPoint, w: WeightMatrix, fm=None) -> tuple[float, np.ndarray]:
    """Holevo bound by exact minimization of the unconstrained 2-d reduction.

    Candidate Bloch vectors x^i = l^i + xi_i l_perp stay feasible for every
    xi (checked explicitly); the objective is evaluated from raw geometry,

        h(x1, x2) = sum_ij w_ij <x^i, Q^-1 x^j> + 2 sqrt(det W) |<x^1, F x^2>|.

    Because <l_perp, F l_perp> = 0, h is a convex quadratic in xi plus
    2 |(b|xi) + c|; its coefficients come from the expansion of the same
    geometry, and :func:`_kink_minimum` returns the lowest raw value among
    the three closed-form candidates, evaluating h on one stack of xi (the
    candidates and the probes).  Returns (value, xi*).  Only the SLD duals
    are read: from ``fm = fisher_matrices(m)`` if given, else :func:`sld_duals`,
    whose guard is the ``fisher_bundle_many`` pass it returns.
    """
    dual1, dual2 = sld_duals(m)[3:] if fm is None else (fm.dual1, fm.dual2)
    s, (d1, d2) = m.s, m.derivatives()
    perp = cross(d1, d2)
    norm_perp = math.sqrt(perp @ perp)

    # Independent feasibility check of the affine parametrization: the dual
    # rows are dimensionless, and perp's tangency is tested as a cosine.
    residuals = (dual1 @ d1 - 1.0, dual1 @ d2,
                 perp @ d1 / (norm_perp * math.sqrt(d1 @ d1)),
                 perp @ d2 / (norm_perp * math.sqrt(d2 @ d2)),
                 dual2 @ d1, dual2 @ d2 - 1.0)
    if not all(abs(r) <= CONSTRAINT_RTOL for r in residuals):
        raise DegenerateModelError("reduced parametrization violates the constraints")

    q_inv = np.eye(3) - s[:, None] * s  # np.outer(s, s), without its call overhead
    wm = w.matrix
    w11, w12, w22 = w.w11, w.w12, w.w22
    sqrt_det_w = np.sqrt(w.det)

    duals = np.array([dual1, dual2])
    s_x_dual2 = cross(s, dual2)

    def objective(xi: np.ndarray) -> np.ndarray:
        xs = duals + xi[:, :, None] * perp  # [n, i] = x^i
        # <y^i, x^j> for ij = 11, 12, 21, 22, with y^i = x^i Q^-1.
        pairs = dot3((xs @ q_inv)[:, [0, 0, 1, 1]], xs[:, [0, 1, 0, 1]])
        quad = w11 * pairs[:, 0] + w12 * pairs[:, 1] + w12 * pairs[:, 2] + w22 * pairs[:, 3]
        return quad + 2.0 * sqrt_det_w * np.abs(dot3(xs[:, 0], cross(s, xs[:, 1])))

    # Expansion in xi: x^i Q^-1 x^j and <x^1, F x^2> with F x = s x x.
    y1, y2, yp = dual1 @ q_inv, dual2 @ q_inv, perp @ q_inv
    s0 = w11 * float(y1 @ dual1) + 2.0 * w12 * float(y1 @ dual2) + w22 * float(y2 @ dual2)
    g = wm @ np.array([yp @ dual1, yp @ dual2])
    a = float(yp @ perp) * wm
    b = sqrt_det_w * np.array([perp @ s_x_dual2, dual1 @ cross(s, perp)])
    c = sqrt_det_w * float(dual1 @ s_x_dual2)
    return _kink_minimum(objective, s0, g, a, b, c)


def minimize_holevo_6d(dp: DensityPoint, w: WeightMatrix) -> float:
    """Holevo bound by exact minimization over a generic affine parametrization.

    The four unbiasedness constraints on (x^1, x^2) in R^6 are solved by one
    SVD: it gives the least-norm solution x0 and the two null directions t,
    scaled to the power of two nearest |x0|, so that the solve is exact
    under a power-of-two scaling of the derivatives.  The objective is the
    operator-trace Holevo function, so this route shares nothing with the
    closed Bloch-side formulas; it is :func:`holevo_function`'s evaluator,
    ``_holevo_values``, on stacks of pairs.  Its quadratic part
    Tr(W Re Z) is fitted from raw traces at t in {0, +-e1, +-e2, e1 + e2} and
    the affine Im Z_12 from t in {0, +-e1, +-e2}, all six in one stacked
    evaluation; then :func:`_kink_minimum` returns the lowest raw value among
    the candidates, with one more stacked evaluation.
    """
    # Recover the Bloch data from the operators themselves: rho = (I + s.sigma)/2.
    s, d1, d2 = (2.0 * bloch_coefficients(op)[1].real for op in (dp.rho, dp.drho1, dp.drho2))

    constraint = np.zeros((4, 6))
    constraint[0:2, 0:3] = constraint[2:4, 3:6] = (d1, d2)
    u, svals, vt = np.linalg.svd(constraint)
    if np.count_nonzero(svals > RANK_RTOL * svals.max()) != 4:
        raise DegenerateModelError("constraint matrix is rank deficient")
    x0 = vt[:4].T @ ((u.T @ [1.0, 0.0, 0.0, 1.0]) / svals)  # the least-norm solution
    # Null directions scaled to |x0| (a power of two): t is degree 0 in the derivative scale.
    null_basis = vt[4:].T * math.ldexp(1.0, round(math.log2(math.sqrt(x0 @ x0))))  # (6, 2)

    def operators(t: np.ndarray) -> np.ndarray:  # (N, 2, 2, 2): [n, i] = X^i, one build
        x = x0 + (null_basis @ t[:, :, None])[:, :, 0]
        return _bloch_operator(s, x.reshape(-1, 3)).reshape(-1, 2, 2, 2)

    fit_t = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)], dtype=float)
    wm = w.matrix
    re, im = _z_parts(dp.rho, wm, operators(fit_t))
    s0, sp1, sm1, sp2, sm2, s12 = re.tolist()
    l0, lp1, lm1, lp2, lm2, _ = im[:, 0, 1].tolist()
    g1, g2 = (sp1 - sm1) / 4.0, (sp2 - sm2) / 4.0
    a11, a22 = 0.5 * (sp1 + sm1) - s0, 0.5 * (sp2 + sm2) - s0
    a12 = 0.5 * (s12 - s0 - 2.0 * (g1 + g2) - a11 - a22)
    sqrt_det_w = np.sqrt(w.det)
    b = [sqrt_det_w * (lp1 - lm1) / 2.0, sqrt_det_w * (lp2 - lm2) / 2.0]
    g, a, b = np.array([g1, g2]), np.array([[a11, a12], [a12, a22]]), np.array(b)
    return _kink_minimum(lambda t: _holevo_values(dp.rho, wm, operators(t)),
                         s0, g, a, b, sqrt_det_w * l0)[0]
