"""Scalar bounds, the closed-form Holevo bound and weight-space geometry.

The alternate forms of the Holevo bound (the bare correction term, the
TrAbs rewriting of the correction branch and the unified form built on the
C^1 profile H) live here as reference helpers: they exist only to
cross-check ``holevo_bound``, the one production formula.
"""

import numpy as np
import pytest

from holevo2q.bloch import BlochModelPoint, BlochModelPoint3
from holevo2q.bounds import (
    BOUNDARY_RTOL,
    GAP_UNDERFLOW_RTOL,
    Branch,
    WeightMatrix,
    WeightRegion,
    alpha_theta,
    b_theta,
    bound_nagaoka,
    bound_rld,
    bound_sld,
    bound_z,
    boundary_weight_family,
    classify_weight,
    holevo_bound,
    holevo_bound_three_param,
    minimizing_offset,
    quadratic_abs_min,
    trabs,
    trabs_eigenvalues,
    weight_from_angles,
)
from holevo2q.errors import BranchError, DomainError, SpecialModelError
from holevo2q.fisher import fisher_bundle
from holevo2q.oracle import density_point, minimize_holevo_6d
from holevo2q.sampling import (
    random_d_invariant_point,
    random_model_point,
    random_planar_point,
    random_weight,
)

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])
IDENTITY = WeightMatrix.identity()


def bundle(s, d1=XHAT, d2=YHAT):
    return fisher_bundle(BlochModelPoint(s=s, d1s=d1, d2s=d2))


# Reference forms of the Holevo bound.


def s_correction(c_s: float, c_r: float, c_z: float) -> float:
    """Correction term S = [ (C^Z + C^S)/2 - C^R ]^2 / (C^Z - C^R).

    Defined only where C^Z > C^R; on the RLD branch the condition
    C^R >= (C^Z + C^S)/2 forbids calling this.
    """
    gap = c_z - c_r
    scale = abs(c_z) + abs(c_r) + abs(c_s)
    if gap <= GAP_UNDERFLOW_RTOL * scale:
        raise BranchError(
            f"correction term undefined: C^Z - C^R = {gap:.3e} is not positive"
        )
    half_sum = 0.5 * (c_z + c_s)
    return (half_sum - c_r) ** 2 / gap


def h_of_x(x: float) -> float:
    """Piecewise profile H(x) = x^2 for |x| < 1, 2|x| - 1 otherwise (C^1)."""
    ax = abs(x)
    if ax >= 1.0:
        return 2.0 * ax - 1.0
    return x * x


def holevo_objective_xi(fb, w, xi) -> float:
    """Reduced objective h(xi) = C^S + <l_perp,Q^-1 l_perp>(xi|W xi)
    + 2 sqrt(det W) |Im z^12 + (1-s^2)(gamma|xi)|."""
    xi = np.asarray(xi, dtype=float)
    quad = fb.perp_quadratic * float(xi @ w.matrix @ xi)
    affine = fb.im_z12 + fb.one_minus_s_sq * float(fb.gamma @ xi)
    return bound_sld(fb, w) + quad + 2.0 * np.sqrt(w.det) * abs(affine)


def holevo_bound_correction_form(fb, w) -> float:
    """Correction-branch rewriting C^S + (TrAbs(W Im G~^-1))^2 /
    (4 Tr(W (G^-1 - Re G~^-1))); equals the Holevo bound where B <= 0."""
    numer = trabs(w, fb.g_tilde_inv.imag) ** 2
    denom = 4.0 * float(np.trace(w.matrix @ (fb.g_inv - fb.g_tilde_inv.real)))
    if denom <= 0.0:
        raise BranchError("correction form undefined: Tr(W(G^-1 - Re G~^-1)) <= 0")
    return bound_sld(fb, w) + numer / denom


def holevo_bound_unified(fb, w) -> float:
    """Unified form C^S + (C^Z - C^R) H( (C^Z - C^S) / (2 (C^Z - C^R)) ),
    with the degenerate gap handled as the limit a H(b/a) -> 2|b|."""
    c_s = bound_sld(fb, w)
    c_r = bound_rld(fb, w)
    c_z = bound_z(fb, w)
    gap = c_z - c_r
    half_trabs = 0.5 * (c_z - c_s)
    if gap < GAP_UNDERFLOW_RTOL * (abs(c_z) + 1.0):
        return c_s + 2.0 * abs(half_trabs)
    return c_s + gap * h_of_x(half_trabs / gap)


class TestWeightMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            WeightMatrix(1.0, 2.0, 1.0)

    def test_rejects_negative_diagonal(self):
        with pytest.raises(DomainError):
            WeightMatrix(-1.0, 0.0, 1.0)

    def test_matrix_round_trip(self):
        w = WeightMatrix(2.0, 0.5, 1.0)
        assert np.allclose(WeightMatrix.from_matrix(w.matrix).matrix, w.matrix)


class TestTrAbs:
    def test_unit_antisymmetric(self):
        assert trabs(IDENTITY, [[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(2.0)

    def test_weighted(self):
        w = WeightMatrix(2.0, 0.0, 0.5)
        assert trabs(w, [[0.0, 3.0], [-3.0, 0.0]]) == pytest.approx(6.0)

    def test_zero(self):
        assert trabs(random_weight(np.random.default_rng(0)), np.zeros((2, 2))) == 0.0

    def test_rejects_symmetric(self):
        with pytest.raises(DomainError):
            trabs(IDENTITY, [[0.0, 1.0], [1.0, 0.0]])

    def test_closed_form_matches_eigenvalue_definition(self):
        rng = np.random.default_rng(46)
        for _ in range(1000):
            w = random_weight(rng).scaled(10.0 ** rng.uniform(-3, 3))
            x12 = rng.normal() * 10.0 ** rng.uniform(-3, 3)
            x = np.array([[0.0, x12], [-x12, 0.0]])
            value = trabs(w, x)
            assert abs(value - trabs_eigenvalues(w.matrix, x)) <= 1e-12 * (1.0 + value)

    def test_three_by_three(self):
        # W^(1/2) X W^(1/2) has eigenvalues {0, +-i nu}; TrAbs = 2 nu.
        x = np.array([[0.0, 0.3, -0.1], [-0.3, 0.0, 0.7], [0.1, -0.7, 0.0]])
        w = np.diag([1.0, 2.0, 0.5])
        w_half = np.sqrt(w)
        nu = np.abs(np.linalg.eigvals(w_half @ x @ w_half)).max()
        assert trabs(w, x) == pytest.approx(2.0 * nu, rel=1e-12)


class TestScalarBounds:
    def test_sld_identity_case(self):
        assert bound_sld(bundle([0, 0, 0.5]), IDENTITY) == pytest.approx(2.0)

    def test_sld_planar_point(self):
        fb = bundle([0.6, 0.0, 0.0])
        assert bound_sld(fb, IDENTITY) == pytest.approx(1.64)

    def test_rld_z_half(self):
        assert bound_rld(bundle([0, 0, 0.5]), IDENTITY) == pytest.approx(3.0)

    def test_rld_fixed_height_formula(self):
        # TrAbs(W Im G~^-1) is linear in (1-s^2)/(1-t0^2): the inverse RLD
        # Fisher matrix carries that ratio as an overall factor.  Confirmed
        # against the operator-level brute-force minimum on the RLD branch.
        t0, t = 0.3, 0.25
        fb = bundle([t, t, t0])
        s_sq = 2 * t * t + t0 * t0
        ratio = (1 - s_sq) / (1 - t0**2)
        expected = 2 * ratio + 2 * ratio * abs(t0)
        assert bound_rld(fb, IDENTITY) == pytest.approx(expected, rel=1e-12)

    def test_rld_planar_real_only(self):
        fb = bundle([0.3, 0.2, 0.0])
        expected = float(np.trace(fb.g_tilde_inv.real))
        assert bound_rld(fb, IDENTITY) == pytest.approx(expected, rel=1e-12)

    def test_z_equals_rld_on_d_invariant(self):
        fb = bundle([0, 0, 0.5])
        assert bound_z(fb, IDENTITY) == pytest.approx(bound_rld(fb, IDENTITY), rel=1e-12)

    def test_z_fixed_height_formula(self):
        # C^Z = C^S + TrAbs(W Im Z) with the same linear ratio as the RLD
        # bound (the imaginary parts of Z and G~^-1 coincide).
        t0, t1, t2 = 0.3, 0.25, -0.15
        fb = bundle([t1, t2, t0])
        s_sq = t1**2 + t2**2 + t0**2
        expected = (
            2.0
            - (t1**2 + t2**2) / (1 - t0**2)
            + 2.0 * (1 - s_sq) / (1 - t0**2) * abs(t0)
        )
        assert bound_z(fb, IDENTITY) == pytest.approx(expected, rel=1e-12)

    def test_z_minus_rld_gap_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = random_model_point(rng)
            fb = fisher_bundle(m)
            w = random_weight(rng)
            gap = bound_z(fb, w) - bound_rld(fb, w)
            w_inv = np.linalg.inv(w.matrix)
            det_ratio = np.linalg.det(fb.g) / w.det
            expected = (1 - m.s_squared) * (fb.gamma @ w_inv @ fb.gamma) / det_ratio
            assert abs(gap - expected) <= 1e-10 * (1 + abs(gap))

    def test_nagaoka_values(self):
        assert bound_nagaoka(bundle([0.6, 0.0, 0.0]), IDENTITY) == pytest.approx(3.24)
        assert bound_nagaoka(bundle([0, 0, 0], d1=XHAT, d2=YHAT), IDENTITY) == pytest.approx(4.0)

    def test_homogeneity_degree_one(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            fb = fisher_bundle(random_model_point(rng))
            w = random_weight(rng)
            c = 0.1 + 3.0 * rng.random()
            for fn in (bound_sld, bound_rld, bound_z, bound_nagaoka):
                assert fn(fb, w.scaled(c)) == pytest.approx(c * fn(fb, w), rel=1e-12)
            rep1 = holevo_bound(fb, w)
            rep2 = holevo_bound(fb, w.scaled(c))
            assert rep2.c_h == pytest.approx(c * rep1.c_h, rel=1e-12)


class TestSCorrection:
    def test_direct_arithmetic(self):
        assert s_correction(2.0, 2.2, 3.0) == pytest.approx(0.1125)

    def test_classical_collapse(self):
        # With C^Z = C^S the correction closes the gap to the SLD bound.
        c_s = c_z = 2.0
        c_r = 1.7
        assert c_r + s_correction(c_s, c_r, c_z) == pytest.approx(c_s)

    def test_boundary_zero(self):
        assert s_correction(2.0, 2.5, 3.0) == pytest.approx(0.0)

    def test_guard(self):
        with pytest.raises(BranchError):
            s_correction(2.0, 3.0, 3.0)


class TestHProfile:
    def test_seam_continuity(self):
        assert h_of_x(1.0) == pytest.approx(1.0)
        assert h_of_x(1.0 - 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_inner_quadratic(self):
        assert h_of_x(0.5) == pytest.approx(0.25)

    def test_outer_linear(self):
        assert h_of_x(-2.0) == pytest.approx(3.0)


class TestQuadraticAbsMin:
    def test_degenerate_direction(self):
        value, xi = quadratic_abs_min(np.eye(2), np.zeros(2), 5.0)
        assert value == pytest.approx(10.0)
        assert np.allclose(xi, 0.0)

    def test_large_offset_branch(self):
        value, xi = quadratic_abs_min(np.eye(2), np.array([1.0, 0.0]), 2.0)
        assert value == pytest.approx(3.0)
        assert np.allclose(xi, [-1.0, 0.0])

    def test_small_offset_branch(self):
        value, xi = quadratic_abs_min(2.0 * np.eye(2), np.array([0.0, 1.0]), 0.25)
        assert value == pytest.approx(0.125)
        assert np.allclose(xi, [0.0, -0.25])


class TestHolevoBound:
    def test_d_invariant_rld_branch(self):
        rep = holevo_bound(bundle([0, 0, 0.5]), IDENTITY)
        assert rep.branch is Branch.RLD
        assert rep.c_h == pytest.approx(3.0)
        assert rep.s_correction == 0.0
        assert np.allclose(rep.xi_star, 0.0)

    def test_planar_equals_sld(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = random_planar_point(rng)
            fb = fisher_bundle(m)
            w = random_weight(rng)
            rep = holevo_bound(fb, w)
            assert rep.branch in (Branch.CORRECTION, Branch.BOUNDARY)
            assert rep.c_h == pytest.approx(rep.c_s, rel=1e-10)

    def test_d_invariant_rld_everywhere(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            m = random_d_invariant_point(rng)
            fb = fisher_bundle(m)
            w = random_weight(rng)
            rep = holevo_bound(fb, w)
            assert rep.c_h == pytest.approx(rep.c_r, rel=1e-10)

    def test_inequality_chain(self):
        rng = np.random.default_rng(35)
        for _ in range(1000):
            fb = fisher_bundle(random_model_point(rng))
            w = random_weight(rng)
            rep = holevo_bound(fb, w)
            slack = 1e-10 * abs(rep.c_z)
            assert rep.c_z >= rep.c_h - slack
            assert rep.c_h >= max(rep.c_s, rep.c_r) - slack

    def test_three_expressions_agree(self):
        rng = np.random.default_rng(36)
        seen_correction = 0
        for _ in range(300):
            fb = fisher_bundle(random_model_point(rng))
            w = random_weight(rng)
            rep = holevo_bound(fb, w)
            unified = holevo_bound_unified(fb, w)
            assert unified == pytest.approx(rep.c_h, rel=1e-10)
            if rep.branch is Branch.CORRECTION:
                seen_correction += 1
                alt = holevo_bound_correction_form(fb, w)
                assert alt == pytest.approx(rep.c_h, rel=1e-10)
        assert seen_correction > 20

    def test_minimizer_reproduces_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            fb = fisher_bundle(random_model_point(rng))
            w = random_weight(rng)
            rep = holevo_bound(fb, w)
            value = holevo_objective_xi(fb, w, rep.xi_star)
            assert value == pytest.approx(rep.c_h, rel=1e-9)

    def test_admitted_point_with_ill_scaled_rld_inverse(self):
        # Re G~^-1 is ~2,000 here while Im G~^-1 is at most ~8.6; with the
        # four entries of G~ rounded independently the diagonal of
        # Im G~^-1 picked up 5e-10 and trabs rejected it as not antisymmetric.
        m = BlochModelPoint(
            s=[-0.8365880493419933, -0.05923574154370826, -0.2167119071471894],
            d1s=[-0.5637234349386784, 0.5888714353308676, 0.393274887547495],
            d2s=[-0.541995985742637, 0.5491500723978269, 0.3702742265516413],
        )
        w = WeightMatrix(1.4102896412670454, 0.42989690065871755, 0.67572319476129)
        rep = holevo_bound(fisher_bundle(m), w)
        brute = minimize_holevo_6d(density_point(m), w)
        assert abs(rep.c_h - brute) <= 1e-8 * abs(rep.c_h)

    def test_branch_matches_weight_region(self):
        rng = np.random.default_rng(38)
        mapping = {
            Branch.RLD: WeightRegion.W_PLUS,
            Branch.CORRECTION: WeightRegion.W_MINUS,
            Branch.BOUNDARY: WeightRegion.W_BOUNDARY,
        }
        for _ in range(300):
            fb = fisher_bundle(random_model_point(rng))
            w = random_weight(rng)
            rep = holevo_bound(fb, w)
            label = classify_weight(fb, w)
            assert mapping[rep.branch] is label.region


class TestMinimizingOffset:
    def test_zero_for_d_invariant(self):
        fb = bundle([0, 0, 0.5])
        assert np.allclose(minimizing_offset(fb, IDENTITY), 0.0)

    def test_small_offset_formula(self):
        rng = np.random.default_rng(39)
        from holevo2q.bounds import _reduction_coefficients
        from holevo2q.fisher import invert_2x2

        found = 0
        for _ in range(300):
            fb = fisher_bundle(random_model_point(rng))
            w = random_weight(rng)
            a, b, c = _reduction_coefficients(fb, w)
            a_inv = invert_2x2(a)
            alpha = float(b @ a_inv @ b)
            if alpha <= 0.0 or abs(c) >= alpha:
                continue
            found += 1
            expected = -(c / alpha) * (a_inv @ b)
            assert np.allclose(minimizing_offset(fb, w), expected)
        assert found > 20


class TestWeightRegions:
    def test_d_invariant_never_w_minus(self):
        rng = np.random.default_rng(40)
        fb = bundle([0, 0, 0.5])
        for _ in range(100):
            label = classify_weight(fb, random_weight(rng))
            assert label.region is not WeightRegion.W_MINUS

    def test_planar_never_w_plus(self):
        rng = np.random.default_rng(41)
        fb = bundle([0.3, 0.2, 0.0])
        for _ in range(100):
            label = classify_weight(fb, random_weight(rng))
            assert label.region is not WeightRegion.W_PLUS

    def test_boundary_family_circle(self):
        rng = np.random.default_rng(42)
        fb = bundle([0.25, 0.35, 0.4])
        for _ in range(100):
            phi = 2 * np.pi * rng.random()
            w_par, w2 = np.cos(phi), abs(np.sin(phi))
            if w2 < 1e-3 or abs(w_par) > 0.999:
                continue
            w = boundary_weight_family(fb, w_par, w2, c=0.5 + rng.random())
            tau = BOUNDARY_RTOL * (abs(bound_z(fb, w)) + abs(bound_sld(fb, w)))
            assert abs(b_theta(fb, w)) <= tau

    def test_family_interior_and_exterior(self):
        rng = np.random.default_rng(43)
        fb = bundle([0.25, 0.35, 0.4])
        for _ in range(100):
            phi = 2 * np.pi * rng.random()
            w_par, w2 = 0.9 * np.cos(phi), max(0.05, 0.9 * abs(np.sin(phi)))
            inner = boundary_weight_family(fb, w_par, w2)
            assert classify_weight(fb, inner).region is WeightRegion.W_PLUS
            scale = 1.3 / np.hypot(w_par, w2)
            w_out, w2_out = w_par * scale, w2 * scale
            if abs(w_out) >= 0.999:
                continue
            outer = boundary_weight_family(fb, w_out, w2_out)
            assert classify_weight(fb, outer).region is WeightRegion.W_MINUS

    def test_family_output_positive_definite(self):
        fb = bundle([0.25, 0.35, 0.4])
        w = boundary_weight_family(fb, 0.3, 0.8, c=2.0)
        assert np.linalg.eigvalsh(w.matrix).min() > 0.0

    def test_boundary_band_expressions_coincide(self):
        # On the boundary both branch expressions give the same value, so
        # either label is acceptable there.
        rng = np.random.default_rng(45)
        fb = bundle([0.25, 0.35, 0.4])
        for _ in range(50):
            phi = rng.uniform(0.1, np.pi / 2 - 0.1)
            w = boundary_weight_family(fb, np.cos(phi), np.sin(phi))
            rep = holevo_bound(fb, w)
            gap = rep.c_z - rep.c_r
            correction_value = rep.c_r + rep.b_value**2 / gap
            assert correction_value == pytest.approx(rep.c_r, rel=1e-9)
            assert rep.c_h == pytest.approx(rep.c_r, rel=1e-9)

    def test_special_model_rejection(self):
        with pytest.raises(SpecialModelError):
            alpha_theta(bundle([0, 0, 0.5]))  # D-invariant
        with pytest.raises(SpecialModelError):
            alpha_theta(bundle([0.3, 0.2, 0.0]))  # asymptotically classical


class TestWeightFromAngles:
    def test_isotropic(self):
        w = weight_from_angles(0.0, 0.0)
        assert np.allclose(w.matrix, 0.5 * np.eye(2))

    def test_determinant_invariant(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            w_par = -0.99 + 1.98 * rng.random()
            omega = 2 * np.pi * rng.random()
            w = weight_from_angles(w_par, omega)
            assert w.det == pytest.approx((1 - w_par**2) / 4.0, rel=1e-12)
            assert np.trace(w.matrix) == pytest.approx(1.0)

    def test_rotated_entries(self):
        w = weight_from_angles(0.5, np.pi / 4.0)
        assert np.allclose(w.matrix, [[0.5, 0.25], [0.25, 0.5]])

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            weight_from_angles(1.0, 0.0)


class TestThreeParamBound:
    def test_origin_value(self):
        m3 = BlochModelPoint3(
            s=[0, 0, 0], d1s=[1, 0, 0], d2s=[0, 1, 0], d3s=[0, 0, 1]
        )
        assert holevo_bound_three_param(m3, np.eye(3)) == pytest.approx(3.0)

    def test_homogeneity(self):
        m3 = BlochModelPoint3(
            s=[0.1, 0.2, 0.5], d1s=[1, 0, 0.1], d2s=[0, 1, 0], d3s=[0.2, 0, 1]
        )
        w = np.diag([1.0, 2.0, 0.5])
        v1 = holevo_bound_three_param(m3, w)
        v2 = holevo_bound_three_param(m3, 3.0 * w)
        assert v2 == pytest.approx(3.0 * v1, rel=1e-12)

    def test_weight_validation(self):
        m3 = BlochModelPoint3(
            s=[0, 0, 0.5], d1s=[1, 0, 0], d2s=[0, 1, 0], d3s=[0, 0, 1]
        )
        with pytest.raises(DomainError):
            holevo_bound_three_param(m3, np.diag([1.0, -1.0, 1.0]))
