"""Scalar bounds, the closed-form Holevo bound and weight-space geometry.

The alternate forms of the Holevo bound (the bare correction term, the
TrAbs rewriting of the correction branch and the unified form built on the
C^1 profile H) live here as reference helpers: they exist only to
cross-check ``holevo_bound``, the one production formula.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from holevo2q import bounds
from holevo2q.bloch import BlochModelPoint
from holevo2q.bounds import (
    BOUNDARY_RTOL,
    Branch,
    WeightMatrix,
    alpha_theta,
    boundary_weight_family,
    holevo_bound,
    holevo_bounds_many,
    weight_from_angles,
)
from holevo2q.cli import main
from holevo2q.errors import DomainError, ModelError, SpecialModelError
from holevo2q.fisher import FisherBundle, fisher_bundle, fisher_bundle_many
from holevo2q.matrix_forms import fisher_matrices, invert_2x2
from holevo2q.models import Explicit, GenericZ, Planar, Unitary
from holevo2q.oracle import density_point, minimize_holevo_6d
from holevo2q.sampling import (
    random_d_invariant_point,
    random_generic_pair,
    random_model_point,
    random_unit_vector,
    random_weight,
)
from reference import (OffBranchError, exact_bounds, exact_branch_sign, quadratic_abs_min,
                       random_planar_point, trabs)

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])
IDENTITY = WeightMatrix.identity()


def bundle(s, d1=XHAT, d2=YHAT):
    return fisher_bundle(BlochModelPoint(s=s, d1s=d1, d2s=d2))


# Reference forms of the Holevo bound.

# Below this relative gap the reference forms treat C^Z - C^R as zero.
GAP_UNDERFLOW_RTOL = 1e-13


def s_correction(c_s: float, c_r: float, c_z: float) -> float:
    """Correction term S = [ (C^Z + C^S)/2 - C^R ]^2 / (C^Z - C^R).

    Defined only where C^Z > C^R; on the RLD branch the condition
    C^R >= (C^Z + C^S)/2 forbids calling this.
    """
    gap = c_z - c_r
    scale = abs(c_z) + abs(c_r) + abs(c_s)
    if gap <= GAP_UNDERFLOW_RTOL * scale:
        raise OffBranchError(
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


def holevo_objective_xi(m, w, xi) -> float:
    """Reduced objective h(xi) = C^S + <l_perp,Q^-1 l_perp>(xi|W xi)
    + 2 sqrt(det W) |Im z^12 + (1-s^2)(gamma|xi)| at the point m."""
    fb = fisher_bundle(m)
    xi = np.asarray(xi, dtype=float)
    quad = fb.perp_quadratic * float(xi @ w.matrix @ xi)
    im_z12 = fisher_matrices(m).z[0, 1].imag
    affine = im_z12 + fb.one_minus_s_sq * float(fb.gamma @ xi)
    return holevo_bound(fb, w).c_s + quad + 2.0 * np.sqrt(w.det) * abs(affine)


def reduction_coefficients(m, w):
    """(A, b, c) of the reduced minimization min (xi|A xi) + 2|(b|xi) + c|:
    A = <l_perp, Q^-1 l_perp> W, b = (1-s^2) sqrt(det W) gamma and
    c = sqrt(det W) Im z^12, all from the bundle and matrices of the point m."""
    fb = fisher_bundle(m)
    sqrt_det_w = np.sqrt(w.det)
    a = fb.perp_quadratic * w.matrix
    b = fb.one_minus_s_sq * sqrt_det_w * fb.gamma
    c = sqrt_det_w * fisher_matrices(m).z[0, 1].imag
    return a, b, c


def holevo_bound_correction_form(m, w) -> float:
    """Correction-branch rewriting C^S + (TrAbs(W Im G~^-1))^2 /
    (4 Tr(W (G^-1 - Re G~^-1))) at the point m; equals the Holevo bound where B <= 0."""
    fm = fisher_matrices(m)
    numer = trabs(w, fm.g_tilde_inv.imag) ** 2
    denom = 4.0 * float(np.trace(w.matrix @ (fm.g_inv - fm.g_tilde_inv.real)))
    if denom <= 0.0:
        raise OffBranchError("correction form undefined: Tr(W(G^-1 - Re G~^-1)) <= 0")
    return holevo_bound(fisher_bundle(m), w).c_s + numer / denom


def holevo_bound_unified(fb, w) -> float:
    """Unified form C^S + (C^Z - C^R) H( (C^Z - C^S) / (2 (C^Z - C^R)) ),
    with the degenerate gap handled as the limit a H(b/a) -> 2|b|."""
    rep = holevo_bound(fb, w)
    c_s, c_r, c_z = rep.c_s, rep.c_r, rep.c_z
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

    def test_rejects_a_non_positive_scale(self):
        with pytest.raises(DomainError, match="weight scale factor must be positive"):
            WeightMatrix.identity().scaled(-1.0)

    def test_rejects_a_nan_scale_as_not_positive(self):
        with pytest.raises(DomainError, match="^weight scale factor must be positive$"):
            WeightMatrix.identity().scaled(np.nan)

    def test_matrix_round_trip(self):
        w = WeightMatrix(2.0, 0.5, 1.0)
        assert np.allclose(WeightMatrix.from_matrix(w.matrix).matrix, w.matrix)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # inf - inf in the symmetry check
    def test_from_matrix_rejects_an_infinite_entry(self):
        with pytest.raises(DomainError, match="^weight matrix entries must be finite$"):
            WeightMatrix.from_matrix([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("scale", [1e-160, 1e-170])
    def test_rejects_a_weight_whose_det_underflows(self, scale):
        # w11 w22 is below the smallest normal float: det W is subnormal or 0.
        message = rf"\[\[{scale}, 0.0\], \[0.0, {scale}\]\]: det W cannot be resolved in floats"
        with pytest.raises(DomainError, match=message):
            WeightMatrix(scale, 0.0, scale)
        with pytest.raises(DomainError, match=message):
            WeightMatrix.from_matrix(np.array([np.eye(2), scale * np.eye(2)]))
        with pytest.raises(DomainError, match="is not positive definite"):
            WeightMatrix(scale, 1.0, scale)  # w12^2 is a normal float: det W < 0 for certain


def test_each_weight_is_admitted_once(tmp_path, monkeypatch):
    # WeightMatrix checks a weight once (a valid float weight on its fast
    # path); the kernel takes the record as it is.
    calls = []
    original = bounds._require_positive
    monkeypatch.setattr(bounds, "_require_positive", lambda *w: calls.append(w) or original(*w))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "generic_z", "theta0": 0.2}))
    sweep = ["--model", str(model), "--grid", "5", "--out", str(tmp_path / "out.csv")]
    sweep_weight = ["sweep-weight", *sweep, "--theta", "0.2447,0.2447", "--weight-family"]

    def admissions(argv):
        calls.clear()
        assert main(argv) == 0
        return len(calls)

    holevo_bound(fisher_bundle(GenericZ(0.2).evaluate((0.2447, 0.2447))),
                 WeightMatrix(0.55, 0.1, 0.45))
    assert len(calls) == 0
    assert admissions([*sweep_weight, "53"]) == 1
    assert admissions([*sweep_weight, "42"]) == 1
    assert admissions(["sweep-theta", *sweep, "--weight", "0.55,0.1,0.45"]) == 0


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
            assert abs(value - 2.0 * np.sqrt(w.det) * abs(x12)) <= 1e-12 * (1.0 + value)

    X2 = [[0.0, 1.0], [-1.0, 0.0]]

    @pytest.mark.parametrize("weight, x", [
        ([[1.0, 0.0], [0.0, -1.0]], X2),
        ([[np.nan, 0.0], [0.0, 1.0]], X2),
        ([[1.0, 5.0], [0.0, 1.0]], X2),
        (IDENTITY, [[0.0, np.inf], [-np.inf, 0.0]]),
        (np.ones((2, 3)), np.zeros((2, 3))),
        (np.ones(3), np.zeros(3)),
    ], ids=["indefinite", "nan_weight", "asymmetric_weight", "inf_x", "not_square", "vector"])
    def test_rejects_invalid_input(self, weight, x):
        with pytest.raises(DomainError):
            trabs(weight, x)


class TestScalarBounds:
    def test_sld_identity_case(self):
        assert holevo_bound(bundle([0, 0, 0.5]), IDENTITY).c_s == pytest.approx(2.0)

    def test_sld_planar_point(self):
        fb = bundle([0.6, 0.0, 0.0])
        assert holevo_bound(fb, IDENTITY).c_s == pytest.approx(1.64)

    def test_rld_z_half(self):
        assert holevo_bound(bundle([0, 0, 0.5]), IDENTITY).c_r == pytest.approx(3.0)

    def test_rld_fixed_height_formula(self):
        # TrAbs(W Im G~^-1) is linear in (1-s^2)/(1-t0^2): the inverse RLD
        # Fisher matrix carries that ratio as an overall factor.  Confirmed
        # against the operator-level brute-force minimum on the RLD branch.
        t0, t = 0.3, 0.25
        fb = bundle([t, t, t0])
        s_sq = 2 * t * t + t0 * t0
        ratio = (1 - s_sq) / (1 - t0**2)
        expected = 2 * ratio + 2 * ratio * abs(t0)
        assert holevo_bound(fb, IDENTITY).c_r == pytest.approx(expected, rel=1e-12)

    def test_rld_planar_real_only(self):
        m = BlochModelPoint([0.3, 0.2, 0.0], XHAT, YHAT)
        fb = fisher_bundle(m)
        expected = float(np.trace(fisher_matrices(m).g_tilde_inv.real))
        assert holevo_bound(fb, IDENTITY).c_r == pytest.approx(expected, rel=1e-12)

    def test_z_equals_rld_on_d_invariant(self):
        fb = bundle([0, 0, 0.5])
        rep = holevo_bound(fb, IDENTITY)
        assert rep.c_z == pytest.approx(rep.c_r, rel=1e-12)

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
        assert holevo_bound(fb, IDENTITY).c_z == pytest.approx(expected, rel=1e-12)

    def test_z_minus_rld_gap_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = random_model_point(rng)
            fb = fisher_bundle(m)
            w = random_weight(rng)
            rep = holevo_bound(fb, w)
            gap = rep.c_z - rep.c_r
            w_inv = np.linalg.inv(w.matrix)
            det_ratio = np.linalg.det(fisher_matrices(m).g) / w.det
            expected = (1 - m.s_squared) * (fb.gamma @ w_inv @ fb.gamma) / det_ratio
            assert abs(gap - expected) <= 1e-10 * (1 + abs(gap))

    def test_nagaoka_values(self):
        assert holevo_bound(bundle([0.6, 0.0, 0.0]), IDENTITY).c_n == pytest.approx(3.24)
        assert holevo_bound(bundle([0, 0, 0], d1=XHAT, d2=YHAT), IDENTITY).c_n == pytest.approx(4.0)

    def test_homogeneity_degree_one(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            fb = fisher_bundle(random_model_point(rng))
            w = random_weight(rng)
            c = 0.1 + 3.0 * rng.random()
            rep1 = holevo_bound(fb, w)
            rep2 = holevo_bound(fb, w.scaled(c))
            for field in ("c_s", "c_r", "c_z", "c_n"):
                assert getattr(rep2, field) == pytest.approx(c * getattr(rep1, field), rel=1e-12)
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
        with pytest.raises(OffBranchError):
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


    def test_reduced_problem_of_the_kernel(self):
        # holevo_bounds_many inlines this solve: C^H = C^S + min, xi* = argmin.
        rng = np.random.default_rng(35)
        for _ in range(500):
            m, w = random_generic_pair(rng)
            fb = fisher_bundle(m)
            rep = holevo_bound(fb, w)
            p, root = fb.perp_quadratic, np.sqrt(w.det)
            value, xi = quadratic_abs_min(
                p * w.matrix, root * fb.radial, -fb.one_minus_s_sq * root * fb.triple_product / p
            )
            assert abs(rep.c_s + value - rep.c_h) <= 1e-12 * rep.c_h
            np.testing.assert_allclose(xi, rep.xi_star, rtol=1e-12, atol=1e-12)


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
            m = random_model_point(rng)
            fb = fisher_bundle(m)
            w = random_weight(rng)
            rep = holevo_bound(fb, w)
            unified = holevo_bound_unified(fb, w)
            assert unified == pytest.approx(rep.c_h, rel=1e-10)
            if rep.branch is Branch.CORRECTION:
                seen_correction += 1
                alt = holevo_bound_correction_form(m, w)
                assert alt == pytest.approx(rep.c_h, rel=1e-10)
        assert seen_correction > 20

    def test_minimizer_reproduces_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            m = random_model_point(rng)
            w = random_weight(rng)
            rep = holevo_bound(fisher_bundle(m), w)
            value = holevo_objective_xi(m, w, rep.xi_star)
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


class TestMinimizingOffset:
    def test_zero_for_d_invariant(self):
        fb = bundle([0, 0, 0.5])
        assert np.allclose(holevo_bound(fb, IDENTITY).xi_star, 0.0)

    def test_small_offset_formula(self):
        rng = np.random.default_rng(39)
        found = 0
        for _ in range(300):
            m = random_model_point(rng)
            fb = fisher_bundle(m)
            w = random_weight(rng)
            a, b, c = reduction_coefficients(m, w)
            a_inv = invert_2x2(a)
            alpha = float(b @ a_inv @ b)
            if alpha <= 0.0 or abs(c) >= alpha:
                continue
            found += 1
            expected = -(c / alpha) * (a_inv @ b)
            assert np.allclose(holevo_bound(fb, w).xi_star, expected)
        assert found > 20


class TestWeightRegions:
    def test_d_invariant_never_w_minus(self):
        rng = np.random.default_rng(40)
        fb = bundle([0, 0, 0.5])
        for _ in range(100):
            branch = holevo_bound(fb, random_weight(rng)).branch
            assert branch is not Branch.CORRECTION

    def test_planar_never_w_plus(self):
        rng = np.random.default_rng(41)
        fb = bundle([0.3, 0.2, 0.0])
        for _ in range(100):
            branch = holevo_bound(fb, random_weight(rng)).branch
            assert branch is not Branch.RLD

    def test_boundary_family_circle(self):
        rng = np.random.default_rng(42)
        fb = bundle([0.25, 0.35, 0.4])
        for _ in range(100):
            phi = 2 * np.pi * rng.random()
            w_par, w2 = np.cos(phi), abs(np.sin(phi))
            if w2 < 1e-3 or abs(w_par) > 0.999:
                continue
            w = boundary_weight_family(fb, w_par, w2, c=0.5 + rng.random())
            rep = holevo_bound(fb, w)
            tau = BOUNDARY_RTOL * (abs(rep.c_z) + abs(rep.c_s))
            assert abs(rep.b_value) <= tau

    def test_family_interior_and_exterior(self):
        rng = np.random.default_rng(43)
        fb = bundle([0.25, 0.35, 0.4])
        for _ in range(100):
            phi = 2 * np.pi * rng.random()
            w_par, w2 = 0.9 * np.cos(phi), max(0.05, 0.9 * abs(np.sin(phi)))
            inner = boundary_weight_family(fb, w_par, w2)
            assert holevo_bound(fb, inner).branch is Branch.RLD
            scale = 1.3 / np.hypot(w_par, w2)
            w_out, w2_out = w_par * scale, w2 * scale
            if abs(w_out) >= 0.999:
                continue
            outer = boundary_weight_family(fb, w_out, w2_out)
            assert holevo_bound(fb, outer).branch is Branch.CORRECTION

    def test_chain_without_slack_at_the_band_edge(self):
        # Just outside the BOUNDARY_RTOL band C^H - C^R = B^2 p/q is below one
        # ulp of C^H, and on both sides of it the chain must hold exactly.
        rng = np.random.default_rng(49)
        for _ in range(300):
            fb = fisher_bundle(random_model_point(rng))
            for _ in range(6):
                phi = rng.uniform(0.05, np.pi - 0.05)
                rho = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10, -6)
                w = boundary_weight_family(fb, rho * np.cos(phi), rho * np.sin(phi))
                rep = holevo_bound(fb, w)
                assert max(rep.c_s, rep.c_r) <= rep.c_h <= rep.c_z

    # NaN fails every comparison, so each guard is written as "not > 0".
    @pytest.mark.parametrize("w2, c, message", [
        (np.nan, 1.0, "require w2 > 0"),
        (0.0, 1.0, "require w2 > 0"),
        (0.5, np.nan, "require scale c > 0"),
        (0.5, 0.0, "require scale c > 0"),
    ], ids=["w2_nan", "w2_zero", "c_nan", "c_zero"])
    def test_family_refuses_a_parameter_that_is_not_positive(self, w2, c, message):
        fb = bundle([0.25, 0.35, 0.4])
        with pytest.raises(DomainError, match=f"^{message}$"):
            boundary_weight_family(fb, 0.3, w2, c=c)

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

    def test_alpha_theta_invariant_under_derivative_scale(self):
        # alpha = (1-s^2)|k|/|r|^2 does not change under d_i s -> lambda d_i s,
        # and neither may the special-model guards in front of it.
        expected = (1.0 - 0.29) * 0.4 / 0.13
        for lam in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            fb = bundle([0.3, 0.2, 0.4], d1=lam * XHAT, d2=lam * YHAT)
            assert alpha_theta(fb) == pytest.approx(expected, rel=1e-12)


class TestSmoothnessAcrossTheBoundary:
    """C^H is C^1 and not C^2 across B[W] = 0: on the correction side it adds
    B^2 / (C^Z - C^R) to C^R, whose value and slope vanish with B, and whose
    second derivative along a path jumps by 2 (B')^2 / (C^Z - C^R)."""

    STEPS = np.array([1e-3, 1e-4, 1e-5])

    @staticmethod
    def _points():
        rng = np.random.default_rng(20)
        return [GenericZ(0.2).evaluate((0.2447, 0.2447)),
                *(random_model_point(rng) for _ in range(5))]

    def _walks(self):
        # Rays of the boundary family through the circle w^2 + w2^2 = 1, where
        # B = 0: radius 1 + k h for k = -2..2, one row per step h.
        for m in self._points():
            fb = fisher_bundle(m)
            for phi in (0.7, 2.1):
                rho = 1.0 + self.STEPS[:, None] * np.arange(-2, 3)
                rep = holevo_bounds_many(fb, boundary_weight_family(
                    fb, rho * np.cos(phi), rho * np.sin(phi)))
                assert (rep.branch[:, :2] == Branch.RLD.value).all()
                assert (rep.branch[:, 3:] == Branch.CORRECTION.value).all()
                yield rep

    def test_first_difference_jump_shrinks_with_the_step(self):
        for rep in self._walks():
            f = rep.c_h
            jump = ((f[:, 3] - f[:, 2]) - (f[:, 2] - f[:, 1])) / self.STEPS
            assert np.all(np.abs(jump[:-1] / jump[1:] - 10.0) < 1.0), jump

    def test_second_difference_jump_is_twice_the_squared_slope_of_b_over_the_gap(self):
        h = self.STEPS[1]
        for rep in self._walks():
            f, b = rep.c_h[1], rep.b_value[1]
            jump = ((f[4] - 2.0 * f[3] + f[2]) - (f[2] - 2.0 * f[1] + f[0])) / h**2
            slope = (b[3] - b[1]) / (2.0 * h)
            assert jump == pytest.approx(2.0 * slope**2 / (rep.c_z[1, 2] - rep.c_r[1, 2]),
                                         rel=1e-2)

    # A weight_from_angles grid: 9 eigenvalue splits by 9 orientations.
    GRID = weight_from_angles(*np.meshgrid(np.linspace(-0.9, 0.9, 9), np.linspace(0.0, 3.0, 9)))

    def test_no_seam_where_r_or_k_is_exactly_zero(self):
        # r = 0 (D-invariant): C^H = C^R for every weight.  k = 0 (asymptotically
        # classical): C^H = C^S.  The boundary family is empty on both.
        cases = [(GenericZ(0.2).evaluate((0.0, 0.0)), "radial", "c_r")]
        cases += [(Planar(u1=XHAT, u2=YHAT).evaluate(theta), "triple_product", "c_s")
                  for theta in ((0.3, -0.2), (-0.5, 0.6), (0.1, 0.05))]
        for m, zero, same in cases:
            fb = fisher_bundle(m)
            assert not np.any(getattr(fb, zero))
            rep = holevo_bounds_many(fb, self.GRID)
            assert rep.c_h.tobytes() == getattr(rep, same).tobytes()
            with pytest.raises(SpecialModelError):
                boundary_weight_family(fb, 0.5, 0.5)

    def test_no_seam_where_r_or_k_rounds_to_nearly_zero(self):
        rng = np.random.default_rng(21)
        for sampler, same in ((random_d_invariant_point, "c_r"), (random_planar_point, "c_s")):
            for _ in range(10):
                fb = fisher_bundle(sampler(rng))
                rep = holevo_bounds_many(fb, self.GRID)
                ref = getattr(rep, same)
                assert np.all(np.abs(rep.c_h - ref) <= 4.0 * np.spacing(ref))
                with pytest.raises(SpecialModelError):
                    boundary_weight_family(fb, 0.5, 0.5)


class TestReparametrization:
    def test_bounds_are_covariant(self):
        # C(D A, W) = C(D, A^-T W A^-1) for derivatives D = (d1s, d2s) and an
        # invertible A, on the same branch.  Forming A^-T W A^-1 in floats
        # costs about u cond(A)^2.
        u = np.finfo(float).eps / 2
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            n = 2000
            direction = rng.standard_normal((n, 3))
            s = (0.95 * rng.random((n, 1)) ** (1 / 3) * direction
                 / np.linalg.norm(direction, axis=1, keepdims=True))
            d = rng.standard_normal((n, 3, 2))
            angles = rng.uniform(0, np.pi, (2, n))
            cos, sin = np.cos(angles), np.sin(angles)
            cond = 10.0 ** rng.uniform(0, 3, n)
            a = (np.stack([cos[0], -sin[0], sin[0], cos[0]], -1).reshape(n, 2, 2)
                 * np.stack([np.ones(n), 1 / cond], -1)[:, None, :]
                 @ np.stack([cos[1], sin[1], -sin[1], cos[1]], -1).reshape(n, 2, 2))
            a[rng.random(n) < 0.5, :, 0] *= -1.0  # reverse the orientation of half
            m = rng.standard_normal((n, 2, 2))
            w = m.swapaxes(1, 2) @ m
            w += 0.05 * np.trace(w, axis1=1, axis2=2)[:, None, None] * np.eye(2)
            a_inv = np.linalg.inv(a)
            da = d @ a
            moved = holevo_bounds_many(fisher_bundle_many(s, da[..., 0], da[..., 1]),
                                       WeightMatrix.from_matrix(w))
            pulled = holevo_bounds_many(fisher_bundle_many(s, d[..., 0], d[..., 1]),
                                        WeightMatrix.from_matrix(a_inv.swapaxes(1, 2) @ w @ a_inv))
            assert (moved.branch == pulled.branch).all()
            for name in ("c_s", "c_r", "c_z", "c_n", "c_h"):
                x, y = getattr(moved, name), getattr(pulled, name)
                assert np.all(np.abs(x - y) <= 32.0 * u * (1.0 + cond**2) * y), name


class TestNearShell:
    """Closed forms against the exact rational reference as |s| -> 1."""

    W = WeightMatrix(1.25, 0.5, 1.0)  # det W = 1
    DELTAS = [10.0**-e for e in range(2, 12)]  # 1 - |s|

    def points(self, delta, rng):
        for _ in range(6):
            u = rng.normal(size=3)
            s = (1.0 - delta) * u / np.linalg.norm(u)
            yield BlochModelPoint(s=s, d1s=rng.normal(size=3), d2s=rng.normal(size=3))
        family = Unitary(radius=1.0 - delta)
        for _ in range(4):
            yield family.evaluate((rng.uniform(0.3, 2.8), rng.uniform(0.0, 6.2)))

    def test_chain_and_exact_reference(self):
        u = 2.0**-53
        rng = np.random.default_rng(48)
        branches = set()
        for delta in self.DELTAS:
            for m in self.points(delta, rng):
                rep = holevo_bound(fisher_bundle(m), self.W)
                assert max(rep.c_s, rep.c_r) <= rep.c_h <= rep.c_z
                exact = exact_bounds(m, self.W)

                def rel(value, ref):
                    return float(abs(Fraction(value) - ref) / ref)

                rld_tol = 10.0 * u / (1.0 - m.s_squared)
                c_s, c_r, c_z, c_h = exact
                assert rel(rep.c_s, c_s) <= 1e-12
                assert rel(rep.c_z, c_z) <= 1e-12
                assert rel(rep.c_r, c_r) <= rld_tol
                h_tol = 1e-12 if rep.branch is Branch.CORRECTION else rld_tol
                assert rel(rep.c_h, c_h) <= h_tol
                branches.add(rep.branch)
        assert branches == {Branch.RLD, Branch.CORRECTION}


class TestExactBranchSign:
    """The exact sign of B[W] on the float inputs, against the kernel's label."""

    def test_agrees_with_every_decided_label(self):
        rng = np.random.default_rng(28)
        signs = {Branch.RLD: 1, Branch.CORRECTION: -1}
        decided = set()
        for _ in range(300):
            m, w = random_generic_pair(rng)
            branch = holevo_bound(fisher_bundle(m), w).branch
            if branch is not Branch.BOUNDARY:
                assert exact_branch_sign(m, w) == signs[branch]
                decided.add(branch)
        assert decided == {Branch.RLD, Branch.CORRECTION}

    def test_near_shell_reproduction_point(self):
        # 1 - |s| ~ 1e-9: the exact B is -1.69e-17 (W-), where the float kernel
        # labels the cell rld with b_theta +2.31e-17.  Only the reference is pinned.
        s = [0.897826840640418, -0.42170189587498647, 0.12678514597967627]
        d1 = [-0.46330757653841514, 0.12726841122583082, -1.18719452785014]
        d2 = [-0.5793015965026732, -0.1961959728044967, 0.8987638721004078]
        family = Explicit([[[s_k, d2_k], [d1_k, 0.0]] for s_k, d1_k, d2_k in zip(s, d1, d2)])
        m = family.evaluate((0.0, 0.0))
        w = WeightMatrix(0.7861722648825379, 0.41000662776594043, 0.213827735117462)
        assert exact_branch_sign(m, w) == -1


class TestChainAtNearlySingularWeight:
    """q = (r | adj W r) is a PSD form that can round below zero when W's large
    eigenvector is nearly along r; the chain must still hold with no slack."""

    def test_reproduction_point(self):
        # Unclamped, q rounds to -1.39e-17 here and C^H = C^R lands 3.5e-9 above C^Z.
        m = BlochModelPoint(
            s=[0.897826840640418, -0.42170189587498647, 0.12678514597967627],
            d1s=[-0.46330757653841514, 0.12726841122583082, -1.18719452785014],
            d2s=[-0.5793015965026732, -0.1961959728044967, 0.8987638721004078],
        )
        w = WeightMatrix(0.7861722648825379, 0.41000662776594043, 0.213827735117462)
        rep = holevo_bound(fisher_bundle(m), w)
        assert max(rep.c_s, rep.c_r) <= rep.c_h <= rep.c_z

    def test_weights_aligned_with_the_radial_vector(self):
        # W = u u^T + 1e-16 v v^T (cond 1e16), u = r/|r| rotated by ~1e-9, v = u rotated by 90°.
        rng = np.random.default_rng(1)
        points = [random_model_point(rng) for _ in range(6000)]
        fb = fisher_bundle_many(*(np.array([getattr(m, f) for m in points])
                                  for f in ("s", "d1s", "d2s")))
        angle = np.arctan2(fb.radial[:, 1], fb.radial[:, 0]) + 1e-9 * rng.standard_normal(6000)
        u = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        v = np.stack([-u[:, 1], u[:, 0]], axis=-1)
        w = WeightMatrix.from_matrix(u[:, :, None] * u[:, None, :]
                                     + 1e-16 * v[:, :, None] * v[:, None, :])
        rep = holevo_bounds_many(fb, w)
        # Written as <= so that a NaN cell fails too.
        assert np.all((np.maximum(rep.c_s, rep.c_r) <= rep.c_h) & (rep.c_h <= rep.c_z))


U = 2.0**-53
BOUND_NAMES = ("c_s", "c_r", "c_z", "c_h")


def documented_error(fb, w):
    """Relative error of each bound by the error model of ``holevo2q.bounds``:
    eps = 1 - s.s carries u/(1-|s|^2) into C^R; q = (r | adj W r) carries
    u (a + 2 sqrt(det W)|k|)/q into C^S and C^Z (no bound where q rounds to
    <= 0); det W carries u cond(W) into the 2 sqrt(det W)|k| share of C^R and
    C^Z.  C^H is built from C^R and q on either side of B = 0, so it carries all three."""
    (g11, g12), (_, g22) = fb.gram
    r1, r2 = fb.radial
    a = w.w11 * g22 - 2.0 * w.w12 * g12 + w.w22 * g11
    q = w.w11 * r2 * r2 - 2.0 * w.w12 * r1 * r2 + w.w22 * r1 * r1
    root_k = 2.0 * np.sqrt(w.det) * abs(fb.triple_product)
    shell = U / fb.one_minus_s_sq
    radial = U * (a + root_k) / q if q > 0.0 else np.inf
    weight = U * (w.w11 + w.w22) ** 2 / w.det * root_k / (a + root_k)  # (tr W)^2/det W >= cond W
    return {"c_s": radial, "c_r": shell + weight, "c_z": radial + weight,
            "c_h": shell + radial + weight}


def relative_errors(m, fb, w):
    """{bound: |kernel - exact_bounds| / exact_bounds} at (m, w); ``fb`` is m's bundle."""
    rep = holevo_bound(fb, w)
    return {name: float(abs(Fraction(getattr(rep, name)) - ref) / ref)
            for name, ref in zip(BOUND_NAMES, exact_bounds(m, w))}


def near_shell_cells(delta):
    """(m, bundle, W, report) at 1 - |s| = delta: 8 seeded points (the same
    directions and derivatives at every delta), 8 boundary-family weights each.
    Near the shell the family's W is nearly singular and ``WeightMatrix``
    refuses some of them (ROADMAP item 13); those cells are left out."""
    rng = np.random.default_rng(2)
    cells = []
    for _ in range(8):
        direction = rng.normal(size=3)
        m = BlochModelPoint(s=(1.0 - delta) * direction / np.linalg.norm(direction),
                            d1s=rng.normal(size=3), d2s=rng.normal(size=3))
        fb = fisher_bundle(m)
        for w_par, w2 in zip(rng.uniform(-0.95, 0.95, 8), rng.uniform(0.05, 1.5, 8)):
            try:
                w = boundary_weight_family(fb, w_par, w2)
            except DomainError:
                continue
            cells.append((m, fb, w, holevo_bound(fb, w)))
    return cells


def cross_product_error(m):
    """Relative error that n = d1s x d2s carries, u |d1s||d2s|/|n|: its
    components cancel where the derivatives are nearly dependent, and k, |n|^2
    and p, so every bound, inherit it."""
    norm = np.linalg.norm
    return U * norm(m.d1s) * norm(m.d2s) / norm(np.cross(m.d1s, m.d2s))


def perturbed_cells(rng, perturb, count):
    """(m, bundle, W): ``count`` seeded ``random_weight`` cells at the points
    ``perturb(rng)`` draws (the library refuses none of the seeded ones)."""
    cells = []
    for _ in range(count):
        m = perturb(rng)
        cells.append((m, fisher_bundle(m), random_weight(rng)))
    return cells


def assert_within_model_and_n_term(cells):
    for m, fb, w in cells:
        model, n_term = documented_error(fb, w), cross_product_error(m)
        for name, err in relative_errors(m, fb, w).items():
            assert err <= 8.0 * (U + model[name] + n_term), (name, err, model[name], n_term)


def wrong_labels(cells) -> int:
    """Cells labelled rld or correction whose label is not ``exact_branch_sign``'s."""
    signs = {Branch.RLD: 1, Branch.CORRECTION: -1}
    return sum(exact_branch_sign(m, w) != signs[rep.branch]
               for m, _, w, rep in cells if rep.branch in signs)


class TestExactReferenceAtAnyWeight:
    """The kernel against ``exact_bounds`` at ill-conditioned weights, near
    the shell and at nearly dependent or nearly tangent derivatives, within 8
    times the documented error model, plus n's rounding for the last two (the
    measured worst is below a quarter of that)."""

    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10, 1e13, 1e16])
    def test_ill_conditioned_weights(self, cond):
        # W = e e^T + v v^T / cond, e at a random angle or along r rotated by ~1e-9
        # (TestChainAtNearlySingularWeight's construction), v = e rotated by 90°.
        rng = np.random.default_rng(int(np.log10(cond)))
        for aligned in (False, True):
            for _ in range(8):
                m = random_model_point(rng)
                fb = fisher_bundle(m)
                angle = (np.arctan2(fb.radial[1], fb.radial[0]) + 1e-9 * rng.standard_normal()
                         if aligned else rng.uniform(0.0, np.pi))
                e = np.array([np.cos(angle), np.sin(angle)])
                v = np.array([-e[1], e[0]])
                w = WeightMatrix.from_matrix(np.outer(e, e) + np.outer(v, v) / cond)
                model = documented_error(fb, w)
                for name, err in relative_errors(m, fb, w).items():
                    assert err <= 8.0 * (U + model[name]), (name, err, model[name])

    @pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-9])
    def test_near_shell_boundary_weights(self, delta):
        cells = near_shell_cells(delta)
        assert cells
        for m, fb, w, _ in cells:
            model = documented_error(fb, w)
            for name, err in relative_errors(m, fb, w).items():
                assert err <= 8.0 * (U + model[name]), (name, err, model[name])
        if delta == 1e-2:
            assert wrong_labels(cells) == 0

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_nearly_dependent_derivatives(self, delta):
        # d2s = d1s + delta |d1s| v, v a random unit vector: n cancels, and the
        # documented model alone misses by up to 132, 6.7e3 and 4.8e5 times.
        def perturb(rng):
            m = random_model_point(rng)
            d2 = m.d1s + delta * np.linalg.norm(m.d1s) * random_unit_vector(rng)
            return BlochModelPoint(m.s, m.d1s, d2)

        assert_within_model_and_n_term(
            perturbed_cells(np.random.default_rng(int(-np.log10(delta))), perturb, 32))

    def test_nearly_tangent_derivatives(self):
        # D-invariant points with each d_i tilted by eps g_i s (g_i standard
        # normal), as random_generic_pair tilts them.  n's term shows without
        # forced dependence where the sampler's |n| is near 1e-2 |d1s||d2s|:
        # seed 30 holds a cell (|s| = 0.87, n term 72u) whose C^R error is 47u
        # and 65u at eps = 1e-4 and 1e-6, 9.3 and 12.9 times the model alone.
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            def perturb(rng):
                m = random_d_invariant_point(rng)
                d1, d2 = (d + eps * rng.standard_normal() * m.s for d in (m.d1s, m.d2s))
                return BlochModelPoint(m.s, d1, d2)

            assert_within_model_and_n_term(perturbed_cells(np.random.default_rng(30), perturb, 24))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
    def test_near_shell_labels_are_exact(self):
        assert [wrong_labels(near_shell_cells(delta)) for delta in (1e-6, 1e-9)] == [0, 0]


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


def _assert_finite_and_positive(rep):
    bounds_ = np.array([rep.c_s, rep.c_r, rep.c_z, rep.c_n, rep.c_h])
    assert np.isfinite(bounds_).all() and (bounds_ > 0.0).all()
    assert np.isfinite([rep.s_correction, rep.b_value]).all() and np.isfinite(rep.xi_star).all()


def _stacks(points):
    return [np.array([getattr(m, f) for m in points]) for f in ("s", "d1s", "d2s")]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # refused without a numpy warning
class TestReportContract:
    """The library returns a report whose fields are all finite and whose five
    bounds are all > 0, or raises DomainError where the report is made."""

    # Five bounds near 5e59, but xi* = [-inf, inf]: p underflows to 1.2e-319.
    XI_POINT = BlochModelPoint(
        s=[-0.5022865205058039, 0.5841968824933482, 0.17878678018684607],
        d1s=[1.2323103991921598e-80, 1.3992733328538627e-80, -3.210361832582837e-81],
        d2s=[2.3759246799245464e-80, -1.9081109791548734e-81, 1.0334887124089505e-80],
    )
    XI_WEIGHT = (3.2010135983716305e-101, 4.038173582520873e-101, 3.293273107433739e-100)

    def test_huge_derivatives_are_refused(self):
        # The seeded generic pairs at W = I, derivatives x 1e80: 43 of 100 c_h
        # came back NaN, with no error, before the Bloch scalars were checked.
        rng = np.random.default_rng(3)
        points = [random_generic_pair(rng)[0] for _ in range(100)]
        s, d1, d2 = _stacks(points)
        with pytest.raises(DomainError, match="^derivatives overflow in floats$"):
            holevo_bounds_many(fisher_bundle_many(s, 1e80 * d1, 1e80 * d2), IDENTITY)
        for m in points:
            with pytest.raises(DomainError):
                holevo_bound(fisher_bundle(BlochModelPoint(m.s, 1e80 * m.d1s, 1e80 * m.d2s)),
                             IDENTITY)

    def test_infinite_offset_is_refused(self):
        w = WeightMatrix(*self.XI_WEIGHT)
        with pytest.raises(DomainError, match=r"^xi_star is not finite \(-inf\)$"):
            holevo_bound(fisher_bundle(self.XI_POINT), w)
        # In a stack, behind a valid cell.
        points = [BlochModelPoint([0.1, 0.2, 0.3], XHAT, YHAT), self.XI_POINT]
        with pytest.raises(DomainError, match=r"^xi_star is not finite \(-inf\)$") as info:
            holevo_bounds_many(fisher_bundle_many(*_stacks(points)), w)
        assert info.value.index == 1

    def test_zero_bound_is_refused(self):
        # Bundles built by hand, with a zero Gram matrix: C^S = 0.
        fb = FisherBundle(np.zeros((2, 2)), np.zeros(2), 0.0, 1.0, np.zeros(2), 0.5, True, True)
        with pytest.raises(DomainError, match=r"^c_s is not positive \(0.0\)$"):
            holevo_bound(fb, IDENTITY)
        # In a stack, behind a valid cell.
        valid = bundle(np.array([0.1, 0.2, 0.3]))
        fb = FisherBundle(np.array([valid.gram, np.zeros((2, 2))]),
                          np.array([valid.radial, np.zeros(2)]),
                          *(np.array([getattr(valid, f), getattr(fb, f)]) for f in
                            ("triple_product", "perp_quadratic", "gamma", "one_minus_s_sq",
                             "d_invariant", "asymptotically_classical")))
        with pytest.raises(DomainError, match=r"^c_s is not positive \(0.0\)$") as info:
            holevo_bounds_many(fb, IDENTITY)
        assert info.value.index == 1

    def test_error_index_is_the_refused_cell(self):
        diagonal = np.array([1.0, 1e160, 1.0])
        weights = WeightMatrix(diagonal, np.zeros(3), diagonal)
        with pytest.raises(DomainError, match=r"^c_r is not finite \(inf\)$") as info:
            holevo_bounds_many(bundle(np.array([0.1, 0.2, 0.3])), weights)
        assert info.value.index == 1
        s, d1, d2 = np.full((3, 3), 0.2), np.array([XHAT] * 3), np.array([YHAT] * 3)
        d1[1] *= 1e80
        d2[1] *= 1e80
        with pytest.raises(DomainError, match="^derivatives overflow in floats$") as info:
            fisher_bundle_many(s, d1, d2)
        assert info.value.index == 1

    def test_first_cell_first(self):
        # Cell 0 fails only in its last field, cell 1 in c_r: cell 0 is named.
        points = [self.XI_POINT, BlochModelPoint([0.1, 0.2, 0.3], XHAT, YHAT)]
        fb = fisher_bundle_many(*_stacks(points))
        w11, w12, w22 = self.XI_WEIGHT
        weights = WeightMatrix(np.array([w11, 1e160]), np.array([w12, 0.0]),
                               np.array([w22, 1e160]))
        with pytest.raises(DomainError, match=r"^xi_star is not finite \(-inf\)$") as info:
            holevo_bounds_many(fb, weights)
        assert info.value.index == 0

    def test_scale_grid(self):
        # Derivatives x 10^k and W x 10^j over seeded generic pairs: each call,
        # on a stack of four cells or on the first, is refused or returns a valid report.
        rng = np.random.default_rng(12)
        outcomes = []
        for k in range(-170, 171, 20):
            for j in range(-300, 301, 50):
                pairs = [random_generic_pair(rng) for _ in range(4)]
                s, d1, d2 = _stacks([m for m, _ in pairs])
                weights = np.array([[10.0**j * getattr(w, f) for f in ("w11", "w12", "w22")]
                                    for _, w in pairs])
                m = pairs[0][0]
                calls = [lambda: holevo_bounds_many(fisher_bundle_many(s, 10.0**k * d1,
                                                                       10.0**k * d2),
                                                    WeightMatrix(*weights.T)),
                         lambda: holevo_bound(fisher_bundle(BlochModelPoint(
                             m.s, 10.0**k * m.d1s, 10.0**k * m.d2s)), WeightMatrix(*weights[0]))]
                for call in calls:
                    try:
                        rep = call()
                    except ModelError:
                        outcomes.append("refused")
                        continue
                    _assert_finite_and_positive(rep)
                    outcomes.append("returned")
        assert min(outcomes.count("refused"), outcomes.count("returned")) > 40, outcomes
