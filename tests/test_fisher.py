"""Fisher matrices, dual vectors, Z matrix and the structural identities,
read from their one producer ``fisher_matrices``; gamma from ``fisher_bundle``."""

import numpy as np
import pytest

from holevo2q import fisher
from holevo2q.bloch import (
    DERIVATIVE_INDEPENDENCE_RTOL,
    PURE_SHELL_TOL,
    BlochModelPoint,
)
from holevo2q.bounds import WeightMatrix, holevo_bound
from holevo2q.errors import (
    DegenerateModelError,
    DomainError,
    ModelError,
    PureStateError,
    SingularMatrixError,
)
from holevo2q.fisher import FisherBundle, fisher_bundle, fisher_bundle_many
from holevo2q.matrix_forms import (
    ell_perp,
    fisher_matrices,
    invert_2x2,
    q_inverse,
    sld_duals,
)
from holevo2q.sampling import random_model_point, random_weight
from reference import fisher_determinant_identities, one_param_bound

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])


def point(s, d1=XHAT, d2=YHAT):
    return BlochModelPoint(s=s, d1s=d1, d2s=d2)


def generic_z_point(theta1, theta2, theta0):
    return point([theta1, theta2, theta0])


class TestInvert2x2:
    def test_round_trip(self):
        m = np.array([[2.0, 1.0], [0.5, 3.0]])
        assert np.allclose(invert_2x2(m) @ m, np.eye(2))

    def test_complex(self):
        m = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
        assert np.allclose(invert_2x2(m) @ m, np.eye(2))

    def test_singular_raises(self):
        with pytest.raises(DegenerateModelError):
            invert_2x2(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_a_matrix_that_is_not_2x2(self):
        with pytest.raises(DomainError, match=r"expected a 2x2 matrix, got shape \(3, 3\)"):
            invert_2x2(np.eye(3))

    @pytest.mark.parametrize(
        "m, det",
        [
            (np.array([[1.0, 2.0], [2.0, 4.0]]), "0.000e+00"),
            (np.array([[1.0, 1.0j], [1.0j, -1.0]]), "0.000e+00+0.000e+00j"),
        ],
    )
    def test_singular_message_real_and_complex(self, m, det):
        message = f"2x2 matrix is singular beyond tolerance (det = {det})"
        for exc in (DegenerateModelError, SingularMatrixError):
            with pytest.raises(exc) as info:
                invert_2x2(m, exc=exc)
            assert type(info.value) is exc and str(info.value) == message

    def test_bits_of_adjugate_definition(self):
        # The adjugate over the determinant, both from numpy scalars.
        rng = np.random.default_rng(97)
        for k in range(200):
            m = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-5, 5)
            if k % 2:
                m = m + 1j * rng.normal(size=(2, 2))
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
            got = invert_2x2(m)
            assert got.dtype == m.dtype and got.tobytes() == (adj / det).tobytes()


class TestSldFisher:
    def test_orthogonal_derivatives_identity(self):
        assert np.allclose(fisher_matrices(point([0, 0, 0.5])).g, np.eye(2))

    def test_planar_inverse_formula(self):
        # s = (t1, t2, 0) with unit axis derivatives.
        for t1, t2 in [(0.3, 0.2), (0.6, 0.0), (-0.4, 0.5)]:
            g_inv = fisher_matrices(point([t1, t2, 0.0])).g_inv
            expected = np.array(
                [[1 - t1**2, -t1 * t2], [-t1 * t2, 1 - t2**2]]
            )
            assert np.abs(g_inv - expected).max() <= 1e-12

    def test_fixed_height_inverse_formula(self):
        t0 = 0.35
        for t1, t2 in [(0.3, 0.2), (0.1, -0.4)]:
            g_inv = fisher_matrices(generic_z_point(t1, t2, t0)).g_inv
            expected = np.array(
                [
                    [1 - t0**2 - t1**2, -t1 * t2],
                    [-t1 * t2, 1 - t0**2 - t2**2],
                ]
            ) / (1 - t0**2)
            assert np.abs(g_inv - expected).max() <= 1e-12

    def test_pure_guard(self):
        with pytest.raises(PureStateError):
            fisher_bundle(point([0, 0, 1.0]))

    def test_degenerate_guard(self):
        with pytest.raises(DegenerateModelError):
            fisher_bundle(point([0.1, 0.2, 0.3], d1=XHAT, d2=2.0 * XHAT))


class TestBundleShape:
    FIELDS = ("gram", "radial", "triple_product", "perp_quadratic", "gamma", "one_minus_s_sq",
              "d_invariant", "asymptotically_classical")

    def test_one_point_is_the_plain_row_of_a_stack(self):
        rng = np.random.default_rng(99)
        points = [random_model_point(rng) for _ in range(20)]
        stack = fisher_bundle_many(*(np.array([getattr(m, name) for m in points])
                                     for name in ("s", "d1s", "d2s")))
        assert stack._fields == self.FIELDS
        for i, m in enumerate(points):
            one = fisher_bundle(m)
            assert one._fields == stack._fields
            for name, got, row in zip(self.FIELDS, one._values(), stack._values()):
                if isinstance(got, np.ndarray):
                    assert got.tobytes() == row[i].tobytes(), name
                else:
                    assert type(got) is type(row[i].item()) and got == row[i], name

    def test_a_huge_s_is_refused_with_its_finite_norm(self):
        with pytest.raises(PureStateError, match=r"got \|s\| = 1e\+200$"):
            fisher_bundle_many([[1e200, 0.0, 0.0]], [XHAT], [YHAT])


class TestSldDuals:
    def test_bits_of_fisher_matrices(self):
        rng = np.random.default_rng(98)
        for _ in range(100):
            m = random_model_point(rng)
            fm = fisher_matrices(m)
            got = sld_duals(m)[1:]
            want = (fm.g, fm.g_inv, fm.dual1, fm.dual2)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_fisher_matrices_is_the_bundle_and_bounds_read_its_bits(self):
        def bits(report):
            return [np.asarray(getattr(report, name)).tobytes()
                    for name in report._fields if name != "branch"]

        rng = np.random.default_rng(99)
        for _ in range(100):
            m, w = random_model_point(rng), random_weight(rng)
            fm, fb = fisher_matrices(m), fisher_bundle(m)
            assert isinstance(fm, FisherBundle) and fm.point is m
            head = fm._values()[:len(FisherBundle._fields)]
            assert [type(v) for v in head] == [type(v) for v in fb._values()]
            assert FisherBundle(*head) == fb
            got, want = holevo_bound(fm, w), holevo_bound(fb, w)
            assert got.branch is want.branch and bits(got) == bits(want)

    @pytest.mark.parametrize("producer", [sld_duals, fisher_matrices])
    def test_one_guard_pass_per_call(self, producer, monkeypatch):
        calls = []
        original = fisher.bloch_scalars_many

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fisher, "bloch_scalars_many", counted)
        m = random_model_point(np.random.default_rng(100))
        producer(m)
        assert len(calls) == 1
        assert sld_duals(m)[0] == fisher_bundle_many(m.s, m.d1s, m.d2s)

    @pytest.mark.parametrize(
        "s, d2, exc, message",
        [
            ([0.0, 0.0, 1.0], YHAT, PureStateError, "requires |s|"),
            ([0.1, 0.2, 0.3], 2.0 * XHAT, DegenerateModelError, "linearly dependent"),
            # Independent, but G is numerically singular.
            ([0.1, 0.2, 0.3], [1.0, 1e-9, 0.0], DegenerateModelError, "Fisher matrix is singular"),
        ],
    )
    def test_guards_of_fisher_bundle(self, s, d2, exc, message):
        m = point(s, XHAT, d2)
        with pytest.raises(exc) as want:
            fisher_bundle(m)
        for producer in (sld_duals, fisher_matrices):
            with pytest.raises(exc) as got:
                producer(m)
            assert type(got.value) is type(want.value)
            assert message in str(got.value) and str(got.value) == str(want.value)


def _outcome(producer, m):
    try:
        producer(m)
    except ModelError as exc:
        return type(exc), str(exc)
    return None


def _unit(v):
    return v / np.linalg.norm(v)


def _guard_table(rng):
    """Points on each side of the three guards: |s| within 6 ulps of
    1 - PURE_SHELL_TOL, |d1 x d2| within 1e-3 (relative) of
    DERIVATIVE_INDEPENDENCE_RTOL |d1||d2|, and a relative angle of about
    1e-7 between d1 and d2, where det G crosses SINGULAR_RTOL ||G||^2."""
    groups = {"near_shell": [], "near_dependent": [], "near_singular": []}
    for _ in range(4):
        u, d1, d2 = _unit(rng.normal(size=3)), rng.normal(size=3), rng.normal(size=3)
        e = _unit(np.cross(d1, rng.normal(size=3)))
        r = 1.0 - PURE_SHELL_TOL
        groups["near_shell"] += [((r + k * np.spacing(r)) * u, d1, d2) for k in range(-6, 7)]
        for delta in (-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3):
            beta = DERIVATIVE_INDEPENDENCE_RTOL * (1.0 + delta) * np.linalg.norm(d1)
            groups["near_dependent"].append((0.5 * u, d1, d1 + beta * e))
        for k in range(-8, 9):
            t = 1e-7 * 2.0 ** (k / 4)
            groups["near_singular"].append((0.5 * u, d1, d1 + t * np.linalg.norm(d1) * e))
    return groups


class TestAdmitOnlyGuard:
    """``sld_duals(m)`` is guarded by the ``fisher_bundle_many`` pass it returns
    alone: it accepts the same points as ``fisher_bundle`` and raises the
    same class and message at the edge of every guard."""

    @pytest.mark.parametrize("group", ["near_shell", "near_dependent", "near_singular"])
    def test_same_verdicts_as_fisher_bundle(self, group):
        verdicts = set()
        for s, d1, d2 in _guard_table(np.random.default_rng(97))[group]:
            m = BlochModelPoint(s=s, d1s=d1, d2s=d2)
            want = _outcome(fisher_bundle, m)
            assert _outcome(sld_duals, m) == want
            verdicts.add(want if want is None else want[1].split(",")[0])
        # Each group straddles its guard: two verdicts, accepted or raised.
        assert len(verdicts) == 2, verdicts


class TestRldFisher:
    def test_fixed_height_inverse_formula(self):
        t0, t1, t2 = 0.35, 0.3, 0.2
        m = generic_z_point(t1, t2, t0)
        gt_inv = fisher_matrices(m).g_tilde_inv
        s_sq = t1**2 + t2**2 + t0**2
        expected = (1 - s_sq) / (1 - t0**2) * np.array(
            [[1.0, -1.0j * t0], [1.0j * t0, 1.0]]
        )
        assert np.abs(gt_inv - expected).max() <= 1e-12

    def test_real_at_origin(self):
        fm = fisher_matrices(point([0, 0, 0]))
        assert np.abs(fm.g_tilde.imag).max() <= 1e-15
        assert np.allclose(fm.g_tilde.real, fm.g)

    def test_determinant_chain(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = random_model_point(rng, radius=0.99)
            fm = fisher_matrices(m)
            det_g = np.linalg.det(fm.g)
            det_gt = np.linalg.det(fm.g_tilde).real
            assert abs((1 - m.s_squared) * det_gt - det_g) <= 1e-10 * abs(det_g)

    def test_rank_one_real_part_relation(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            m = random_model_point(rng)
            fm = fisher_matrices(m)
            gamma = fisher_bundle(m).gamma
            lhs = fm.g / (1 - m.s_squared) - fm.g_tilde.real
            expected = np.outer(gamma, gamma)
            assert np.abs(lhs - expected).max() <= 1e-10 * (1 + np.abs(fm.g).max())


class TestDualVectors:
    def test_identity_fisher_case(self):
        fm = fisher_matrices(point([0, 0, 0.5]))
        d1, d2 = fm.dual1, fm.dual2
        assert np.allclose(d1, XHAT) and np.allclose(d2, YHAT)

    def test_inverse_fisher_bilinear(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = random_model_point(rng)
            fm = fisher_matrices(m)
            qi = q_inverse(m)
            duals = (fm.dual1, fm.dual2)
            for i in range(2):
                for j in range(2):
                    val = duals[i] @ qi @ duals[j]
                    assert abs(val - fm.g_inv[i, j]) <= 1e-12 * (1 + abs(val))

    def test_cross_product_formulas(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            m = random_model_point(rng)
            fm = fisher_matrices(m)
            perp = ell_perp(m)
            qn = q_inverse(m) @ perp
            quad = perp @ qn
            d1_expected = -np.cross(qn, m.d2s) / quad
            d2_expected = np.cross(qn, m.d1s) / quad
            scale = max(np.abs(d1_expected).max(), np.abs(d2_expected).max())
            assert np.abs(fm.dual1 - d1_expected).max() <= 1e-10 * scale
            assert np.abs(fm.dual2 - d2_expected).max() <= 1e-10 * scale

    def test_rld_duals_pair_to_identity(self):
        rng = np.random.default_rng(25)
        from holevo2q.matrix_forms import q_tilde_inverse, rld_bloch_vectors

        for _ in range(100):
            m = random_model_point(rng)
            gt_inv = fisher_matrices(m).g_tilde_inv
            lt = rld_bloch_vectors(m)
            r1 = gt_inv[0, 0] * lt[0] + gt_inv[1, 0] * lt[1]
            r2 = gt_inv[0, 1] * lt[0] + gt_inv[1, 1] * lt[1]
            qti = q_tilde_inverse(m)
            for i, r in enumerate((r1, r2)):
                for j in range(2):
                    val = np.conj(r) @ qti @ lt[j]
                    assert abs(val - (1.0 if i == j else 0.0)) <= 1e-10


class TestZMatrix:
    def test_d_invariant_point_equals_rld_inverse(self):
        fm = fisher_matrices(point([0, 0, 0.5]))
        assert np.abs(fm.z - fm.g_tilde_inv).max() <= 1e-12

    def test_value_at_z_half(self):
        # Derived from the fixed-height inverse-RLD formula at theta = 0.
        z = fisher_matrices(point([0, 0, 0.5])).z
        expected = np.array([[1.0, -0.5j], [0.5j, 1.0]])
        assert np.abs(z - expected).max() <= 1e-12

    def test_planar_imaginary_part_vanishes(self):
        z = fisher_matrices(point([0.3, 0.2, 0.0])).z
        assert np.abs(z.imag).max() <= 1e-14

    def test_real_part_is_inverse_sld_fisher(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            m = random_model_point(rng)
            fm = fisher_matrices(m)
            assert np.abs(fm.z.real - fm.g_inv).max() <= 1e-10 * (
                1 + np.abs(fm.g_inv).max()
            )

    def test_imaginary_parts_exactly_antisymmetric(self):
        # G~ and Z are built from their upper triangles, so TrAbs never sees
        # a rounding residue on the diagonal of Im G~^-1 or Im Z.
        rng = np.random.default_rng(29)
        for _ in range(300):
            fm = fisher_matrices(random_model_point(rng))
            for mat in (fm.g_tilde, fm.g_tilde_inv, fm.z):
                im = mat.imag
                assert im[0, 0] == 0.0 and im[1, 1] == 0.0
                assert im[1, 0] == -im[0, 1]

    def test_imaginary_parts_agree(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            fm = fisher_matrices(random_model_point(rng))
            assert np.abs(fm.z.imag - fm.g_tilde_inv.imag).max() <= 1e-12 * (
                1 + np.abs(fm.z).max()
            )


class TestDeterminantIdentities:
    def test_random_points_small_residuals(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            m = random_model_point(rng)
            w = random_weight(rng)
            ids = fisher_determinant_identities(m, w)
            assert float(np.max(list(ids.values()))) <= 1e-10

    def test_d_invariant_third_identity_trivial(self):
        m = point([0, 0, 0.5])
        ids = fisher_determinant_identities(m, WeightMatrix.identity())
        assert ids["identity_gamma_gap"] <= 1e-14

    def test_origin_first_identity(self):
        m = point([0, 0, 0], d1=np.array([1.0, 0.2, 0.0]), d2=np.array([0.0, 1.0, 0.4]))
        perp = ell_perp(m)
        det_g = np.linalg.det(fisher_matrices(m).g)
        assert abs(perp @ perp - det_g) <= 1e-12 * abs(det_g)


class TestOneParamBound:
    def test_unit_fisher(self):
        assert one_param_bound([0, 0, 0], XHAT) == pytest.approx(1.0)

    def test_radial_direction(self):
        assert one_param_bound([0, 0, 0.5], [0, 0, 1.0]) == pytest.approx(0.75)

    def test_tangential_direction(self):
        assert one_param_bound([0.6, 0, 0], YHAT) == pytest.approx(1.0)
