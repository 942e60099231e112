"""Model classification and pure-limit operations."""

import numpy as np
import pytest

from holevo2q.bloch import CLASSIFICATION_RTOL, BlochModelPoint
from holevo2q.bounds import WeightMatrix, holevo_bound
from holevo2q.classify import (
    ModelClass,
    ModelLabel,
    classify_point,
    classify_rows,
)
from holevo2q.errors import (
    AsymptoticallyClassicalLimitError,
    DegenerateModelError,
    DomainError,
    ModelError,
    PureStateError,
)
from holevo2q.fisher import fisher_bundle
from holevo2q.matrix_forms import (
    fisher_matrices,
    pure_limit_duals,
    pure_limit_holevo,
)
from holevo2q.models import Explicit, GenericZ, Planar, Unitary
from holevo2q.sampling import (
    random_d_invariant_point,
    random_model_point,
)
from reference import random_planar_point

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])
FAMILIES = [
    GenericZ(0.35),
    Unitary(radius=0.8),
    Planar(u1=XHAT, u2=np.array([0.6, 0.8, 0.0]), f1=[[0.1, 0.2], [1.0, 0.3]]),
    Explicit([[[0.0, 0.1], [0.9, 0.0]], [[0.0, 0.8], [0.2, 0.0]], [[0.3, 0.1]]]),
]


def point(s, d1=XHAT, d2=YHAT):
    return BlochModelPoint(s=s, d1s=d1, d2s=d2)


class TestClassifyPoint:
    def test_overflowing_derivatives_are_refused(self):
        # |d1s x d2s|^2 = 1e320 overflows; the exact label is generic (k = 3e159),
        # which the float flags, reading k against an infinite |n|, got wrong.
        with pytest.raises(DomainError, match="^derivatives overflow in floats$"):
            classify_point(point(np.array([0.1, 0.2, 0.3]), 1e80 * XHAT, 1e80 * YHAT))

    def test_d_invariant(self):
        cls = classify_point(point([0, 0, 0.5]))
        assert cls.label is ModelLabel.D_INVARIANT
        assert cls.d_invariant

    def test_planar_asymptotically_classical(self):
        cls = classify_point(point([0.3, 0.2, 0.0]))
        assert cls.label is ModelLabel.ASYMPTOTICALLY_CLASSICAL
        assert cls.asymptotically_classical and not cls.d_invariant

    def test_fixed_height_generic(self):
        cls = classify_point(point([0.3, 0.2, 0.35]))
        assert cls.label is ModelLabel.GENERIC
        assert not cls.d_invariant and not cls.asymptotically_classical

    def test_single_axis_point_is_generic(self):
        # theta = (0.3, 0) with nonzero height: gamma != 0 and triple != 0.
        cls = classify_point(point([0.3, 0.0, 0.35]))
        assert cls.label is ModelLabel.GENERIC

    def test_origin_has_both_flags(self):
        cls = classify_point(point([0, 0, 0]))
        assert cls.d_invariant and cls.asymptotically_classical

    def test_dependent_derivatives_rejected(self):
        with pytest.raises(DegenerateModelError):
            classify_point(point([0.1, 0.2, 0.3], d1=XHAT, d2=-3.0 * XHAT))

    def test_gamma_and_rank_one_tests_agree(self):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            if rng.random() < 0.3:
                m = random_d_invariant_point(rng)
            else:
                m = random_model_point(rng)
            cls = classify_point(m)
            fm = fisher_matrices(m)
            diff = fm.g_inv - fm.g_tilde_inv.real
            rank_one_residual = np.abs(diff).max() / max(np.abs(fm.g_inv).max(), 1e-300)
            rank_one_says = rank_one_residual <= 1e-10
            assert cls.d_invariant == rank_one_says


def definition_gamma(m):
    return np.array([float(m.s @ m.d1s), float(m.s @ m.d2s)]) / (1.0 - m.s_squared)


def definition_flags(m):
    """The radial and triple-product tests written out with np.linalg.norm."""
    s_norm = np.linalg.norm(m.s)
    n = np.cross(m.d1s, m.d2s)
    triple = float(m.s @ n)
    d_invariant = all(
        abs(float(m.s @ d)) <= CLASSIFICATION_RTOL * s_norm * np.linalg.norm(d)
        for d in (m.d1s, m.d2s)
    )
    return d_invariant, abs(triple) <= CLASSIFICATION_RTOL * s_norm * np.linalg.norm(n), triple


class TestOneScalarPass:
    """classify_point and fisher_bundle read one scalar pass."""

    def special_points(self):
        fams = [
            (Unitary(radius=0.8), [(0.3, 0.0), (1.2, 2.0), (2.5, 5.0)]),
            (Planar(u1=XHAT, u2=YHAT), [(0.1, 0.2), (0.0, 0.0), (-0.4, 0.3)]),
            (GenericZ(0.35), [(0.0, 0.0), (0.3, 0.0), (0.0, 0.4), (0.2, -0.1)]),
        ]
        return [fam.evaluate(theta) for fam, thetas in fams for theta in thetas]

    def test_bundle_matches_classify_point(self):
        rng = np.random.default_rng(54)
        points = [random_model_point(rng) for _ in range(1000)]
        points += [random_d_invariant_point(rng) for _ in range(50)]
        points += [random_planar_point(rng) for _ in range(50)]
        points += self.special_points()
        labels = set()
        for m in points:
            fb = fisher_bundle(m)
            cls = classify_point(m)
            labels.add(cls.label)
            assert fb.d_invariant == cls.d_invariant
            assert fb.asymptotically_classical == cls.asymptotically_classical
            assert fb.triple_product == cls.triple_product
            assert fb.gamma.tobytes() == cls.gamma.tobytes()
            # ... and both equal the written-out definitions, bit for bit.
            assert (cls.d_invariant, cls.asymptotically_classical, cls.triple_product) == (
                definition_flags(m)
            )
            assert cls.gamma.tobytes() == definition_gamma(m).tobytes()
        assert labels == set(ModelLabel)

    def test_verdict_is_the_bundle_field_for_field(self):
        # At an invertible point classify_point is fisher_bundle's record, bit
        # for bit, and its label is the flags' rule: D-invariance wins.
        def bits(v):
            return v.tobytes() if isinstance(v, np.ndarray) else v.hex() if type(v) is float else v

        rng = np.random.default_rng(55)
        points = [random_model_point(rng) for _ in range(200)]
        points += [random_d_invariant_point(rng) for _ in range(20)]
        points += [random_planar_point(rng) for _ in range(20)]
        points += self.special_points()
        for m in points:
            fb, cls = fisher_bundle(m), classify_point(m)
            assert type(cls) is ModelClass and cls._fields == fb._fields
            for name, got, want in zip(fb._fields, cls._values(), fb._values()):
                assert type(got) is type(want) and bits(got) == bits(want), name
            d_invariant, classical, _ = definition_flags(m)
            assert cls.label is (ModelLabel.D_INVARIANT if d_invariant
                                 else ModelLabel.ASYMPTOTICALLY_CLASSICAL if classical
                                 else ModelLabel.GENERIC)

    def test_nearly_dependent_point_classified_not_bounded(self):
        # |d1 x d2| / (|d1||d2|) ~ 1e-9 passes the independence test
        # (DERIVATIVE_INDEPENDENCE_RTOL = 1e-10) but leaves G numerically singular.
        d2 = XHAT + 1e-9 * YHAT
        m = point([0.1, 0.2, 0.3], d1=XHAT, d2=d2)
        ratio = np.linalg.norm(np.cross(XHAT, d2)) / np.linalg.norm(d2)
        assert 0.5e-9 < ratio < 2e-9
        cls = classify_point(m)
        assert cls.label is ModelLabel.GENERIC
        with pytest.raises(DegenerateModelError, match="SLD Fisher matrix is singular"):
            fisher_bundle(m)


def assert_rows_are_point_verdicts(stack, points):
    """Row i of the stacked ModelClass has the bits of classify_point(points[i])."""
    assert len(stack.label) == len(points)
    for i, want in enumerate(map(classify_point, points)):
        assert (ModelLabel(stack.label[i]), stack.d_invariant[i],
                stack.asymptotically_classical[i]) == (
            want.label, want.d_invariant, want.asymptotically_classical)
        assert stack.gamma[i].tobytes() == want.gamma.tobytes()
        assert stack.triple_product[i].tobytes() == np.float64(want.triple_product).tobytes()


def grid_rows(fam, grid):
    """The (s, d1s, d2s) stacks of ``fam.evaluate_many`` over ``grid``, with no
    mask applied (``classify --grid`` passes only the usable rows)."""
    t1, t2 = np.array(grid, dtype=float).reshape(-1, 2).T
    return fam.evaluate_many(t1, t2)[:3]


class TestClassifyFamily:
    """``classify_rows`` over the rows of a family's ``evaluate_many`` grid."""

    def test_unitary_family_globally_d_invariant(self):
        fam = Unitary(radius=0.8)
        ts = np.linspace(0.3, 2.5, 7)
        grid = [(a, b) for a in ts for b in ts]
        assert classify_rows(*grid_rows(fam, grid)).d_invariant.all()

    def test_fixed_height_family_not_global(self):
        fam = GenericZ(0.35)
        grid = [(0.1, 0.2), (0.0, 0.0), (0.3, 0.1), (0.0, 0.4)]
        rows = classify_rows(*grid_rows(fam, grid))
        assert not rows.d_invariant.all()
        labels = rows.label
        assert labels[0] == ModelLabel.GENERIC.value
        assert labels[1] == ModelLabel.D_INVARIANT.value  # the origin
        assert labels[3] == ModelLabel.GENERIC.value  # single-axis point

    def test_empty_grid_is_a_domain_error(self):
        with pytest.raises(DomainError, match="empty"):
            classify_rows(*grid_rows(GenericZ(0.35), []))

    def test_planar_family_all_classical(self):
        fam = Planar(u1=XHAT, u2=YHAT)
        grid = [(0.1, 0.2), (0.3, -0.1), (-0.2, 0.4)]
        assert classify_rows(*grid_rows(fam, grid)).asymptotically_classical.all()

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.kind)
    def test_bit_identical_to_per_point_definition(self, fam):
        (lo1, hi1), (lo2, hi2) = fam.domain.theta1, fam.domain.theta2
        # The middle half of the domain, where every family is strictly mixed.
        axis1, axis2 = np.linspace(lo1, hi1, 9)[2:-2], np.linspace(lo2, hi2, 9)[2:-2]
        grid = [(a, b) for a in axis1 for b in axis2]
        points = [fam.evaluate(theta) for theta in grid]
        assert_rows_are_point_verdicts(classify_rows(*grid_rows(fam, grid)), points)

    def test_rows_are_one_stacked_verdict(self):
        # Interior points of every family kind: all three labels occur.
        points = [fam.evaluate((np.mean(fam.domain.theta1) + a, np.mean(fam.domain.theta2) + b))
                  for fam in FAMILIES for a in (0.0, 0.1) for b in (0.0, -0.2)]
        s, d1, d2 = (np.array([getattr(p, name) for p in points]) for name in ("s", "d1s", "d2s"))
        stack = classify_rows(s, d1, d2)
        assert type(stack) is ModelClass
        assert [len(v) for v in stack._values()] == [len(points)] * len(ModelClass._fields)
        assert set(stack.label.tolist()) == {label.value for label in ModelLabel}
        assert_rows_are_point_verdicts(stack, points)

    # A row that evaluate_many marks unusable (outside the domain, beyond the
    # shell, not finite) is one that classify --grid skips before classify_rows.
    @pytest.mark.parametrize("fam, bad", [
        (GenericZ(0.6), (0.8 - 2e-13, 0.0)),       # within PURE_SHELL_TOL of the shell
        (Planar(u1=XHAT, u2=YHAT, f1=[[0.0], [0.0], [1.0]]), (0.0, 0.2)),  # d1s = 0
    ], ids=["near_shell", "dependent"])
    def test_first_failing_point_raises_as_per_point(self, fam, bad):
        grid = [(0.1, 0.2), bad, (0.3, 0.1), (5.0, 5.0)]
        with pytest.raises(ModelError) as per_point:
            for theta in grid:
                classify_point(fam.evaluate(theta))
        with pytest.raises(ModelError) as rows:
            classify_rows(*grid_rows(fam, grid))
        assert type(rows.value) is type(per_point.value)
        assert str(rows.value) == str(per_point.value)
        assert rows.value.index == 1


class TestPureLimitDuals:
    def test_tangent_pure_point_finite(self):
        m = point([0, 0, 1.0])
        l1, l2, lt1, lt2 = pure_limit_duals(m)
        assert np.allclose(l1, XHAT) and np.allclose(l2, YHAT)
        assert np.allclose(lt1, XHAT) and np.allclose(lt2, YHAT)

    def test_planar_pure_limit_raises(self):
        m = point([1.0, 0.0, 0.0])  # s in the derivative plane, |s| = 1
        with pytest.raises(AsymptoticallyClassicalLimitError):
            pure_limit_duals(m)

    def test_scaled_sphere_sequence_converges_to_pure_value(self):
        # Shrinking a sphere-tangent configuration onto the shell must agree
        # with the direct pure-point evaluation.
        m_pure = point([0, 0, 1.0])
        l1_pure, l2_pure, _, _ = pure_limit_duals(m_pure)
        for k in (4, 6, 8):
            r = 1.0 - 10.0**-k
            m = point([0, 0, r], d1=r * XHAT, d2=r * YHAT)
            l1, l2, _, _ = pure_limit_duals(m)
            assert np.abs(l1 * r - l1_pure).max() <= 1e-9
            assert np.abs(l2 * r - l2_pure).max() <= 1e-9


class TestPureLimitHolevo:
    def test_tangent_pure_value(self):
        w = WeightMatrix.identity()
        value = pure_limit_holevo(point([0, 0, 1.0]), w)
        # Gram of the limiting duals is the identity; c = 1.
        assert value == pytest.approx(2.0 + 2.0, rel=1e-12)

    def test_d_invariant_sequence_converges(self):
        w = WeightMatrix(0.7, 0.1, 0.5)
        pure = pure_limit_holevo(point([0, 0, 1.0]), w)
        for k in (6, 8):
            r = 1.0 - 10.0**-k
            m = point([0, 0, r], d1=r * XHAT, d2=r * YHAT)
            mixed = holevo_bound(fisher_bundle(m), w).c_r
            assert abs(mixed - pure) / pure <= 10.0**-k * 20

    def test_classical_pure_limit_raises(self):
        with pytest.raises(AsymptoticallyClassicalLimitError):
            pure_limit_holevo(point([1.0, 0, 0]), WeightMatrix.identity())

    def test_slanted_pure_shell_rejected(self):
        # Derivatives not tangent at |s| = 1: not a valid pure-state model.
        s = np.array([0.6, 0.0, 0.8])
        with pytest.raises(PureStateError):
            pure_limit_holevo(point(s), WeightMatrix.identity())


class TestGammaDecaySequence:
    def test_correction_term_decays_to_zero_along_tangential_ray(self):
        # See the acceptance suite for the full criterion; spot check here.
        from holevo2q.bounds import holevo_bound

        w = WeightMatrix(1.0, 0.0, 1e-4)
        kappa_sq, p = 561.0, 1.1
        th_hat = np.array([1.0, 1.0]) / np.sqrt(2.0)
        values = []
        for k in range(2, 9):
            r = 1.0 - 10.0**-k
            u = 1.0 - r * r
            th = np.sqrt(kappa_sq) * u**p * th_hat
            t0 = np.sqrt(r * r - th @ th)
            m = point([th[0], th[1], t0])
            values.append(holevo_bound(fisher_bundle(m), w).s_correction)
        assert values[0] > 0.1
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] <= 1e-6
