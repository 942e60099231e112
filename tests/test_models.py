"""Model families: evaluation, derivatives, serialization round trips."""

import json

import numpy as np
import pytest

from holevo2q.bloch import BlochModelPoint, stack_last
from holevo2q.bounds import WeightMatrix
from holevo2q.classify import classify_point
from holevo2q.errors import DomainError, PureStateError
from holevo2q.models import (
    Domain,
    Explicit,
    GenericZ,
    Planar,
    Poly2D,
    Unitary,
    _poly_arrays,
    from_descriptor,
)
from reference import n_copy_bound

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])


class TestPoly2D:
    def test_evaluation(self):
        # f = 1 + 2 x + 3 y + 4 x y
        p = Poly2D([[1.0, 3.0], [2.0, 4.0]])
        assert p(0.5, 2.0) == pytest.approx(1 + 1 + 6 + 4)

    def test_partials(self):
        p = Poly2D([[0.0, 0.0], [1.0, 2.0]])  # x + 2 x y
        _, dx, dy = _poly_arrays([p], 0.3, 0.7)
        assert dx[0] == pytest.approx(1 + 2 * 0.7)
        assert dy[0] == pytest.approx(2 * 0.3)


class TestPolyArrays:
    POLYS = ([[0.0, 0.0], [1.0, 2.0]], [[0.3]], [[0.1, -0.4, 0.2]], [[0.2], [0.5], [-0.1]])

    @staticmethod
    def evaluated(c, x, y):
        """sum_ij c[i, j] x^i y^j from power tables of c's own size, as (x^T C) y."""
        xs = np.asarray(x, dtype=float)[..., None] ** np.arange(c.shape[0])
        ys = np.asarray(y, dtype=float)[..., None] ** np.arange(c.shape[1])
        return ((xs[..., None, :] @ c) @ ys[..., :, None])[..., 0, 0]

    @classmethod
    def rebuilt_each_call(cls, coeffs, t1, t2):
        """Each polynomial and its two derivative polynomials, each evaluated
        from power tables of its own size; the partial of a one-row or
        one-column polynomial is a one-row or one-column zero polynomial."""
        out = []
        for c in map(np.atleast_2d, coeffs):
            a, b = c.shape
            dx = c[1:, :] * np.arange(1, a)[:, None] if a > 1 else np.zeros((1, b))
            dy = c[:, 1:] * np.arange(1, b)[None, :] if b > 1 else np.zeros((a, 1))
            out.append([cls.evaluated(d, t1, t2) for d in (c, dx, dy)])
        return tuple(stack_last(list(f), 1) for f in zip(*out))

    def test_outputs_bit_equal_to_rebuilding(self):
        rng = np.random.default_rng(11)
        coeff_sets = [self.POLYS] + [
            [rng.standard_normal(tuple(rng.integers(1, 5, 2))) for _ in range(rng.integers(1, 5))]
            for _ in range(40)]
        for n in (1, 50):
            t1, t2 = rng.uniform(-0.7, 0.7, (2, n))
            t1[::7] = t2[3::7] = -0.0
            for coeffs in coeff_sets:
                got = _poly_arrays([Poly2D(c) for c in coeffs], t1, t2)
                want = self.rebuilt_each_call(coeffs, t1, t2)
                assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        for c in (c for coeffs in coeff_sets for c in coeffs):
            for x, y in ((0.3, -0.0), (-0.0, 0.6), (t1, t2), (t1[:1], 0.2), (t1[:4, None], t2[:3])):
                got, want = Poly2D(c)(x, y), self.evaluated(np.atleast_2d(c), x, y)
                assert type(got) is type(want) and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_evaluation_builds_no_polynomial(self, monkeypatch):
        families = [Planar(XHAT, YHAT, f1=self.POLYS[0], f2=self.POLYS[2]),
                    Explicit(self.POLYS[1:])]
        built = []
        original = Poly2D.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Poly2D, "__post_init__", counted)
        for fam in families:
            fam.evaluate((0.1, 0.3))
            fam.evaluate_many([0.1, 0.2], [0.3, -0.1])
        assert built == []


class TestGenericZ:
    def test_point_structure(self):
        fam = GenericZ(0.35)
        m = fam.evaluate((0.1, 0.2))
        assert np.allclose(m.s, [0.1, 0.2, 0.35])
        assert np.allclose(m.d1s, XHAT) and np.allclose(m.d2s, YHAT)

    def test_pure_rejection(self):
        fam = GenericZ(0.35)
        with pytest.raises(PureStateError):
            fam.evaluate((0.9, 0.3))

    def test_domain_rejection(self):
        fam = GenericZ(0.35)
        with pytest.raises(DomainError):
            fam.evaluate((5.0, 0.0))

    def test_height_validation(self):
        with pytest.raises(DomainError):
            GenericZ(0.0)
        with pytest.raises(DomainError):
            GenericZ(1.0)

    def test_classification_structure(self):
        fam = GenericZ(0.35)
        assert classify_point(fam.evaluate((0.2, 0.3))).label.value == "generic"
        assert classify_point(fam.evaluate((0.0, 0.0))).d_invariant
        # A single vanishing component is still generic (gamma != 0).
        assert classify_point(fam.evaluate((0.0, 0.3))).label.value == "generic"


class TestPlanar:
    def test_linear_coordinates(self):
        fam = Planar(u1=XHAT, u2=YHAT)
        m = fam.evaluate((0.3, 0.4))
        assert np.allclose(m.s, [0.3, 0.4, 0.0])
        assert np.allclose(m.d1s, XHAT) and np.allclose(m.d2s, YHAT)

    def test_always_classical(self):
        u2 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        fam = Planar(u1=XHAT, u2=u2, f2=Poly2D([[0.0, 0.3], [0.0, 0.2]]))
        for theta in [(0.2, 0.5), (-0.3, 0.6), (0.0, 0.7)]:
            cls = classify_point(fam.evaluate(theta))
            assert cls.asymptotically_classical

    def test_unit_vector_validation(self):
        with pytest.raises(DomainError):
            Planar(u1=2 * XHAT, u2=YHAT)


class TestUnitary:
    def test_constant_radius(self):
        fam = Unitary(radius=0.8)
        rng = np.random.default_rng(60)
        for _ in range(20):
            theta = (0.3 + 2.4 * rng.random(), 6.2 * rng.random())
            m = fam.evaluate(theta)
            assert np.linalg.norm(m.s) == pytest.approx(0.8, rel=1e-12)

    def test_d_invariant_everywhere(self):
        fam = Unitary(radius=0.6)
        for theta in [(0.5, 1.0), (1.2, 3.0), (2.0, 5.5)]:
            assert classify_point(fam.evaluate(theta)).d_invariant

    def test_radius_validation(self):
        with pytest.raises(DomainError):
            Unitary(radius=1.0)


class TestExplicit:
    def test_polynomial_derivatives_exact(self):
        fam_poly = Explicit([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.35]]])
        theta = (0.15, -0.2)
        m_poly = fam_poly.evaluate(theta)
        m_exact = GenericZ(0.35).evaluate(theta)
        for name in ("s", "d1s", "d2s"):
            assert getattr(m_poly, name).tobytes() == getattr(m_exact, name).tobytes()


class TestDescriptors:
    @pytest.mark.parametrize(
        "family",
        [
            GenericZ(0.2),
            Unitary(radius=0.8),
            Planar(u1=XHAT, u2=YHAT),
            Explicit([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.3]]]),
        ],
        ids=["generic_z", "unitary", "planar", "explicit"],
    )
    def test_round_trip(self, family):
        desc = family.to_descriptor()
        keys = {
            "generic_z": ["theta0", "domain"],
            "unitary": ["radius", "axes", "domain"],
            "planar": ["u1", "u2", "f1", "f2", "domain"],
            "explicit": ["components", "domain"],
        }
        assert list(desc) == ["kind", *keys[family.kind]]  # classify prints it in this order
        text = json.dumps(desc)
        rebuilt = from_descriptor(json.loads(text))
        assert rebuilt.to_descriptor() == desc
        theta = (0.5, 0.25)
        a = family.evaluate(theta)
        b = rebuilt.evaluate(theta)
        assert np.allclose(a.s, b.s) and np.allclose(a.d1s, b.d1s)

    def test_planar_takes_plain_coefficient_lists(self):
        family = Planar(u1=XHAT, u2=YHAT, f1=[[0.0, 0.5], [1.0, 0.0]], f2=[[0.0, 1.0]])
        assert isinstance(family.f1, Poly2D) and isinstance(family.f2, Poly2D)
        assert family.f1.tolist() == [[0.0, 0.5], [1.0, 0.0]]
        rebuilt = from_descriptor(family.to_descriptor())
        assert rebuilt.to_descriptor() == family.to_descriptor()

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            from_descriptor({"kind": "nope"})

    def test_missing_key(self):
        with pytest.raises(DomainError):
            from_descriptor({"kind": "generic_z"})


@pytest.mark.parametrize("build, message", [
    (lambda: Poly2D(np.zeros((2, 2, 2))), "polynomial coefficients must form a 2-d array"),
    (lambda: Unitary(0.5, axes=np.ones((3, 3))), "axes must form a 3x3 orthogonal matrix"),
    (lambda: Planar(u1=[1, 0, 0], u2=[1, 0, 0]), "u1 and u2 must be linearly independent"),
    (lambda: Explicit([[[0.1]], [[0.2]]]),
     "explicit family needs exactly 3 component polynomials"),
    (lambda: from_descriptor([1, 2]), "model descriptor must be an object with a 'kind' key"),
], ids=["poly_3d", "unitary_axes", "planar_parallel", "explicit_two",
        "descriptor_list"])
def test_malformed_family_refused(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build", [
    lambda: WeightMatrix("a", 0, 1),
    lambda: WeightMatrix(10**400, 0, 1),
    lambda: WeightMatrix(np.ones(2), np.ones(3), 1),
    lambda: GenericZ(0.2).evaluate(("a", 0)),
    lambda: BlochModelPoint([0.1j, 0, 0], [1, 0, 0], [0, 1, 0]),
], ids=["weight_text", "weight_huge_int", "weight_shapes", "theta_text", "bloch_complex"])
def test_input_that_is_not_real_numbers_raises_domain_error(build):
    # Every error this package raises derives from ModelError, also for a value
    # that does not convert to float at all.
    with pytest.raises(DomainError):
        build()


class TestDomain:
    def test_contains(self):
        d = Domain((-1.0, 1.0), (0.0, 2.0))
        assert d.contains((0.0, 1.0))
        assert not d.contains((0.0, 3.0))

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            Domain((1.0, -1.0), (0.0, 1.0))


class TestNCopyScaling:
    def test_scaling(self):
        assert n_copy_bound(3.0, 4) == pytest.approx(0.75)

    def test_guard(self):
        with pytest.raises(DomainError):
            n_copy_bound(3.0, 0)
