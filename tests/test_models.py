"""Model families: evaluation, derivatives, serialization round trips."""

import json

import numpy as np
import pytest

from holevo2q.bloch import stack_last
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
    evaluate,
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
        assert p.dx()(0.3, 0.7) == pytest.approx(1 + 2 * 0.7)
        assert p.dy()(0.3, 0.7) == pytest.approx(2 * 0.3)


class TestPolyArrays:
    POLYS = ([[0.0, 0.0], [1.0, 2.0]], [[0.3]], [[0.1, -0.4, 0.2]], [[0.2], [0.5], [-0.1]])

    @staticmethod
    def rebuilt_each_call(polys, t1, t2):
        """The derivative polynomials built anew on every call."""
        return tuple(stack_last([p(t1, t2) for p in ps], 1)
                     for ps in (polys, [p.dx() for p in polys], [p.dy() for p in polys]))

    def test_outputs_bit_equal_to_rebuilding(self):
        rng = np.random.default_rng(11)
        t1, t2 = rng.uniform(-0.7, 0.7, (2, 50))
        polys = [Poly2D(c) for c in self.POLYS]
        for _ in range(2):
            got = _poly_arrays(polys, t1, t2)
            want = self.rebuilt_each_call([Poly2D(c) for c in self.POLYS], t1, t2)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_derivatives_built_once_per_component(self, monkeypatch):
        calls = {"dx": [], "dy": []}
        for name in calls:
            original = getattr(Poly2D, name)

            def counted(self, _name=name, _original=original):
                calls[_name].append(id(self))
                return _original(self)

            monkeypatch.setattr(Poly2D, name, counted)
        families = [Planar(XHAT, YHAT, f1=self.POLYS[0], f2=self.POLYS[2]),
                    Explicit.from_polynomials(self.POLYS[1:])]
        for _ in range(3):
            for fam in families:
                fam.evaluate_many([0.1, 0.2], [0.3, -0.1])
        components = [families[0].f1, families[0].f2, *families[1].components]
        expected = sorted(id(p) for p in components)
        assert sorted(calls["dx"]) == sorted(calls["dy"]) == expected


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
        fam_poly = Explicit.from_polynomials(
            [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.35]]]
        )
        theta = (0.15, -0.2)
        m_poly = fam_poly.evaluate(theta)
        m_exact = GenericZ(0.35).evaluate(theta)
        for name in ("s", "d1s", "d2s"):
            assert getattr(m_poly, name).tobytes() == getattr(m_exact, name).tobytes()

    def test_richardson_ratio(self):
        # Halving the step divides the O(h^2) derivative error by ~4.
        def curve(theta):
            t1, t2 = theta
            return np.array([np.sin(0.6 * t1), 0.3 * t2**3 + 0.2 * t1, 0.25])

        def exact_d1(theta):
            return np.array([0.6 * np.cos(0.6 * theta[0]), 0.2, 0.0])

        theta = np.array([0.4, 0.3])
        errors = []
        for h in (4e-3, 2e-3):
            fam = Explicit(func=curve, step=h)
            err = np.abs(fam.evaluate(theta).d1s - exact_d1(theta)).max()
            errors.append(err)
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5

    def test_callable_only_family_does_not_serialize(self):
        fam = Explicit(func=lambda t: np.array([0.1, 0.1, 0.1]))
        with pytest.raises(DomainError):
            fam.to_descriptor()


class TestDescriptors:
    @pytest.mark.parametrize(
        "family",
        [
            GenericZ(0.2),
            Unitary(radius=0.8),
            Planar(u1=XHAT, u2=YHAT),
            Explicit.from_polynomials(
                [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.3]]],
            ),
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
        a = evaluate(family, theta)
        b = evaluate(rebuilt, theta)
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
