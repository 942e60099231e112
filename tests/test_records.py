"""Record semantics of the public value classes: constructor, repr, equality,
hash, defaults and read-only fields.

The repr texts are written out literally: ``DomainError`` messages and the
witnesses of failing checks print them, so their format is part of the
output.
"""

import copy

import numpy as np
import pytest

from holevo2q.bloch import BlochModelPoint
from holevo2q.bounds import BoundsReport, Branch, WeightMatrix
from holevo2q.classify import ModelClass
from holevo2q.fisher import FisherBundle, fisher_bundle, fisher_bundle_many
from holevo2q.matrix_forms import FisherMatrices
from holevo2q.models import Domain, Explicit, GenericZ, Planar, Poly2D, Unitary
from holevo2q.oracle import DensityPoint, HermitianPair
from holevo2q.verify import CheckRow, VerificationReport

POINT = BlochModelPoint([0.1, 0.2, 0.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
DOMAIN = Domain((-0.5, 0.5), (-0.25, 0.25))
DOMAIN_REPR = "Domain(theta1=(-0.5, 0.5), theta2=(-0.25, 0.25))"
EYE2 = "array([[1., 0.],\n       [0., 1.]])"
BUNDLE_FIELDS = ("gram", "radial", "triple_product", "perp_quadratic", "gamma", "one_minus_s_sq",
                 "d_invariant", "asymptotically_classical")

# (class, field names in order, positional arguments, repr of the record).
RECORDS = [
    (BlochModelPoint, ("s", "d1s", "d2s"),
     ([0.1, 0.2, 0.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
     "BlochModelPoint(s=array([0.1, 0.2, 0.3]), d1s=array([1., 0., 0.]), "
     "d2s=array([0., 1., 0.]))"),
    (WeightMatrix, ("w11", "w12", "w22"), (2, 0.5, 1),
     "WeightMatrix(w11=2.0, w12=0.5, w22=1.0)"),
    (BoundsReport,
     ("c_s", "c_r", "c_z", "c_n", "c_h", "s_correction", "branch", "b_value", "xi_star"),
     (1.0, 2.0, 3.0, 4.0, 2.5, 0.5, Branch.CORRECTION, -0.125, np.array([0.5, -1.0])),
     "BoundsReport(c_s=1.0, c_r=2.0, c_z=3.0, c_n=4.0, c_h=2.5, s_correction=0.5, "
     "branch=<Branch.CORRECTION: 'correction'>, b_value=-0.125, xi_star=array([ 0.5, -1. ]))"),
    (FisherBundle, BUNDLE_FIELDS,
     (np.eye(2), np.array([0.1, 0.2]), 0.3, 0.4, np.array([0.5, 0.6]), 0.86, False, True),
     f"FisherBundle(gram={EYE2}, radial=array([0.1, 0.2]), triple_product=0.3, "
     "perp_quadratic=0.4, gamma=array([0.5, 0.6]), one_minus_s_sq=0.86, d_invariant=False, "
     "asymptotically_classical=True)"),
    (FisherMatrices,
     BUNDLE_FIELDS + ("point", "g", "g_inv", "g_tilde", "g_tilde_inv", "z", "dual1", "dual2"),
     (np.eye(2), np.array([0.1, 0.2]), 0.3, 0.4, np.array([0.5, 0.6]), 0.86, False, True,
      POINT, np.eye(2), np.eye(2), np.eye(2) * (1 + 0.5j), np.eye(2), np.eye(2),
      np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
     f"FisherMatrices(gram={EYE2}, radial=array([0.1, 0.2]), triple_product=0.3, "
     "perp_quadratic=0.4, gamma=array([0.5, 0.6]), one_minus_s_sq=0.86, d_invariant=False, "
     "asymptotically_classical=True, point=BlochModelPoint(s=array([0.1, 0.2, 0.3]), d1s=array([1., 0., 0.]), "
     f"d2s=array([0., 1., 0.])), g={EYE2}, g_inv={EYE2}, "
     "g_tilde=array([[1.+0.5j, 0.+0.j ],\n       [0.+0.j , 1.+0.5j]]), "
     f"g_tilde_inv={EYE2}, z={EYE2}, dual1=array([1., 0., 0.]), dual2=array([0., 1., 0.]))"),
    (ModelClass, BUNDLE_FIELDS,
     (np.eye(2), np.array([0.1, 0.2]), 0.75, 0.4, np.array([0.25, -0.5]), 0.86, False, False),
     f"ModelClass(gram={EYE2}, radial=array([0.1, 0.2]), triple_product=0.75, "
     "perp_quadratic=0.4, gamma=array([ 0.25, -0.5 ]), one_minus_s_sq=0.86, d_invariant=False, "
     "asymptotically_classical=False)"),
    (Poly2D, ("coeffs",), ([[0.0, 1.0], [2.0, 0.0]],),
     "Poly2D(coeffs=array([[0., 1.],\n       [2., 0.]]))"),
    (Domain, ("theta1", "theta2"), ((-0.5, 0.5), (-0.25, 0.25)), DOMAIN_REPR),
    (Unitary, ("radius", "axes", "domain"), (0.5, np.eye(3), DOMAIN),
     "Unitary(radius=0.5, axes=array([[1., 0., 0.],\n       [0., 1., 0.],\n"
     f"       [0., 0., 1.]]), domain={DOMAIN_REPR})"),
    (Planar, ("u1", "u2", "f1", "f2", "domain"),
     ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], Poly2D([[0.0], [1.0]]), Poly2D([[0.0, 1.0]]), DOMAIN),
     "Planar(u1=array([1., 0., 0.]), u2=array([0., 1., 0.]), "
     "f1=Poly2D(coeffs=array([[0.],\n       [1.]])), f2=Poly2D(coeffs=array([[0., 1.]])), "
     f"domain={DOMAIN_REPR})"),
    (GenericZ, ("theta0", "domain"), (0.25, DOMAIN),
     f"GenericZ(theta0=0.25, domain={DOMAIN_REPR})"),
    (Explicit, ("components", "domain"), (([[0.1]], [[0.2]], [[0.3]]), DOMAIN),
     "Explicit(components=(Poly2D(coeffs=array([[0.1]])), Poly2D(coeffs=array([[0.2]])), "
     f"Poly2D(coeffs=array([[0.3]]))), domain={DOMAIN_REPR})"),
    (DensityPoint, ("rho", "drho1", "drho2"),
     (np.diag([0.6, 0.4]), np.diag([0.1, -0.1]), np.array([[0.0, 0.1], [0.1, 0.0]])),
     "DensityPoint(rho=array([[0.6+0.j, 0. +0.j],\n       [0. +0.j, 0.4+0.j]]), "
     "drho1=array([[ 0.1+0.j,  0. +0.j],\n       [ 0. +0.j, -0.1+0.j]]), "
     "drho2=array([[0. +0.j, 0.1+0.j],\n       [0.1+0.j, 0. +0.j]]))"),
    (HermitianPair, ("x1", "x2"), (np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])),
     "HermitianPair(x1=array([[0.+0.j, 1.+0.j],\n       [1.+0.j, 0.+0.j]]), "
     "x2=array([[ 1.+0.j,  0.+0.j],\n       [ 0.+0.j, -1.+0.j]]))"),
    (CheckRow, ("name", "tolerance", "value", "witness"), ("name", 1e-10, 2e-12, "w"),
     "CheckRow(name='name', tolerance=1e-10, value=2e-12, witness='w')"),
    (VerificationReport, ("seed", "count", "rows", "branch_counts"),
     (7, 3, [CheckRow("a", 1.0, 0.5)], {"rld": 2}),
     "VerificationReport(seed=7, count=3, rows=[CheckRow(name='a', tolerance=1.0, value=0.5, "
     "witness='')], branch_counts={'rld': 2})"),
]
# The verification report and its rows are the records that are built up
# while a run goes on; read-only fields are pinned for the others.
READ_ONLY = [r for r in RECORDS if r[0] not in (CheckRow, VerificationReport)]


def ids(table):
    return [row[0].__name__ for row in table]


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=ids(RECORDS))
def test_positional_and_keyword_construction(cls, names, args, text):
    assert repr(cls(*args)) == text
    assert repr(cls(**dict(zip(names, args)))) == text
    # Any split into a positional head and a keyword tail, in any keyword order.
    head = len(args) // 2
    tail = dict(reversed(list(zip(names[head:], args[head:]))))
    assert repr(cls(*args[:head], **tail)) == text


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=ids(RECORDS))
def test_bad_arguments_raise_type_error(cls, names, args, text):
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("cls, names, args, text", READ_ONLY, ids=ids(READ_ONLY))
def test_fields_are_read_only(cls, names, args, text):
    record = cls(*args)
    for name, value in zip(names, args):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == text


def test_defaults():
    unitary = Unitary(0.5)
    assert repr(unitary) == (
        "Unitary(radius=0.5, axes=array([[1., 0., 0.],\n       [0., 1., 0.],\n"
        "       [0., 0., 1.]]), domain=Domain(theta1=(0.2, 2.941592653589793), "
        "theta2=(0.0, 6.283185307179586)))"
    )
    assert unitary.axes is not Unitary(0.5).axes  # a fresh default per instance
    assert repr(Planar([1.0, 0, 0], [0, 1.0, 0])) == (
        "Planar(u1=array([1., 0., 0.]), u2=array([0., 1., 0.]), "
        "f1=Poly2D(coeffs=array([[0., 0.],\n       [1., 0.]])), "
        "f2=Poly2D(coeffs=array([[0., 1.],\n       [0., 0.]])), "
        "domain=Domain(theta1=(-0.7, 0.7), theta2=(-0.7, 0.7)))"
    )
    assert repr(GenericZ(0.6)) == (
        "GenericZ(theta0=0.6, domain=Domain(theta1=(-0.8, 0.8), theta2=(-0.8, 0.8)))"
    )
    assert GenericZ(0.6) == GenericZ(0.6, None)
    explicit = Explicit(([[0.1]], [[0.2]], [[0.3]]))
    assert explicit.domain == Domain((-0.7, 0.7), (-0.7, 0.7))
    assert [p.tolist() for p in explicit.components] == [[[0.1]], [[0.2]], [[0.3]]]
    assert CheckRow("a", 1.0, 0.5).witness == ""
    report = VerificationReport(1, 2)
    assert (report.rows, report.branch_counts) == ([], {})
    assert report.rows is not VerificationReport(1, 2).rows


@pytest.mark.parametrize("a, same, other, fields", [
    (WeightMatrix(2, 0.5, 1), WeightMatrix(2.0, 0.5, 1.0), WeightMatrix(2, 0.5, 1.5),
     (2.0, 0.5, 1.0)),
    (Domain((-1, 1), (0, 2)), Domain((-1.0, 1.0), (0.0, 2.0)), Domain((-1, 1), (0, 3)),
     ((-1.0, 1.0), (0.0, 2.0))),
    (GenericZ(0.5), GenericZ(0.5, Domain(*GenericZ(0.5).domain.to_descriptor().values())),
     GenericZ(0.5, DOMAIN), (0.5, GenericZ(0.5).domain)),
], ids=["WeightMatrix", "Domain", "GenericZ"])
def test_equality_and_hash_over_the_fields(a, same, other, fields):
    assert a == same and not a != same
    assert a != other and not a == other
    assert hash(a) == hash(same) == hash(fields)
    assert a != fields  # a tuple of the same values is another type
    assert len({a, same, other}) == 2


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=ids(RECORDS))
def test_equality_of_distinct_records_field_by_field(cls, names, args, text):
    # Deep copies, as tuple equality skips the comparison of identical objects.
    record = cls(*args)
    same = cls(*copy.deepcopy(args))
    assert record == same and not record != same
    for name in names:
        value = getattr(record, name)
        if isinstance(value, np.ndarray):
            changed = copy.deepcopy(record)
            entries = value.copy()
            entries.flat[0] += 1.0
            object.__setattr__(changed, name, entries)
            assert record != changed and not record == changed, name


def test_one_point_and_stacked_bundles_compare_unequal():
    one = fisher_bundle(POINT)
    stacked = fisher_bundle_many(POINT.s[None], POINT.d1s[None], POINT.d2s[None])
    assert one == fisher_bundle(BlochModelPoint(*copy.deepcopy((POINT.s, POINT.d1s, POINT.d2s))))
    assert one != stacked and not one == stacked
    assert stacked == fisher_bundle_many(*(x[None].copy() for x in (POINT.s, POINT.d1s, POINT.d2s)))
    with pytest.raises(TypeError, match="unhashable"):
        hash(one)
