"""Every admission test is scale-free: the explicit formula is homogeneous
(degree 1 in W, degree -2 in the derivatives), so scaling a guard's input by
a power of two must not change its verdict.  Each case below is one guard on
one input, called at several scales; the verdict is the exception class
raised, or None where the input is accepted."""

import math

import numpy as np
import pytest

from holevo2q.bloch import BlochModelPoint, BlochModelPoint3
from holevo2q.bounds import WeightMatrix, holevo_bound_three_param, trabs
from holevo2q.errors import (
    DegenerateModelError,
    DomainError,
    FeasibilityError,
    OracleCertificateError,
)
from holevo2q.fisher import fisher_matrices
from holevo2q.oracle import (
    DensityPoint,
    HermitianPair,
    _kink_minimum,
    density_point,
    holevo_function,
    minimize_holevo_2d,
    minimize_holevo_6d,
    pair_from_bloch_vectors,
)
from holevo2q.sampling import random_generic_pair

SCALES = (1.0, 2.0**60, 2.0**-60)
DERIVATIVE_SCALES = (1.0, 2.0**40, 2.0**-40, 2.0**60, 2.0**-60)
VALUE_SCALES = (1.0, 2.0**40, 2.0**-40)

W = WeightMatrix(0.55, 0.1, 0.45)
RHO = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
DRHO = np.array([[0.5, 0.3 + 0.1j], [0.3 - 0.1j, -0.5]])
S_IN, S_OUT = np.array([0.3, 0.2, 0.1]), np.array([0.8, 0.7, 0.0])
D1, D2, D3 = np.array([1.0, 0.2, 0.0]), np.array([0.1, 1.0, 0.3]), np.array([0.0, 0.4, 1.0])
W3 = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.0]])


def _dual_pairs(scale, perturb=0.0, count=12):
    """holevo_function on the SLD-dual pairs of seeded points whose derivatives
    are scaled by ``scale``; ``perturb`` mixes that fraction of l^2 into l^1."""
    rng = np.random.default_rng(18)
    for _ in range(count):
        m, w = random_generic_pair(rng)
        m = BlochModelPoint(m.s, scale * m.d1s, scale * m.d2s)
        fm = fisher_matrices(m)
        pair = pair_from_bloch_vectors(m, fm.dual1 + perturb * fm.dual2, fm.dual2)
        holevo_function(density_point(m), pair, w)


def _kink_fit(scale):
    """_kink_minimum on a raw objective 1% above its model, values scaled by ``scale``."""
    g, a, b = np.array([0.3, -0.2]), np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.4, 0.1])
    s0, c = 1.0, 0.2

    def raw(xs):
        quad = np.einsum("ni,ij,nj->n", xs, a, xs)
        return 1.01 * scale * (s0 + 2.0 * xs @ g + quad + 2.0 * np.abs(xs @ b + c))

    _kink_minimum(raw, scale * s0, scale * g, scale * a, scale * b, scale * c)


# (guard and input, call at scale c, expected verdict, scales)
CASES = {
    "weight_asymmetric_90pct": (lambda c: WeightMatrix.from_matrix(c * np.array(
        [[1.0, 0.1], [1.0, 1.0]])), DomainError, SCALES),
    "weight_symmetric": (lambda c: WeightMatrix.from_matrix(c * np.array(
        [[1.0, 0.3], [0.3, 1.0]])), None, SCALES),
    "trabs_symmetric_argument": (lambda c: trabs(W, c * np.array(
        [[0.0, 1.0], [1.0, 0.0]])), DomainError, SCALES),
    "trabs_antisymmetric_argument": (lambda c: trabs(W, c * np.array(
        [[0.0, 1.0], [-1.0, 0.0]])), None, SCALES),
    "trabs_complex_argument": (lambda c: trabs(W, c * np.array(
        [[0.0, 1.0 + 0.1j], [-1.0 - 0.1j, 0.0]])), DomainError, SCALES),
    "drho_10pct_trace": (lambda c: DensityPoint(RHO, c * np.array(
        [[0.55, 0.3], [0.3, -0.45]]), c * DRHO), DomainError, SCALES),
    "drho_not_hermitian": (lambda c: DensityPoint(RHO, c * np.array(
        [[0.5, 0.3], [0.1, -0.5]]), c * DRHO), DomainError, SCALES),
    "drho_valid": (lambda c: DensityPoint(RHO, c * DRHO, c * DRHO.conj()), None, SCALES),
    "pair_not_hermitian": (lambda c: HermitianPair(c * np.array(
        [[1.0, 0.3], [0.1, -1.0]]), c * DRHO), DomainError, SCALES),
    "pair_hermitian": (lambda c: HermitianPair(c * DRHO, c * RHO), None, SCALES),
    "three_param_weight_asymmetric": (lambda c: holevo_bound_three_param(
        BlochModelPoint3(S_IN, D1, D2, D3), c * np.triu(W3)), DomainError, SCALES),
    "three_param_weight_symmetric": (lambda c: holevo_bound_three_param(
        BlochModelPoint3(S_IN, D1, D2, D3), c * W3), None, SCALES),
    "point_outside_ball": (lambda c: BlochModelPoint(S_OUT, c * D1, c * D2), DomainError, SCALES),
    "point_inside_ball": (lambda c: BlochModelPoint(S_IN, c * D1, c * D2), None, SCALES),
    "point3_outside_ball": (lambda c: BlochModelPoint3(S_OUT, c * D1, c * D2, c * D3),
                            DomainError, SCALES),
    "point3_dependent": (lambda c: BlochModelPoint3(S_IN, c * D1, c * D2, c * (D1 + D2)),
                         DegenerateModelError, SCALES),
    "point3_inside_ball": (lambda c: BlochModelPoint3(S_IN, c * D1, c * D2, c * D3),
                           None, SCALES),
    "holevo_function_dual_pairs": (_dual_pairs, None, DERIVATIVE_SCALES),
    "holevo_function_perturbed_pairs": (lambda c: _dual_pairs(c, perturb=1e-3),
                                        FeasibilityError, DERIVATIVE_SCALES),
    "kink_minimum_fit_1pct_off": (_kink_fit, OracleCertificateError, VALUE_SCALES),
}


def _verdict(call, scale):
    try:
        call(scale)
    except Exception as exc:  # the verdict is the class of whatever the guard raises
        return type(exc)
    return None


@pytest.mark.parametrize("call, expected, scales", CASES.values(), ids=CASES.keys())
def test_guard_verdict_is_scale_free(call, expected, scales):
    assert [_verdict(call, c) for c in scales] == [expected] * len(scales)


@pytest.fixture(scope="module")
def oracle_minima():
    """100 seeded generic pairs, each with both minimizers' values at unit scale."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(100):
        m, w = random_generic_pair(rng)
        cases.append((m, w, minimize_holevo_2d(m, w)[0], minimize_holevo_6d(density_point(m), w)))
    return cases


@pytest.mark.parametrize("j", [-60, -20, -3, 3, 20, 60])
def test_oracle_minima_are_exact_images_under_derivative_scaling(oracle_minima, j):
    # Scaling both derivatives by 2^j scales the Holevo bound by 2^-2j exactly:
    # each minimizer returns the ldexp image of its unit-scale value, and raises nothing.
    for m, w, value_2d, value_6d in oracle_minima:
        scaled = BlochModelPoint(m.s, math.ldexp(1.0, j) * m.d1s, math.ldexp(1.0, j) * m.d2s)
        assert minimize_holevo_2d(scaled, w)[0] == math.ldexp(value_2d, -2 * j)
        assert minimize_holevo_6d(density_point(scaled), w) == math.ldexp(value_6d, -2 * j)
