"""The pure-limit operations read the Fisher route at mixed points and the
tangent-limit form on the shell."""

import numpy as np
import pytest

from holevo2q.bloch import BlochModelPoint
from holevo2q.bounds import WeightMatrix, holevo_bound
from holevo2q.errors import DegenerateModelError, PureStateError
from holevo2q.fisher import fisher_bundle
from holevo2q.matrix_forms import (fisher_matrices, pure_limit_duals, pure_limit_holevo,
                                   pure_limit_rld_inverse, rld_bloch_vectors)
from holevo2q.sampling import random_model_point, random_weight
from reference import trabs

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])
PURE_LIMIT_OPERATIONS = {
    "duals": pure_limit_duals,
    "rld_inverse": pure_limit_rld_inverse,
    "holevo": lambda m: pure_limit_holevo(m, WeightMatrix.identity()),
}


def test_mixed_points_read_the_fisher_route_bit_for_bit():
    rng = np.random.default_rng(1301)
    for _ in range(50):
        m = random_model_point(rng)
        w = random_weight(rng)
        fm = fisher_matrices(m)
        gt_inv = fm.g_tilde_inv
        r1, r2 = rld_bloch_vectors(m)
        rdual1 = gt_inv[0, 0] * r1 + gt_inv[1, 0] * r2
        rdual2 = gt_inv[0, 1] * r1 + gt_inv[1, 1] * r2
        expected = (fm.dual1, fm.dual2, rdual1, rdual2)
        for got, want in zip(pure_limit_duals(m), expected):
            assert got.tobytes() == want.tobytes()
        assert pure_limit_rld_inverse(m).tobytes() == gt_inv.tobytes()
        c_r = holevo_bound(fisher_bundle(m), w).c_r
        assert pure_limit_holevo(m, w).hex() == c_r.hex()


@pytest.mark.parametrize("name", PURE_LIMIT_OPERATIONS)
def test_slanted_pure_shell_rejected(name):
    # |s| = 1 with derivatives not tangent to the sphere.
    m = BlochModelPoint(s=[0.6, 0.0, 0.8], d1s=XHAT, d2s=YHAT)
    with pytest.raises(PureStateError, match="non-tangent"):
        PURE_LIMIT_OPERATIONS[name](m)


@pytest.mark.parametrize("name", PURE_LIMIT_OPERATIONS)
def test_nearly_dependent_point_raises_like_holevo_bound(name):
    # The point of test_nearly_dependent_point_classified_not_bounded: the
    # derivatives pass the independence test, G is numerically singular.
    m = BlochModelPoint(s=[0.1, 0.2, 0.3], d1s=XHAT, d2s=XHAT + 1e-9 * YHAT)
    with pytest.raises(DegenerateModelError, match="SLD Fisher matrix is singular"):
        holevo_bound(fisher_bundle(m), WeightMatrix.identity())
    with pytest.raises(DegenerateModelError, match="SLD Fisher matrix is singular"):
        PURE_LIMIT_OPERATIONS[name](m)


def random_tangent_shell_point(rng):
    s = rng.standard_normal(3)
    s /= np.linalg.norm(s)
    d1, d2 = (d - (d @ s) * s for d in rng.standard_normal((2, 3)))
    return BlochModelPoint(s=s, d1s=d1, d2s=d2)


def test_shell_bound_is_rld_expression_of_shell_inverse():
    # Tangent to a rounding error: a squared tangency test rejects ~1 in 4 of these.
    rng = np.random.default_rng(1302)
    for _ in range(50):
        m = random_tangent_shell_point(rng)
        w = random_weight(rng)
        l1, l2, lt1, lt2 = pure_limit_duals(m)
        assert lt1.tobytes() == l1.astype(complex).tobytes()
        assert lt2.tobytes() == l2.astype(complex).tobytes()
        gt_inv = pure_limit_rld_inverse(m)
        gram = np.array([[l1 @ l1, l1 @ l2], [l2 @ l1, l2 @ l2]])
        assert gt_inv.real.tobytes() == gram.tobytes()
        assert gt_inv.imag[0, 0] == gt_inv.imag[1, 1] == 0.0
        assert gt_inv.imag[0, 1] == -gt_inv.imag[1, 0]
        rld = np.trace(w.matrix @ gt_inv.real) + trabs(w, gt_inv.imag)
        assert pure_limit_holevo(m, w) == pytest.approx(rld, rel=1e-13)
