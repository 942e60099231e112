"""Bloch-geometry algebra: constructors, metric factors, vectors."""

import numpy as np
import pytest

from holevo2q.bloch import BlochModelPoint, cross
from holevo2q.errors import DegenerateModelError, DomainError, PureStateError
from holevo2q.fisher import fisher_bundle
from holevo2q.matrix_forms import (
    ell_perp,
    f_matrix,
    q_inverse,
    q_matrix,
    q_tilde,
    q_tilde_inverse,
    rld_bloch_vectors,
    sld_bloch_vectors,
)
from holevo2q.sampling import random_model_point

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])
ZHAT = np.array([0.0, 0.0, 1.0])


def point(s, d1=XHAT, d2=YHAT):
    return BlochModelPoint(s=s, d1s=d1, d2s=d2)


class TestModelPoint:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # |s|^2 overflows for 1e200
    def test_rejects_outside_ball(self):
        for x, norm in ((1.2, r"1\.2"), (1e200, r"1e\+200")):
            with pytest.raises(DomainError, match=rf"^\|s\| = {norm} lies outside the Bloch ball$"):
                point([x, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            point([np.nan, 0.0, 0.0])

    def test_rejects_a_vector_that_is_not_3d(self):
        with pytest.raises(DomainError, match=r"s must be a real 3-vector, got shape \(2,\)"):
            point([0.1, 0.2])

    def test_pure_shell_constructs_but_is_not_mixed(self):
        p = point(ZHAT)
        assert not p.is_mixed
        with pytest.raises(PureStateError):
            p.require_mixed()


class TestQMatrix:
    def test_origin_is_identity(self):
        assert np.allclose(q_matrix(point([0, 0, 0])), np.eye(3))

    def test_z_half(self):
        q = q_matrix(point([0, 0, 0.5]))
        assert np.allclose(q, np.diag([1.0, 1.0, 4.0 / 3.0]))

    def test_inverse_x(self):
        qi = q_inverse(point([0.6, 0, 0]))
        assert np.allclose(qi, np.diag([0.64, 1.0, 1.0]))

    def test_pure_guard(self):
        with pytest.raises(PureStateError):
            q_matrix(point(ZHAT))

    def test_product_and_eigenvalues_random(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            m = random_model_point(rng, radius=0.99)
            q, qi = q_matrix(m), q_inverse(m)
            assert np.abs(q @ qi - np.eye(3)).max() <= 1e-12
            expected = np.sort([1.0, 1.0, 1.0 / (1.0 - m.s_squared)])
            got = np.sort(np.linalg.eigvalsh(q))
            assert np.abs(got - expected).max() <= 1e-10 * expected.max()


class TestFMatrix:
    def test_cross_action(self):
        f = f_matrix(point(ZHAT))
        assert np.allclose(f @ XHAT, YHAT)

    def test_zero_at_origin(self):
        assert np.allclose(f_matrix(point([0, 0, 0])), 0.0)

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_model_point(rng)
            f = f_matrix(m)
            assert np.allclose(f + f.T, 0.0)
            a = rng.standard_normal(3)
            assert np.allclose(f @ a, np.cross(m.s, a))


class TestQTilde:
    def test_identity_at_origin(self):
        assert np.allclose(q_tilde(point([0, 0, 0])), np.eye(3))

    def test_offdiagonal_entry(self):
        # Q~^-1 = Q^-1 + iF; with s = z/2 the (1, 2) entry is -i s3.
        qti = q_tilde_inverse(point([0, 0, 0.5]))
        assert qti[0, 1] == pytest.approx(-0.5j)
        assert qti[1, 0] == pytest.approx(0.5j)

    def test_product_random(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            m = random_model_point(rng, radius=0.99)
            prod = q_tilde(m) @ q_tilde_inverse(m)
            assert np.abs(prod - np.eye(3)).max() <= 1e-12

    def test_hermitian_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_model_point(rng)
            qt = q_tilde(m)
            assert np.abs(qt - qt.conj().T).max() <= 1e-14
            assert np.linalg.eigvalsh(qt).min() > 0.0


class TestSldVectors:
    def test_orthogonal_derivative_passthrough(self):
        l1, _ = sld_bloch_vectors(point([0, 0, 0.5]))
        assert np.allclose(l1, XHAT)

    def test_origin(self):
        l1, l2 = sld_bloch_vectors(point([0, 0, 0]))
        assert np.allclose(l1, XHAT) and np.allclose(l2, YHAT)

    def test_radial_stretch(self):
        l1, _ = sld_bloch_vectors(point([0.6, 0, 0]))
        assert np.allclose(l1, XHAT / 0.64)


class TestRldVectors:
    def test_origin_real(self):
        lt1, lt2 = rld_bloch_vectors(point([0, 0, 0]))
        assert np.allclose(lt1, XHAT) and np.allclose(lt2, YHAT)

    def test_z_half_value(self):
        # Q~ x = (x - i s cross x)/(1 - s^2) = (x - 0.5 i y)/0.75
        lt1, _ = rld_bloch_vectors(point([0, 0, 0.5]))
        assert np.allclose(lt1, (XHAT - 0.5j * YHAT) / 0.75)

    def test_consistency_with_sld(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m = random_model_point(rng)
            f = f_matrix(m)
            l1, l2 = sld_bloch_vectors(m)
            lt1, lt2 = rld_bloch_vectors(m)
            assert np.abs((np.eye(3) + 1j * f) @ lt1 - l1).max() <= 1e-12
            assert np.abs((np.eye(3) + 1j * f) @ lt2 - l2).max() <= 1e-12


class TestGamma:
    def test_figure_point_a(self):
        t = 0.346 / np.sqrt(2.0)
        g = fisher_bundle(point([t, t, 0.2])).gamma
        assert g[0] == pytest.approx(0.292, abs=1e-3)
        assert g[1] == pytest.approx(0.292, abs=1e-3)

    def test_figure_point_b(self):
        t = 0.476 / np.sqrt(2.0)
        g = fisher_bundle(point([t, t, 0.275])).gamma
        assert g[0] == pytest.approx(0.483, abs=1e-3)
        assert g[1] == pytest.approx(0.483, abs=1e-3)

    def test_orthogonal_derivatives_vanish(self):
        assert np.allclose(fisher_bundle(point([0, 0, 0.7])).gamma, 0.0)

    def test_matches_rld_radial_component(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            m = random_model_point(rng)
            lt1, lt2 = rld_bloch_vectors(m)
            g = fisher_bundle(m).gamma
            vals = np.array([np.vdot(m.s, lt1), np.vdot(m.s, lt2)])
            assert np.abs(vals.real - g).max() <= 1e-12
            assert np.abs(vals.imag).max() <= 1e-12


class TestCross:
    def test_bit_identical_to_numpy(self):
        # Scales over 12 decades, with exact (signed) zeros in some components.
        rng = np.random.default_rng(17)
        pairs = rng.normal(size=(20_000, 2, 3)) * 10.0 ** rng.uniform(-6, 6, size=(20_000, 2, 1))
        pairs[rng.random(size=pairs.shape) < 0.05] = 0.0
        pairs[rng.random(size=pairs.shape) < 0.05] = -0.0
        for a, b in pairs:
            assert cross(a, b).tobytes() == np.cross(a, b).tobytes()


class TestEllPerp:
    def test_simple_cross(self):
        assert np.allclose(ell_perp(point([0, 0, 0])), ZHAT)

    def test_sign_flip_on_swap(self):
        p = point([0, 0, 0], d1=YHAT, d2=XHAT)
        assert np.allclose(ell_perp(p), -ZHAT)

    def test_parallel_derivatives_rejected(self):
        p = point([0, 0, 0], d1=np.array([1.0, 1.0, 0.0]), d2=np.array([2.0, 2.0, 0.0]))
        with pytest.raises(DegenerateModelError):
            ell_perp(p)

    def test_orthogonality(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            m = random_model_point(rng)
            perp = ell_perp(m)
            assert abs(perp @ m.d1s) <= 1e-12 * np.linalg.norm(perp) * np.linalg.norm(m.d1s)
            assert abs(perp @ m.d2s) <= 1e-12 * np.linalg.norm(perp) * np.linalg.norm(m.d2s)
