"""Density-matrix oracle: operator solves, traces, exact minima."""

import itertools

import numpy as np
import pytest

from holevo2q import oracle
from holevo2q.bloch import BlochModelPoint
from holevo2q.bounds import (
    Branch,
    WeightMatrix,
    boundary_weight_family,
    holevo_bound,
)
from holevo2q.errors import (DegenerateModelError, DomainError, FeasibilityError,
                             OracleCertificateError, PureStateError)
from holevo2q.fisher import fisher_bundle
from holevo2q.matrix_forms import fisher_matrices, invert_2x2, trabs
from holevo2q.models import GenericZ, Unitary
from holevo2q.oracle import (
    PAULI,
    DensityPoint,
    HermitianPair,
    bloch_coefficients,
    commutation_operator,
    density_point,
    holevo_function,
    minimize_holevo_2d,
    minimize_holevo_6d,
    operator_fisher,
    pair_from_bloch_vectors,
    rld_operators,
    sld_inner,
    sld_operators,
)
from holevo2q.sampling import (
    random_d_invariant_point,
    random_generic_pair,
    random_model_point,
    random_weight,
)
from reference import (
    dual_operators,
    grid_min_quadratic_abs,
    quadratic_abs_min,
    random_planar_point,
)

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])


NEAR_SHELL_DELTAS = [1e-1, 1e-3, 1e-6, 1e-9, 1e-11]


def point(s, d1=XHAT, d2=YHAT):
    return BlochModelPoint(s=s, d1s=d1, d2s=d2)


def random_hermitian(rng, count):
    """``count`` random Hermitian 2x2 matrices."""
    h = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    return h + h.conj().swapaxes(1, 2)


class TestDensityPoint:
    def test_reconstruction(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            m = random_model_point(rng)
            dp = density_point(m)
            _, s_half = bloch_coefficients(dp.rho)
            assert np.abs(2.0 * s_half.real - m.s).max() <= 1e-14
            assert abs(np.trace(dp.rho) - 1.0) <= 1e-14
            assert np.linalg.eigvalsh(dp.rho).min() > 0.0

    def test_pure_state_rejected(self):
        with pytest.raises(PureStateError):
            density_point(point([0, 0, 1.0]))

    def test_each_check_names_its_matrix(self):
        dp = density_point(point([0.1, 0.2, 0.3]))
        good = {"rho": dp.rho, "drho1": dp.drho1, "drho2": dp.drho2}
        cases = [
            ({"drho1": np.zeros(3)}, DomainError, "drho1 must be 2x2"),
            ({"drho2": dp.drho2 + [[0, 1], [0, 0]]}, DomainError, "drho2 must be Hermitian"),
            ({"rho": 2.0 * dp.rho}, DomainError, "rho must have unit trace"),
            ({"drho1": dp.drho1 + 0.1 * np.eye(2)}, DomainError, "drho1 must be traceless"),
            ({"rho": np.diag([1.5, -0.5])}, PureStateError, "rho is not strictly positive"),
            ({"rho": [[0.5, np.nan], [np.nan, 0.5]]}, DomainError, "rho must be finite"),
            ({"drho2": dp.drho2 + [[np.inf, 0], [0, 0]]}, DomainError, "drho2 must be finite"),
        ]
        for change, exc, message in cases:
            with pytest.raises(exc) as info:
                DensityPoint(**{**good, **change})
            assert type(info.value) is exc and str(info.value) == message
        kept = DensityPoint(rho=[[0.5, 0.0], [0.0, 0.5]], drho1=good["drho1"], drho2=good["drho2"])
        assert kept.rho.dtype == complex and kept.rho.shape == (2, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # inf - inf in the Hermitian check
    def test_hermitian_pair_rejects_nan(self):
        for x in (np.nan, np.inf):
            with pytest.raises(ValueError) as info:
                HermitianPair(x1=PAULI[0], x2=[[x, 0.0], [0.0, 1.0]])
            assert str(info.value) == "x2 must be finite"

    def test_bits_of_pauli_sums(self):
        # rho = (I + s.sigma)/2 and d rho = d.sigma/2 as Pauli sums, and the
        # coefficients as traces of op and op sigma_k: the entrywise forms give
        # the same bits, down to the sign of zero.
        def pauli_sum(v):
            return sum(v[k] * PAULI[k] for k in range(3))

        def coefficients(op):
            v = np.array([complex(np.trace(op @ PAULI[k])) / 2.0 for k in range(3)])
            return complex(np.trace(op)) / 2.0, v

        def same(x, y):
            return np.asarray(x).tobytes() == np.asarray(y).tobytes()

        entries = (0.0, -0.0, 0.3, -0.45)
        rng = np.random.default_rng(99)
        for v in itertools.product(entries, repeat=3):
            m = point(v, d1=v[::-1], d2=rng.choice(entries, size=3))
            dp = density_point(m)
            assert same(dp.rho, 0.5 * (np.eye(2, dtype=complex) + pauli_sum(m.s)))
            assert same(dp.drho1, 0.5 * pauli_sum(m.d1s))
            assert same(dp.drho2, 0.5 * pauli_sum(m.d2s))
            other = rng.choice(entries, size=(2, 2)) + 1j * rng.choice(entries, size=(2, 2))
            for op in (dp.rho, dp.drho1, other):
                (a, v_got), (a_want, v_want) = bloch_coefficients(op), coefficients(op)
                assert type(a) is complex and same(a, a_want) and same(v_got, v_want)


class TestSldOperators:
    def test_sigma_x_case(self):
        dp = density_point(point([0, 0, 0.5]))
        l1, l2 = sld_operators(dp)
        assert np.abs(l1 - PAULI[0]).max() <= 1e-14
        assert np.abs(l2 - PAULI[1]).max() <= 1e-14

    def test_maximally_mixed_doubles_derivative(self):
        dp = density_point(point([0, 0, 0]))
        l1, _ = sld_operators(dp)
        assert np.abs(l1 - 2.0 * dp.drho1).max() <= 1e-14

    def test_defining_equation_residuals(self):
        rng = np.random.default_rng(71)
        for _ in range(500):
            dp = density_point(random_model_point(rng))
            ls = sld_operators(dp)
            for drho, l_op in zip(dp.derivatives(), ls):
                r = drho - 0.5 * (dp.rho @ l_op + l_op @ dp.rho)
                assert np.abs(r).max() <= 1e-12

    def test_bloch_vector_cross_check(self):
        # sigma coefficients of L equal the SLD Bloch vector; the trace
        # carries twice the radial component.
        from holevo2q.matrix_forms import sld_bloch_vectors

        rng = np.random.default_rng(72)
        for _ in range(100):
            m = random_model_point(rng)
            dp = density_point(m)
            ls = sld_operators(dp)
            vecs = sld_bloch_vectors(m)
            gammas = fisher_bundle(m).gamma
            for l_op, vec, g in zip(ls, vecs, gammas):
                _, coeff = bloch_coefficients(l_op)
                assert np.abs(coeff.real - vec).max() <= 1e-11
                assert abs(np.trace(l_op).real + 2.0 * g) <= 1e-11


class TestRldOperators:
    def test_maximally_mixed(self):
        dp = density_point(point([0, 0, 0]))
        lt1, _ = rld_operators(dp)
        assert np.abs(lt1 - 2.0 * dp.drho1).max() <= 1e-14

    def test_defining_equation_and_trace(self):
        rng = np.random.default_rng(73)
        for _ in range(500):
            dp = density_point(random_model_point(rng))
            lts = rld_operators(dp)
            for drho, lt in zip(dp.derivatives(), lts):
                assert np.abs(drho - dp.rho @ lt).max() <= 1e-12
                assert abs(np.trace(dp.rho @ lt)) <= 1e-12


class TestOperatorFisher:
    def test_cross_path_equality(self):
        # Entrywise agreement, relative to the matrix scale once entries
        # exceed O(1) (near the sampling edge Z entries reach ~1e2).
        rng = np.random.default_rng(74)
        for _ in range(500):
            m = random_model_point(rng)
            fm = fisher_matrices(m)
            g, gt, z = operator_fisher(density_point(m))
            assert np.abs(g - fm.g).max() <= 1e-10 * max(1.0, np.abs(fm.g).max())
            assert np.abs(gt - fm.g_tilde).max() <= 1e-10 * max(
                1.0, np.abs(fm.g_tilde).max()
            )
            assert np.abs(z - fm.z).max() <= 1e-10 * max(1.0, np.abs(fm.z).max())


class TestCommutationOperator:
    def test_identity_maps_to_zero(self):
        dp = density_point(point([0.2, 0.1, 0.4]))
        assert np.abs(commutation_operator(dp, np.eye(2))).max() <= 1e-14

    @pytest.mark.parametrize("delta", NEAR_SHELL_DELTAS)
    def test_defining_relation(self, delta):
        # <Y, D(X)>_rho = tr(rho [X, Y])/(2i) for Y in {I, sx, sy, sz}.
        rng = np.random.default_rng(74)
        for m in near_shell_points(delta, rng):
            dp = density_point(m)
            for x in random_hermitian(rng, 2):
                image = commutation_operator(dp, x)
                for y in (np.eye(2),) + PAULI:
                    target = np.trace(dp.rho @ (x @ y - y @ x)) / 2.0j
                    assert abs(sld_inner(dp.rho, y, image) - target) <= 1e-14 * np.abs(x).max()

    @pytest.mark.parametrize("delta", NEAR_SHELL_DELTAS)
    def test_complex_linear(self, delta):
        # D(A + iB) = D(A) + i D(B) for Hermitian A and B; as D is bounded by
        # 1 entrywise in rho's eigenbasis, the rounding stays at eps |X| up to
        # the shell.
        rng = np.random.default_rng(74)
        for m in near_shell_points(delta, rng):
            dp = density_point(m)
            a, b = random_hermitian(rng, 2)
            x = a + 1j * b
            split = commutation_operator(dp, a) + 1j * commutation_operator(dp, b)
            assert np.abs(commutation_operator(dp, x) - split).max() <= 1e-14 * np.abs(x).max()

    def test_reconstruction_relation(self):
        rng = np.random.default_rng(75)
        for _ in range(200):
            dp = density_point(random_model_point(rng))
            ls = sld_operators(dp)
            lts = rld_operators(dp)
            for l_op, lt in zip(ls, lts):
                recon = lt + 1j * commutation_operator(dp, lt)
                assert np.abs(recon - l_op).max() <= 1e-10

    def test_pairing_relations(self):
        rng = np.random.default_rng(76)
        for _ in range(200):
            dp = density_point(random_model_point(rng))
            duals = dual_operators(dp)
            g, gt, z = operator_fisher(dp)
            g_inv, gt_inv = invert_2x2(g), invert_2x2(gt)
            lts = rld_operators(dp)
            rduals = (
                gt_inv[0, 0] * lts[0] + gt_inv[1, 0] * lts[1],
                gt_inv[0, 1] * lts[0] + gt_inv[1, 1] * lts[1],
            )
            for j in range(2):
                d_dual = commutation_operator(dp, duals[j])
                for i in range(2):
                    lhs = sld_inner(dp.rho, duals[i], d_dual)
                    assert abs(lhs - z[i, j].imag) <= 1e-10
                    mixed = sld_inner(dp.rho, rduals[i], d_dual)
                    target = -1j * (gt_inv[i, j] - g_inv[i, j])
                    assert abs(mixed - target) <= 1e-10

    def test_d_invariant_span(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            dp = density_point(random_d_invariant_point(rng))
            ls = sld_operators(dp)
            duals = dual_operators(dp)
            _, _, z = operator_fisher(dp)
            for i in range(2):
                image = commutation_operator(dp, duals[i])
                recon = z.imag[0, i] * ls[0] + z.imag[1, i] * ls[1]
                assert np.abs(image - recon).max() <= 1e-9

    def test_d_invariant_dual_operators_coincide(self):
        # On D-invariant points Z = G~^-1 and the RLD dual operators equal
        # the SLD dual operators.
        rng = np.random.default_rng(90)
        for _ in range(100):
            m = random_d_invariant_point(rng)
            fm = fisher_matrices(m)
            assert np.abs(fm.z - fm.g_tilde_inv).max() <= 1e-10 * max(
                1.0, np.abs(fm.z).max()
            )
            dp = density_point(m)
            duals = dual_operators(dp)
            _, gt, _ = operator_fisher(dp)
            gt_inv = invert_2x2(gt)
            lts = rld_operators(dp)
            rduals = (
                gt_inv[0, 0] * lts[0] + gt_inv[1, 0] * lts[1],
                gt_inv[0, 1] * lts[0] + gt_inv[1, 1] * lts[1],
            )
            scale = max(1.0, max(np.abs(d).max() for d in duals))
            for d_op, r_op in zip(duals, rduals):
                assert np.abs(d_op - r_op).max() <= 1e-10 * scale

    def test_generic_residual_positive(self):
        rng = np.random.default_rng(78)
        positives = 0
        for _ in range(50):
            m = random_model_point(rng)
            dp = density_point(m)
            ls = sld_operators(dp)
            duals = dual_operators(dp)
            image = commutation_operator(dp, duals[0])
            gram = np.array(
                [[sld_inner(dp.rho, a, b).real for b in ls] for a in ls]
            )
            rhs = np.array([sld_inner(dp.rho, a, image).real for a in ls])
            coeff = np.linalg.solve(gram, rhs)
            resid = image - coeff[0] * ls[0] - coeff[1] * ls[1]
            norm = np.sqrt(sld_inner(dp.rho, resid, resid).real)
            if norm > 1e-6:
                positives += 1
        assert positives > 40  # generic points essentially never D-invariant


class TestHolevoFunction:
    def test_duals_reach_z_bound(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            m = random_model_point(rng)
            fb = fisher_bundle(m)
            fm = fisher_matrices(m)
            w = random_weight(rng)
            pair = pair_from_bloch_vectors(m, fm.dual1, fm.dual2)
            value = holevo_function(density_point(m), pair, w)
            assert value == pytest.approx(holevo_bound(fb, w).c_z, rel=1e-10)

    def test_d_invariant_duals_reach_rld_bound(self):
        rng = np.random.default_rng(80)
        for _ in range(50):
            m = random_d_invariant_point(rng)
            fb = fisher_bundle(m)
            fm = fisher_matrices(m)
            w = random_weight(rng)
            pair = pair_from_bloch_vectors(m, fm.dual1, fm.dual2)
            value = holevo_function(density_point(m), pair, w)
            rep = holevo_bound(fb, w)
            assert value == pytest.approx(rep.c_r, rel=1e-10)
            assert value == pytest.approx(rep.c_h, rel=1e-10)

    def test_weight_scaling(self):
        m = point([0.2, 0.1, 0.3])
        fm = fisher_matrices(m)
        pair = pair_from_bloch_vectors(m, fm.dual1, fm.dual2)
        dp = density_point(m)
        w = WeightMatrix(1.0, 0.2, 0.8)
        assert holevo_function(dp, pair, w.scaled(2.5)) == pytest.approx(
            2.5 * holevo_function(dp, pair, w), rel=1e-12
        )

    def test_infeasible_pair_rejected(self):
        dp = density_point(point([0.2, 0.1, 0.3]))
        bad = HermitianPair(x1=PAULI[0], x2=PAULI[1])
        with pytest.raises(FeasibilityError):
            holevo_function(dp, bad, WeightMatrix.identity())

    def test_bit_identical_to_definition(self):
        # The definition written out: X^i = -<s, x^i> I + sum_k x^i_k sigma_k,
        # Z_ij = tr(rho X^j X^i), value Tr(W Re Z) + TrAbs(W Im Z).
        def pauli_sum(s, v):
            return -float(s @ v) * np.eye(2, dtype=complex) + sum(
                v[k] * PAULI[k] for k in range(3)
            )

        # Operators alone (no feasibility needed), down to the sign of zero.
        entries = (0.0, -0.0, 0.7, -0.3)
        for s in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.1, -0.2, 0.3], [0.0, 0.0, -0.5]):
            m = point(s)
            for v in itertools.product(entries, repeat=3):
                pair = pair_from_bloch_vectors(m, v, v)
                assert pair.x1.tobytes() == pauli_sum(m.s, np.array(v)).tobytes()

        rng = np.random.default_rng(82)
        for _ in range(500):
            m = random_model_point(rng)
            w = random_weight(rng)
            fm = fisher_matrices(m)
            perp = np.cross(m.d1s, m.d2s)
            xi = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 1, size=2)
            vecs = (fm.dual1 + xi[0] * perp, fm.dual2 + xi[1] * perp)
            ops = [pauli_sum(m.s, v) for v in vecs]
            dp = density_point(m)
            z = np.array(
                [[np.trace(dp.rho @ ops[j] @ ops[i]) for j in range(2)] for i in range(2)]
            )
            wm = w.matrix
            expected = float(
                np.trace(wm @ z.real) + trabs(wm, (z.imag - z.imag.T) / 2)
            )
            pair = pair_from_bloch_vectors(m, *vecs)
            assert pair.x1.tobytes() == ops[0].tobytes()
            assert pair.x2.tobytes() == ops[1].tobytes()
            assert holevo_function(dp, pair, w) == expected

    def test_optimal_pair_attains_bound(self):
        # Observables built from the optimal offset reproduce the bound.
        rng = np.random.default_rng(81)
        for _ in range(50):
            m, w = random_generic_pair(rng)
            fm = fisher_matrices(m)
            rep = holevo_bound(fisher_bundle(m), w)
            perp = np.cross(m.d1s, m.d2s)
            x1 = fm.dual1 + rep.xi_star[0] * perp
            x2 = fm.dual2 + rep.xi_star[1] * perp
            pair = pair_from_bloch_vectors(m, x1, x2)
            value = holevo_function(density_point(m), pair, w)
            assert value == pytest.approx(rep.c_h, rel=1e-9)


class TestMinimizers:
    def test_2d_d_invariant(self):
        m = point([0, 0, 0.5])
        value, xi = minimize_holevo_2d(m, WeightMatrix.identity())
        assert value == pytest.approx(3.0, rel=1e-10)
        assert np.abs(xi).max() <= 1e-5

    def test_2d_matches_closed_form(self):
        rng = np.random.default_rng(82)
        for _ in range(60):
            m, w = random_generic_pair(rng)
            rep = holevo_bound(fisher_bundle(m), w)
            value, _ = minimize_holevo_2d(m, w)
            assert value == pytest.approx(rep.c_h, rel=1e-8)

    def test_2d_planar_matches_sld(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            m = random_planar_point(rng)
            w = random_weight(rng)
            rep = holevo_bound(fisher_bundle(m), w)
            value, _ = minimize_holevo_2d(m, w)
            assert value == pytest.approx(rep.c_s, rel=1e-8)

    def test_6d_matches_closed_form(self):
        rng = np.random.default_rng(84)
        for _ in range(40):
            m, w = random_generic_pair(rng)
            rep = holevo_bound(fisher_bundle(m), w)
            value = minimize_holevo_6d(density_point(m), w)
            assert value == pytest.approx(rep.c_h, rel=1e-8)

    @pytest.mark.parametrize("j", [10, 20])
    def test_both_accept_scaled_derivatives(self, j):
        # perp . d_i scales as |d|^3; the 2-d guard tests it relative to |perp||d_i|.
        rng = np.random.default_rng(85)
        for _ in range(20):
            m, w = random_generic_pair(rng)
            assert_oracle_matches(BlochModelPoint(m.s, np.ldexp(m.d1s, j), np.ldexp(m.d2s, j)), w)

    def test_6d_refuses_equal_derivatives(self):
        dp = density_point(point([0.1, 0.2, 0.3]))
        with pytest.raises(DegenerateModelError, match="constraint matrix is rank deficient"):
            minimize_holevo_6d(DensityPoint(dp.rho, dp.drho1, dp.drho1), WeightMatrix.identity())

    def test_6d_d_invariant(self):
        value = minimize_holevo_6d(
            density_point(point([0, 0, 0.5])), WeightMatrix.identity()
        )
        assert value == pytest.approx(3.0, rel=1e-8)


def both_minima(m, w):
    value_2d, _ = minimize_holevo_2d(m, w)
    return value_2d, minimize_holevo_6d(density_point(m), w)


def assert_oracle_matches(m, w, target="c_h"):
    """Both minima within 1e-8 of the closed form, never below C^H - 1e-10 |C^Z|."""
    rep = holevo_bound(fisher_bundle(m), w)
    expected = getattr(rep, target)
    for value in both_minima(m, w):
        assert abs(value - expected) <= 1e-8 * abs(expected)
        assert value >= rep.c_h - 1e-10 * abs(rep.c_z)
    return rep


def near_shell_points(delta, rng):
    """Random and unitary-family points at 1 - |s| = delta."""
    for _ in range(4):
        u = rng.normal(size=3)
        s = (1.0 - delta) * u / np.linalg.norm(u)
        yield BlochModelPoint(s=s, d1s=rng.normal(size=3), d2s=rng.normal(size=3))
    family = Unitary(radius=1.0 - delta)
    for _ in range(3):
        yield family.evaluate((rng.uniform(0.3, 2.8), rng.uniform(0.0, 6.2)))


class TestExactSolve:
    """Regression cases of the closed-form (kink-aware) minimizers."""

    def test_boundary_weights(self):
        # B[W] = 0: one stationary candidate lies on the kink line and ties
        # with the kink-line candidate.
        rng = np.random.default_rng(91)
        for _ in range(20):
            m, _ = random_generic_pair(rng)
            w = rng.uniform(-0.9, 0.9)
            weight = boundary_weight_family(fisher_bundle(m), w, np.sqrt(1.0 - w * w))
            assert_oracle_matches(m, weight)

    def test_d_invariant_points(self):
        # b = 0: there is no kink line.
        rng = np.random.default_rng(92)
        for _ in range(20):
            assert_oracle_matches(random_d_invariant_point(rng), random_weight(rng))

    def test_planar_points_reach_sld_bound(self):
        rng = np.random.default_rng(93)
        for _ in range(20):
            assert_oracle_matches(random_planar_point(rng), random_weight(rng), "c_s")

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_near_shell_points(self, delta):
        rng = np.random.default_rng(94)
        branches = set()
        for m in near_shell_points(delta, rng):
            for _ in range(3):
                branches.add(assert_oracle_matches(m, random_weight(rng)).branch)
        assert Branch.CORRECTION in branches

    def test_values_are_builtin_floats(self):
        # A numpy scalar here turns the perfbench tallies into numpy integers,
        # which json cannot write.
        rng = np.random.default_rng(95)
        pairs = {Branch.RLD: None, Branch.CORRECTION: None}
        while None in pairs.values():
            m, w = random_generic_pair(rng)
            pairs[holevo_bound(fisher_bundle(m), w).branch] = (m, w)
        m_gen = pairs[Branch.CORRECTION][0]
        cases = [
            (point([0, 0, 0.5]), WeightMatrix(1.0, 0.2, 0.7)),
            *pairs.values(),
            (m_gen, boundary_weight_family(fisher_bundle(m_gen), 0.3, np.sqrt(0.91))),
        ]
        for m, w in cases:
            value_2d, value_6d = both_minima(m, w)
            assert type(value_2d) is float
            assert type(value_6d) is float

    def test_certificate_tolerance(self):
        # The raw objective may sit a rounding error below the returned value
        # at a nearby point; a larger drop raises.  Model: 1 + 1e-6 |xi|^2.
        def solve_with_drop(drop):
            def fun(xi):
                return 1.0 + 1e-6 * (xi * xi).sum(axis=1) - np.where(xi.any(axis=1), drop, 0.0)

            return oracle._kink_minimum(
                fun, 1.0, np.zeros(2), 1e-6 * np.eye(2), np.zeros(2), 0.0
            )

        assert solve_with_drop(1e-15)[0] == 1.0
        with pytest.raises(OracleCertificateError, match="below its minimum"):
            solve_with_drop(10.0 * oracle.CERTIFICATE_RTOL)

    def test_fit_check_raises(self):
        # Coefficients that do not describe the raw objective are rejected.
        def fun(xi):
            return 1.0 + 2.0 * (xi * xi).sum(axis=1)

        with pytest.raises(OracleCertificateError, match="departs from its model"):
            oracle._kink_minimum(fun, 1.0, np.zeros(2), np.eye(2), np.zeros(2), 0.0)

    def test_one_stacked_call(self):
        # One call on the candidates stacked with every fit and certificate
        # probe of the model's lowest candidate, which is the raw minimum here.
        calls = []

        def fun(xi):
            calls.append(len(xi))
            return 1.0 + (xi * xi).sum(axis=1) + 2.0 * np.abs(xi[:, 0] - 0.5)

        value, xi = oracle._kink_minimum(
            fun, 1.0, np.zeros(2), np.eye(2), np.array([1.0, 0.0]), -0.5
        )
        assert value == pytest.approx(1.25) and xi == pytest.approx([0.5, 0.0])
        assert calls == [3 + 2 + 3 * 2 * len(oracle._CERTIFICATE_STEPS)]

    def test_second_call_when_raw_minimum_is_another_candidate(self):
        # Model 1 + |xi|^2 + 2|xi_1 - 0.5| ranks the kink-line candidate
        # (0.5, 0) lowest, but the raw objective is 10 lower exactly at the
        # stationary candidate (1, 0), whose probes then take a second call.
        calls = []

        def fun(xi):
            calls.append(len(xi))
            out = 1.0 + (xi * xi).sum(axis=1) + 2.0 * np.abs(xi[:, 0] - 0.5)
            return out - np.where((xi == [1.0, 0.0]).all(axis=1), 10.0, 0.0)

        value, xi = oracle._kink_minimum(
            fun, 1.0, np.zeros(2), np.eye(2), np.array([1.0, 0.0]), -0.5
        )
        assert value == -7.0 and xi.tolist() == [1.0, 0.0]
        n_probes = 2 + 3 * 2 * len(oracle._CERTIFICATE_STEPS)
        assert calls == [3 + n_probes, n_probes]

    def test_non_finite_raw_values_raise(self):
        # NaN passes every comparison of the fit and certificate checks.
        def solve(fun):
            oracle._kink_minimum(fun, 1.0, np.zeros(2), np.eye(2), np.zeros(2), 0.0)

        with pytest.raises(OracleCertificateError, match="not finite"):
            solve(lambda xi: np.full(len(xi), np.nan))
        for bad in (np.nan, np.inf):

            def fun(xi):
                out = 1.0 + (xi * xi).sum(axis=1)
                out[-1] = bad  # the last certificate probe
                return out

            with pytest.raises(OracleCertificateError, match="not finite"):
                solve(fun)

    def test_fit_check_precedes_certificate(self):
        # 1 + 2|xi|^2 minus 1e-7 away from 0: within the fit tolerance but not
        # the certificate's, which fails under the right model; under the wrong
        # one both fail, and the fit message wins.
        def fun(xi):
            return 1.0 + 2.0 * (xi * xi).sum(axis=1) - np.where(xi.any(axis=1), 1e-7, 0.0)

        def solve(a):
            oracle._kink_minimum(fun, 1.0, np.zeros(2), a, np.zeros(2), 0.0)

        with pytest.raises(OracleCertificateError, match="below its minimum"):
            solve(2.0 * np.eye(2))
        with pytest.raises(OracleCertificateError, match="departs from its model"):
            solve(np.eye(2))

    def test_no_finite_candidate(self):
        # A tiny A and a huge g overflow every candidate; fun is never called.
        def fun(xi):
            raise AssertionError("fun called")

        with np.errstate(over="ignore"), pytest.raises(
            OracleCertificateError, match="no finite candidate"
        ):
            oracle._kink_minimum(
                fun, 1.0, np.array([1e300, 0.0]), 1e-150 * np.eye(2), np.zeros(2), 0.0
            )


# Both minimizers on generic_z cases (theta0 = 0.2) as float.hex of value_2d,
# value_6d and xi*, recorded at commit 152dad4: an RLD-branch and a
# correction-branch weight from random_weight at two points, two weights from
# boundary_weight_family (B[W] = 0; entries written out) and the D-invariant
# point theta = (0, 0).  The first case's value_6d was re-recorded at commit
# 6c214ca, where TrAbs became sum |eig(W X)|: it moved by one ulp.
PINNED_ORACLE_BITS = [
    ((0.3, -0.25), (2.4468655557226846, -1.2287057625374183, 1.1301515503468968),  # rld
     '0x1.b16229ffc4c49p+1', '0x1.b16229ffc4c48p+1',
     '0x1.e56394224ed9dp-6', '-0x1.ced5480543f0bp-3'),
    ((0.3, -0.25), (1.3046090581628846, 0.06611519605023888, 1.786620566469605),  # correction
     '0x1.8e878dc4d9ad2p+1', '0x1.8e878dc4d9ad0p+1',
     '0x1.79526af5114c3p-2', '-0x1.d88f87d5f89f0p-3'),
    ((-0.41, 0.17), (1.2817376791724389, -1.0532366805901012, 1.1644234627132715),  # rld
     '0x1.120bbd3e37c34p+1', '0x1.120bbd3e37c36p+1',
     '-0x1.0110cd14da3a0p-1', '-0x1.70a4109ecad61p-2'),
    ((-0.41, 0.17), (0.42028650644816024, 0.2177004996858095, 0.1872342713893408),  # correction
     '0x1.23ecd6b0d1abcp-1', '0x1.23ecd6b0d1abcp-1',
     '-0x1.f4bf1552cdba4p-3', '0x1.61a620030cef8p-2'),
    ((0.12, 0.55), (0.14015120087500538, 0.07145096657330646, 1.0097530417180942),  # boundary
     '0x1.bd12cdeb9eb60p-1', '0x1.bd12cdeb9eb5ep-1',
     '0x1.d8e618f8bf7eap-3', '0x1.8bb636c01bba1p-3'),
    ((-0.3, -0.2), (1.5791723258989534, -0.255835411925353, 0.46436850250341405),  # boundary
     '0x1.0653f376fc33dp+1', '0x1.0653f376fc33dp+1',
     '-0x1.f13b13b13b13ep-3', '-0x1.0034834834835p-1'),
    ((0.0, 0.0), (1.0, 0.0, 1.0),  # D-invariant
     '0x1.3333333333333p+1', '0x1.3333333333333p+1',
     '0x0.0p+0', '0x0.0p+0'),
    ((0.0, 0.0), (0.7, -0.2, 0.4),  # D-invariant
     '0x1.4bc3fb1492408p+0', '0x1.4bc3fb1492408p+0',
     '0x0.0p+0', '0x0.0p+0'),
]


@pytest.mark.parametrize("case", PINNED_ORACLE_BITS)
def test_pinned_oracle_bits(case):
    theta, weight, *bits = case
    m = GenericZ(0.2).evaluate(theta)
    w = WeightMatrix(*weight)
    value_2d, xi = minimize_holevo_2d(m, w)
    value_6d = minimize_holevo_6d(density_point(m), w)
    assert [value_2d.hex(), value_6d.hex(), *(float(x).hex() for x in xi)] == bits


def test_one_raw_evaluation_per_solve(monkeypatch):
    # On every pinned case the model ranks the raw minimum lowest, so each
    # minimizer calls its raw objective once: on the candidates and the probes.
    kink_minimum = oracle._kink_minimum
    calls = []

    def counted(fun, *coefficients):
        def counted_fun(xi):
            calls[-1].append(len(xi))
            return fun(xi)

        return kink_minimum(counted_fun, *coefficients)

    monkeypatch.setattr(oracle, "_kink_minimum", counted)
    for theta, weight, *_ in PINNED_ORACLE_BITS:
        m = GenericZ(0.2).evaluate(theta)
        w = WeightMatrix(*weight)
        calls.append([])
        minimize_holevo_2d(m, w)
        calls.append([])
        minimize_holevo_6d(density_point(m), w)
    assert [len(sizes) for sizes in calls] == [1] * (2 * len(PINNED_ORACLE_BITS)), calls


class TestKinkProbes:
    def test_probes_are_the_written_out_points(self):
        # Every fit and certificate probe has the bits of its own
        # xi + scale u and xi + (+-h) scale d, for d = e1, e2 and the kink line.
        g = np.array([0.1, -0.2])
        for b in (np.array([0.3, -1.7]), np.zeros(2)):
            calls = []

            def fun(xi):
                calls.append(xi.copy())
                return 1.0 + 2.0 * xi @ g + (xi * xi).sum(axis=1) + 2.0 * np.abs(xi @ b - 0.25)

            _, xi = oracle._kink_minimum(fun, 1.0, g, np.eye(2), b, -0.25)
            scale = 1.0 + float(np.hypot(*xi))
            b_norm = float(np.hypot(*b))
            kink = [np.array([-b[1], b[0]]) / b_norm] if b_norm > 0.0 else []
            directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), *kink]
            probes = [xi + scale * u for u in oracle._FIT_PROBES] + [
                xi + sign * h * scale * d
                for d in directions for h in oracle._CERTIFICATE_STEPS for sign in (1, -1)
            ]
            assert len(calls) == 1 and len(calls[0]) == (3 if b.any() else 2) + len(probes)
            assert calls[0][-len(probes) :].tobytes() == np.array(probes).tobytes()

    def test_first_failing_probe_is_reported(self):
        # Two certificate probes fall below the minimum; the message gives the
        # drop of the first in probe order (+h before -h, larger h first):
        # 2e-3 less the h^2 = 1e-4 that the quadratic adds at h = 1e-2.
        n_probes = len(oracle._FIT_PROBES) + 2 * 2 * len(oracle._CERTIFICATE_STEPS)

        def fun(xi):
            out = 1.0 + (xi * xi).sum(axis=1)
            first = len(xi) - n_probes + len(oracle._FIT_PROBES)  # after the fit probes
            out[first + 3] -= 1e-3
            out[first] -= 2e-3
            return out

        with pytest.raises(OracleCertificateError, match=r"^raw objective is 1\.900e-03 below"):
            oracle._kink_minimum(fun, 1.0, np.zeros(2), np.eye(2), np.zeros(2), 0.0)


class TestStackedEvaluation:
    """Stacked raw evaluations return the bits of their one-item forms."""

    def test_holevo_values_matches_holevo_function(self):
        # 20 seeded points, 25 feasible pairs each, drawn as in
        # TestHolevoFunction.test_bit_identical_to_definition.
        rng = np.random.default_rng(83)
        for _ in range(20):
            m = random_model_point(rng)
            w = random_weight(rng)
            fm = fisher_matrices(m)
            perp = np.cross(m.d1s, m.d2s)
            xi = rng.normal(size=(25, 2)) * 10.0 ** rng.uniform(-3, 1, size=(25, 2))
            vecs1 = fm.dual1 + xi[:, :1] * perp
            vecs2 = fm.dual2 + xi[:, 1:] * perp
            dp = density_point(m)
            stacked = oracle._holevo_values(dp.rho, w.matrix, np.stack(
                [oracle._bloch_operator(m.s, vecs1), oracle._bloch_operator(m.s, vecs2)], axis=1
            ))
            one_by_one = [
                holevo_function(dp, pair_from_bloch_vectors(m, v1, v2), w)
                for v1, v2 in zip(vecs1, vecs2)
            ]
            assert stacked.tobytes() == np.array(one_by_one).tobytes()

    def test_trabs_matches_one_x(self):
        rng = np.random.default_rng(84)
        wms = np.array([random_weight(rng).matrix for _ in range(1000)])
        xms = rng.normal(size=(1000, 2, 2)) * 10.0 ** rng.uniform(-3, 3, size=(1000, 1, 1))
        xms[::2] -= xms[::2].swapaxes(1, 2)  # antisymmetric, as oracle Im Z is
        stacked = trabs(wms, xms)
        one_by_one = [trabs(wm, xm) for wm, xm in zip(wms, xms)]
        assert all(type(v) is float for v in one_by_one)
        assert stacked.tobytes() == np.array(one_by_one).tobytes()


class TestGridQuadraticOracle:
    def test_named_cases(self):
        assert grid_min_quadratic_abs(np.eye(2), np.zeros(2), 5.0) == pytest.approx(
            10.0, abs=1e-6
        )
        assert grid_min_quadratic_abs(
            np.eye(2), np.array([1.0, 0.0]), 2.0
        ) == pytest.approx(3.0, abs=1e-6)
        assert grid_min_quadratic_abs(
            2.0 * np.eye(2), np.array([0.0, 1.0]), 0.25
        ) == pytest.approx(0.125, abs=1e-6)

    def test_random_against_closed_form(self):
        rng = np.random.default_rng(85)
        for _ in range(30):
            mat = rng.standard_normal((2, 2))
            a = mat.T @ mat + 0.3 * np.eye(2)
            b = rng.standard_normal(2)
            c = float(2.0 * rng.standard_normal())
            closed, _ = quadratic_abs_min(a, b, c)
            assert grid_min_quadratic_abs(a, b, c) == pytest.approx(closed, abs=1e-6)

    def test_boundary_cases(self):
        rng = np.random.default_rng(86)
        for _ in range(10):
            mat = rng.standard_normal((2, 2))
            a = mat.T @ mat + 0.3 * np.eye(2)
            b = rng.standard_normal(2)
            alpha = float(b @ np.linalg.inv(a) @ b)
            for c in (alpha, alpha * (1 + 1e-9), alpha * (1 - 1e-9)):
                closed, _ = quadratic_abs_min(a, b, c)
                assert grid_min_quadratic_abs(a, b, c) == pytest.approx(
                    closed, abs=1e-6
                )

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(87)
        mat = rng.standard_normal((2, 2))
        a = mat.T @ mat + 0.2 * np.eye(2)
        b = rng.standard_normal(2)
        c = 0.7

        def f(xi):
            return float(xi @ a @ xi) + 2.0 * abs(float(b @ xi) + c)

        for _ in range(100):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            mid = f(0.5 * (x + y))
            assert mid <= 0.5 * (f(x) + f(y)) + 1e-12
