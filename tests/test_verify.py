"""Verification-suite surface: report structure, thresholds, failing runs."""

import ast
import re

import numpy as np
import pytest

from holevo2q import verify
from holevo2q.bloch import BlochModelPoint
from holevo2q.bounds import WeightMatrix, holevo_bound
from holevo2q.fisher import fisher_bundle
from holevo2q.matrix_forms import fisher_matrices
from holevo2q.oracle import minimize_holevo_2d
from holevo2q.verify import run_verification
from reference import fisher_determinant_identities

WITNESS = re.compile(r"s=(\[.*?\]) d1s=(\[.*?\]) d2s=(\[.*?\])(?: W=(\(.*?\)))?$")


def parse_witness(text):
    s, d1s, d2s, w = WITNESS.fullmatch(text).groups()
    point = BlochModelPoint(
        s=ast.literal_eval(s), d1s=ast.literal_eval(d1s), d2s=ast.literal_eval(d2s)
    )
    return point, (WeightMatrix(*ast.literal_eval(w)) if w else None)


def test_small_run_all_checks_pass():
    report = run_verification(seed=123, count=8)
    assert report.passed
    names = {row.name for row in report.rows}
    expected = {
        "sld_defining_equation",
        "rld_defining_equation",
        "cross_path_sld_fisher",
        "cross_path_rld_fisher",
        "cross_path_z_matrix",
        "identity_quadratic_determinant",
        "identity_trabs_forms",
        "identity_gamma_gap",
        "im_z_equals_im_rld_inverse",
        "rank_one_law",
        "sld_rld_vector_consistency",
        "dual_orthogonality",
        "perp_gamma_relations",
        "determinant_chain",
        "commutation_reconstruction",
        "commutation_sld_pairing",
        "commutation_mixed_pairing",
        "bound_inequality_chain",
        "bounds_vs_matrix_forms",
        "holevo_vs_reduced_search",
        "holevo_vs_constrained_search",
        "z_bound_from_duals",
    }
    assert names == expected
    text = report.table()
    assert "check" in text and "ok" in text and "branches:" in text


def test_reproducible_for_fixed_seed():
    a = run_verification(seed=9, count=5)
    b = run_verification(seed=9, count=5)
    assert [(r.name, r.value) for r in a.rows] == [(r.name, r.value) for r in b.rows]


def test_injected_failure_reports_witness(monkeypatch):
    monkeypatch.setitem(verify.TOLERANCES, "cross_path_sld_fisher", 0.0)
    report = run_verification(seed=9, count=3)
    assert not report.passed
    failing = [row for row in report.rows if not row.ok]
    assert failing and all(row.name == "cross_path_sld_fisher" for row in failing)
    assert failing[0].witness  # reproduction data for the worst instance


def test_witnesses_replay_bit_for_bit():
    report = run_verification(seed=9, count=3)
    rows = {row.name: row for row in report.rows}

    for name in ("identity_quadratic_determinant", "identity_trabs_forms", "identity_gamma_gap"):
        m, w = parse_witness(rows[name].witness)
        assert fisher_determinant_identities(m, w)[name] == rows[name].value

    row = rows["holevo_vs_reduced_search"]
    m, w = parse_witness(row.witness)
    c_h = holevo_bound(fisher_bundle(m), w).c_h
    value_2d, _ = minimize_holevo_2d(m, w)
    assert abs(value_2d - c_h) / abs(c_h) == row.value

    m, w = parse_witness(rows["sld_defining_equation"].witness)
    assert w is None  # checks that draw no weight print none


def test_ill_conditioned_mixed_pairing_witness_passes():
    # cond G = 2,756 at this instance.  The absolute pairing residual of
    # 1.76e-10 is the rounding of G^-1 and G~^-1 (an mpmath evaluation of the
    # same pairing from the same inputs gives 7e-56); relative to the scale
    # of those terms (|G^-1| = 668) it is 2.6e-13.
    report = run_verification(seed=2127877499, count=8)
    rows = {row.name: row for row in report.rows}
    assert rows["commutation_mixed_pairing"].value <= 1e-12
    assert report.passed


def test_kink_valley_reduced_search_witness_passes():
    # At the worst instance of this run the minimum sits in the valley along
    # the kink line of the reduced objective, where a simplex search had
    # stopped 1.97e-7 (relative) above it; the closed-form candidate on the
    # kink line reaches it.
    report = run_verification(seed=1655880657, count=16)
    rows = {row.name: row for row in report.rows}
    assert rows["holevo_vs_reduced_search"].value <= 1e-12
    assert report.passed


def test_one_fisher_bundle_per_point(monkeypatch):
    # Each sampled point builds its bundle once, as the guard of fisher_matrices;
    # the checks, the bounds and the reduced search read it from that record.
    import holevo2q.fisher
    import holevo2q.matrix_forms

    calls = []
    original = holevo2q.fisher.fisher_bundle_many

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(holevo2q.fisher, "fisher_bundle_many", counted)
    monkeypatch.setattr(holevo2q.matrix_forms, "fisher_bundle_many", counted)
    before = run_verification(seed=7, count=3).table()
    assert len(calls) == 2 * 3
    monkeypatch.undo()
    assert run_verification(seed=7, count=3).table() == before


def test_operators_solved_once_per_point(monkeypatch):
    # The first loop solves each point's SLD and RLD operators once and takes G
    # and the SLD duals from them; each point of either loop has one density point.
    import holevo2q.oracle
    import holevo2q.verify

    calls = {"sld_operators": 0, "rld_operators": 0, "density_point": 0}
    for name in calls:
        original = getattr(holevo2q.oracle, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (holevo2q.oracle, holevo2q.verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    before = run_verification(seed=7, count=3).table()
    assert calls == {"sld_operators": 3, "rld_operators": 3, "density_point": 2 * 3}
    monkeypatch.undo()
    assert run_verification(seed=7, count=3).table() == before


def test_trabs_pair_evaluated_once_per_weight_instance(monkeypatch):
    calls = []
    original = verify.trabs

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(verify, "trabs", counted)
    assert run_verification(seed=5, count=4).passed
    assert len(calls) == 4


def test_verify_admits_each_drawn_point_once(monkeypatch):
    # _point_checks reads the random_model_point draws and _oracle_checks fresh
    # random_generic_pair draws, so no instance is admitted as a density point twice.
    import holevo2q.oracle

    admitted = []
    original = holevo2q.oracle.DensityPoint.__post_init__

    def counted(self):
        original(self)
        admitted.append(self.rho.tobytes())

    monkeypatch.setattr(holevo2q.oracle.DensityPoint, "__post_init__", counted)
    run_verification(seed=42, count=20)
    assert len(admitted) == len(set(admitted)) == 40


_POINT_1000098 = ("s=[0.012052312442411625, -0.5614217356020083, 0.6480886835141616] "
                  "d1s=[-0.04247739873330214, 1.272367340731243, 0.8550555024174101] "
                  "d2s=[-0.011960292146723539, 0.6191950216000527, 0.4186461985878906]")


# Rows that run_verification(seed, count) fails on a correct program, with the
# witness it prints: the residual is rounding at the scale of Z (ROADMAP item 21).
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 21: verify fails on a correct program")
@pytest.mark.parametrize("row, witness", [
    pytest.param("im_z_equals_im_rld_inverse",
                 "s=[0.48423222568061464, -0.3111342664318668, -0.1589946755957675] "
                 "d1s=[0.36946511073620225, 0.6295323225339271, -1.6061697536245123] "
                 "d2s=[-0.3665345856830869, -0.6527219902618987, 1.7011398276848981]",
                 id="seed-1000137"),
    pytest.param("im_z_equals_im_rld_inverse",
                 "s=[0.7653239490165233, 0.20604054926513143, -0.2515212032804555] "
                 "d1s=[0.06614108197504553, -0.24790381770403414, -0.4140241720555856] "
                 "d2s=[0.16653613075901097, -0.7466179764584401, -1.2657939997685719]",
                 id="seed-1000052"),
    pytest.param("im_z_equals_im_rld_inverse", _POINT_1000098, id="seed-1000098"),
    pytest.param("identity_gamma_gap",
                 _POINT_1000098 + " W=(1.2475645004466542, -0.1894919523753648, "
                 "0.09230059663412671)", id="seed-1000098-gamma-gap"),
    pytest.param("im_z_equals_im_rld_inverse",
                 "s=[0.3802961262299353, 0.14130374030224868, 0.1561660371355943] "
                 "d1s=[0.44747170028134353, 1.2757940823546503, -0.8619592869284723] "
                 "d2s=[-0.24490790671092247, -0.6258215727793017, 0.46097797628754855]",
                 id="seed-42-count-2000"),
])
def test_item_21_witness_within_tolerance(row, witness):
    m, w = parse_witness(witness)
    fm = fisher_matrices(m)
    checks = verify._point_checks(fm) if w is None else verify._weight_checks(fm, w)
    assert float(np.max(checks[row])) <= verify.TOLERANCES[row]
