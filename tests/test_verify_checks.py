"""The verification runner's reduction: NaN residuals fail their rows, and the
check functions and ``TOLERANCES`` name the same checks."""

import math

import pytest

from holevo2q import cli, verify
from holevo2q.errors import ModelError
from holevo2q.verify import run_verification

PAIRINGS = ("commutation_sld_pairing", "commutation_mixed_pairing")


def nan_inner(monkeypatch):
    monkeypatch.setattr(verify, "sld_inner", lambda rho, x, y: complex(math.nan, 0.0))


def test_nan_residual_is_the_worst_and_fails(monkeypatch):
    clean = {row.name: row for row in run_verification(seed=9, count=3).rows}
    nan_inner(monkeypatch)
    report = run_verification(seed=9, count=3)
    assert not report.passed
    for row in report.rows:
        if row.name in PAIRINGS:
            assert math.isnan(row.value) and not row.ok and row.witness
        else:
            assert row == clean[row.name]
    lines = {line.split()[0]: line.split()[1:] for line in report.table().splitlines()[2:]}
    for name in PAIRINGS:
        assert lines[name] == ["nan", "1.0e-10", "FAIL"]


def test_nan_residual_fails_the_command(monkeypatch, capsys):
    nan_inner(monkeypatch)
    assert cli.main(["verify", "--seed", "9", "--count", "3"]) == 1
    out = capsys.readouterr().out
    assert "verify: FAILED checks: commutation_sld_pairing, commutation_mixed_pairing" in out


def test_tolerance_without_a_check_raises(monkeypatch):
    # A bug, not invalid input: not a ModelError, so the CLI does not exit 2 on it.
    monkeypatch.setitem(verify.TOLERANCES, "unknown_check", 1.0)
    match = "tolerances without a check: \\['unknown_check'\\]"
    with pytest.raises(RuntimeError, match=match) as info:
        run_verification(seed=9, count=1)
    assert not isinstance(info.value, ModelError)


def test_check_without_a_tolerance_raises(monkeypatch):
    original = verify._oracle_checks
    monkeypatch.setattr(verify, "_oracle_checks",
                        lambda *args: {**original(*args), "unknown_check": 0.0})
    with pytest.raises(RuntimeError, match="checks without a tolerance: \\['unknown_check'\\]"):
        run_verification(seed=9, count=1)


def test_nonpositive_count_invalid():
    with pytest.raises(ModelError, match="count must be a positive integer"):
        run_verification(seed=9, count=0)
