"""The user-visible outputs, byte for byte, against ``tests/golden/MANIFEST.json``.

``tools/golden.py --write`` rewrites the manifest; a change that does so says
which output changed and why.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import golden  # noqa: E402

import holevo2q.oracle  # noqa: E402


def test_manifest_covers_the_golden_paths():
    manifest = golden.load_manifest()
    assert list(manifest["sha256"]) == list(golden.GOLDEN)
    assert set(golden.GOLDEN) <= set(golden.PATHS)
    assert manifest["numpy"] and manifest["python"] and manifest["machine"]


def test_outputs_match_the_manifest():
    manifest = golden.load_manifest()
    reason = golden.version_mismatch(manifest)
    if reason:
        pytest.skip(reason)
    problems = golden.check(manifest)
    assert not problems, "\n".join(problems)


def test_another_numpy_version_names_both():
    reason = golden.version_mismatch({"numpy": "0.0.0"})
    assert "0.0.0" in reason and golden.np.__version__ in reason
    assert golden.version_mismatch({"numpy": golden.np.__version__}) is None


def test_outputs_leave_no_perfbench_module_loaded(tmp_path):
    # oracle_values imports perfbench's run, checks and tracer as top-level
    # modules; holevo2q's modules stay, so no second copy of a class is built.
    oracle = sys.modules["holevo2q.oracle"]
    golden.outputs(str(tmp_path))
    assert not {"run", "checks", "tracer"} & set(sys.modules)
    assert sys.modules["holevo2q.oracle"] is oracle
