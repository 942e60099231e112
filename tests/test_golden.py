"""The user-visible outputs, byte for byte, against ``tests/golden/MANIFEST.json``
and the full text of the small outputs in ``tests/golden/``.

``tools/golden.py --write`` rewrites the manifest and the small outputs; a
change that does so says which output changed and why.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import golden  # noqa: E402

import holevo2q.oracle  # noqa: E402
from test_cli import run_python  # noqa: E402


def test_manifest_covers_the_golden_paths():
    manifest = golden.load_manifest()
    assert list(manifest["sha256"]) == list(golden.GOLDEN)
    assert set(golden.GOLDEN) <= set(golden.PATHS)
    assert manifest["numpy"] and manifest["python"] and manifest["machine"]
    stored = {p.name for p in Path(golden.GOLDEN_DIR).iterdir()} - {"MANIFEST.json"}
    assert stored == set(golden.KEPT)


def test_a_changed_small_output_is_shown(tmp_path):
    # A flipped digit in one JSON line and one CSV row of the stored text.
    result = {}
    for name in golden.KEPT:
        result[name] = (Path(golden.GOLDEN_DIR) / name).read_bytes()
    assert golden.small_problems(result, str(tmp_path)) == []
    json_name, csv_name = "bounds_planar.json", "sweep_theta_grid11.csv"
    result[json_name] = result[json_name].replace(b'"c_s": 1', b'"c_s": 2')
    lines = result[csv_name].splitlines(keepends=True)
    lines[2] = lines[2].replace(b",0.", b",1.", 1)
    result[csv_name] = b"".join(lines)
    problems = "\n".join(golden.small_problems(result, str(tmp_path)))
    assert f"{json_name}: differs" in problems and '+  "c_s": 2' in problems
    assert f"{csv_name}: differs" in problems
    assert "rows differing by at least one byte: 1" in problems


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    """(holevo2q.oracle before the run, the golden outputs), computed once."""
    oracle = sys.modules["holevo2q.oracle"]
    return oracle, golden.outputs(str(tmp_path_factory.mktemp("golden")))


def test_outputs_match_the_manifest(computed):
    manifest = golden.load_manifest()
    reason = golden.version_mismatch(manifest)
    if reason:
        pytest.skip(reason)
    problems = golden.check(manifest, computed[1])
    assert not problems, "\n".join(problems)


def test_refusal_corpus(computed):
    # Each case is refused with exit 2, no output and one stderr line.
    # test_outputs_match_the_manifest compares the corpus with its stored text.
    corpus = json.loads(computed[1][golden.REFUSALS_FILE])
    assert list(corpus) == list(golden.REFUSALS)
    no_output = golden._sha256(b"")
    for name, (code, stdout_sha256, stderr) in corpus.items():
        assert (code, stdout_sha256) == (2, no_output), name
        assert stderr.endswith("\n") and stderr.count("\n") == 1, name


def test_refusal_corpus_under_optimization(computed, tmp_path):
    # Under python -O no assert guards an input, and under -W error no numpy
    # warning is printed on the way to a refusal: the refusals stay the same.
    tools = str(Path(golden.__file__).parent)
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import golden; "
            "print(json.dumps(golden.refusals(sys.argv[2])))")
    for flags in (["-O"], ["-W", "error::RuntimeWarning"]):
        proc = run_python(*flags, "-c", code, tools, str(tmp_path))
        assert proc.returncode == 0, (flags, proc.stderr)
        assert json.loads(proc.stdout) == json.loads(computed[1][golden.REFUSALS_FILE]), flags


def test_another_numpy_version_names_both():
    reason = golden.version_mismatch({"numpy": "0.0.0"})
    assert "0.0.0" in reason and golden.np.__version__ in reason
    assert golden.version_mismatch({"numpy": golden.np.__version__}) is None


def test_outputs_leave_no_perfbench_module_loaded(computed):
    # oracle_values imports perfbench's run, checks and tracer as top-level
    # modules; holevo2q's modules stay, so no second copy of a class is built.
    oracle = computed[0]
    assert not {"run", "checks", "tracer"} & set(sys.modules)
    assert sys.modules["holevo2q.oracle"] is oracle
