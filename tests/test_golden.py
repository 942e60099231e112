"""The user-visible outputs, byte for byte, against ``tests/golden/MANIFEST.json``
and the full text of the small outputs in ``tests/golden/``, and the
``tools/sweep_diff.py`` gate that a sweep change is judged by.

``tools/golden.py --write`` rewrites the small outputs, and the manifest when
a hash or version moved; a change that does so says which output changed and why.
"""

import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import golden  # noqa: E402
import sweep_diff  # noqa: E402

import holevo2q.oracle  # noqa: E402
from test_cli import run_python  # noqa: E402


def test_manifest_covers_the_golden_paths():
    manifest = golden.load_manifest()
    assert list(manifest["sha256"]) == list(golden.GOLDEN)
    assert set(golden.GOLDEN) <= set(golden.PATHS)
    assert manifest["numpy"] and manifest["python"] and manifest["machine"]
    stored = {p.name for p in Path(golden.GOLDEN_DIR).iterdir()} - {"MANIFEST.json"}
    assert stored == set(golden.KEPT)


def test_a_changed_small_output_is_shown():
    # A flipped digit in one JSON line and one CSV row of the stored text.
    result = {}
    for name in golden.KEPT:
        result[name] = (Path(golden.GOLDEN_DIR) / name).read_bytes()
    assert golden.small_problems(result) == []
    json_name, csv_name = "bounds_planar.json", "sweep_theta_grid11.csv"
    result[json_name] = result[json_name].replace(b'"c_s": 1', b'"c_s": 2')
    lines = result[csv_name].splitlines(keepends=True)
    lines[2] = lines[2].replace(b",0.", b",1.", 1)
    result[csv_name] = b"".join(lines)
    problems = "\n".join(golden.small_problems(result))
    assert f"{json_name}: differs" in problems and '+  "c_s": 2' in problems
    assert f"{csv_name}: differs" in problems
    assert "rows differing by at least one byte: 1" in problems


def _with_field(text: str, column: str, value: str) -> str:
    """The sweep CSV ``text`` with ``column`` of its third data row set to ``value``."""
    lines = text.splitlines(keepends=True)
    fields = lines[4].rstrip("\n").split(",")
    fields[lines[1].rstrip("\n").split(",").index(column)] = value
    return "".join([*lines[:4], ",".join(fields) + "\n", *lines[5:]])


def test_sweep_diff_gates_on_labels_flags_and_headers():
    text = (Path(golden.GOLDEN_DIR) / "sweep_theta_grid11.csv").read_text()
    for column, old, new in (("branch", "correction", "rld"), ("d_invariant", "0", "1")):
        summary, code = sweep_diff.compare(text, _with_field(text, column, new))
        assert code == 1, summary
        assert summary.endswith(f"label/flag changes: 1\n  row 2: {column} {old} -> {new}")
    summary, code = sweep_diff.compare(text, text.replace("sweep-theta", "sweep-weight", 1))
    assert code == 1 and summary.startswith("not comparable: '# holevo2q sweep-theta")
    # c_s = 0.648 one ulp up: reported, but no gate.
    summary, code = sweep_diff.compare(text, _with_field(text, "c_s", "0.64800000000000013"))
    assert code == 0 and "rows differing by at least one byte: 1" in summary
    assert "c_s                        max rel diff 1.713e-16" in summary


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


def test_write_keeps_an_unchanged_manifest(computed, tmp_path, monkeypatch):
    # --write leaves the manifest alone, commit included, when every hash and
    # version holds; a moved hash rewrites it.
    manifest = golden.load_manifest()
    if golden.version_mismatch(manifest) or manifest["python"] != platform.python_version():
        pytest.skip("the manifest was written under another numpy or Python")
    original, copy = Path(golden.GOLDEN_DIR), tmp_path / "golden"
    shutil.copytree(original, copy)
    monkeypatch.setattr(golden, "GOLDEN_DIR", str(copy))
    monkeypatch.setattr(golden, "MANIFEST", str(copy / "MANIFEST.json"))
    stored = (copy / "MANIFEST.json").read_bytes()
    assert golden.write(computed[1]) is False
    assert (copy / "MANIFEST.json").read_bytes() == stored
    for name in golden.KEPT:
        assert (copy / name).read_bytes() == (original / name).read_bytes(), name
    moved = {**manifest, "sha256": {**manifest["sha256"], "bounds": "0" * 64}}
    (copy / "MANIFEST.json").write_text(json.dumps(moved))
    assert golden.write(computed[1]) is True
    assert golden.load_manifest()["sha256"] == manifest["sha256"]


def test_a_differing_hashed_csv_gets_its_column_diff(computed):
    # The CSV that HEAD's src/ writes, against this run's, in tools/sweep_diff.py terms.
    head = subprocess.run(["git", "-C", golden.ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    manifest = golden.load_manifest()
    if head.returncode or golden.version_mismatch(manifest):
        pytest.skip("no git checkout, or the manifest was written under another numpy")
    manifest = {**manifest, "commit": head.stdout.strip(),
                "sha256": {**manifest["sha256"], "sweep_theta": "0" * 64}}
    problems = golden.check(manifest, computed[1])
    assert problems[0].startswith("sweep_theta: sha256 "), problems
    assert problems[1].startswith("rows compared: 7825\nrows differing by at least one byte: 0\n")


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
