"""scripts/compare_outputs.py compare: the per-file statuses, the count
line and the verdict on the files that carry results, on small trees."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture
def script(monkeypatch):
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def trees(tmp_path, a, b):
    """Write {relative name: text} trees a and b under tmp_path."""
    roots = []
    for side, files in (("a", a), ("b", b)):
        root = tmp_path / side
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        root.mkdir(exist_ok=True)
        roots.append(str(root))
    return roots


def run(script, capsys, tmp_path, a, b):
    code = script.compare(*trees(tmp_path, a, b))
    return code, capsys.readouterr().out.splitlines()


FILES = {
    "fig3a/fig3a_success.csv": "M,rate\n20,0.5\n",
    "cluster-h1/out/0/labels.csv": "0\n1\n",
    "cluster-h1/out/0/trace.csv": "iteration,objective\n0,12.5\n1,10.25\n",
}


def test_identical_trees(script, capsys, tmp_path):
    code, lines = run(script, capsys, tmp_path, FILES, FILES)
    assert code == 0
    assert lines[:3] == [f"identical  {name}" for name in sorted(FILES)]
    assert lines[3] == "3 identical, 0 moved, 0 differs, 0 missing"
    assert lines[4] == "results that must not move: 2 of 2 identical"


def test_moved_numbers_report_their_largest_gaps(script, capsys, tmp_path):
    b = dict(FILES)
    b["cluster-h1/out/0/trace.csv"] = "iteration,objective\n0,12.5\n1,10.5\n"
    code, lines = run(script, capsys, tmp_path, FILES, b)
    assert code == 1
    # |10.25 - 10.5| = 0.25, relative to the larger 10.5
    assert "moved      cluster-h1/out/0/trace.csv max abs 0.25, max rel 0.0238" in lines
    assert lines[-2] == "2 identical, 1 moved, 0 differs, 0 missing"
    assert lines[-1] == "results that must not move: 2 of 2 identical"


def test_a_moved_result_fails_the_verdict(script, capsys, tmp_path):
    b = dict(FILES)
    b["fig3a/fig3a_success.csv"] = "M,rate\n20,0.55\n"
    code, lines = run(script, capsys, tmp_path, FILES, b)
    assert code == 1
    assert lines[-1] == (
        "results that must not move: 1 of 2 identical; not identical: fig3a/fig3a_success.csv"
    )


@pytest.mark.parametrize(
    "text",
    ["0\n2\n0\n", "0\nx\n", "0\nnan\n"],
    ids=["shape", "text", "not-finite"],
)
def test_other_changes_differ(script, capsys, tmp_path, text):
    b = dict(FILES)
    b["cluster-h1/out/0/labels.csv"] = text
    code, lines = run(script, capsys, tmp_path, FILES, b)
    assert code == 1
    assert "differs    cluster-h1/out/0/labels.csv" in lines
    assert lines[-2] == "2 identical, 0 moved, 1 differs, 0 missing"
    assert lines[-1].endswith("; not identical: cluster-h1/out/0/labels.csv")


def test_missing_files_name_the_tree_without_them(script, capsys, tmp_path):
    a = dict(FILES, **{"oracle/oracle_check.json": '{"ok": true}\n'})
    b = {k: v for k, v in FILES.items() if k != "cluster-h1/out/0/trace.csv"}
    code, lines = run(script, capsys, tmp_path, a, b)
    assert code == 1
    assert f"missing    cluster-h1/out/0/trace.csv (not in {tmp_path / 'b'})" in lines
    assert f"missing    oracle/oracle_check.json (not in {tmp_path / 'b'})" in lines
    assert lines[-2] == "2 identical, 0 moved, 0 differs, 2 missing"
    assert lines[-1] == (
        "results that must not move: 2 of 3 identical; not identical: oracle/oracle_check.json"
    )
    _, lines = run(script, capsys, tmp_path / "swapped", b, a)
    assert f"missing    oracle/oracle_check.json (not in {tmp_path / 'swapped' / 'a'})" in lines


def test_the_results_are_every_labels_grid_oracle_theory_and_wine_summary_file(script):
    results = [
        "cluster-lp/out/3/labels.csv", "fig4-dataset1_p0.5/fig4-dataset1_labels.csv",
        "fig3a/fig3a_success.csv", "fig3c/fig3c_success.csv",
        "oracle/oracle_check.json", "fig2/fig2_guarantees.csv", "wine/wine_summary.csv",
    ]
    others = [
        "cluster-lp/out/3/centroids.csv", "cluster-lp/out/3/trace.csv",
        "fig4-dataset1_p0.5/fig4-dataset1_pca.csv", "wine/wine_pca_p0.3.csv",
        "cluster-h1/in/0.csv", "wine.data",
    ]
    assert all(script.FIXED.search(name) for name in results)
    assert not any(script.FIXED.search(name) for name in others)
