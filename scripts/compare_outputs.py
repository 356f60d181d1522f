#!/usr/bin/env python3
"""Write a fixed set of CLI outputs, or compare two such sets file by file.

    compare_outputs.py write OUT      # run every invocation into OUT
    compare_outputs.py compare A B    # exit 1 unless every file is identical

``write`` runs the invocations below with whichever ``fusecluster`` is
importable (put a tree's ``src`` on PYTHONPATH to choose one).  Each runs
from inside OUT with relative ``--out-dir`` and input paths, so its ``argv``
header reads the same for every tree and output directory.  The set:

- the full ``fig3a`` and ``fig3c`` success grids;
- ``fig4-dataset1`` and ``fig4-dataset2`` at ``--p0 0.5`` and ``--p0 1.0``;
- ``theory --preset fig2``;
- ``oracle-check --seed 3 --trials 500``;
- the benchmark's ``cluster-h1`` inputs (seed 7, invocations 0-1) and
  ``cluster-lp`` inputs (seed 7, invocations 0-3), from bench/workloads.py;
- ``wine`` on a synthetic 178 x 13 table in the UCI layout.

``compare`` reports each file as identical, moved (numbers differ in
value only; with the largest absolute and relative difference), differs
(text or shape differs) or missing.  Its last line says whether every file
that carries a result no rounding may change is identical: the labels
files, the success grids, ``oracle_check.json``, ``fig2_guarantees.csv``
and ``wine_summary.csv``.
"""

import argparse
import contextlib
import importlib.util
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
CLUSTER_INPUTS = (("cluster-h1", 7, range(2)), ("cluster-lp", 7, range(4)))
# Partitions, grid cells and the oracle's, theory's and Wine summary's
# numbers: files a change of rounding alone must leave identical.
FIXED = re.compile(
    r"(labels\.csv|_success\.csv|oracle_check\.json"
    r"|fig2_guarantees\.csv|wine_summary\.csv)$"
)


def _invocations():
    """(directory, argv) pairs; the cluster ones are made by their workload."""
    yield ".", ["theory", "--preset", "fig2", "--out-dir", "fig2"]
    for preset in ("fig3a", "fig3c"):
        yield ".", ["simulate", "--preset", preset, "--out-dir", preset]
    for preset in ("fig4-dataset1", "fig4-dataset2"):
        for p0 in ("0.5", "1.0"):
            out = f"{preset}_p{p0}"
            yield ".", ["simulate", "--preset", preset, "--p0", p0, "--out-dir", out]
    yield ".", ["oracle-check", "--seed", "3", "--trials", "500", "--out-dir", "oracle"]
    workloads = _load_bench_workloads()
    for name, seed, indices in CLUSTER_INPUTS:
        os.makedirs(name, exist_ok=True)
        workload = workloads.WORKLOADS[name](seed)
        for index in indices:
            with _cwd(name):
                argv = workload.prepare(index, ".")
            yield name, argv
    _write_synthetic_wine("wine.data")
    yield ".", ["wine", "--wine-csv", "wine.data", "--out-dir", "wine"]


def _load_bench_workloads():
    """Load bench/workloads.py without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _write_synthetic_wine(path):
    """The Wine table's shape without its values: 13 random features,
    classes 1..3 of sizes 59/71/48 in shuffled order (as in the tests)."""
    rng = np.random.default_rng(178)
    labels = rng.permutation(np.repeat([1, 2, 3], [59, 71, 48]))
    scales = rng.uniform(0.5, 20.0, size=13)
    features = (rng.normal(size=(178, 13)) + labels[:, None]) * scales
    lines = ["# synthetic table in the UCI Wine layout"]
    for label, row in zip(labels, features):
        lines.append(",".join([str(int(label))] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


@contextlib.contextmanager
def _cwd(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def write(out):
    from fusecluster.cli import main  # compare runs without the package

    os.makedirs(out, exist_ok=True)
    failed = 0
    with _cwd(out):
        for directory, argv in _invocations():
            with _cwd(directory):
                code = main(argv)
            print(f"exit {code}: {' '.join(argv)}")
            failed += code != 0
    return 1 if failed else 0


_TOKEN = re.compile(r"([\s,:\[\]{}\"]+)")


def _as_float(token):
    try:
        return float(token)
    except ValueError:
        return None


def _difference(a, b):
    """('moved', max_abs, max_rel) when only numbers differ, else ('differs',)."""
    tokens_a, tokens_b = _TOKEN.split(a), _TOKEN.split(b)
    if len(tokens_a) != len(tokens_b):
        return ("differs",)
    max_abs = max_rel = 0.0
    for x, y in zip(tokens_a, tokens_b):
        if x == y:
            continue
        fx, fy = _as_float(x), _as_float(y)
        if fx is None or fy is None or not (math.isfinite(fx) and math.isfinite(fy)):
            return ("differs",)
        gap = abs(fx - fy)
        max_abs = max(max_abs, gap)
        max_rel = max(max_rel, gap / max(abs(fx), abs(fy)))
    return ("moved", max_abs, max_rel)


def _files(root):
    return {
        str(path.relative_to(root)) for path in Path(root).rglob("*") if path.is_file()
    }


def compare(a, b):
    names = sorted(_files(a) | _files(b))
    counts = {"identical": 0, "moved": 0, "differs": 0, "missing": 0}
    fixed, unfixed = 0, []
    for name in names:
        status = _compare_file(a, b, name)
        counts[status] += 1
        if FIXED.search(name):
            fixed += 1
            if status != "identical":
                unfixed.append(name)
    print(", ".join(f"{count} {status}" for status, count in counts.items()))
    verdict = "; not identical: " + ", ".join(unfixed) if unfixed else ""
    same = fixed - len(unfixed)
    print(f"results that must not move: {same} of {fixed} identical{verdict}")
    return 0 if counts["identical"] == len(names) else 1


def _compare_file(a, b, name):
    """Print the line of file ``name`` under trees a and b; return its status."""
    path_a, path_b = Path(a, name), Path(b, name)
    if not (path_a.is_file() and path_b.is_file()):
        print(f"missing    {name} (not in {b if path_a.is_file() else a})")
        return "missing"
    bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
    if bytes_a == bytes_b:
        print(f"identical  {name}")
        return "identical"
    result = _difference(bytes_a.decode(), bytes_b.decode())
    if result[0] == "moved":
        print(f"moved      {name} max abs {result[1]:.3g}, max rel {result[2]:.3g}")
    else:
        print(f"differs    {name}")
    return result[0]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("write").add_argument("out")
    p_compare = modes.add_parser("compare")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    args = parser.parse_args()
    sys.exit(write(args.out) if args.mode == "write" else compare(args.a, args.b))
