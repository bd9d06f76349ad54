"""The benchmark's trace mode still sees the layers it checks.

``perfbench/run.py --trace 1`` fails a workload when one of its
``MUST_FIRE`` counters stays at zero, or when a layer that the matrix
enters only through its atoms (``LAYER_ATOMS``) is entered a different
number of times than those atoms run. These tests run ``perfbench/tracer.py``
in fresh processes on small versions of the ``laws``, ``scan``, ``matrix``
and ``docs`` commands and apply the same two checks, with the tables
imported from ``run.py``, so a change to the scans or to the law
registry that hides a layer from the tracer (which wraps each entry of
``laws.LAWS`` and ``SpaceFacts.__init__``) fails here first.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def run_module():
    # run.py imports its sibling modules; no bytecode is left beside them.
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode
    return module


def _traced(tmp_path, *argv):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), "--out", str(out), "--",
                    *argv], cwd=ROOT, env=env, check=True, capture_output=True)
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload, argv", [
    ("matrix", ["matrix", "--size", "3"]),
    ("scan", ["search", "--size", "3", "--where", "aConnected and not tauConnected",
              "--limit", "5"]),
    ("laws", ["verify-paper", "--max-size", "2"]),
])
def test_traced_counters_fire(run_module, tmp_path, workload, argv):
    doc = _traced(tmp_path, *argv)
    assert doc["exit_code"] == 0
    metrics = run_module._sum_traces([doc])
    assert [key for key in run_module.MUST_FIRE[workload] if not metrics.get(key)] == []
    if workload == "matrix":
        for key, atoms in run_module.LAYER_ATOMS.items():
            evals = sum(metrics[f"search.atom.{atom}.evals"] for atom in atoms)
            assert metrics[key] == evals == 48, key  # 3 atoms on 16 tuple classes


def test_traced_document_counters_fire(run_module, tmp_path):
    # The docs workload sums the traces of its document commands; a subspace
    # and a product of the two-point fixture must fire every docs counter.
    doc_path = str(ROOT / "src" / "auratopo" / "data" / "sierpinski2.json")
    docs = [_traced(tmp_path, "subspace", doc_path, "--points", "a"),
            _traced(tmp_path, "product", doc_path, doc_path)]
    assert [doc["exit_code"] for doc in docs] == [0, 0]
    metrics = run_module._sum_traces(docs)
    assert [key for key in run_module.MUST_FIRE["docs"] if not metrics.get(key)] == []
