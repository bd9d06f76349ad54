"""What each command imports, and the package's public names.

Each case runs in a fresh interpreter, since a module imported once stays
in ``sys.modules`` for the rest of a pytest process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SIERPINSKI = SRC / "auratopo" / "data" / "sierpinski2.json"

LAB = ("laws", "verification", "symbolic", "sequences", "covering", "genopen", "fixtures")


def _python(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, check=True)
    return proc.stdout


# Prints the exit code and the modules the command added to those the
# interpreter had loaded at start-up.
LOADED_AFTER = """
import sys
before = set(sys.modules)
import contextlib, io, json
from auratopo import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _loaded_after(argv):
    code, loaded = json.loads(_python(LOADED_AFTER, *argv))
    assert code == 0
    return loaded


@pytest.mark.parametrize("argv, skipped", [
    (["validate", str(SIERPINSKI)], LAB),
    (["matrix", "--size", "0"], ("laws", "verification", "symbolic", "documents", "fixtures")),
    (["search", "--size", "2", "--where", "aConnected"], LAB + ("documents",)),
    (["convergence", str(SIERPINSKI), "--seq", ";a"],
     ("laws", "verification", "symbolic", "covering", "genopen", "fixtures")),
    (["verify-paper", "--skip-laws"], ("laws", "search")),
])
def test_commands_import_only_their_layers(argv, skipped):
    loaded = [m for m in _loaded_after(argv) if m.startswith("auratopo.")]
    assert "auratopo.cli" in loaded
    assert [m for m in loaded if m[len("auratopo."):] in skipped] == []


# ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``.
DOCUMENT_BUDGET = ("auratopo.search", "dataclasses", "inspect")


@pytest.mark.parametrize("argv, absent", [
    (["validate", str(SIERPINSKI)], DOCUMENT_BUDGET),
    (["analyze", str(SIERPINSKI)], DOCUMENT_BUDGET),
    (["tau-a", str(SIERPINSKI)], DOCUMENT_BUDGET),
    (["subspace", str(SIERPINSKI), "--points", "a"], DOCUMENT_BUDGET),
    (["product", str(SIERPINSKI), str(SIERPINSKI)], DOCUMENT_BUDGET),
    (["search", "--size", "2", "--where", "aConnected"], ("dataclasses",)),
    (["matrix", "--size", "0"], ("dataclasses",)),
])
def test_commands_stay_within_their_module_budget(argv, absent):
    loaded = _loaded_after(argv)
    assert "auratopo.cli" in loaded
    assert [m for m in absent if m in loaded] == []


SYMBOLIC_HELP = """\
usage: auratopo symbolic [-h] [--report] [--carrier CARRIER] [--json]
                         {nat-successor,nat-discrete,trivial,cofinite-trivial}

positional arguments:
  {nat-successor,nat-discrete,trivial,cofinite-trivial}

options:
  -h, --help            show this help message and exit
  --report              full report with reasons
  --carrier CARRIER     carrier label for the trivial model
  --json                emit machine-readable JSON
"""


def test_symbolic_choices_are_the_models_without_loading_them():
    out = _python("""
import contextlib, io, json, sys
from auratopo import cli
help_text = io.StringIO()
with contextlib.redirect_stdout(help_text):
    try:
        cli.main(["symbolic", "--help"])
    except SystemExit:
        pass
loaded = "auratopo.symbolic" in sys.modules
from auratopo import symbolic
print(json.dumps([help_text.getvalue(), loaded, cli.MODEL_NAMES == symbolic.MODEL_NAMES]))
""")
    help_text, loaded, same = json.loads(out)
    assert help_text == SYMBOLIC_HELP
    assert not loaded
    assert same


@pytest.mark.parametrize("first", ["import auratopo", "import auratopo.search",
                                   "import auratopo.laws"])
def test_package_search_is_the_function(first):
    out = _python(f"""
{first}
import auratopo.search
import auratopo, types
from auratopo import search
print(isinstance(auratopo.search, types.FunctionType), search is auratopo.search,
      search.__module__)
""")
    assert out.split() == ["True", "True", "auratopo.search"]


def test_every_public_name_resolves_to_its_module_object():
    out = _python("""
import importlib, json
import auratopo
listed = set(dir(auratopo))
star = {}
exec("from auratopo import *", star)
home = {name: module for module, names in auratopo._EXPORTS.items() for name in names}
wrong = [name for name in auratopo.__all__ if name != "__version__"
         and star[name] is not getattr(importlib.import_module("auratopo." + home[name]), name)]
print(json.dumps({
    "all": auratopo.__all__,
    "missing_from_dir": sorted(set(auratopo.__all__) - listed),
    "missing_from_star": sorted(set(auratopo.__all__) - set(star)),
    "wrong": wrong,
    "unknown": hasattr(auratopo, "no_such_name"),
}))
""")
    got = json.loads(out)
    assert len(got["all"]) == len(set(got["all"])) == 97
    assert got["missing_from_dir"] == []
    assert got["missing_from_star"] == []
    assert got["wrong"] == []
    assert got["unknown"] is False
