import hashlib
import itertools
import json
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from auratopo import FIXTURE_NAMES
from auratopo.cli import main
from importlib import resources


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """The bundled fixtures copied out as plain files the CLI can read."""
    root = tmp_path_factory.mktemp("docs")
    for name in FIXTURE_NAMES:
        text = (
            resources.files("auratopo")
            .joinpath("data")
            .joinpath(f"{name}.json")
            .read_text(encoding="utf-8")
        )
        (root / f"{name}.json").write_text(text, encoding="utf-8")
    return root


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """The unrecognized arguments of a CLI call that argparse rejects with
    exit code 2 and nothing on stdout."""
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.rpartition("error: unrecognized arguments: ")[2].rstrip("\n")


def test_validate(docs, capsys):
    code, out, err = run_cli(capsys, "validate", str(docs / "sierpinski2.json"))
    assert code == 0
    assert out == "valid: sierpinski2 has 2 points and 3 open sets\n"
    code, out, _ = run_cli(capsys, "validate", "--json", str(docs / "sierpinski2.json"))
    assert code == 0
    assert json.loads(out) == {
        "valid": True,
        "name": "sierpinski2",
        "points": 2,
        "openSets": 3,
    }


def test_analyze_text_snapshot(docs, capsys):
    code, out, _ = run_cli(capsys, "analyze", str(docs / "sierpinski2.json"))
    assert code == 0
    assert out == (
        "space: sierpinski2\n"
        "points: 2\n"
        "classification: transitive=true symmetric=false trivial=false discrete=false\n"
        "scope topology: 3 sets\n"
        "scope topology listing: {} {a} {a,b}\n"
        "components: {a,b}\n"
        "scope-connected: true\n"
        "tau-connected: true\n"
        "scope-path-connected: true\n"
        "locally-connected: true\n"
        "separation: t0=true t1=false t2=false\n"
    )


def test_analyze_json_keys(docs, capsys):
    code, out, _ = run_cli(capsys, "analyze", "--json", str(docs / "clusters5.json"))
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "clusters5"
    assert data["points"] == ["1", "2", "3", "4", "5"]
    assert data["components"] == [["1", "2"], ["3", "4"], ["5"]]
    assert data["scopeTopologyCount"] == 8
    assert data["scopeTopology"][0] == []
    assert set(data["classification"]) == {
        "transitive",
        "symmetric",
        "trivial",
        "discrete",
    }
    assert set(data["separation"]) == {"t0", "t1", "t2"}


def test_operators(docs, capsys):
    chain = str(docs / "chain3.json")
    code, out, _ = run_cli(capsys, "closure", chain, "--set", "2")
    assert (code, out) == (0, "closure of {2}: {0,1,2}\n")
    code, out, _ = run_cli(capsys, "interior", chain, "--set", "0,1")
    assert (code, out) == (0, "interior of {0,1}: {}\n")
    code, out, _ = run_cli(capsys, "derived", chain, "--set", "1")
    assert (code, out) == (0, "derived of {1}: {0}\n")
    code, out, _ = run_cli(capsys, "derived", "--json", chain, "--set", "1")
    assert json.loads(out) == {"operation": "derived", "input": ["1"], "result": ["0"]}


def test_tau_a_and_components(docs, capsys):
    code, out, _ = run_cli(capsys, "tau-a", str(docs / "ladder4.json"))
    assert code == 0
    assert out.splitlines()[0] == "scope topology: 5 sets"
    code, out, _ = run_cli(capsys, "components", str(docs / "clusters5.json"))
    assert out == "components: {1,2} {3,4} {5}\n"


def test_subspace_emits_a_parseable_document(docs, capsys):
    from auratopo import load_fixture, parse_document, subspace

    code, out, _ = run_cli(
        capsys, "subspace", str(docs / "rotor3.json"), "--points", "a,b"
    )
    assert code == 0
    emitted = parse_document(out).space
    direct = subspace(load_fixture("rotor3"), load_fixture("rotor3").universe.subset(["a", "b"]))
    assert emitted == direct


def test_product_emits_the_product_document(docs, capsys):
    from auratopo import load_fixture, parse_document, product

    code, out, _ = run_cli(
        capsys, "product", str(docs / "sierpinski2.json"), str(docs / "discrete2.json")
    )
    assert code == 0
    emitted = parse_document(out).space
    assert emitted == product(load_fixture("sierpinski2"), load_fixture("discrete2"))


def test_document_commands_take_no_json_flag(docs, capsys):
    # subspace and product always emit a JSON document, so --json is a usage error.
    rotor = str(docs / "rotor3.json")
    for argv in (["subspace", rotor, "--points", "a,b", "--json"], ["product", rotor, rotor, "--json"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --json" in captured.err


def test_convergence(docs, capsys):
    chain = str(docs / "chain3.json")
    code, out, _ = run_cli(capsys, "convergence", chain, "--seq", ";2")
    assert (code, out) == (0, "limits of ;2: {0,1,2}\n")
    code, out, _ = run_cli(capsys, "convergence", chain, "--seq", "0;2", "--limit", "1")
    assert (code, out) == (0, "sequence 0;2 converges to 1: true\n")
    code, out, _ = run_cli(capsys, "convergence", "--json", chain, "--seq", ";1,2")
    assert json.loads(out) == {"sequence": ";1,2", "limits": ["0", "1"]}


def test_symbolic(capsys):
    code, out, _ = run_cli(capsys, "symbolic", "nat-successor")
    assert code == 0
    assert out == (
        "nat-successor: aCompact=true countablyACompact=true aLindelof=true "
        "aLimitPointCompact=true aSequentiallyCompact=true tauCompact=false\n"
    )
    code, out, _ = run_cli(capsys, "symbolic", "nat-successor", "--report")
    assert "witness family" not in out
    assert "reason:" in out
    code, out, _ = run_cli(capsys, "symbolic", "trivial", "--carrier", "Q", "--json")
    data = json.loads(out)
    assert data["model"] == "trivial"
    assert data["carrier"].startswith("Q")
    assert data["tauCompact"]["imported"] is True


SYMBOLIC_TRANSCRIPT = Path(__file__).parent / "golden" / "symbolic.txt"


def test_symbolic_outputs_are_pinned(capsys):
    # Every model in each output form, and the trivial model on another
    # carrier: a "$ auratopo symbolic ..." line, then that command's stdout.
    text = SYMBOLIC_TRANSCRIPT.read_text(encoding="utf-8")
    blocks = [b.split("\n", 1) for b in text.split("$ auratopo symbolic ")[1:]]
    argvs = [tuple(argv.split()) for argv, _ in blocks]
    assert argvs == [
        (model, *form)
        for model in ("nat-successor", "nat-discrete", "trivial", "cofinite-trivial")
        for form in ((), ("--report",), ("--json",))
    ] + [("trivial", "--carrier", "Q", "--report"), ("trivial", "--carrier", "Q", "--json")]
    for argv, (_, expected) in zip(argvs, blocks):
        assert run_cli(capsys, "symbolic", *argv)[:2] == (0, expected), argv


def test_search_exit_codes_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--size", "2", "--where", "aConnected and not tauConnected"
    )
    assert code == 0
    assert "witnesses: " in out
    code, out, _ = run_cli(capsys, "search", "--size", "2", "--where", "not clIdempotent")
    assert code == 1
    assert "witnesses: 0" in out
    code, out, _ = run_cli(
        capsys, "search", "--size", "2", "--where", "trivial", "--json", "--limit", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "search"
    assert len(data["witnesses"]) == 2


def test_text_output_ends_with_newline(docs, capsys):
    # Shell pipelines glue the next prompt onto an unterminated last line.
    chain = str(docs / "chain3.json")
    argvs = [
        ("validate", chain),
        ("analyze", chain),
        ("closure", chain, "--set", "2"),
        ("interior", chain, "--set", "0,1"),
        ("derived", chain, "--set", "1"),
        ("tau-a", chain),
        ("components", chain),
        ("convergence", chain, "--seq", ";2"),
        ("symbolic", "nat-successor"),
        ("symbolic", "nat-successor", "--report"),
        ("search", "--size", "2", "--where", "trivial"),
        ("search", "--size", "2", "--where", "not clIdempotent"),
        ("matrix", "--size", "2"),
        ("enumerate", "--size", "2", "--count-only"),
        ("verify-paper", "--skip-laws"),
    ]
    for argv in argvs:
        _, out, _ = run_cli(capsys, *argv)
        assert out.endswith("\n") and not out.endswith("\n\n"), argv


def test_workers_option_is_a_usage_error(capsys):
    # search and matrix run in one process; --workers is no option of either.
    for argv in (
        ("search", "--size", "3", "--where", "aT1 and not aT2", "--json", "--workers", "2"),
        ("matrix", "--size", "2", "--workers", "1"),
    ):
        assert usage_error(capsys, *argv) == "--workers " + argv[-1]
    code, out, _ = run_cli(capsys, "search", "--size", "3", "--where", "aT1 and not aT2", "--json")
    assert code == 1 and json.loads(out)["spacesScanned"] == 362


def test_matrix(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--size", "2")
    assert code == 0
    assert "discrete => transitive: holds" in out
    assert "product scan:" in out


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--size", "2", "--count-only")
    assert (code, out) == (0, "size: 2\ntopologies: 4\nauras: 9\n")
    code, out, _ = run_cli(capsys, "enumerate", "--size", "1")
    assert out == "size: 1\ntopologies: 1\nauras: 1\ntopology 0: {} {a}\n"
    code, out, _ = run_cli(capsys, "enumerate", "--size", "3", "--count-only", "--json")
    assert json.loads(out) == {"size": 3, "topologies": 29, "auras": 362}


def test_verify_paper_passes(docs, capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--skip-laws")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verification: pass"
    assert sum(1 for line in lines if line.startswith("ok ")) == 16
    # The same checks run against fixtures in a plain directory.
    code, out2, _ = run_cli(
        capsys, "verify-paper", "--skip-laws", "--fixtures-dir", str(docs)
    )
    assert code == 0
    assert out2 == out


def test_verify_paper_with_laws_at_size_one(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--max-size", "1")
    assert code == 0
    assert "law cech-closure-axioms: ok" in out
    assert out.splitlines()[-1] == "verification: pass"


def test_verify_paper_rejects_a_law_size_before_any_fixture_check(capsys, monkeypatch):
    # --max-size is checked whether or not the laws run, and before the
    # fixture checks, which would otherwise all run first.
    from auratopo import verification

    ran = []
    monkeypatch.setattr(verification, "fixture_checks", lambda *a: ran.append(a) or [])
    for argv in (("--skip-laws", "--max-size", "9"), ("--max-size", "4")):
        code, out, err = run_cli(capsys, "verify-paper", *argv)
        size = argv[-1]
        assert (code, out, err) == (2, "", f"error: laws run on sizes 0..3, got {size}\n")
    assert ran == []


# The perfbench workloads by pin name; each pin is the sha256 of the stdout.
PINNED_COMMANDS = {
    "laws": ("verify-paper",),
    "matrix": ("matrix", "--size", "4"),
    "scan": ("search", "--size", "4", "--where", "aConnected and not tauConnected",
             "--limit", "5"),
}


def test_stdout_matches_the_perfbench_pins(capsys):
    pins_path = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    assert set(pins) == set(PINNED_COMMANDS)
    for name, argv in PINNED_COMMANDS.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, name
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pins[name], name


def test_verify_paper_json_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify-paper", "--skip-laws", "--json")
    _, second, _ = run_cli(capsys, "verify-paper", "--skip-laws", "--json")
    assert first == second
    data = json.loads(first)
    assert data["ok"] is True
    assert len(data["checks"]) == 16


def test_validate_names_the_missing_open_of_a_large_document(tmp_path, capsys):
    # A 12-point discrete document (4,096 opens in a seeded order) with one
    # open left out: exit 2 with the same first violated pair as a scan of
    # every pair gives.
    labels = [f"p{i}" for i in range(12)]
    opens = [list(c) for k in range(13) for c in itertools.combinations(labels, k)]
    random.Random(6).shuffle(opens)
    gone = opens.pop(next(i for i, o in enumerate(opens) if 2 <= len(o) <= 10))
    assert gone == ["p3", "p6", "p9", "p10"]
    doc = {"points": labels, "opens": opens, "aura": {x: [x] for x in labels}}
    path = tmp_path / "gap12.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: union of {p3} and {p10,p6,p9} is missing\n"


def test_input_errors_exit_2(docs, tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error: ")
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [}', encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "line 1" in err
    code, _, err = run_cli(
        capsys, "closure", str(docs / "chain3.json"), "--set", "9"
    )
    assert code == 2
    assert "no point labelled '9'" in err
    code, _, err = run_cli(
        capsys, "search", "--size", "2", "--where", "compactish"
    )
    assert code == 2
    assert "unknown predicate atom 'compactish'" in err
    code, _, err = run_cli(
        capsys, "convergence", str(docs / "chain3.json"), "--seq", "0,1"
    )
    assert code == 2
    assert "nonempty cycle" in err
    code, out, err = run_cli(capsys, "search", "--size", "6", "--where", "trivial")
    assert (code, out) == (2, "")
    assert err == "error: search supports sizes 0..5, got 6\n"
    code, out, err = run_cli(
        capsys, "search", "--size", "2", "--where", "aT0 and not aT1", "--limit", "-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: limit must be a nonnegative count, got -1\n"
    # Searches walk the whole grid at every size, under one witness budget:
    # sampling, its seed and the size-5 opt-in are no options.
    for extra in (
        ("--workers", "-1"),
        ("--samples", "50"),
        ("--seed", "1"),
        ("--allow-large",),
    ):
        argv = ("search", "--size", "2", "--where", "trivial", *extra)
        assert usage_error(capsys, *argv) == " ".join(extra)
    assert usage_error(capsys, "matrix", "--size", "2", "--workers", "0") == "--workers 0"


def test_deeply_nested_document_is_a_syntax_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(deep))
    assert (code, out) == (2, "")
    assert err == ("error: arrays and objects nested too deeply "
                   "at the parser's depth limit\n")


def test_size_five_search_past_the_witness_budget_exits_2(capsys):
    # aConnected holds on 36,512,306 of the 36,831,347 size-5 spaces; the
    # search stops one hit past the budget and renders none of them.
    code, out, err = run_cli(capsys, "search", "--size", "5", "--where", "aConnected")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: more than 59123 witnesses") and "--limit" in err


PROJECT = Path(__file__).resolve().parents[1]
WRAPPER = "import sys; from auratopo.cli import main; sys.exit(main())"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_product_past_the_family_budget_exits_2():
    # Two discrete 5-point fixtures: the product topology would have 2**25
    # members. The address-space cap keeps a closure that ignores the
    # budget from exhausting the host; it then dies with MemoryError.
    fixture = str(PROJECT / "src" / "auratopo" / "data" / "clusters5.json")
    proc = subprocess.run([sys.executable, "-c", WRAPPER, "product", fixture, fixture],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def _check_console_runner(runner, tmp_path):
    """`runner` behaves as the `auratopo` script: stdout and exit codes."""
    proc = subprocess.run(
        [*runner, "enumerate", "--size", "0", "--count-only"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, runner
    assert proc.stdout == "size: 0\ntopologies: 1\nauras: 1\n", runner
    bad = subprocess.run([*runner, "symbolic", "planck"], capture_output=True, text=True)
    assert bad.returncode == 2, runner
    # Returned by main, not raised by argparse: the exit code shows that the
    # runner passes main's return value on.
    missing = subprocess.run(
        [*runner, "validate", str(tmp_path / "absent.json")],
        capture_output=True,
        text=True,
    )
    assert missing.returncode == 2, runner
    assert missing.stderr.startswith("error: "), runner


def test_console_script_is_installed(tmp_path):
    # What `pip install` writes as the `auratopo` script is fixed by the
    # declared entry point, so check that entry point from the source tree
    # and run it the way the generated wrapper does.
    text = (PROJECT / "pyproject.toml").read_text(encoding="utf-8")
    assert '[project.scripts]\nauratopo = "auratopo.cli:main"\n' in text
    _check_console_runner([sys.executable, "-c", WRAPPER], tmp_path)
    _check_console_runner([sys.executable, "-m", "auratopo.cli"], tmp_path)


@pytest.mark.skipif(
    shutil.which("auratopo") is None, reason="no auratopo script on PATH"
)
def test_installed_console_script_runs(tmp_path):
    _check_console_runner([shutil.which("auratopo")], tmp_path)
